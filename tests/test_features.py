"""Feature extraction tests: hand-derived vectors, analytic signals, properties."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from scipy import stats

from sensorprint import features
from sensorprint.countermeasures import QuantizationConfig, apply_countermeasure, quantize_sample
from sensorprint.dataset import Dataset, RawSample, generate_synthetic
from sensorprint.features import (
    N_TOTAL,
    FeatureTable,
    featurize,
    featurize_dataset,
    featurize_sample,
    load_features_csv,
    stream_features,
    write_features_csv,
)
from sensorprint.preprocess import STREAM_KEYS, build_streams


def test_temporal_constant_series():
    t = stream_features(np.full(100, 9.81))[:10]
    expected = [9.81, 0.0, 0.0, 0.0, 0.0, 9.81, 9.81, 9.81, 0.0, 1.0]
    np.testing.assert_allclose(t, expected, atol=1e-12)


def test_temporal_alternating_series():
    x = np.tile([1.0, -1.0], 50)
    t = stream_features(x)[:10]
    assert t[0] == pytest.approx(0.0, abs=1e-15)  # mean
    assert t[8] == 1.0  # every adjacent pair flips sign
    assert t[5] == pytest.approx(1.0)  # RMS
    assert t[9] == 0.5  # half the mean-removed values are >= 0


def test_temporal_small_hand_case():
    t = stream_features(np.array([0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0]))[:10]
    assert t[0] == pytest.approx(1.5)
    assert t[1] == pytest.approx(np.sqrt(1.25))
    assert t[6] == 0.0
    assert t[7] == 3.0


def test_temporal_matches_reference_stats():
    rng = np.random.default_rng(42)
    x = rng.gamma(2.0, size=1000)
    t = stream_features(x)[:10]
    assert t[3] == pytest.approx(stats.skew(x, bias=True), abs=1e-12)
    assert t[4] == pytest.approx(stats.kurtosis(x, bias=True, fisher=True), abs=1e-12)
    assert t[2] == pytest.approx(np.mean(np.abs(x - x.mean())), abs=1e-12)


def test_temporal_shift_equivariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=500)
    c = 4.2
    base = stream_features(x)[:10]
    shifted = stream_features(x + c)[:10]
    # mean/min/max shift by c, RMS changes analytically, the rest are invariant
    assert shifted[0] == pytest.approx(base[0] + c, abs=1e-9)
    assert shifted[6] == pytest.approx(base[6] + c, abs=1e-9)
    assert shifted[7] == pytest.approx(base[7] + c, abs=1e-9)
    assert shifted[5] == pytest.approx(np.sqrt(np.mean((x + c) ** 2)), abs=1e-12)
    for i in (1, 2, 3, 4, 8, 9):
        assert shifted[i] == pytest.approx(base[i], abs=1e-9)


def test_scaling_property():
    rng = np.random.default_rng(8)
    x = rng.normal(size=512) + 3.0
    s = 2.5
    tb, ts = stream_features(x)[:10], stream_features(s * x)[:10]
    for i in (0, 1, 2, 5, 6, 7):  # mean, std, avg-dev, RMS, min, max scale
        assert ts[i] == pytest.approx(s * tb[i], rel=1e-9)
    for i in (3, 4, 8, 9):  # shape stats and sign-based rates do not
        assert ts[i] == pytest.approx(tb[i], abs=1e-9)
    sb, ss = stream_features(x, 100.0)[10:], stream_features(s * x, 100.0)[10:]
    assert ss[4] == pytest.approx(sb[4], abs=1e-9)  # entropy
    assert ss[5] == pytest.approx(sb[5], abs=1e-9)  # flatness


def test_spectral_alternating_hand_vector():
    # x = (+1,-1)^4 at fs=100: all energy in the Nyquist bin (12.5 Hz grid,
    # bins at 12.5/25/37.5/50 with magnitudes 0,0,0,8). Every value below
    # follows by hand from the definitions.
    x = np.tile([1.0, -1.0], 4)
    s = stream_features(x, 100.0)[10:]
    expected = [
        50.0,      # centroid: single line at Nyquist
        0.0,       # spread
        0.0, 0.0,  # skew/kurt: zero-spread convention
        0.0,       # entropy: one-bin spectrum
        0.0,       # flatness: zero bins present
        4.0,       # crest: 8 / (8/4)
        50.0,      # rolloff
        1.0,       # brightness: all energy above 12.5 Hz
        4.0,       # spectral RMS: sqrt(64/4)
        0.0,       # smoothness: clamped log spectrum is flat
        8.0 / 3.0, # irregularity-K
        1.0,       # irregularity-J: 64/64
        0.0,       # flux: both halves identical
        0.0,       # low-energy: unit subframe RMS equals full RMS
    ]
    np.testing.assert_allclose(s, expected, atol=1e-9)


def test_spectral_pure_tone():
    t = np.arange(500) / 100.0
    s = stream_features(np.sin(2 * np.pi * 10 * t), 100.0)[10:]
    assert abs(s[0] - 10.0) < 0.5  # centroid
    assert abs(s[7] - 10.0) < 1.0  # rolloff
    assert s[4] < 0.01  # entropy of a line spectrum


def test_spectral_white_noise_flatness():
    # |FFT|^2 of white noise is ~exponential per bin; GM/AM of an exponential
    # is e^(-gamma) ~= 0.56. Observed minimum over 10 seeds was 0.52.
    for seed in range(10):
        w = np.random.default_rng(seed).normal(size=2000)
        s = stream_features(w, 100.0)[10:]
        assert s[5] > 0.5
        assert s[4] > 0.9  # entropy near 1 for a flat spectrum


def test_spectral_all_zero_series():
    np.testing.assert_array_equal(stream_features(np.zeros(64), 100.0)[10:], np.zeros(15))
    # constant series: mean removal zeroes the spectrum too
    np.testing.assert_array_equal(stream_features(np.full(64, 5.0), 100.0)[10:], np.zeros(15))


def test_stream_features_checks_its_series_and_rate():
    x = np.random.default_rng(1).normal(size=64)
    fv = stream_features(x)
    assert fv.shape == (len(features.TEMPORAL_NAMES) + len(features.SPECTRAL_NAMES),)
    assert fv.tobytes() == stream_features(x, 100.0).tobytes()  # DEFAULT_FS
    with pytest.raises(ValueError, match="too short"):
        stream_features(x[:7])
    with pytest.raises(ValueError, match="too short"):
        featurize([np.zeros((4, 7))], 100.0)
    with pytest.raises(ValueError, match="fs must be positive"):
        stream_features(x, 0.0)


def test_featurize_length_and_blocks():
    n = 512
    rng = np.random.default_rng(9)
    streams = {
        "A_MAG": np.abs(rng.normal(9.81, 0.1, n)),
        "GYRO_X": rng.normal(0, 0.01, n),
        "GYRO_Y": rng.normal(0, 0.02, n),
        "GYRO_Z": rng.normal(0, 0.03, n),
    }
    fv = featurize([np.stack([streams[k] for k in STREAM_KEYS])], 100.0)[0]
    assert fv.shape == (N_TOTAL,)
    # swapping two gyro axes permutes exactly the corresponding 25-blocks
    swapped = dict(streams)
    swapped["GYRO_X"], swapped["GYRO_Z"] = streams["GYRO_Z"], streams["GYRO_X"]
    fv2 = featurize([np.stack([swapped[k] for k in STREAM_KEYS])], 100.0)[0]
    np.testing.assert_array_equal(fv2[25:50], fv[75:100])
    np.testing.assert_array_equal(fv2[75:100], fv[25:50])
    np.testing.assert_array_equal(fv2[0:25], fv[0:25])


def test_featurize_stationary_sample():
    n = 500
    t = np.arange(n) / 100.0
    sample = RawSample("d", "s", t, np.tile([0.0, 0.0, 9.81], (n, 1)), np.zeros((n, 3)))
    fv = featurize_sample(sample)
    assert fv[0] == pytest.approx(9.81, abs=1e-9)  # A_MAG mean
    assert fv[1] == pytest.approx(0.0, abs=1e-9)   # A_MAG std


def test_featurize_deterministic():
    rng = np.random.default_rng(10)
    n = 500
    streams = {k: rng.normal(size=n) + 5 for k in ("A_MAG", "GYRO_X", "GYRO_Y", "GYRO_Z")}
    streams["A_MAG"] = np.abs(streams["A_MAG"])
    S = np.stack([streams[k] for k in STREAM_KEYS])
    a = featurize([S], 100.0)[0]
    b = featurize([S], 100.0)[0]
    np.testing.assert_array_equal(a, b)


def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    table = FeatureTable(rng.normal(size=(3, 100)), ["d0", "d1", "d2"], ["s0"] * 3)
    p = tmp_path / "features.csv"
    write_features_csv(table, p)
    header = p.read_text().splitlines()[0]
    assert header.startswith("device_id,sample_id,f000,f001")
    assert header.endswith("f099")
    loaded = load_features_csv(p)
    assert list(loaded.device_ids) == ["d0", "d1", "d2"]
    np.testing.assert_array_equal(loaded.X, table.X)  # repr round-trips exactly


def test_feature_table_csv_round_trip_keeps_rows_and_ids(tmp_path):
    ds = generate_synthetic(3, 2, seed=4)
    table = featurize_dataset(ds)
    p = tmp_path / "features.csv"
    write_features_csv(table, p)
    loaded = load_features_csv(p)
    np.testing.assert_array_equal(loaded.X, table.X)
    assert list(loaded.device_ids) == [s.device_id for s in ds.samples]
    assert list(loaded.sample_ids) == [s.sample_id for s in ds.samples]
    write_features_csv(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == p.read_bytes()
    empty = tmp_path / "empty.csv"
    write_features_csv(FeatureTable(np.zeros((0, N_TOTAL)), [], []), empty)
    assert load_features_csv(empty).X.shape == (0, N_TOTAL)


def test_featurize_dataset_rows_follow_dataset_order():
    ds = generate_synthetic(2, 3, seed=5)
    table = featurize_dataset(ds)
    assert table.X.shape == (6, N_TOTAL)
    for row, s in zip(table.X, ds.samples):
        np.testing.assert_array_equal(row, featurize_sample(s))


def test_featurize_dataset_pinned():
    # sha256 of the feature matrix bytes, re-recorded when the third and
    # fourth moments became products instead of powers (only those 16
    # columns moved, by under 1e-11 relative); any change of summation
    # order, product or norm arithmetic in the kernel moves these digests
    ds = generate_synthetic(12, 5, seed=0)
    expected = {
        None: "7129a6ed440e0af59b29c7fcd4c5b014a02d3fc7600bf73464a8664be94a448a",
        "quantize": "828f98616f670ea04c52987ef65a18b9cd450adb996fa19153e9efe7177aa3e4",
        "obfuscate": "c3ef1c3807dfc2746aa4b09157aeebc91528f941df2ff18a7950e6b0f73a47b2",
    }
    for scheme, digest in expected.items():
        data = ds if scheme is None else apply_countermeasure(ds, scheme)
        X = featurize_dataset(data).X
        assert hashlib.sha256(X.tobytes()).hexdigest() == digest, scheme


def _mixed_length_dataset() -> Dataset:
    """Synthetic captures interleaved with truncated ones (several resampled
    lengths), a constant-accel zero-gyro capture and a quantized capture."""
    out = []
    for i, s in enumerate(generate_synthetic(10, 5, seed=7).samples):
        if i % 4 == 1:
            k = (120, 200)[(i // 4) % 2]
            s = RawSample(s.device_id, s.sample_id, s.timestamps[:k], s.accel[:k], s.gyro[:k])
        elif i == 10:
            s = quantize_sample(s, QuantizationConfig())
        out.append(s)
        if i == 6:
            n = 400
            t = np.arange(n) / 100.0 + np.random.default_rng(0).uniform(0, 0.004, n)
            out.append(RawSample("flat", "s0", t, np.tile([0.0, 0.0, 9.81], (n, 1)),
                                 np.zeros((n, 3))))
    return Dataset(out)


def test_featurize_dataset_blocks_match_single_captures():
    ds = _mixed_length_dataset()
    lengths = [build_streams([s])[0].shape[1] for s in ds.samples]
    # the premise: several length groups, interleaved, one spanning blocks
    assert len(set(lengths)) >= 4
    assert max(lengths.count(n) for n in set(lengths)) > features.BLOCK_CAPTURES
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = featurize_dataset(ds)
        single = [featurize_sample(s) for s in ds.samples]
    assert list(table.sample_ids) == [s.sample_id for s in ds.samples]
    assert list(table.device_ids) == [s.device_id for s in ds.samples]
    for row, fv in zip(table.X, single):
        assert row.tobytes() == fv.tobytes()
    flat = table.X[list(table.device_ids).index("flat")]
    assert flat[1] == 0.0  # constant A_MAG: std follows the degenerate rule
    np.testing.assert_array_equal(flat[25 + 10:50], 0.0)  # silent GYRO_X spectrum


def _moments_by_powers(S, fs):
    """Skewness and kurtosis, temporal and spectral, of each row of a stream
    matrix, written with ``**`` powers and the module's degenerate rules:
    the oracle for the kernel's products."""
    mu = S.mean(axis=1)
    dev = S - mu[:, None]
    std = np.sqrt(np.mean(dev**2, axis=1))
    m = np.abs(np.fft.rfft(dev))[:, 1:]
    freqs = np.arange(1, m.shape[1] + 1) * (fs / S.shape[1])
    m_sum = m.sum(axis=1)
    const = std <= np.abs(mu) * 1e-12
    out = np.zeros((len(S), 4))
    for i in np.flatnonzero(~const):
        out[i, :2] = (np.mean(dev[i]**3) / std[i]**3, np.mean(dev[i]**4) / std[i]**4 - 3.0)
        if m_sum[i] == 0:
            continue
        d = freqs - np.sum(freqs * m[i]) / m_sum[i]
        spread = np.sqrt(np.sum(d**2 * m[i]) / m_sum[i])
        if spread > 0:
            out[i, 2:] = (np.sum(d**3 * m[i]) / (m_sum[i] * spread**3),
                          np.sum(d**4 * m[i]) / (m_sum[i] * spread**4) - 3.0)
    return out


MOMENT_COLUMNS = [3, 4, 12, 13]  # skewness, kurtosis, spec_skewness, spec_kurtosis


@pytest.mark.parametrize("scheme", [None, "quantize"])
def test_moments_match_the_power_oracle(scheme):
    ds = generate_synthetic(4, 3, seed=0)
    data = ds if scheme is None else apply_countermeasure(ds, scheme)
    for s in data.samples:
        S = build_streams([s])[0]
        got = featurize([S], 100.0)[0].reshape(len(STREAM_KEYS), -1)[:, MOMENT_COLUMNS]
        want = _moments_by_powers(S, 100.0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        assert np.array_equal(got == 0, want == 0)  # degenerate zeros are exact


def test_moments_of_constant_streams_keep_the_degenerate_zeros():
    n = 300
    t = np.arange(n) / 100.0 + np.random.default_rng(3).uniform(0, 0.004, n)
    flat = RawSample("flat", "s0", t, np.tile([0.0, 0.0, 9.81], (n, 1)), np.zeros((n, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fv = featurize_sample(flat).reshape(len(STREAM_KEYS), -1)
    assert fv[:, MOMENT_COLUMNS].tobytes() == np.zeros((len(STREAM_KEYS), 4)).tobytes()


def test_featurize_stream_rows_are_independent():
    # one capture whose streams take different degenerate branches (zero
    # spectral bins and zero spread, silence, a constant): each 25-block
    # equals stream_features on that stream alone
    n = 64
    rng = np.random.default_rng(12)
    streams = {
        "A_MAG": np.full(n, 9.81),
        "GYRO_X": np.tile([1.0, -1.0], n // 2),
        "GYRO_Y": np.zeros(n),
        "GYRO_Z": rng.normal(size=n),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fv = featurize([np.stack([streams[k] for k in STREAM_KEYS])], 100.0)[0]
        for j, key in enumerate(("A_MAG", "GYRO_X", "GYRO_Y", "GYRO_Z")):
            block = stream_features(streams[key], 100.0)
            assert fv[25 * j:25 * (j + 1)].tobytes() == block.tobytes(), key


def test_feature_table_by_device_order():
    # interleaved rows: devices in first-seen order, rows in original order
    X = np.arange(5 * N_TOTAL, dtype=float).reshape(5, N_TOTAL)
    table = FeatureTable(X, ["b", "a", "b", "c", "a"], ["s0", "s1", "s2", "s3", "s4"])
    groups = table.device_rows()
    assert list(groups) == ["b", "a", "c"]
    np.testing.assert_array_equal(groups["b"], [0, 2])
    np.testing.assert_array_equal(groups["a"], [1, 4])
    np.testing.assert_array_equal(groups["c"], [3])
    two = table.eligible(2)
    assert list(two.sample_ids) == ["s0", "s1", "s2", "s4"]
    np.testing.assert_array_equal(two.X, X[[0, 1, 2, 4]])
    assert len(table.eligible(3).X) == 0


def test_feature_table_rejects_bad_shape():
    with pytest.raises(ValueError, match="columns"):
        FeatureTable(np.zeros((2, 99)), ["d", "d"], ["s0", "s1"])
    with pytest.raises(ValueError, match="finite"):
        FeatureTable(np.full((1, N_TOTAL), np.nan), ["d"], ["s0"])
    with pytest.raises(ValueError, match="align"):
        FeatureTable(np.zeros((2, N_TOTAL)), ["d"], ["s0", "s1"])


def test_feature_table_refuses_a_repeated_row():
    # a copied row is its capture's own nearest neighbour: refused in code
    # as it is in load_features_csv
    table = featurize_dataset(generate_synthetic(2, 2, seed=3))
    with pytest.raises(ValueError, match="duplicate row for device 'dev0000', sample 's000'"):
        FeatureTable(np.vstack([table.X, table.X[:1]]),
                     [*table.device_ids, table.device_ids[0]],
                     [*table.sample_ids, table.sample_ids[0]])


def _count_build_streams(monkeypatch) -> list:
    """Every sample handed to ``featurize_dataset``'s resampling step, in
    order (``build_streams`` takes a block of captures per call)."""
    handed = []
    real = features.build_streams

    def counting(samples, *args, **kwargs):
        samples = list(samples)
        handed.extend(samples)
        return real(samples, *args, **kwargs)

    monkeypatch.setattr(features, "build_streams", counting)
    return handed


def _fresh_copy(ds: Dataset) -> Dataset:
    return Dataset(dataclasses.replace(s) for s in ds.samples)  # each sample copies its arrays


def _assert_same_table(a: FeatureTable, b: FeatureTable):
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.device_ids, b.device_ids)
    np.testing.assert_array_equal(a.sample_ids, b.sample_ids)


@pytest.mark.parametrize("consumer", ["run_protocol", "privacy_impact"])
def test_each_consumer_featurizes_each_sample_once(monkeypatch, consumer):
    from sensorprint.classify import run_protocol
    from sensorprint.countermeasures import privacy_impact

    ds = generate_synthetic(4, 4, seed=1)
    handed = _count_build_streams(monkeypatch)
    if consumer == "run_protocol":
        run_protocol(ds, repeats=2)
        run_protocol(ds, repeats=2, use_ldml=True, ldml_iterations=5)
        run_protocol(ds, classifier="rf", repeats=2, n_trees=5)
        protected = 0
    else:
        privacy_impact(ds, "obfuscate", classifier="knn", repeats=1)
        privacy_impact(ds, "quantize", classifier="knn", repeats=1)
        protected = 2  # each call's protected dataset is a new one
    raw = [s for s in handed if any(s is r for r in ds.samples)]
    assert sorted(map(id, raw)) == sorted(map(id, ds.samples))
    assert len(handed) == (1 + protected) * len(ds.samples)


def test_in_place_edit_raises_and_the_stored_table_stays(monkeypatch):
    ds = generate_synthetic(3, 3, seed=2)
    handed = _count_build_streams(monkeypatch)
    before = featurize_dataset(ds)
    with pytest.raises(ValueError, match="read-only"):
        ds.samples[0].accel[:, 0] += 0.5
    assert featurize_dataset(ds) is before
    assert len(handed) == len(ds.samples)
    _assert_same_table(before, featurize_dataset(_fresh_copy(ds)))


def test_featurize_dataset_recomputes_at_another_rate(monkeypatch):
    ds = generate_synthetic(2, 3, seed=6)
    handed = _count_build_streams(monkeypatch)
    at_100 = featurize_dataset(ds)
    at_80 = featurize_dataset(ds, 80.0)
    featurize_dataset(ds, 80.0)  # the same rate again: the stored table
    assert len(handed) == 2 * len(ds.samples)
    assert not np.array_equal(at_80.X, at_100.X)
    _assert_same_table(at_80, featurize_dataset(_fresh_copy(ds), 80.0))


def test_stored_table_is_read_only_and_a_hit_gives_the_fresh_result(monkeypatch):
    from sensorprint.classify import run_protocol

    ds = generate_synthetic(4, 4, seed=5)
    handed = _count_build_streams(monkeypatch)
    table = featurize_dataset(ds)
    for a in (table.X, table.device_ids, table.sample_ids):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.X[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.X = np.zeros_like(table.X)
    assert featurize_dataset(ds) is table  # a hit hands out the stored table itself
    hit = run_protocol(ds, repeats=2, seed=3)
    assert len(handed) == len(ds.samples)
    fresh = run_protocol(generate_synthetic(4, 4, seed=5), repeats=2, seed=3)
    assert hit.to_dict() == fresh.to_dict()


def test_feature_table_keeps_read_only_copies_of_its_arrays():
    X = np.zeros((2, N_TOTAL))
    devices, samples = np.array(["d1", "d1"]), ["s1", "s2"]
    table = FeatureTable(X, devices, samples)
    X[0, 0], devices[0] = 5.0, "d9"  # the caller's arrays stay theirs
    assert table.X[0, 0] == 0.0 and list(table.device_ids) == ["d1", "d1"]
    for t in (table, table.eligible(2)):
        for name in ("X", "device_ids", "sample_ids"):
            assert not getattr(t, name).flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, getattr(t, name))
    with pytest.raises(ValueError, match="read-only"):
        table.device_ids[0] = "d9"


def test_features_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("device_id,sample_id,x\n")
    with pytest.raises(ValueError, match="header"):
        load_features_csv(p)


def test_build_streams_featurize_pipeline():
    ds = generate_synthetic(2, 2, seed=3)
    for s in ds.samples:
        fv = featurize(build_streams([s]), 100.0)[0]
        assert np.all(np.isfinite(fv))
        assert fv[0] == pytest.approx(9.81, abs=0.5)  # near-gravity magnitude
