"""Feature extraction tests: hand-derived vectors, analytic signals, properties."""

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
    spectral_features,
    temporal_features,
    write_features_csv,
)
from sensorprint.preprocess import STREAM_KEYS, build_streams


def test_temporal_constant_series():
    t = temporal_features(np.full(100, 9.81))
    expected = [9.81, 0.0, 0.0, 0.0, 0.0, 9.81, 9.81, 9.81, 0.0, 1.0]
    np.testing.assert_allclose(t, expected, atol=1e-12)


def test_temporal_alternating_series():
    x = np.tile([1.0, -1.0], 50)
    t = temporal_features(x)
    assert t[0] == pytest.approx(0.0, abs=1e-15)  # mean
    assert t[8] == 1.0  # every adjacent pair flips sign
    assert t[5] == pytest.approx(1.0)  # RMS
    assert t[9] == 0.5  # half the mean-removed values are >= 0


def test_temporal_small_hand_case():
    t = temporal_features(np.array([0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0]))
    assert t[0] == pytest.approx(1.5)
    assert t[1] == pytest.approx(np.sqrt(1.25))
    assert t[6] == 0.0
    assert t[7] == 3.0


def test_temporal_matches_reference_stats():
    rng = np.random.default_rng(42)
    x = rng.gamma(2.0, size=1000)
    t = temporal_features(x)
    assert t[3] == pytest.approx(stats.skew(x, bias=True), abs=1e-12)
    assert t[4] == pytest.approx(stats.kurtosis(x, bias=True, fisher=True), abs=1e-12)
    assert t[2] == pytest.approx(np.mean(np.abs(x - x.mean())), abs=1e-12)


def test_temporal_shift_equivariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=500)
    c = 4.2
    base = temporal_features(x)
    shifted = temporal_features(x + c)
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
    tb, ts = temporal_features(x), temporal_features(s * x)
    for i in (0, 1, 2, 5, 6, 7):  # mean, std, avg-dev, RMS, min, max scale
        assert ts[i] == pytest.approx(s * tb[i], rel=1e-9)
    for i in (3, 4, 8, 9):  # shape stats and sign-based rates do not
        assert ts[i] == pytest.approx(tb[i], abs=1e-9)
    sb, ss = spectral_features(x, 100.0), spectral_features(s * x, 100.0)
    assert ss[4] == pytest.approx(sb[4], abs=1e-9)  # entropy
    assert ss[5] == pytest.approx(sb[5], abs=1e-9)  # flatness


def test_spectral_alternating_hand_vector():
    # x = (+1,-1)^4 at fs=100: all energy in the Nyquist bin (12.5 Hz grid,
    # bins at 12.5/25/37.5/50 with magnitudes 0,0,0,8). Every value below
    # follows by hand from the definitions.
    x = np.tile([1.0, -1.0], 4)
    s = spectral_features(x, 100.0)
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
    s = spectral_features(np.sin(2 * np.pi * 10 * t), 100.0)
    assert abs(s[0] - 10.0) < 0.5  # centroid
    assert abs(s[7] - 10.0) < 1.0  # rolloff
    assert s[4] < 0.01  # entropy of a line spectrum


def test_spectral_white_noise_flatness():
    # |FFT|^2 of white noise is ~exponential per bin; GM/AM of an exponential
    # is e^(-gamma) ~= 0.56. Observed minimum over 10 seeds was 0.52.
    for seed in range(10):
        w = np.random.default_rng(seed).normal(size=2000)
        s = spectral_features(w, 100.0)
        assert s[5] > 0.5
        assert s[4] > 0.9  # entropy near 1 for a flat spectrum


def test_spectral_all_zero_series():
    np.testing.assert_array_equal(spectral_features(np.zeros(64), 100.0), np.zeros(15))
    # constant series: mean removal zeroes the spectrum too
    np.testing.assert_array_equal(spectral_features(np.full(64, 5.0), 100.0), np.zeros(15))


def test_featurize_length_and_blocks():
    n = 512
    rng = np.random.default_rng(9)
    streams = {
        "A_MAG": np.abs(rng.normal(9.81, 0.1, n)),
        "GYRO_X": rng.normal(0, 0.01, n),
        "GYRO_Y": rng.normal(0, 0.02, n),
        "GYRO_Z": rng.normal(0, 0.03, n),
    }
    fv = featurize(np.stack([streams[k] for k in STREAM_KEYS]), 100.0)
    assert fv.shape == (N_TOTAL,)
    # swapping two gyro axes permutes exactly the corresponding 25-blocks
    swapped = dict(streams)
    swapped["GYRO_X"], swapped["GYRO_Z"] = streams["GYRO_Z"], streams["GYRO_X"]
    fv2 = featurize(np.stack([swapped[k] for k in STREAM_KEYS]), 100.0)
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
    a = featurize(S, 100.0)
    b = featurize(S, 100.0)
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
    # sha256 of the feature matrix bytes, recorded from the per-capture,
    # per-stream implementation; any change of summation order, power or
    # norm arithmetic in the kernel moves these digests
    ds = generate_synthetic(12, 5, seed=0)
    expected = {
        None: "c9017824289bd211b225137898258ac91f410f7a165ba7173cd05404a9ea6196",
        "quantize": "75897e20c04afb74e278da5654f8e63adb9648378dd02c436e50b8481c58f275",
        "obfuscate": "d7e09131449671a6725e83b6895e15fc0a23e1d93020e3f4369f2cc49eb88f8c",
    }
    for scheme, digest in expected.items():
        data = ds if scheme is None else apply_countermeasure(ds, scheme)
        X = featurize_dataset(data).X
        assert hashlib.sha256(X.tobytes()).hexdigest() == digest, scheme


def _mixed_length_dataset() -> Dataset:
    """Synthetic captures interleaved with truncated ones (several resampled
    lengths), a constant-accel zero-gyro capture and a quantized capture."""
    out = Dataset()
    for i, s in enumerate(generate_synthetic(10, 5, seed=7).samples):
        if i % 4 == 1:
            k = (120, 200)[(i // 4) % 2]
            s = RawSample(s.device_id, s.sample_id, s.timestamps[:k], s.accel[:k], s.gyro[:k])
        elif i == 10:
            s = quantize_sample(s, QuantizationConfig())
        out.add(s)
        if i == 6:
            n = 400
            t = np.arange(n) / 100.0 + np.random.default_rng(0).uniform(0, 0.004, n)
            out.add(RawSample("flat", "s0", t, np.tile([0.0, 0.0, 9.81], (n, 1)),
                              np.zeros((n, 3))))
    return out


def test_featurize_dataset_blocks_match_single_captures():
    ds = _mixed_length_dataset()
    lengths = [build_streams(s).shape[1] for s in ds.samples]
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


def test_featurize_stream_rows_are_independent():
    # one capture whose streams take different degenerate branches (zero
    # spectral bins and zero spread, silence, a constant): each 25-block
    # equals the per-stream functions on that stream alone
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
        fv = featurize(np.stack([streams[k] for k in STREAM_KEYS]), 100.0)
        for j, key in enumerate(("A_MAG", "GYRO_X", "GYRO_Y", "GYRO_Z")):
            block = np.concatenate([temporal_features(streams[key]),
                                    spectral_features(streams[key], 100.0)])
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


@pytest.mark.parametrize("consumer", ["run_protocol", "privacy_impact"])
def test_each_consumer_featurizes_each_sample_once(monkeypatch, consumer):
    from sensorprint.classify import run_protocol
    from sensorprint.countermeasures import privacy_impact

    # build_streams is the per-capture step of featurize_dataset, which
    # featurizes the resampled streams in blocks
    ds = generate_synthetic(4, 4, seed=1)
    calls = []
    real = features.build_streams

    def counting(sample, *args, **kwargs):
        calls.append(sample.sample_id)
        return real(sample, *args, **kwargs)

    monkeypatch.setattr(features, "build_streams", counting)
    if consumer == "run_protocol":
        run_protocol(ds, repeats=2)
        expected = len(ds.samples)
    else:
        privacy_impact(ds, "obfuscate", classifier="knn", repeats=1)
        expected = 2 * len(ds.samples)  # the raw and the protected dataset
    assert len(calls) == expected


def test_features_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("device_id,sample_id,x\n")
    with pytest.raises(ValueError, match="header"):
        load_features_csv(p)


def test_build_streams_featurize_pipeline():
    ds = generate_synthetic(2, 2, seed=3)
    for s in ds.samples:
        fv = featurize(build_streams(s), 100.0)
        assert np.all(np.isfinite(fv))
        assert fv[0] == pytest.approx(9.81, abs=0.5)  # near-gravity magnitude
