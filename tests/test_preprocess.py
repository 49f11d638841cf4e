"""Stream construction tests: magnitude, spline resampling, grid geometry."""

import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from sensorprint.countermeasures import apply_countermeasure
from sensorprint.dataset import RawSample, generate_synthetic
from sensorprint.preprocess import (
    STREAM_KEYS,
    build_streams,
    interpolate_uniform,
    magnitude,
)
from test_features import _mixed_length_dataset


def _scipy_streams(sample: RawSample, fs: float = 100.0) -> np.ndarray:
    """``build_streams`` as scipy's natural ``CubicSpline`` computes it: the
    reference the resampler must equal bit for bit."""
    t = sample.timestamps
    spline = CubicSpline(t, np.column_stack([magnitude(sample.accel), sample.gyro]),
                         bc_type="natural")
    n_out = int(np.floor((t[-1] - t[0]) * fs + 1e-9)) + 1
    rows = spline(t[0] + np.arange(n_out) / fs).T.copy()
    np.maximum(rows[0], 0.0, out=rows[0])
    return rows


def _assert_scipy_streams(samples, got):
    assert len(got) == len(samples)
    for s, S in zip(samples, got):
        assert S.flags.c_contiguous
        assert S.tobytes() == _scipy_streams(s).tobytes(), s.sample_id


def test_magnitude_gravity():
    assert magnitude([0.0, 0.0, 9.81]) == pytest.approx(9.81, abs=1e-12)


def test_magnitude_pythagorean():
    assert magnitude([3.0, 4.0, 0.0]) == 5.0
    assert magnitude([1.0, 2.0, 2.0]) == 3.0


def test_magnitude_vectorized():
    arr = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 9.81]])
    np.testing.assert_allclose(magnitude(arr), [5.0, 9.81])


def test_magnitude_rotation_invariant():
    rng = np.random.default_rng(0)
    v = rng.normal(size=3) * 5
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert magnitude(q @ v) == pytest.approx(magnitude(v), abs=1e-12)


def test_interpolate_constant_series():
    t = np.sort(np.random.default_rng(1).uniform(0, 5, size=50))
    out = interpolate_uniform(t, np.full(50, 3.7), 100.0)
    np.testing.assert_allclose(out, 3.7, atol=1e-12)


def test_interpolate_reproduces_knots():
    # knots on multiples of 1/100 s with random gaps: the 100 Hz grid passes
    # (to within an ulp) through every knot, where the spline takes its value
    rng = np.random.default_rng(2)
    k = np.sort(rng.choice(500, size=40, replace=False))
    t = k / 100.0
    v = np.cumsum(rng.normal(size=40))
    out = interpolate_uniform(t, v, 100.0)
    rel_err = np.abs(out[k - k[0]] - v) / np.maximum(np.abs(v), 1e-30)
    assert np.max(rel_err) < 1e-9


def test_interpolate_identity_on_grid():
    fs = 100.0
    t = np.arange(500) / fs
    v = np.sin(t)
    out = interpolate_uniform(t, v, fs)
    assert len(out) == len(v)
    np.testing.assert_allclose(out, v, atol=1e-9)


def test_interpolate_sine_accuracy():
    # 2 Hz sine sampled at ~60 Hz with timestamp jitter, resampled to 100 Hz.
    # Cubic-spline error scales with h^4 * max|f''''| ~ 2e-5 here, so 1e-3 on
    # the interior (away from the natural-boundary layer) has wide margin.
    rng = np.random.default_rng(3)
    n = 300
    t = np.arange(n) / 60.0 + rng.uniform(-0.004, 0.004, size=n)
    t = np.sort(t)
    f = lambda x: np.sin(2 * np.pi * 2 * x)
    out = interpolate_uniform(t, f(t), 100.0)
    grid = t[0] + np.arange(len(out)) / 100.0
    lo, hi = int(0.05 * len(out)), int(0.95 * len(out))
    err = np.abs(out[lo:hi] - f(grid[lo:hi]))
    assert np.max(err) < 1e-3


def test_interpolate_rejects_too_few_points():
    with pytest.raises(ValueError, match=">= 4"):
        interpolate_uniform([0.0, 0.1, 0.2], [1.0, 2.0, 3.0], 100.0)


def test_interpolate_rejects_non_monotone():
    with pytest.raises(ValueError, match="monotone"):
        interpolate_uniform([0.0, 0.2, 0.1, 0.3], [1.0, 2.0, 3.0, 4.0], 100.0)


def test_build_streams_stationary_noiseless():
    n = 500
    t = np.arange(n) / 100.0
    accel = np.tile([0.0, 0.0, 9.81], (n, 1))
    gyro = np.zeros((n, 3))
    S = build_streams([RawSample("d", "s", t, accel, gyro)])[0]
    assert S.shape[0] == len(STREAM_KEYS)
    np.testing.assert_allclose(S[0], 9.81, atol=1e-9)  # A_MAG
    for row in S[1:]:  # GYRO_X, GYRO_Y, GYRO_Z
        np.testing.assert_allclose(row, 0.0, atol=1e-12)


def test_build_streams_grid_alignment():
    n = 500
    t = np.arange(n) / 100.0
    sample = RawSample("d", "s", t, np.tile([0.0, 0.0, 9.81], (n, 1)), np.zeros((n, 3)))
    S = build_streams([sample], fs_target=100.0)[0]
    assert abs(S.shape[1] - n) <= 1


def test_build_streams_length_matches_duration():
    ds = generate_synthetic(3, 2, seed=11)
    for s in ds.samples:
        S = build_streams([s], fs_target=100.0)[0]
        expected = int(np.floor(s.duration * 100.0)) + 1
        assert abs(S.shape[1] - expected) <= 1


def test_build_streams_clamps_negative_magnitude():
    # |a| alternating 1, 0 at 25 Hz makes the spline undershoot below zero
    # between the zero knots; the built stream must be clamped while the raw
    # interpolation really does go negative.
    n = 126
    t = np.arange(n) / 25.0
    ax = np.where(np.arange(n) % 2 == 0, 1.0, 0.0)
    accel = np.column_stack([ax, np.zeros(n), np.zeros(n)])
    sample = RawSample("d", "s", t, accel, np.zeros((n, 3)))
    raw = interpolate_uniform(t, magnitude(accel), 100.0)
    assert np.min(raw) < 0
    S = build_streams([sample], fs_target=100.0)[0]
    assert np.min(S[0]) >= 0  # A_MAG


def test_interpolate_matrix_equals_column_calls():
    # one spline over (n, c) values gives each column bit for bit what a
    # separate fit of that column gives
    rng = np.random.default_rng(4)
    t = np.sort(rng.uniform(0, 5, size=300))
    V = np.column_stack([np.abs(rng.normal(9.8, 0.3, 300)), rng.normal(size=(300, 3))])
    out = interpolate_uniform(t, V, 100.0)
    assert out.shape == (int(np.floor((t[-1] - t[0]) * 100.0 + 1e-9)) + 1, 4)
    for j in range(4):
        assert out[:, j].tobytes() == interpolate_uniform(t, V[:, j], 100.0).tobytes()


@pytest.mark.parametrize("shape", [(), (1,)])
def test_interpolate_matrix_rejects_the_same_bad_input(shape):
    def cols(v):
        return np.asarray(v, dtype=float).reshape(-1, *shape)

    with pytest.raises(ValueError, match=">= 4"):
        interpolate_uniform([0.0, 0.1, 0.2], cols([1.0, 2.0, 3.0]), 100.0)
    with pytest.raises(ValueError, match="monotone"):
        interpolate_uniform([0.0, 0.2, 0.1, 0.3], cols([1.0, 2.0, 3.0, 4.0]), 100.0)
    with pytest.raises(ValueError, match="positive"):
        interpolate_uniform([0.0, 0.1, 0.2, 0.3], cols([1.0, 2.0, 3.0, 4.0]), 0.0)
    with pytest.raises(ValueError, match="one row per timestamp"):
        interpolate_uniform([0.0, 0.1, 0.2, 0.3], cols([1.0, 2.0, 3.0, 4.0, 5.0]), 100.0)
    with pytest.raises(ValueError, match="one row per timestamp"):
        interpolate_uniform([[0.0, 0.1, 0.2, 0.3]], cols([1.0, 2.0, 3.0, 4.0]), 100.0)
    with pytest.raises(ValueError, match="one row per timestamp"):
        interpolate_uniform([0.0, 0.1, 0.2, 0.3], np.zeros((4, 1, 1)), 100.0)


def test_build_streams_rows_are_contiguous_column_fits():
    s = generate_synthetic(1, 1, seed=2).samples[0]
    S = build_streams([s])[0]
    assert S.shape[0] == len(STREAM_KEYS) and S.flags.c_contiguous
    sources = [magnitude(s.accel), s.gyro[:, 0], s.gyro[:, 1], s.gyro[:, 2]]
    for key, row, v in zip(STREAM_KEYS, S, sources):
        expected = interpolate_uniform(s.timestamps, v, 100.0)
        if key == "A_MAG":
            expected = np.maximum(expected, 0.0)
        assert row.flags.c_contiguous
        assert row.tobytes() == expected.tobytes()


@pytest.mark.parametrize("scheme", [None, "quantize", "obfuscate"])
def test_resampled_streams_are_scipy_splines_bit_for_bit(scheme):
    ds = generate_synthetic(6, 3, seed=0)
    data = ds if scheme is None else apply_countermeasure(ds, scheme)
    if scheme == "quantize":  # the premise: tied readings, so zero slopes
        assert any(np.any(np.diff(s.gyro, axis=0) == 0) for s in data.samples)
    _assert_scipy_streams(data.samples, build_streams(data.samples))
    _assert_scipy_streams(data.samples, [build_streams([s])[0] for s in data.samples])


def test_mixed_length_block_resamples_each_capture_as_alone():
    samples = _mixed_length_dataset().samples
    block = build_streams(samples)
    _assert_scipy_streams(samples, block)
    for s, S in zip(samples, block):
        assert S.tobytes() == build_streams([s])[0].tobytes(), s.sample_id


def test_four_knot_capture_is_scipys_spline():
    t = np.array([0.0, 0.013, 0.021, 0.04])
    accel = np.array([[0.1, 0.2, 9.8], [0.0, -0.3, 9.7], [0.2, 0.1, 9.9], [0.1, 0.0, 9.8]])
    gyro = np.array([[0.01, 0.0, -0.02], [0.03, -0.01, 0.0], [0.0, 0.02, 0.01], [-0.01, 0.0, 0.0]])
    sample = RawSample("d", "s", t, accel, gyro)
    _assert_scipy_streams([sample], build_streams([sample]))
    v = gyro[:, 0]
    expected = CubicSpline(t, v, bc_type="natural")(t[0] + np.arange(5) / 100.0)
    assert interpolate_uniform(t, v, 100.0).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shift", [0.0, -1.0], ids=["abutting", "overlapping"])
def test_block_of_touching_captures_resamples_without_warnings(shift):
    # each capture starts where the previous one ends (or a second before):
    # the spacing between two captures is 0 or negative, and the rows it
    # enters are discarded without dividing by it
    base = generate_synthetic(1, 3, seed=4).samples
    samples, t0 = [], 0.0
    for s in base:
        t = s.timestamps - s.timestamps[0] + t0
        samples.append(RawSample(s.device_id, s.sample_id, t, s.accel, s.gyro))
        t0 = t[-1] + shift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = build_streams(samples)
    _assert_scipy_streams(samples, block)


@pytest.mark.parametrize("t, v", [
    ([0.0, 0.01, 0.02, 0.03], [0.0, np.nan, 0.0, 1.0]),
    # still increasing: only the finiteness check can see it
    ([0.0, 0.01, 0.02, np.inf], [0.0, 1.0, 0.0, 1.0]),
], ids=["NaN-value", "infinite-timestamp"])
def test_interpolate_refuses_a_non_finite_input(t, v):
    with pytest.raises(ValueError, match="^timestamps and values must be finite$"):
        interpolate_uniform(t, v, 100.0)


def test_build_streams_of_no_captures_is_empty():
    assert build_streams([]) == []
