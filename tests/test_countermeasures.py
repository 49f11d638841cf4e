"""Countermeasure tests: polar geometry, bin rounding, session-constant
obfuscation draws, and the measured cost to identification accuracy."""

import math

import numpy as np
import pytest

from sensorprint.countermeasures import (
    ObfuscationConfig,
    QuantizationConfig,
    apply_countermeasure,
    from_polar,
    obfuscate,
    privacy_impact,
    quantize_sample,
    quantize_value,
    to_polar,
)
from sensorprint.dataset import DevicePrior, RawSample, generate_synthetic
from sensorprint.features import featurize_sample


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(15, 5, seed=11)


# ---------------------------------------------------------------------------
# Configs.


def test_config_validation():
    with pytest.raises(ValueError):
        ObfuscationConfig(offset_range=(1.0, -1.0))
    with pytest.raises(ValueError):
        ObfuscationConfig(gain_range=(-0.5, 1.0))
    with pytest.raises(ValueError):
        ObfuscationConfig(gain_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        QuantizationConfig(angle_bin=0)
    with pytest.raises(ValueError):
        QuantizationConfig(magnitude_bin=-1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ObfuscationConfig(offset_range=(bad, 1.0))
        with pytest.raises(ValueError, match="finite"):
            ObfuscationConfig(gain_range=(0.5, bad))
        with pytest.raises(ValueError, match="finite"):
            QuantizationConfig(angle_bin=bad)
        with pytest.raises(ValueError, match="finite"):
            QuantizationConfig(magnitude_bin=bad)
    ObfuscationConfig(offset_range=(0.0, 0.0), gain_range=(1.0, 1.0))  # ok: non-empty


# ---------------------------------------------------------------------------
# Bin rounding.


def test_quantize_value_examples():
    assert quantize_value(17, 6) == 18.0
    assert quantize_value(2.9, 6) == 0.0
    assert quantize_value(9.81, 1) == 10.0
    assert quantize_value(-3.1, 6) == -6.0


def test_quantize_value_rejects_bad_bin():
    with pytest.raises(ValueError):
        quantize_value(1.0, 0)
    with pytest.raises(ValueError):
        quantize_value(1.0, -2)


def test_quantize_value_invariants():
    rng = np.random.default_rng(3)
    for _ in range(300):
        v = float(rng.uniform(-50, 50))
        b = float(rng.uniform(0.1, 9.0))
        q = quantize_value(v, b)
        ratio = q / b
        assert abs(ratio - round(ratio)) < 1e-9  # multiple of the bin
        assert abs(q - v) <= b / 2 + 1e-12


def test_quantize_value_half_rounds_up():
    assert quantize_value(3.0, 6) == 6.0
    assert quantize_value(-3.0, 6) == 0.0  # floored remainder is exactly half


# ---------------------------------------------------------------------------
# Polar geometry.


def test_to_polar_examples():
    r, t, p = to_polar((0.0, 0.0, 9.81))
    assert (r, t, p) == (9.81, 0.0, 0.0)
    r, t, p = to_polar((1.0, 1.0, 0.0))
    assert r == pytest.approx(math.sqrt(2))
    assert t == pytest.approx(math.pi / 2)
    assert p == pytest.approx(math.pi / 4)
    assert to_polar((0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_to_polar_angle_ranges():
    rng = np.random.default_rng(4)
    for _ in range(200):
        v = rng.normal(0, 5, 3)
        r, t, p = to_polar(v)
        assert 0.0 <= t <= math.pi
        assert -math.pi < p <= math.pi
    # negative x axis sits on the boundary kept in the interval
    assert to_polar((-1.0, 0.0, 0.0))[2] == pytest.approx(math.pi)


def test_from_polar_examples():
    assert np.allclose(from_polar(9.81, 0.0, 1.234), [0.0, 0.0, 9.81])
    assert np.allclose(from_polar(0.0, 0.0, 0.0), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        from_polar(-1.0, 0.0, 0.0)


def test_polar_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(300):
        v = rng.normal(0, 5, 3)
        nrm = np.linalg.norm(v)
        if nrm < 1e-6:
            continue
        w = from_polar(*to_polar(v))
        assert np.max(np.abs(w - v)) <= 1e-9 * nrm


# ---------------------------------------------------------------------------
# Obfuscation.


def test_identity_obfuscation_is_exact():
    ds = generate_synthetic(2, 2, seed=7)
    cfg = ObfuscationConfig(offset_range=(0.0, 0.0), gain_range=(1.0, 1.0))
    for s in ds.samples:
        o = obfuscate(s, cfg)
        assert np.array_equal(o.accel, s.accel)
        assert np.array_equal(o.gyro, s.gyro)
        assert np.array_equal(o.timestamps, s.timestamps)


def test_obfuscation_affine_on_constant_axis():
    t = np.arange(0.0, 1.0, 0.01)
    s = RawSample("d", "s0", t, np.tile([0.0, 0.0, 9.81], (len(t), 1)), np.zeros((len(t), 3)))
    o = obfuscate(s, ObfuscationConfig(seed=9))
    col = o.accel[:, 2]
    assert np.ptp(col) == 0.0  # constant in, constant out
    g_lo, g_hi = 0.75, 1.25
    assert 9.81 * g_lo - 1.5 <= col[0] <= 9.81 * g_hi + 1.5


def test_obfuscation_session_constant_draws():
    ds = generate_synthetic(1, 2, seed=8)
    s = ds.samples[0]
    o = obfuscate(s, ObfuscationConfig(seed=5))
    for j in range(3):
        x, y = s.accel[:, j], o.accel[:, j]
        i2 = int(np.argmax(np.abs(x - x[0]) > 1e-12))
        g = (y[i2] - y[0]) / (x[i2] - x[0])
        off = y[0] - g * x[0]
        assert np.allclose(y, g * x + off, atol=1e-9)
        assert 0.75 <= g <= 1.25 and -1.5 <= off <= 1.5


def test_obfuscation_draws_vary_by_session_and_seed():
    ds = generate_synthetic(1, 2, seed=8)
    a, b = ds.samples
    oa = obfuscate(a, ObfuscationConfig(seed=5))
    ob = obfuscate(b, ObfuscationConfig(seed=5))
    # same device, different session: independent draws
    assert not np.allclose(oa.accel[0] / a.accel[0], ob.accel[0] / b.accel[0])
    oa2 = obfuscate(a, ObfuscationConfig(seed=6))
    assert not np.allclose(oa.accel, oa2.accel)
    oa_rep = obfuscate(a, ObfuscationConfig(seed=5))
    assert np.array_equal(oa.accel, oa_rep.accel)  # keyed stream is stable


# ---------------------------------------------------------------------------
# Quantization.


def test_quantize_sample_stationary_reading():
    t = np.array([0.0, 0.01, 0.02])
    s = RawSample("d", "s0", t, np.tile([0.0, 0.0, 9.81], (3, 1)), np.zeros((3, 3)))
    q = quantize_sample(s, QuantizationConfig())
    assert np.allclose(q.accel, np.tile([0.0, 0.0, 10.0], (3, 1)))
    assert np.array_equal(q.gyro, np.zeros((3, 3)))
    assert np.array_equal(q.timestamps, t)


def test_quantize_sample_gyro_bins_in_degrees():
    t = np.array([0.0, 0.01])
    gyro = np.array([[0.1, 0.05, -0.1], [0.0, 0.0, 0.0]])
    s = RawSample("d", "s0", t, np.tile([0.0, 0.0, 9.81], (2, 1)), gyro)
    q = quantize_sample(s, QuantizationConfig())
    # 0.1 rad/s is 5.73 deg/s, snapping to 6 deg/s; 0.05 rad/s is 2.86, snapping to 0
    assert q.gyro[0, 0] == pytest.approx(math.radians(6.0))
    assert q.gyro[0, 1] == 0.0
    assert q.gyro[0, 2] == pytest.approx(-math.radians(6.0))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_quantize_sample_equals_per_reading_composition():
    # the session-at-once path must give exactly the bits of snapping each
    # reading on its own through to_polar -> quantize_value -> from_polar
    special = [
        [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0],  # zero vector
        [0.0, 0.0, 9.81], [0.0, 0.0, -9.81], [-0.0, 0.0, 3.0],  # poles
        [-1.0, -0.0, 0.0], [-2.5, -0.0, 4.0], [-1.0, 0.0, -1.0],  # psi = -pi -> pi
        [1e-9, 0.0, -9.81], [-1e-7, 2e-8, -9.81], [0.05, -0.02, -9.8],  # theta near 180
        [1e-200, 0.0, 0.0], [3.0, 3.0, 0.0], [-3.0, 3.0, 3.0], [0.1, 0.0, 9.81],
    ]
    accel = np.vstack([special, np.random.default_rng(16).normal(0, 5, size=(300, 3))])
    s = RawSample("d", "s0", np.arange(len(accel)) * 0.01, accel, np.zeros_like(accel))
    cfg = QuantizationConfig(angle_bin=7.0, magnitude_bin=0.5)  # 180 snaps to 182: clamped
    q = quantize_sample(s, cfg)
    for v, got in zip(accel, q.accel):
        r, theta, psi = to_polar(v)
        theta_q = min(180.0, max(0.0, quantize_value(math.degrees(theta), cfg.angle_bin)))
        psi_q = quantize_value(math.degrees(psi), cfg.angle_bin)
        want = from_polar(quantize_value(r, cfg.magnitude_bin),
                          math.radians(theta_q), math.radians(psi_q))
        assert _bits(got) == _bits(want), v
    # and the polar maps themselves agree between one reading and many
    r, theta, psi = to_polar(accel)
    assert _bits(np.array([to_polar(v) for v in accel])) == _bits(np.column_stack([r, theta, psi]))
    assert _bits(from_polar(r, theta, psi)) == _bits([from_polar(*to_polar(v)) for v in accel])
    assert to_polar([-1.0, -0.0, 0.0])[2] == math.pi
    assert to_polar([0.0, 0.0, -9.81]) == (9.81, math.pi, 0.0)


def test_quantize_sample_idempotent():
    ds = generate_synthetic(4, 2, seed=7)
    cfg = QuantizationConfig()
    for s in ds.samples:
        q1 = quantize_sample(s, cfg)
        q2 = quantize_sample(q1, cfg)
        assert np.max(np.abs(q2.accel - q1.accel)) <= 1e-9
        assert np.max(np.abs(q2.gyro - q1.gyro)) <= 1e-9


def test_quantize_sample_rounding_bounds():
    rng = np.random.default_rng(12)
    cfg = QuantizationConfig()
    t = np.array([0.0, 0.01])
    for _ in range(200):
        v = rng.normal(0, 4, 3)
        if np.linalg.norm(v) < 2.0:
            continue
        s = RawSample("d", "s0", t, np.tile(v, (2, 1)), np.zeros((2, 3)))
        q = quantize_sample(s, cfg)
        r0, t0, p0 = to_polar(v)
        r1, t1, p1 = to_polar(q.accel[0])
        assert abs(r1 - r0) <= cfg.magnitude_bin / 2 + 1e-9
        assert abs(math.degrees(t1 - t0)) <= cfg.angle_bin / 2 + 1e-9
        if math.sin(t1) > 1e-9:  # azimuth is meaningless at the poles
            dpsi = abs(math.degrees(p1 - p0)) % 360.0
            assert min(dpsi, 360.0 - dpsi) <= cfg.angle_bin / 2 + 1e-9


# ---------------------------------------------------------------------------
# Dataset-level application and the privacy cost.


def test_apply_countermeasure_tags_output(dataset):
    q = apply_countermeasure(dataset, "quantize")
    assert len(q.samples) == len(dataset.samples)
    assert [s.sample_id for s in q.samples] == [s.sample_id for s in dataset.samples]
    with pytest.raises(ValueError, match="unknown countermeasure"):
        apply_countermeasure(dataset, "scramble")


def test_privacy_impact_identity_config_is_zero_drop(dataset):
    rep = privacy_impact(
        dataset, "obfuscate", classifier="knn", train_per_device=3, repeats=2, seed=0,
        obfuscation=ObfuscationConfig(offset_range=(0.0, 0.0), gain_range=(1.0, 1.0)),
    )
    assert rep.relative_drop == 0.0
    assert rep.baseline_avg_f == rep.protected_avg_f


def test_privacy_impact_both_schemes_hurt(dataset):
    reports = {
        scheme: privacy_impact(
            dataset, scheme, classifier="rf", train_per_device=3,
            repeats=3, seed=0, n_trees=60,
        )
        for scheme in ("obfuscate", "quantize")
    }
    for rep in reports.values():
        assert rep.protected_avg_f < rep.baseline_avg_f
        assert rep.relative_drop > 0.0
    assert reports["obfuscate"].protected_avg_f <= reports["quantize"].protected_avg_f + 0.05


def test_quantization_collapses_small_offsets_to_chance():
    # offsets well inside half a bin and gains pinned: every quantized
    # stream is bit-identical, so the classifier can only guess
    prior = DevicePrior(
        accel_gain=(1.0, 1.0),
        accel_offset=(-0.05, 0.05), gyro_offset=(-0.01, 0.01),
    )
    ds = generate_synthetic(12, 5, device_prior=prior, seed=13)
    q = apply_countermeasure(ds, "quantize")
    feats = np.array([featurize_sample(s, 100.0) for s in q.samples])
    assert np.all(feats == feats[0])
    rep = privacy_impact(ds, "quantize", classifier="knn", train_per_device=3, repeats=3, seed=0)
    chance = 1.0 / 12
    n_test = 12 * 2 * 3
    se = math.sqrt(chance * (1 - chance) / n_test)
    assert abs(rep.protected_avg_f - chance) <= 3 * se
    assert rep.protected_accuracy == pytest.approx(chance)
