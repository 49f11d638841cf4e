"""Privacy defenses for motion-sensor streams and their identification cost.

Two schemes: per-session affine obfuscation (random gain and offset per
axis, emulating a swap to a differently miscalibrated sensor) and polar
quantization (snapping magnitudes and angles to coarse bins). Both are pure
per-sample transforms; ``privacy_impact`` measures what each one costs an
identification pipeline on the same data.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, RawSample

OBFUSCATE = "obfuscate"
QUANTIZE = "quantize"
SCHEMES = (OBFUSCATE, QUANTIZE)


@dataclass
class ObfuscationConfig:
    """Ranges for the per-session gain/offset draws.

    Offsets are in m/s^2 for the accelerometer and rad/s for the gyroscope;
    gains are unitless and must stay strictly positive.
    """

    offset_range: tuple = (-1.5, 1.5)
    gain_range: tuple = (0.75, 1.25)
    seed: int = 0

    def __post_init__(self):
        o_lo, o_hi = self.offset_range
        g_lo, g_hi = self.gain_range
        if not (-np.inf < o_lo <= o_hi < np.inf and 0 < g_lo <= g_hi < np.inf):
            raise ValueError("ranges must be finite and non-empty (lo <= hi), gains > 0")


@dataclass
class QuantizationConfig:
    angle_bin: float = 6.0  # degrees; also applied to gyro rates in deg/s
    magnitude_bin: float = 1.0  # m/s^2

    def __post_init__(self):
        if not (0 < self.angle_bin < np.inf and 0 < self.magnitude_bin < np.inf):
            raise ValueError("bin sizes must be finite and > 0")


def _session_rng(seed: int, device_id: str, sample_id: str) -> np.random.Generator:
    # keyed stream: draws depend only on (seed, device, sample), not on
    # processing order, so data-parallel application stays deterministic
    digest = hashlib.sha256(f"{seed}:{device_id}:{sample_id}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def obfuscate(sample: RawSample, cfg: ObfuscationConfig) -> RawSample:
    """Apply one random affine map per axis per sensor to a whole session.

    Each of the six axes gets its own (gain, offset) pair, drawn uniformly
    from the configured ranges and held constant across the session; every
    reading maps to ``value * gain + offset``. Timestamps are untouched. A
    reading that overflows is a ValueError naming the sample.
    """
    rng = _session_rng(cfg.seed, sample.device_id, sample.sample_id)
    out = {}
    for name, data in (("accel", sample.accel), ("gyro", sample.gyro)):
        gains = rng.uniform(cfg.gain_range[0], cfg.gain_range[1], size=3)
        offsets = rng.uniform(cfg.offset_range[0], cfg.offset_range[1], size=3)
        with np.errstate(over="ignore"):  # refused below
            out[name] = data * gains + offsets
        if not np.all(np.isfinite(out[name])):
            raise ValueError(f"sample {sample.device_id}/{sample.sample_id}: "
                             f"obfuscated {name} readings are non-finite")
    return RawSample(
        device_id=sample.device_id,
        sample_id=sample.sample_id,
        timestamps=sample.timestamps.copy(),
        accel=out["accel"],
        gyro=out["gyro"],
    )


def to_polar(accel):
    """Cartesian acceleration to (radius, inclination, azimuth).

    Inclination theta is measured from the +z axis, in [0, pi]; azimuth psi
    is the two-argument arctangent of (ay, ax), in (-pi, pi]. The zero
    vector and the poles (ax = ay = 0) return angle 0 by convention. One
    reading gives three floats; an (n, 3) array gives three length-n arrays.
    """
    a = np.asarray(accel, dtype=float)
    ax, ay, az = np.atleast_2d(a).T
    r = np.sqrt(ax * ax + ay * ay + az * az)
    with np.errstate(invalid="ignore", divide="ignore"):  # r == 0 is replaced below
        theta = np.arccos(np.clip(az / r, -1.0, 1.0))
    psi = np.arctan2(ay, ax)
    psi[psi == -np.pi] = np.pi  # contract wants the half-open interval
    zero = r == 0.0
    theta[zero] = 0.0
    psi[zero | ((ax == 0.0) & (ay == 0.0))] = 0.0
    if a.ndim == 1:
        return float(r[0]), float(theta[0]), float(psi[0])
    return r, theta, psi


def from_polar(r, theta, psi) -> np.ndarray:
    """(radius, inclination, azimuth) to Cartesian; arrays give an (n, 3) array."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be >= 0")
    s = np.sin(theta)
    return np.stack([r * s * np.cos(psi), r * s * np.sin(psi), r * np.cos(theta)], axis=-1)


def quantize_value(val: float, bin_size: float) -> float:
    """Snap to the nearest multiple of ``bin_size``, halves rounding up.

    Implemented as floored division with a floored (always non-negative)
    remainder, so negative inputs behave consistently: -3.1 with bin 6 sits
    in bin -1 with remainder 2.9 and stays at -6. A quotient by the bin that
    is not finite (a subnormal bin overflows it) is a ValueError.
    """
    if bin_size <= 0:
        raise ValueError("bin_size must be > 0")
    with np.errstate(over="ignore"):
        b = np.floor(np.asarray(val, dtype=float) / bin_size)
    if not np.all(np.isfinite(b)):
        raise ValueError(f"bin size {bin_size!r} gives a non-finite bin index")
    rem = val - b * bin_size
    b = np.where(rem >= bin_size / 2, b + 1, b)
    out = b * bin_size
    return float(out) if np.ndim(val) == 0 else out


def quantize_sample(sample: RawSample, cfg: QuantizationConfig) -> RawSample:
    """Quantize a session: accelerometer in polar bins, gyroscope in rate bins.

    Each accel reading goes to polar form, gets its radius snapped to
    ``magnitude_bin`` and both angles (in degrees) to ``angle_bin``, with
    inclination clamped to [0, 180] degrees, then maps back. Gyro rates are
    converted to deg/s, snapped to ``angle_bin``, and converted back.
    Timestamps are untouched.
    """
    r, theta, psi = to_polar(sample.accel)
    # rounding may overshoot the pole
    theta_q = np.clip(quantize_value(np.degrees(theta), cfg.angle_bin), 0.0, 180.0)
    psi_q = quantize_value(np.degrees(psi), cfg.angle_bin)
    accel_q = from_polar(quantize_value(r, cfg.magnitude_bin), np.radians(theta_q), np.radians(psi_q))
    gyro_q = np.radians(quantize_value(np.degrees(sample.gyro), cfg.angle_bin))
    return RawSample(
        device_id=sample.device_id,
        sample_id=sample.sample_id,
        timestamps=sample.timestamps.copy(),
        accel=accel_q,
        gyro=gyro_q,
    )


def apply_countermeasure(
    dataset: Dataset,
    scheme: str,
    obfuscation: ObfuscationConfig | None = None,
    quantization: QuantizationConfig | None = None,
) -> Dataset:
    """Transform every sample, in order; the result does not record the scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown countermeasure {scheme!r}; choose from {SCHEMES}")
    if scheme == OBFUSCATE:
        cfg = obfuscation if obfuscation is not None else ObfuscationConfig()
        transform = lambda s: obfuscate(s, cfg)
    else:
        qcfg = quantization if quantization is not None else QuantizationConfig()
        transform = lambda s: quantize_sample(s, qcfg)
    return Dataset([transform(s) for s in dataset.samples])


@dataclass
class PrivacyReport:
    countermeasure: str
    baseline_avg_f: float
    protected_avg_f: float
    relative_drop: float  # (baseline - protected) / baseline; 0 when baseline is 0
    baseline_accuracy: float
    protected_accuracy: float

    def to_dict(self) -> dict:
        return asdict(self)


def privacy_impact(
    dataset: Dataset,
    scheme: str,
    classifier: str = "rf",
    obfuscation: ObfuscationConfig | None = None,
    quantization: QuantizationConfig | None = None,
    **protocol_kwargs,
) -> PrivacyReport:
    """Measure what a countermeasure costs the identification pipeline.

    Runs the identical repeated-split protocol on the raw dataset and on
    the transformed one (the transform precedes all preprocessing) and
    reports both mean AvgF scores plus the relative drop. ``protocol_kwargs``
    (train_per_device, repeats, seed, k, ...) go to ``run_protocol`` as they
    are, so its defaults hold for the rest.
    """
    protected_ds = apply_countermeasure(
        dataset, scheme, obfuscation=obfuscation, quantization=quantization
    )
    return _impact(dataset, protected_ds, scheme, classifier=classifier, **protocol_kwargs)


def _impact(dataset: Dataset, protected_ds: Dataset, scheme: str, **protocol_kwargs) -> PrivacyReport:
    """``privacy_impact`` on a dataset whose countermeasure is already applied."""
    from .classify import run_protocol

    base, prot = (run_protocol(ds, **protocol_kwargs) for ds in (dataset, protected_ds))
    drop = 0.0 if base.avg_f_mean == 0 else (base.avg_f_mean - prot.avg_f_mean) / base.avg_f_mean
    return PrivacyReport(
        countermeasure=scheme,
        baseline_avg_f=base.avg_f_mean,
        protected_avg_f=prot.avg_f_mean,
        relative_drop=drop,
        baseline_accuracy=base.accuracy_mean,
        protected_accuracy=prot.accuracy_mean,
    )
