"""Dataset model, JSONL ingestion, and synthetic device generation.

A dataset is a collection of short sensor captures ("samples"), each a burst
of timestamped 3-axis accelerometer and gyroscope readings from one device.
The on-disk format is one JSON object per line with keys ``device_id``,
``sample_id``, ``t``, ``ax``, ``ay``, ``az``, ``gx``, ``gy``, ``gz`` (all
arrays of equal length), read and written with orjson.

The synthetic generator stands in for real data collection: it models a
stationary device lying flat on a surface, so the only device-to-device
signal is the per-device calibration error (accelerometer gain and offset,
gyroscope offset, per axis) plus measurement noise.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, fields

import numpy as np

log = logging.getLogger(__name__)

GRAVITY = 9.81  # m/s^2, true |accel| for a stationary flat device

# RawSample validity bounds
MIN_RATE_HZ = 20.0
MAX_RATE_HZ = 200.0
NOMINAL_DURATION_S = 5.0
DURATION_TOLERANCE = 0.20


@dataclass
class RawSample:
    """One ~5 s burst of raw motion-sensor readings from one device.

    ``accel`` includes gravity (m/s^2), ``gyro`` is rotational rate (rad/s);
    both are (n, 3) arrays aligned with ``timestamps`` (seconds).
    """

    device_id: str
    sample_id: str
    timestamps: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)

    @property
    def n_readings(self) -> int:
        return len(self.timestamps)

    @property
    def duration(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def mean_rate(self) -> float:
        return (self.n_readings - 1) / self.duration

    def validate(self) -> None:
        """Raise ValueError on any invariant violation."""
        n = self.n_readings
        if n < 2:
            raise ValueError(
                f"sample {self.device_id}/{self.sample_id}: needs >= 2 readings, got {n}"
            )
        if self.accel.shape != (n, 3) or self.gyro.shape != (n, 3):
            raise ValueError(
                f"sample {self.device_id}/{self.sample_id}: length mismatch "
                f"(timestamps {n}, accel {self.accel.shape}, gyro {self.gyro.shape})"
            )
        if not np.all(np.isfinite(self.timestamps)):
            raise ValueError(f"sample {self.device_id}/{self.sample_id}: non-finite timestamps")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ValueError(f"sample {self.device_id}/{self.sample_id}: non-monotone timestamps")
        if not (np.all(np.isfinite(self.accel)) and np.all(np.isfinite(self.gyro))):
            raise ValueError(f"sample {self.device_id}/{self.sample_id}: non-finite readings")
        rate = self.mean_rate
        if not (MIN_RATE_HZ <= rate <= MAX_RATE_HZ):
            raise ValueError(
                f"sample {self.device_id}/{self.sample_id}: mean rate {rate:.1f} Hz "
                f"outside [{MIN_RATE_HZ:.0f}, {MAX_RATE_HZ:.0f}]"
            )
        lo = NOMINAL_DURATION_S * (1 - DURATION_TOLERANCE)
        hi = NOMINAL_DURATION_S * (1 + DURATION_TOLERANCE)
        if not (lo <= self.duration <= hi):
            raise ValueError(
                f"sample {self.device_id}/{self.sample_id}: duration {self.duration:.2f} s "
                f"outside [{lo:.1f}, {hi:.1f}]"
            )


@dataclass
class Dataset:
    """A collection of RawSamples with a device index, grown by ``add``;
    samples given to the constructor go through ``add`` too, so a repeated
    (device, sample id) pair is refused however it arrives.

    ``features.featurize_dataset`` keeps the feature table in ``_features``
    with the rate and a digest of the samples: their ids, array shapes and
    reading bytes, in order. The stored table is handed out only while that
    digest matches, so editing a sample's arrays in place, or replacing,
    removing or reordering samples, is detected and featurizes again.
    ``add`` clears the slot.
    """

    samples: list[RawSample] = field(default_factory=list)
    index: dict[str, list[str]] = field(default_factory=dict, init=False)
    countermeasure: str | None = None  # which defense rewrote this dataset, if any
    # (fs, digest, FeatureTable) of the last featurize_dataset call, or None
    _features: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        given, self.samples = self.samples, []
        for sample in given:
            self.add(sample)

    def add(self, sample: RawSample) -> None:
        ids = self.index.setdefault(sample.device_id, [])
        if sample.sample_id in ids:
            raise ValueError(
                f"duplicate sample id {sample.sample_id!r} for device {sample.device_id!r}"
            )
        ids.append(sample.sample_id)
        self.samples.append(sample)
        self._features = None

    def underpopulated_devices(self) -> list[str]:
        """Devices with fewer than 2 samples (loadable but flagged)."""
        return [d for d, ids in self.index.items() if len(ids) < 2]


@dataclass
class DeviceModel:
    """Per-device sensor calibration error: measured = truth * gain + offset + noise."""

    accel_gain: np.ndarray   # unitless, near 1, per axis
    accel_offset: np.ndarray  # m/s^2, per axis
    gyro_offset: np.ndarray  # rad/s, per axis
    noise_sigma_accel: float  # m/s^2
    noise_sigma_gyro: float   # rad/s

    def __post_init__(self):
        self.accel_gain = np.asarray(self.accel_gain, dtype=float)
        self.accel_offset = np.asarray(self.accel_offset, dtype=float)
        self.gyro_offset = np.asarray(self.gyro_offset, dtype=float)
        if np.any(self.accel_gain <= 0):
            raise ValueError("gains must be positive")
        if self.noise_sigma_accel < 0 or self.noise_sigma_gyro < 0:
            raise ValueError("noise sigmas must be >= 0")


@dataclass
class DevicePrior:
    """Sampling ranges for DeviceModel fields (uniform per axis).

    Defaults reflect consumer MEMS calibration-error magnitudes.
    """

    accel_gain: tuple[float, float] = (0.95, 1.05)
    accel_offset: tuple[float, float] = (-0.2, 0.2)
    gyro_offset: tuple[float, float] = (-0.05, 0.05)
    noise_sigma_accel: float = 0.02
    noise_sigma_gyro: float = 0.002

    @classmethod
    def from_dict(cls, d: dict) -> "DevicePrior":
        """Ranges are [lo, hi] pairs (see ``_prior_range``); noise sigmas are
        finite numbers >= 0."""
        if not isinstance(d, dict):
            raise ValueError("device prior must be a JSON object")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown device-prior keys: {sorted(unknown)}")
        return cls(**{key: _prior_number(key, v, low=0.0) if key.startswith("noise_sigma")
                      else _prior_range(key, v) for key, v in d.items()})

    @classmethod
    def from_file(cls, path) -> "DevicePrior":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def draw(self, rng: np.random.Generator) -> DeviceModel:
        accel_gain = rng.uniform(*self.accel_gain, size=3)
        accel_offset = rng.uniform(*self.accel_offset, size=3)
        rng.random(3)  # spare draws: each seed keeps the fleet it gave when gyro gains were drawn
        return DeviceModel(
            accel_gain=accel_gain,
            accel_offset=accel_offset,
            gyro_offset=rng.uniform(*self.gyro_offset, size=3),
            noise_sigma_accel=self.noise_sigma_accel,
            noise_sigma_gyro=self.noise_sigma_gyro,
        )


def _prior_number(key: str, v, low: float = -np.inf) -> float:
    """A finite number >= low; NaN, infinities and integers beyond the float
    range fail the comparisons."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        if low <= v and abs(v) <= np.finfo(float).max:
            return float(v)
    raise ValueError(f"device prior {key!r}: {v!r} is not a finite number"
                     + (f" >= {low}" if low > -np.inf else ""))


def _prior_range(key: str, pair) -> tuple[float, float]:
    """A [lo, hi] pair of finite numbers with lo <= hi, and lo > 0 for a gain."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        lo, hi = (_prior_number(key, v) for v in pair)
        if lo <= hi and (lo > 0 or not key.endswith("gain")):
            return lo, hi
    raise ValueError(f"device prior {key!r}: {pair!r} is not a [lo, hi] range with lo <= hi"
                     + (" and lo > 0" if key.endswith("gain") else ""))


RECORD_KEYS = ("device_id", "sample_id", "t", "ax", "ay", "az", "gx", "gy", "gz")


def _sample_from_record(rec: dict, lineno: int) -> tuple[RawSample, str | None]:
    missing = [k for k in RECORD_KEYS if k not in rec]
    if missing:
        raise ValueError(f"line {lineno}: missing keys {missing}")
    try:
        t, *cols = (np.asarray(rec[k], dtype=float) for k in RECORD_KEYS[2:])
    except (TypeError, ValueError) as e:
        raise ValueError(f"line {lineno}: readings must be arrays of numbers ({e})") from None
    if t.ndim != 1:
        raise ValueError(f"line {lineno}: 't' must be a 1-d array")
    for k, v in zip(RECORD_KEYS[3:], cols):
        if v.shape != t.shape:
            raise ValueError(f"line {lineno}: array {k!r} length differs from t")
    for k in RECORD_KEYS[:2]:  # not bool, nor float: orjson reads an integer past 64 bits as one
        if type(rec[k]) not in (str, int):
            raise ValueError(f"line {lineno}: {k!r} must be a string or an integer, got {rec[k]!r}")
    cm = rec.get("countermeasure")
    if cm is not None and not isinstance(cm, str):
        raise ValueError(f"line {lineno}: 'countermeasure' must be a string or null, got {cm!r}")
    sample = RawSample(
        device_id=str(rec["device_id"]),
        sample_id=str(rec["sample_id"]),
        timestamps=t,
        accel=np.column_stack(cols[:3]),
        gyro=np.column_stack(cols[3:]),
    )
    return sample, cm


def load_dataset(path) -> Dataset:
    """Load and validate a JSONL dataset file.

    Every RawSample invariant is enforced; errors carry the 1-based line
    number. A line that is not strict JSON is a malformed record, and so is
    a number beyond the float64 range (``1e400``, a 400-digit integer).
    Devices with fewer than 2 samples load fine but are logged.
    """
    import orjson  # on use: a CLI start that reads no dataset skips it

    ds = Dataset()
    cm_values = set()
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = orjson.loads(line)
            except orjson.JSONDecodeError as e:
                raise ValueError(f"line {lineno}: malformed record ({e.msg})") from e
            if not isinstance(rec, dict):
                raise ValueError(f"line {lineno}: record is not a JSON object")
            sample, cm = _sample_from_record(rec, lineno)
            try:
                sample.validate()
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from e
            if cm is not None:
                cm_values.add(cm)
            ds.add(sample)
    if cm_values:
        if len(cm_values) > 1:
            raise ValueError(f"mixed countermeasure tags in one file: {sorted(cm_values)}")
        ds.countermeasure = cm_values.pop()
    flagged = ds.underpopulated_devices()
    if flagged:
        log.warning("%d device(s) have fewer than 2 samples: %s", len(flagged), flagged[:5])
    return ds


def write_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the JSONL record format (round-trips with load_dataset).

    Records are compact, ids are raw UTF-8, and each float is its shortest
    round-trip text, so any JSON reader recovers the same doubles.

    A non-finite reading is refused before the file is opened: the record
    format has no NaN or infinity, and load_dataset would refuse it.
    """
    for s in dataset.samples:
        if not all(np.isfinite(a).all() for a in (s.timestamps, s.accel, s.gyro)):
            raise ValueError(f"sample {s.device_id}/{s.sample_id} has a non-finite reading")
    import orjson

    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    with open(path, "wb") as fh:
        for s in dataset.samples:
            # orjson serializes only C-contiguous arrays; a sample may hold views
            a, g = s.accel.T.copy(), s.gyro.T.copy()
            rec = {
                "device_id": s.device_id,
                "sample_id": s.sample_id,
                "t": np.ascontiguousarray(s.timestamps),
                "ax": a[0], "ay": a[1], "az": a[2],
                "gx": g[0], "gy": g[1], "gz": g[2],
            }
            if dataset.countermeasure is not None:
                rec["countermeasure"] = dataset.countermeasure
            fh.write(orjson.dumps(rec, option=option))


def synthesize_sample(
    model: DeviceModel,
    rng: np.random.Generator,
    device_id: str = "dev",
    sample_id: str = "s0",
) -> RawSample:
    """Emit one sample of a stationary device under the given calibration model.

    Truth is accel (0, 0, 9.81) m/s^2 and gyro (0, 0, 0) rad/s; the measured
    reading is truth * gain + offset + Gaussian noise. Timestamps span
    ``NOMINAL_DURATION_S`` at a nominal 100 Hz with uniform jitter of +/-10%
    of the period, which keeps them strictly increasing. A model whose
    readings overflow is a ValueError naming the sample.
    """
    period = 1.0 / 100.0
    n = int(round(NOMINAL_DURATION_S * 100.0)) + 1
    t = np.arange(n) * period + rng.uniform(-0.1 * period, 0.1 * period, size=n)
    truth_accel = np.array([0.0, 0.0, GRAVITY])
    with np.errstate(over="ignore"):  # refused below
        accel = (
            truth_accel * model.accel_gain
            + model.accel_offset
            + rng.normal(0.0, model.noise_sigma_accel, size=(n, 3))
        )
        gyro = model.gyro_offset + rng.normal(0.0, model.noise_sigma_gyro, size=(n, 3))
    if not (np.all(np.isfinite(accel)) and np.all(np.isfinite(gyro))):
        raise ValueError(f"sample {device_id}/{sample_id}: non-finite readings")
    return RawSample(device_id, sample_id, t, accel, gyro)


def generate_synthetic(
    n_devices: int,
    samples_per_device: int,
    device_prior: DevicePrior | None = None,
    seed: int = 0,
) -> Dataset:
    """Generate a synthetic dataset of stationary-device captures.

    One DeviceModel is drawn per device from the prior; per-device RNG
    streams are keyed (seed, device index) so generation is reproducible
    regardless of evaluation order or thread count.
    """
    if n_devices < 0 or samples_per_device < 0:
        raise ValueError("counts must be >= 0")
    prior = device_prior or DevicePrior()
    ds = Dataset()
    for i in range(n_devices):
        rng = np.random.default_rng([seed, i])
        model = prior.draw(rng)
        device_id = f"dev{i:04d}"
        for j in range(samples_per_device):
            ds.add(synthesize_sample(model, rng, device_id, f"s{j:03d}"))
    return ds
