"""Dataset model, JSONL ingestion, and synthetic device generation.

A dataset is a collection of short sensor captures ("samples"), each a burst
of timestamped 3-axis accelerometer and gyroscope readings from one device.
The on-disk format is one JSON object per line with keys ``device_id``,
``sample_id``, ``t``, ``ax``, ``ay``, ``az``, ``gx``, ``gy``, ``gz`` (all
arrays of equal length), read and written with orjson. A ``Dataset`` is
built once from its samples, in file order when loaded, and never grows.

The synthetic generator stands in for real data collection: it models a
stationary device lying flat on a surface, so the only device-to-device
signal is the per-device calibration error (accelerometer gain and offset,
gyroscope offset, per axis) plus measurement noise.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

log = logging.getLogger(__name__)

GRAVITY = 9.81  # m/s^2, true |accel| for a stationary flat device

# RawSample validity bounds
MIN_RATE_HZ = 20.0
MAX_RATE_HZ = 200.0
NOMINAL_DURATION_S = 5.0
DURATION_TOLERANCE = 0.20


def read_only_copy(a, dtype=float) -> np.ndarray:
    """A read-only C-contiguous copy of ``a``: what the caller passed stays
    theirs to edit, and what the holder keeps cannot change."""
    a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RawSample:
    """One ~5 s burst of raw motion-sensor readings from one device.

    ``accel`` includes gravity (m/s^2), ``gyro`` is rotational rate (rad/s);
    both are (n, 3) arrays aligned with ``timestamps`` (seconds).

    A sample is a value: it keeps read-only copies of the arrays it is given,
    and its fields cannot be rebound. ``dataclasses.replace`` makes a changed
    copy. Either way the constructor refuses, naming the sample, fewer than
    2 readings, timestamps that are not 1-d, finite and strictly increasing,
    accel or gyro not (n, 3), and a non-finite reading.
    """

    device_id: str
    sample_id: str
    timestamps: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray

    def __post_init__(self):
        for name in ("timestamps", "accel", "gyro"):
            object.__setattr__(self, name, read_only_copy(getattr(self, name)))
        t, accel, gyro = self.timestamps, self.accel, self.gyro
        n, what = t.size, f"sample {self.device_id}/{self.sample_id}"
        if n < 2:
            raise ValueError(f"{what}: needs >= 2 readings, got {n}")
        if t.shape != (n,) or accel.shape != (n, 3) or gyro.shape != (n, 3):
            raise ValueError(f"{what}: length mismatch (timestamps {t.shape}, "
                             f"accel {accel.shape}, gyro {gyro.shape})")
        if not np.isfinite(t).all():
            raise ValueError(f"{what}: non-finite timestamps")
        if (t[1:] <= t[:-1]).any():
            raise ValueError(f"{what}: non-monotone timestamps")
        if not (np.isfinite(accel).all() and np.isfinite(gyro).all()):
            raise ValueError(f"{what}: non-finite readings")

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
        """Raise ValueError unless the mean rate and the duration are within
        the file format's bounds; the constructor has checked the arrays."""
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


class Dataset:
    """The captures of a fleet, built once from ``samples`` in the order
    given. A repeated (device, sample id) pair is refused as it arrives.
    It holds the captures only, not how they were made or rewritten.

    ``samples`` is the tuple of the samples, and ``index`` a read-only
    mapping of each device to the tuple of its sample ids, devices in
    first-seen order. Neither can be rebound or edited, and neither can the
    samples. So the feature table that ``features.featurize_dataset`` keeps
    in ``_features``, with its rate, stays the table of these samples.
    """

    def __init__(self, samples=()):
        index: dict[str, list[str]] = {}
        kept: dict[tuple[str, str], RawSample] = {}  # (device, sample id) -> sample, in order
        for sample in samples:
            key = (sample.device_id, sample.sample_id)
            if key in kept:
                raise ValueError(f"duplicate sample id {key[1]!r} for device {key[0]!r}")
            kept[key] = sample
            index.setdefault(sample.device_id, []).append(sample.sample_id)
        self._samples = tuple(kept.values())
        self._index = MappingProxyType({dev: tuple(ids) for dev, ids in index.items()})
        self._features = None  # (fs, FeatureTable) of the last featurize_dataset call

    @property
    def samples(self) -> tuple[RawSample, ...]:
        return self._samples

    @property
    def index(self) -> Mapping[str, tuple[str, ...]]:
        return self._index

    def underpopulated_devices(self) -> list[str]:
        """Devices with fewer than 2 samples (loadable but flagged)."""
        return [d for d, ids in self.index.items() if len(ids) < 2]


def rows_by_device(device_ids) -> dict[str, np.ndarray]:
    """Device -> the indices of its rows; devices in first-seen order."""
    rows: dict[str, list[int]] = {}
    for i, dev in enumerate(np.asarray(device_ids, dtype=str).tolist()):
        rows.setdefault(dev, []).append(i)
    return {dev: np.array(idx) for dev, idx in rows.items()}


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

    Defaults reflect consumer MEMS calibration-error magnitudes; ``synth``
    sets each field by the flag of its name. A range must be finite with
    lo <= hi (a gain's lo > 0), a noise sigma finite and >= 0.
    """

    accel_gain: tuple[float, float] = (0.95, 1.05)
    accel_offset: tuple[float, float] = (-0.2, 0.2)
    gyro_offset: tuple[float, float] = (-0.05, 0.05)
    noise_sigma_accel: float = 0.02
    noise_sigma_gyro: float = 0.002

    def __post_init__(self):
        for key in ("accel_gain", "accel_offset", "gyro_offset"):
            lo, hi = pair = tuple(map(float, getattr(self, key)))
            # a NaN or infinite end, or a width past the largest double, fails isfinite
            if not (lo <= hi and np.isfinite(hi - lo) and (lo > 0 or key != "accel_gain")):
                raise ValueError(f"device prior {key!r}: {pair} is not a finite range with lo <= hi"
                                 + (" and lo > 0" if key == "accel_gain" else ""))
            setattr(self, key, pair)
        for key in ("noise_sigma_accel", "noise_sigma_gyro"):
            if not 0 <= getattr(self, key) < np.inf:  # NaN fails it too
                raise ValueError(f"device prior {key!r}: {getattr(self, key)!r} "
                                 "is not a finite number >= 0")

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


RECORD_KEYS = ("device_id", "sample_id", "t", "ax", "ay", "az", "gx", "gy", "gz")


def _json_number(value, what: str, min_int: int | None = None):
    """``value`` if JSON read it as a number (a boolean is not one) and, when
    ``min_int`` is given, as an integer of at least ``min_int``; else a
    TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            min_int is not None and not (isinstance(value, int) and value >= min_int)):
        kind = "a number" if min_int is None else f"an integer >= {min_int}"
        raise TypeError(f"{what} must be {kind}, got {value!r}")
    return value


def _json_numbers(values, what: str):
    """``values`` if it is a JSON array and each element of it, or of an
    array inside it, is a JSON number: an int or a float, not a boolean, a
    string or null. Else a TypeError naming the first value that is not.
    The caller checks shapes."""
    if not isinstance(values, list):
        raise TypeError(f"{what} must be an array of numbers, got {values!r}")
    # one type set per list: checking element by element doubles a dataset load
    if not set(map(type, values)) <= {int, float}:
        for v in values:
            (_json_numbers if isinstance(v, list) else _json_number)(v, what)
    return values


def _sample_from_record(rec: dict) -> RawSample:
    missing = [k for k in RECORD_KEYS if k not in rec]
    if missing:
        raise ValueError(f"missing keys {missing}")
    try:
        t, *cols = (np.asarray(_json_numbers(rec[k], k), dtype=float) for k in RECORD_KEYS[2:])
    except (TypeError, ValueError) as e:
        raise ValueError(f"readings must be arrays of numbers ({e})") from None
    if t.ndim != 1:
        raise ValueError("'t' must be a 1-d array")
    for k, v in zip(RECORD_KEYS[3:], cols):
        if v.shape != t.shape:
            raise ValueError(f"array {k!r} length differs from t")
    for k in RECORD_KEYS[:2]:  # not bool, nor float: orjson reads an integer past 64 bits as one
        if type(rec[k]) not in (str, int):
            raise ValueError(f"{k!r} must be a string or an integer, got {rec[k]!r}")
    return RawSample(
        device_id=str(rec["device_id"]),
        sample_id=str(rec["sample_id"]),
        timestamps=t,
        accel=np.column_stack(cols[:3]),
        gyro=np.column_stack(cols[3:]),
    )


def load_dataset(path) -> Dataset:
    """Load and validate a JSONL dataset file.

    Every RawSample and Dataset invariant is enforced; errors carry the
    1-based line number. A line that is not strict JSON is a malformed
    record, and so is a number past the float64 range (``1e400``, 10**400).
    Keys other than ``RECORD_KEYS`` are ignored.
    Devices with fewer than 2 samples load fine but are logged.
    """
    import orjson  # on use: a CLI start that reads no dataset skips it

    lineno = 0

    def samples(fh):
        nonlocal lineno
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = orjson.loads(line)
            except orjson.JSONDecodeError as e:
                raise ValueError(f"malformed record ({e.msg})") from e
            if not isinstance(rec, dict):
                raise ValueError("record is not a JSON object")
            sample = _sample_from_record(rec)
            sample.validate()
            yield sample

    # a record is about 70 KB: a 1 MiB buffer reads each line in one piece,
    # where the default 8 KiB one reassembles it from about nine
    with open(path, "rb", buffering=1 << 20) as fh:
        try:  # Dataset refuses a duplicate while the generator still sits on its line
            ds = Dataset(samples(fh))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from e
    flagged = ds.underpopulated_devices()
    if flagged:
        log.warning("%d device(s) have fewer than 2 samples: %s", len(flagged), flagged[:5])
    return ds


def write_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the JSONL record format (round-trips with load_dataset).

    Records are compact, ids are raw UTF-8, and each float is its shortest
    round-trip text, so any JSON reader recovers the same doubles.

    Every sample's rate and duration are checked (``RawSample.validate``)
    before the file is opened, so a sample that load_dataset would refuse
    writes no file. A sample holds no non-finite reading, which the record
    format cannot hold: its constructor refuses one.
    """
    for s in dataset.samples:
        s.validate()
    import orjson

    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    with open(path, "wb") as fh:
        for s in dataset.samples:
            a, g = s.accel.T.copy(), s.gyro.T.copy()  # orjson takes C-contiguous arrays
            fh.write(orjson.dumps({
                "device_id": s.device_id,
                "sample_id": s.sample_id,
                "t": s.timestamps,
                "ax": a[0], "ay": a[1], "az": a[2],
                "gx": g[0], "gy": g[1], "gz": g[2],
            }, option=option))


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
    of the period, which keeps them strictly increasing. RawSample refuses a
    model whose readings overflow, naming the sample.
    """
    period = 1.0 / 100.0
    n = int(round(NOMINAL_DURATION_S * 100.0)) + 1
    t = np.arange(n) * period + rng.uniform(-0.1 * period, 0.1 * period, size=n)
    truth_accel = np.array([0.0, 0.0, GRAVITY])
    with np.errstate(over="ignore"):  # RawSample refuses a non-finite reading
        accel = (
            truth_accel * model.accel_gain
            + model.accel_offset
            + rng.normal(0.0, model.noise_sigma_accel, size=(n, 3))
        )
        gyro = model.gyro_offset + rng.normal(0.0, model.noise_sigma_gyro, size=(n, 3))
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
    samples = []
    for i in range(n_devices):
        rng = np.random.default_rng([seed, i])
        model = prior.draw(rng)
        device_id = f"dev{i:04d}"
        for j in range(samples_per_device):
            samples.append(synthesize_sample(model, rng, device_id, f"s{j:03d}"))
    return Dataset(samples)
