"""25 features per stream (10 temporal + 15 spectral), 100 per capture.

Temporal features describe the raw series; spectral features describe the
one-sided magnitude spectrum of the mean-removed series, computed without a
taper window (the bursts are short and quasi-stationary) and with the DC bin
dropped. Constant or silent streams would make several definitions blow up,
so: skewness/kurtosis are 0 when the variance is 0, and all 15 spectral
features are 0 when the spectrum carries no energy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, RawSample
from .preprocess import DEFAULT_FS, STREAM_KEYS, StreamSet, build_streams

TEMPORAL_NAMES = (
    "mean", "std", "avg_dev", "skewness", "kurtosis",
    "rms", "min", "max", "zcr", "nonneg_frac",
)

SPECTRAL_NAMES = (
    "centroid", "spread", "spec_skewness", "spec_kurtosis", "entropy",
    "flatness", "crest", "rolloff", "brightness", "spec_rms",
    "smoothness", "irregularity_k", "irregularity_j", "flux", "low_energy",
)

N_FEATURES = len(TEMPORAL_NAMES) + len(SPECTRAL_NAMES)  # 25 per stream
N_TOTAL = N_FEATURES * len(STREAM_KEYS)  # 100 per capture

ROLLOFF_FRACTION = 0.85
N_SUBFRAMES = 8


def feature_names() -> list[str]:
    """The 100 feature labels in vector order, e.g. 'A_MAG.centroid'."""
    per_stream = TEMPORAL_NAMES + SPECTRAL_NAMES
    return [f"{key}.{name}" for key in STREAM_KEYS for name in per_stream]


@dataclass
class FeatureVector:
    device_id: str
    sample_id: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (N_TOTAL,):
            raise ValueError(f"feature vector must have length {N_TOTAL}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature vector contains non-finite values")


@dataclass
class FeatureTable:
    """Feature vectors of a dataset: row i of ``X`` is the capture
    (``device_ids[i]``, ``sample_ids[i]``), rows in dataset order."""

    X: np.ndarray
    device_ids: np.ndarray
    sample_ids: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.device_ids = np.asarray(self.device_ids, dtype=str)
        self.sample_ids = np.asarray(self.sample_ids, dtype=str)
        if self.X.ndim != 2 or self.X.shape[1] != N_TOTAL:
            raise ValueError(f"feature table must have {N_TOTAL} columns")
        if not len(self.X) == len(self.device_ids) == len(self.sample_ids):
            raise ValueError("feature rows and ids must align")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("feature table contains non-finite values")

    def device_rows(self) -> dict[str, np.ndarray]:
        """Device -> its row indices; devices in first-seen order, rows ascending."""
        rows: dict[str, list[int]] = {}
        for i, dev in enumerate(self.device_ids.tolist()):
            rows.setdefault(dev, []).append(i)
        return {dev: np.array(idx) for dev, idx in rows.items()}

    def by_device(self) -> dict[str, np.ndarray]:
        """Device -> its feature matrix, in ``device_rows`` order."""
        return {dev: self.X[idx] for dev, idx in self.device_rows().items()}

    def eligible(self, min_samples: int) -> "FeatureTable":
        """The rows of devices with at least ``min_samples`` captures."""
        keep = [dev for dev, idx in self.device_rows().items() if len(idx) >= min_samples]
        mask = np.isin(self.device_ids, keep)
        return FeatureTable(self.X[mask], self.device_ids[mask], self.sample_ids[mask])


def temporal_features(series) -> np.ndarray:
    """10 time-domain features, in TEMPORAL_NAMES order.

    Zero-crossing rate counts strict sign changes of the mean-removed series
    over the n-1 adjacent pairs; the non-negative fraction is also taken on
    the mean-removed series, so both are shift-invariant.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n < 8:
        raise ValueError(f"series too short ({n} < 8)")
    mu = np.mean(x)
    dev = x - mu
    var = np.mean(dev * dev)
    std = np.sqrt(var)
    if std <= abs(mu) * 1e-12:
        # constant series up to rounding: shape stats and sign-based rates
        # take their degenerate-convention values
        return np.array([
            mu, 0.0, 0.0, 0.0, 0.0,
            np.sqrt(np.mean(x * x)), np.min(x), np.max(x), 0.0, 1.0,
        ])
    skew = np.mean(dev**3) / std**3
    kurt = np.mean(dev**4) / std**4 - 3.0
    zcr = np.count_nonzero(dev[:-1] * dev[1:] < 0) / (n - 1)
    return np.array([
        mu,
        std,
        np.mean(np.abs(dev)),
        skew,
        kurt,
        np.sqrt(np.mean(x * x)),
        np.min(x),
        np.max(x),
        zcr,
        np.count_nonzero(dev >= 0) / n,
    ])


def _half_spectrum(x: np.ndarray) -> np.ndarray:
    """One-sided magnitude spectrum, DC bin dropped."""
    return np.abs(np.fft.rfft(x))[1:]


def spectral_features(series, fs: float) -> np.ndarray:
    """15 frequency-domain features, in SPECTRAL_NAMES order.

    Moments (centroid, spread, skewness, kurtosis) and crest use magnitude
    weighting; entropy, flatness, rolloff, and brightness use power. Two of
    the features are frame-level rather than spectral-bin-level: flux is the
    Euclidean distance between the unit-normalized magnitude spectra of the
    first and last half-windows, and the low-energy rate is the fraction of
    8 equal sub-frames whose RMS falls below the full-series RMS. For the
    log-magnitude smoothness, zero bins are clamped to the smallest positive
    magnitude present so the log stays finite.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n < 8:
        raise ValueError(f"series too short ({n} < 8)")
    if fs <= 0:
        raise ValueError("fs must be positive")
    mu = np.mean(x)
    x = x - mu
    if np.sqrt(np.mean(x * x)) <= abs(mu) * 1e-12:
        return np.zeros(len(SPECTRAL_NAMES))  # constant up to rounding
    m = _half_spectrum(x)
    m_sum = np.sum(m)
    if m_sum == 0:
        return np.zeros(len(SPECTRAL_NAMES))
    k = len(m)
    freqs = np.arange(1, k + 1) * (fs / n)
    p = m * m
    p_sum = np.sum(p)

    centroid = np.sum(freqs * m) / m_sum
    d = freqs - centroid
    spread = np.sqrt(np.sum(d * d * m) / m_sum)
    if spread > 0:
        spec_skew = np.sum(d**3 * m) / (m_sum * spread**3)
        spec_kurt = np.sum(d**4 * m) / (m_sum * spread**4) - 3.0
    else:
        spec_skew = 0.0
        spec_kurt = 0.0

    pn = p / p_sum
    nz = pn > 0
    entropy = -np.sum(pn[nz] * np.log2(pn[nz])) / np.log2(k)
    flatness = (
        np.exp(np.mean(np.log(p))) / np.mean(p) if np.all(p > 0) else 0.0
    )
    crest = np.max(m) / np.mean(m)
    rolloff = freqs[np.searchsorted(np.cumsum(p), ROLLOFF_FRACTION * p_sum)]
    brightness = np.sum(p[freqs > fs / 8.0]) / p_sum
    spec_rms = np.sqrt(np.mean(p))

    log_m = np.log(np.where(m > 0, m, np.min(m[m > 0])))
    smoothness = np.mean(np.abs(np.diff(log_m, 2)))
    irregularity_k = np.sum(np.abs(m[1:-1] - (m[:-2] + m[1:-1] + m[2:]) / 3.0))
    irregularity_j = np.sum(np.diff(m) ** 2) / p_sum

    h = n // 2
    m1 = _half_spectrum(x[:h])
    m2 = _half_spectrum(x[-h:])
    n1 = np.linalg.norm(m1)
    n2 = np.linalg.norm(m2)
    u1 = m1 / n1 if n1 > 0 else m1
    u2 = m2 / n2 if n2 > 0 else m2
    flux = np.linalg.norm(u1 - u2)

    full_rms = np.sqrt(np.mean(x * x))
    frames = np.array_split(x, N_SUBFRAMES)
    low_energy = np.mean([np.sqrt(np.mean(f * f)) < full_rms for f in frames])

    return np.array([
        centroid, spread, spec_skew, spec_kurt, entropy,
        flatness, crest, rolloff, brightness, spec_rms,
        smoothness, irregularity_k, irregularity_j, flux, low_energy,
    ])


def featurize(streams: StreamSet, device_id: str = "", sample_id: str = "") -> FeatureVector:
    """Concatenate the 25 per-stream features in stream-major order."""
    blocks = []
    for key in STREAM_KEYS:
        s = streams.streams[key]
        blocks.append(temporal_features(s))
        blocks.append(spectral_features(s, streams.fs))
    return FeatureVector(device_id, sample_id, np.concatenate(blocks))


def featurize_sample(sample: RawSample, fs_target: float = DEFAULT_FS) -> FeatureVector:
    """RawSample -> resampled streams -> feature vector, ids carried through."""
    return featurize(build_streams(sample, fs_target), sample.device_id, sample.sample_id)


def featurize_dataset(dataset: Dataset, fs_target: float = DEFAULT_FS) -> FeatureTable:
    """One feature row per sample, in dataset order: the one extraction path
    every consumer of features reads from."""
    samples = dataset.samples
    X = np.empty((len(samples), N_TOTAL))
    for i, s in enumerate(samples):
        X[i] = featurize_sample(s, fs_target).values
    return FeatureTable(X, [s.device_id for s in samples], [s.sample_id for s in samples])


_CSV_HEADER = ["device_id", "sample_id"] + [f"f{i:03d}" for i in range(N_TOTAL)]


def write_features_csv(table: FeatureTable, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_HEADER)
        for dev, sid, values in zip(table.device_ids, table.sample_ids, table.X):
            w.writerow([dev, sid] + [repr(float(x)) for x in values])


def load_features_csv(path) -> FeatureTable:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        if next(r, None) != _CSV_HEADER:
            raise ValueError("bad feature-matrix header")
        rows = list(r)
    for row in rows:
        if len(row) != len(_CSV_HEADER):
            raise ValueError(f"row for {row[:2]} has {len(row)} fields")
    X = np.array([[float(x) for x in row[2:]] for row in rows]).reshape(len(rows), N_TOTAL)
    return FeatureTable(X, [row[0] for row in rows], [row[1] for row in rows])
