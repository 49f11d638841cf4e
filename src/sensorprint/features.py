"""25 features per stream (10 temporal + 15 spectral), 100 per capture.

Temporal features describe the raw series; spectral features describe the
one-sided magnitude spectrum of the mean-removed series, computed without a
taper window (the bursts are short and quasi-stationary) and with the DC bin
dropped. Constant or silent streams would make several definitions blow up,
so: skewness/kurtosis are 0 when the variance is 0, and all 15 spectral
features are 0 when the spectrum carries no energy.

A capture's features are one (100,) row; a dataset's are a ``FeatureTable``.
Featurization has one path: ``featurize_dataset`` passes blocks of up to
BLOCK_CAPTURES captures through ``preprocess.build_streams`` (one (4, n)
stream matrix per capture) and ``featurize`` (one row per capture). One
kernel computes all 25 features of every row of an (m, n) stream matrix in
one pass, with one mean, deviation, standard deviation and degenerate mask
for the temporal and spectral features: ``featurize`` passes it the streams
of all captures of equal length, ``stream_features`` one series.
``featurize_dataset`` keeps the table it computes on the dataset, with the
rate, and hands it out again at that rate, so ``run_protocol`` and
``privacy_impact`` called again and again on one ``Dataset`` resample and
featurize it once. That needs no check: a dataset is built once, and its
samples and tables are immutable. A ``FeatureTable`` is used as it is, and
the CLI's ``classify`` and ``evaluate`` read the table ``featurize`` wrote.

The degenerate rules above are per-row masks applied after the arithmetic,
which runs under ``np.errstate`` so no warning escapes. Each row's features
are bit for bit those of the row alone, because the arithmetic is
element-wise and row sums and means of a C-contiguous matrix reduce exactly
as a 1-d array does. The third and fourth moments are products
(``dev2 * dev`` and ``dev2 * dev2`` with ``dev2 = dev * dev``), not powers.
A boolean column index (``p[:, freqs > fs / 8]``) would yield a copy whose
row sums differ from the 1-d sums, so brightness sums a contiguous slice. A
norm is the row's BLAS dot product with itself, as ``np.linalg.norm``
computes it in 1-d.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, RawSample, read_only_copy, rows_by_device
from .preprocess import DEFAULT_FS, STREAM_KEYS, build_streams

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

# captures resampled and featurized together by featurize_dataset: a block
# of 16 holds 64 streams, so each (64, n) temporary stays near 0.25 MB
BLOCK_CAPTURES = 16


@dataclass(frozen=True)
class FeatureTable:
    """Feature vectors of a dataset: row i of ``X`` is the capture
    (``device_ids[i]``, ``sample_ids[i]``), rows in dataset order. A
    repeated (device_id, sample_id) row is a ValueError: the copy would be
    its capture's own nearest neighbour. Like a ``RawSample``, a table is a
    value: it keeps read-only copies of its arrays, and its fields cannot be
    rebound."""

    X: np.ndarray
    device_ids: np.ndarray
    sample_ids: np.ndarray

    def __post_init__(self):
        for name, dtype in (("X", float), ("device_ids", str), ("sample_ids", str)):
            object.__setattr__(self, name, read_only_copy(getattr(self, name), dtype))
        if self.X.ndim != 2 or self.X.shape[1] != N_TOTAL:
            raise ValueError(f"feature table must have {N_TOTAL} columns")
        if not len(self.X) == len(self.device_ids) == len(self.sample_ids):
            raise ValueError("feature rows and ids must align")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("feature table contains non-finite values")
        seen = set()
        for key in zip(self.device_ids.tolist(), self.sample_ids.tolist()):
            if key in seen:
                raise ValueError(f"duplicate row for device {key[0]!r}, sample {key[1]!r}")
            seen.add(key)

    def device_rows(self) -> dict[str, np.ndarray]:
        """Device -> its row indices, as ``rows_by_device`` groups them."""
        return rows_by_device(self.device_ids)

    def eligible(self, min_samples: int) -> "FeatureTable":
        """The rows of devices with at least ``min_samples`` captures."""
        keep = [dev for dev, idx in self.device_rows().items() if len(idx) >= min_samples]
        mask = np.isin(self.device_ids, keep)
        return FeatureTable(self.X[mask], self.device_ids[mask], self.sample_ids[mask])


def _row_norms(A: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row: the square root of the row's BLAS dot
    product with itself, which is how the norm of a 1-d array is computed."""
    return np.sqrt(np.matmul(A[:, None, :], A[:, :, None])[:, 0, 0])


def _half_spectrum(x: np.ndarray) -> np.ndarray:
    """One-sided magnitude spectrum of each row, DC bin dropped."""
    return np.abs(np.fft.rfft(x))[:, 1:]


def _feature_rows(X, fs: float) -> np.ndarray:
    """``stream_features`` of every row of an (m, n) matrix, as (m, 25)."""
    X = np.ascontiguousarray(X, dtype=float)
    n = X.shape[1]
    if n < 8:
        raise ValueError(f"series too short ({n} < 8)")
    if fs <= 0:
        raise ValueError("fs must be positive")
    mu = np.mean(X, axis=1)
    dev = X - mu[:, None]
    dev2 = dev * dev
    std = np.sqrt(np.mean(dev2, axis=1))  # also the full-series RMS of dev
    std2 = std * std
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.mean(dev2 * dev, axis=1) / (std2 * std)
        kurt = np.mean(dev2 * dev2, axis=1) / (std2 * std2) - 3.0
    # the temporal features first: their temporaries are freed before the
    # spectral ones are allocated, which measured faster per block
    del dev2
    temporal = [
        mu, std, np.mean(np.abs(dev), axis=1), skew, kurt,
        np.sqrt(np.mean(X * X, axis=1)), np.min(X, axis=1), np.max(X, axis=1),
        np.count_nonzero(dev[:, :-1] * dev[:, 1:] < 0, axis=1) / (n - 1),
        np.count_nonzero(dev >= 0, axis=1) / n,
    ]
    # constant series up to rounding: shape stats and sign-based rates take
    # their degenerate-convention values, and the spectrum is silent
    const = std <= np.abs(mu) * 1e-12
    m = _half_spectrum(dev)
    m_sum = np.sum(m, axis=1)
    silent = const | (m_sum == 0)  # no spectral energy: all 15 spectral features are 0
    k = m.shape[1]
    freqs = np.arange(1, k + 1) * (fs / n)
    p = m * m
    p_sum = np.sum(p, axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = np.sum(freqs * m, axis=1) / m_sum
        d = freqs - centroid[:, None]
        d2 = d * d
        spread = np.sqrt(np.sum(d2 * m, axis=1) / m_sum)
        spread2 = spread * spread
        spec_skew = np.sum(d2 * d * m, axis=1) / (m_sum * (spread2 * spread))
        spec_kurt = np.sum(d2 * d2 * m, axis=1) / (m_sum * (spread2 * spread2)) - 3.0

        pn = p / p_sum[:, None]
        nz = pn > 0
        plogp = pn * np.log2(pn)
        entropy = -np.sum(plogp, axis=1)
        for i in np.flatnonzero(~silent & ~nz.all(axis=1)):
            entropy[i] = -np.sum(plogp[i][nz[i]])  # zero bins carry no entropy
        entropy /= np.log2(k)
        flatness = np.where(np.all(p > 0, axis=1),
                            np.exp(np.mean(np.log(p), axis=1)) / np.mean(p, axis=1), 0.0)
        crest = np.max(m, axis=1) / np.mean(m, axis=1)
        below = np.cumsum(p, axis=1) < (ROLLOFF_FRACTION * p_sum)[:, None]
        rolloff = freqs[np.count_nonzero(below, axis=1)]
        bright_from = np.count_nonzero(freqs <= fs / 8.0)
        brightness = np.sum(p[:, bright_from:], axis=1) / p_sum
        spec_rms = np.sqrt(np.mean(p, axis=1))

        pos_min = np.min(np.where(m > 0, m, np.inf), axis=1)
        log_m = np.log(np.where(m > 0, m, pos_min[:, None]))
        smoothness = np.mean(np.abs(np.diff(log_m, 2, axis=1)), axis=1)
        irregularity_k = np.sum(
            np.abs(m[:, 1:-1] - (m[:, :-2] + m[:, 1:-1] + m[:, 2:]) / 3.0), axis=1)
        irregularity_j = np.sum(np.diff(m, axis=1) ** 2, axis=1) / p_sum

        h = n // 2
        m1 = _half_spectrum(dev[:, :h])
        m2 = _half_spectrum(dev[:, -h:])
        n1 = _row_norms(m1)
        n2 = _row_norms(m2)
        u1 = m1 / np.where(n1 > 0, n1, 1.0)[:, None]
        u2 = m2 / np.where(n2 > 0, n2, 1.0)[:, None]
        flux = _row_norms(u1 - u2)

    frames = np.array_split(dev, N_SUBFRAMES, axis=1)
    low = sum(np.sqrt(np.mean(f * f, axis=1)) < std for f in frames)
    out = np.column_stack([
        *temporal,
        centroid, spread, spec_skew, spec_kurt, entropy,
        flatness, crest, rolloff, brightness, spec_rms,
        smoothness, irregularity_k, irregularity_j, flux, low / N_SUBFRAMES,
    ])
    out[const, 1:5] = 0.0
    out[const, 8] = 0.0
    out[const, 9] = 1.0
    out[spread == 0, 12:14] = 0.0
    out[silent, 10:] = 0.0
    return out


def stream_features(series, fs: float = DEFAULT_FS) -> np.ndarray:
    """The 25 features of one series sampled at ``fs``, in TEMPORAL_NAMES +
    SPECTRAL_NAMES order.

    Zero-crossing rate (strict sign changes over the n-1 adjacent pairs) and
    the non-negative fraction are taken on the mean-removed series, so both
    are shift-invariant. Spectral moments and crest weight by magnitude;
    entropy, flatness, rolloff and brightness by power. Flux is the
    Euclidean distance between the unit-normalized magnitude spectra of the
    first and last half-windows; the low-energy rate is the fraction of 8
    equal sub-frames whose RMS falls below the full-series RMS. Zero bins
    are clamped to the smallest positive magnitude for the log-magnitude
    smoothness, so the log stays finite.
    """
    return _feature_rows(np.asarray(series, dtype=float)[None], fs)[0]


def featurize(streams, fs: float) -> np.ndarray:
    """The (k, 100) feature rows of k captures' (4, n) stream matrices
    sampled at ``fs``: row i holds the 25 features of each of capture i's
    streams, in stream-major order. Captures of equal stream length go
    through the kernel in one pass."""
    X = np.empty((len(streams), N_TOTAL))
    groups: dict[int, list[int]] = {}  # stream length -> capture positions
    for i, S in enumerate(streams):
        groups.setdefault(S.shape[1], []).append(i)
    for idx in groups.values():
        S = np.concatenate([streams[i] for i in idx])
        X[idx] = _feature_rows(S, fs).reshape(len(idx), N_TOTAL)
    return X


def featurize_sample(sample: RawSample, fs_target: float = DEFAULT_FS) -> np.ndarray:
    """RawSample -> resampled streams -> its (100,) feature row."""
    return featurize(build_streams([sample], fs_target), fs_target)[0]


def featurize_dataset(dataset: Dataset, fs_target: float = DEFAULT_FS) -> FeatureTable:
    """One feature row per sample, in dataset order: the one extraction path
    every consumer of features reads from.

    Blocks of up to BLOCK_CAPTURES captures are resampled with one spline
    solve and featurized together, so memory stays bounded by the block size.

    The table is kept on the dataset with ``fs_target``; a later call at the
    same rate returns that same table without resampling. A dataset is built
    once from immutable samples, so the stored table stays its table.
    """
    memo = dataset._features
    if memo is None or memo[0] != fs_target:
        samples = dataset.samples
        X = np.empty((len(samples), N_TOTAL))
        for start in range(0, len(samples), BLOCK_CAPTURES):
            block = samples[start:start + BLOCK_CAPTURES]
            X[start:start + len(block)] = featurize(build_streams(block, fs_target), fs_target)
        table = FeatureTable(X, [s.device_id for s in samples], [s.sample_id for s in samples])
        memo = dataset._features = (fs_target, table)
    return memo[1]


_CSV_HEADER = ["device_id", "sample_id"] + [f"f{i:03d}" for i in range(N_TOTAL)]


def write_features_csv(table: FeatureTable, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_HEADER)
        for dev, sid, values in zip(table.device_ids, table.sample_ids, table.X):
            w.writerow([dev, sid] + [repr(float(x)) for x in values])


def load_features_csv(path) -> FeatureTable:
    """Read a ``write_features_csv`` file. A cell that is not a number is a
    ValueError naming its row's ids and its column; a repeated (device_id,
    sample_id) row is one from ``FeatureTable``, as a duplicate sample id is
    in ``load_dataset``."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        if next(r, None) != _CSV_HEADER:
            raise ValueError("bad feature-matrix header")
        rows = list(r)
    X = np.empty((len(rows), N_TOTAL))
    for i, row in enumerate(rows):
        if len(row) != len(_CSV_HEADER):
            raise ValueError(f"row for {row[:2]} has {len(row)} fields")
        try:
            X[i] = [float(x) for x in row[2:]]
        except ValueError:  # float() names the text only: find its column
            for name, x in zip(_CSV_HEADER[2:], row[2:]):
                try:
                    float(x)
                except ValueError:
                    raise ValueError(f"row for device {row[0]!r}, sample {row[1]!r}: "
                                     f"{name} {x!r} is not a number") from None
    return FeatureTable(X, [row[0] for row in rows], [row[1] for row in rows])
