"""Raw capture -> four canonical uniformly-sampled streams.

Hardware delivers readings at irregular instants, so every capture is
resampled onto a uniform grid before feature extraction. The accelerometer
is collapsed to its magnitude (orientation-free, gravity included); the
gyroscope keeps its three axes separate since rotation has no baseline to
collapse against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .dataset import RawSample

STREAM_KEYS = ("A_MAG", "GYRO_X", "GYRO_Y", "GYRO_Z")

DEFAULT_FS = 100.0  # Hz

MIN_STREAM_LEN = 8


@dataclass
class StreamSet:
    """Four equal-length uniform series for one capture, keyed by STREAM_KEYS."""

    fs: float
    streams: dict[str, np.ndarray]

    def __post_init__(self):
        if self.fs <= 0:
            raise ValueError("fs must be positive")
        if set(self.streams) != set(STREAM_KEYS):
            raise ValueError(f"streams must be keyed exactly {STREAM_KEYS}")
        lens = {len(v) for v in self.streams.values()}
        if len(lens) != 1:
            raise ValueError("stream lengths differ")
        n = lens.pop()
        if n < MIN_STREAM_LEN:
            raise ValueError(f"streams too short ({n} < {MIN_STREAM_LEN})")
        if np.any(self.streams["A_MAG"] < 0):
            raise ValueError("A_MAG must be non-negative")

    @property
    def length(self) -> int:
        return len(self.streams["A_MAG"])


def magnitude(accel) -> np.ndarray:
    """Euclidean norm of acceleration vectors; accepts (3,) or (n, 3)."""
    a = np.asarray(accel, dtype=float)
    return np.sqrt(np.sum(a * a, axis=-1))


def interpolate_uniform(timestamps, values, fs_target: float) -> np.ndarray:
    """Resample a series to a uniform rate with a natural cubic spline.

    ``values`` is one series of shape (n,) or c series as the columns of an
    (n, c) matrix; the result has the same layout, one row per grid point.
    One spline fit over all columns gives each column bit for bit what a
    separate fit of that column gives. The output grid is t0, t0 + 1/fs, ...
    up to (and not past) the last input timestamp. The spline passes through
    every input knot.
    """
    t = np.asarray(timestamps, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or v.ndim not in (1, 2) or v.shape[0] != t.shape[0]:
        raise ValueError(
            "timestamps must be 1-d and values (n,) or (n, c) with one row per timestamp")
    if len(t) < 4:
        raise ValueError(f"need >= 4 points for cubic interpolation, got {len(t)}")
    if np.any(np.diff(t) <= 0):
        raise ValueError("non-monotone timestamps")
    if fs_target <= 0:
        raise ValueError("fs_target must be positive")
    spline = CubicSpline(t, v, bc_type="natural")
    span = t[-1] - t[0]
    n_out = int(np.floor(span * fs_target + 1e-9)) + 1
    grid = t[0] + np.arange(n_out) / fs_target
    return spline(grid)


def build_streams(sample: RawSample, fs_target: float = DEFAULT_FS) -> StreamSet:
    """Resample one capture into its four canonical streams.

    One spline is fitted over the four source columns (|a| and the three gyro
    axes); each stream is a C-contiguous row of the transposed result.
    Interpolating the magnitude can undershoot zero between knots, so the
    resampled A_MAG is clamped at 0.
    """
    columns = np.column_stack([magnitude(sample.accel), sample.gyro])
    rows = interpolate_uniform(sample.timestamps, columns, fs_target).T.copy()
    np.maximum(rows[0], 0.0, out=rows[0])
    return StreamSet(fs=fs_target, streams=dict(zip(STREAM_KEYS, rows)))
