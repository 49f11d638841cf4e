"""Raw capture -> four canonical uniformly-sampled streams.

Hardware delivers readings at irregular instants, so every capture is
resampled onto a uniform grid before feature extraction. The accelerometer
is collapsed to its magnitude (orientation-free, gravity included); the
gyroscope keeps its three axes separate since rotation has no baseline to
collapse against. A capture's streams are the rows of one (4, n) matrix, in
STREAM_KEYS order.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

from .dataset import RawSample

STREAM_KEYS = ("A_MAG", "GYRO_X", "GYRO_Y", "GYRO_Z")

DEFAULT_FS = 100.0  # Hz


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
    if not 0 < fs_target < np.inf:  # NaN fails it too
        raise ValueError("fs_target must be positive and finite")
    spline = CubicSpline(t, v, bc_type="natural")
    span = t[-1] - t[0]
    n_out = int(np.floor(span * fs_target + 1e-9)) + 1
    grid = t[0] + np.arange(n_out) / fs_target
    return spline(grid)


def build_streams(sample: RawSample, fs_target: float = DEFAULT_FS) -> np.ndarray:
    """Resample one capture into its four canonical streams, as the rows of a
    C-contiguous (4, n) matrix in STREAM_KEYS order.

    One spline is fitted over the four source columns (|a| and the three gyro
    axes) and the result is transposed. Interpolating the magnitude can
    undershoot zero between knots, so the resampled A_MAG row is clamped at 0.
    """
    columns = np.column_stack([magnitude(sample.accel), sample.gyro])
    rows = interpolate_uniform(sample.timestamps, columns, fs_target).T.copy()
    np.maximum(rows[0], 0.0, out=rows[0])
    return rows
