"""Raw capture -> four canonical uniformly-sampled streams.

Hardware delivers readings at irregular instants, so every capture is
resampled onto a uniform grid before feature extraction. The accelerometer
is collapsed to its magnitude (orientation-free, gravity included); the
gyroscope keeps its three axes separate since rotation has no baseline to
collapse against. A capture's streams are the rows of one (4, n) matrix, in
STREAM_KEYS order.

The resampler is a natural cubic spline computed the way scipy's
``CubicSpline(t, v, bc_type="natural")`` computes it, bit for bit: the same
tridiagonal system for the knot slopes, solved by the same LAPACK routine
(``gtsv``), and the same piecewise-polynomial evaluation. A block of captures
shares one solve: their systems are stacked block-diagonally with zero
couplings, which Gaussian elimination carries through exactly, and the
matrix is diagonally dominant, so ``gtsv`` never pivots across captures.
"""

from __future__ import annotations

import numpy as np

STREAM_KEYS = ("A_MAG", "GYRO_X", "GYRO_Y", "GYRO_Z")

DEFAULT_FS = 100.0  # Hz


def magnitude(accel) -> np.ndarray:
    """Euclidean norm of acceleration vectors; accepts (3,) or (n, 3)."""
    a = np.asarray(accel, dtype=float)
    return np.sqrt(np.sum(a * a, axis=-1))


def _natural_splines(ts: list[np.ndarray], V: np.ndarray,
                     fs_target: float) -> tuple[np.ndarray, list[int]]:
    """Natural cubic splines through several series, each evaluated on its
    own uniform grid t0, t0 + 1/fs, ... up to (and not past) its last knot.

    ``ts`` holds each series' knots and the (c, N) matrix ``V`` the c values
    at every knot, series after series. Returns the (c, G) values on the
    grids, side by side, and each grid's length.
    """
    from scipy.linalg.lapack import dgtsv  # on use: scipy.linalg adds about 60 ms to an import

    sizes = np.array([len(t) for t in ts])
    if np.any(sizes < 4):
        raise ValueError(f"need >= 4 points for cubic interpolation, got {sizes[sizes < 4][0]}")
    if not 0 < fs_target < np.inf:  # NaN fails it too
        raise ValueError("fs_target must be positive and finite")
    ends = np.cumsum(sizes) - 1  # each series' last knot
    starts = ends - sizes + 1
    T = np.concatenate(ts)
    dx = np.diff(T)
    # the spacing between two series only enters rows and intervals that are
    # discarded; 1 keeps them finite where series abut or overlap
    dx[ends[:-1]] = 1.0
    if np.any(dx <= 0):
        raise ValueError("non-monotone timestamps")
    if not (np.all(np.isfinite(T)) and np.all(np.isfinite(V))):
        raise ValueError("timestamps and values must be finite")
    # large temporaries are few and reused: each fresh one costs page faults
    slope = np.subtract(V[:, 1:], V[:, :-1])
    slope /= dx

    # CubicSpline's natural system, row r: dx[r] s[r-1] + 2 (dx[r-1] + dx[r]) s[r]
    # + dx[r-1] s[r+1] = 3 (dx[r] slope[r-1] + dx[r-1] slope[r]); end rows
    # 2 dx s[0] + dx s[1] = 3 (v[1] - v[0]) and its mirror
    d = np.empty(len(T))
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    d[starts] = 2 * dx[starts]
    d[ends] = 2 * dx[ends - 1]
    du = np.empty(len(T) - 1)
    du[1:] = dx[:-1]
    du[starts] = dx[starts]
    du[ends[:-1]] = 0.0
    dl = np.empty(len(T) - 1)
    dl[:-1] = dx[1:]
    dl[ends - 1] = dx[ends - 1]
    dl[starts[1:] - 1] = 0.0
    B = np.empty_like(V)
    work = np.empty_like(slope)  # scratch: a product, then 2 slope, then c0
    inner = B[:, 1:-1]
    np.multiply(dx[1:], slope[:, :-1], out=inner)
    inner += np.multiply(dx[:-1], slope[:, 1:], out=work[:, 1:])
    inner *= 3
    B[:, starts] = 3 * (V[:, starts + 1] - V[:, starts])
    # scipy adds the end condition's zero term, 0.5 * 0 * dx**2, here
    B[:, ends] = 3 * (V[:, ends] - V[:, ends - 1]) + 0.0
    *_, x, info = dgtsv(dl, d, du, B.T, 1, 1, 1, 1)
    if info != 0:
        raise ValueError("singular spline system")
    S = x.T

    # CubicHermiteSpline's coefficients of each interval, highest power first:
    # q = (s0 + s1 - 2 slope) / dx, c0 = q / dx, c1 = (slope - s0) / dx - q
    q = np.add(S[:, :-1], S[:, 1:])
    q -= np.multiply(slope, 2, out=work)
    q /= dx
    c0 = np.divide(q, dx, out=work)
    c1 = np.subtract(slope, S[:, :-1], out=slope)
    c1 /= dx
    c1 -= q
    c2 = S[:, :-1]
    c3 = V[:, :-1]

    # PPoly's evaluation: the interval holding each grid point (the last
    # interval for the last knot), then ((c3 + c2 s) + c1 s^2) + c0 s^3 in
    # that order, with 0.0 + c3 as PPoly starts its sum
    n_outs = [int(np.floor((t[-1] - t[0]) * fs_target + 1e-9)) + 1 for t in ts]
    first = np.cumsum(n_outs) - n_outs  # each grid's first point
    local = np.arange(sum(n_outs)) - np.repeat(first, n_outs)
    grid = np.repeat(T[starts], n_outs) + local / fs_target
    idx = np.empty(len(grid), dtype=np.intp)
    for t, a, n in zip(ts, first, n_outs):
        idx[a:a + n] = np.searchsorted(t, grid[a:a + n], "right")
    idx = np.minimum(idx + np.repeat(starts - 1, n_outs), np.repeat(ends - 1, n_outs))
    s = grid - T[idx]
    s2 = s * s
    values = np.take(c3, idx, axis=1)
    values += 0.0
    term = np.take(c2, idx, axis=1)
    term *= s
    values += term
    np.take(c1, idx, axis=1, out=term)
    term *= s2
    values += term
    np.take(c0, idx, axis=1, out=term)
    term *= s2 * s
    values += term
    return values, n_outs


def interpolate_uniform(timestamps, values, fs_target: float) -> np.ndarray:
    """Resample a series to a uniform rate with a natural cubic spline.

    ``values`` is one series of shape (n,) or c series as the columns of an
    (n, c) matrix; the result has the same layout, one row per grid point.
    Each column gets bit for bit what a separate fit of that column gives.
    The output grid is t0, t0 + 1/fs, ... up to (and not past) the last input
    timestamp. The spline passes through every input knot.
    """
    t = np.asarray(timestamps, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or v.ndim not in (1, 2) or v.shape[0] != t.shape[0]:
        raise ValueError(
            "timestamps must be 1-d and values (n,) or (n, c) with one row per timestamp")
    out, _ = _natural_splines([t], np.ascontiguousarray(v.reshape(len(t), -1).T), fs_target)
    return out[0] if v.ndim == 1 else np.ascontiguousarray(out.T)


def build_streams(samples, fs_target: float = DEFAULT_FS) -> list[np.ndarray]:
    """Resample a block of captures with one tridiagonal solve: each
    capture's four streams as the rows of a C-contiguous (4, n) matrix in
    STREAM_KEYS order, one matrix per capture.

    The splines go through |a| and the three gyro axes at every knot.
    Interpolating the magnitude can undershoot zero between knots, so the
    resampled A_MAG row is clamped at 0.
    """
    samples = list(samples)
    if not samples:
        return []
    V = np.empty((len(STREAM_KEYS), sum(len(s.timestamps) for s in samples)))
    V[0] = magnitude(np.concatenate([s.accel for s in samples]))
    V[1:] = np.concatenate([s.gyro for s in samples]).T
    values, n_outs = _natural_splines([s.timestamps for s in samples], V, fs_target)
    np.maximum(values[0], 0.0, out=values[0])
    return [np.ascontiguousarray(m) for m in np.split(values, np.cumsum(n_outs)[:-1], axis=1)]
