"""The space feature rows are compared in: a ``MetricModel`` that ``transform``
applies, either plain standardization (``standardizer``, L = I) or a learned
Mahalanobis metric (``train_ldml``); and ``cross_distances``, the one
Euclidean kernel between rows.

The metric is learned by logistic discriminant metric learning: same-device
pairs should score small distances, cross-device pairs large ones, with
p_ij = sigmoid(b - d_M(x_i, x_j)) treated as the probability the pair shares
a device. d_M is the squared Euclidean distance after the linear map L, so
M = L^T L is positive semidefinite by construction and gradient steps on L
need no projection.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

MAX_HALVINGS = 60

log = logging.getLogger(__name__)


@dataclass
class MetricModel:
    means: np.ndarray
    stds: np.ndarray
    L: np.ndarray
    bias: float

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.stds = np.asarray(self.stds, dtype=float)
        self.L = np.asarray(self.L, dtype=float)
        if self.L.ndim != 2:
            raise ValueError("L must be a 2-d matrix")
        d = self.L.shape[1]
        if self.means.shape != (d,) or self.stds.shape != (d,):
            raise ValueError(f"means and stds must each hold {d} values, one per column of L; "
                             f"got shapes {self.means.shape} and {self.stds.shape}")
        if not np.all((self.stds > 0) & (self.stds < np.inf)):  # NaN fails it too
            raise ValueError("stds must be positive and finite")
        if not (np.all(np.isfinite(self.means)) and np.isfinite(self.bias)):
            raise ValueError("means and bias must be finite")
        if not np.all(np.isfinite(self.L)):
            raise ValueError("L must be finite")
        if self.L.shape[0] > d:
            raise ValueError("projection dimension exceeds input dimension")


def _as_matrix(features, labels) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("features and labels must align")
    return X, y


def rows_by_device(device_ids) -> dict[str, np.ndarray]:
    """Device -> the indices of its rows; devices in first-seen order."""
    rows: dict[str, list[int]] = {}
    for i, dev in enumerate(np.asarray(device_ids, dtype=str).tolist()):
        rows.setdefault(dev, []).append(i)
    return {dev: np.array(idx) for dev, idx in rows.items()}


def standardize_fit(features) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and population std; zero stds become 1 so constant
    dimensions pass through frozen instead of dividing by zero. A column
    whose mean or std overflows the float range is a ValueError naming it."""
    X = np.asarray(features, dtype=float)
    if len(X) < 2:
        raise ValueError("need >= 2 vectors to standardize")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        means = X.mean(axis=0)
        stds = X.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds)))
    if len(bad):
        raise ValueError(f"feature columns {bad.tolist()} have a mean or std "
                         "beyond the float range")
    stds[stds == 0] = 1.0
    return means, stds


def standardizer(features) -> MetricModel:
    """The standardized space as a model: ``standardize_fit``'s means and
    stds and L = I, the untrained metric ``train_ldml`` starts from."""
    means, stds = standardize_fit(features)
    return MetricModel(means=means, stds=stds, L=np.eye(len(means)), bias=0.0)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # fixed-order matmul: result bits do not depend on BLAS thread count
    return np.einsum("ij,jk->ik", a, b)


def transform(model: MetricModel, v):
    """Map features into the model's space: L @ ((v - means) / stds).

    Accepts a (d,) vector or an (n, d) matrix.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != model.L.shape[1]:
        raise ValueError(
            f"dimension mismatch: model expects {model.L.shape[1]}, got {v.shape[-1]}"
        )
    z = np.atleast_2d((v - model.means) / model.stds)
    if np.array_equal(model.L, np.eye(len(model.means))):
        # what the matmul gives for L = I, bit for bit: its sums start at +0,
        # so a -0 coordinate comes out +0
        out = z + 0.0
    else:
        out = _mm(z, model.L.T)
    return out[0] if v.ndim == 1 else out


def cross_distances(A, B) -> np.ndarray:
    """(len(A), len(B)) Euclidean distances between the rows of ``A`` and ``B``,
    in row blocks of ``A`` whose (rows, len(B), d) temporaries hold <= 4M floats."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    out = np.empty((len(A), len(B)))
    step = max(1, (1 << 22) // max(1, B.size))
    for start in range(0, len(A), step):
        diff = B - A[start:start + step, None, :]
        diff *= diff
        out[start:start + step] = np.sqrt(diff.sum(axis=2))
    return out


def _build_pairs(y: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All same-device pairs plus an equal-size subsample of cross pairs."""
    i, j = np.triu_indices(len(y), k=1)
    same = y[i] == y[j]
    si, sj = i[same], j[same]
    di, dj = i[~same], j[~same]
    n_same = len(si)
    if n_same == 0:
        raise ValueError("no same-device pairs: need >= 2 devices with >= 2 samples")
    if len(di) > n_same:
        pick = rng.choice(len(di), size=n_same, replace=False)
        pick.sort()
        di, dj = di[pick], dj[pick]
    pi = np.concatenate([si, di])
    pj = np.concatenate([sj, dj])
    is_same = np.zeros(len(pi), dtype=bool)
    is_same[:n_same] = True
    return pi, pj, is_same


def _log_likelihood(dist, b, is_same):
    t = b - dist
    # log sigmoid(t) = -log(1+e^-t); log(1-sigmoid(t)) = -log(1+e^t)
    return -(np.logaddexp(0, -t[is_same]).sum() + np.logaddexp(0, t[~is_same]).sum())


def train_ldml(
    features,
    labels,
    d_prime: int | None = None,
    iterations: int = 200,
    step: float = 1e-3,
    seed: int = 0,
    return_history: bool = False,
):
    """Learn a MetricModel by gradient ascent on the pairwise log-likelihood.

    The rows are grouped by device first (devices in first-seen order, each
    device's rows in input order), so interleaving the input leaves the model
    unchanged; permuting the rows within a device still moves the pair draw.
    Standardization is fit internally on the given vectors. Each iteration
    takes one ascent step on (L, b) with step halving until the objective
    does not decrease; training stops early once no halved step helps.

    The ascent runs in sample space. The gradient in L is -2 L Z^T Lap(c) Z
    for the graph Laplacian Lap(c) of the pair weights c, so its rows lie in
    the span of Z's rows and L = L0 + C^T Z for an (n, d') matrix C. A step
    moves the mapped pair differences dY by t (K grad_C)[i] - t (K grad_C)[j]
    with the Gram matrix K = Z Z^T, so each squared distance is a quadratic
    in t and a halving costs O(pairs); no product runs over the pairs. Every
    product is the fixed-order ``_mm``.
    """
    if iterations < 0 or not 0 < step < np.inf:
        raise ValueError("need iterations >= 0 and a finite step > 0")
    X, y = _as_matrix(features, labels)
    _, counts = np.unique(y, return_counts=True)
    if np.count_nonzero(counts >= 2) < 2:
        raise ValueError("need >= 2 devices with >= 2 samples each")
    # rows grouped by device, devices in first-seen order: the standardization
    # sums and the pair draw see one order however the rows were interleaved
    rows = np.concatenate(list(rows_by_device(y).values()))
    X, y = X[rows], y[rows]
    means, stds = standardize_fit(X)
    Z = (X - means) / stds
    n, d = Z.shape
    if d_prime is None:
        d_prime = d
    if not (1 <= d_prime <= d):
        raise ValueError(f"d_prime must be in [1, {d}]")

    rng = np.random.default_rng(seed)
    pi, pj, is_same = _build_pairs(y, rng)
    target = is_same.astype(float)
    # flat (row, column) cells of C that each pair's +/- gradient term lands on
    cells = (np.concatenate([pi, pj])[:, None] * d_prime + np.arange(d_prime)).ravel()
    K = _mm(Z, Z.T)

    L0 = np.eye(d)[:d_prime]
    C = np.zeros((n, d_prime))
    dY = Z[pi, :d_prime] - Z[pj, :d_prime]  # pair differences under L0
    dist = np.einsum("ij,ij->i", dY, dY)
    b = float(np.median(dist))

    def gradient(dY, dist, b):
        # grad_C = -2 Lap(c) Y, scattered from the pairs; G = K grad_C; grad_b
        c = target - expit(b - dist)
        w = c[:, None] * dY
        grad_C = -2.0 * np.bincount(
            cells, weights=np.concatenate([w, -w]).ravel(), minlength=n * d_prime,
        ).reshape(n, d_prime)
        return grad_C, _mm(K, grad_C), c.sum()

    obj = _log_likelihood(dist, b, is_same)
    history = [obj]
    halvings = 0
    grad_C, G, grad_b = gradient(dY, dist, b)
    for it in range(iterations):
        if not (np.all(np.isfinite(G)) and np.isfinite(grad_b)):
            raise RuntimeError(f"non-finite gradient at iteration {it}")
        dG = G[pi] - G[pj]
        a1 = 2.0 * np.einsum("ij,ij->i", dY, dG)
        a2 = np.einsum("ij,ij->i", dG, dG)
        trial = step
        for _ in range(MAX_HALVINGS):
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite objective is refused
                b_new = b + trial * grad_b
                obj_new = _log_likelihood(dist + trial * (a1 + trial * a2), b_new, is_same)
            if not np.isfinite(obj_new):
                raise RuntimeError(f"non-finite objective at iteration {it}")
            if obj_new >= obj:
                break
            trial /= 2.0
            halvings += 1
        else:
            break  # no step length improves: converged
        C += trial * grad_C
        dY += trial * dG
        dist = np.einsum("ij,ij->i", dY, dY)
        b, obj, step = b_new, obj_new, trial
        history.append(obj)
        grad_C, G, grad_b = gradient(dY, dist, b)
    # squared gradient norm: ||grad_L||_F^2 = <grad_C, K grad_C>, plus grad_b^2
    grad_norm = np.sqrt(max(0.0, float(np.sum(grad_C * G))) + grad_b**2)
    log.debug("ldml: %d accepted step(s), %d halving(s), stopped early: %s, "
              "objective %.6g, gradient norm %.3g",
              len(history) - 1, halvings, len(history) <= iterations, obj, grad_norm)

    model = MetricModel(means=means, stds=stds, L=L0 + _mm(C.T, Z), bias=b)
    if return_history:
        return model, history
    return model


def save_metric_model(model: MetricModel, path) -> None:
    payload = {
        "means": model.means.tolist(),
        "stds": model.stds.tolist(),
        "L": model.L.tolist(),
        "bias": model.bias,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")  # C encoder; json.dump runs the Python one


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
    """``values`` if no element of it, nor of a list inside it, is a JSON
    string or boolean; else a TypeError. MetricModel checks the shapes."""
    for v in values if isinstance(values, list) else ():
        for x in v if isinstance(v, list) else (v,):
            if isinstance(x, (str, bool)):
                _json_number(x, what)
    return values


def load_metric_model(path) -> MetricModel:
    """Read a save_metric_model file; a missing or ill-typed key is a ValueError.
    Keys other than ``means``, ``stds``, ``L`` and ``bias`` are ignored."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return MetricModel(
            means=_json_numbers(payload["means"], "means"),
            stds=_json_numbers(payload["stds"], "stds"),
            L=_json_numbers(payload["L"], "L"),
            bias=float(_json_number(payload["bias"], "bias")),
        )
    except (KeyError, TypeError, OverflowError) as e:
        raise ValueError(f"malformed metric model: {e!r}") from None
