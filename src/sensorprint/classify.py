"""Classifiers and evaluation: k-NN, bagged CART forest, one-vs-rest scoring,
and the repeated random-split protocol.

Scoring counts TP/FP/FN one-vs-rest per class. Precision and recall with a
zero denominator are 0; the averaged F-score is the harmonic mean of the
averaged precision and averaged recall (not the mean of per-class F).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtrit

from .metric import cross_distances, standardizer, train_ldml, transform


@dataclass
class ClassStats:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_score: float


@dataclass
class EvalReport:
    per_class: dict[str, ClassStats]
    avg_precision: float
    avg_recall: float
    avg_f: float
    accuracy: float
    n_test: int

    def to_dict(self) -> dict:
        return {
            "per_class": {
                c: {
                    "tp": s.tp, "fp": s.fp, "fn": s.fn,
                    "precision": s.precision, "recall": s.recall, "f_score": s.f_score,
                }
                for c, s in self.per_class.items()
            },
            "avg_precision": self.avg_precision,
            "avg_recall": self.avg_recall,
            "avg_f": self.avg_f,
            "accuracy": self.accuracy,
            "n_test": self.n_test,
        }


def evaluate(predictions, truth) -> EvalReport:
    """One-vs-rest confusion counts over the union of observed classes."""
    preds = np.asarray(predictions)
    y = np.asarray(truth)
    if preds.shape != y.shape or preds.ndim != 1:
        raise ValueError("predictions and truth must be equal-length 1-d")
    if len(y) == 0:
        raise ValueError("nothing to evaluate")
    classes = sorted(set(y) | set(preds))
    per_class = {}
    precisions, recalls = [], []
    for c in classes:
        tp = int(np.sum((preds == c) & (y == c)))
        fp = int(np.sum((preds == c) & (y != c)))
        fn = int(np.sum((preds != c) & (y == c)))
        pr = tp / (tp + fp) if tp + fp > 0 else 0.0
        re = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * pr * re / (pr + re) if pr + re > 0 else 0.0
        per_class[c] = ClassStats(tp, fp, fn, pr, re, f)
        precisions.append(pr)
        recalls.append(re)
    avg_pr = sum(precisions) / len(precisions)
    avg_re = sum(recalls) / len(recalls)
    avg_f = 2 * avg_pr * avg_re / (avg_pr + avg_re) if avg_pr + avg_re > 0 else 0.0
    return EvalReport(
        per_class=per_class,
        avg_precision=avg_pr,
        avg_recall=avg_re,
        avg_f=avg_f,
        accuracy=float(np.mean(preds == y)),
        n_test=len(y),
    )


def knn_predict(train_X, train_y, query, k: int = 1):
    """Majority label of the k nearest training vectors (Euclidean).

    Equal distances keep input order; vote ties go to the label with the
    smallest summed distance, then lexicographically. Accepts one query
    vector or a matrix of them.
    """
    X = np.asarray(train_X, dtype=float)
    y = np.asarray(train_y)
    if len(X) == 0:
        raise ValueError("empty training set")
    if k < 1 or k % 2 != 1:
        raise ValueError("k must be odd and >= 1")
    if k > len(X):
        raise ValueError(f"k={k} exceeds training size {len(X)}")
    q = np.asarray(query, dtype=float)
    dist = cross_distances(np.atleast_2d(q), X)
    out = []
    for row, nearest in zip(dist, np.argsort(dist, axis=1, kind="stable")[:, :k]):
        labs, inv = np.unique(y[nearest], return_inverse=True)
        votes, sums = np.bincount(inv), np.bincount(inv, weights=row[nearest])
        out.append(labs[np.lexsort((labs, sums, -votes))[0]])
    return out[0] if q.ndim == 1 else np.array(out)


# ---------------------------------------------------------------------------
# Random forest: bagged CART trees grown to purity, Gini split criterion.


@dataclass
class RandomForest:
    """All trees of a forest in one set of flat node arrays.

    Node i is a leaf voting ``classes[label[i]]`` when ``label[i] >= 0``;
    otherwise it sends a query to ``left[i]`` when
    ``query[feature[i]] <= threshold[i]`` and to ``right[i]`` if not. A
    leaf's children are itself. Tree t starts at node ``roots[t]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    roots: np.ndarray
    n_features: int
    classes: np.ndarray
    seed: int


def _best_cut(X, presorted, member, onehot, y_idx, idx, feats):
    """Best (feature, threshold) for the node holding rows ``idx``, or None.

    Every candidate feature is scored in one pass. Each one's node rows come
    in value order from filtering its presorted column by node membership;
    equal values keep row order, as a stable sort of the node would. Cuts
    fall only between distinct consecutive values, at their midpoint. The
    Gini decrease at every cut is one flat array in (feature, cut) order,
    so argmax keeps the first drawn feature, then the first cut, on ties.
    """
    n, m = len(idx), len(feats)
    member[idx] = True
    rows = presorted[feats]
    rows = rows[member[rows]].reshape(m, n)
    member[idx] = False
    vs = X[rows, feats[:, None]]
    fi, cut = np.nonzero(vs[:, 1:] > vs[:, :-1])  # left part = sorted[:cut + 1]
    if len(cut) == 0:  # all candidate features constant here
        return None
    cum = np.cumsum(onehot[y_idx[rows]], axis=1)
    left, total = cum[fi, cut], cum[0, -1]
    parent = 1.0 - ((total / n) ** 2).sum()
    nl = (cut + 1).astype(float)
    nr = n - nl
    pl = left / nl.reshape(-1, 1)
    pr = (total - left) / nr.reshape(-1, 1)
    gl = 1.0 - (pl * pl).sum(axis=1)
    gr = 1.0 - (pr * pr).sum(axis=1)
    decrease = parent - (nl * gl + nr * gr) / n
    w = int(decrease.argmax())
    f, c = fi[w], cut[w]
    return int(feats[f]), float(0.5 * (vs[f, c] + vs[f, c + 1]))


def _grow_tree(X, y_idx, n_classes, max_feats, rng, nodes) -> None:
    """Append one tree to ``nodes``, rows of [feature, threshold, left, right, label].

    Nodes are numbered as they are made and expanded depth first, right
    child first, so each node's feature draw comes off ``rng`` in a fixed
    order. Leaves take the majority label, the smallest class index on ties.
    """
    n, d = X.shape
    presorted = np.argsort(X, axis=0, kind="stable").T.copy()  # (d, n): rows in value order
    member = np.zeros(n, dtype=bool)
    onehot = np.eye(n_classes)
    stack = [(np.arange(n), len(nodes))]
    nodes.append([0, 0.0, 0, 0, -1])
    while stack:
        idx, node = stack.pop()
        sub_y = y_idx[idx]
        split = None
        if len(idx) >= 2 and not np.all(sub_y == sub_y[0]):
            feats = rng.choice(d, size=max_feats, replace=False)
            split = _best_cut(X, presorted, member, onehot, y_idx, idx, feats)
        if split is None:
            majority = int(np.argmax(np.bincount(sub_y, minlength=n_classes)))
            nodes[node][2:] = [node, node, majority]
            continue
        f, thr = split
        mask = X[idx, f] <= thr
        kids = len(nodes), len(nodes) + 1
        nodes[node][:4] = [f, thr, *kids]
        nodes += [[0, 0.0, 0, 0, -1], [0, 0.0, 0, 0, -1]]
        stack.append((idx[mask], kids[0]))
        stack.append((idx[~mask], kids[1]))


def rf_train(train_X, train_y, n_trees: int = 100, seed: int = 0, bootstrap: bool = True) -> RandomForest:
    """Train a forest of CART trees, each on its own bootstrap resample.

    Per-tree RNG streams are keyed (seed, tree index) so training order and
    thread count cannot change the result. ``bootstrap=False`` is a test hook
    that trains every tree on the full sample. Each tree is grown from one
    stable argsort of its resample's columns. The forest is flat: one array
    each of feature, threshold, left child, right child and leaf label over
    the nodes of all trees, tree by tree, plus each tree's root index (see
    ``RandomForest``).
    """
    X = np.asarray(train_X, dtype=float)
    classes, y_idx = np.unique(np.asarray(train_y), return_inverse=True)
    if len(classes) < 2:
        raise ValueError("need >= 2 classes")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n, d = X.shape
    max_feats = int(np.ceil(np.sqrt(d)))
    nodes, roots = [], []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        roots.append(len(nodes))
        _grow_tree(X[idx], y_idx[idx], len(classes), max_feats, rng, nodes)
    feature, threshold, left, right, label = (np.array(col) for col in zip(*nodes))
    return RandomForest(feature=feature, threshold=threshold, left=left, right=right,
                        label=label, roots=np.array(roots, dtype=np.intp), n_features=d,
                        classes=classes, seed=seed)


def rf_predict(model: RandomForest, query):
    """Majority vote across trees; ties break lexicographically.

    Accepts one query vector or a matrix of them. All queries descend all
    trees together, one level per step.
    """
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    if q.shape[1] != model.n_features:
        raise ValueError(f"dimension mismatch: model expects {model.n_features}")
    node = np.repeat(model.roots[None, :], len(q), axis=0)
    rows = np.arange(len(q))[:, None]
    while np.any(model.label[node] < 0):
        go_left = q[rows, model.feature[node]] <= model.threshold[node]
        node = np.where(go_left, model.left[node], model.right[node])
    n_classes = len(model.classes)
    votes = np.bincount((rows * n_classes + model.label[node]).ravel(),
                        minlength=len(q) * n_classes).reshape(len(q), n_classes)
    out = model.classes[np.argmax(votes, axis=1)]  # first max: classes are sorted
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Repeated random-split protocol.


@dataclass
class ProtocolResult:
    classifier: str
    train_per_device: int
    repeats: int
    n_devices: int
    avg_f_mean: float
    avg_f_ci: tuple[float, float]
    accuracy_mean: float
    reports: list[EvalReport] = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        return {
            "classifier": self.classifier,
            "train_per_device": self.train_per_device,
            "repeats": self.repeats,
            "n_devices": self.n_devices,
            "avg_f_mean": self.avg_f_mean,
            "avg_f_ci": list(self.avg_f_ci),
            "accuracy_mean": self.accuracy_mean,
        }


def _confidence_interval(values, level: float = 0.95) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    m = float(np.mean(v))
    if len(v) < 2:
        return (m, m)
    half = float(stdtrit(len(v) - 1, 0.5 + level / 2) * v.std(ddof=1) / np.sqrt(len(v)))
    return (m - half, m + half)


def run_protocol(
    dataset,
    classifier: str = "knn",
    train_per_device: int = 3,
    repeats: int = 10,
    seed: int = 0,
    k: int = 1,
    use_ldml: bool = False,
    ldml_iterations: int = 200,
    ldml_step: float = 1e-3,
    d_prime: int | None = None,
    n_trees: int = 100,
    fs_target: float = 100.0,
) -> ProtocolResult:
    """Repeated random split per device, mean AvgF with a 95% t-interval.

    ``dataset`` is a ``FeatureTable``, or a ``Dataset`` featurized once at
    ``fs_target``. Devices need train_per_device + 1 samples (at least one
    held-out test sample); the rest are dropped. Standardization or the
    learned metric is fit on each repeat's training half only.
    """
    from .features import FeatureTable, featurize_dataset

    if classifier not in ("knn", "rf"):
        raise ValueError("classifier must be 'knn' or 'rf'")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if not isinstance(dataset, FeatureTable):
        dataset = featurize_dataset(dataset, fs_target)
    table = dataset.eligible(train_per_device + 1)
    dev_rows = table.device_rows()
    if not dev_rows:
        raise ValueError("no eligible devices")
    X, y = table.X, table.device_ids

    reports = []
    for r in range(repeats):
        rng = np.random.default_rng([seed, r])
        train_idx, test_idx = [], []
        for idxs in dev_rows.values():
            perm = rng.permutation(len(idxs))
            train_idx.extend(idxs[perm[:train_per_device]])
            test_idx.extend(idxs[perm[train_per_device:]])
        train_idx = np.asarray(train_idx)
        test_idx = np.asarray(test_idx)
        if use_ldml:
            model = train_ldml(X[train_idx], y[train_idx], d_prime=d_prime,
                               iterations=ldml_iterations, step=ldml_step, seed=[seed, r])
        else:
            model = standardizer(X[train_idx])
        Ztr = transform(model, X[train_idx])
        Zte = transform(model, X[test_idx])
        if classifier == "knn":
            preds = knn_predict(Ztr, y[train_idx], Zte, k=k)
        else:
            forest = rf_train(Ztr, y[train_idx], n_trees=n_trees, seed=seed * 100003 + r)
            preds = rf_predict(forest, Zte)
        reports.append(evaluate(preds, y[test_idx]))

    avg_fs = [rep.avg_f for rep in reports]
    return ProtocolResult(
        classifier=classifier + ("+ldml" if use_ldml else ""),
        train_per_device=train_per_device,
        repeats=repeats,
        n_devices=len(dev_rows),
        avg_f_mean=float(np.mean(avg_fs)),
        avg_f_ci=_confidence_interval(avg_fs),
        accuracy_mean=float(np.mean([rep.accuracy for rep in reports])),
        reports=reports,
    )
