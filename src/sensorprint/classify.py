"""Classifiers and evaluation: k-NN, bagged CART forest, one-vs-rest scoring,
and the repeated random-split protocol.

Scoring counts TP/FP/FN one-vs-rest per class. Precision and recall with a
zero denominator are 0; the averaged F-score is the harmonic mean of the
averaged precision and averaged recall (not the mean of per-class F).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _stats

from .metric import standardize_fit, train_ldml, transform


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
    if k % 2 != 1:
        raise ValueError("k must be odd")
    if k > len(X):
        raise ValueError(f"k={k} exceeds training size {len(X)}")
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    Q = np.atleast_2d(q)
    out = []
    step = max(1, (1 << 22) // X.size)  # queries per block: <= 4M floats of differences
    for start in range(0, len(Q), step):
        dist = np.sqrt(np.sum((X - Q[start:start + step, None, :]) ** 2, axis=2))
        for row, nearest in zip(dist, np.argsort(dist, axis=1, kind="stable")[:, :k]):
            labs, inv = np.unique(y[nearest], return_inverse=True)
            votes, sums = np.bincount(inv), np.bincount(inv, weights=row[nearest])
            out.append(labs[np.lexsort((labs, sums, -votes))[0]])
    return out[0] if single else np.array(out)


# ---------------------------------------------------------------------------
# Random forest: bagged CART trees grown to purity, Gini split criterion.


@dataclass
class RandomForest:
    trees: list
    n_features: int
    classes: np.ndarray
    seed: int


def _gini_from_counts(counts: np.ndarray, n) -> np.ndarray:
    p = counts / np.asarray(n, dtype=float).reshape(-1, 1)
    return 1.0 - np.sum(p * p, axis=1)


def _best_split(X, y_idx, n_classes, feats):
    """Best (feature, threshold, decrease) over the candidate features.

    Thresholds are midpoints between consecutive distinct sorted values.
    First candidate wins ties, so the result is deterministic for a given
    feature draw order.
    """
    n = len(y_idx)
    total = np.bincount(y_idx, minlength=n_classes).astype(float)
    parent = 1.0 - np.sum((total / n) ** 2)
    best = None
    for f in feats:
        v = X[:, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y_idx[order]
        cuts = np.nonzero(np.diff(vs) > 0)[0]  # left part = sorted[:cut+1]
        if len(cuts) == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left = cum[cuts]
        nl = (cuts + 1).astype(float)
        nr = n - nl
        gl = _gini_from_counts(left, nl)
        gr = _gini_from_counts(total - left, nr)
        decrease = parent - (nl * gl + nr * gr) / n
        i = int(np.argmax(decrease))
        if best is None or decrease[i] > best[2]:
            thr = 0.5 * (vs[cuts[i]] + vs[cuts[i] + 1])
            best = (f, thr, float(decrease[i]))
    return best


def _majority(y_idx, classes) -> str:
    counts = np.bincount(y_idx, minlength=len(classes))
    return classes[int(np.argmax(counts))]  # argmax takes first max: lexicographic


def _grow_tree(X, y_idx, classes, max_feats, rng):
    root = {}
    stack = [(np.arange(len(y_idx)), root)]
    while stack:
        idx, node = stack.pop()
        sub_y = y_idx[idx]
        if len(idx) < 2 or np.all(sub_y == sub_y[0]):
            node["label"] = _majority(sub_y, classes)
            continue
        feats = rng.choice(X.shape[1], size=max_feats, replace=False)
        split = _best_split(X[idx], sub_y, len(classes), feats)
        if split is None:  # all candidate features constant here
            node["label"] = _majority(sub_y, classes)
            continue
        f, thr, _ = split
        mask = X[idx, f] <= thr
        left, right = {}, {}
        node["feature"] = int(f)
        node["threshold"] = float(thr)
        node["left"] = left
        node["right"] = right
        stack.append((idx[mask], left))
        stack.append((idx[~mask], right))
    return root


def rf_train(train_X, train_y, n_trees: int = 100, seed: int = 0, bootstrap: bool = True) -> RandomForest:
    """Train a forest of CART trees, each on its own bootstrap resample.

    Per-tree RNG streams are keyed (seed, tree index) so training order and
    thread count cannot change the result. ``bootstrap=False`` is a test hook
    that trains every tree on the full sample.
    """
    X = np.asarray(train_X, dtype=float)
    y = np.asarray(train_y)
    classes = np.array(sorted(set(y)))
    if len(classes) < 2:
        raise ValueError("need >= 2 classes")
    class_index = {c: i for i, c in enumerate(classes)}
    y_idx = np.array([class_index[c] for c in y])
    n, d = X.shape
    max_feats = int(np.ceil(np.sqrt(d)))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(_grow_tree(X[idx], y_idx[idx], classes, max_feats, rng))
    return RandomForest(trees=trees, n_features=d, classes=classes, seed=seed)


def _tree_predict(node, q) -> str:
    while "label" not in node:
        node = node["left"] if q[node["feature"]] <= node["threshold"] else node["right"]
    return node["label"]


def rf_predict(model: RandomForest, query):
    """Majority vote across trees; ties break lexicographically.

    Accepts one query vector or a matrix of them.
    """
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    if q.shape[1] != model.n_features:
        raise ValueError(f"dimension mismatch: model expects {model.n_features}")
    out = []
    for row in q:
        votes: dict[str, int] = {}
        for tree in model.trees:
            lab = _tree_predict(tree, row)
            votes[lab] = votes.get(lab, 0) + 1
        best = max(votes.values())
        out.append(min(lab for lab, v in votes.items() if v == best))
    return out[0] if single else np.array(out)


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
    half = float(_stats.t.ppf(0.5 + level / 2, len(v) - 1) * v.std(ddof=1) / np.sqrt(len(v)))
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

    Devices need train_per_device + 1 samples to participate (at least one
    held-out test sample); the rest are dropped. Features are extracted once;
    standardization and the optional learned metric are fit on each repeat's
    training half only.
    """
    from .features import featurize_dataset

    if classifier not in ("knn", "rf"):
        raise ValueError("classifier must be 'knn' or 'rf'")
    return _protocol_on_table(
        featurize_dataset(dataset, fs_target), classifier, train_per_device, repeats, seed, k,
        use_ldml, ldml_iterations, ldml_step, d_prime, n_trees)


def _protocol_on_table(table, classifier, train_per_device, repeats, seed, k=1, use_ldml=False,
                       ldml_iterations=200, ldml_step=1e-3, d_prime=None, n_trees=100):
    """run_protocol on an already featurized dataset (a FeatureTable)."""
    table = table.eligible(train_per_device + 1)
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
            model = train_ldml(
                X[train_idx], y[train_idx],
                d_prime=d_prime, iterations=ldml_iterations,
                step=ldml_step, seed=[seed, r],
            )
            Ztr = transform(model, X[train_idx])
            Zte = transform(model, X[test_idx])
        else:
            means, stds = standardize_fit(X[train_idx])
            Ztr = (X[train_idx] - means) / stds
            Zte = (X[test_idx] - means) / stds
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
