"""Classifiers and evaluation: k-NN, bagged CART forest, one-vs-rest scoring,
and the repeated random-split protocol.

Scoring counts TP/FP/FN one-vs-rest per class. Precision and recall with a
zero denominator are 0; the averaged F-score is the harmonic mean of the
averaged precision and averaged recall (not the mean of per-class F).
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.special import stdtrit

from .metric import cross_distances, standardizer, train_ldml, transform

log = logging.getLogger(__name__)

# A group of trees grown together keeps its node arrays and one step's
# scoring temporaries at or below about this many entries (4M, as in
# metric.cross_distances).
_FOREST_ENTRIES = 1 << 22


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
        return asdict(self)


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


def _best_cuts(X, rank, n_ranks, y_idx, n_classes, node_rows, feats):
    """Best cut of every node of one step, all scored together.

    Node b holds rows ``node_rows[b]`` of ``X`` (a bootstrap multiset) and
    draws features ``feats[b]``. Each (node, drawn feature) pair is one
    segment of flat arrays, segments in (node, draw) order, each in value
    order: one sort of (segment, value rank, row) keys, where ``rank`` maps
    equal values of ``X`` to one of ``n_ranks`` ranks in value order. Cuts
    fall only between distinct consecutive values, at their midpoint (at
    the lower value when the midpoint rounds onto the upper one), so the
    order of equal values changes nothing and both sides keep rows.

    A cut that leaves class counts L_c of the node's totals T_c on the left
    decreases Gini by a constant plus (SL/nl + SR/nr)/n, with SL = sum L_c^2
    and SR = sum (T_c - L_c)^2 = sum T_c^2 - 2 sum T_c L_c + SL. Scanning a
    segment, a row whose class already appeared k times adds 2k + 1 to SL and
    T_c to sum T_c L_c; k is the row's place in one sort by (segment, class,
    position). Counts stay int64 and the score is one correctly rounded
    division of SL nr + SR nl by nl nr, so equal decreases give equal floats
    (distinct ones stay distinct below about 2 000 rows) and the first drawn
    feature, then the first cut, wins an exact tie.

    Returns the split nodes' indices into the step and, per split node, its
    feature, threshold, size and left count, its rows with the left part
    first (all split nodes' rows in one array), and each child's label if
    the child is pure, -1 if not.
    """
    n, d = X.shape
    B, m = feats.shape
    sizes = np.array([len(r) for r in node_rows])
    seg_len = np.repeat(sizes, m)
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    seg = np.repeat(np.arange(B * m), seg_len)
    pos = np.arange(seg_end[-1]) - seg_start[seg]
    rows = np.concatenate(node_rows)[(np.cumsum(sizes) - sizes)[seg // m] + pos]
    f = feats.ravel()[seg]
    key = (seg * n_ranks + rank.ravel()[rows * d + f]) * n + rows
    key.sort()
    rows = key % n
    v = X.ravel()[rows * d + f]
    c = y_idx[rows]

    n_flat = len(seg)
    grouped = (seg * n_classes + c) * n_flat + np.arange(n_flat)
    grouped.sort()
    group_id = grouped // n_flat
    at = grouped - group_id * n_flat  # value-order position of each grouped place
    first = np.ones(n_flat, dtype=bool)
    first[1:] = group_id[1:] != group_id[:-1]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    k, total = np.empty_like(at), np.empty_like(at)
    k[at] = np.arange(n_flat) - starts[group]
    total[at] = np.diff(np.append(starts, n_flat))[group]
    sl = np.cumsum(2 * k + 1)
    tl = np.cumsum(total)
    sl -= np.append(0, sl)[seg_start][seg]
    tl -= np.append(0, tl)[seg_start][seg]
    sq_total = sl[seg_end - 1]  # sum T_c^2 per segment
    right_sq = lambda i: sq_total[seg[i]] - 2 * tl[i] + sl[i]  # SR after position i

    cand = np.flatnonzero((v[1:] > v[:-1]) & (seg[1:] == seg[:-1]))  # cut after cand
    nl = pos[cand] + 1
    nr = seg_len[seg[cand]] - nl
    score = (sl[cand] * nr + right_sq(cand) * nl) / (nl * nr)
    node = seg[cand] // m
    lead = np.flatnonzero(np.diff(node, prepend=-1))
    best = np.repeat(np.maximum.reduceat(score, lead), np.diff(np.append(lead, len(cand))))
    hit = np.flatnonzero(score == best)
    hit = hit[np.diff(node[hit], prepend=-1) != 0]  # first best per node
    p, won = cand[hit], node[hit]
    lo, hi = seg_start[seg[p]], seg_end[seg[p]]
    mid = 0.5 * (v[p] + v[p + 1])
    thr = np.where(mid < v[p + 1], mid, v[p])  # two adjacent doubles: cut at the lower
    n_left = p - lo + 1
    n_right = hi - p - 1
    split = np.zeros(B * m, dtype=bool)
    split[seg[p]] = True
    left_label = np.where(sl[p] == n_left * n_left, c[lo], -1)
    right_label = np.where(right_sq(p) == n_right * n_right, c[hi - 1], -1)
    return won, f[p], thr, hi - lo, n_left, rows[split[seg]], left_label, right_label


def _grow_trees(X, rank, n_ranks, y_idx, n_classes, max_feats, seed, trees, bootstrap):
    """Grow ``trees`` together; returns their flat node arrays and node counts.

    Each tree keeps its own ``default_rng([seed, t])`` and resample. Its
    nodes are numbered as they are made and expanded depth first, right
    child first, so each split search's feature draw comes off its tree's
    stream in a fixed order. A pure child is a leaf as soon as it is made;
    at every step each unfinished tree pops its next impure node, and those
    nodes are scored in one ``_best_cuts`` call. A node whose drawn features
    are all constant is a leaf with the majority label, the smallest class
    index on ties. Arrays are (trees, 2n): feature, threshold, left, right,
    label and depth per node; a leaf's children are itself.
    """
    n, d = X.shape
    G, width = len(trees), 2 * n
    rngs = [np.random.default_rng([seed, t]) for t in trees]
    boot = [rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs]
    feature = np.zeros((G, width), dtype=np.intp)
    threshold = np.zeros((G, width))
    left = np.zeros((G, width), dtype=np.intp)
    right = np.zeros((G, width), dtype=np.intp)
    label = np.full((G, width), -1, dtype=np.intp)
    depth = np.zeros((G, width), dtype=np.intp)
    count = np.ones(G, dtype=np.intp)
    stacks = [[] for _ in trees]
    for t, rows in enumerate(boot):
        if np.all(y_idx[rows] == y_idx[rows[0]]):
            label[t, 0] = y_idx[rows[0]]
        else:
            stacks[t].append((rows, 0))
    while True:
        busy = [t for t, stack in enumerate(stacks) if stack]
        if not busy:
            return feature, threshold, left, right, label, depth, count
        step = [stacks[t].pop() for t in busy]
        feats = np.array([rngs[t].choice(d, size=max_feats, replace=False) for t in busy])
        won, feat, thr, size, n_left, rows, left_label, right_label = _best_cuts(
            X, rank, n_ranks, y_idx, n_classes, [r for r, _ in step], feats)
        for b in np.setdiff1d(np.arange(len(step)), won):  # all drawn features constant
            rows_b, node = step[b]
            label[busy[b], node] = np.argmax(np.bincount(y_idx[rows_b], minlength=n_classes))
        t = np.array(busy)[won]
        node = np.array([node for _, node in step])[won]
        kid = count[t]
        count[t] += 2
        feature[t, node], threshold[t, node], left[t, node], right[t, node] = feat, thr, kid, kid + 1
        for j, lab in ((kid, left_label), (kid + 1, right_label)):
            left[t, j] = right[t, j] = j
            label[t, j] = lab
            depth[t, j] = depth[t, node] + 1
        start = np.cumsum(size) - size
        for w, (lo, cut, hi) in enumerate(zip(start, start + n_left, start + size)):
            if left_label[w] < 0:
                stacks[t[w]].append((rows[lo:cut].copy(), kid[w]))
            if right_label[w] < 0:
                stacks[t[w]].append((rows[cut:hi].copy(), kid[w] + 1))


def rf_train(train_X, train_y, n_trees: int = 100, seed: int = 0, bootstrap: bool = True) -> RandomForest:
    """Train a forest of CART trees, each on its own bootstrap resample.

    Per-tree RNG streams are keyed (seed, tree index) so training order,
    tree grouping and thread count cannot change the result.
    ``bootstrap=False`` is a test hook that trains every tree on the full
    sample. Trees grow together in groups sized by ``_FOREST_ENTRIES`` (see
    ``_grow_trees``). The forest is flat: one array each of feature,
    threshold, left child, right child and leaf label over the nodes of all
    trees, tree by tree, plus each tree's root index (see ``RandomForest``).
    """
    X = np.ascontiguousarray(train_X, dtype=float)
    classes, y_idx = np.unique(np.asarray(train_y), return_inverse=True)
    if len(classes) < 2:
        raise ValueError("need >= 2 classes")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n, d = X.shape
    max_feats = int(np.ceil(np.sqrt(d)))
    values, rank = np.unique(X, return_inverse=True)
    rank = rank.reshape(n, d)
    # per tree: about two dozen step arrays of up to max_feats * n entries, six node arrays of 2n
    group = max(1, _FOREST_ENTRIES // (n * (24 * max_feats + 12)))
    parts = [_grow_trees(X, rank, len(values), y_idx, len(classes), max_feats, seed,
                         range(t0, min(t0 + group, n_trees)), bootstrap)
             for t0 in range(0, n_trees, group)]
    feature, threshold, left, right, label, depth, count = (
        np.concatenate(col) for col in zip(*parts))
    roots = np.cumsum(count) - count
    keep = np.arange(feature.shape[1]) < count[:, None]
    left, right = left + roots[:, None], right + roots[:, None]
    feature, threshold, left, right, label = (a[keep] for a in (feature, threshold, left, right, label))
    log.debug("forest: %d tree(s), %d node(s), %d leaves, max depth %d",
              n_trees, len(label), int(np.count_nonzero(label >= 0)), int(depth.max()))
    return RandomForest(feature=feature, threshold=threshold, left=left, right=right,
                        label=label, roots=roots, n_features=d, classes=classes, seed=seed)


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
        """Every field but ``reports``, with the interval as a list."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "reports"}
        out["avg_f_ci"] = list(self.avg_f_ci)
        return out


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
    if train_per_device < 1:
        raise ValueError("train_per_device must be >= 1")
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
