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

from .features import FeatureTable, featurize_dataset
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


# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio increment g
# and the output mix, elementwise on uint64 with wrapping arithmetic
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash(key, *counters):
    """mix(...mix(key + c1 g)... + ck g) of broadcast counters, mix and g as above."""
    with np.errstate(over="ignore"):
        for c in counters:
            key = _splitmix64(key + np.asarray(c, dtype=np.uint64) * _GOLDEN)
    return key


def _draw_features(key, trees, nodes, d, m):
    """The m features node ``nodes[b]`` of tree ``trees[b]`` draws, first drawn first.

    Feature f of (tree t, node i) hashes to ``_hash(key, t, i, f)``; a node
    takes the m features of smallest hash, in ascending hash order. A draw
    depends on nothing but (key, t, i), so neither the order nodes are grown
    in nor how trees are grouped can move it (counter-based draws: Salmon et
    al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
    """
    h = _hash(key, trees[:, None], nodes[:, None], np.arange(d))
    return np.argsort(h, axis=1)[:, :m]  # a node's hashes are distinct: mix is a bijection


def _class_gains(group, w):
    """w (2K + w) of each entry of weight w: what it adds to its segment's
    sum of squared class weights, K being its class's weight to its left.

    ``group`` numbers each entry's (segment, class) pair in segment order;
    entries are in value order within segments. One sort of (group,
    position) keys lists each pair's entries in value order.
    """
    n_flat = len(w)
    i_bits = (n_flat - 1).bit_length()
    grouped = (group << i_bits) | np.arange(n_flat)
    grouped.sort()
    at = grouped & ((1 << i_bits) - 1)  # value-order position of each grouped place
    wg = w[at]
    before = np.cumsum(wg) - wg
    grouped >>= i_bits
    first = np.empty(n_flat, dtype=bool)
    first[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
    k = before - np.maximum.accumulate(before * first)
    gain = np.empty_like(k)
    gain[at] = wg * (2 * k + wg)
    return gain


def _best_cuts(values, rank, y_slot, w_slot, n_classes, slots, sizes, feats):
    """Best cut of every node of one step, all scored together.

    A slot is one (tree, row) pair of the trees grown together, numbered
    tree * n + row; it has class ``y_slot[slot]`` and was drawn
    ``w_slot[slot]`` times by its tree's bootstrap. Node b holds ``sizes[b]``
    distinct slots, its part of ``slots``, and draws features ``feats[b]``.
    Each (node, drawn feature) pair is one segment of flat arrays, segments
    in (node, draw) order, each in value order: one sort of bit-packed
    (node, draw, value rank, slot) keys, where ``rank`` maps equal values of
    X to one rank and ``values[rank]`` is the value. Cuts fall only between
    distinct consecutive values, at their midpoint (at the lower value when
    the midpoint rounds onto the upper one), so the order of equal values
    changes nothing and both sides keep rows.

    A cut that leaves class weights L_c of the node's totals T_c on the left
    decreases Gini by a constant plus (SL/nl + SR/nr)/(nl + nr), with nl and
    nr the weights of the two sides, SL = sum L_c^2 and SR = sum (T_c -
    L_c)^2 = sum T_c^2 - 2 sum T_c L_c + SL (Louppe, *Understanding Random
    Forests*, 2014, ch. 5). Scanning a segment, a slot of weight w adds w to
    nl, T_c w to sum T_c L_c and ``_class_gains``' w (2K + w) to SL. A row
    drawn w times falls on one side of every cut, so these are the sums
    over the bootstrap multiset. Counts stay int64 and the score is one
    correctly rounded division of SL nr + SR nl by nl nr, so equal
    decreases give equal floats (distinct ones stay distinct below about
    2 000 rows) and the first drawn feature, then the first cut, wins an
    exact tie.

    Returns the split nodes' indices into the step and, per split node, its
    feature, threshold, slot count and left slot count, its slots with the
    left part first (all split nodes' slots in one array), and each child's
    label if the child is pure, -1 if not.
    """
    n, d = rank.shape
    B, m = feats.shape
    # key bits, high to low: node, draw, value rank, slot
    slot_bits, rank_bits, m_bits = ((x - 1).bit_length() for x in (len(y_slot), len(values), m))
    low_bits = rank_bits + slot_bits
    node = np.repeat(np.arange(B), sizes)
    seg_len = np.repeat(sizes, m)
    seg_start = np.cumsum(seg_len) - seg_len
    seg_key = ((np.arange(B)[:, None] << m_bits) | np.arange(m)) << low_bits
    key = feats[node]
    key += (slots % n * d)[:, None]
    key = np.take(rank, key) << slot_bits
    key |= seg_key[node]
    key |= slots[:, None]
    key = key.ravel()
    key.sort()
    slot = key & ((1 << slot_bits) - 1)
    q = key >> slot_bits  # segment and value rank
    del key
    w = w_slot[slot]
    gain = _class_gains((q >> rank_bits) * n_classes + y_slot[slot], w)

    y, w_rows = y_slot[slots], w_slot[slots]
    total = np.bincount(node * n_classes + y, weights=w_rows, minlength=B * n_classes).astype(np.int64)
    t_w = np.empty(len(y_slot), dtype=np.int64)
    t_w[slots] = total[node * n_classes + y] * w_rows  # T_c w of each of the step's slots
    total = total.reshape(B, n_classes)
    node_w, sq_total = total.sum(axis=1), (total * total).sum(axis=1)
    t_w = t_w[slot]
    # a segment sums gain and t_w to sum T_c^2 and w to the node weight:
    # take the previous segment's sums off each segment's first entry, and
    # the running sums restart at every segment
    restart, prev = seg_start[1:], np.repeat(sq_total, m)[:-1]
    gain[restart] -= prev
    t_w[restart] -= prev
    w[restart] -= np.repeat(node_w, m)[:-1]
    sl, tl, nl = (np.cumsum(a, out=a) for a in (gain, t_w, w))
    node_len = sizes * m
    nr = np.repeat(node_w, node_len) - nl
    sr = np.repeat(sq_total, node_len) - 2 * tl + sl

    cut = np.empty(len(q), dtype=bool)  # cut after this entry
    np.not_equal(q[1:], q[:-1], out=cut[:-1])
    cut[seg_start + seg_len - 1] = False  # not across segments
    score = np.divide(sl * nr + sr * nl, nl * nr, out=np.full(len(q), np.nan), where=cut)
    node_start = seg_start[::m]
    best = np.fmax.reduceat(score, node_start)  # NaN: the node has no cut
    p = np.flatnonzero(score == np.repeat(best, node_len))
    won = np.flatnonzero(~np.isnan(best))
    p = p[np.searchsorted(p, node_start[won])]  # first best per node
    draw = (q[p] >> rank_bits) & ((1 << m_bits) - 1)
    v, v_next = values[q[p] & ((1 << rank_bits) - 1)], values[q[p + 1] & ((1 << rank_bits) - 1)]
    mid = 0.5 * (v + v_next)
    thr = np.where(mid < v_next, mid, v)  # two adjacent doubles: cut at the lower
    lo, size = seg_start[won * m + draw], sizes[won]
    offset = np.cumsum(size) - size
    kept = slot[np.repeat(lo - offset, size) + np.arange(size.sum())]
    left_label = np.where(sl[p] == nl[p] ** 2, y_slot[slot[lo]], -1)
    right_label = np.where(sr[p] == nr[p] ** 2, y_slot[slot[lo + size - 1]], -1)
    return won, feats[won, draw], thr, size, p - lo + 1, kept, left_label, right_label


def _grow_trees(values, rank, y_idx, n_classes, max_feats, seed, trees, bootstrap):
    """Grow ``trees`` together; returns their flat node arrays, node counts,
    growth steps and scored (node, feature, row) entries.

    With key1, key2 = ``SeedSequence(seed).generate_state(2)``, draw j of
    tree t's bootstrap is row (h >> 32) n >> 32 of h = ``_hash(key2, t,
    j)``, a multiply-shift uniform on the rows up to n / 2^32, and node i
    of tree t draws its features by ``_draw_features`` from key1. A tree
    grows on its distinct drawn rows, each weighted by its count. Nodes are
    numbered as they are made and expanded depth first, right child first.
    A pure child is a leaf as soon as it is made; at every step each
    unfinished tree pops its next impure node, and those nodes are scored
    in one ``_best_cuts`` call. A node whose drawn features are all
    constant is a leaf with the majority label by weight, the smallest
    class index on ties. Arrays are (trees, 2n): feature, threshold, left,
    right, label and depth per node; a leaf's children are itself.
    """
    n, d = rank.shape
    G, width = len(trees), 2 * n
    key1, key2 = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    if bootstrap:
        h = _hash(key2, trees[:, None], np.arange(n)) >> np.uint64(32)
        slot = (h * np.uint64(n) >> np.uint64(32)).astype(np.intp) + np.arange(0, G * n, n)[:, None]
        weight = np.bincount(slot.ravel(), minlength=G * n).reshape(G, n)
    else:
        weight = np.ones((G, n), dtype=np.intp)
    w_slot, y_slot = weight.ravel(), np.tile(y_idx, G)
    feature = np.zeros((G, width), dtype=np.intp)
    threshold = np.zeros((G, width))
    left = np.zeros((G, width), dtype=np.intp)
    right = np.zeros((G, width), dtype=np.intp)
    label = np.full((G, width), -1, dtype=np.intp)
    depth = np.zeros((G, width), dtype=np.intp)
    count = np.ones(G, dtype=np.intp)
    stacks = [[] for _ in trees]
    for t in range(G):
        slots = np.flatnonzero(weight[t]) + t * n
        if np.all(y_slot[slots] == y_slot[slots[0]]):
            label[t, 0] = y_slot[slots[0]]
        else:
            stacks[t].append((slots, 0))
    steps = entries = 0
    while True:
        busy = np.array([t for t, stack in enumerate(stacks) if stack], dtype=np.intp)
        if not len(busy):
            return feature, threshold, left, right, label, depth, count, steps, entries
        step = [stacks[t].pop() for t in busy]
        node = np.array([i for _, i in step])
        sizes = np.array([len(slots) for slots, _ in step])
        steps += 1
        entries += int(sizes.sum()) * max_feats
        won, feat, thr, size, n_left, slots, left_label, right_label = _best_cuts(
            values, rank, y_slot, w_slot, n_classes, np.concatenate([s for s, _ in step]), sizes,
            _draw_features(key1, trees[busy], node, d, max_feats))
        constant = np.ones(len(step), dtype=bool)  # all drawn features constant
        constant[won] = False
        for b in np.flatnonzero(constant):
            at = step[b][0]
            label[busy[b], node[b]] = np.argmax(
                np.bincount(y_slot[at], weights=w_slot[at], minlength=n_classes))
        t, node = busy[won], node[won]
        kid = count[t]
        count[t] += 2
        feature[t, node], threshold[t, node], left[t, node], right[t, node] = feat, thr, kid, kid + 1
        for j, lab in ((kid, left_label), (kid + 1, right_label)):
            left[t, j] = right[t, j] = j
            label[t, j] = lab
            depth[t, j] = depth[t, node] + 1
        hi = np.cumsum(size)
        lo = hi - size
        for tree, i, a, cut, b, pure_left, pure_right in zip(*(x.tolist() for x in (
                t, kid, lo, lo + n_left, hi, left_label >= 0, right_label >= 0))):
            if not pure_left:
                stacks[tree].append((slots[a:cut], i))
            if not pure_right:
                stacks[tree].append((slots[cut:b], i + 1))


def rf_train(train_X, train_y, n_trees: int = 100, seed=0, bootstrap: bool = True) -> RandomForest:
    """Train a forest of CART trees, each on its own bootstrap resample.

    ``seed`` is anything ``np.random.SeedSequence`` accepts. Tree t's
    bootstrap and node i's features are drawn by hashes of (seed, t, draw)
    and (seed, t, i) (see ``_grow_trees``), so training order, tree
    grouping and thread count cannot change the result. Each tree grows on
    its distinct resampled rows weighted by their multiplicity, which gives
    the same tree as growing on the resample itself. ``bootstrap=False`` is
    a test hook that trains every tree on the full sample. Trees grow
    together in groups sized by ``_FOREST_ENTRIES``. The forest is flat:
    one array each of feature, threshold, left child, right child and leaf
    label over the nodes of all trees, tree by tree, plus each tree's root
    index (see ``RandomForest``).
    """
    X = np.asarray(train_X, dtype=float)
    classes, y_idx = np.unique(np.asarray(train_y), return_inverse=True)
    if len(classes) < 2:
        raise ValueError("need >= 2 classes")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n, d = X.shape
    max_feats = int(np.ceil(np.sqrt(d)))
    values, rank = np.unique(X, return_inverse=True)
    rank = rank.reshape(n, d)
    # per tree: about a dozen live step arrays of up to max_feats * n entries (one per drawn
    # feature and distinct row; a bootstrap holds about 0.63 n), six node arrays of 2n and
    # three slot tables of n
    group = max(1, _FOREST_ENTRIES // (n * (12 * max_feats + 15)))
    parts = [_grow_trees(values, rank, y_idx, len(classes), max_feats, seed,
                         np.arange(t0, min(t0 + group, n_trees)), bootstrap)
             for t0 in range(0, n_trees, group)]
    feature, threshold, left, right, label, depth, count, steps, entries = zip(*parts)
    feature, threshold, left, right, label, depth, count = (
        np.concatenate(col) for col in (feature, threshold, left, right, label, depth, count))
    roots = np.cumsum(count) - count
    keep = np.arange(feature.shape[1]) < count[:, None]
    left, right = left + roots[:, None], right + roots[:, None]
    feature, threshold, left, right, label = (a[keep] for a in (feature, threshold, left, right, label))
    log.debug("forest: %d tree(s), %d node(s), %d leaves, max depth %d, %d step(s), "
              "%d scored entries", n_trees, len(label), int(np.count_nonzero(label >= 0)),
              int(depth.max()), sum(steps), sum(entries))
    return RandomForest(feature=feature, threshold=threshold, left=left, right=right,
                        label=label, roots=roots, n_features=d, classes=classes)


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


def _confidence_interval(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    m = float(np.mean(v))
    if len(v) < 2:
        return (m, m)
    from scipy.special import stdtrit  # on use: a one-split run needs no scipy
    half = float(stdtrit(len(v) - 1, 0.975) * v.std(ddof=1) / np.sqrt(len(v)))
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
) -> ProtocolResult:
    """Repeated random split per device, mean AvgF with a 95% t-interval.

    ``dataset`` is a ``FeatureTable``, or a ``Dataset`` featurized at
    ``DEFAULT_FS`` by ``featurize_dataset`` (call it yourself for another
    rate), which keeps the table on the dataset, so a later call on the
    unchanged dataset does not featurize it again. Devices need
    train_per_device + 1 samples (at least one held-out test sample); the
    rest are dropped. Standardization or the learned metric is fit on each
    repeat's training half only; ``ldml_iterations`` caps each repeat's
    metric ascent, which stops sooner once every pair is fit (``train_ldml``).
    Repeat r splits by ``default_rng([seed, r])`` and seeds the metric and
    the forest with ``[seed, r, 1]`` and ``[seed, r, 2]``, streams that share
    no draws.
    """
    if classifier not in ("knn", "rf"):
        raise ValueError("classifier must be 'knn' or 'rf'")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if train_per_device < 1:
        raise ValueError("train_per_device must be >= 1")
    if not isinstance(dataset, FeatureTable):
        dataset = featurize_dataset(dataset)
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
                               iterations=ldml_iterations, step=ldml_step, seed=[seed, r, 1])
        else:
            model = standardizer(X[train_idx])
        Ztr = transform(model, X[train_idx])
        Zte = transform(model, X[test_idx])
        if classifier == "knn":
            preds = knn_predict(Ztr, y[train_idx], Zte, k=k)
        else:
            forest = rf_train(Ztr, y[train_idx], n_trees=n_trees, seed=[seed, r, 2])  # tag 0 would repeat [seed, r]
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
