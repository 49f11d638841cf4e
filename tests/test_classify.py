"""Classifier and evaluation tests: hand-counted confusions, vote rules,
forest behavior, and the repeated-split protocol."""

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

from sensorprint import classify
from sensorprint.classify import (
    _confidence_interval,
    evaluate,
    knn_predict,
    rf_predict,
    rf_train,
    run_protocol,
)
from sensorprint.dataset import DevicePrior, generate_synthetic


def test_evaluate_perfect_predictions():
    y = ["a", "b", "a", "c"]
    rep = evaluate(y, y)
    assert rep.accuracy == 1.0
    assert rep.avg_f == 1.0
    for s in rep.per_class.values():
        assert s.f_score == 1.0
        assert s.fp == 0 and s.fn == 0


def test_evaluate_hand_counted_case():
    # class a: 3 true traces predicted (a, a, b); one true-b trace predicted a
    truth = ["a", "a", "a", "b"]
    preds = ["a", "a", "b", "a"]
    rep = evaluate(preds, truth)
    sa = rep.per_class["a"]
    assert (sa.tp, sa.fp, sa.fn) == (2, 1, 1)
    assert sa.precision == pytest.approx(2 / 3)
    assert sa.recall == pytest.approx(2 / 3)
    assert sa.f_score == pytest.approx(2 / 3)


def test_evaluate_all_wrong():
    rep = evaluate(["b", "a"], ["a", "b"])
    assert rep.accuracy == 0.0
    assert rep.avg_f == 0.0


def test_evaluate_zero_denominator_conventions():
    # class c never predicted and never true-positive: precision 0, recall 0
    rep = evaluate(["a", "a", "a"], ["a", "a", "c"])
    sc = rep.per_class["c"]
    assert sc.precision == 0.0 and sc.recall == 0.0 and sc.f_score == 0.0


def test_evaluate_avg_f_is_harmonic_of_averages():
    preds = ["a", "b", "b", "a", "c", "c"]
    truth = ["a", "a", "b", "b", "c", "a"]
    rep = evaluate(preds, truth)
    prs = [s.precision for s in rep.per_class.values()]
    res = [s.recall for s in rep.per_class.values()]
    ap, ar = np.mean(prs), np.mean(res)
    assert rep.avg_f == pytest.approx(2 * ap * ar / (ap + ar))
    assert not np.isclose(rep.avg_f, np.mean([s.f_score for s in rep.per_class.values()]))


def test_evaluate_micro_accuracy_identity():
    rng = np.random.default_rng(0)
    truth = rng.choice(["a", "b", "c"], size=60)
    preds = rng.choice(["a", "b", "c"], size=60)
    rep = evaluate(preds, truth)
    total_tp = sum(s.tp for s in rep.per_class.values())
    assert rep.accuracy == pytest.approx(total_tp / 60)


def test_evaluate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        evaluate(["a"], ["a", "b"])


def test_knn_exact_match():
    X = np.array([[0.0], [10.0]])
    y = np.array(["a", "b"])
    assert knn_predict(X, y, [10.0], k=1) == "b"


def test_knn_nearest_by_inspection():
    X = np.array([[0.0], [10.0]])
    y = np.array(["A", "B"])
    assert knn_predict(X, y, [1.0], k=1) == "A"


def test_knn_three_point_vote():
    X = np.array([[0.0], [2.0], [3.0]])
    y = np.array(["A", "B", "B"])
    assert knn_predict(X, y, [1.9], k=3) == "B"


def test_knn_rejects_even_k_and_empty_train():
    X = np.array([[0.0], [1.0]])
    y = np.array(["a", "b"])
    with pytest.raises(ValueError, match="odd"):
        knn_predict(X, y, [0.5], k=2)
    with pytest.raises(ValueError, match="empty"):
        knn_predict(np.zeros((0, 1)), np.array([]), [0.5], k=1)
    with pytest.raises(ValueError, match="exceeds"):
        knn_predict(X, y, [0.5], k=3)
    for k in (-1, -3):
        with pytest.raises(ValueError, match=">= 1"):
            knn_predict(X, y, [0.5], k=k)


def test_knn_distance_tie_keeps_input_order():
    # both training points at distance 1; stable order keeps the first
    X = np.array([[1.0], [-1.0]])
    y = np.array(["first", "second"])
    assert knn_predict(X, y, [0.0], k=1) == "first"


def test_knn_vote_tie_smallest_summed_distance():
    # k=3 cannot tie votes with 2 labels, so use 3 labels at k=3
    X = np.array([[0.0], [1.0], [5.0]])
    y = np.array(["a", "b", "c"])
    # distances from 0.4: a=0.4, b=0.6, c=4.6 -> all one vote; a has min sum
    assert knn_predict(X, y, [0.4], k=3) == "a"


def test_knn_vote_tie_lexicographic_fallback():
    X = np.array([[-1.0], [1.0], [5.0]])
    y = np.array(["z", "a", "q"])
    # from 0: z and a both at 1.0, q at 5 -> sums tie between z and a -> "a"
    assert knn_predict(X, y, [0.0], k=3) == "a"


def test_knn_query_matrix_matches_single_queries():
    # each row of a query matrix gets the label it gets alone, ties included
    X = np.array([[-1.0], [1.0], [5.0], [0.0], [1.0]])
    y = np.array(["z", "a", "q", "a", "b"])
    Q = np.array([[0.0], [0.4], [1.0], [3.0], [5.0]])
    for k in (1, 3, 5):
        preds = knn_predict(X, y, Q, k=k)
        assert preds.shape == (len(Q),)
        assert list(preds) == [knn_predict(X, y, q, k=k) for q in Q]
    # a training set big enough that queries go through in blocks of two
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2048, 1024))
    y = np.array([f"d{i % 7}" for i in range(len(X))])
    Q = X[:5] + rng.normal(scale=0.1, size=(5, 1024))
    assert list(knn_predict(X, y, Q, k=3)) == [knn_predict(X, y, q, k=3) for q in Q]


def make_separable(n_per=20, d=4, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    Xa = rng.normal(0, 1, size=(n_per, d))
    Xb = rng.normal(0, 1, size=(n_per, d))
    Xb[:, 0] += gap
    X = np.vstack([Xa, Xb])
    y = np.array(["a"] * n_per + ["b"] * n_per)
    return X, y


def test_rf_separable_training_accuracy():
    X = np.linspace(-5, 5, 30).reshape(-1, 1)
    y = np.where(X[:, 0] < 0, "neg", "pos")
    forest = rf_train(X, y, n_trees=100, seed=1)
    preds = rf_predict(forest, X)
    assert np.mean(preds == y) == 1.0


def test_rf_single_tree_memorizes_without_bootstrap():
    X, y = make_separable(n_per=10, seed=2)
    forest = rf_train(X, y, n_trees=1, seed=3, bootstrap=False)
    preds = rf_predict(forest, X)
    assert np.all(preds == y)


def test_rf_deterministic():
    X, y = make_separable(seed=4)
    q = np.random.default_rng(5).normal(size=(10, X.shape[1])) + 5
    p1 = rf_predict(rf_train(X, y, n_trees=20, seed=6), q)
    p2 = rf_predict(rf_train(X, y, n_trees=20, seed=6), q)
    assert np.all(p1 == p2)


def test_rf_rejects_single_class():
    X = np.zeros((5, 2))
    with pytest.raises(ValueError, match="classes"):
        rf_train(X, np.array(["a"] * 5))


def test_rf_rejects_zero_trees():
    X, y = make_separable(seed=7)
    with pytest.raises(ValueError, match="n_trees"):
        rf_train(X, y, n_trees=0)


def test_rf_rejects_dimension_mismatch():
    X, y = make_separable(seed=7)
    forest = rf_train(X, y, n_trees=5, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        rf_predict(forest, np.zeros(X.shape[1] + 1))


def test_rf_generalizes_on_wide_margin():
    X, y = make_separable(n_per=30, gap=12.0, seed=8)
    forest = rf_train(X, y, n_trees=50, seed=9)
    Xq, yq = make_separable(n_per=15, gap=12.0, seed=10)
    assert np.mean(rf_predict(forest, Xq) == yq) >= 0.95


def test_rf_predict_matrix_equals_single_rows():
    X, y = make_separable(n_per=25, d=6, gap=1.5, seed=11)
    y = np.array([f"c{i % 5}" for i in range(len(X))])  # five classes, many vote splits
    forest = rf_train(X, y, n_trees=25, seed=12)
    Q = np.random.default_rng(13).normal(size=(40, 6)) * 2
    assert list(rf_predict(forest, Q)) == [rf_predict(forest, q) for q in Q]


def test_rf_equal_gini_decrease_first_drawn_feature_wins():
    # column 1 is twice column 0: every cut scores the same on both, so the
    # root splits on whichever feature the root's draw lists first
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    X = np.column_stack([x, 2 * x])
    y = np.array(["a", "a", "b", "a", "b", "b"])
    firsts = set()
    for seed in range(8):
        forest = rf_train(X, y, n_trees=1, seed=seed, bootstrap=False)
        first = _reference_draw(seed, 0, 0, d=2, m=2)[0]
        firsts.add(first)
        root = forest.roots[0]
        assert forest.feature[root] == first
        assert forest.threshold[root] == (1.5 if first == 0 else 3.0)
    assert firsts == {0, 1}  # both orders were exercised


def test_rf_equal_gini_decrease_first_cut_wins():
    # cutting after 0 or after 2 gives the same decrease; the first cut wins
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    forest = rf_train(X, np.array(["a", "b", "b", "a"]), n_trees=1, seed=0, bootstrap=False)
    assert forest.threshold[forest.roots[0]] == 0.5


def _exact_score(y_sorted, cut):
    """SL/nl + SR/nr of the cut after ``cut``, as an exact fraction."""
    left, right = y_sorted[:cut + 1], y_sorted[cut + 1:]
    sq = lambda part: sum(list(part).count(c) ** 2 for c in set(part))
    return Fraction(sq(left), len(left)) + Fraction(sq(right), len(right))


def test_rf_exact_gini_ties_follow_the_tie_rule_not_rounding():
    # a float Gini summed over class proportions rounds these exact ties
    # apart and took the later cut or the later drawn feature
    y = np.array(["d", "c", "c", "b", "c", "a"])
    assert _exact_score(y, 0) == _exact_score(y, 4) == Fraction(16, 5)
    assert max(_exact_score(y, c) for c in range(5)) == Fraction(16, 5)
    forest = rf_train(np.arange(6.0)[:, None], y, n_trees=1, seed=0, bootstrap=False)
    assert forest.threshold[forest.roots[0]] == 0.5  # first cut, not 4.5

    # 1 + 33/9 and 5/3 + 21/7 are both 14/3, but not as sums of two rounded
    # quotients: the score must be one division
    y = np.array(list("bdbdcdcdbd"))
    assert _exact_score(y, 0) == _exact_score(y, 2) == max(_exact_score(y, c) for c in range(9))
    forest = rf_train(np.arange(10.0)[:, None], y, n_trees=1, seed=0, bootstrap=False)
    assert forest.threshold[forest.roots[0]] == 0.5  # first cut, not 2.5

    # feature 0 is drawn first; cutting off its top row ties cutting off
    # feature 1's bottom row (each a lone class)
    X = np.array([[3, 1], [5, 0], [7, 6], [4, 4], [0, 2], [1, 5], [2, 3], [6, 7]], dtype=float)
    y = np.array([2, 3, 0, 4, 4, 1, 2, 4])
    assert _reference_draw(0, 0, 0, d=2, m=2) == [0, 1]
    scores = [[_exact_score(y[np.argsort(X[:, f])], c) for c in range(7)] for f in (0, 1)]
    assert max(scores[0]) == max(scores[1]) == scores[0][6] == scores[1][0]
    forest = rf_train(X, y, n_trees=1, seed=0, bootstrap=False)
    root = forest.roots[0]
    assert (forest.feature[root], forest.threshold[root]) == (0, 6.5)


def test_rf_splits_adjacent_doubles_at_the_lower_value():
    # their midpoint rounds onto the upper value, so a cut there would send
    # both rows left and leave the node to be split again forever
    lo, hi = 1 + 2.0 ** -52, 1 + 2.0 ** -51
    assert 0.5 * (lo + hi) == hi
    X = np.array([[lo], [hi]])
    forest = rf_train(X, np.array(["x", "y"]), n_trees=1, bootstrap=False)
    assert forest.threshold[forest.roots[0]] == lo
    assert list(rf_predict(forest, X)) == ["x", "y"]


def _preorder(forest, node, out):
    """Tree as text, node then left then right: 'feature:threshold' or leaf label."""
    if forest.label[node] >= 0:
        out.append(str(forest.classes[forest.label[node]]))
        return
    out.append(f"{forest.feature[node]}:{float(forest.threshold[node]).hex()}")
    _preorder(forest, forest.left[node], out)
    _preorder(forest, forest.right[node], out)


def _identify_sized_problem():
    """60 rows, 100 features, 20 classes of three noisy rows each."""
    rng = np.random.default_rng(17)
    X = rng.normal(size=(20, 100)).repeat(3, axis=0) + rng.normal(size=(60, 100))
    return X, np.array([f"d{i:02d}" for i in range(20)]).repeat(3)


def test_rf_forest_pinned():
    # every split (feature and threshold bits) and leaf of ten trees on an
    # identify-sized problem, recorded from the integer-Gini forest with
    # hashed feature draws and hashed bootstrap draws. Any change to the
    # draw rules, tie rule or Gini arithmetic moves this digest.
    forest = rf_train(*_identify_sized_problem(), n_trees=10, seed=0)
    out = []
    for root in forest.roots:
        _preorder(forest, root, out)
    assert len(out) == 408
    assert hashlib.sha256(" ".join(out).encode()).hexdigest() == (
        "a9562c2696d9978df8fd084fb801a09f992b6fb5c1b99411a51df5dce25b74ed")


def _reference_best_cut(X, presorted, member, y_idx, n_classes, idx, feats):
    """One node's best cut, scored from one-hot class counts of every cut."""
    n, m = len(idx), len(feats)
    member[idx] = True
    rows = presorted[feats]
    rows = rows[member[rows]].reshape(m, n)
    member[idx] = False
    vs = X[rows, feats[:, None]]
    fi, cut = np.nonzero(vs[:, 1:] > vs[:, :-1])
    if len(cut) == 0:
        return None
    cum = np.cumsum(np.eye(n_classes, dtype=np.int64)[y_idx[rows]], axis=1)
    left, total = cum[fi, cut], cum[0, -1]
    nl = cut + 1
    nr = n - nl
    sl, sr = (left * left).sum(axis=1), ((total - left) ** 2).sum(axis=1)
    w = int(((sl * nr + sr * nl) / (nl * nr)).argmax())  # SL/nl + SR/nr, one rounding
    f, c = fi[w], cut[w]
    mid = 0.5 * (vs[f, c] + vs[f, c + 1])
    return int(feats[f]), float(mid if mid < vs[f, c + 1] else vs[f, c])


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _reference_draw(seed, tree, node, d, m):
    """The m features node ``node`` of tree ``tree`` draws, first drawn first:
    those of smallest splitmix64 hash of (key, tree, node, feature), in
    Python integers."""
    key = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    h = _splitmix64((_splitmix64((key + tree * _GOLDEN) & _M64) + node * _GOLDEN) & _M64)
    hashes = [_splitmix64((h + f * _GOLDEN) & _M64) for f in range(d)]
    return sorted(range(d), key=hashes.__getitem__)[:m]


def _reference_bootstrap(seed, tree, n):
    """The n rows tree ``tree`` resamples, in draw order: draw j maps the
    splitmix64 hash h of (second key word, tree, j) to row (h >> 32) n >> 32,
    in Python integers."""
    key = int(np.random.SeedSequence(seed).generate_state(2, np.uint64)[1])
    h = _splitmix64((key + tree * _GOLDEN) & _M64)
    return np.array([(_splitmix64((h + j * _GOLDEN) & _M64) >> 32) * n >> 32 for j in range(n)])


def _reference_forest(X, y, n_trees, seed):
    """rf_train one node at a time: each tree grown alone on its whole
    resample by ``_reference_bootstrap`` (duplicates included), depth first,
    right child first, from a stable presort of the resample, each node
    drawing by ``_reference_draw``; flat arrays as (feature, threshold, left,
    right, label, roots)."""
    classes, y_all = np.unique(y, return_inverse=True)
    n, d = X.shape
    nodes, roots = [], []
    for t in range(n_trees):
        boot = _reference_bootstrap(seed, t, n)
        Xb, yb = X[boot], y_all[boot]
        presorted = np.argsort(Xb, axis=0, kind="stable").T.copy()
        member = np.zeros(n, dtype=bool)
        roots.append(len(nodes))
        stack = [(np.arange(n), len(nodes))]
        nodes.append([0, 0.0, 0, 0, -1])
        while stack:
            idx, node = stack.pop()
            split = None
            if len(idx) >= 2 and not np.all(yb[idx] == yb[idx[0]]):
                feats = np.array(_reference_draw(seed, t, node - roots[t], d, int(np.ceil(np.sqrt(d)))))
                split = _reference_best_cut(Xb, presorted, member, yb, len(classes), idx, feats)
            if split is None:
                nodes[node][2:] = [node, node, int(np.argmax(np.bincount(yb[idx], minlength=len(classes))))]
                continue
            f, thr = split
            mask = Xb[idx, f] <= thr
            kids = len(nodes), len(nodes) + 1
            nodes[node][:4] = [f, thr, *kids]
            nodes += [[0, 0.0, 0, 0, -1], [0, 0.0, 0, 0, -1]]
            stack += [(idx[mask], kids[0]), (idx[~mask], kids[1])]
    return [np.array(col) for col in zip(*nodes)] + [np.array(roots)]


def _reference_problems():
    rng = np.random.default_rng(14)
    dup_X = rng.integers(0, 4, size=(40, 5)).astype(float)
    dup_y = np.array([f"c{v}" for v in rng.integers(0, 4, size=40)])
    rng = np.random.default_rng(50)
    wide_X = rng.normal(size=(50, 100)).repeat(3, axis=0) + rng.normal(size=(150, 100))
    wide_y = np.array([f"d{i:02d}" for i in range(50)]).repeat(3)
    return {
        "identify-sized": (*_identify_sized_problem(), 10, 0, None),
        "duplicate-heavy": (dup_X, dup_y, 20, 15, None),
        "150 rows, 50 classes": (wide_X, wide_y, 8, 2, None),
        # a budget that holds a few of these trees, and ten trees that do
        # not fill a whole number of groups
        "uneven groups": (*_identify_sized_problem(), 10, 4, 50_000),
    }


@pytest.mark.parametrize("name", list(_reference_problems()))
def test_rf_equals_sequential_reference_whatever_the_grouping(name, monkeypatch):
    X, y, n_trees, seed, budget = _reference_problems()[name]
    want = _reference_forest(X, y, n_trees, seed)
    groups = []
    grow = classify._grow_trees
    monkeypatch.setattr(classify, "_grow_trees",
                        lambda *a: groups.append(len(a[-2])) or grow(*a))

    def check(entries):
        monkeypatch.setattr(classify, "_FOREST_ENTRIES", entries)
        groups.clear()
        f = rf_train(X, y, n_trees=n_trees, seed=seed)
        for got, ref in zip([f.feature, f.threshold, f.left, f.right, f.label, f.roots], want):
            assert got.shape == ref.shape and np.array_equal(got, ref)

    check(classify._FOREST_ENTRIES)
    assert groups == [n_trees]
    check(1)
    assert groups == [1] * n_trees
    if budget is not None:
        check(budget)
        assert 1 < groups[0] < n_trees and groups[-1] < groups[0] and sum(groups) == n_trees


def test_feature_draws_are_distinct_and_uniform():
    # 10^4 (tree, node) keys, each drawing 10 of 100 features. If the hashes
    # act as uniform draws, a feature's count over the keys is Binomial(10^4,
    # 0.1) (mean 1000, sd 30) and its count in first place Binomial(10^4,
    # 0.01) (mean 100, sd 9.95). Both bands are 5 sd wide, which all 100
    # features pass by chance with probability above 0.9998.
    key = np.random.SeedSequence(3).generate_state(1, np.uint64)[0]
    trees, nodes = np.divmod(np.arange(10_000), 100)
    feats = classify._draw_features(key, trees, nodes, 100, 10)
    assert feats.shape == (10_000, 10)
    assert feats.min() >= 0 and feats.max() < 100
    ordered = np.sort(feats, axis=1)
    assert np.all(ordered[:, 1:] > ordered[:, :-1])
    assert np.all(np.abs(np.bincount(feats.ravel(), minlength=100) - 1000) <= 150)
    assert np.all(np.abs(np.bincount(feats[:, 0], minlength=100) - 100) <= 50)
    for i in (0, 1, 99, 4321, 9999):
        assert list(feats[i]) == _reference_draw(3, int(trees[i]), int(nodes[i]), 100, 10)


def test_bootstrap_counts_are_binomial(monkeypatch):
    # 2 000 trees on 50 rows, two classes split by one cut. The first
    # scoring step sees every tree's bootstrap counts. If the hashed draws
    # act as uniform draws, a row's count summed over the trees is
    # Binomial(10^5, 1/50) (mean 2 000, sd 44.3); the band is 5 sd wide,
    # which all 50 rows pass by chance with probability above 0.99997.
    n, n_trees, seed = 50, 2000, 5
    counts = []
    best_cuts = classify._best_cuts
    monkeypatch.setattr(classify, "_best_cuts",
                        lambda *a: counts.append(a[3].copy()) or best_cuts(*a))
    rf_train(np.arange(n, dtype=float)[:, None], np.arange(n) < n // 2, n_trees=n_trees, seed=seed)
    w = counts[0].reshape(n_trees, n)
    assert np.all(w.sum(axis=1) == n)
    assert np.all(np.abs(w.sum(axis=0) - 2000) <= 222)
    for t in (0, 1, 999, 1999):
        assert list(w[t]) == list(np.bincount(_reference_bootstrap(seed, t, n), minlength=n))


def test_protocol_repeats_draw_from_distinct_streams(monkeypatch):
    # repeat r splits by [seed, r], seeds the metric with [seed, r, 1] and the
    # forest with [seed, r, 2]; no two of these streams start alike
    from sensorprint.features import featurize_dataset

    table = featurize_dataset(quiet_dataset(n_dev=3, n_per=3, seed=1))
    seeds = []
    default_rng, forest = np.random.default_rng, classify.rf_train
    # the split and train_ldml each build one Generator per repeat
    monkeypatch.setattr(np.random, "default_rng", lambda s: seeds.append(s) or default_rng(s))
    monkeypatch.setattr(classify, "rf_train",
                        lambda *a, **kw: seeds.append(kw["seed"]) or forest(*a, **kw))
    for seed in range(4):
        seeds.clear()
        run_protocol(table, classifier="rf", train_per_device=2, repeats=10, seed=seed,
                     use_ldml=True, ldml_iterations=2, n_trees=2)
        assert seeds == [[seed, r, tag] if tag else [seed, r]
                         for r in range(10) for tag in (0, 1, 2)]
        states = {tuple(np.random.SeedSequence(s).generate_state(4)) for s in seeds}
        assert len(states) == len(seeds)


def test_rf_seed_must_be_non_negative():
    X, y = make_separable(n_per=5, seed=1)
    for bootstrap in (True, False):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            rf_train(X, y, n_trees=2, seed=-1, bootstrap=bootstrap)
    forest = rf_train(X, y, n_trees=2, seed=2 ** 70)
    assert np.all(rf_predict(forest, X) == y)


def test_rf_thresholds_never_fall_between_duplicate_values():
    # few distinct values, so every bootstrap resample holds many duplicates:
    # each split must send equal values the same way and sit at the midpoint
    # of the two distinct values around it
    rng = np.random.default_rng(14)
    X = rng.integers(0, 4, size=(40, 5)).astype(float)
    y = np.array([f"c{v}" for v in rng.integers(0, 4, size=40)])
    seed, n_trees = 15, 20
    forest = rf_train(X, y, n_trees=n_trees, seed=seed)
    splits = 0
    for t in range(n_trees):
        boot = X[_reference_bootstrap(seed, t, len(X))]
        stack = [(forest.roots[t], boot)]
        while stack:
            node, rows = stack.pop()
            if forest.label[node] >= 0:
                continue
            v = rows[:, forest.feature[node]]
            thr = forest.threshold[node]
            below, above = v[v <= thr], v[v > thr]
            assert len(below) and len(above)
            assert thr == 0.5 * (below.max() + above.min())
            splits += 1
            stack += [(forest.left[node], rows[v <= thr]), (forest.right[node], rows[v > thr])]
    assert splits > n_trees


def quiet_dataset(n_dev=5, n_per=5, seed=0):
    """Noiseless devices with distinct offsets: exactly separable."""
    prior = DevicePrior(
        accel_offset=(-0.5, 0.5),
        gyro_offset=(-0.1, 0.1),
        noise_sigma_accel=0.0,
        noise_sigma_gyro=0.0,
    )
    return generate_synthetic(n_dev, n_per, device_prior=prior, seed=seed)


def test_protocol_separable_reaches_perfect_f():
    ds = quiet_dataset()
    res = run_protocol(ds, classifier="knn", train_per_device=2, repeats=3, seed=1)
    assert res.avg_f_mean == pytest.approx(1.0)
    assert res.n_devices == 5


def test_protocol_requires_eligible_devices():
    ds = quiet_dataset(n_dev=2, n_per=3)
    with pytest.raises(ValueError, match="eligible"):
        run_protocol(ds, train_per_device=3, repeats=2)


def test_protocol_refuses_zero_repeats():
    with pytest.raises(ValueError, match="repeats"):
        run_protocol(generate_synthetic(4, 5, seed=3), repeats=0)


def test_protocol_on_table_equals_protocol_on_dataset():
    from sensorprint.features import featurize_dataset

    # a Dataset is featurized at DEFAULT_FS; another rate goes through a table
    ds = generate_synthetic(6, 5, seed=5)
    table = featurize_dataset(ds)
    for kwargs in ({"classifier": "knn", "k": 3}, {"classifier": "rf", "n_trees": 10},
                   {"classifier": "knn", "use_ldml": True, "ldml_iterations": 10}):
        common = dict(train_per_device=2, repeats=2, seed=4, **kwargs)
        assert (run_protocol(table, **common).to_dict()
                == run_protocol(ds, **common).to_dict()), kwargs
    with pytest.raises(TypeError, match="fs_target"):
        run_protocol(ds, fs_target=80.0)


def test_protocol_deterministic():
    ds = generate_synthetic(4, 5, seed=3)
    r1 = run_protocol(ds, classifier="knn", train_per_device=2, repeats=3, seed=9)
    r2 = run_protocol(ds, classifier="knn", train_per_device=2, repeats=3, seed=9)
    assert r1.avg_f_mean == r2.avg_f_mean
    assert r1.avg_f_ci == r2.avg_f_ci


def test_protocol_reports_ci():
    ds = generate_synthetic(4, 6, seed=4)
    res = run_protocol(ds, classifier="knn", train_per_device=2, repeats=5, seed=2)
    lo, hi = res.avg_f_ci
    assert lo <= res.avg_f_mean <= hi


def test_protocol_rf_runs():
    ds = quiet_dataset(n_dev=4, n_per=4, seed=6)
    res = run_protocol(ds, classifier="rf", train_per_device=2, repeats=2, seed=0, n_trees=20)
    assert res.avg_f_mean > 0.9
    assert res.classifier == "rf"


def test_protocol_rf_pinned():
    # exact scores of the forest protocol on a fleet noisy enough that some
    # predictions are wrong, so a change of trees moves them
    prior = DevicePrior(noise_sigma_accel=0.5, noise_sigma_gyro=0.05)
    res = run_protocol(generate_synthetic(12, 5, device_prior=prior, seed=0), classifier="rf",
                       train_per_device=3, repeats=2, seed=0, n_trees=30)
    assert res.to_dict() == {
        "classifier": "rf", "train_per_device": 3, "repeats": 2, "n_devices": 12,
        "avg_f_mean": 0.8464985994397758,
        "avg_f_ci": [0.5902390081219664, 1.1027581907575852],
        "accuracy_mean": 0.8333333333333334,
    }


def test_protocol_ldml_runs():
    ds = quiet_dataset(n_dev=4, n_per=4, seed=7)
    res = run_protocol(
        ds, classifier="knn", train_per_device=2, repeats=2, seed=0,
        use_ldml=True, ldml_iterations=30,
    )
    assert res.classifier == "knn+ldml"
    assert res.avg_f_mean > 0.9


def test_confidence_interval_t_quantile_matches_scipy_stats():
    from scipy import stats
    from scipy.special import stdtrit

    for df in range(1, 200):
        for level in (0.90, 0.95, 0.99):
            assert stdtrit(df, 0.5 + level / 2) == stats.t.ppf(0.5 + level / 2, df), (df, level)
    v = np.random.default_rng(0).random(7)
    m = float(np.mean(v))
    half = float(stats.t.ppf(0.975, 6) * v.std(ddof=1) / np.sqrt(7))
    assert _confidence_interval(v) == (m - half, m + half)


@pytest.mark.parametrize("call, message", [
    (lambda: evaluate([], []), "nothing to evaluate"),
    (lambda: run_protocol(generate_synthetic(2, 2), classifier="svm"),
     "classifier must be 'knn' or 'rf'"),
], ids=["evaluate-nothing", "unknown-classifier"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_tree_whose_bootstrap_holds_one_class_is_a_single_leaf():
    # two rows, one per class: a bootstrap of two draws holds one class half the time
    forest = rf_train([[0.0], [1.0]], ["a", "b"], n_trees=8, seed=0)
    single = forest.roots[forest.label[forest.roots] >= 0]
    assert 0 < len(single) < 8
    for root in single:
        assert forest.left[root] == forest.right[root] == root  # a leaf's children are itself
        assert root + 1 == len(forest.label) or root + 1 in forest.roots  # the tree's one node
