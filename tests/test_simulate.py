"""Population-scale simulator tests: oracles, tie rules, trends, CSV output."""

import numpy as np
import pytest

from sensorprint.dataset import DevicePrior, generate_synthetic
from sensorprint.distances import (
    GEV,
    INVERSE_GAUSSIAN,
    UNIFORM,
    FittedDistribution,
)
from sensorprint.simulate import (
    SimConfig,
    SweepResult,
    simulate_knn,
    sweep,
    validate_against_empirical,
    wilson_interval,
    write_sweep_csv,
)


def uni(lo, hi):
    return FittedDistribution(UNIFORM, {"lo": lo, "hi": hi}, 0.0, 4.0, 10)


def ig(mu, lam):
    return FittedDistribution(INVERSE_GAUSSIAN, {"mu": mu, "lam": lam}, 0.0, 4.0, 10)


def test_config_validation():
    with pytest.raises(ValueError, match="odd"):
        SimConfig(k=2, N=1, D=10, runs=10, intra=uni(0, 1), inter=uni(2, 3))
    with pytest.raises(ValueError, match="odd"):
        SimConfig(k=0, N=1, D=10, runs=10, intra=uni(0, 1), inter=uni(2, 3))
    with pytest.raises(ValueError, match="D"):
        SimConfig(k=1, N=1, D=1, runs=10, intra=uni(0, 1), inter=uni(2, 3))
    with pytest.raises(ValueError, match="population"):
        SimConfig(k=21, N=1, D=10, runs=10, intra=uni(0, 1), inter=uni(2, 3))


@pytest.mark.parametrize("k,N,D", [(1, 1, 100), (3, 3, 5), (5, 8, 3), (1, 3, 50)])
def test_disjoint_supports_perfect_accuracy(k, N, D):
    # every intra draw is below every inter draw, so the k nearest are intra
    # whenever k <= N and the probe is always correctly identified
    res = simulate_knn(SimConfig(k=k, N=N, D=D, runs=2000, intra=uni(0, 1), inter=uni(2, 3), seed=0))
    assert res.accuracy == 1.0


def test_inverted_supports_zero_accuracy():
    res = simulate_knn(SimConfig(k=1, N=1, D=10, runs=2000, intra=uni(2, 3), inter=uni(0, 1), seed=0))
    assert res.accuracy == 0.0


def test_exchangeability_law():
    # identical distributions: the nearest of N*D iid draws is intra with
    # probability 1/D
    D, runs = 100, 100_000
    res = simulate_knn(SimConfig(k=1, N=1, D=D, runs=runs, intra=uni(0, 1), inter=uni(0, 1), seed=1))
    se = np.sqrt((1 / D) * (1 - 1 / D) / runs)
    assert abs(res.accuracy - 1 / D) < 3 * se


def test_tie_at_kth_prefers_earlier_drawn():
    # constant equal distances everywhere: all ties. With k=3, slots fill in
    # draw order (intra first), so with N>=3 no imposter enters the top k.
    const = uni(1.0, 1.0 + 1e-12)  # effectively degenerate at 1
    # exact-tie version via a zero-width-ish uniform is still random; build
    # the decision directly instead
    from sensorprint.simulate import _run_is_correct

    intra = np.ones(3)
    inter = np.ones(30)
    assert _run_is_correct(intra, inter, k=3)
    # with N=1, the two remaining slots go to imposters: 2 >= 3/2 -> wrong
    assert not _run_is_correct(np.ones(1), np.ones(30), k=3)
    # k=1 tie goes to the intra draw
    assert _run_is_correct(np.ones(1), np.ones(30), k=1)


def test_run_is_correct_counts_imposters():
    from sensorprint.simulate import _run_is_correct

    # 2 intra at 1.0, inter at 0.5: nearest 3 are (0.5, 1.0, 1.0): 1 imposter < 1.5
    assert _run_is_correct(np.array([1.0, 1.0]), np.array([0.5, 9.0, 9.0]), k=3)
    # inter at 0.5 and 0.6: nearest 3 have 2 imposters >= 1.5
    assert not _run_is_correct(np.array([1.0, 1.0]), np.array([0.5, 0.6, 9.0]), k=3)


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
def test_run_is_correct_matches_brute_force_ranking(k):
    from sensorprint.simulate import _run_is_correct

    def brute_force(intra, inter):
        # rank every draw, ties in draw order (intra before inter), and
        # count the imposters among the k nearest
        order = np.argsort(np.concatenate([intra, inter]), kind="stable")
        return np.count_nonzero(order[:k] >= len(intra)) < k / 2

    rng = np.random.default_rng(k)
    n_short = 0
    for _ in range(2000):
        N, D = rng.integers(1, 8), rng.integers(2, 6)
        if k > N * D:
            continue
        n_short += N < (k + 1) // 2
        # few distinct values: most runs tie at the k-th distance
        intra = rng.integers(0, 4, N).astype(float)
        inter = rng.integers(0, 4, N * (D - 1)).astype(float)
        assert _run_is_correct(intra, inter, k) == brute_force(intra, inter), (intra, inter)
    assert n_short > 0 or k == 1


def test_determinism():
    cfg = dict(k=1, N=2, D=20, runs=500, intra=ig(1.0, 3.0), inter=ig(3.0, 5.0))
    a = simulate_knn(SimConfig(seed=7, **cfg))
    b = simulate_knn(SimConfig(seed=7, **cfg))
    assert a.accuracy == b.accuracy


def test_wilson_interval_brackets_estimate():
    lo, hi = wilson_interval(37, 100)
    assert lo < 0.37 < hi
    assert 0.0 <= lo and hi <= 1.0
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == 0.0 and hi0 > 0.0


def test_doubling_runs_shrinks_interval():
    cfg = dict(k=1, N=1, D=10, intra=uni(0, 2), inter=uni(1, 3))
    r1 = simulate_knn(SimConfig(runs=2000, seed=3, **cfg))
    r2 = simulate_knn(SimConfig(runs=4000, seed=3, **cfg))
    w1 = r1.ci_high - r1.ci_low
    w2 = r2.ci_high - r2.ci_low
    assert w2 < w1
    assert abs(w2 - w1 / np.sqrt(2)) < 0.2 * (w1 / np.sqrt(2))


def test_sweep_single_cell_matches_direct_call():
    res = sweep(1, [2], [10], 1000, uni(0, 2), uni(1, 3), seed=4)
    direct = simulate_knn(SimConfig(k=1, N=2, D=10, runs=1000, intra=uni(0, 2), inter=uni(1, 3), seed=4))
    assert len(res.rows) == 1
    assert res.rows[0].accuracy == direct.accuracy
    assert res.rows[0].ci_low == direct.ci_low


def test_sweep_monotone_in_d():
    # overlapping distributions: accuracy must fall (within noise) as D grows
    res = sweep(1, [2], [10, 100, 1000], 3000, uni(0, 2), uni(1, 3), seed=5)
    assert res.monotone_in_d[2] is True
    accs = [r.accuracy for r in res.rows]
    assert accs[0] > accs[-1]  # clearly decreasing at these scales


def test_sweep_monotone_in_n():
    res = sweep(1, [1, 3, 6], [50], 3000, uni(0, 2), uni(1, 3), seed=6)
    assert res.monotone_in_n[50] is True
    accs = {r.N: r.accuracy for r in res.rows}
    assert accs[6] > accs[1]


def test_sweep_csv_format(tmp_path):
    res = sweep(1, [1, 2], [10, 20], 200, uni(0, 2), uni(1, 3), seed=7)
    p = tmp_path / "sweep.csv"
    write_sweep_csv(res, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "k,N,D,runs,accuracy,ci_low,ci_high"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "200"
    float(first[4])  # parses


def test_validate_against_empirical_separable():
    # noiseless devices: repeated samples are identical, so intra distances
    # collapse to a point mass at 0 while inter stays positive. Both arms
    # must agree at 1.
    prior = DevicePrior(
        accel_offset=(-0.5, 0.5), gyro_offset=(-0.1, 0.1),
        noise_sigma_accel=0.0, noise_sigma_gyro=0.0,
    )
    ds = generate_synthetic(12, 5, device_prior=prior, seed=21)
    rep = validate_against_empirical(ds, k=1, train_per_device=3, repeats=3, runs=3000, seed=0)
    assert rep.empirical_accuracy == pytest.approx(1.0)
    assert rep.simulated_accuracy >= 0.99
    assert rep.gap <= 0.01
    assert rep.intra_family == "DEGENERATE"


def test_validate_deterministic():
    ds = generate_synthetic(8, 5, seed=22)
    r1 = validate_against_empirical(ds, repeats=2, runs=500, seed=3)
    r2 = validate_against_empirical(ds, repeats=2, runs=500, seed=3)
    assert r1.to_dict() == r2.to_dict()


def test_validate_fits_do_not_depend_on_dataset_row_order():
    # the simulated arm fits the rows grouped by device, so interleaving the
    # captures of a dataset leaves its LDML model and both fits unchanged
    from sensorprint.dataset import Dataset

    ds = generate_synthetic(8, 5, seed=2)
    interleaved = Dataset()
    for i in range(5):
        for s in ds.samples[i::5]:
            interleaved.add(s)
    a = validate_against_empirical(ds, repeats=1, runs=200, use_ldml=True)
    b = validate_against_empirical(interleaved, repeats=1, runs=200, use_ldml=True)
    assert (a.intra_fit, a.inter_fit) == (b.intra_fit, b.inter_fit)
