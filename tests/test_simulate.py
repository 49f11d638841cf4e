"""Population-scale simulator tests: oracles, tie rules, trends, CSV output."""

import numpy as np
import pytest

from sensorprint.dataset import DevicePrior, generate_synthetic
from sensorprint.distances import (
    DEGENERATE,
    GEV,
    INVERSE_GAUSSIAN,
    UNIFORM,
    FittedDistribution,
    distribution_ppf,
)
from sensorprint.features import featurize_dataset
from sensorprint.simulate import (
    SimConfig,
    simulate_knn,
    sweep,
    validate_against_empirical,
    wilson_interval,
    write_sweep_csv,
)


def uni(lo, hi):
    return FittedDistribution(UNIFORM, {"lo": lo, "hi": hi}, 0.0, 10)


def ig(mu, lam):
    return FittedDistribution(INVERSE_GAUSSIAN, {"mu": mu, "lam": lam}, 0.0, 10)


def test_config_validation():
    with pytest.raises(ValueError, match="odd"):
        SimConfig(k=2, N=1, D=10, runs=10, intra=uni(0, 1), inter=uni(2, 3))
    with pytest.raises(ValueError, match="odd"):
        SimConfig(k=0, N=1, D=10, runs=10, intra=uni(0, 1), inter=uni(2, 3))
    with pytest.raises(ValueError, match="D"):
        SimConfig(k=1, N=1, D=1, runs=10, intra=uni(0, 1), inter=uni(2, 3))
    with pytest.raises(ValueError, match="population"):
        SimConfig(k=21, N=1, D=10, runs=10, intra=uni(0, 1), inter=uni(2, 3))
    # N*(D-1) = 2**53 inter draws is the largest count a double holds exactly
    SimConfig(k=1, N=2, D=2**52 + 1, runs=10, intra=uni(0, 1), inter=uni(2, 3))
    with pytest.raises(ValueError, match=r"N\*\(D-1\) exceeds 2\*\*53"):
        SimConfig(k=1, N=2, D=2**52 + 2, runs=10, intra=uni(0, 1), inter=uni(2, 3))


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
    # a point mass for both: every distance ties, the k slots fill in draw
    # order (intra first), so a run is correct exactly when N >= (k+1)/2
    at1 = FittedDistribution(DEGENERATE, {"value": 1.0}, 0.0, 10)
    for k in (1, 3, 5, 7):
        for N in (1, 2, 3, 4):
            res = simulate_knn(SimConfig(k=k, N=N, D=10, runs=50, intra=at1, inter=at1))
            assert res.accuracy == (1.0 if N >= (k + 1) // 2 else 0.0), (k, N)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("N,D", [(3, 20), (5, 10)])
def test_identical_families_follow_the_hypergeometric_law(k, N, D):
    # intra and inter exchangeable: the intra draws among the k nearest of
    # all N + M are Hypergeometric(N + M, N, k), and a run is correct when
    # at least j = (k+1)/2 of them are intra
    from math import comb

    M, j, runs = N * (D - 1), (k + 1) // 2, 20_000
    p = sum(comb(N, i) * comb(M, k - i) for i in range(j, min(k, N) + 1)) / comb(N + M, k)
    res = simulate_knn(SimConfig(k=k, N=N, D=D, runs=runs, intra=ig(2.0, 6.0), inter=ig(2.0, 6.0),
                                 seed=k))
    assert abs(res.accuracy - p) < 4 * np.sqrt(p * (1 - p) / runs), (res.accuracy, p)


def _full_draw_accuracy(intra, inter, k, N, D, runs, seed):
    """The simulator before order statistics: draw all N + M distances of a
    run, rank them with ties in draw order (intra first), and count the
    imposters among the k nearest."""
    rng = np.random.default_rng(seed)
    d = np.concatenate([distribution_ppf(intra, rng.random((runs, N))),
                        distribution_ppf(inter, rng.random((runs, N * (D - 1))))], axis=1)
    nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
    return np.mean(np.count_nonzero(nearest >= N, axis=1) < k / 2)


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
def test_run_is_correct_matches_brute_force_ranking(k, monkeypatch):
    from sensorprint import distances

    # tie-heavy: the integers 0 .. n-1, each with probability 1/n; the
    # simulator only draws, so no density or CDF is given
    levels = distances._Family(params=("n",), valid=lambda n: n >= 1, logpdf=None, cdf=None,
                               ppf=lambda u, n: np.minimum(np.floor(n * u), n - 1))
    monkeypatch.setitem(distances._FAMILIES, "LEVELS", levels)
    intra = FittedDistribution("LEVELS", {"n": 3}, 0.0, 10)
    inter = FittedDistribution("LEVELS", {"n": 4}, 0.0, 10)
    runs = 4000
    for N, D in [(1, 12), (2, 6), (3, 4), (5, 3), (8, 2)]:
        ref = _full_draw_accuracy(intra, inter, k, N, D, runs, seed=k)
        res = simulate_knn(SimConfig(k=k, N=N, D=D, runs=runs, intra=intra, inter=inter, seed=k))
        p = (ref + res.accuracy) / 2
        # fewer than (k+1)/2 intra draws: both are exactly 0
        assert abs(res.accuracy - ref) <= 4 * np.sqrt(p * (1 - p) * 2 / runs), (N, D, ref, res)


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
    rows = sweep(1, [2], [10], 1000, uni(0, 2), uni(1, 3), seed=4)
    direct = simulate_knn(SimConfig(k=1, N=2, D=10, runs=1000, intra=uni(0, 2), inter=uni(1, 3), seed=4))
    assert rows == [direct]


def test_sweep_accuracy_falls_with_d():
    # overlapping distributions: the shared uniforms make accuracy
    # non-increasing in D, and it clearly falls at these scales
    rows = sweep(1, [2], [10, 100, 1000], 3000, uni(0, 2), uni(1, 3), seed=5)
    accs = [r.accuracy for r in rows]
    assert accs == sorted(accs, reverse=True) and accs[0] > accs[-1], accs


@pytest.mark.parametrize("intra,inter", [
    (FittedDistribution(GEV, {"mu": 1.0, "sigma": 1.0, "xi": 0.5}, 0.0, 10),
     FittedDistribution(GEV, {"mu": 3.0, "sigma": 0.5, "xi": 0.3}, 0.0, 10)),
    (ig(1.0, 0.5), ig(3.0, 100.0)),
], ids=["GEV", "INVERSE_GAUSSIAN"])
@pytest.mark.parametrize("k", [1, 3])
def test_sweep_shares_uniforms_across_cells(intra, inter, k):
    # the cells reuse each run's two uniforms and only the inter order
    # statistic depends on D, so no run turns correct as D grows. The inter
    # lower tails are thin, so counts fall by less than their Monte-Carlo
    # noise per step: fresh uniforms per cell would break the order in 96
    # of 100 seeds across the four cases.
    Ds = [10**2, 10**3, 10**4, 10**5]
    rows = sweep(k, [3], Ds, 1000, intra, inter, seed=8)
    correct = [round(r.accuracy * r.runs) for r in rows]
    assert correct == sorted(correct, reverse=True) and correct[0] > correct[-1], correct


def test_population_of_ten_million_costs_two_uniforms_per_run():
    # the full-draw simulator drew 3e7 inter distances per run here
    import time

    t0 = time.monotonic()
    res = simulate_knn(SimConfig(k=3, N=3, D=10**7, runs=10_000, intra=ig(1.0, 5.0),
                                 inter=ig(3.0, 20.0)))
    assert time.monotonic() - t0 < 1.0
    assert 0.0 < res.accuracy < 0.05


def test_sweep_accuracy_rises_with_n():
    rows = sweep(1, [1, 3, 6], [50], 3000, uni(0, 2), uni(1, 3), seed=6)
    accs = {r.N: r.accuracy for r in rows}
    assert accs[6] > accs[1]


def test_sweep_csv_format(tmp_path):
    rows = sweep(1, [1, 2], [10, 20], 200, uni(0, 2), uni(1, 3), seed=7)
    assert [(r.N, r.D) for r in rows] == [(1, 10), (1, 20), (2, 10), (2, 20)]  # N-major
    p = tmp_path / "sweep.csv"
    write_sweep_csv(rows, p)
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
    table = featurize_dataset(generate_synthetic(12, 5, device_prior=prior, seed=21))
    rep = validate_against_empirical(table, k=1, train_per_device=3, repeats=3, runs=3000, seed=0)
    assert rep.empirical_accuracy == pytest.approx(1.0)
    assert rep.simulated_accuracy >= 0.99
    assert abs(rep.empirical_accuracy - rep.simulated_accuracy) <= 0.01
    assert rep.intra_fit.family == "DEGENERATE"


def test_validate_deterministic():
    table = featurize_dataset(generate_synthetic(8, 5, seed=22))
    r1 = validate_against_empirical(table, repeats=2, runs=500, seed=3)
    r2 = validate_against_empirical(table, repeats=2, runs=500, seed=3)
    assert r1 == r2


def test_validate_fits_do_not_depend_on_dataset_row_order():
    # the simulated arm fits the rows grouped by device, so interleaving the
    # captures of a dataset leaves its LDML model and both fits unchanged
    from sensorprint.dataset import Dataset

    ds = generate_synthetic(8, 5, seed=2)
    interleaved = Dataset()
    for i in range(5):
        for s in ds.samples[i::5]:
            interleaved.add(s)
    a = validate_against_empirical(featurize_dataset(ds), repeats=1, runs=200, use_ldml=True)
    b = validate_against_empirical(featurize_dataset(interleaved), repeats=1, runs=200,
                                   use_ldml=True)
    assert (a.intra_fit, a.inter_fit) == (b.intra_fit, b.inter_fit)
