"""Monte Carlo estimate of k-NN identification accuracy at large scale.

Each run stands for one probe: its distances to the true device's N training
samples are drawn from the intra distribution, its distances to everyone
else's N*(D-1) samples from the inter distribution. The probe is identified
correctly when fewer than k/2 of its k nearest neighbors are imposters.
Distance draws are treated as iid. That simplification decides a run by two
order statistics, so D = 100 000 costs no more than D = 100.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import betaincinv

from .distances import FittedDistribution, distribution_ppf

if TYPE_CHECKING:
    from .features import FeatureTable

Z95 = 1.959963984540054


@dataclass
class SimConfig:
    k: int
    N: int
    D: int
    runs: int
    intra: FittedDistribution
    inter: FittedDistribution
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.k % 2 != 1:
            raise ValueError("k must be odd and >= 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.D < 2:
            raise ValueError("D must be >= 2")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.N * (self.D - 1) > 2**53:  # the inter draw count must be an exact double
            raise ValueError(f"N*(D-1) exceeds 2**53 (N = {self.N}, D = {self.D})")
        if self.k > self.N * self.D:
            raise ValueError("k exceeds the population size N*D")


@dataclass
class SimResult:
    """One simulated cell: the configuration and its accuracy with a 95%
    Wilson interval."""
    k: int
    N: int
    D: int
    runs: int
    accuracy: float
    ci_low: float
    ci_high: float


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    z = Z95
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # at the boundaries the exact bound is 0 or 1; don't leak rounding error
    lo = 0.0 if successes == 0 else max(0.0, float(center - half))
    hi = 1.0 if successes == n else min(1.0, float(center + half))
    return (lo, hi)


def simulate_knn(config: SimConfig) -> SimResult:
    """Estimate identification accuracy for a population of D devices.

    With j = (k+1)/2, a run is correct (ties at the k-th distance filled
    intra first) exactly when the j-th smallest of N intra draws is <= the
    j-th smallest of N*(D-1) inter draws, and never when N < j. The j-th
    smallest of n draws is ppf(U), U ~ Beta(j, n-j+1) (David & Nagaraja,
    Order Statistics, 2.1), so a run costs two uniforms, keyed by the seed
    and the run index alone.
    """
    j = (config.k + 1) // 2
    correct = 0
    if config.N >= j:
        u = np.random.default_rng(config.seed).random((config.runs, 2))
        n_inter = config.N * (config.D - 1)
        intra_j = distribution_ppf(config.intra, betaincinv(j, config.N - j + 1, u[:, 0]))
        inter_j = distribution_ppf(config.inter, betaincinv(j, n_inter - j + 1, u[:, 1]))
        correct = int(np.count_nonzero(intra_j <= inter_j))
    lo, hi = wilson_interval(correct, config.runs)
    return SimResult(config.k, config.N, config.D, config.runs, correct / config.runs, lo, hi)


def sweep(k, N_values, D_values, runs, intra, inter, seed: int = 0) -> list[SimResult]:
    """Simulate every (N, D) cell at fixed k, N-major.

    Every cell uses the same seed, so the same uniforms (common random
    numbers): at fixed N only the inter order statistic depends on D, and it
    can only fall as D grows, so a run correct at some D is correct at every
    smaller D.
    """
    return [simulate_knn(SimConfig(k=k, N=N, D=D, runs=runs, intra=intra, inter=inter, seed=seed))
            for N in N_values for D in D_values]


def write_sweep_csv(rows: list[SimResult], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "N", "D", "runs", "accuracy", "ci_low", "ci_high"])
        for r in rows:
            w.writerow([r.k, r.N, r.D, r.runs, repr(r.accuracy), repr(r.ci_low), repr(r.ci_high)])


@dataclass
class ValidationReport:
    empirical_accuracy: float
    simulated_accuracy: float
    n_devices: int
    intra_fit: FittedDistribution  # reusable for sweeps
    inter_fit: FittedDistribution


def validate_against_empirical(
    table: FeatureTable,
    k: int = 1,
    train_per_device: int = 3,
    repeats: int = 10,
    runs: int = 10_000,
    seed: int = 0,
    use_ldml: bool = False,
) -> ValidationReport:
    """Compare measured k-NN accuracy against the distribution-driven estimate.

    The empirical arm runs the repeated-split protocol on the table; the
    simulated arm fits intra/inter distance distributions on the same rows
    (standardized space, optionally through the learned metric) and feeds the
    top-ranked family of each into the simulator with D = eligible device
    count.
    """
    from .classify import run_protocol
    from .distances import pairwise_distances, rank_families
    from .metric import standardizer, train_ldml

    eligible = table.eligible(train_per_device + 1)
    # rows grouped by device: the standardization sums depend on row order,
    # and the fits have always seen this one (train_ldml and
    # pairwise_distances group the rows themselves)
    rows = np.concatenate(list(eligible.device_rows().values()))
    X, ids = eligible.X[rows], eligible.device_ids[rows]
    model = train_ldml(X, ids, seed=seed) if use_ldml else standardizer(X)
    intra_d, inter_d = pairwise_distances(X, ids, model)
    intra_fit = rank_families(intra_d)[0]
    inter_fit = rank_families(inter_d)[0]

    emp = run_protocol(table, "knn", train_per_device, repeats, seed, k=k, use_ldml=use_ldml)
    sim = simulate_knn(SimConfig(
        k=k, N=train_per_device, D=emp.n_devices, runs=runs,
        intra=intra_fit, inter=inter_fit, seed=seed,
    ))
    return ValidationReport(emp.accuracy_mean, sim.accuracy, emp.n_devices, intra_fit, inter_fit)
