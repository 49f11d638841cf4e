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

import numpy as np
from scipy.special import betaincinv

from .distances import FittedDistribution, distribution_ppf

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
        if self.k > self.N * self.D:
            raise ValueError("k exceeds the population size N*D")


@dataclass
class SimResult:
    accuracy: float
    runs: int
    ci_low: float
    ci_high: float


def wilson_interval(successes: int, n: int, z: float = Z95) -> tuple[float, float]:
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
    return SimResult(accuracy=correct / config.runs, runs=config.runs, ci_low=lo, ci_high=hi)


@dataclass
class SweepRow:
    k: int
    N: int
    D: int
    runs: int
    accuracy: float
    ci_low: float
    ci_high: float


@dataclass
class SweepResult:
    rows: list[SweepRow]
    monotone_in_d: dict[int, bool]  # per N: accuracy non-increasing in D
    monotone_in_n: dict[int, bool]  # per D: accuracy non-decreasing in N


def _step_se(row_a: SweepRow, row_b: SweepRow) -> float:
    se = lambda r: np.sqrt(max(r.accuracy * (1 - r.accuracy), 1e-12) / r.runs)
    return float(np.hypot(se(row_a), se(row_b)))


def _trend_holds(cells: list[SweepRow], falling: bool) -> bool:
    """No step along ``cells`` moves accuracy against the expected direction
    by more than 2 combined std-errors."""
    for ra, rb in zip(cells, cells[1:]):
        tol = 2 * _step_se(ra, rb)
        if (rb.accuracy > ra.accuracy + tol) if falling else (rb.accuracy < ra.accuracy - tol):
            return False
    return True


def sweep(k, N_values, D_values, runs, intra, inter, seed: int = 0) -> SweepResult:
    """Grid of simulations over (N, D) at fixed k, with trend diagnostics.

    Every cell uses the same seed, so the same uniforms (common random
    numbers): at fixed N a run correct at some D is correct at every smaller
    D. The diagnostics check that accuracy falls as the population D grows
    and rises with more training samples N, each within 2 combined
    std-errors per step.
    """
    rows = []
    by_cell = {}
    for N in N_values:
        for D in D_values:
            res = simulate_knn(SimConfig(k=k, N=N, D=D, runs=runs, intra=intra, inter=inter, seed=seed))
            row = SweepRow(k, N, D, runs, res.accuracy, res.ci_low, res.ci_high)
            rows.append(row)
            by_cell[(N, D)] = row
    monotone_in_d = {N: _trend_holds([by_cell[(N, D)] for D in sorted(D_values)], falling=True)
                     for N in N_values}
    monotone_in_n = {D: _trend_holds([by_cell[(N, D)] for N in sorted(N_values)], falling=False)
                     for D in D_values}
    return SweepResult(rows=rows, monotone_in_d=monotone_in_d, monotone_in_n=monotone_in_n)


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "N", "D", "runs", "accuracy", "ci_low", "ci_high"])
        for r in result.rows:
            w.writerow([r.k, r.N, r.D, r.runs, repr(r.accuracy), repr(r.ci_low), repr(r.ci_high)])


@dataclass
class ValidationReport:
    empirical_accuracy: float
    simulated_accuracy: float
    gap: float
    n_devices: int
    intra_family: str
    inter_family: str
    k: int
    train_per_device: int
    intra_fit: object = None  # FittedDistribution, reusable for sweeps
    inter_fit: object = None

    def to_dict(self) -> dict:
        return {
            "empirical_accuracy": self.empirical_accuracy,
            "simulated_accuracy": self.simulated_accuracy,
            "gap": self.gap,
            "n_devices": self.n_devices,
            "intra_family": self.intra_family,
            "inter_family": self.inter_family,
            "intra_params": dict(self.intra_fit.params) if self.intra_fit else None,
            "inter_params": dict(self.inter_fit.params) if self.inter_fit else None,
            "k": self.k,
            "train_per_device": self.train_per_device,
        }


def validate_against_empirical(
    dataset,
    k: int = 1,
    train_per_device: int = 3,
    repeats: int = 10,
    runs: int = 10_000,
    seed: int = 0,
    use_ldml: bool = False,
    fs_target: float = 100.0,
) -> ValidationReport:
    """Compare measured k-NN accuracy against the distribution-driven estimate.

    The empirical arm runs the repeated-split protocol; the simulated arm
    fits intra/inter distance distributions on the same dataset (standardized
    space, optionally through the learned metric) and feeds the top-ranked
    family of each into the simulator with D = eligible device count.
    """
    from .classify import run_protocol
    from .distances import DEGENERATE, FittedDistribution, pairwise_distances, rank_families
    from .features import featurize_dataset
    from .metric import standardizer, train_ldml

    def fit_top(values: np.ndarray) -> FittedDistribution:
        if np.ptp(values) <= 1e-9 * max(1.0, float(np.max(np.abs(values)))):
            # repeated samples collapse the population to a point (up to
            # float residue); no continuous family applies, use a point mass
            return FittedDistribution(
                DEGENERATE, {"value": float(np.median(values))},
                log_likelihood=0.0, aic=2.0, n=len(values),
            )
        return rank_families(values)[0]

    table = featurize_dataset(dataset, fs_target)
    emp = run_protocol(table, "knn", train_per_device, repeats, seed, k=k, use_ldml=use_ldml)

    eligible = table.eligible(train_per_device + 1)
    # rows grouped by device: LDML's pair draws and the standardization
    # sums depend on row order, and the fits have always seen this one
    rows = np.concatenate(list(eligible.device_rows().values()))
    X, ids = eligible.X[rows], eligible.device_ids[rows]
    model = train_ldml(X, ids, seed=seed) if use_ldml else standardizer(X)
    intra_d, inter_d = pairwise_distances(X, ids, model)
    intra_fit = fit_top(intra_d)
    inter_fit = fit_top(inter_d)

    sim = simulate_knn(SimConfig(
        k=k, N=train_per_device, D=emp.n_devices, runs=runs,
        intra=intra_fit, inter=inter_fit, seed=seed,
    ))
    return ValidationReport(
        empirical_accuracy=emp.accuracy_mean,
        simulated_accuracy=sim.accuracy,
        gap=abs(emp.accuracy_mean - sim.accuracy),
        n_devices=emp.n_devices,
        intra_family=intra_fit.family,
        inter_family=inter_fit.family,
        k=k,
        train_per_device=train_per_device,
        intra_fit=intra_fit,
        inter_fit=inter_fit,
    )
