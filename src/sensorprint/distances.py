"""Intra-/inter-device distance populations and parametric family fitting.

Distances between transformed feature vectors of the same device form one
population (intra), cross-device pairs another (inter). Each population is
fit by maximum likelihood against five candidate families and the fits are
ranked by AIC. Densities, CDFs, and samplers are written out explicitly so
the fitted objects are self-contained and cheap to draw from in bulk.

Parameterizations:
  INVERSE_GAUSSIAN  mu > 0, lam > 0
  GEV               mu, sigma > 0, xi  (support: 1 + xi*(x-mu)/sigma > 0)
  LOG_NORMAL        mu, sigma > 0     (of log x)
  GAMMA             shape k > 0, scale theta > 0
  WEIBULL           shape k > 0, scale lam > 0
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, gammaln, log_ndtr, ndtr

log = logging.getLogger(__name__)

INVERSE_GAUSSIAN = "INVERSE_GAUSSIAN"
GEV = "GEV"
LOG_NORMAL = "LOG_NORMAL"
GAMMA = "GAMMA"
WEIBULL = "WEIBULL"
FAMILIES = (INVERSE_GAUSSIAN, GEV, LOG_NORMAL, GAMMA, WEIBULL)

# injectable distributions: samplable and evaluable but never fit candidates.
# DEGENERATE (a point mass) is the honest limit for zero-dispersion
# populations, e.g. intra distances of exactly repeated samples.
UNIFORM = "UNIFORM"
DEGENERATE = "DEGENERATE"

POSITIVE_ONLY = (INVERSE_GAUSSIAN, LOG_NORMAL, GAMMA, WEIBULL)

EULER_GAMMA = 0.5772156649015329

_PARAM_NAMES = {
    INVERSE_GAUSSIAN: ("mu", "lam"),
    GEV: ("mu", "sigma", "xi"),
    LOG_NORMAL: ("mu", "sigma"),
    GAMMA: ("shape", "scale"),
    WEIBULL: ("shape", "scale"),
    UNIFORM: ("lo", "hi"),
    DEGENERATE: ("value",),
}


@dataclass
class DistancePopulation:
    kind: str  # "intra" | "inter"
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("intra", "inter"):
            raise ValueError("kind must be 'intra' or 'inter'")
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < 0):
            raise ValueError("distances must be >= 0")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass
class FittedDistribution:
    family: str
    params: dict[str, float]
    log_likelihood: float
    aic: float
    n: int

    def __post_init__(self):
        if self.family not in _PARAM_NAMES:
            raise ValueError(f"unknown family {self.family!r}")
        names = _PARAM_NAMES[self.family]
        if set(self.params) != set(names):
            raise ValueError(f"{self.family} params must be named {names}")
        self.params = {k: float(self.params[k]) for k in names}
        expected_aic = 2 * len(names) - 2 * self.log_likelihood
        if abs(self.aic - expected_aic) > 1e-9 * max(1.0, abs(expected_aic)):
            raise ValueError("aic inconsistent with log-likelihood")
        p = self.params
        ok = {
            INVERSE_GAUSSIAN: lambda: p["mu"] > 0 and p["lam"] > 0,
            GEV: lambda: p["sigma"] > 0,
            LOG_NORMAL: lambda: p["sigma"] > 0,
            GAMMA: lambda: p["shape"] > 0 and p["scale"] > 0,
            WEIBULL: lambda: p["shape"] > 0 and p["scale"] > 0,
            UNIFORM: lambda: p["lo"] < p["hi"],
            DEGENERATE: lambda: np.isfinite(p["value"]),
        }[self.family]
        if not ok():
            raise ValueError(f"{self.family} params outside domain: {p}")


def pairwise_distances(vectors_by_device: dict, model=None) -> tuple[DistancePopulation, DistancePopulation]:
    """Split all unordered pairwise distances into intra/inter populations.

    ``vectors_by_device`` maps device id -> matrix of feature vectors. When a
    metric model is given, vectors are transformed first and distances are
    Euclidean in the learned space. Devices with a single sample contribute
    only cross-device pairs.
    """
    from .metric import transform

    if len(vectors_by_device) < 2:
        raise ValueError("need >= 2 devices")
    devs = list(vectors_by_device)
    mats = []
    for d in devs:
        V = np.atleast_2d(np.asarray(vectors_by_device[d], dtype=float))
        mats.append(transform(model, V) if model is not None else V)
    intra = []
    for V in mats:
        if len(V) >= 2:
            i, j = np.triu_indices(len(V), k=1)
            diff = V[i] - V[j]
            intra.append(np.sqrt(np.sum(diff * diff, axis=1)))
    inter = []
    for a in range(len(devs)):
        for b in range(a + 1, len(devs)):
            diff = mats[a][:, None, :] - mats[b][None, :, :]
            inter.append(np.sqrt(np.sum(diff * diff, axis=2)).ravel())
    if not intra:
        raise ValueError("no eligible pairs: no device has >= 2 samples")
    return (
        DistancePopulation("intra", np.concatenate(intra)),
        DistancePopulation("inter", np.concatenate(inter)),
    )


# ---------------------------------------------------------------------------
# Densities, CDFs, analytic means.


def _logpdf_ig(x, mu, lam):
    return 0.5 * (np.log(lam) - np.log(2 * np.pi) - 3 * np.log(x)) - lam * (x - mu) ** 2 / (
        2 * mu**2 * x
    )


def _logpdf_gev(x, mu, sigma, xi):
    z = (x - mu) / sigma
    if abs(xi) < 1e-12:
        return -np.log(sigma) - z - np.exp(-z)
    t = 1 + xi * z
    if np.any(t <= 0):
        return np.full(np.shape(x), -np.inf)
    return -np.log(sigma) - (1 + 1 / xi) * np.log(t) - t ** (-1 / xi)


def _logpdf_lognormal(x, mu, sigma):
    lx = np.log(x)
    return -lx - np.log(sigma) - 0.5 * np.log(2 * np.pi) - (lx - mu) ** 2 / (2 * sigma**2)


def _logpdf_gamma(x, shape, scale):
    return (shape - 1) * np.log(x) - x / scale - shape * np.log(scale) - gammaln(shape)


def _logpdf_weibull(x, shape, scale):
    z = x / scale
    return np.log(shape) - np.log(scale) + (shape - 1) * np.log(z) - z**shape


def distribution_logpdf(dist: FittedDistribution, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    p = dist.params
    if dist.family == INVERSE_GAUSSIAN:
        return _logpdf_ig(x, p["mu"], p["lam"])
    if dist.family == GEV:
        return _logpdf_gev(x, p["mu"], p["sigma"], p["xi"])
    if dist.family == LOG_NORMAL:
        return _logpdf_lognormal(x, p["mu"], p["sigma"])
    if dist.family == GAMMA:
        return _logpdf_gamma(x, p["shape"], p["scale"])
    if dist.family == WEIBULL:
        return _logpdf_weibull(x, p["shape"], p["scale"])
    if dist.family == UNIFORM:
        inside = (x >= p["lo"]) & (x <= p["hi"])
        return np.where(inside, -np.log(p["hi"] - p["lo"]), -np.inf)
    # point mass: log-density 0 on the atom under the counting measure
    return np.where(x == p["value"], 0.0, -np.inf)


def distribution_cdf(dist: FittedDistribution, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    p = dist.params
    if dist.family == INVERSE_GAUSSIAN:
        mu, lam = p["mu"], p["lam"]
        with np.errstate(divide="ignore"):
            s = np.sqrt(lam / x)
        # second term computed in log space: e^(2 lam/mu) underflows otherwise
        return ndtr(s * (x / mu - 1)) + np.exp(2 * lam / mu + log_ndtr(-s * (x / mu + 1)))
    if dist.family == GEV:
        mu, sigma, xi = p["mu"], p["sigma"], p["xi"]
        z = (x - mu) / sigma
        if abs(xi) < 1e-12:
            return np.exp(-np.exp(-z))
        t = 1 + xi * z
        out = np.where(t > 0, np.exp(-np.maximum(t, 1e-300) ** (-1 / xi)), 0.0)
        # above the upper endpoint (xi < 0) the CDF is 1
        if xi < 0:
            out = np.where(t <= 0, 1.0, out)
        return out
    if dist.family == LOG_NORMAL:
        return ndtr((np.log(x) - p["mu"]) / p["sigma"])
    if dist.family == GAMMA:
        return gammainc(p["shape"], x / p["scale"])
    if dist.family == WEIBULL:
        z = x / p["scale"]
        return 1.0 - np.exp(-(z ** p["shape"]))
    if dist.family == UNIFORM:
        return np.clip((x - p["lo"]) / (p["hi"] - p["lo"]), 0.0, 1.0)
    return np.where(x >= p["value"], 1.0, 0.0)


def distribution_mean(dist: FittedDistribution) -> float:
    """Analytic mean; nan when the family/params leave it undefined."""
    p = dist.params
    if dist.family == INVERSE_GAUSSIAN:
        return p["mu"]
    if dist.family == GEV:
        xi = p["xi"]
        if xi >= 1:
            return float("nan")
        if abs(xi) < 1e-12:
            return p["mu"] + p["sigma"] * EULER_GAMMA
        return p["mu"] + p["sigma"] * (gamma_fn(1 - xi) - 1) / xi
    if dist.family == LOG_NORMAL:
        return float(np.exp(p["mu"] + p["sigma"] ** 2 / 2))
    if dist.family == GAMMA:
        return p["shape"] * p["scale"]
    if dist.family == WEIBULL:
        return p["scale"] * float(gamma_fn(1 + 1 / p["shape"]))
    if dist.family == UNIFORM:
        return 0.5 * (p["lo"] + p["hi"])
    return p["value"]


# ---------------------------------------------------------------------------
# Maximum-likelihood fitting.


def _check_samples(x, family):
    x = np.asarray(x, dtype=float)
    if len(x) < 8:
        raise ValueError(f"need >= 8 samples, got {len(x)}")
    if np.std(x) == 0:
        raise ValueError("degenerate: zero dispersion")
    if family in POSITIVE_ONLY and np.any(x <= 0):
        raise ValueError(f"{family} requires strictly positive samples")
    return x


def _fit_closed_form(x, family):
    n = len(x)
    if family == INVERSE_GAUSSIAN:
        mu = float(np.mean(x))
        lam = float(1.0 / np.mean(1.0 / x - 1.0 / mu))
        params = {"mu": mu, "lam": lam}
        ll = float(np.sum(_logpdf_ig(x, mu, lam)))
    else:  # LOG_NORMAL
        lx = np.log(x)
        mu = float(np.mean(lx))
        sigma = float(np.std(lx))
        params = {"mu": mu, "sigma": sigma}
        ll = float(np.sum(_logpdf_lognormal(x, mu, sigma)))
    return params, ll


def _nll_and_inits(x, family):
    """Objective over unconstrained parameters plus 3 deterministic starts."""
    m, s = np.mean(x), np.std(x)
    if family == GEV:
        sigma0 = s * np.sqrt(6) / np.pi
        mu0 = m - EULER_GAMMA * sigma0
        inits = [
            np.array([mu0, np.log(sigma0), 0.1]),
            np.array([mu0 - 0.3 * sigma0, np.log(sigma0 * 0.7), -0.1]),
            np.array([mu0 + 0.3 * sigma0, np.log(sigma0 * 1.4), 0.3]),
        ]

        def nll(theta):
            mu, log_sigma, xi = theta
            lp = _logpdf_gev(x, mu, np.exp(log_sigma), xi)
            # support violation: large finite penalty keeps the simplex sane
            return -np.sum(lp) if np.all(np.isfinite(lp)) else 1e300

        unpack = lambda th: {"mu": float(th[0]), "sigma": float(np.exp(th[1])), "xi": float(th[2])}
    elif family == GAMMA:
        k0 = max(m * m / (s * s), 1e-3)
        inits = [
            np.log([k0, m / k0]),
            np.log([k0 * 0.5, m / (k0 * 0.5)]),
            np.log([k0 * 2.0, m / (k0 * 2.0)]),
        ]

        def nll(theta):
            return -np.sum(_logpdf_gamma(x, np.exp(theta[0]), np.exp(theta[1])))

        unpack = lambda th: {"shape": float(np.exp(th[0])), "scale": float(np.exp(th[1]))}
    else:  # WEIBULL
        k0 = max((s / m) ** -1.086, 1e-2) if m > 0 else 1.0
        lam0 = m / gamma_fn(1 + 1 / k0)
        inits = [
            np.log([k0, lam0]),
            np.log([k0 * 0.6, lam0 * 0.8]),
            np.log([k0 * 1.8, lam0 * 1.2]),
        ]

        def nll(theta):
            return -np.sum(_logpdf_weibull(x, np.exp(theta[0]), np.exp(theta[1])))

        unpack = lambda th: {"shape": float(np.exp(th[0])), "scale": float(np.exp(th[1]))}
    return nll, inits, unpack


def fit_family(samples, family: str) -> FittedDistribution:
    """Maximum-likelihood fit of one family.

    Inverse Gaussian and log-normal have closed-form estimators; the rest run
    Nelder-Mead on the negative log-likelihood from 3 deterministic starts
    (simplex tolerance 1e-8, at most 2000 evaluations per start).
    """
    if family not in FAMILIES:
        raise ValueError(f"family {family!r} is not a fit candidate")
    x = _check_samples(samples, family)
    n = len(x)
    if family in (INVERSE_GAUSSIAN, LOG_NORMAL):
        params, ll = _fit_closed_form(x, family)
    else:
        nll, inits, unpack = _nll_and_inits(x, family)
        best = None
        for theta0 in inits:
            res = optimize.minimize(
                nll, theta0, method="Nelder-Mead",
                options={"xatol": 1e-8, "fatol": 1e-8, "maxfev": 2000},
            )
            if np.isfinite(res.fun) and res.success and (best is None or res.fun < best.fun):
                best = res
        if best is None:
            raise RuntimeError(f"{family} MLE did not converge from any start")
        params = unpack(best.x)
        ll = float(-best.fun)
    k = len(_PARAM_NAMES[family])
    return FittedDistribution(family=family, params=params, log_likelihood=ll, aic=2 * k - 2 * ll, n=n)


def rank_families(samples, families=FAMILIES) -> list[FittedDistribution]:
    """Fit each family and sort ascending by AIC; failed fits are dropped."""
    fits = []
    for fam in families:
        try:
            fits.append(fit_family(samples, fam))
        except (ValueError, RuntimeError) as e:
            log.warning("fit of %s excluded: %s", fam, e)
    if not fits:
        raise ValueError("all family fits failed")
    return sorted(fits, key=lambda f: f.aic)


@dataclass
class SubsetStability:
    kind: str
    subsets: list[list[str]]
    rankings: list[list[FittedDistribution]]
    full_ranking: list[FittedDistribution]
    agreement: bool


def subset_stability(
    vectors_by_device: dict,
    model=None,
    n_subsets: int = 4,
    families=FAMILIES,
    seed: int = 0,
    kind: str = "inter",
) -> SubsetStability:
    """Random equal split of the devices; check the top family holds per subset.

    ``kind`` selects which distance population ("intra" or "inter") is fit.
    """
    devs = list(vectors_by_device)
    if n_subsets > len(devs):
        raise ValueError("more subsets than devices")
    if len(devs) < 2 * n_subsets:
        raise ValueError(f"need >= {2 * n_subsets} devices for {n_subsets} subsets")
    which = {"intra": 0, "inter": 1}[kind]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(devs))
    groups = np.array_split(order, n_subsets)
    full = rank_families(pairwise_distances(vectors_by_device, model)[which].values, families)
    subsets, rankings = [], []
    for g in groups:
        sub = {devs[i]: vectors_by_device[devs[i]] for i in g}
        subsets.append(list(sub))
        rankings.append(rank_families(pairwise_distances(sub, model)[which].values, families))
    top = full[0].family
    agreement = all(r[0].family == top for r in rankings)
    return SubsetStability(kind, subsets, rankings, full, agreement)


# ---------------------------------------------------------------------------
# Sampling.


def sample_distribution(dist: FittedDistribution, rng: np.random.Generator, size=None):
    """Draw from a fitted family; scalar when size is None, else an array.

    Inverse Gaussian uses the Michael-Schucany-Haas transformation; GEV and
    Weibull invert their CDFs; log-normal exponentiates a normal; gamma uses
    the generator's gamma stream.
    """
    p = dist.params
    n = 1 if size is None else size
    if dist.family == INVERSE_GAUSSIAN:
        mu, lam = p["mu"], p["lam"]
        y = rng.standard_normal(n) ** 2
        x = mu + mu**2 * y / (2 * lam) - mu / (2 * lam) * np.sqrt(4 * mu * lam * y + mu**2 * y**2)
        u = rng.random(n)
        out = np.where(u <= mu / (mu + x), x, mu**2 / x)
    elif dist.family == GEV:
        mu, sigma, xi = p["mu"], p["sigma"], p["xi"]
        u = rng.random(n)
        if abs(xi) < 1e-12:
            out = mu - sigma * np.log(-np.log(u))
        else:
            out = mu + sigma * ((-np.log(u)) ** -xi - 1) / xi
    elif dist.family == LOG_NORMAL:
        out = np.exp(p["mu"] + p["sigma"] * rng.standard_normal(n))
    elif dist.family == GAMMA:
        out = rng.gamma(p["shape"], p["scale"], size=n)
    elif dist.family == WEIBULL:
        u = rng.random(n)
        out = p["scale"] * (-np.log1p(-u)) ** (1.0 / p["shape"])
    elif dist.family == UNIFORM:
        out = rng.uniform(p["lo"], p["hi"], size=n)
    else:  # DEGENERATE
        out = np.full(n, p["value"])
    return float(out[0]) if size is None else out


def ks_statistic(samples, dist: FittedDistribution) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of samples against the fitted CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    c = distribution_cdf(dist, x)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(np.abs(c - upper)), np.max(np.abs(c - lower))))


# ---------------------------------------------------------------------------
# Serialization.


def save_fitted(dist: FittedDistribution, population_kind: str, path) -> None:
    if population_kind not in ("intra", "inter"):
        raise ValueError("population_kind must be 'intra' or 'inter'")
    payload = {
        "class": population_kind,
        "family": dist.family,
        "params": dist.params,
        "loglik": dist.log_likelihood,
        "aic": dist.aic,
        "n": dist.n,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_fitted(path) -> tuple[str, FittedDistribution]:
    """Read a save_fitted file; a missing or ill-typed key is a ValueError."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        dist = FittedDistribution(
            family=payload["family"],
            params={k: float(v) for k, v in payload["params"].items()},
            log_likelihood=float(payload["loglik"]),
            aic=float(payload["aic"]),
            n=int(payload["n"]),
        )
        kind = payload["class"]
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError(f"malformed distribution fit: {e!r}") from None
    return kind, dist
