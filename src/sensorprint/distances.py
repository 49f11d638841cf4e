"""Intra-/inter-device distance populations and parametric family fitting.

Distances between transformed feature vectors of the same device form one
population (intra), cross-device pairs another (inter). Each population is
fit by maximum likelihood against five candidate families and the fits are
ranked by AIC. Densities, CDFs and quantile functions are written out
explicitly so the fitted objects are self-contained; a draw is the quantile
function of a uniform, so one function serves sampling and order statistics.

Each family is described in one place, its ``_Family`` record in
``_FAMILIES``: adding a family is adding one record (and its name to
``FAMILIES`` if it is a fit candidate).

Parameterizations:
  INVERSE_GAUSSIAN  mu > 0, lam > 0
  GEV               mu, sigma > 0, xi  (support: 1 + xi*(x-mu)/sigma > 0)
  LOG_NORMAL        mu, sigma > 0     (of log x)
  GAMMA             shape k > 0, scale theta > 0
  WEIBULL           shape k > 0, scale lam > 0
  UNIFORM           lo < hi
  DEGENERATE        value             (a point mass)
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, gammaincinv, gammaln, log_ndtr, ndtr, ndtri

log = logging.getLogger(__name__)

INVERSE_GAUSSIAN = "INVERSE_GAUSSIAN"
GEV = "GEV"
LOG_NORMAL = "LOG_NORMAL"
GAMMA = "GAMMA"
WEIBULL = "WEIBULL"
FAMILIES = (INVERSE_GAUSSIAN, GEV, LOG_NORMAL, GAMMA, WEIBULL)

# injectable distributions: drawable and evaluable but never fit candidates.
# DEGENERATE (a point mass) is the honest limit for zero-dispersion
# populations, e.g. intra distances of exactly repeated samples.
UNIFORM = "UNIFORM"
DEGENERATE = "DEGENERATE"

EULER_GAMMA = 0.5772156649015329


@dataclass
class FittedDistribution:
    family: str
    params: dict[str, float]
    log_likelihood: float
    aic: float
    n: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        fam = _FAMILIES[self.family]
        if set(self.params) != set(fam.params):
            raise ValueError(f"{self.family} params must be named {fam.params}")
        self.params = {k: float(self.params[k]) for k in fam.params}
        if not np.all(np.isfinite([*self.params.values(), self.log_likelihood, self.aic])):
            raise ValueError(f"non-finite {self.family} fit: {self.params}, "
                             f"loglik {self.log_likelihood}, aic {self.aic}")
        expected_aic = 2 * len(fam.params) - 2 * self.log_likelihood
        if abs(self.aic - expected_aic) > 1e-9 * max(1.0, abs(expected_aic)):
            raise ValueError("aic inconsistent with log-likelihood")
        if not fam.valid(**self.params):
            raise ValueError(f"{self.family} params outside domain: {self.params}")


def pairwise_distances(X, device_ids, model=None) -> tuple[np.ndarray, np.ndarray]:
    """Split all unordered pairwise distances into ``(intra, inter)`` arrays.

    Row i of ``X`` is a capture of ``device_ids[i]``; devices come in
    first-seen order, each with its rows in ``X`` order. When a metric model
    is given, the rows are transformed first and distances are Euclidean in
    the learned space. Devices with a single sample contribute only
    cross-device pairs.
    """
    from .features import rows_by_device
    from .metric import cross_distances, transform

    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) != len(device_ids):
        raise ValueError("feature rows and device ids must align")
    groups = list(rows_by_device(device_ids).values())
    if len(groups) < 2:
        raise ValueError("need >= 2 devices")
    if model is not None:
        X = transform(model, X)
    G = X[np.concatenate(groups)]  # rows grouped by device
    starts = np.cumsum([0] + [len(g) for g in groups])
    intra, inter = [], []
    for a in range(len(groups)):
        V, later = G[starts[a]:starts[a + 1]], G[starts[a + 1]:]
        if len(V) >= 2:
            intra.append(cross_distances(V, V)[np.triu_indices(len(V), k=1)])
        # device a against all later rows at once, cut into one row-major
        # block per later device
        d = cross_distances(V, later)
        inter.extend(blk.ravel() for blk in np.split(d, starts[a + 2:-1] - starts[a + 1], axis=1))
    if not intra:
        raise ValueError("no eligible pairs: no device has >= 2 samples")
    return np.concatenate(intra), np.concatenate(inter)


# ---------------------------------------------------------------------------
# The family table: densities, CDFs, quantile functions and fitting.


@dataclass(frozen=True)
class _Family:
    """One family; every function takes the parameters by name, and
    ``ppf(u, **params)`` is the quantile function, non-decreasing in u on
    [0, 1]. A fit candidate has either a
    closed-form ``estimate(x) -> params`` or three Nelder-Mead ``starts(mean,
    std)`` over ``params``, with each name in ``log_params`` fit as its log.
    """

    params: tuple[str, ...]
    valid: Callable[..., bool]
    logpdf: Callable[..., np.ndarray]
    cdf: Callable[..., np.ndarray]
    ppf: Callable[..., np.ndarray]
    positive: bool = False  # support x > 0; fits require strictly positive samples
    estimate: Callable[[np.ndarray], dict] | None = None
    starts: Callable[[float, float], list] | None = None
    log_params: tuple[str, ...] = ()


def _ig_logpdf(x, mu, lam):
    return 0.5 * (np.log(lam) - np.log(2 * np.pi) - 3 * np.log(x)) - lam * (x - mu) ** 2 / (
        2 * mu**2 * x
    )


def _ig_cdf(x, mu, lam):
    with np.errstate(divide="ignore"):
        s = np.sqrt(lam / x)
    # second term computed in log space: e^(2 lam/mu) underflows otherwise
    return ndtr(s * (x / mu - 1)) + np.exp(2 * lam / mu + log_ndtr(-s * (x / mu + 1)))


def _ig_ppf(u, mu, lam):
    # no closed form: 64 halvings of log x in log(mu) +- 60 end below the
    # spacing of doubles, and the bracket holds for moderate lam / mu
    lo = np.full(np.shape(u), np.log(mu) - 60.0)
    hi = lo + 120.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = _ig_cdf(np.exp(mid), mu, lam) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.where(u <= 0, 0.0, np.where(u >= 1, np.inf, np.exp(hi)))


def _ig_estimate(x):
    mu = float(np.mean(x))
    return {"mu": mu, "lam": float(1.0 / np.mean(1.0 / x - 1.0 / mu))}


def _gev_logpdf(x, mu, sigma, xi):
    z = (x - mu) / sigma
    if abs(xi) < 1e-12:
        return -np.log(sigma) - z - np.exp(-z)
    t = 1 + xi * z
    off = t <= 0
    t = np.where(off, 1.0, t)  # off the support: -inf, without a log of t <= 0
    return np.where(off, -np.inf, -np.log(sigma) - (1 + 1 / xi) * np.log(t) - t ** (-1 / xi))


def _gev_cdf(x, mu, sigma, xi):
    z = (x - mu) / sigma
    if abs(xi) < 1e-12:
        return np.exp(-np.exp(-z))
    t = 1 + xi * z
    out = np.where(t > 0, np.exp(-np.maximum(t, 1e-300) ** (-1 / xi)), 0.0)
    # above the upper endpoint (xi < 0) the CDF is 1
    if xi < 0:
        out = np.where(t <= 0, 1.0, out)
    return out


def _gev_ppf(u, mu, sigma, xi):
    t = np.abs(np.log(u))  # -log u, without a -0.0 that would flip an odd power
    if abs(xi) < 1e-12:
        return mu - sigma * np.log(t)
    return mu + sigma * (t**-xi - 1) / xi


def _gev_starts(m, s):
    sigma0 = s * np.sqrt(6) / np.pi
    mu0 = m - EULER_GAMMA * sigma0
    return [np.array([mu0 + a * sigma0, np.log(sigma0 * b), xi])
            for a, b, xi in ((0.0, 1.0, 0.1), (-0.3, 0.7, -0.1), (0.3, 1.4, 0.3))]


def _lognormal_logpdf(x, mu, sigma):
    lx = np.log(x)
    return -lx - np.log(sigma) - 0.5 * np.log(2 * np.pi) - (lx - mu) ** 2 / (2 * sigma**2)


def _gamma_starts(m, s):
    k0 = max(m * m / (s * s), 1e-3)
    return [np.log([k, m / k]) for k in (k0, k0 * 0.5, k0 * 2.0)]


def _weibull_starts(m, s):
    k0 = max((s / m) ** -1.086, 1e-2) if m > 0 else 1.0
    lam0 = m / gamma_fn(1 + 1 / k0)
    return [np.log([k0 * a, lam0 * b]) for a, b in ((1.0, 1.0), (0.6, 0.8), (1.8, 1.2))]


_FAMILIES = {
    INVERSE_GAUSSIAN: _Family(
        params=("mu", "lam"),
        valid=lambda mu, lam: mu > 0 and lam > 0,
        logpdf=_ig_logpdf,
        cdf=_ig_cdf,
        ppf=_ig_ppf,
        positive=True,
        estimate=_ig_estimate,
    ),
    GEV: _Family(
        params=("mu", "sigma", "xi"),
        valid=lambda mu, sigma, xi: sigma > 0,
        logpdf=_gev_logpdf,
        cdf=_gev_cdf,
        ppf=_gev_ppf,
        starts=_gev_starts,
        log_params=("sigma",),
    ),
    LOG_NORMAL: _Family(
        params=("mu", "sigma"),
        valid=lambda mu, sigma: sigma > 0,
        logpdf=_lognormal_logpdf,
        cdf=lambda x, mu, sigma: ndtr((np.log(x) - mu) / sigma),
        ppf=lambda u, mu, sigma: np.exp(mu + sigma * ndtri(u)),
        positive=True,
        estimate=lambda x: {"mu": float(np.mean(np.log(x))), "sigma": float(np.std(np.log(x)))},
    ),
    GAMMA: _Family(
        params=("shape", "scale"),
        valid=lambda shape, scale: shape > 0 and scale > 0,
        logpdf=lambda x, shape, scale: (
            (shape - 1) * np.log(x) - x / scale - shape * np.log(scale) - gammaln(shape)
        ),
        cdf=lambda x, shape, scale: gammainc(shape, x / scale),
        ppf=lambda u, shape, scale: scale * gammaincinv(shape, u),
        positive=True,
        starts=_gamma_starts,
        log_params=("shape", "scale"),
    ),
    WEIBULL: _Family(
        params=("shape", "scale"),
        valid=lambda shape, scale: shape > 0 and scale > 0,
        logpdf=lambda x, shape, scale: (
            np.log(shape) - np.log(scale) + (shape - 1) * np.log(x / scale) - (x / scale) ** shape
        ),
        cdf=lambda x, shape, scale: -np.expm1(-((x / scale) ** shape)),
        ppf=lambda u, shape, scale: scale * (-np.log1p(-u)) ** (1.0 / shape),
        positive=True,
        starts=_weibull_starts,
        log_params=("shape", "scale"),
    ),
    UNIFORM: _Family(
        params=("lo", "hi"),
        valid=lambda lo, hi: lo < hi,
        logpdf=lambda x, lo, hi: np.where((x >= lo) & (x <= hi), -np.log(hi - lo), -np.inf),
        cdf=lambda x, lo, hi: np.clip((x - lo) / (hi - lo), 0.0, 1.0),
        ppf=lambda u, lo, hi: lo + (hi - lo) * u,
    ),
    DEGENERATE: _Family(
        params=("value",),
        valid=lambda value: True,
        # point mass: log-density 0 on the atom under the counting measure
        logpdf=lambda x, value: np.where(x == value, 0.0, -np.inf),
        cdf=lambda x, value: np.where(x >= value, 1.0, 0.0),
        ppf=lambda u, value: np.full(np.shape(u), value),
    ),
}

def _evaluate(dist: FittedDistribution, f, x, below_zero: float) -> np.ndarray:
    """``f`` at x; a positive family gives ``below_zero`` at x < 0, where f
    sees x = 1 instead so that no invalid-value warning escapes."""
    x = np.asarray(x, dtype=float)
    neg = (x < 0) & _FAMILIES[dist.family].positive
    return np.where(neg, below_zero, f(np.where(neg, 1.0, x), **dist.params))


def distribution_logpdf(dist: FittedDistribution, x) -> np.ndarray:
    return _evaluate(dist, _FAMILIES[dist.family].logpdf, x, -np.inf)


def distribution_cdf(dist: FittedDistribution, x) -> np.ndarray:
    return _evaluate(dist, _FAMILIES[dist.family].cdf, x, 0.0)


def distribution_ppf(dist: FittedDistribution, u) -> np.ndarray:
    """Quantile function at u in [0, 1]: ``distribution_ppf(d, rng.random(n))``
    draws n values, and the ends give the support's bounds."""
    with np.errstate(divide="ignore"):  # the ends: log(0) and 0 ** -a are infinite
        return _FAMILIES[dist.family].ppf(np.asarray(u, dtype=float), **dist.params)


# ---------------------------------------------------------------------------
# Maximum-likelihood fitting.


def _check_samples(x, family):
    x = np.asarray(x, dtype=float)
    if len(x) < 8:
        raise ValueError(f"need >= 8 samples, got {len(x)}")
    if np.std(x) == 0:
        raise ValueError("degenerate: zero dispersion")
    if _FAMILIES[family].positive and np.any(x <= 0):
        raise ValueError(f"{family} requires strictly positive samples")
    return x


def fit_family(samples, family: str) -> FittedDistribution:
    """Maximum-likelihood fit of one family.

    Inverse Gaussian and log-normal have closed-form estimators; the rest run
    Nelder-Mead on the negative log-likelihood from 3 deterministic starts
    (simplex tolerance 1e-8, at most 2000 evaluations per start).
    """
    from scipy import optimize  # only fits need the optimizer; keep it off import

    if family not in FAMILIES:
        raise ValueError(f"family {family!r} is not a fit candidate")
    fam = _FAMILIES[family]
    x = _check_samples(samples, family)
    if fam.estimate is not None:
        params = fam.estimate(x)
        ll = float(np.sum(fam.logpdf(x, **params)))
    else:
        def unpack(theta):
            return {k: float(np.exp(t) if k in fam.log_params else t)
                    for k, t in zip(fam.params, theta)}

        def nll(theta):
            lp = fam.logpdf(x, **unpack(theta))
            # off-support (GEV): large finite penalty keeps the simplex sane
            return -np.sum(lp) if np.all(np.isfinite(lp)) else 1e300

        best = None
        for theta0 in fam.starts(np.mean(x), np.std(x)):
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
    aic = 2 * len(fam.params) - 2 * ll
    return FittedDistribution(family=family, params=params, log_likelihood=ll, aic=aic, n=len(x))


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
