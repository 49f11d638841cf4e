"""Intra-/inter-device distance populations and parametric family fitting.

Distances between transformed feature vectors of the same device form one
population (intra), cross-device pairs another (inter). Each population is
fit by maximum likelihood against five candidate families and the fits are
ranked by AIC. Densities, CDFs and quantile functions are written out
explicitly so the fitted objects are self-contained; a draw is the quantile
function of a uniform, so one function serves sampling and order statistics.
Each candidate has one estimator, written out in numpy and scipy.special:
closed forms, one-dimensional bisections, and for GEV a damped Newton ascent
on the analytic score and information. GEV's density, CDF, score and
information read one pair of terms, log1p(xi z) and log1p(xi z) / xi (z at
xi = 0), and its quantile function is an expm1 over xi, so no shape near 0
needs a switch to the Gumbel form or loses digits to forming 1 + xi z.

Each family is described in one place, its ``_Family`` record in
``_FAMILIES``: adding a family is adding one record. The fit candidates,
``FAMILIES``, are the records with an estimator, in table order.

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

import logging
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammainc, gammaincinv, gammaln, log_ndtr, ndtr, ndtri, xlogy

from .dataset import _json_number, _read_json, _write_json_line, rows_by_device

log = logging.getLogger(__name__)

INVERSE_GAUSSIAN = "INVERSE_GAUSSIAN"
GEV = "GEV"
LOG_NORMAL = "LOG_NORMAL"
GAMMA = "GAMMA"
WEIBULL = "WEIBULL"

# drawable and evaluable but never fit candidates. DEGENERATE (a point mass)
# is the honest limit for zero-dispersion populations, e.g. intra distances
# of exactly repeated samples, and what rank_families returns for them.
UNIFORM = "UNIFORM"
DEGENERATE = "DEGENERATE"

EULER_GAMMA = 0.5772156649015329


@dataclass
class FittedDistribution:
    family: str
    params: dict[str, float]
    log_likelihood: float
    n: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        fam = _FAMILIES[self.family]
        if set(self.params) != set(fam.params):
            raise ValueError(f"{self.family} params must be named {fam.params}")
        self.params = {k: float(self.params[k]) for k in fam.params}
        if not np.all(np.isfinite([*self.params.values(), self.log_likelihood])):
            raise ValueError(f"non-finite {self.family} fit: {self.params}, "
                             f"loglik {self.log_likelihood}")
        if not fam.valid(**self.params):
            raise ValueError(f"{self.family} params outside domain: {self.params}")

    @property
    def aic(self) -> float:
        """Akaike's information criterion: 2k - 2 loglik for the k parameters."""
        return 2 * len(self.params) - 2 * self.log_likelihood


def pairwise_distances(X, device_ids, model) -> tuple[np.ndarray, np.ndarray]:
    """Split all unordered pairwise distances into ``(intra, inter)`` arrays.

    Row i of ``X`` is a capture of ``device_ids[i]``; devices come in
    first-seen order, each with its rows in ``X`` order. Distances are
    Euclidean after ``transform(model, ...)``. ``model=None`` is the
    standardized space of these rows: ``standardizer`` fit over the rows
    grouped by device, as ``train_ldml`` fits it, so interleaving the rows
    changes no distance. Devices with a single sample contribute only
    cross-device pairs.
    """
    from .metric import cross_distances, standardizer, transform

    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) != len(device_ids):
        raise ValueError("feature rows and device ids must align")
    groups = list(rows_by_device(device_ids).values())
    if len(groups) < 2:
        raise ValueError("need >= 2 devices")
    G = X[np.concatenate(groups)]  # rows grouped by device
    G = transform(standardizer(G) if model is None else model, G)
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
    [0, 1]. A fit candidate's ``estimate(x)`` returns its MLE params.
    """

    params: tuple[str, ...]
    valid: Callable[..., bool]
    logpdf: Callable[..., np.ndarray]
    cdf: Callable[..., np.ndarray]
    ppf: Callable[..., np.ndarray]
    positive: bool = False  # support x > 0; fits require strictly positive samples
    estimate: Callable[[np.ndarray], dict] | None = None


def _ig_logpdf(x, mu, lam):
    return 0.5 * (np.log(lam) - np.log(2 * np.pi) - 3 * np.log(x)) - lam * (x - mu) ** 2 / (
        2 * mu**2 * x
    )


def _ig_cdf(x, mu, lam):
    with np.errstate(divide="ignore"):
        s = np.sqrt(lam / x)
    # second term computed in log space: e^(2 lam/mu) underflows otherwise
    return ndtr(s * (x / mu - 1)) + np.exp(2 * lam / mu + log_ndtr(-s * (x / mu + 1)))


def _bisect(below, lo, hi):
    """[lo, hi] halved 64 times toward where ``below`` turns false; returns hi."""
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        b = below(mid)
        lo, hi = np.where(b, mid, lo), np.where(b, hi, mid)
    return hi


def _ig_ppf(u, mu, lam):
    # no closed form: 64 halvings of log x in log(mu) +- 60 end below the
    # spacing of doubles, and the bracket holds for moderate lam / mu
    lo = np.full(np.shape(u), np.log(mu) - 60.0)
    hi = _bisect(lambda t: _ig_cdf(np.exp(t), mu, lam) < u, lo, lo + 120.0)
    return np.where(u <= 0, 0.0, np.where(u >= 1, np.inf, np.exp(hi)))


def _ig_estimate(x):
    # 1/lam = mean(1/x - 1/mu) = mean(w^2 / (1 + w)) / mu, as mean(w) = 0
    mu = float(np.mean(x))
    w = x / mu - 1.0
    return {"mu": mu, "lam": mu / float(np.mean(w * w / (1.0 + w)))}


def _gev_log_t(z, xi):
    """``(L, zr)``: L = log t = log1p(xi z), with t = 1 + xi z, and zr = L / xi,
    whose limit at xi = 0 is z. log1p keeps both exact for small xi z, where
    forming t first would lose eps / |xi|. Both are NaN off the support, t <= 0."""
    w = xi * z
    L = np.log1p(np.where(w > -1, w, np.nan))
    return L, (L / xi if xi else z)


def _gev_logpdf(x, mu, sigma, xi):
    L, zr = _gev_log_t((x - mu) / sigma, xi)
    # -(1 + 1/xi) log t - t ** (-1/xi), and -inf off the support
    return np.where(np.isnan(L), -np.inf, -np.log(sigma) - (L + zr) - np.exp(-zr))


def _gev_cdf(x, mu, sigma, xi):
    L, zr = _gev_log_t((x - mu) / sigma, xi)
    # off the support: 0 below the lower endpoint (xi > 0), 1 above the upper (xi < 0)
    return np.where(np.isnan(L), float(xi < 0), np.exp(-np.exp(-zr)))


def _gev_ppf(u, mu, sigma, xi):
    # (t ** -xi - 1) / xi at t = -log u, as expm1 of -xi log t: its limit at xi = 0 is -log t
    lt = np.log(-np.log(u))
    return mu + sigma * (np.expm1(-xi * lt) / xi if xi else -lt)


# h0(w) = (log1p(w) - w / (1 + w)) / w^2 and h1 = h0' are the 1/xi^2 and 1/xi^3
# terms of the GEV score and information over z^2 and z^3, w = xi z. Below
# |w| = _SERIES their direct forms cancel (h0 loses 4 eps / |w|, h1 3 eps / w^2),
# so they are summed as power series there, whose value at w = 0 is the Gumbel limit
_SERIES = 0.02
_K = np.arange(12.0)
_H0 = (-1.0) ** _K * (_K + 1) / (_K + 2)
_H1 = -((-1.0) ** _K) * (_K + 1) * (_K + 2) / (_K + 3)


def _gev_score(y, theta):
    """``(loglik, score, information)`` of y under GEV(mu, e^tau, xi) at
    theta = (mu, tau, xi), from one pass: the log-likelihood, its gradient
    in theta and minus its Hessian. Off the support, or where a term
    overflows, the log-likelihood is -inf, with no score or information."""
    mu, tau, xi = theta
    n = len(y)
    with np.errstate(all="ignore"):  # a far trial point overflows; it is refused below
        s = np.exp(-tau)
        z = (y - mu) * s
        L, zr = _gev_log_t(z, xi)
        if np.isnan(L).any():  # off the support
            return -np.inf, None, None
        w = xi * z
        t = 1.0 + w
        u = np.exp(-zr)  # t ** (-1/xi)
        ll = -n * tau - float(np.sum(L + zr + u))  # (1 + 1/xi) log t = L + zr
        small = np.abs(w) < _SERIES
        wq = np.where(small, 1.0, w)
        h0 = (L - w / t) / (wq * wq)
        h1 = (1.0 / (t * t) - 2.0 * h0) / wq
        if small.any():
            ws = w[small]
            h0[small] = np.polynomial.polynomial.polyval(ws, _H0)
            h1[small] = np.polynomial.polynomial.polyval(ws, _H1)
        # g(z, xi) = -(1 + 1/xi) log t - u, so loglik = -n tau + sum g, with
        # dz/dmu = -1/sigma and dz/dtau = -z; A = d log u / dxi
        z2 = z * z
        A = z2 * h0
        zt = z / t
        gz = (u - 1.0 - xi) / t
        gzz = (xi - u) * (1.0 + xi) / (t * t)
        gzx = (u * A - 1.0) / t - zt * gz
        gxx = (1.0 - u) * z2 * z * h1 - u * A * A + zt * zt
        sum_gz, sum_zgz = gz.sum(), z @ gz
        score = np.array([-s * sum_gz, -n - sum_zgz, ((1.0 - u) * A).sum() - zt.sum()])
        hmt, hmx, htx = s * (z @ gzz + sum_gz), -s * gzx.sum(), -(z @ gzx)
        info = -np.array([[s * s * gzz.sum(), hmt, hmx],
                          [hmt, sum_zgz + z2 @ gzz, htx],
                          [hmx, htx, gxx.sum()]])
    if not (np.isfinite(ll) and np.all(np.isfinite(score)) and np.all(np.isfinite(info))):
        return -np.inf, None, None
    return ll, score, info


def _ascent_step(score, info):
    """The Newton step ``info^-1 score`` where the information is positive
    definite, and elsewhere the same step with each negative curvature's
    sign flipped, so that it still ascends. Both are taken on the
    information scaled to a unit diagonal, whose eigenvalues are floored at
    1e-12: the GEV information of a heavy-tailed sample spans 10 decades."""
    d = 1.0 / np.sqrt(np.abs(np.diag(info)))
    lam, V = np.linalg.eigh(info * np.outer(d, d))
    return d * (V @ ((V.T @ (d * score)) / np.maximum(np.abs(lam), 1e-12)))


_GEV_TOL = 1e-8  # max-norm of the step in (mu, log sigma, xi) that ends the ascent
_GEV_MAX_STEPS = 200


def _gev_estimate(x):
    """Damped Newton ascent of the likelihood of the standardized sample in
    (mu, log sigma, xi), from the Gumbel moment fit (Coles 2001, section 3.3).

    Each step, ``_ascent_step``, is halved until the point is on the support
    and the log-likelihood does not fall. The ascent stops once the last
    step tried, full or halved, is below ``_GEV_TOL``: past a quadratic
    Newton step that small, the maximum is reached to rounding. RuntimeError
    past ``_GEV_MAX_STEPS`` steps, and once an iterate has xi <= -1, where the
    likelihood is unbounded (Smith, Biometrika 72, 1985).
    """
    m, s = float(np.mean(x)), float(np.std(x))
    y = (x - m) / s
    sigma0 = np.sqrt(6) / np.pi  # xi = 0: the support is the whole line
    theta = np.array([-EULER_GAMMA * sigma0, np.log(sigma0), 0.0])
    ll, score, info = _gev_score(y, theta)
    if score is None:  # e^-z overflows at a point 550 sds below the rest
        raise RuntimeError("GEV MLE: the Gumbel start's likelihood overflows")
    halvings, stop = 0, "step cap"
    for it in range(1, _GEV_MAX_STEPS + 1):
        step = _ascent_step(score, info)
        if not np.all(np.isfinite(step)):
            stop = "non-finite step"
            break
        while True:
            trial = _gev_score(y, theta + step)
            if trial[0] >= ll:
                theta, (ll, score, info) = theta + step, trial
                break
            if np.max(np.abs(step)) < _GEV_TOL:
                break
            step, halvings = 0.5 * step, halvings + 1
        if theta[2] <= -1:
            stop = "shape <= -1"
            break
        if np.max(np.abs(step)) < _GEV_TOL:
            stop = "converged"
            break
    log.debug("gev: %d step(s), %d halving(s), stop: %s, xi %.6g, loglik %.10g",
              it, halvings, stop, theta[2], ll)
    if stop == "shape <= -1":
        raise RuntimeError(f"GEV likelihood is unbounded (shape <= -1): xi reached {theta[2]:.4g}")
    if stop != "converged":
        raise RuntimeError(f"GEV MLE did not converge: {stop} after {it} step(s)")
    return {"mu": m + s * theta[0], "sigma": s * np.exp(theta[1]), "xi": theta[2]}


def _lognormal_logpdf(x, mu, sigma):
    lx = np.log(x)
    return -lx - np.log(sigma) - 0.5 * np.log(2 * np.pi) - (lx - mu) ** 2 / (2 * sigma**2)


# log k - digamma(k) and k log k - k - lgamma(k) cancel: for k >= 10, series in 1/k
def _log_minus_digamma(k):
    if k < 10:
        return np.log(k) - digamma(k)
    r2 = 1.0 / (k * k)
    return 0.5 / k + r2 * (1 / 12 - r2 * (1 / 120 - r2 * (1 / 252 - r2 * (
        1 / 240 - r2 * (1 / 132 - r2 * 691 / 32760)))))


def _gamma_norm(k):
    if k < 10:
        return k * np.log(k) - k - gammaln(k)
    r2 = 1.0 / (k * k)
    return 0.5 * np.log(k / (2 * np.pi)) - (1 / 12 - r2 * (1 / 360 - r2 * (
        1 / 1260 - r2 * (1 / 1680 - r2 / 1188)))) / k


def _gamma_logpdf(x, shape, scale):
    # (k-1) log x - x/theta - k log theta - lgamma(k) around the mean: no terms of order k;
    # xlogy makes (k-1) log y exactly 0 at k = 1, y = 0 (the exponential density)
    y = x / (shape * scale)
    return xlogy(shape - 1, y) - shape * (y - 1) - np.log(shape * scale) + _gamma_norm(shape)


def _gamma_estimate(x):
    """Shape k solves log k - digamma(k) = log mean - mean(log x) = s (Minka,
    "Estimating a Gamma distribution", 2002); the scale is mean / k."""
    w = x / np.mean(x) - 1.0  # s without the rounding of the mean: mean(w) = 0
    s = -float(np.mean(np.log1p(w) - w))
    k = float(np.exp(_bisect(lambda t: _log_minus_digamma(np.exp(t)) > s, -20.0, 100.0)))
    return {"shape": k, "scale": float(np.mean(x)) / k}


def _weibull_estimate(x):
    """Shape c solves sum(y^c ly) / sum(y^c) - mean(ly) = 1/c (Cohen, Technometrics
    7, 1965) on ly = log(x / max x), where y^c <= 1; scale max x * mean(y^c)^(1/c)."""
    top = float(np.max(x))
    ly = np.log(x / top)

    def below(t):
        yc = np.exp(np.exp(t) * ly)
        return np.sum(yc * ly) / np.sum(yc) - np.mean(ly) < np.exp(-t)

    c = float(np.exp(_bisect(below, -20.0, 100.0)))
    return {"shape": c, "scale": top * float(np.mean(np.exp(c * ly))) ** (1.0 / c)}


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
        estimate=_gev_estimate,
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
        logpdf=_gamma_logpdf,
        cdf=lambda x, shape, scale: gammainc(shape, x / scale),
        ppf=lambda u, shape, scale: scale * gammaincinv(shape, u),
        positive=True,
        estimate=_gamma_estimate,
    ),
    WEIBULL: _Family(
        params=("shape", "scale"),
        valid=lambda shape, scale: shape > 0 and scale > 0,
        logpdf=lambda x, shape, scale: (
            np.log(shape) - np.log(scale) + xlogy(shape - 1, x / scale) - (x / scale) ** shape
        ),
        cdf=lambda x, shape, scale: -np.expm1(-((x / scale) ** shape)),
        ppf=lambda u, shape, scale: scale * (-np.log1p(-u)) ** (1.0 / shape),
        positive=True,
        estimate=_weibull_estimate,
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

FAMILIES = tuple(name for name, fam in _FAMILIES.items() if fam.estimate is not None)


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
    """Maximum-likelihood fit of one family, and the sample's loglik under it.

    Inverse Gaussian and log-normal have closed forms, gamma and Weibull bisect
    a one-dimensional likelihood equation, and GEV takes damped Newton steps
    from the Gumbel moment fit until a step's max-norm is below 1e-8 (at most
    200; RuntimeError past them, or once the shape reaches xi <= -1, where
    the likelihood is unbounded).
    """
    if family not in FAMILIES:
        raise ValueError(f"family {family!r} is not a fit candidate")
    fam = _FAMILIES[family]
    x = _check_samples(samples, family)
    params = fam.estimate(x)
    ll = float(np.sum(fam.logpdf(x, **params)))
    return FittedDistribution(family=family, params=params, log_likelihood=ll, n=len(x))


def rank_families(samples, families=FAMILIES) -> list[FittedDistribution]:
    """Fit each family and sort ascending by AIC; failed fits are dropped.

    A population whose spread is float residue, ptp <= 1e-9 * max(1, max|x|)
    (the intra distances of exactly repeated captures), fits no continuous
    family: it ranks as one DEGENERATE point mass at its median.
    """
    x = np.asarray(samples, dtype=float)
    if len(x) and np.ptp(x) <= 1e-9 * max(1.0, float(np.max(np.abs(x)))):
        return [FittedDistribution(DEGENERATE, {"value": float(np.median(x))},
                                   log_likelihood=0.0, n=len(x))]
    fits = []
    for fam in families:
        try:
            fits.append(fit_family(x, fam))
        except (ValueError, RuntimeError) as e:
            log.warning("fit of %s excluded: %s", fam, e)
    if not fits:
        raise ValueError("all family fits failed")
    return sorted(fits, key=lambda f: f.aic)


def fit_populations(table, model):
    """The distances of a feature table, split and ranked:
    ``((intra, intra_ranking), (inter, inter_ranking))``.

    The populations are ``pairwise_distances(table.X, table.device_ids,
    model)``, so ``model=None`` is their standardized space; each ranking is
    ``rank_families`` of its population, and its first fit, the lowest AIC,
    is the one a projection draws from. Both populations are fit before this
    returns: one that no family fits is a ValueError naming its kind.
    """
    fitted = []
    for kind, values in zip(("intra", "inter"),
                            pairwise_distances(table.X, table.device_ids, model)):
        try:
            fitted.append((values, rank_families(values)))
        except ValueError as e:
            raise ValueError(f"{kind} distances: {e}") from None
    return tuple(fitted)


def ks_statistic(samples, dist: FittedDistribution) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of samples against the fitted CDF.

    Against a DEGENERATE point mass it is the larger share of samples strictly
    below or strictly above the atom, so 0 for exact repeats of it.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if dist.family == DEGENERATE:
        value = dist.params["value"]
        return float(max(np.mean(x < value), np.mean(x > value)))
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
    _write_json_line({
        "class": population_kind,
        "family": dist.family,
        "params": dist.params,
        "loglik": dist.log_likelihood,
        "n": dist.n,
    }, path)


def load_fitted(path) -> tuple[str, FittedDistribution]:
    """Read a save_fitted file; a file that is not JSON, a missing or
    ill-typed key, or a fit ``FittedDistribution`` refuses is a ValueError
    naming the file. Keys other than ``class``, ``family``, ``params``,
    ``loglik`` and ``n`` are ignored."""

    def build(payload):
        dist = FittedDistribution(
            family=payload["family"],
            params={k: float(_json_number(v, k)) for k, v in payload["params"].items()},
            log_likelihood=float(_json_number(payload["loglik"], "loglik")),
            n=_json_number(payload["n"], "n", min_int=1),
        )
        return payload["class"], dist

    return _read_json(path, "distribution fit", build)
