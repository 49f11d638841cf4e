"""Exact k=1 identification accuracy from fitted distance families.

Independent of sensorprint's own densities and samplers: the fitted
parameters (as saved by ``distfit``) are mapped onto ``scipy.stats``
distributions, and

    P(correct) = P(min of N intra <= min of N(D-1) inter)
               = integral_0^1 N (1-u)^(N-1) S_inter(Q_intra(u))^(N(D-1)) du

is integrated by adaptive quadrature, with u the intra CDF value.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, stats

# each tail of the acceptance band; a correct simulator leaves it with
# probability below 2 * TAIL = 1e-4 per cell
TAIL = 5e-5
# slack for the quadrature's own error on p
P_SLACK = 1e-7


def frozen(fit: dict):
    """scipy.stats distribution for a saved fit {"family": ..., "params": ...}."""
    fam, p = fit["family"], fit["params"]
    if fam == "GAMMA":
        return stats.gamma(p["shape"], scale=p["scale"])
    if fam == "WEIBULL":
        return stats.weibull_min(p["shape"], scale=p["scale"])
    if fam == "LOG_NORMAL":
        return stats.lognorm(p["sigma"], scale=np.exp(p["mu"]))
    if fam == "INVERSE_GAUSSIAN":
        return stats.invgauss(p["mu"] / p["lam"], scale=p["lam"])
    if fam == "GEV":  # scipy's shape c is the negated xi
        return stats.genextreme(-p["xi"], loc=p["mu"], scale=p["sigma"])
    raise ValueError(f"no oracle for family {fam!r}")


def p_correct_k1(intra: dict, inter: dict, n: int, d: int) -> float:
    a, b = frozen(intra), frozen(inter)
    m = n * (d - 1)

    def integrand(u):
        return n * (1.0 - u) ** (n - 1) * np.exp(m * b.logsf(a.ppf(u)))

    # the factor S_inter^m falls from 1 to 0 around the inter 1/m quantile
    points = sorted({float(a.cdf(b.ppf(q / m))) for q in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)
                     if q < m} - {0.0, 1.0})
    val, _ = integrate.quad(integrand, 0.0, 1.0, points=points or None, limit=500,
                            epsabs=1e-12, epsrel=1e-10)
    return float(min(1.0, max(0.0, val)))


def binomial_band(p: float, runs: int) -> tuple[int, int]:
    """Success counts a correct simulator reaches with probability >= 1 - 2*TAIL."""
    lo = int(stats.binom.ppf(TAIL, runs, max(0.0, p - P_SLACK)))
    hi = int(stats.binom.isf(TAIL, runs, min(1.0, p + P_SLACK)))
    return lo, hi
