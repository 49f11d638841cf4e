"""Distance population and distribution-fitting tests.

Numeric tolerances were frozen from oracle runs: closed-form estimator
recovery on self-generated draws, AIC contests with the true family in the
candidate set, and KS distances of matched vs mismatched fits.
"""

import hashlib
import warnings

import numpy as np
import pytest

from sensorprint.distances import (
    DEGENERATE,
    FAMILIES,
    GAMMA,
    GEV,
    INVERSE_GAUSSIAN,
    LOG_NORMAL,
    UNIFORM,
    WEIBULL,
    FittedDistribution,
    distribution_cdf,
    distribution_logpdf,
    distribution_ppf,
    fit_family,
    ks_statistic,
    load_fitted,
    pairwise_distances,
    rank_families,
    save_fitted,
)


def make_dist(family, **params):
    k = len(params)
    return FittedDistribution(family, params, 0.0, 2.0 * k, 10)


IG26 = lambda: make_dist(INVERSE_GAUSSIAN, mu=2.0, lam=6.0)
GEV02 = lambda: make_dist(GEV, mu=0.0, sigma=1.0, xi=0.2)


def flat(vecs):
    """Device -> matrix of rows, as the row-aligned (X, device_ids) pair."""
    X = np.vstack(list(vecs.values()))
    return X, np.repeat(list(vecs), [len(v) for v in vecs.values()])


def test_pairwise_duplicate_geometry():
    vecs = {
        "a": np.array([[0.0, 0.0], [0.0, 0.0]]),
        "b": np.array([[3.0, 4.0], [3.0, 4.0]]),
    }
    intra, inter = pairwise_distances(*flat(vecs))
    np.testing.assert_array_equal(intra, [0.0, 0.0])
    np.testing.assert_allclose(inter, [5.0, 5.0, 5.0, 5.0])


def test_pairwise_hand_enumeration():
    vecs = {"A": np.array([[0.0], [1.0]]), "B": np.array([[10.0]])}
    intra, inter = pairwise_distances(*flat(vecs))
    np.testing.assert_array_equal(intra, [1.0])
    np.testing.assert_array_equal(np.sort(inter), [9.0, 10.0])


def test_pairwise_counting_formula():
    rng = np.random.default_rng(0)
    for D, n in [(2, 2), (3, 4), (5, 3)]:
        vecs = {f"d{i}": rng.normal(size=(n, 6)) for i in range(D)}
        intra, inter = pairwise_distances(*flat(vecs))
        assert len(intra) == D * n * (n - 1) // 2
        assert len(inter) == n * n * D * (D - 1) // 2


def test_pairwise_applies_metric_model():
    from sensorprint.metric import MetricModel

    # L doubles coordinates: all distances double
    vecs = {"A": np.array([[0.0], [1.0]]), "B": np.array([[10.0]])}
    model = MetricModel(np.zeros(1), np.ones(1), 2.0 * np.eye(1), 0.0, 0)
    intra, inter = pairwise_distances(*flat(vecs), model)
    np.testing.assert_array_equal(intra, [2.0])
    np.testing.assert_array_equal(np.sort(inter), [18.0, 20.0])


def test_pairwise_distances_pinned():
    # sha256 of the intra and inter values on a featurized 20 x 5 fleet;
    # rows interleaved across devices give the grouped values. The raw-space digests were recorded from the
    # dict-of-device-matrices implementation. The metric is a fixed seeded
    # map, not a trained one, so its digests pin the grouping and the
    # distances, not LDML's arithmetic.
    from sensorprint.dataset import generate_synthetic
    from sensorprint.features import featurize_dataset
    from sensorprint.metric import MetricModel, standardize_fit

    def digest(a):
        return hashlib.sha256(np.asarray(a).tobytes()).hexdigest()

    table = featurize_dataset(generate_synthetic(20, 5, seed=0))
    X, ids = table.X, table.device_ids
    means, stds = standardize_fit(X)
    L = np.eye(X.shape[1]) + 0.1 * np.random.default_rng(0).normal(size=(X.shape[1],) * 2)
    model = MetricModel(means=means, stds=stds, L=L, bias=0.0, seed=0)
    interleaved = np.argsort(np.arange(len(X)) % 5, kind="stable")
    # the last device keeps only its last capture
    single = np.flatnonzero((ids != ids[-1]) | (np.arange(len(X)) == len(X) - 1))
    full = {
        "raw": ("af2aa0d1a9122fbef44ab31b76a0ec96cbf344b3deb904aa0949d2cd1916393e",
                "8070a612da55644eff2a930297a927ecb5f5980ae38713cae31507724151dad8"),
        "metric": ("110934fc7718b589e0ea78392405a4e17e1f08857e99035cf6387a905b70232c",
                   "97c86df4052894d9fe8bbf09ea028b5504e39726d818bc0d64bdb5d9b71a01bf"),
    }
    expected = {
        ("grouped", "raw"): full["raw"],
        ("grouped", "metric"): full["metric"],
        ("interleaved", "raw"): full["raw"],
        ("interleaved", "metric"): full["metric"],
        ("single", "raw"): (
            "efd6365c4dde139165971ecbf183a1737b42317d437d739da9ee02615e30a581",
            "c978a844db9573e85f29c7b9b695dd9d8e32c962d121f2b1aed3d5de52a16c88"),
        ("single", "metric"): (
            "6719bd360f1f4d3e8e306bedcafe9259f41e2f282a383b5ede0ef9eb4c802227",
            "a00b4504d3d08285988ed4cd974cf078773312007b5b5acd4585c4fabcb08e47"),
    }
    cases = {"grouped": np.arange(len(X)), "interleaved": interleaved, "single": single}
    models = {"raw": None, "metric": model}
    for (case, m), (intra_digest, inter_digest) in expected.items():
        rows = cases[case]
        intra, inter = pairwise_distances(X[rows], ids[rows], models[m])
        got = (digest(intra), digest(inter))
        assert got == (intra_digest, inter_digest), (case, m)


def test_pairwise_needs_same_device_pairs():
    vecs = {"A": np.array([[0.0]]), "B": np.array([[1.0]])}
    with pytest.raises(ValueError, match="eligible"):
        pairwise_distances(*flat(vecs))


def test_fit_rejects_degenerate_samples():
    with pytest.raises(ValueError, match="degenerate"):
        fit_family(np.full(100, 3.0), INVERSE_GAUSSIAN)


def test_fit_rejects_nonpositive_for_positive_families():
    x = np.linspace(-1, 5, 100)
    for fam in (INVERSE_GAUSSIAN, LOG_NORMAL, GAMMA, WEIBULL):
        with pytest.raises(ValueError, match="positive"):
            fit_family(x, fam)


def test_fit_rejects_tiny_sample():
    with pytest.raises(ValueError, match=">= 8"):
        fit_family(np.array([1.0, 2.0, 3.0]), GAMMA)


def test_aic_arithmetic():
    d = FittedDistribution(LOG_NORMAL, {"mu": 0.0, "sigma": 1.0}, -100.0, 204.0, 50)
    assert d.aic == 204.0
    with pytest.raises(ValueError, match="aic"):
        FittedDistribution(LOG_NORMAL, {"mu": 0.0, "sigma": 1.0}, -100.0, 200.0, 50)


def test_ig_mle_recovery():
    rng = np.random.default_rng(100)
    x = distribution_ppf(IG26(), rng.random(10_000))
    f = fit_family(x, INVERSE_GAUSSIAN)
    assert abs(f.params["mu"] - 2.0) < 0.05
    assert abs(f.params["lam"] - 6.0) < 0.3


def test_gev_mle_recovery():
    rng = np.random.default_rng(100)
    x = distribution_ppf(GEV02(), rng.random(10_000))
    f = fit_family(x, GEV)
    assert abs(f.params["mu"]) < 0.1  # true location 0: absolute tolerance
    assert abs(f.params["sigma"] - 1.0) < 0.1
    assert abs(f.params["xi"] - 0.2) < 0.05


def test_closed_form_lognormal():
    rng = np.random.default_rng(5)
    x = np.exp(0.4 + 0.9 * rng.standard_normal(20_000))
    f = fit_family(x, LOG_NORMAL)
    assert abs(f.params["mu"] - 0.4) < 0.02
    assert abs(f.params["sigma"] - 0.9) < 0.02


def test_numeric_mle_gamma_weibull():
    rng = np.random.default_rng(6)
    xg = rng.gamma(3.0, 1.5, size=10_000)
    fg = fit_family(xg, GAMMA)
    assert abs(fg.params["shape"] - 3.0) < 0.15
    assert abs(fg.params["scale"] - 1.5) < 0.1
    xw = 2.0 * rng.weibull(1.7, size=10_000)
    fw = fit_family(xw, WEIBULL)
    assert abs(fw.params["shape"] - 1.7) < 0.05
    assert abs(fw.params["scale"] - 2.0) < 0.05


def test_rank_ig_data_puts_ig_first():
    rng = np.random.default_rng(100)
    x = distribution_ppf(IG26(), rng.random(10_000))
    ranking = rank_families(x)
    assert ranking[0].family == INVERSE_GAUSSIAN
    assert len(ranking) == 5  # positive data: every family fits
    aics = [r.aic for r in ranking]
    assert aics == sorted(aics)


def test_rank_gev_data_puts_gev_first():
    rng = np.random.default_rng(100)
    x = distribution_ppf(GEV02(), rng.random(10_000))
    ranking = rank_families(x)
    assert ranking[0].family == GEV
    # shifted to positive support: a real 5-way contest, GEV still first
    ranking2 = rank_families(x - x.min() + 0.01)
    assert ranking2[0].family == GEV
    assert len(ranking2) == 5


def test_rank_single_family():
    rng = np.random.default_rng(2)
    x = rng.gamma(2.0, size=500)
    ranking = rank_families(x, families=(GAMMA,))
    assert len(ranking) == 1
    assert ranking[0].family == GAMMA


def test_rank_all_failed():
    x = np.linspace(-5, -1, 100)  # negative data, positive-only candidates
    with pytest.raises(ValueError, match="failed"):
        rank_families(x, families=(GAMMA, WEIBULL))


def test_local_optimality_of_mle():
    rng = np.random.default_rng(100)
    prng = np.random.default_rng(7)
    x = distribution_ppf(IG26(), rng.random(5_000))
    x_shift = x + 0.5  # keeps all families comfortably in-domain
    for fam in FAMILIES:
        f = fit_family(x_shift, fam)
        for _ in range(20):
            pert = {k: v * (1 + prng.uniform(-0.1, 0.1)) for k, v in f.params.items()}
            if fam == GEV and pert["sigma"] <= 0:
                continue
            cand = FittedDistribution(fam, pert, 0.0, 2.0 * len(pert), f.n)
            lp = distribution_logpdf(cand, x_shift)
            if not np.all(np.isfinite(lp)):
                continue  # perturbation left the support; not comparable
            assert np.sum(lp) <= f.log_likelihood + 1e-6


def test_sampler_matches_cdf_ks():
    rng = np.random.default_rng(100)
    for dist in [
        IG26(),
        GEV02(),
        make_dist(LOG_NORMAL, mu=0.5, sigma=0.8),
        make_dist(GAMMA, shape=3.0, scale=1.5),
        make_dist(WEIBULL, shape=1.7, scale=2.0),
    ]:
        s = distribution_ppf(dist, rng.random(10_000))
        assert ks_statistic(s, dist) < 0.02


def test_ks_detects_wrong_family():
    rng = np.random.default_rng(100)
    x = distribution_ppf(IG26(), rng.random(10_000))
    wrong = fit_family(x, WEIBULL)
    assert ks_statistic(x, wrong) > 0.04  # oracle run: 0.062


def test_sampler_mean_within_3se():
    from scipy.special import gamma as gamma_fn

    rng = np.random.default_rng(200)
    # each family's analytic mean
    for dist, m in [
        (IG26(), 2.0),
        (GEV02(), (gamma_fn(1 - 0.2) - 1) / 0.2),
        (make_dist(LOG_NORMAL, mu=0.5, sigma=0.8), np.exp(0.5 + 0.8**2 / 2)),
        (make_dist(GAMMA, shape=3.0, scale=1.5), 4.5),
        (make_dist(WEIBULL, shape=1.7, scale=2.0), 2.0 * gamma_fn(1 + 1 / 1.7)),
    ]:
        s = distribution_ppf(dist, rng.random(100_000))
        se = s.std() / np.sqrt(len(s))
        assert abs(s.mean() - m) < 3 * se, dist.family


def test_gev_median_closed_form():
    xi = 0.2
    median = 0.0 + 1.0 * (np.log(2.0) ** -xi - 1) / xi
    assert distribution_cdf(GEV02(), median) == pytest.approx(0.5, abs=1e-12)


def test_sampler_reproducible():
    u = np.random.default_rng(3).random(50)
    a = distribution_ppf(IG26(), u)
    b = distribution_ppf(IG26(), np.random.default_rng(3).random(50))
    np.testing.assert_array_equal(a, b)
    # element by element: a scalar u gives the same value as inside an array
    assert distribution_ppf(IG26(), u[7]) == a[7]


def test_fitted_distribution_domain_checks():
    with pytest.raises(ValueError, match="domain"):
        make_dist(INVERSE_GAUSSIAN, mu=-1.0, lam=2.0)
    with pytest.raises(ValueError, match="named"):
        FittedDistribution(GAMMA, {"k": 1.0, "theta": 2.0}, 0.0, 4.0, 10)


def test_fitted_json_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    x = distribution_ppf(IG26(), rng.random(2_000))
    f = fit_family(x, INVERSE_GAUSSIAN)
    p = tmp_path / "fit.json"
    save_fitted(f, "inter", p)
    import json

    payload = json.loads(p.read_text())
    assert payload["class"] == "inter"
    assert set(payload) == {"class", "family", "params", "loglik", "aic", "n"}
    kind, loaded = load_fitted(p)
    assert kind == "inter"
    assert loaded.family == f.family
    assert loaded.params == pytest.approx(f.params)
    assert loaded.aic == pytest.approx(f.aic)


# one parameter set per family, plus GEV at xi = 0, xi < 0 and xi >= 1
PINNED_PARAMS = [
    (INVERSE_GAUSSIAN, {"mu": 2.0, "lam": 6.0}),
    (GEV, {"mu": 0.0, "sigma": 1.0, "xi": 0.2}),
    (GEV, {"mu": 0.5, "sigma": 1.5, "xi": 0.0}),
    (GEV, {"mu": 1.0, "sigma": 0.8, "xi": -0.3}),
    (GEV, {"mu": 0.0, "sigma": 1.0, "xi": 1.2}),
    (LOG_NORMAL, {"mu": 0.3, "sigma": 0.6}),
    (GAMMA, {"shape": 2.5, "scale": 0.8}),
    (WEIBULL, {"shape": 1.7, "scale": 2.2}),
    (UNIFORM, {"lo": 0.5, "hi": 3.0}),
    (DEGENERATE, {"value": 1.25}),
]


# the ends, both tails and the body of [0, 1]
U_GRID = np.concatenate([[0.0, 1e-300, 1e-12, 1e-9, 1e-6], np.linspace(0.01, 0.99, 99),
                         [1 - 1e-9, 1.0]])


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=float)
        # one NaN bit pattern: the sign of a NaN from an invalid operation
        # is not part of any contract
        h.update(np.where(np.isnan(a), np.nan, a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("family,params", PINNED_PARAMS,
                         ids=[f"{f}-{i}" for i, (f, _) in enumerate(PINNED_PARAMS)])
def test_ppf_inverts_cdf(family, params):
    d = make_dist(family, **params)
    u = np.array([1e-12, 1e-9, 1e-6, 0.01, 0.5, 0.99, 1 - 1e-9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # also at the ends u = 0 and 1
        x = distribution_ppf(d, U_GRID)
        c = distribution_cdf(d, distribution_ppf(d, u))
    assert np.all(np.diff(x) >= 0)
    if family == UNIFORM:
        np.testing.assert_array_equal(x, params["lo"] + (params["hi"] - params["lo"]) * U_GRID)
    elif family == DEGENERATE:
        np.testing.assert_array_equal(x, params["value"])
    else:
        # u = 1 - 1e-9 holds 1e-9 only to about 1e-7 relative
        np.testing.assert_array_less(np.abs(c - u), 1e-6 * np.minimum(u, 1 - u))
    if family in (INVERSE_GAUSSIAN, LOG_NORMAL, GAMMA, WEIBULL):
        assert (x[0], x[-1]) == (0.0, np.inf)


@pytest.mark.parametrize("family,params", [
    (INVERSE_GAUSSIAN, {"mu": 2.0, "lam": 6.0}),
    (LOG_NORMAL, {"mu": 0.3, "sigma": 0.6}),
    (GAMMA, {"shape": 2.5, "scale": 0.8}),
    (WEIBULL, {"shape": 2.0, "scale": 1.0}),
])
def test_positive_families_below_zero(family, params):
    d = make_dist(family, **params)
    x = np.array([-1.0, -1e-3, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = distribution_logpdf(d, x)
        c = distribution_cdf(d, x)
        assert distribution_cdf(d, -1.0) == 0.0
        assert distribution_logpdf(d, -1.0) == -np.inf
    np.testing.assert_array_equal(lp[:2], -np.inf)
    np.testing.assert_array_equal(c[:2], 0.0)
    # x >= 0 is evaluated as if no negative point were present
    assert lp[2] == distribution_logpdf(d, [1.0])[0]
    assert c[2] == distribution_cdf(d, [1.0])[0]


def test_gev_logpdf_is_per_point_off_support():
    d = make_dist(GEV, mu=1.0, sigma=0.8, xi=-0.3)  # upper endpoint 1 + 0.8 / 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = distribution_logpdf(d, [1.0, 5.0])
    assert lp[0] == distribution_logpdf(d, [1.0])[0] == pytest.approx(np.log(1.25) - 1.0)
    assert lp[1] == -np.inf


def test_family_table_pinned():
    # sha256 digests recorded from the per-family dispatch implementation;
    # any change of arithmetic in a density, CDF, quantile function or fit
    # moves them. The grid holds off-support points (x <= 0, beyond the GEV
    # endpoints and the UNIFORM edges) and the DEGENERATE atom; the inner
    # grid dates from when one off-support point made all of GEV's logpdf
    # -inf. logpdf and cdf were re-recorded when the positive families
    # became -inf and 0 at x < 0 and GEV's logpdf -inf per off-support
    # point; no other value of theirs moved. cdf was re-recorded again
    # when WEIBULL's became -expm1(-t) (31 grid values moved, each by at
    # most 1.1e-16).
    grid = np.concatenate([np.linspace(-1.0, 6.0, 141), [0.0, 1e-300, 1e6, -1e-3]])
    inner = grid[(grid > 0.05) & (grid < 3.5)]
    dists = [make_dist(f, **p) for f, p in PINNED_PARAMS]
    with np.errstate(all="ignore"):
        logpdf = _digest(distribution_logpdf(d, x) for d in dists for x in (grid, inner))
        cdf = _digest(distribution_cdf(d, grid) for d in dists)
        ppf = _digest(distribution_ppf(d, U_GRID) for d in dists)
    rng = np.random.default_rng(5)
    samples = (rng.gamma(3.0, 0.7, 300), np.exp(rng.normal(0.2, 0.5, 300)))
    fits = hashlib.sha256(repr([
        (f.family, f.params, f.log_likelihood, f.aic, f.n)
        for x in samples for f in (fit_family(x, fam) for fam in FAMILIES)
    ]).encode()).hexdigest()
    order = [f.family for f in rank_families(samples[0])]
    assert logpdf == "cca14686dbd498c0466636bd56739ffb022de0ad75eacfa244a016517517c860", "logpdf"
    assert cdf == "2c94a648e2ab2ba87127f3ebff4859534ecad126ce929dbca6033f50ad0aac18", "cdf"
    assert ppf == "71801584cb5ff925f5c3735fda6b1d9f7557a67e65c2612e01c0c9ccdab084ab", "ppf"
    assert fits == "2f9c2104fa18bf8ffb8bccae743a006a392127e392b00644385d355d8dadd725", "fit_family"
    assert order == [GAMMA, WEIBULL, GEV, LOG_NORMAL, INVERSE_GAUSSIAN]
