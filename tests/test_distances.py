"""Distance population and distribution-fitting tests.

Numeric tolerances were frozen from oracle runs: closed-form estimator
recovery on self-generated draws, AIC contests with the true family in the
candidate set, and KS distances of matched vs mismatched fits.
"""

import dataclasses
import hashlib
import json
import logging
import re
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
    fit_populations,
    ks_statistic,
    load_fitted,
    pairwise_distances,
    rank_families,
    save_fitted,
)
from sensorprint.distances import _gev_logpdf, _gev_ppf, _gev_score


def make_dist(family, **params):
    return FittedDistribution(family, params, 0.0, 10)


IG26 = lambda: make_dist(INVERSE_GAUSSIAN, mu=2.0, lam=6.0)
GEV02 = lambda: make_dist(GEV, mu=0.0, sigma=1.0, xi=0.2)


def flat(vecs):
    """Device -> matrix of rows, as the row-aligned (X, device_ids) pair."""
    X = np.vstack(list(vecs.values()))
    return X, np.repeat(list(vecs), [len(v) for v in vecs.values()])


def identity(d):
    """The metric model of raw distances in d dimensions."""
    from sensorprint.metric import MetricModel

    return MetricModel(np.zeros(d), np.ones(d), np.eye(d), 0.0)


def test_pairwise_duplicate_geometry():
    vecs = {
        "a": np.array([[0.0, 0.0], [0.0, 0.0]]),
        "b": np.array([[3.0, 4.0], [3.0, 4.0]]),
    }
    intra, inter = pairwise_distances(*flat(vecs), identity(2))
    np.testing.assert_array_equal(intra, [0.0, 0.0])
    np.testing.assert_allclose(inter, [5.0, 5.0, 5.0, 5.0])


def test_pairwise_hand_enumeration():
    vecs = {"A": np.array([[0.0], [1.0]]), "B": np.array([[10.0]])}
    intra, inter = pairwise_distances(*flat(vecs), identity(1))
    np.testing.assert_array_equal(intra, [1.0])
    np.testing.assert_array_equal(np.sort(inter), [9.0, 10.0])


def test_pairwise_counting_formula():
    rng = np.random.default_rng(0)
    for D, n in [(2, 2), (3, 4), (5, 3)]:
        vecs = {f"d{i}": rng.normal(size=(n, 6)) for i in range(D)}
        intra, inter = pairwise_distances(*flat(vecs), None)
        assert len(intra) == D * n * (n - 1) // 2
        assert len(inter) == n * n * D * (D - 1) // 2


def test_pairwise_applies_metric_model():
    from sensorprint.metric import MetricModel

    # L doubles coordinates: all distances double
    vecs = {"A": np.array([[0.0], [1.0]]), "B": np.array([[10.0]])}
    model = MetricModel(np.zeros(1), np.ones(1), 2.0 * np.eye(1), 0.0)
    intra, inter = pairwise_distances(*flat(vecs), model)
    np.testing.assert_array_equal(intra, [2.0])
    np.testing.assert_array_equal(np.sort(inter), [18.0, 20.0])


def test_pairwise_distances_pinned():
    # sha256 of the intra and inter values on a featurized 20 x 5 fleet;
    # rows interleaved across devices give the grouped values. Re-recorded
    # when the moment features became products instead of powers (their
    # last bits moved); before that the digests had held since the
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
    model = MetricModel(means=means, stds=stds, L=L, bias=0.0)
    interleaved = np.argsort(np.arange(len(X)) % 5, kind="stable")
    # the last device keeps only its last capture
    single = np.flatnonzero((ids != ids[-1]) | (np.arange(len(X)) == len(X) - 1))
    full = {
        "raw": ("5b65d4f05993a465a103eda7df0b795e41d10d6dad52ca57896106d72da32a2e",
                "2ebd09f1f12370638ba54d0e05eef580644dfa710a5c858d0e2ff8637396600b"),
        "metric": ("9ade02a1d3b5c275b80b592ae393b6561fac4ac60180d2d79ac0afe3a5cc7f49",
                   "75d97977e3e082d55cd2c0f86912686e4e215f5f7abcad748075cbb1893451b8"),
    }
    expected = {
        ("grouped", "raw"): full["raw"],
        ("grouped", "metric"): full["metric"],
        ("interleaved", "raw"): full["raw"],
        ("interleaved", "metric"): full["metric"],
        ("single", "raw"): (
            "300d5d815e72e1fb1718b275fd70aee1abb4723d81cdf863394dae1f52e4d812",
            "46086bb19f29cdaf0bb652fca13115f3f173229f70ccd86a7f7d5927a60cbe1b"),
        ("single", "metric"): (
            "e3dc3d13cbf7738fc732f6376798ef975237feb9b3d50ca953363fb567f9d907",
            "7f4d963d3a8e24bbb6d7b6e06e5b4de94d44078062f764dc846f0f01b45b3cbe"),
    }
    cases = {"grouped": np.arange(len(X)), "interleaved": interleaved, "single": single}
    models = {"raw": identity(X.shape[1]), "metric": model}
    for (case, m), (intra_digest, inter_digest) in expected.items():
        rows = cases[case]
        intra, inter = pairwise_distances(X[rows], ids[rows], models[m])
        got = (digest(intra), digest(inter))
        assert got == (intra_digest, inter_digest), (case, m)


def test_pairwise_needs_same_device_pairs():
    vecs = {"A": np.array([[0.0]]), "B": np.array([[1.0]])}
    with pytest.raises(ValueError, match="eligible"):
        pairwise_distances(*flat(vecs), None)


def test_pairwise_needs_a_model_argument():
    vecs = {"A": np.array([[0.0], [1.0]]), "B": np.array([[10.0]])}
    with pytest.raises(TypeError):
        pairwise_distances(*flat(vecs))


@pytest.fixture(scope="module")
def fleet():
    """The feature table of a 12 x 5 synthetic fleet, rows grouped by device."""
    from sensorprint.dataset import generate_synthetic
    from sensorprint.features import featurize_dataset

    return featurize_dataset(generate_synthetic(12, 5, seed=3))


def test_pairwise_none_is_the_device_grouped_standardized_space(fleet):
    # None fits standardizer over the rows grouped by device, whatever order
    # they come in: a round-robin copy gives the grouped copy's distances
    from sensorprint.metric import standardizer

    X, ids = fleet.X, fleet.device_ids
    grouped = np.concatenate(list(fleet.device_rows().values()))
    robin = np.argsort(np.arange(len(X)) % 5, kind="stable")
    assert not np.array_equal(robin, grouped)
    expected = pairwise_distances(X, ids, standardizer(X[grouped]))
    # standardized in file order instead, the round-robin rows move some bits
    drift = pairwise_distances(X[robin], ids[robin], standardizer(X[robin]))
    assert drift[1].tobytes() != expected[1].tobytes()
    for rows in (grouped, robin):
        got = pairwise_distances(X[rows], ids[rows], None)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("space", ["standardized", "metric"])
def test_fit_populations_ranks_each_half_of_pairwise_distances(fleet, space):
    model = None if space == "standardized" else identity(fleet.X.shape[1])
    got = fit_populations(fleet, model)
    assert len(got) == 2
    for (values, ranking), expected in zip(got, pairwise_distances(fleet.X, fleet.device_ids, model)):
        assert values.tobytes() == expected.tobytes()
        assert ranking == rank_families(expected)


def test_fit_populations_of_a_round_robin_copy_are_the_grouped_fits(fleet):
    from sensorprint.features import FeatureTable

    robin = np.argsort(np.arange(len(fleet.X)) % 5, kind="stable")
    copy = FeatureTable(fleet.X[robin], fleet.device_ids[robin], fleet.sample_ids[robin])
    for (a, ranking_a), (b, ranking_b) in zip(fit_populations(copy, None),
                                              fit_populations(fleet, None)):
        assert a.tobytes() == b.tobytes()
        assert ranking_a == ranking_b


@pytest.mark.parametrize("kind,per_device", [
    ("inter", (5, 1)),  # 10 intra distances fit; 5 inter distances fit no family
    ("intra", (2, 2)),  # 2 intra distances fit no family, whatever the inter ones do
])
def test_fit_populations_names_the_population_no_family_fits(fleet, kind, per_device):
    from sensorprint.features import FeatureTable

    rows = np.concatenate([idx[:n] for idx, n in zip(fleet.device_rows().values(), per_device)])
    table = FeatureTable(fleet.X[rows], fleet.device_ids[rows], fleet.sample_ids[rows])
    with pytest.raises(ValueError, match=f"^{kind} distances: all family fits failed$"):
        fit_populations(table, None)


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
    # AIC = 2k - 2 loglik is derived from the fit, never stored beside it
    d = FittedDistribution(LOG_NORMAL, {"mu": 0.0, "sigma": 1.0}, -100.0, 50)
    assert d.aic == 204.0
    assert FittedDistribution(DEGENERATE, {"value": 1.0}, 0.0, 8).aic == 2.0
    assert [f.name for f in dataclasses.fields(FittedDistribution)] == [
        "family", "params", "log_likelihood", "n"]


def test_fit_candidates_are_the_families_with_an_estimator():
    assert FAMILIES == (INVERSE_GAUSSIAN, GEV, LOG_NORMAL, GAMMA, WEIBULL)


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


@pytest.mark.parametrize("xi", [-0.8, -0.4, 0.0, 1e-11, -1e-11, 1e-8, -1e-8, 0.3, 1.2])
def test_gev_score_and_information_are_the_loglik_derivatives(xi):
    # central differences of summed _gev_logpdf in (mu, log sigma, xi), away
    # from the likelihood's maximum so that the score is not 0; at xi = 0,
    # +-1e-11 and +-1e-8 the 1/xi terms come from their series, without a warning
    y = _gev_ppf(np.random.default_rng(1).random(200), 0.0, 1.0, xi)
    theta = np.array([0.1, np.log(1.2), xi])

    def f(th):
        return np.sum(_gev_logpdf(y, th[0], np.exp(th[1]), th[2]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ll, score, info = _gev_score(y, theta)
    e = np.eye(3) * 1e-4
    fd_score = [(f(theta + e[i]) - f(theta - e[i])) / 2e-4 for i in range(3)]
    e = np.eye(3) * 1e-3
    fd_hess = [[(f(theta + e[i] + e[j]) - f(theta + e[i] - e[j]) - f(theta - e[i] + e[j])
                 + f(theta - e[i] - e[j])) / 4e-6 for j in range(3)] for i in range(3)]
    assert ll == pytest.approx(f(theta), rel=1e-14)
    np.testing.assert_allclose(score, fd_score, rtol=0, atol=1e-5 * np.max(np.abs(score)))
    np.testing.assert_allclose(info, -np.array(fd_hess), rtol=0, atol=1e-3 * np.max(np.abs(info)))
    assert np.array_equal(info, info.T)


def test_gev_fit_refuses_a_shape_below_minus_one():
    # below xi = -1 the density is unbounded at the upper endpoint, so the
    # likelihood has no maximum
    x = _gev_ppf(np.random.default_rng(3).random(1_000), 0.0, 1.0, -1.3)
    with pytest.raises(RuntimeError, match=r"GEV likelihood is unbounded \(shape <= -1\)"):
        fit_family(x, GEV)


def test_gev_fit_refuses_a_start_whose_likelihood_overflows():
    # one point 10^4 sds below 4e5 others lies about 800 Gumbel scales below
    # the start's location, where its e^-z term overflows
    x = np.random.default_rng(0).standard_normal(400_000)
    x[0] = -1e4
    with pytest.raises(RuntimeError, match="Gumbel start's likelihood overflows"):
        fit_family(x, GEV)


def test_gev_fit_past_its_step_cap_is_excluded(monkeypatch, caplog):
    # the GEV02 sample, shifted positive so that every other family fits,
    # takes more than two Newton steps from the Gumbel start
    from sensorprint import distances

    x = distribution_ppf(GEV02(), np.random.default_rng(100).random(2_000))
    x = x - x.min() + 0.01
    monkeypatch.setattr(distances, "_GEV_MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match=r"GEV MLE did not converge: step cap after 2 step\(s\)"):
        fit_family(x, GEV)
    with caplog.at_level(logging.WARNING, logger="sensorprint.distances"):
        assert len(rank_families(x)) == len(FAMILIES) - 1
    [warning] = [r.getMessage() for r in caplog.records]
    assert warning.startswith("fit of GEV excluded: GEV MLE did not converge")


def test_null_fleet_excludes_the_unbounded_intra_gev(caplog):
    # every device the same device (unit gains, no offsets), 20 x 6 at seed
    # 0 with in-sample LDML: the intra GEV ascent passes xi = -1, and the
    # other four families keep their order
    from sensorprint.dataset import DevicePrior, generate_synthetic
    from sensorprint.features import featurize_dataset
    from sensorprint.metric import train_ldml

    prior = DevicePrior(accel_gain=(1.0, 1.0), accel_offset=(0.0, 0.0), gyro_offset=(0.0, 0.0))
    table = featurize_dataset(generate_synthetic(20, 6, device_prior=prior, seed=0))
    model = train_ldml(table.X, table.device_ids, seed=0)
    with caplog.at_level(logging.WARNING, logger="sensorprint.distances"):
        (_, intra_ranking), _ = fit_populations(table, model)
    assert [f.family for f in intra_ranking] == [WEIBULL, GAMMA, LOG_NORMAL, INVERSE_GAUSSIAN]
    [warning] = [r.getMessage() for r in caplog.records]
    assert warning.startswith("fit of GEV excluded: GEV likelihood is unbounded (shape <= -1)")


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


def test_rank_zero_dispersion_is_one_point_mass():
    # exactly repeated captures: no continuous family applies, so the ranking
    # is a single DEGENERATE atom at the median, loglik 0 and AIC 2
    for x in (np.zeros(10), np.full(3, 2.5), 7.0 + np.array([0.0, 1e-12, -1e-12, 2e-12])):
        ranking = rank_families(x)
        assert ranking == [FittedDistribution(DEGENERATE, {"value": float(np.median(x))},
                                              log_likelihood=0.0, n=len(x))]
    x = np.random.default_rng(2).gamma(2.0, size=500)
    assert [f.family for f in rank_families(x, families=(GAMMA,))] == [GAMMA]
    with pytest.raises(ValueError, match="failed"):
        rank_families(np.array([]))


def test_ks_against_a_point_mass_is_exact():
    atom = FittedDistribution(DEGENERATE, {"value": 1.0}, 0.0, 8)
    assert ks_statistic(np.ones(8), atom) == 0.0
    # 1 of 8 below, 3 of 8 above: the larger share
    assert ks_statistic([0.5, 1, 1, 1, 1, 2, 3, 4], atom) == 3 / 8
    assert ks_statistic([0.0, 0.1, 1.0], atom) == 2 / 3


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
            cand = FittedDistribution(fam, pert, 0.0, f.n)
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


@pytest.mark.parametrize("xi", [1e-13, -1e-13, 1e-11, -1e-11, 1e-8, -1e-8])
def test_gev_small_shapes_match_their_series(xi):
    # log1p(w) / xi and expm1(v) / xi as power series in w = xi z and
    # v = -xi log(-log u), |w|, |v| < 3e-7, so four terms are exact in float64;
    # forming 1 + xi z or t ** -xi first loses eps / |xi| of it
    mu, sigma = 0.1, 1.2
    x = np.linspace(-3.0, 12.0, 301)
    z = (x - mu) / sigma
    w = xi * z
    zr = z * (1 - w / 2 + w * w / 3 - w**3 / 4)  # log(1 + w) / xi
    logpdf = -np.log(sigma) - (xi * zr + zr) - np.exp(-zr)
    u = np.concatenate([[1e-300, 1e-12], np.linspace(0.01, 0.99, 99), [1 - 1e-9]])
    lt = np.log(-np.log(u))
    v = -xi * lt
    ppf = mu - sigma * lt * (1 + v / 2 + v * v / 6 + v**3 / 24)  # mu + sigma expm1(v) / xi
    d = make_dist(GEV, mu=mu, sigma=sigma, xi=xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(distribution_logpdf(d, x), logpdf, rtol=1e-13, atol=0)
        np.testing.assert_allclose(distribution_cdf(d, x), np.exp(-np.exp(-zr)), rtol=1e-13, atol=0)
        np.testing.assert_allclose(distribution_ppf(d, u), ppf, rtol=1e-13, atol=0)


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
        FittedDistribution(GAMMA, {"k": 1.0, "theta": 2.0}, 0.0, 10)


def test_fitted_json_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    x = distribution_ppf(IG26(), rng.random(2_000))
    f = fit_family(x, INVERSE_GAUSSIAN)
    p = tmp_path / "fit.json"
    save_fitted(f, "inter", p)
    payload = json.loads(p.read_text())
    assert payload["class"] == "inter"
    assert set(payload) == {"class", "family", "params", "loglik", "n"}
    kind, loaded = load_fitted(p)
    assert kind == "inter"
    assert loaded.family == f.family
    assert loaded.params == pytest.approx(f.params)
    assert loaded.aic == pytest.approx(f.aic)
    # the aic key older files carry is ignored, whatever it holds
    p.write_text(json.dumps({**payload, "aic": "stale"}))
    assert load_fitted(p) == (kind, loaded)


@pytest.mark.parametrize("family", [*FAMILIES, DEGENERATE])
def test_save_then_load_fitted_gives_the_fit_back(tmp_path, family):
    x = distribution_ppf(IG26(), np.random.default_rng(15).random(500))
    fit = rank_families(np.full(9, 2.5))[0] if family == DEGENERATE else fit_family(x, family)
    assert fit.family == family
    p = tmp_path / "fit.json"
    save_fitted(fit, "intra", p)
    assert load_fitted(p) == ("intra", fit)


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


@pytest.mark.parametrize("family", [GAMMA, WEIBULL])
def test_gamma_and_weibull_logpdf_at_zero(family):
    # the (shape - 1) log x term at x = 0: exactly 0 at shape 1, where both
    # families are the exponential with density 1/scale there; +inf below
    # shape 1 and -inf above it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exponential = distribution_logpdf(make_dist(family, shape=1.0, scale=2.0), [0.0])[0]
        assert distribution_logpdf(make_dist(family, shape=0.5, scale=2.0), [0.0])[0] == np.inf
        assert distribution_logpdf(make_dist(family, shape=2.0, scale=2.0), [0.0])[0] == -np.inf
    assert exponential == pytest.approx(-np.log(2.0), rel=1e-15)


@pytest.mark.parametrize("xi", [0.2, -0.3, 1e-11, -1e-11, 0.0])
def test_gev_logpdf_is_per_point_off_support(xi):
    # off the support, t = 1 + xi z <= 0, the log-density is -inf point by
    # point, and the CDF 0 at and below the lower endpoint (xi > 0) and 1 at
    # and above the upper one (xi < 0); the quantile function's ends are the
    # support's ends, the whole line at xi = 0
    mu, sigma = 1.0, 0.8
    d = make_dist(GEV, mu=mu, sigma=sigma, xi=xi)
    end = mu - sigma / xi if xi else np.nan
    off = end - abs(end) * np.array([0.0, 1e-9, 1.0]) * np.sign(xi) if xi else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = distribution_logpdf(d, [mu, *off])
        cdf = distribution_cdf(d, off)
        ends = distribution_ppf(d, [0.0, 1.0])
    assert lp[0] == distribution_logpdf(d, [mu])[0] == pytest.approx(-np.log(sigma) - 1.0)
    assert np.all(lp[1:] == -np.inf) and np.all(cdf == float(xi < 0))
    lo, hi = end if xi > 0 else -np.inf, end if xi < 0 else np.inf
    assert ends.tolist() == pytest.approx([lo, hi], rel=1e-15)


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
    # most 1.1e-16). logpdf and the fits were re-recorded when each family
    # got one estimator: GAMMA's logpdf became a form around the mean (its
    # finite grid values moved by at most 4.5e-16 relative, its infinite
    # ones not at all), and the fitted parameters moved by at most about
    # 4e-7 relative, the old search's tolerance, with the same order. The
    # fits were re-recorded when GEV's Nelder-Mead became a Newton ascent:
    # GEV's params moved by at most 2.5e-7 relative (xi of the gamma sample,
    # 0.0367, by 9e-9), its loglik by at most 6e-14, no other fit at all.
    # logpdf, cdf, ppf and the fits were re-recorded when GEV's density, CDF
    # and quantile function became log1p(xi z) / xi and expm1 forms: only
    # the three xi != 0 GEV rows moved, by at most 8.5e-14 relative, with the
    # same non-finite values; the xi = 0 row and every other family kept
    # their bits, and so did GEV's fitted params, its loglik moving by 2e-16
    # relative.
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
    assert logpdf == "1eeae3c43925ca47445acde6bc190309321b579424217c6f2f4c9777dfb2d89a", "logpdf"
    assert cdf == "de23798fc53c52d1d15d450c5cad27f99dceafddd0437d5578d677da002b78ea", "cdf"
    assert ppf == "fd9d4309916dc145f73809374c47abbd88fdc0ad0ac7ddc88aaeabca93834107", "ppf"
    assert fits == "1160b0f5bb3c1cc705b64d201c7bf28fa5a0261544612ef235560d620b973154", "fit_family"
    assert order == [GAMMA, WEIBULL, GEV, LOG_NORMAL, INVERSE_GAUSSIAN]


def _nelder_mead_reference(x, family):
    """The log-likelihood of a three-start Nelder-Mead search over the
    family's parameters, scale-type ones on log scale: a slower, independent
    route to the same maximum."""
    from scipy import optimize
    from scipy.special import gamma as gamma_fn

    m, s = np.mean(x), np.std(x)
    if family == GEV:
        log_params = ("sigma",)
        sigma0 = s * np.sqrt(6) / np.pi
        mu0 = m - 0.5772156649015329 * sigma0
        starts = [[mu0 + a * sigma0, np.log(sigma0 * b), xi]
                  for a, b, xi in ((0.0, 1.0, 0.1), (-0.3, 0.7, -0.1), (0.3, 1.4, 0.3))]
    elif family == GAMMA:
        log_params = ("shape", "scale")
        k0 = max(m * m / (s * s), 1e-3)
        starts = [np.log([k, m / k]) for k in (k0, k0 * 0.5, k0 * 2.0)]
    else:
        log_params = ("shape", "scale")
        k0 = max((s / m) ** -1.086, 1e-2)
        lam0 = m / gamma_fn(1 + 1 / k0)
        starts = [np.log([k0 * a, lam0 * b]) for a, b in ((1.0, 1.0), (0.6, 0.8), (1.8, 1.2))]
    names = {GEV: ("mu", "sigma", "xi")}.get(family, ("shape", "scale"))

    def nll(theta):
        params = {k: np.exp(t) if k in log_params else t for k, t in zip(names, theta)}
        lp = distribution_logpdf(make_dist(family, **params), x)
        return -np.sum(lp) if np.all(np.isfinite(lp)) else 1e300

    with np.errstate(over="ignore"):
        runs = [optimize.minimize(nll, t0, method="Nelder-Mead",
                                  options={"xatol": 1e-8, "fatol": 1e-8, "maxfev": 2000})
                for t0 in starts]
    return -min(r.fun for r in runs if r.success)


def _reference_cases():
    rng = np.random.default_rng(6)
    yield "gamma-6", rng.gamma(3.0, 1.5, size=10_000), GAMMA
    yield "weibull-6", 2.0 * rng.weibull(1.7, size=10_000), WEIBULL
    for i, (family, params) in enumerate(PINNED_PARAMS):
        if family in (GAMMA, WEIBULL, GEV):
            u = np.random.default_rng(100 + i).random(2_000)
            yield f"{family}-{i}", distribution_ppf(make_dist(family, **params), u), family


@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
def test_estimators_reach_the_nelder_mead_maximum(case):
    # the one-dimensional roots (gamma, Weibull) and the single GEV run find
    # at least the likelihood a three-start search over all parameters does
    _, x, family = case
    reference = _nelder_mead_reference(x, family)
    assert fit_family(x, family).log_likelihood >= reference - 1e-6 * len(x)


@pytest.mark.parametrize("spread", [1e-3, 1e-6, 1e-7, 1e-8])
def test_narrow_population_fits_are_likelihoods(spread):
    # near-normal data 1e-4 to 1e-9 of its level wide, above the point-mass
    # rule: no fit may beat the uniform MLE on [min, max] (cancellation could
    # score one higher), and the three families that are near-normal there agree
    x = 7.0 + np.linspace(0.0, spread, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranking = rank_families(x)
    assert sorted(f.family for f in ranking) == sorted(FAMILIES)
    ll = {f.family: f.log_likelihood for f in ranking}
    assert all(np.isfinite(v) and v <= 100 * np.log(1 / np.ptp(x)) for v in ll.values()), ll
    near_normal = [ll[GAMMA], ll[LOG_NORMAL], ll[INVERSE_GAUSSIAN]]
    assert max(near_normal) - min(near_normal) < 0.01, ll


@pytest.mark.parametrize("call, message", [
    (lambda path: pairwise_distances(np.zeros((3, 2)), ["a", "b"], None),
     "feature rows and device ids must align"),
    (lambda path: pairwise_distances(np.zeros(3), ["a", "b", "c"], None),
     "feature rows and device ids must align"),
    (lambda path: pairwise_distances(np.eye(3), ["a", "a", "a"], None), "need >= 2 devices"),
    (lambda path: fit_family(np.arange(1.0, 11.0), UNIFORM),
     "family 'UNIFORM' is not a fit candidate"),
    (lambda path: save_fitted(IG26(), "both", path), "population_kind must be 'intra' or 'inter'"),
], ids=["rows-misaligned", "rows-not-2d", "one-device", "not-a-candidate", "bad-population-kind"])
def test_refusals_name_their_cause(tmp_path, call, message):
    path = tmp_path / "fit.json"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(path)
    assert not path.exists()
