"""Metric learning tests: standardization, LDML training, MI diagnostic."""

import json
import logging
import re

import numpy as np
import pytest
from scipy.special import expit

from sensorprint.metric import (
    MAX_HALVINGS,
    SATURATION_NLL,
    MetricModel,
    _build_pairs,
    _mm,
    cross_distances,
    load_metric_model,
    save_metric_model,
    standardize_fit,
    standardizer,
    train_ldml,
    transform,
)


def toy_data(n_dev=4, n_per=6, d=10, gap=3.0, seed=0):
    """Separable clusters: one device per corner of a scaled simplex plus noise."""
    rng = np.random.default_rng(seed)
    X = []
    y = []
    for dev in range(n_dev):
        center = np.zeros(d)
        center[dev % d] = gap
        X.append(center + rng.normal(size=(n_per, d)))
        y += [f"dev{dev}"] * n_per
    return np.vstack(X), np.array(y)


def loo_1nn_accuracy(Z, y):
    d2 = np.sum((Z[:, None, :] - Z[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return np.mean(y[np.argmin(d2, axis=1)] == y)


def test_standardize_symmetric_vectors():
    v = np.array([1.0, -2.0, 3.0])
    means, stds = standardize_fit(np.stack([v, -v]))
    np.testing.assert_allclose(means, 0.0, atol=1e-15)


def test_standardize_hand_case():
    means, stds = standardize_fit(np.array([[0.0], [2.0]]))
    assert means[0] == 1.0
    assert stds[0] == 1.0  # population std of {0, 2}


def test_standardize_constant_dimension_gets_unit_std():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    means, stds = standardize_fit(X)
    assert stds[1] == 1.0
    assert means[1] == 5.0


def test_standardize_rejects_single_vector():
    with pytest.raises(ValueError, match=">= 2"):
        standardize_fit(np.array([[1.0, 2.0]]))


def test_standardizer_is_the_untrained_metric():
    X, y = toy_data()
    model = standardizer(X)
    means, stds = standardize_fit(X)
    np.testing.assert_array_equal(model.means, means)
    np.testing.assert_array_equal(model.stds, stds)
    np.testing.assert_array_equal(model.L, np.eye(X.shape[1]))
    np.testing.assert_array_equal(model.L, train_ldml(X, y, iterations=0).L)
    # the identity map is exact: only -0.0 can become +0.0, and they compare equal
    assert np.array_equal(transform(model, X), (X - means) / stds)


def test_identity_transform_is_the_matmul_bit_for_bit():
    # an L = I model skips the matmul; its output bytes are the matmul's,
    # signed zeros included (a -0 coordinate comes out +0 from both)
    X, _ = toy_data()
    model = standardizer(X)
    X[0, :3] = model.means[:3]  # zero coordinates
    X[1, 0] = -0.0
    model.means[0] = 0.0  # so that -0.0 - 0.0 leaves a -0 coordinate
    z = (X - model.means) / model.stds
    assert np.signbit(z[1, 0]) and z[1, 0] == 0.0
    expected = _mm(z, model.L.T)
    assert transform(model, X).tobytes() == expected.tobytes()
    assert transform(model, X[1]).tobytes() == expected[1].tobytes()
    # any other L still takes the matmul
    model.L = 2.0 * np.eye(X.shape[1])
    assert transform(model, X).tobytes() == _mm(z, model.L.T).tobytes()


def test_cross_distances_match_per_pair_formula_bitwise():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(5, 100))
    B = rng.normal(size=(21_000, 100))  # 2.1M floats: one row of A per block
    got = cross_distances(A, B)
    assert got.shape == (5, 21_000)
    for i in range(len(A)):
        want = np.sqrt(np.sum((B - A[i]) ** 2, axis=1))
        assert got[i].tobytes() == want.tobytes(), i
    for i, j in [(0, 0), (1, 4_321), (4, 20_999)]:
        assert got[i, j] == np.sqrt(np.sum((A[i] - B[j]) ** 2))
    V = B[:40]  # one block, against itself
    D = cross_distances(V, V)
    assert np.all(np.diag(D) == 0.0)
    assert np.array_equal(D, D.T)
    assert cross_distances(V, B[:0]).shape == (40, 0)


def test_ldml_refuses_negative_iterations_and_bad_steps():
    X, y = toy_data()
    with pytest.raises(ValueError, match="iterations"):
        train_ldml(X, y, iterations=-3)
    for step in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="step"):
            train_ldml(X, y, step=step)


def test_zero_iterations_gives_identity_transform():
    X, y = toy_data()
    model = train_ldml(X, y, iterations=0)
    np.testing.assert_array_equal(model.L, np.eye(X.shape[1]))
    Z = transform(model, X)
    np.testing.assert_allclose(Z, (X - model.means) / model.stds, atol=1e-12)


def _pair_space_ldml(X, y, d_prime=None, iterations=200, step=1e-3, seed=0):
    """Reference LDML in pair space: the same ascent and stop rules as
    train_ldml, with every product over the (pairs x d) difference matrix D
    and L updated each step. Returns (L, bias, history)."""
    means, stds = standardize_fit(X)
    Z = (X - means) / stds
    d_prime = d_prime or Z.shape[1]
    pi, pj, is_same = _build_pairs(y, np.random.default_rng(seed))
    D = Z[pi] - Z[pj]

    def objective(L, b):
        LD = _mm(D, L.T)
        t = b - np.einsum("ij,ij->i", LD, LD)
        return -(np.logaddexp(0, -t[is_same]).sum() + np.logaddexp(0, t[~is_same]).sum())

    L = np.eye(Z.shape[1])[:d_prime]
    LD0 = _mm(D, L.T)
    b = float(np.median(np.einsum("ij,ij->i", LD0, LD0)))
    obj = objective(L, b)
    history = [obj]
    for _ in range(iterations):
        if -obj <= SATURATION_NLL * len(pi):
            break
        LD = _mm(D, L.T)
        c = np.where(is_same, 1.0, 0.0) - expit(b - np.einsum("ij,ij->i", LD, LD))
        grad_L = -2.0 * _mm(L, _mm(D.T, c[:, None] * D))
        grad_b = c.sum()
        trial = step
        for _ in range(MAX_HALVINGS):
            L_new, b_new = L + trial * grad_L, b + trial * grad_b
            obj_new = objective(L_new, b_new)
            if obj_new >= obj:
                break
            trial /= 2.0
        else:
            break
        L, b, obj, step = L_new, b_new, obj_new, trial
        history.append(obj)
    return L, b, history


def _fleet_features(samples_per_device):
    from sensorprint.dataset import generate_synthetic
    from sensorprint.features import featurize_dataset

    table = featurize_dataset(generate_synthetic(20, 5, seed=0))
    keep = np.sort(np.concatenate(
        [rows[:samples_per_device] for rows in table.device_rows().values()]))
    return table.X[keep], table.device_ids[keep]


@pytest.mark.parametrize("case", ["toy", "toy-d4", "fleet-3", "fleet-5"])
def test_sample_space_ldml_matches_pair_space_reference(case):
    d_prime = 4 if case == "toy-d4" else None
    X, y = toy_data() if case.startswith("toy") else _fleet_features(int(case[-1]))
    model, history = train_ldml(X, y, d_prime=d_prime, return_history=True)
    L, b, ref_history = _pair_space_ldml(X, y, d_prime=d_prime)
    assert len(history) == len(ref_history) > 1
    np.testing.assert_allclose(history, ref_history, rtol=1e-9)
    np.testing.assert_allclose(model.L, L, rtol=0, atol=1e-12)
    assert model.bias == pytest.approx(b, rel=0, abs=1e-12)


def _pair_count(y):
    # every same-device pair and as many cross pairs: no draw changes the count
    return len(_build_pairs(np.asarray(y), np.random.default_rng(0))[0])


def test_training_stops_at_the_first_saturated_step():
    from sensorprint.dataset import generate_synthetic
    from sensorprint.features import featurize_dataset

    table = featurize_dataset(generate_synthetic(20, 5, seed=0))
    model, history = train_ldml(table.X, table.device_ids, return_history=True)
    gaps = -np.asarray(history)  # distance of the log-likelihood below 0
    tolerance = SATURATION_NLL * _pair_count(table.device_ids)
    assert 2 < len(history) < 201
    assert gaps[-1] <= tolerance
    assert np.all(gaps[:-1] > tolerance)
    # the budget is a cap: one just large enough trains the same bytes
    capped = train_ldml(table.X, table.device_ids, iterations=len(history) - 1)
    assert capped.L.tobytes() == model.L.tobytes() and capped.bias == model.bias


def test_unsaturated_training_runs_the_whole_budget():
    X, y = toy_data()
    _, history = train_ldml(X, y, iterations=200, return_history=True)
    assert len(history) == 201
    assert -history[-1] > SATURATION_NLL * _pair_count(y)


def test_training_is_deterministic():
    X, y = toy_data()
    m1 = train_ldml(X, y, iterations=30, seed=5)
    m2 = train_ldml(X, y, iterations=30, seed=5)
    np.testing.assert_array_equal(m1.L, m2.L)
    assert m1.bias == m2.bias


def test_interleaved_rows_train_the_grouped_model_bit_for_bit():
    # train_ldml groups the rows by device (first-seen order) before it
    # standardizes and draws pairs, so interleaving the devices' captures
    # changes no bit of the model
    from sensorprint.dataset import generate_synthetic
    from sensorprint.features import featurize_dataset

    table = featurize_dataset(generate_synthetic(8, 5, seed=2))
    interleaved = np.concatenate(list(table.device_rows().values())).reshape(8, 5).T.ravel()
    assert not np.array_equal(interleaved, np.arange(40))
    a = train_ldml(table.X, table.device_ids, iterations=50)
    b = train_ldml(table.X[interleaved], table.device_ids[interleaved], iterations=50)
    for name in ("means", "stds", "L"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.bias == b.bias


def test_objective_monotone_over_accepted_steps():
    X, y = toy_data()
    _, history = train_ldml(X, y, iterations=50, return_history=True)
    assert len(history) > 1  # training actually moved
    diffs = np.diff(history)
    assert np.all(diffs >= 0)


def test_training_improves_objective_and_psd():
    X, y = toy_data()
    model, history = train_ldml(X, y, iterations=50, return_history=True)
    assert history[-1] > history[0]
    M = model.L.T @ model.L
    eigvals = np.linalg.eigvalsh(M)
    assert np.all(eigvals >= -1e-10)


def test_ldml_not_worse_than_identity_on_noisy_dimension():
    # dimension 0 separates the devices by a gap of 10, dimension 1 is pure
    # noise with std 100; learned metric must not lose to the identity
    rng = np.random.default_rng(1)
    n_per = 20
    X = np.zeros((2 * n_per, 2))
    X[:n_per, 0] = rng.normal(0.0, 1.0, n_per)
    X[n_per:, 0] = rng.normal(10.0, 1.0, n_per)
    X[:, 1] = rng.normal(0.0, 100.0, 2 * n_per)
    y = np.array(["a"] * n_per + ["b"] * n_per)
    base = train_ldml(X, y, iterations=0)
    model = train_ldml(X, y, iterations=200, step=1e-3)
    acc_base = loo_1nn_accuracy(transform(base, X), y)
    acc_ldml = loo_1nn_accuracy(transform(model, X), y)
    assert acc_ldml >= acc_base


def test_train_rejects_insufficient_devices():
    X = np.random.default_rng(0).normal(size=(5, 3))
    y = np.array(["a", "a", "a", "a", "b"])  # only one device has >= 2 samples
    with pytest.raises(ValueError, match="devices"):
        train_ldml(X, y)


def test_transform_at_means_is_zero():
    X, y = toy_data()
    model = train_ldml(X, y, iterations=10)
    out = transform(model, model.means)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_transform_rejects_dimension_mismatch():
    X, y = toy_data(d=10)
    model = train_ldml(X, y, iterations=0)
    with pytest.raises(ValueError, match="dimension"):
        transform(model, np.zeros(7))


def test_transform_distances_are_a_metric():
    X, y = toy_data(seed=2)
    model = train_ldml(X, y, iterations=30)
    Z = transform(model, X[:6])
    d = lambda a, b: np.linalg.norm(a - b)
    for i in range(6):
        for j in range(6):
            assert d(Z[i], Z[j]) == pytest.approx(d(Z[j], Z[i]))
            for k in range(6):
                assert d(Z[i], Z[k]) <= d(Z[i], Z[j]) + d(Z[j], Z[k]) + 1e-9


def test_standardization_absorbs_global_scaling():
    X, y = toy_data(seed=3)
    m1 = train_ldml(X, y, iterations=20, seed=7)
    m2 = train_ldml(X * 10.0, y, iterations=20, seed=7)
    np.testing.assert_allclose(transform(m1, X), transform(m2, X * 10.0), atol=1e-8)


def test_reduced_projection_dimension():
    X, y = toy_data(d=10)
    model = train_ldml(X, y, d_prime=4, iterations=20)
    assert model.L.shape == (4, 10)
    assert transform(model, X).shape == (len(X), 4)


def test_model_json_round_trip(tmp_path):
    X, y = toy_data()
    model = train_ldml(X, y, iterations=15, seed=9)
    p = tmp_path / "model.json"
    save_metric_model(model, p)
    payload = json.loads(p.read_text())
    assert set(payload) == {"L", "bias", "means", "stds"}
    loaded = load_metric_model(p)
    np.testing.assert_array_equal(loaded.L, model.L)
    np.testing.assert_array_equal(loaded.means, model.means)
    assert loaded.bias == model.bias
    # the keys older files carry beside these are ignored, whatever they hold
    p.write_text(json.dumps({**payload, "d_prime": 3, "seed": [0, 1], "trained_on": "ab"}))
    np.testing.assert_array_equal(load_metric_model(p).L, model.L)


@pytest.mark.parametrize("seed", [5, [0, 1, 1], np.int64(3)], ids=["int", "list", "int64"])
def test_model_json_round_trip_whatever_the_seed(tmp_path, seed):
    # the seed stays out of the file, so run_protocol's [seed, r, 1] form and
    # a numpy integer save and load like a plain int
    X, y = toy_data()
    model = train_ldml(X, y, iterations=15, seed=seed)
    p = tmp_path / "model.json"
    save_metric_model(model, p)
    loaded = load_metric_model(p)
    for name in ("means", "stds", "L"):
        assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes(), name
    assert loaded.bias == model.bias


def test_metric_model_refuses_means_or_stds_not_one_per_column_of_L():
    for means, stds in ((np.zeros((1, 1)), np.ones(3)), (np.zeros(3), np.ones(1)),
                        (np.zeros(2), np.ones(2))):
        with pytest.raises(ValueError, match="one per column of L"):
            MetricModel(means, stds, np.eye(3), 0.0)


def test_metric_model_rejects_nonpositive_std():
    with pytest.raises(ValueError, match="stds"):
        MetricModel(np.zeros(3), np.array([1.0, 0.0, 1.0]), np.eye(3), 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda X, y: MetricModel(np.zeros(3), np.ones(3), np.diag([1.0, np.nan, 1.0]), 0.0),
     "L must be finite"),
    (lambda X, y: MetricModel(np.zeros(3), np.ones(3), np.ones((4, 3)), 0.0),
     "projection dimension exceeds input dimension"),
    (lambda X, y: train_ldml(X, y[:-1]), "features and labels must align"),
    (lambda X, y: train_ldml(X, y, d_prime=0), "d_prime must be in [1, 10]"),
    (lambda X, y: train_ldml(X, y, d_prime=11), "d_prime must be in [1, 10]"),
], ids=["L-non-finite", "L-too-many-rows", "labels-misaligned", "d_prime-0", "d_prime-past-d"])
def test_refusals_name_their_cause(call, message):
    X, y = toy_data(d=10)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(X, y)


def test_training_stops_when_no_halved_step_improves(monkeypatch, caplog):
    from sensorprint import metric

    X, y = toy_data()  # rows grouped by device, as train_ldml orders them
    start, [obj] = train_ldml(X, y, iterations=0, return_history=True)
    pi, pj, _ = _build_pairs(y, np.random.default_rng(0))
    assert -obj > SATURATION_NLL * len(pi)  # the start is not saturated
    Z = (X - start.means) / start.stds
    monkeypatch.setattr(metric, "MAX_HALVINGS", 0)
    with caplog.at_level(logging.DEBUG, logger="sensorprint.metric"):
        model, history = train_ldml(X, y, return_history=True)
    np.testing.assert_array_equal(model.L, np.eye(X.shape[1]))
    assert model.bias == np.median(np.sum((Z[pi] - Z[pj]) ** 2, axis=1)) == start.bias
    assert history == [obj]
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("ldml:")]
    assert "0 accepted step(s), 0 halving(s), stopped early: no halved step improves" in line
