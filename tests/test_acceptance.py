"""Acceptance gate: one test per shipped guarantee, each printing a verdict.

Every test here drives the library end to end at fixed seeds and prints a
single PASS/FAIL line (run with ``pytest -s`` to see them as they happen).
The heavy fixtures are shared at module scope, so run the file as a whole
when timing matters; the wall-clock budgets asserted below are generous on
commodity hardware but will flag pathological regressions.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sensorprint
from sensorprint.classify import evaluate, run_protocol
from sensorprint.countermeasures import (
    ObfuscationConfig,
    QuantizationConfig,
    from_polar,
    privacy_impact,
    quantize_sample,
    quantize_value,
    to_polar,
)
from sensorprint.dataset import RawSample, generate_synthetic
from sensorprint.distances import (
    GEV,
    INVERSE_GAUSSIAN,
    UNIFORM,
    FittedDistribution,
    distribution_ppf,
    fit_family,
    pairwise_distances,
    rank_families,
)
from sensorprint.features import featurize_dataset, featurize_sample, temporal_features
from sensorprint.metric import train_ldml
from sensorprint.preprocess import interpolate_uniform
from sensorprint.simulate import SimConfig, simulate_knn, sweep, validate_against_empirical


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _uniform(lo: float, hi: float) -> FittedDistribution:
    return FittedDistribution(UNIFORM, {"lo": lo, "hi": hi},
                              log_likelihood=0.0, aic=4.0, n=1)


@pytest.fixture(scope="module")
def ds50():
    return generate_synthetic(50, 7, seed=0)


@pytest.fixture(scope="module")
def feats50(ds50):
    return featurize_dataset(ds50)


def test_c01_simulator_exchangeability_oracle():
    # identical intra/inter populations: the query's own fingerprint holds
    # no information, so accuracy must sit at the 1/D chance level
    t0 = time.monotonic()
    u01 = _uniform(0.0, 1.0)
    res = simulate_knn(SimConfig(k=1, N=1, D=100, runs=100_000,
                                 intra=u01, inter=u01, seed=0))
    dt = time.monotonic() - t0
    ok = abs(res.accuracy - 0.01) <= 0.001 and dt < 10.0
    _verdict(1, "simulator exchangeability oracle", ok,
             f"accuracy={res.accuracy:.5f} (chance 0.01000 +/- 0.001), {dt:.1f}s < 10s")


def test_c02_simulator_disjoint_support_oracle():
    # every same-device distance beats every cross-device distance
    t0 = time.monotonic()
    res = simulate_knn(SimConfig(k=1, N=1, D=100, runs=10_000,
                                 intra=_uniform(0.0, 1.0),
                                 inter=_uniform(2.0, 3.0), seed=0))
    dt = time.monotonic() - t0
    ok = res.accuracy == 1.0 and dt < 5.0
    _verdict(2, "simulator disjoint-support oracle", ok,
             f"accuracy={res.accuracy} (exact 1.0 required), {dt:.1f}s < 5s")


def test_c03_simulator_matches_empirical(feats50):
    t0 = time.monotonic()
    rep = validate_against_empirical(feats50, k=1, train_per_device=3,
                                     repeats=10, runs=10_000, seed=0)
    dt = time.monotonic() - t0
    gap = abs(rep.empirical_accuracy - rep.simulated_accuracy)
    ok = gap <= 0.10 and dt < 120.0
    _verdict(3, "simulator vs measured accuracy", ok,
             f"empirical={rep.empirical_accuracy:.4f} simulated={rep.simulated_accuracy:.4f} "
             f"gap={gap:.4f} <= 0.10 ({rep.intra_fit.family}/{rep.inter_fit.family}), "
             f"{dt:.1f}s < 120s")


def test_c04_population_scale_trend(feats50):
    # fit distance distributions in the learned-metric space, then project
    # identification accuracy out to populations far beyond the dataset
    t0 = time.monotonic()
    model = train_ldml(feats50.X, feats50.device_ids, seed=0)
    intra_d, inter_d = pairwise_distances(feats50.X, feats50.device_ids, model=model)
    intra_fit = rank_families(intra_d)[0]
    inter_fit = rank_families(inter_d)[0]
    rows = sweep(1, [3], [100, 1_000, 10_000, 100_000], 100_000,
                 intra_fit, inter_fit, seed=0)
    dt = time.monotonic() - t0
    acc = {row.D: row.accuracy for row in rows}
    # the cells share each run's uniforms, so no count may rise with D
    falling = all(a.accuracy >= b.accuracy for a, b in zip(rows, rows[1:]))
    ok = (acc[100_000] > 0.0
          and falling
          and acc[100_000] >= 10.0 / 100_000
          and dt < 300.0)
    _verdict(4, "accuracy trend across population size", ok,
             f"acc(D)={acc[100]:.4f}/{acc[1_000]:.4f}/{acc[10_000]:.4f}/{acc[100_000]:.5f}, "
             f"non-increasing in D={falling}, acc(1e5)={acc[100_000]:.5f} >= 1e-3 "
             f"(10x chance), {dt:.1f}s < 300s")


def test_c05_mle_recovery_and_family_ranking():
    t0 = time.monotonic()
    ig_true = FittedDistribution(INVERSE_GAUSSIAN, {"mu": 2.0, "lam": 6.0},
                                 log_likelihood=0.0, aic=4.0, n=1)
    gev_true = FittedDistribution(GEV, {"mu": 0.0, "sigma": 1.0, "xi": 0.2},
                                  log_likelihood=0.0, aic=6.0, n=1)
    rng = np.random.default_rng(42)
    fit_ig = fit_family(distribution_ppf(ig_true, rng.random(10_000)), INVERSE_GAUSSIAN)
    ig_ok = (abs(fit_ig.params["mu"] - 2.0) / 2.0 <= 0.05
             and abs(fit_ig.params["lam"] - 6.0) / 6.0 <= 0.05)
    fit_gev = fit_family(distribution_ppf(gev_true, rng.random(10_000)), GEV)
    # the true location is 0, so its tolerance is absolute, not relative
    gev_ok = (abs(fit_gev.params["mu"]) <= 0.1
              and abs(fit_gev.params["sigma"] - 1.0) <= 0.1
              and abs(fit_gev.params["xi"] - 0.2) / 0.2 <= 0.1)
    wins = 0
    for trial in range(20):
        r = np.random.default_rng([7, trial])
        truth = ig_true if trial % 2 == 0 else gev_true
        best = rank_families(distribution_ppf(truth, r.random(10_000)))[0]
        wins += best.family == truth.family
    dt = time.monotonic() - t0
    ok = ig_ok and gev_ok and wins >= 18 and dt < 60.0
    _verdict(5, "max-likelihood recovery and family ranking", ok,
             f"IG mu={fit_ig.params['mu']:.3f} lam={fit_ig.params['lam']:.3f} (5% rel), "
             f"GEV mu={fit_gev.params['mu']:.3f} sigma={fit_gev.params['sigma']:.3f} "
             f"xi={fit_gev.params['xi']:.3f} (10%), ranking {wins}/20 >= 18, {dt:.1f}s < 60s")


def _brute_force_eval(preds: list, truth: list):
    """Deliberately naive confusion-matrix scoring, loops and ints only."""
    classes = sorted(set(truth) | set(preds))
    per_class = {}
    precisions, recalls = [], []
    for c in classes:
        tp = sum(1 for p, t in zip(preds, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(preds, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(preds, truth) if p != c and t == c)
        pr = tp / (tp + fp) if tp + fp > 0 else 0.0
        re = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * pr * re / (pr + re) if pr + re > 0 else 0.0
        per_class[c] = (tp, fp, fn, pr, re, f)
        precisions.append(pr)
        recalls.append(re)
    avg_pr = sum(precisions) / len(precisions)
    avg_re = sum(recalls) / len(recalls)
    avg_f = 2 * avg_pr * avg_re / (avg_pr + avg_re) if avg_pr + avg_re > 0 else 0.0
    acc = sum(1 for p, t in zip(preds, truth) if p == t) / len(truth)
    return per_class, avg_pr, avg_re, avg_f, acc


def test_c06_evaluation_matches_brute_force():
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 151))
        labels = [f"c{i}" for i in range(int(rng.integers(1, 11)))]
        truth = list(rng.choice(labels, size=n))
        preds = list(rng.choice(labels, size=n))
        got = evaluate(preds, truth)
        per_class, avg_pr, avg_re, avg_f, acc = _brute_force_eval(preds, truth)
        assert set(got.per_class) == set(per_class)
        for c, (tp, fp, fn, pr, re, f) in per_class.items():
            s = got.per_class[c]
            assert (s.tp, s.fp, s.fn) == (tp, fp, fn), c
            assert s.precision == pr and s.recall == re and s.f_score == f, c
        assert got.avg_precision == avg_pr
        assert got.avg_recall == avg_re
        assert got.avg_f == avg_f
        assert got.accuracy == acc
        assert got.n_test == n
        checked += 1
    _verdict(6, "scoring matches an independent brute-force pass", checked == 100,
             f"{checked}/100 random prediction/truth vectors agreed exactly")


def test_c07_classifier_trends(feats50):
    t0 = time.monotonic()
    trend = [
        run_protocol(feats50, classifier="knn", train_per_device=t,
                     repeats=10, seed=0, k=1).avg_f_mean
        for t in (1, 3, 5)
    ]
    raw3 = trend[1]
    ldml3 = run_protocol(feats50, classifier="knn", train_per_device=3,
                         repeats=10, seed=0, k=1, use_ldml=True).avg_f_mean
    rf3 = run_protocol(feats50, classifier="rf", train_per_device=3,
                       repeats=10, seed=0, n_trees=100).avg_f_mean
    dt = time.monotonic() - t0
    ok = (trend[0] <= trend[1] <= trend[2]
          and rf3 - ldml3 >= -0.02
          and ldml3 - raw3 >= -0.02
          and dt < 300.0)
    _verdict(7, "classifier ordering and training-size trend", ok,
             f"AvgF over train sizes 1/3/5: {trend[0]:.4f}/{trend[1]:.4f}/{trend[2]:.4f} "
             f"(non-decreasing); rf={rf3:.4f} >= knn+metric={ldml3:.4f} >= knn={raw3:.4f} "
             f"(gaps >= -0.02), {dt:.1f}s < 300s")


def test_c08_countermeasures_hurt_identification(ds50):
    t0 = time.monotonic()
    rep_o = privacy_impact(ds50, "obfuscate", classifier="rf", repeats=10, seed=0)
    rep_q = privacy_impact(ds50, "quantize", classifier="rf", repeats=10, seed=0)
    identity = privacy_impact(
        ds50, "obfuscate", classifier="knn", repeats=2, seed=0,
        obfuscation=ObfuscationConfig(offset_range=(0.0, 0.0),
                                      gain_range=(1.0, 1.0), seed=0))
    dt = time.monotonic() - t0
    ok = (rep_o.relative_drop >= 0.40
          and rep_q.relative_drop >= 0.40
          and identity.relative_drop == 0.0
          and dt < 300.0)
    _verdict(8, "countermeasures degrade the classifier", ok,
             f"obfuscate drop={rep_o.relative_drop:.3f}, quantize drop={rep_q.relative_drop:.3f} "
             f"(both >= 0.40); identity drop={identity.relative_drop} (exact 0.0), "
             f"{dt:.1f}s < 300s")


def test_c09_quantization_unit_suite():
    examples = [(17.0, 6.0, 18.0), (2.9, 6.0, 0.0), (9.81, 1.0, 10.0), (-3.1, 6.0, -6.0)]
    for val, bin_size, expected in examples:
        assert quantize_value(val, bin_size) == expected, (val, bin_size)

    rng = np.random.default_rng(9)
    n = 1_000
    ts = np.cumsum(rng.uniform(0.005, 0.015, size=n))
    raw = RawSample(device_id="q", sample_id="s0", timestamps=ts,
                    accel=rng.normal(0.0, 5.0, size=(n, 3)),
                    gyro=rng.normal(0.0, 2.0, size=(n, 3)))
    cfg = QuantizationConfig()
    q1 = quantize_sample(raw, cfg)
    q2 = quantize_sample(q1, cfg)
    idem = max(float(np.max(np.abs(q2.accel - q1.accel))),
               float(np.max(np.abs(q2.gyro - q1.gyro))))

    vecs = rng.normal(0.0, 5.0, size=(1_000, 3))
    vecs = vecs[np.linalg.norm(vecs, axis=1) > 1e-6]
    worst = 0.0
    for v in vecs:
        back = from_polar(*to_polar(v))
        worst = max(worst, float(np.max(np.abs(back - v))))

    ok = idem <= 1e-9 and worst < 1e-9
    _verdict(9, "quantization unit suite", ok,
             f"4/4 worked examples, idempotence residue={idem:.1e} <= 1e-9 on 1000 readings, "
             f"polar round-trip worst={worst:.1e} < 1e-9 on {len(vecs)} vectors")


def test_c10_feature_invariance_suite(feats50):
    assert feats50.X.shape == (350, 100)
    rng = np.random.default_rng(10)
    n = 600
    ts = np.cumsum(rng.uniform(0.008, 0.012, size=n))
    flat = RawSample(device_id="f", sample_id="s0", timestamps=ts,
                     accel=np.tile([0.0, 0.0, 9.81], (n, 1)),
                     gyro=np.zeros((n, 3)))
    fv = featurize_sample(flat)
    assert fv.shape == (100,) and np.all(np.isfinite(fv))

    # index map into the temporal block: mean std avg_dev skew kurt rms min max zcr nonneg
    shift_add = [0, 6, 7]          # track an additive shift one-for-one
    shift_inv = [1, 2, 3, 4, 8, 9]  # shift-invariant (rms is neither, excluded)
    scale_mul = [0, 1, 2, 5, 6, 7]  # scale linearly with a positive gain
    scale_inv = [3, 4, 8, 9]
    worst = 0.0
    for i in range(100):
        r = np.random.default_rng([11, i])
        x = r.normal(r.uniform(-3, 3), r.uniform(0.2, 4.0), size=256)
        c = float(r.uniform(-5.0, 5.0))
        s = float(r.uniform(0.1, 4.0))
        base = temporal_features(x)
        shifted = temporal_features(x + c)
        scaled = temporal_features(s * x)
        exp_shift = base.copy()
        exp_shift[shift_add] += c
        exp_scale = base.copy()
        exp_scale[scale_mul] *= s
        for got, exp, idx in ((shifted, exp_shift, shift_add + shift_inv),
                              (scaled, exp_scale, scale_mul + scale_inv)):
            err = np.max(np.abs(got[idx] - exp[idx]) / np.maximum(1.0, np.abs(exp[idx])))
            worst = max(worst, float(err))
    equiv_ok = worst <= 1e-9

    # resampling grid points that coincide with input knots must reproduce them
    fs = 100.0
    knot_idx = [0, 3, 7, 12, 18, 25]
    r = np.random.default_rng(12)
    t = sorted(set([k / fs for k in knot_idx]
                   + [k / fs + 0.0037 for k in (1, 5, 9, 15, 21)]))
    t = np.asarray(t)
    v = r.normal(0.0, 2.0, size=len(t))
    out = interpolate_uniform(t, v, fs)
    knot_err = 0.0
    for k in knot_idx:
        j = int(np.where(np.isclose(t, k / fs))[0][0])
        knot_err = max(knot_err, abs(out[k] - v[j]) / max(1.0, abs(v[j])))
    spline_ok = knot_err <= 1e-9

    ok = equiv_ok and spline_ok
    _verdict(10, "feature invariance suite", ok,
             f"100-dim output everywhere incl. constant streams; shift/scale equivariance "
             f"worst rel err={worst:.1e} <= 1e-9 over 100 streams; spline knot "
             f"err={knot_err:.1e} <= 1e-9")


_CHAIN = [
    ["synth", "--devices", "6", "--samples", "4", "--seed", "3", "--out", "d.jsonl"],
    ["featurize", "--in", "d.jsonl", "--out", "f.csv"],
    ["train-metric", "--features", "f.csv", "--iterations", "30", "--seed", "0",
     "--out", "m.json"],
    ["classify", "--in", "d.jsonl", "--classifier", "rf", "--n-trees", "15",
     "--seed", "0", "--out", "c.json"],
    ["evaluate", "--in", "d.jsonl", "--classifier", "knn", "--use-ldml",
     "--ldml-iterations", "30", "--repeats", "2", "--seed", "0", "--out", "e.json"],
    ["distfit", "--features", "f.csv", "--metric-model", "m.json",
     "--intra-out", "fi.json", "--inter-out", "fe.json", "--out", "dist.json"],
    ["simulate", "--intra", "fi.json", "--inter", "fe.json",
     "--device-counts", "50", "200", "--runs", "300", "--seed", "1", "--out", "sweep.csv"],
    ["countermeasure", "--in", "d.jsonl", "--scheme", "obfuscate", "--seed", "5",
     "--out", "ob.jsonl"],
]
_ARTIFACTS = ["d.jsonl", "f.csv", "m.json", "c.json", "e.json",
              "fi.json", "fe.json", "dist.json", "sweep.csv", "ob.jsonl"]


def _run_chain(workdir, threads: int) -> None:
    # A relative PYTHONPATH entry (e.g. PYTHONPATH=src from a checkout) resolves
    # to nothing under cwd=workdir. Put the directory holding the package under
    # test first, so the child imports the same code as this process and no
    # other installed copy shadows it.
    pkg_root = str(Path(sensorprint.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    for cmd in _CHAIN:
        proc = subprocess.run(
            [sys.executable, "-m", "sensorprint.cli", "--threads", str(threads), *cmd],
            cwd=workdir, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{cmd[0]} failed: {proc.stderr}"


def test_c11_artifacts_byte_identical_across_reruns_and_threads(tmp_path):
    # relative output paths keep the argv echo identical across the three runs
    dirs = {}
    for name, threads in (("a", 1), ("b", 1), ("c", 8)):
        d = tmp_path / name
        d.mkdir()
        _run_chain(d, threads)
        dirs[name] = d
    mismatched = []
    for art in _ARTIFACTS:
        ref = (dirs["a"] / art).read_bytes()
        if (dirs["b"] / art).read_bytes() != ref:
            mismatched.append(f"{art} (rerun)")
        if (dirs["c"] / art).read_bytes() != ref:
            mismatched.append(f"{art} (threads)")
    ok = not mismatched
    _verdict(11, "byte-identical artifacts across reruns and thread counts", ok,
             f"{len(_ARTIFACTS)} artifacts x (rerun, 8 threads) all identical"
             if ok else f"mismatches: {', '.join(mismatched)}")
