"""Command-line tests: exit codes, artifact round trips, config layering,
and byte-level determinism of rerun artifacts."""

import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sensorprint
from sensorprint.cli import main
from sensorprint.dataset import (
    RECORD_KEYS, DevicePrior, generate_synthetic, load_dataset, write_dataset,
)
from sensorprint.distances import load_fitted
from sensorprint.features import N_TOTAL, load_features_csv
from sensorprint.metric import load_metric_model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small synthetic dataset plus its feature table, built once."""
    d = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--devices", "8", "--samples", "4", "--seed", "3",
                 "--out", str(d / "data.jsonl")]) == 0
    assert main(["featurize", "--in", str(d / "data.jsonl"),
                 "--out", str(d / "feat.csv")]) == 0
    return d


def test_synth_writes_loadable_dataset(workdir):
    ds = load_dataset(workdir / "data.jsonl")
    assert len(ds.index) == 8
    assert all(len(ids) == 4 for ids in ds.index.values())


def test_synth_zero_devices_gives_empty_file(tmp_path):
    out = tmp_path / "empty.jsonl"
    assert main(["synth", "--devices", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_ingest_normalizes(workdir, tmp_path):
    out = tmp_path / "copy.jsonl"
    assert main(["ingest", "--in", str(workdir / "data.jsonl"), "--out", str(out)]) == 0
    assert len(load_dataset(out).samples) == 32
    assert out.read_bytes() == (workdir / "data.jsonl").read_bytes()


def test_ingest_names_the_line_of_a_duplicate_record(workdir, tmp_path, capsys):
    lines = (workdir / "data.jsonl").read_text().splitlines(keepends=True)
    dup = tmp_path / "dup.jsonl"
    dup.write_text("".join(lines[:4] + [lines[1]]))  # record 2 again as line 5
    out = tmp_path / "o.jsonl"
    assert main(["ingest", "--in", str(dup), "--out", str(out)]) == 3
    assert "line 5: duplicate sample id 's001' for device 'dev0000'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_exits_2(tmp_path):
    rc = main(["ingest", "--in", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "o.jsonl")])
    assert rc == 2


def test_malformed_input_exits_3(workdir, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"device_id": "d"}\n')
    rc = main(["ingest", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")])
    assert rc == 3
    # the countermeasure key of an older file is ignored, whatever it holds
    rec = json.loads((workdir / "data.jsonl").read_text().splitlines()[0])
    for tag in ([1], {}, 5, True):
        bad.write_text(json.dumps({**rec, "countermeasure": tag}) + "\n")
        rc = main(["ingest", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")])
        assert rc == 0, tag


# key -> (what replaces its readings, the error's words); np.asarray parsed
# "-0.18", false and "1.5" as numbers, and ingest wrote them back as such
_NOT_NUMBERS = {"ax": (["-0.18"] * 3, "ax must be a number, got '-0.18'"),
                "gz": ([0.0, False, 0.0], "gz must be a number, got False"),
                "t": ([0.0, None, 0.02], "t must be a number, got None"),
                "ay": ("1.5", "ay must be an array of numbers, got '1.5'")}


@pytest.mark.parametrize("key", _NOT_NUMBERS)
def test_reading_that_is_not_a_json_number_exits_3(workdir, tmp_path, capsys, key):
    lines = (workdir / "data.jsonl").read_text().splitlines()
    value, words = _NOT_NUMBERS[key]
    bad, out = tmp_path / "bad.jsonl", tmp_path / "o.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps({**json.loads(lines[1]), key: value}),
                              *lines[2:]]) + "\n")
    for cmd in ("ingest", "featurize"):
        assert main([cmd, "--in", str(bad), "--out", str(out)]) == 3
        assert f"line 2: readings must be arrays of numbers ({words})" in capsys.readouterr().err
        assert not out.exists()


def test_ingest_of_raw_and_quantized_captures_writes_no_tag(workdir, tmp_path):
    # the file-wide tag an older version read from the quantized lines was
    # written back onto every record, the raw captures' too
    quant = tmp_path / "quant.jsonl"
    assert main(["countermeasure", "--in", str(workdir / "data.jsonl"),
                 "--scheme", "quantize", "--out", str(quant)]) == 0
    raw = [json.loads(line) for line in (workdir / "data.jsonl").read_text().splitlines()[:4]]
    quantized = [{**json.loads(line), "countermeasure": "quantize"}
                 for line in quant.read_text().splitlines()[:4]]
    for rec in quantized:
        rec["sample_id"] += "-q"
    mixed, out = tmp_path / "mixed.jsonl", tmp_path / "out.jsonl"
    mixed.write_text("".join(json.dumps(rec) + "\n" for rec in raw + quantized))
    assert main(["ingest", "--in", str(mixed), "--out", str(out)]) == 0
    written = [json.loads(line) for line in out.read_text().splitlines()]
    assert [tuple(rec) for rec in written] == [RECORD_KEYS] * 8
    assert written == [{k: rec[k] for k in RECORD_KEYS} for rec in raw + quantized]


def test_scalar_readings_exit_3(tmp_path, capsys):
    rec = {"device_id": "a", "sample_id": "s", "t": 5,
           "ax": 1, "ay": 1, "az": 1, "gx": 1, "gy": 1, "gz": 1}
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n" + json.dumps(rec) + "\n")
    rc = main(["ingest", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")])
    assert rc == 3
    assert "line 2" in capsys.readouterr().err


# a prior given as a synth --config file -> (exit code, what the error names):
# 1 for a value its flag would refuse on the command line, 3 for a value
# DevicePrior refuses and for a file that is not a JSON object
_BAD_PRIORS = {
    '{"accel_gain": 5}': (1, "config key 'accel_gain'"),
    "5": (3, "config file must hold a JSON object"),
    '{"noise_sigma_accel": [1]}': (1, "config key 'noise_sigma_accel'"),
    '{"noise_sigma_accel": NaN}': (3, "device prior 'noise_sigma_accel'"),
    '{"noise_sigma_gyro": Infinity}': (3, "device prior 'noise_sigma_gyro'"),
    '{"noise_sigma_gyro": -0.1}': (3, "device prior 'noise_sigma_gyro'"),
    '{"accel_gain": [1.05, 0.95]}': (3, "device prior 'accel_gain'"),
    '{"accel_gain": [0, 1]}': (3, "device prior 'accel_gain'"),
    '{"accel_offset": [0, Infinity]}': (3, "device prior 'accel_offset'"),
    '{"gyro_offset": ["0", 1]}': (1, "config key 'gyro_offset'"),
}


@pytest.mark.parametrize("prior", list(_BAD_PRIORS))
def test_synth_refuses_bad_prior(tmp_path, capsys, prior):
    p, out = tmp_path / "prior.json", tmp_path / "o.jsonl"
    p.write_text(prior)
    rc = main(["--config", str(p), "synth", "--devices", "2", "--samples", "2",
               "--out", str(out)])
    code, named = _BAD_PRIORS[prior]
    assert rc == code
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_synth_refuses_prior_that_overflows_readings(tmp_path, capsys):
    out = tmp_path / "o.jsonl"
    rc = main(["synth", "--accel-gain", "1e308", "1e308", "--devices", "2", "--samples", "2",
               "--out", str(out)])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_prior_file_as_config_writes_the_fleet_of_its_values(tmp_path):
    # a prior file works as a synth --config, and its values as the flags
    # of the same names, each giving the fleet the library draws
    values = {"accel_offset": [-0.5, 0.5], "noise_sigma_accel": 0.05}
    p, lib, cfg, flags, default = (tmp_path / name
                                   for name in ("prior.json", "lib", "cfg", "flags", "default"))
    p.write_text(json.dumps(values))
    write_dataset(generate_synthetic(4, 3, DevicePrior(**json.loads(p.read_text())), seed=9), lib)
    run = ["synth", "--devices", "4", "--samples", "3", "--seed", "9"]
    assert main(["--config", str(p), *run, "--out", str(cfg)]) == 0
    assert main([*run, "--accel-offset", "-0.5", "0.5", "--noise-sigma-accel", "0.05",
                 "--out", str(flags)]) == 0
    assert cfg.read_bytes() == flags.read_bytes() == lib.read_bytes()
    write_dataset(generate_synthetic(4, 3, seed=9), default)
    assert default.read_bytes() != lib.read_bytes()  # the prior took effect


def test_explicit_prior_flag_beats_config(tmp_path):
    cfg, out, lib = tmp_path / "cfg.json", tmp_path / "o.jsonl", tmp_path / "lib.jsonl"
    cfg.write_text(json.dumps({"gyro_offset": [-1.0, 1.0], "noise_sigma_gyro": 0.5}))
    assert main(["--config", str(cfg), "synth", "--devices", "3", "--samples", "2",
                 "--gyro-offset", "-0.01", "0.01", "--out", str(out)]) == 0
    prior = DevicePrior(gyro_offset=(-0.01, 0.01), noise_sigma_gyro=0.5)
    write_dataset(generate_synthetic(3, 2, prior), lib)
    assert out.read_bytes() == lib.read_bytes()


def test_synth_config_refuses_unknown_prior_key(tmp_path, capsys):
    out = tmp_path / "o.jsonl"
    for key in ("accel_bias", "gyro_gain"):  # gyro truth is 0, so a gyro gain would change nothing
        assert _synth_with_config(tmp_path, {key: [0, 1]}) == 3
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, key", [("synth", "noise_sigma_accel"),
                                          ("evaluate", "ldml_step")])
def test_config_integer_past_the_float_range_exits_3(workdir, tmp_path, capsys, command, key):
    # on the command line 1e400 reads as inf; as a JSON integer it overflowed
    # the conversion to float and escaped as an OverflowError
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({key: HUGE}))
    rc = main(["--config", str(cfg), command, "--devices", "2", "--out", str(out)]
              if command == "synth" else
              ["--config", str(cfg), command, "--features", str(workdir / "feat.csv"),
               "--out", str(out)])
    assert rc == 3
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_float_id_exits_3(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    line = (workdir / "data.jsonl").read_bytes().splitlines()[0]
    bad.write_bytes(line.replace(b'"dev0000"', b"18446744073709551617") + b"\n")
    assert main(["ingest", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 3
    assert "line 1: 'device_id' must be a string or an integer" in capsys.readouterr().err
    assert not (tmp_path / "o.jsonl").exists()


# 1e308 used to overflow the grid size (a RuntimeWarning, then an uncaught
# OverflowError); no valid capture is sampled faster than 200 Hz
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fs", ["inf", "nan", "0", "1e308", "201"])
def test_featurize_refuses_bad_fs_target(workdir, tmp_path, capsys, fs):
    out = tmp_path / "f.csv"
    assert main(["featurize", "--in", str(workdir / "data.jsonl"), "--fs-target", fs,
                 "--out", str(out)]) == 3
    assert "fs_target" in capsys.readouterr().err
    assert not out.exists()


def test_same_in_and_out_path_exits_3(workdir):
    path = str(workdir / "data.jsonl")
    assert main(["ingest", "--in", path, "--out", path]) == 3


# per command: flags it needs besides files, the flags naming files it reads
# (--config aside, which every command takes) and those naming files it writes
_FILE_FLAGS = {
    "synth": (["--devices", "2"], [], ["--out"]),
    "ingest": ([], ["--in"], ["--out"]),
    "featurize": ([], ["--in"], ["--out"]),
    "train-metric": (["--iterations", "2"], ["--features"], ["--out"]),
    "classify": ([], ["--features"], ["--out"]),
    "evaluate": (["--repeats", "1"], ["--features"], ["--out"]),
    "distfit": ([], ["--features", "--metric-model"], ["--out", "--intra-out", "--inter-out"]),
    "simulate": (["--device-counts", "10", "--runs", "10"], ["--intra", "--inter"], ["--out"]),
    "countermeasure": (["--scheme", "quantize", "--repeats", "1"], ["--in"],
                       ["--out", "--impact-out"]),
}


def _collisions():
    for command, (_, inputs, outputs) in _FILE_FLAGS.items():
        for i, out in enumerate(outputs):
            for other in ["--config"] + inputs + outputs[:i]:
                yield pytest.param(command, out, other, id=f"{command} {out}={other}")


@pytest.fixture(scope="module")
def input_files(workdir):
    """A valid file for every input flag."""
    d = workdir / "inputs"
    d.mkdir()
    (d / "cfg.json").write_text("{}")
    assert main(["train-metric", "--features", str(workdir / "feat.csv"), "--iterations", "2",
                 "--out", str(d / "metric.json")]) == 0
    assert main(["distfit", "--features", str(workdir / "feat.csv"),
                 "--intra-out", str(d / "intra.json"), "--inter-out", str(d / "inter.json"),
                 "--out", str(d / "distfit.json")]) == 0
    return {"--config": d / "cfg.json", "--in": workdir / "data.jsonl",
            "--features": workdir / "feat.csv", "--metric-model": d / "metric.json",
            "--intra": d / "intra.json", "--inter": d / "inter.json"}


@pytest.mark.parametrize("command, out, other", _collisions())
def test_output_naming_an_input_or_another_output_exits_3(input_files, tmp_path, capsys,
                                                          command, out, other):
    # refused before any file is read or written: the inputs keep their
    # bytes and no output appears
    settings, inputs, outputs = _FILE_FLAGS[command]
    paths = {flag: tmp_path / path.name for flag, path in input_files.items()
             if flag == "--config" or flag in inputs}
    for flag, path in paths.items():
        path.write_bytes(input_files[flag].read_bytes())
    paths.update({flag: tmp_path / f"out{i}" for i, flag in enumerate(outputs)})
    paths[out] = paths[other]
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    argv = ["--config", str(paths.pop("--config")), command, *settings]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert main(argv) == 3
    assert f"{out} names the same file as {other}" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_usage_error_exits_1(capsys):
    assert main(["evaluate", "--bogus"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_help_exits_0_and_names_units(capsys):
    assert main(["featurize", "--help"]) == 0
    out = capsys.readouterr().out
    assert "Hz" in out
    assert main(["countermeasure", "--help"]) == 0
    out = capsys.readouterr().out
    assert "m/s^2" in out and "degrees" in out


def test_featurize_round_trip(workdir):
    table = load_features_csv(workdir / "feat.csv")
    assert table.X.shape == (32, N_TOTAL)


def test_train_metric_artifact_loads(workdir, tmp_path):
    out = tmp_path / "model.json"
    assert main(["train-metric", "--features", str(workdir / "feat.csv"),
                 "--iterations", "30", "--out", str(out)]) == 0
    model = load_metric_model(out)
    assert model.L.shape == (N_TOTAL, N_TOTAL)


def test_train_metric_verbose_logs_ldml_and_keeps_artifact_bytes(workdir, tmp_path):
    # a child process: in-process, the test runner's log handlers make
    # main's logging.basicConfig a no-op
    pkg_root = str(Path(sensorprint.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    stderr = {}
    for name, flags in (("quiet", []), ("verbose", ["--verbose"])):
        proc = subprocess.run(
            [sys.executable, "-m", "sensorprint.cli", *flags, "train-metric",
             "--features", str(workdir / "feat.csv"), "--iterations", "30",
             "--out", str(tmp_path / f"{name}.json")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        stderr[name] = proc.stderr
    assert (tmp_path / "verbose.json").read_bytes() == (tmp_path / "quiet.json").read_bytes()
    lines = [ln for ln in stderr["verbose"].splitlines()
             if ln.startswith("DEBUG sensorprint.metric: ldml:")]
    assert len(lines) == 1
    for word in ("accepted step", "halving", "stopped early", "objective", "gradient norm"):
        assert word in lines[0]
    # the 8-device fleet fits every pair in 3 of the 30 allowed steps
    assert "3 accepted step(s)" in lines[0] and "stopped early: saturated" in lines[0]
    assert "ldml:" not in stderr["quiet"]
    for name in ("quiet", "verbose"):  # the INFO line counts the steps taken
        assert "train-metric: 32 vector(s), 3 accepted step(s) -> " in stderr[name]


def test_distfit_verbose_logs_each_gev_ascent_and_keeps_artifact_bytes(workdir, tmp_path):
    # a child process, as for train-metric above
    pkg_root = str(Path(sensorprint.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    artifacts = ("intra.json", "inter.json", "ranking.json")
    stderr = {}
    for name, flags in (("quiet", []), ("verbose", ["--verbose"])):
        (tmp_path / name).mkdir()  # the report echoes its paths: keep them the same
        proc = subprocess.run(
            [sys.executable, "-m", "sensorprint.cli", *flags, "distfit",
             "--features", str(workdir / "feat.csv"), "--intra-out", artifacts[0],
             "--inter-out", artifacts[1], "--out", artifacts[2]],
            env=env, cwd=tmp_path / name, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        stderr[name] = proc.stderr
    for a in artifacts:
        assert (tmp_path / "verbose" / a).read_bytes() == (tmp_path / "quiet" / a).read_bytes()
    # one line per population: intra, then inter
    lines = [ln for ln in stderr["verbose"].splitlines()
             if ln.startswith("DEBUG sensorprint.distances: gev:")]
    assert len(lines) == 2
    for ln in lines:
        assert re.fullmatch(r".*: \d+ step\(s\), \d+ halving\(s\), stop: converged, "
                            r"xi \S+, loglik \S+", ln), ln
    assert "gev:" not in stderr["quiet"]


@pytest.mark.parametrize("command, repeats", [("classify", 1), ("evaluate", 2)])
def test_rf_verbose_logs_each_forest_and_keeps_report_bytes(workdir, tmp_path, command, repeats):
    # a child process, as for train-metric above
    pkg_root = str(Path(sensorprint.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    extra = ["--repeats", str(repeats)] if command == "evaluate" else []
    stderr = {}
    for name, flags in (("quiet", []), ("verbose", ["--verbose"])):
        (tmp_path / name).mkdir()  # the report echoes its --out path: keep it the same
        proc = subprocess.run(
            [sys.executable, "-m", "sensorprint.cli", *flags, command,
             "--features", str(workdir / "feat.csv"), "--classifier", "rf", "--n-trees", "20",
             *extra, "--out", "report.json"],
            env=env, cwd=tmp_path / name, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        stderr[name] = proc.stderr
    assert ((tmp_path / "verbose" / "report.json").read_bytes()
            == (tmp_path / "quiet" / "report.json").read_bytes())
    lines = [ln for ln in stderr["verbose"].splitlines()
             if ln.startswith("DEBUG sensorprint.classify: forest:")]
    assert len(lines) == repeats
    for ln in lines:
        nodes, leaves, depth, steps, entries = map(int, re.fullmatch(
            r".*: 20 tree\(s\), (\d+) node\(s\), (\d+) leaves, max depth (\d+), "
            r"(\d+) step\(s\), (\d+) scored entries", ln).groups())
        # a step splits at most one node per tree, so the deepest leaf took
        # at least depth steps; each split scored two or more rows
        assert steps >= depth >= 1
        assert entries >= 2 * (nodes - leaves) > 0
    assert "forest:" not in stderr["quiet"]


def test_classify_report_shape(workdir, tmp_path):
    out = tmp_path / "report.json"
    assert main(["classify", "--features", str(workdir / "feat.csv"),
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "classify"
    assert rep["config"]["classifier"] == "knn"
    assert rep["config"]["seed"] == 0
    assert 0.0 <= rep["result"]["accuracy"] <= 1.0
    assert len(rep["result"]["per_class"]) >= 1


def test_evaluate_report_has_repeats(workdir, tmp_path):
    out = tmp_path / "eval.json"
    assert main(["evaluate", "--features", str(workdir / "feat.csv"),
                 "--repeats", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["result"]["per_repeat"]) == 2
    lo, hi = rep["result"]["avg_f_ci"]
    assert lo <= rep["result"]["avg_f_mean"] <= hi


def test_evaluate_reads_the_feature_table(workdir, tmp_path):
    from sensorprint.classify import run_protocol

    out = tmp_path / "eval.json"
    assert main(["evaluate", "--features", str(workdir / "feat.csv"), "--classifier", "rf",
                 "--n-trees", "10", "--repeats", "2", "--seed", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    expected = run_protocol(load_features_csv(workdir / "feat.csv"), classifier="rf",
                            n_trees=10, repeats=2, seed=3)
    assert rep["result"]["avg_f_mean"] == expected.avg_f_mean
    assert rep["result"]["per_repeat"] == [{"avg_f": r.avg_f, "accuracy": r.accuracy}
                                           for r in expected.reports]
    assert rep["config"]["features"] == str(workdir / "feat.csv")
    assert "fs_target" not in rep["config"] and "input" not in rep["config"]


@pytest.mark.parametrize("command, flags", [
    ("classify", ["--in", "data.jsonl"]),
    ("classify", ["--fs-target", "100"]),
    ("evaluate", ["--fs-target", "100"]),
])
def test_protocol_commands_take_no_dataset_flags(workdir, tmp_path, capsys, command, flags):
    # only featurize resamples: classify and evaluate read its table
    out = tmp_path / "report.json"
    assert main([command, "--features", str(workdir / "feat.csv"), *flags,
                 "--out", str(out)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_distfit_ranking_and_fit_files(workdir, tmp_path):
    out = tmp_path / "dist.json"
    fi, fe = tmp_path / "intra.json", tmp_path / "inter.json"
    assert main(["distfit", "--features", str(workdir / "feat.csv"),
                 "--intra-out", str(fi), "--inter-out", str(fe),
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    for kind in ("intra", "inter"):
        aics = [f["aic"] for f in rep[kind]["ranking"]]
        assert aics == sorted(aics)
        assert rep[kind]["n_distances"] > 0
    kind, fit = load_fitted(fi)
    assert kind == "intra" and fit.family == rep["intra"]["ranking"][0]["family"]


def test_distfit_without_model_uses_standardized_space(workdir, tmp_path):
    from sensorprint.distances import ks_statistic, pairwise_distances, rank_families
    from sensorprint.metric import standardizer

    out = tmp_path / "dist.json"
    assert main(["distfit", "--features", str(workdir / "feat.csv"), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    table = load_features_csv(workdir / "feat.csv")
    pops = pairwise_distances(table.X, table.device_ids, standardizer(table.X))
    for kind, values in zip(("intra", "inter"), pops):
        assert rep[kind]["n_distances"] == len(values)
        assert rep[kind]["ranking"] == [
            {"family": f.family, "params": f.params, "log_likelihood": f.log_likelihood,
             "aic": f.aic, "ks": ks_statistic(values, f)}
            for f in rank_families(values)]


def test_distfit_failed_fit_leaves_no_files(tmp_path, capsys):
    # one device with 5 captures and one with 1: 10 intra distances fit, 5
    # inter distances fit no family; the intra fit used to be written first
    data, feat = tmp_path / "data.jsonl", tmp_path / "feat.csv"
    assert main(["synth", "--devices", "2", "--samples", "5", "--out", str(data)]) == 0
    assert main(["featurize", "--in", str(data), "--out", str(feat)]) == 0
    lines = feat.read_text().splitlines(keepends=True)
    feat.write_text("".join(lines[:7]))  # the header, dev0000's five rows, one of dev0001
    outs = {flag: tmp_path / f"{flag[2:]}.json" for flag in ("--intra-out", "--inter-out", "--out")}
    argv = ["distfit", "--features", str(feat)]
    for flag, path in outs.items():
        argv += [flag, str(path)]
    assert main(argv) == 3
    assert "inter distances: all family fits failed" in capsys.readouterr().err
    assert not any(path.exists() for path in outs.values())


def _distfit_without_model(features, d):
    """distfit of ``features`` without a metric model, into the new directory
    ``d``; the fit files and the ranking (without its config echo)."""
    d.mkdir()
    outs = {flag: d / f"{flag[2:]}.json" for flag in ("--intra-out", "--inter-out", "--out")}
    argv = ["distfit", "--features", str(features)]
    for flag, path in outs.items():
        argv += [flag, str(path)]
    assert main(argv) == 0
    ranking = json.loads(outs["--out"].read_text())
    del ranking["config"]
    return outs["--intra-out"].read_bytes(), outs["--inter-out"].read_bytes(), ranking


@pytest.fixture(scope="module")
def round_robin(workdir, tmp_path_factory):
    """workdir's feature table, featurized from its dataset in round-robin
    order (every device's first capture, then every device's second, ...)."""
    d = tmp_path_factory.mktemp("round_robin")
    lines = (workdir / "data.jsonl").read_bytes().splitlines(keepends=True)
    order = sorted(range(len(lines)), key=lambda i: i % 4)  # 4 captures per device
    (d / "data.jsonl").write_bytes(b"".join(lines[i] for i in order))
    assert main(["featurize", "--in", str(d / "data.jsonl"), "--out", str(d / "feat.csv")]) == 0
    return d / "feat.csv"


def test_distfit_without_model_ignores_row_order(workdir, round_robin, tmp_path):
    assert (_distfit_without_model(round_robin, tmp_path / "round_robin")
            == _distfit_without_model(workdir / "feat.csv", tmp_path / "grouped"))


@pytest.mark.parametrize("order", ["grouped", "round_robin"])
def test_validate_fits_are_what_distfit_ranks_first(order, workdir, round_robin, tmp_path):
    from sensorprint.simulate import validate_against_empirical

    features = workdir / "feat.csv" if order == "grouped" else round_robin
    _distfit_without_model(features, tmp_path / "fits")
    table = load_features_csv(features)
    assert len(table.eligible(4).X) == len(table.X)  # every device has 3 + 1 captures
    rep = validate_against_empirical(table, train_per_device=3, repeats=1, runs=100)
    assert rep.intra_fit == load_fitted(tmp_path / "fits" / "intra-out.json")[1]
    assert rep.inter_fit == load_fitted(tmp_path / "fits" / "inter-out.json")[1]


@pytest.fixture(scope="module")
def huge_column_features(workdir):
    """The workdir table with column f003 near 1e300: finite, but its std overflows."""
    rows = (workdir / "feat.csv").read_text().splitlines()
    col = rows[0].split(",").index("f003")
    for i in range(1, len(rows)):
        cells = rows[i].split(",")
        cells[col] = repr(1e300 * (1 + 0.1 * i))
        rows[i] = ",".join(cells)
    path = workdir / "huge.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flags", [
    ("evaluate", ["--repeats", "1"]),
    ("distfit", []),
    ("train-metric", ["--iterations", "3"]),
])
def test_column_whose_std_overflows_exits_3_without_warning(huge_column_features, tmp_path,
                                                            capsys, command, flags):
    out = tmp_path / "out.json"
    assert main([command, "--features", str(huge_column_features), *flags,
                 "--out", str(out)]) == 3
    assert "feature columns [3]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flags", [
    ("train-metric", ["--step", "1e300"]),
    ("evaluate", ["--use-ldml", "--ldml-step", "1e308", "--repeats", "1"]),
])
def test_overflowing_ldml_step_exits_3_without_warning(workdir, tmp_path, capsys,
                                                       command, flags):
    out = tmp_path / "out.json"
    assert main([command, "--features", str(workdir / "feat.csv"), *flags,
                 "--out", str(out)]) == 3
    assert "non-finite objective at iteration 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("classify", ["--k", "-1"]),
    ("classify", ["--ldml-step", "nan"]),
    ("evaluate", ["--repeats", "0"]),
    ("evaluate", ["--train-per-device", "-1"]),
    ("classify", ["--train-per-device", "0"]),
])
def test_protocol_refuses_bad_values(workdir, tmp_path, capsys, command, flags):
    out = tmp_path / "report.json"
    assert main([command, "--features", str(workdir / "feat.csv"), *flags,
                 "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--iterations", "-3"], ["--step", "-1"]])
def test_train_metric_refuses_untrained_settings(workdir, tmp_path, capsys, flags):
    out = tmp_path / "model.json"
    assert main(["train-metric", "--features", str(workdir / "feat.csv"), *flags,
                 "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_sweep_csv(workdir, tmp_path):
    fi, fe = tmp_path / "intra.json", tmp_path / "inter.json"
    assert main(["distfit", "--features", str(workdir / "feat.csv"),
                 "--intra-out", str(fi), "--inter-out", str(fe),
                 "--out", str(tmp_path / "d.json")]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--intra", str(fi), "--inter", str(fe),
                 "--device-counts", "10", "50", "--runs", "400",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,N,D,runs,accuracy,ci_low,ci_high"
    assert len(lines) == 3


def test_simulate_even_k_exits_3(workdir, tmp_path, capsys):
    fi, fe = tmp_path / "intra.json", tmp_path / "inter.json"
    main(["distfit", "--features", str(workdir / "feat.csv"),
          "--intra-out", str(fi), "--inter-out", str(fe),
          "--out", str(tmp_path / "d.json")])
    rc = main(["simulate", "--intra", str(fi), "--inter", str(fe), "--k", "2",
               "--device-counts", "10", "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "k must be odd" in capsys.readouterr().err


def test_simulate_swapped_fits_exit_3(workdir, tmp_path, capsys):
    fi, fe = tmp_path / "intra.json", tmp_path / "inter.json"
    main(["distfit", "--features", str(workdir / "feat.csv"),
          "--intra-out", str(fi), "--inter-out", str(fe),
          "--out", str(tmp_path / "d.json")])
    rc = main(["simulate", "--intra", str(fe), "--inter", str(fi),
               "--device-counts", "10", "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("flag, count", [("--device-counts", 10**400),
                                         ("--train-counts", 10**400),
                                         ("--device-counts", 2**53 + 2)],
                         ids=["device_counts_1e400", "train_counts_1e400", "device_counts_2e53"])
def test_simulate_refuses_counts_past_exact_doubles(tmp_path, capsys, flag, count):
    # a 400-digit count used to escape as an OverflowError (exit 1)
    fi, fe = tmp_path / "intra.json", tmp_path / "inter.json"
    _write_fit(fi, "intra", "LOG_NORMAL", {"mu": 0.0, "sigma": 0.5})
    _write_fit(fe, "inter", "LOG_NORMAL", {"mu": 1.0, "sigma": 0.5})
    out = tmp_path / "s.csv"
    counts = ["--device-counts", "10"] if flag == "--train-counts" else []
    rc = main(["simulate", "--intra", str(fi), "--inter", str(fe), *counts,
               flag, str(count), "--runs", "10", "--out", str(out)])
    assert rc == 3
    assert "N*(D-1) exceeds 2**53" in capsys.readouterr().err
    assert not out.exists()


def test_countermeasure_tags_output(workdir, tmp_path):
    out = tmp_path / "quant.jsonl"
    assert main(["countermeasure", "--in", str(workdir / "data.jsonl"),
                 "--scheme", "quantize", "--out", str(out)]) == 0
    assert len(load_dataset(out).samples) == 32


def test_countermeasure_impact_report(workdir, tmp_path):
    out = tmp_path / "obf.jsonl"
    imp = tmp_path / "impact.json"
    assert main(["countermeasure", "--in", str(workdir / "data.jsonl"),
                 "--scheme", "obfuscate", "--out", str(out),
                 "--impact-out", str(imp), "--classifier", "knn",
                 "--repeats", "2"]) == 0
    rep = json.loads(imp.read_text())
    assert rep["result"]["countermeasure"] == "obfuscate"
    assert rep["result"]["protected_avg_f"] <= rep["result"]["baseline_avg_f"]


def test_countermeasure_impact_applies_the_countermeasure_once(workdir, tmp_path, monkeypatch):
    from sensorprint import countermeasures

    calls = []
    apply = countermeasures.apply_countermeasure
    monkeypatch.setattr(countermeasures, "apply_countermeasure",
                        lambda *a, **kw: calls.append(a[1]) or apply(*a, **kw))
    assert main(["countermeasure", "--in", str(workdir / "data.jsonl"), "--scheme", "quantize",
                 "--out", str(tmp_path / "q.jsonl"), "--impact-out", str(tmp_path / "i.json"),
                 "--classifier", "knn", "--repeats", "1"]) == 0
    assert calls == ["quantize"]


def test_countermeasure_impact_takes_the_protocol_flags(workdir, tmp_path):
    from sensorprint.countermeasures import privacy_impact

    imp = tmp_path / "imp.json"
    assert main(["countermeasure", "--in", str(workdir / "data.jsonl"), "--scheme", "quantize",
                 "--out", str(tmp_path / "q.jsonl"), "--impact-out", str(imp),
                 "--classifier", "knn", "--k", "3", "--seed", "4", "--repeats", "2"]) == 0
    expected = privacy_impact(load_dataset(workdir / "data.jsonl"), "quantize", classifier="knn",
                              k=3, seed=4, repeats=2)
    report = json.loads(imp.read_text())
    assert report["result"] == expected.to_dict()
    # the split flags only: the impact report takes no metric-learning knobs
    assert "use_ldml" not in report["config"]


def test_countermeasure_help_names_its_classifier_default(capsys):
    assert main(["countermeasure", "--help"]) == 0
    assert "classifier to run (default rf)" in " ".join(capsys.readouterr().out.split())
    assert main(["evaluate", "--help"]) == 0
    assert "classifier to run (default knn)" in " ".join(capsys.readouterr().out.split())


def test_repeated_captures_fit_a_point_mass_and_simulate(tmp_path):
    # each device records one capture four times: every intra distance is 0,
    # which no continuous family fits, so distfit ranks one DEGENERATE atom
    # and the simulator identifies every probe
    import dataclasses

    from sensorprint.dataset import Dataset, generate_synthetic, write_dataset

    ds = Dataset([dataclasses.replace(s, sample_id=f"r{i}")
                  for s in generate_synthetic(6, 1, seed=3).samples for i in range(4)])
    write_dataset(ds, tmp_path / "rep.jsonl")
    p = {name: str(tmp_path / name) for name in
         ("rep.jsonl", "f.csv", "fi.json", "fe.json", "dist.json", "sweep.csv")}
    assert main(["featurize", "--in", p["rep.jsonl"], "--out", p["f.csv"]]) == 0
    assert main(["distfit", "--features", p["f.csv"], "--intra-out", p["fi.json"],
                 "--inter-out", p["fe.json"], "--out", p["dist.json"]]) == 0
    intra = json.loads(Path(p["dist.json"]).read_text())["intra"]["ranking"]
    assert [(r["family"], r["params"], r["ks"]) for r in intra] == [
        ("DEGENERATE", {"value": 0.0}, 0.0)]
    assert main(["simulate", "--intra", p["fi.json"], "--inter", p["fe.json"],
                 "--device-counts", "6", "1000", "--runs", "500", "--out", p["sweep.csv"]]) == 0
    rows = Path(p["sweep.csv"]).read_text().splitlines()[1:]
    assert [float(r.split(",")[4]) for r in rows] == [1.0, 1.0]


def test_countermeasure_refused_impact_settings_leave_no_files(workdir, tmp_path, capsys):
    out, imp = tmp_path / "q.jsonl", tmp_path / "imp.json"
    rc = main(["countermeasure", "--in", str(workdir / "data.jsonl"), "--scheme", "quantize",
               "--impact-out", str(imp), "--repeats", "0", "--out", str(out)])
    assert rc == 3
    assert "repeats must be >= 1" in capsys.readouterr().err
    assert not out.exists() and not imp.exists()


@pytest.mark.parametrize("scheme, flags", [
    ("obfuscate", ["--offset-range", "nan", "1"]),
    ("obfuscate", ["--gain-range", "0.5", "inf"]),
    ("quantize", ["--angle-bin", "nan"]),
    # finite settings whose readings overflow to infinity or NaN
    pytest.param("obfuscate", ["--gain-range", "1e308", "1e308"],
                 marks=pytest.mark.filterwarnings("error")),
    # a subnormal bin overflows the quotient: refused before any warning
    pytest.param("quantize", ["--angle-bin", "1e-320"], marks=pytest.mark.filterwarnings("error")),
    pytest.param("quantize", ["--magnitude-bin", "1e-320"],
                 marks=pytest.mark.filterwarnings("error")),
])
def test_countermeasure_refuses_non_finite_settings(workdir, tmp_path, capsys, scheme, flags):
    out = tmp_path / "cm.jsonl"
    assert main(["countermeasure", "--in", str(workdir / "data.jsonl"), "--scheme", scheme,
                 *flags, "--out", str(out)]) == 3
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_fills_defaults_but_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"devices": 3, "samples": 2, "seed": 9}))
    out1 = tmp_path / "a.jsonl"
    assert main(["--config", str(cfg), "synth", "--out", str(out1)]) == 0
    assert len(load_dataset(out1).index) == 3
    out2 = tmp_path / "b.jsonl"
    assert main(["--config", str(cfg), "synth", "--devices", "5",
                 "--out", str(out2)]) == 0
    assert len(load_dataset(out2).index) == 5  # explicit flag beats config


def test_unknown_config_key_exits_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    # internal parser fields and --help are not flags a config may set
    for key in ("no_such_flag", "func", "help"):
        cfg.write_text(json.dumps({key: 1}))
        rc = main(["--config", str(cfg), "synth", "--devices", "1",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 3


def test_config_string_for_int_flag_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"devices": "3"}))
    out = tmp_path / "o.jsonl"
    assert main(["--config", str(cfg), "synth", "--out", str(out)]) == 1
    assert "error: config key 'devices': --devices must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_config_float_for_int_flag_is_a_usage_error(tmp_path, capsys):
    # like --samples 2.5 on the command line, not silently truncated to 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 2.5, "devices": 2}))
    out = tmp_path / "o.jsonl"
    assert main(["--config", str(cfg), "synth", "--out", str(out)]) == 1
    assert "error: config key 'samples': --samples must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("countermeasure", {"scheme": "blur"}),
    ("countermeasure", {"offset_range": [1.0]}),
    ("countermeasure", {"gain-range": [0.5, "1"]}),
    ("simulate", {"device_counts": []}),
    ("featurize", {"fs_target": True}),
    ("featurize", {"out": 5}),
    ("synth", {"verbose": 1}),
])
def test_config_value_the_flag_would_refuse_exits_1(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), command]) == 1
    assert f"error: config key {next(iter(config))!r}:" in capsys.readouterr().err


def test_config_numbers_convert_like_flags(workdir, tmp_path):
    # an integer for a float flag reads as that float, as on the command line,
    # so the reports match apart from their own path; null leaves a flag
    # whose default is None unset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ldml_step": 1, "repeats": 2, "d_prime": None}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--config", str(cfg), "evaluate", "--features", str(workdir / "feat.csv"),
                 "--out", str(a)]) == 0
    assert main(["evaluate", "--features", str(workdir / "feat.csv"), "--ldml-step", "1",
                 "--repeats", "2", "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["config"].pop("out") == str(a) and rb["config"].pop("out") == str(b)
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    assert "1.0" in json.dumps(ra["config"]["ldml_step"])


def test_rerun_artifacts_byte_identical(workdir, tmp_path):
    # identical invocation twice: the artifact must not change by a byte
    out = tmp_path / "rerun.json"
    argv = ["evaluate", "--features", str(workdir / "feat.csv"),
            "--repeats", "2", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_config_input_does_not_override_explicit_in(workdir, tmp_path):
    # the config names a different input; the explicit --in must be read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(tmp_path / "absent.jsonl")}))
    out = tmp_path / "o.jsonl"
    assert main(["--config", str(cfg), "ingest", "--in", str(workdir / "data.jsonl"),
                 "--out", str(out)]) == 0
    assert len(load_dataset(out).samples) == 32


def test_config_input_equal_to_out_does_not_refuse_explicit_in(workdir, tmp_path):
    out = tmp_path / "o2.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(out)}))
    assert main(["--config", str(cfg), "ingest", "--in", str(workdir / "data.jsonl"),
                 "--out", str(out)]) == 0


def test_config_fills_missing_in_and_names_flag_when_absent(workdir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(workdir / "data.jsonl")}))
    assert main(["--config", str(cfg), "ingest", "--out", str(tmp_path / "o.jsonl")]) == 0
    assert main(["ingest", "--out", str(tmp_path / "o.jsonl")]) == 1
    assert "missing required arguments: --in" in capsys.readouterr().err


def test_abbreviated_flag_is_a_usage_error(tmp_path, capsys):
    assert main(["synth", "--dev", "2", "--out", str(tmp_path / "x.jsonl")]) == 1
    capsys.readouterr()


def _fit_files(workdir, tmp_path):
    fi, fe = tmp_path / "intra.json", tmp_path / "inter.json"
    assert main(["distfit", "--features", str(workdir / "feat.csv"),
                 "--intra-out", str(fi), "--inter-out", str(fe),
                 "--out", str(tmp_path / "d.json")]) == 0
    return fi, fe


_MISTYPED_FIT = {"n_string": ("n", "9"), "n_float": ("n", 2.5), "n_negative": ("n", -3),
                 "n_bool": ("n", True), "loglik_string": ("loglik", "-10")}


@pytest.mark.parametrize("damage", ["truncate", "drop_family", "params_list", "not_object",
                                    *_MISTYPED_FIT])
def test_malformed_fit_json_exits_3(workdir, tmp_path, capsys, damage):
    fi, fe = _fit_files(workdir, tmp_path)
    text = fi.read_text()
    payload = json.loads(text)
    if damage in _MISTYPED_FIT:
        key, value = _MISTYPED_FIT[damage]
        payload[key] = value
        fi.write_text(json.dumps(payload))
    elif damage == "truncate":
        fi.write_text(text[: len(text) // 2])
    elif damage == "drop_family":
        del payload["family"]
        fi.write_text(json.dumps(payload))
    elif damage == "params_list":
        payload["params"] = [1.0, 2.0]
        fi.write_text(json.dumps(payload))
    else:
        fi.write_text("[1, 2]")
    rc = main(["simulate", "--intra", str(fi), "--inter", str(fe),
               "--device-counts", "10", "--runs", "10", "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error:" in err
    if damage in _MISTYPED_FIT:
        assert "malformed distribution fit" in err


def test_fit_of_an_unknown_family_names_the_file(workdir, tmp_path, capsys):
    # FittedDistribution's refusal used to reach the CLI alone, naming
    # neither the file nor the flag that gave it
    fi, fe = _fit_files(workdir, tmp_path)
    payload = json.loads(fe.read_text())
    payload["family"] = "NOPE"
    fe.write_text(json.dumps(payload))
    out = tmp_path / "s.csv"
    assert main(["simulate", "--intra", str(fi), "--inter", str(fe),
                 "--device-counts", "10", "--runs", "10", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"malformed distribution fit {str(fe)!r}" in err
    assert "unknown family 'NOPE'" in err
    assert not out.exists()


def _write_fit(path, kind, family, params, loglik=-10.0, n=50):
    # with the aic key older files carry: it is ignored on load
    payload = {"class": kind, "family": family, "params": params,
               "loglik": loglik, "aic": 2 * len(params) - 2 * loglik, "n": n}
    path.write_text(json.dumps(payload))  # json writes NaN/Infinity literally


@pytest.mark.parametrize("kind, family, params", [
    ("inter", "GEV", {"mu": float("nan"), "sigma": 1.0, "xi": 0.1}),
    ("intra", "UNIFORM", {"lo": float("-inf"), "hi": 1.0}),
])
def test_non_finite_fit_json_exits_3(tmp_path, capsys, kind, family, params):
    # a NaN GEV location used to run to a sweep of accuracy 0.0 (exit 0), an
    # infinite UNIFORM edge to an OverflowError in the sampler (exit 1)
    fits = {"intra": tmp_path / "intra.json", "inter": tmp_path / "inter.json"}
    _write_fit(fits["intra"], "intra", "LOG_NORMAL", {"mu": 0.0, "sigma": 0.5})
    _write_fit(fits["inter"], "inter", "LOG_NORMAL", {"mu": 1.0, "sigma": 0.5})
    _write_fit(fits[kind], kind, family, params)
    out = tmp_path / "s.csv"
    rc = main(["simulate", "--intra", str(fits["intra"]), "--inter", str(fits["inter"]),
               "--device-counts", "10", "--runs", "10", "--out", str(out)])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


# damage -> (key, replacement value, what the error says); the misshaped means
# and stds used to load beside the 100 x 100 L and broadcast into every distance
_REPLACED_METRIC = {"bias_string": ("bias", "0.5", "malformed metric model"),
                    "means_2d": ("means", [[0.0]], "one per column of L"),
                    "stds_short": ("stds", [2.0], "one per column of L")}
# damage -> (key, element index, JSON value that is not a number); each used to
# load as the float numpy made of it ("means": [true, "1.5"] as [1.0, 1.5])
_ELEMENT_METRIC = {"bool_in_means": ("means", 0, True),
                   "string_in_stds": ("stds", 1, "1.5"),
                   "string_in_L": ("L", (0, 1), "0.25")}


@pytest.mark.parametrize("damage", ["truncate", "drop_means", "flat_L", "nan_means",
                                    "nan_stds", "nan_bias", *_REPLACED_METRIC,
                                    *_ELEMENT_METRIC])
def test_malformed_metric_json_exits_3(workdir, tmp_path, capsys, caplog, damage):
    model = tmp_path / "m.json"
    assert main(["train-metric", "--features", str(workdir / "feat.csv"),
                 "--iterations", "2", "--out", str(model)]) == 0
    text = model.read_text()
    payload = json.loads(text)
    if damage in _REPLACED_METRIC:
        key, value, _ = _REPLACED_METRIC[damage]
        payload[key] = value
        model.write_text(json.dumps(payload))
    elif damage in _ELEMENT_METRIC:
        key, i, value = _ELEMENT_METRIC[damage]
        if key == "L":
            payload[key][i[0]][i[1]] = value
        else:
            payload[key][i] = value
        model.write_text(json.dumps(payload))
    elif damage == "truncate":
        model.write_text(text[: len(text) // 2])
    elif damage == "drop_means":
        del payload["means"]
        model.write_text(json.dumps(payload))
    elif damage == "flat_L":
        payload["L"] = payload["L"][0]
        model.write_text(json.dumps(payload))
    else:  # json writes NaN literally
        key = damage.removeprefix("nan_")
        if key == "bias":
            payload[key] = float("nan")
        else:
            payload[key][1] = float("nan")
        model.write_text(json.dumps(payload))
    out = tmp_path / "d.json"
    rc = main(["distfit", "--features", str(workdir / "feat.csv"),
               "--metric-model", str(model), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error:" in err
    if damage in _REPLACED_METRIC:
        assert _REPLACED_METRIC[damage][2] in err
    if damage in _ELEMENT_METRIC:
        assert f"{_ELEMENT_METRIC[damage][0]} must be a number" in err
    # refused on load, before the distances are fitted
    assert not any("fit of" in r.getMessage() for r in caplog.records)
    assert not out.exists()


def test_ragged_metric_matrix_names_the_file(workdir, tmp_path, capsys):
    # numpy's refusal of a ragged L used to reach the CLI alone
    model = tmp_path / "m.json"
    assert main(["train-metric", "--features", str(workdir / "feat.csv"),
                 "--iterations", "2", "--out", str(model)]) == 0
    payload = json.loads(model.read_text())
    payload["L"][1] = payload["L"][1][:3]
    model.write_text(json.dumps(payload))
    out = tmp_path / "d.json"
    assert main(["distfit", "--features", str(workdir / "feat.csv"),
                 "--metric-model", str(model), "--out", str(out)]) == 3
    assert f"malformed metric model {str(model)!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["abc", ""], ids=["text", "empty"])
def test_feature_cell_that_is_not_a_number_is_named(workdir, tmp_path, capsys, cell):
    lines = (workdir / "feat.csv").read_text().splitlines()
    row = lines[3].split(",")
    row[2 + 5] = cell
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
    out = tmp_path / "m.json"
    assert main(["train-metric", "--features", str(bad), "--out", str(out)]) == 3
    assert (f"error: row for device {row[0]!r}, sample {row[1]!r}: f005 {cell!r} "
            "is not a number") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["truncate", "drop_column", "empty", "repeated_row"])
def test_malformed_features_csv_exits_3(workdir, tmp_path, capsys, damage):
    text = (workdir / "feat.csv").read_text()
    bad = tmp_path / "bad.csv"
    if damage == "repeated_row":  # a copied capture would be its own zero-distance neighbour
        lines = text.splitlines()
        bad.write_text("\n".join(lines + [lines[2]]) + "\n")
    elif damage == "truncate":
        bad.write_text(text[: len(text) // 2])
    elif damage == "drop_column":
        bad.write_text("\n".join(",".join(line.split(",")[:-1])
                                 for line in text.splitlines()) + "\n")
    else:
        bad.write_text(text.splitlines()[0] + "\n")
    rc = main(["train-metric", "--features", str(bad), "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_truncated_dataset_jsonl_exits_3(workdir, tmp_path, capsys):
    text = (workdir / "data.jsonl").read_text()
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text[: len(text) // 2])
    rc = main(["featurize", "--in", str(bad), "--out", str(tmp_path / "f.csv")])
    assert rc == 3
    assert "malformed record" in capsys.readouterr().err


# an integer beyond the float range used to reach np.asarray / float() as a
# Python int and escape as an OverflowError (exit 1 with a traceback)
HUGE = 10 ** 400


def test_oversized_integer_reading_exits_3(workdir, tmp_path, capsys):
    rec = json.loads((workdir / "data.jsonl").read_text().splitlines()[0])
    rec["ax"][0] = HUGE
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(rec) + "\n")
    out = tmp_path / "f.csv"
    assert main(["featurize", "--in", str(bad), "--out", str(out)]) == 3
    assert "line 1: malformed record" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_integer_in_metric_model_exits_3(workdir, tmp_path, capsys):
    model = tmp_path / "m.json"
    assert main(["train-metric", "--features", str(workdir / "feat.csv"),
                 "--iterations", "2", "--out", str(model)]) == 0
    payload = json.loads(model.read_text())
    payload["means"][0] = HUGE
    model.write_text(json.dumps(payload))
    out = tmp_path / "d.json"
    assert main(["distfit", "--features", str(workdir / "feat.csv"),
                 "--metric-model", str(model), "--out", str(out)]) == 3
    assert "malformed metric model" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_integer_in_fit_params_exits_3(tmp_path, capsys):
    fi, fe = tmp_path / "intra.json", tmp_path / "inter.json"
    _write_fit(fi, "intra", "LOG_NORMAL", {"mu": 0.0, "sigma": 0.5})
    _write_fit(fe, "inter", "LOG_NORMAL", {"mu": HUGE, "sigma": 0.5})
    out = tmp_path / "s.csv"
    assert main(["simulate", "--intra", str(fi), "--inter", str(fe),
                 "--device-counts", "10", "--runs", "10", "--out", str(out)]) == 3
    assert "malformed distribution fit" in capsys.readouterr().err
    assert not out.exists()


def test_diverging_metric_training_exits_3(workdir, tmp_path, monkeypatch, capsys):
    from sensorprint import metric

    def diverge(*args, **kwargs):
        raise RuntimeError("non-finite gradient at iteration 0")

    monkeypatch.setattr(metric, "train_ldml", diverge)
    rc = main(["train-metric", "--features", str(workdir / "feat.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert "non-finite gradient" in capsys.readouterr().err


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.fixture
def thread_env(monkeypatch):
    """Unset the thread caps; monkeypatch puts the old values back afterwards."""
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    return os.environ


def _synth_with_config(tmp_path, config, *flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"devices": 1, "samples": 1, **config}))
    return main(["--config", str(cfg), *flags, "synth", "--out", str(tmp_path / "o.jsonl")])


def test_config_threads_sets_thread_caps(tmp_path, thread_env):
    assert _synth_with_config(tmp_path, {"threads": 2}) == 0
    assert all(thread_env[var] == "2" for var in _THREAD_VARS)


def test_explicit_threads_beats_config_threads(tmp_path, thread_env):
    assert _synth_with_config(tmp_path, {"threads": 2}, "--threads", "1") == 0
    assert all(thread_env[var] == "1" for var in _THREAD_VARS)


def test_config_threads_below_one_is_a_usage_error(tmp_path, thread_env, capsys):
    for bad in (0, -3, "2", 1.5):
        assert _synth_with_config(tmp_path, {"threads": bad}) == 1
        assert "--threads must be" in capsys.readouterr().err
    assert not any(var in thread_env for var in _THREAD_VARS)
    assert main(["--threads", "0", "synth", "--out", str(tmp_path / "o.jsonl")]) == 1


def test_config_verbose_sets_debug_level(tmp_path, monkeypatch):
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    assert _synth_with_config(tmp_path, {"verbose": True}) == 0
    assert _synth_with_config(tmp_path, {}) == 0
    assert _synth_with_config(tmp_path, {"verbose": False}, "--verbose") == 0
    assert levels == [logging.DEBUG, logging.INFO, logging.DEBUG]


def test_cli_defaults_are_the_library_defaults():
    # the CLI imports no numeric module before --threads is applied, so it
    # writes each library default out a second time; this keeps the copies equal
    import dataclasses
    import inspect

    from sensorprint.classify import run_protocol
    from sensorprint.cli import _LDML_SETTINGS, _SPLIT_SETTINGS, _actions, _build_parser
    from sensorprint.countermeasures import (
        ObfuscationConfig, QuantizationConfig, privacy_impact,
    )
    from sensorprint.metric import train_ldml
    from sensorprint.preprocess import DEFAULT_FS

    parser = _build_parser()

    def flags(command):
        return {dest: a.default for dest, a in _actions(parser, command).items()}

    def signature(fn):
        return {name: p.default for name, p in inspect.signature(fn).parameters.items()}

    def fields(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)}

    assert flags("featurize")["fs_target"] == DEFAULT_FS
    protocol = signature(run_protocol)
    for command in ("classify", "evaluate", "countermeasure"):
        cli = flags(command)
        expected = {**protocol, "classifier": signature(privacy_impact)["classifier"]} \
            if command == "countermeasure" else protocol
        for dest in (*_SPLIT_SETTINGS, *_LDML_SETTINGS, "repeats"):
            if dest in cli:
                assert cli[dest] == expected[dest], (command, dest)
    train = flags("train-metric")
    for dest in ("iterations", "step", "d_prime", "seed"):
        assert train[dest] == signature(train_ldml)[dest], dest
    synth = flags("synth")
    for dest in fields(DevicePrior):  # unset unless given: DevicePrior holds the defaults
        assert synth[dest] is None, dest
    cm = flags("countermeasure")
    for dest, default in {**fields(ObfuscationConfig), **fields(QuantizationConfig)}.items():
        value = cm[dest]
        assert (tuple(value) if isinstance(value, list) else value) == default, dest
