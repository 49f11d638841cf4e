"""Package-wide checks: what importing sensorprint pulls in, and the names
the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sensorprint

PKG_ROOT = Path(sensorprint.__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _child_stdout(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports sensorprint."""
    pythonpath = os.pathsep.join(filter(None, [str(PKG_ROOT), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_every_module_leaves_scipy_stats_out():
    # scipy.stats adds about a second to every CLI start and no module needs it
    n_modules, has_stats = _child_stdout(
        "import importlib, pkgutil, sys, sensorprint\n"
        "mods = [m.name for m in pkgutil.iter_modules(sensorprint.__path__)]\n"
        "for m in mods:\n"
        "    importlib.import_module('sensorprint.' + m)\n"
        "print(len(mods), 'scipy.stats' in sys.modules)\n"
    ).split()
    assert int(n_modules) >= 9
    assert has_stats == "False"


def test_fitting_every_family_leaves_the_optimizer_out():
    # every estimator, GEV's Newton ascent too, is written out in numpy and
    # scipy.special, so no module (cli and simulate among them) nor any fit
    # loads scipy.optimize, an import of 0.1-0.2 s
    n_modules, has_optimize = _child_stdout(
        "import importlib, pkgutil, sys, numpy, sensorprint\n"
        "from sensorprint.distances import FAMILIES, rank_families\n"
        "mods = [m.name for m in pkgutil.iter_modules(sensorprint.__path__)]\n"
        "for m in mods:\n"
        "    importlib.import_module('sensorprint.' + m)\n"
        "x = numpy.random.default_rng(0).gamma(3.0, 1.0, 500)\n"
        "assert len(rank_families(x)) == len(FAMILIES)\n"
        "print(len(mods), 'scipy.optimize' in sys.modules)\n"
    ).split()
    assert int(n_modules) >= 9
    assert has_optimize == "False"


def test_featurization_leaves_the_interpolators_and_the_optimizer_out():
    # the spline is solved with LAPACK's gtsv directly; nothing on the
    # featurize or countermeasure path fits a family
    out = _child_stdout("import sys, sensorprint.preprocess, sensorprint.features, "
                        "sensorprint.countermeasures\n"
                        "print('scipy.interpolate' in sys.modules, 'scipy.optimize' in sys.modules)\n")
    assert out.split() == ["False", "False"]


@pytest.mark.parametrize("module", ["features", "countermeasures"])
def test_featurization_leaves_scipy_out(module):
    # rows_by_device lives in dataset, so the feature path needs no scipy
    out = _child_stdout(f"import sys, sensorprint.{module}\n"
                        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    assert out.split() == ["False"]


@pytest.mark.parametrize("module", ["cli", "dataset", "preprocess"])
def test_entry_modules_leave_orjson_and_linalg_out(module):
    # both are imported where a dataset is read or written and where a
    # spline is solved, so a CLI start that does neither skips them
    out = _child_stdout(f"import sys, sensorprint.{module}\n"
                        "print('orjson' in sys.modules, 'scipy.linalg' in sys.modules)\n")
    assert out.split() == ["False", "False"]


def _load_tracer(monkeypatch):
    """perfbench/tracer.py as a module, without writing its bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is not in this checkout")
def test_traced_names_exist(monkeypatch):
    # a renamed or deleted function would otherwise break only the traced
    # benchmark run (perfbench/run.py --trace 1)
    tracer = _load_tracer(monkeypatch)
    assert tracer.PACKAGE == "sensorprint"
    missing = [
        f"{mod}.{name}"
        for mod, names in tracer.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"sensorprint.{mod}"), name, None))
    ]
    assert missing == []
    # the tracer rebinds every namespace that holds a wrapped function
    features = importlib.import_module("sensorprint.features")
    preprocess = importlib.import_module("sensorprint.preprocess")
    assert features.build_streams is preprocess.build_streams


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is not in this checkout")
def test_tracer_sees_featurization(monkeypatch):
    # featurize_dataset calls the names the tracer wraps, so a traced run
    # books resampling and featurization to their own layers
    from sensorprint.dataset import generate_synthetic
    from sensorprint.features import featurize_dataset

    tracer = _load_tracer(monkeypatch)
    with tracer.Tracer() as t:
        featurize_dataset(generate_synthetic(2, 2, seed=0))
    assert {"preprocess.build_streams", "features.featurize"} <= {s[tracer.NAME] for s in t.spans}


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is not in this checkout")
def test_tracer_sees_the_distance_fits(monkeypatch, tmp_path):
    # distfit reaches pairwise_distances and rank_families through
    # fit_populations, which calls them by their module names, so a traced
    # run books the distance layer's time as before
    from sensorprint import cli

    data, feat = tmp_path / "data.jsonl", tmp_path / "feat.csv"
    assert cli.main(["synth", "--devices", "3", "--samples", "4", "--out", str(data)]) == 0
    assert cli.main(["featurize", "--in", str(data), "--out", str(feat)]) == 0
    tracer = _load_tracer(monkeypatch)
    with tracer.Tracer() as t:
        assert cli.main(["distfit", "--features", str(feat), "--out", str(tmp_path / "d.json")]) == 0
    names = [s[tracer.NAME] for s in t.spans]
    assert names.count("distances.pairwise_distances") == 1
    assert names.count("distances.rank_families") == 2


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.skipif(not DEMOS, reason="demos/ is not in this checkout")
@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    # no test runs the demos (they take seconds each), so a renamed or
    # deleted library name would otherwise break them silently
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported, missing = 0, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sensorprint":
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported += 1
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sensorprint":
                    imported += 1
                    importlib.import_module(alias.name)
    assert imported > 0
    assert missing == []
