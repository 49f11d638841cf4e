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


def test_simulate_and_cli_leave_the_optimizer_out():
    # only fit_family needs scipy.optimize; the simulate step never fits
    out = _child_stdout("import sys, sensorprint.cli, sensorprint.simulate\n"
                        "print('scipy.optimize' in sys.modules)\n")
    assert out.split() == ["False"]


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is not in this checkout")
def test_traced_names_exist(monkeypatch):
    # a renamed or deleted function would otherwise break only the traced
    # benchmark run (perfbench/run.py --trace 1)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PACKAGE == "sensorprint"
    missing = [
        f"{mod}.{name}"
        for mod, names in tracer.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"sensorprint.{mod}"), name, None))
    ]
    assert missing == []


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
