"""sensorprint benchmark: one workload per process, timed passes, checked outputs.

    python3 perfbench/run.py --workload identify --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: it imports sensorprint from the
checkout's ``src/`` and refuses to run without it. With ``--trace 0`` it
prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb); with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of ``layers.PER_LAYER``. Both print check_fail_ratio in
the readable lines, write a results file with run metadata under
``perfbench/results/``, and end stdout with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

A pass is one workload run at its stated sizes on one of the run's fleets,
all made from ``--seed``; it is a short list of steps (one protocol, one
countermeasure, one CLI command), each timed on its own. Passes cycle over
the fleets, so each fleet's passes are spread over the whole run; every pass
on a fleet must produce that fleet's output digest.

``wall_s`` is a pass's wall time in reference seconds: the time it would
take on a host where a fixed pure-Python loop (``_calibrate``) runs in
``REF_CAL_S``. A shared host runs everything up to 1.5x slower for tens of
seconds at a time, so two runs of the same code can differ by that much in
raw wall time. Each step is therefore timed between two timings of the
loop, and its wall time is scaled by ``REF_CAL_S`` over their mean. Per
fleet, each step's median over the untraced passes is taken and summed;
``wall_s`` is the mean of these sums over the fleets. The raw median pass
wall time is printed beside it and kept in the results file.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: the matrices are at most a few hundred rows, and on a
# shared 2-CPU host a second BLAS thread mostly adds time spent waiting
# for a busy core.
BLAS_THREADS = 1
SETUP_REPS = 3
WORKLOAD_NAMES = ("identify", "project", "defend")


def _import_program():
    """Cap the BLAS pools, then import numpy, scipy and sensorprint from SRC."""
    if not (SRC / "sensorprint" / "__init__.py").is_file():
        raise ImportError(f"no sensorprint sources under {SRC}")
    for var in THREAD_VARS:  # before numpy loads OpenBLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import sensorprint
    if Path(sensorprint.__file__).resolve().parent != SRC / "sensorprint":
        raise ImportError(f"sensorprint imported from {sensorprint.__file__}, not {SRC}")
    import workloads  # imports every sensorprint module the workloads call
    return numpy, scipy, workloads


def _git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _src_digest():
    import hashlib
    h = hashlib.sha256()
    for f in sorted((SRC / "sensorprint").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# The reference loop: CAL_ITERS iterations take about 2 ms on a 2-CPU VM
# with the host quiet, and its best of CAL_REPS timings follows the host's
# speed from one step to the next.
CAL_ITERS = 30000
CAL_REPS = 3
REF_CAL_S = 0.002


def _calibrate():
    """Best of CAL_REPS timings of the fixed reference loop, in seconds."""
    best = float("inf")
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_ITERS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def _run_steps(steps):
    """Run steps in order until one raises, timing the reference loop between them.

    Returns (outputs, {step: (wall seconds, mean reference-loop seconds before
    and after it)} for each completed step, attempted, failed).
    """
    out, step_s = {}, {}
    cal = _calibrate()
    for i, (name, fn) in enumerate(steps):
        t0 = time.perf_counter()
        try:
            out[name] = fn()
        except Exception:  # a failed layer call is a result, not a crash
            print(f"step {name} raised:", file=sys.stderr)
            traceback.print_exc()
            return out, step_s, i + 1, 1
        wall = time.perf_counter() - t0
        cal_after = _calibrate()
        step_s[name] = (wall, (cal + cal_after) / 2)
        cal = cal_after
    return out, step_s, len(steps), 0


class Run:
    """One benchmark run: set-up, timed passes, checks and metrics."""

    def __init__(self, workload, seed, seconds, trace, tiny=False):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = workload.tiny if tiny else workload.sizes
        # dicts: id, fleet, traced, wall_s, step_s ({step: (wall, cal)}), cpu_s, digest
        self.passes = []
        self.checks = []  # (name, ok, detail)
        self.ops_attempted = 0
        self.ops_failed = 0
        self.setup_reps = []
        self.tracer = None
        self.workdir = RESULTS / f"work-{workload.name}-{os.getpid()}"

    def _pass(self, ctx, pass_id, traced):
        steps = self.wl.steps(ctx)
        if traced:
            run = lambda: self.tracer.run_pass(pass_id, lambda: _run_steps(steps))  # noqa: E731
        else:
            run = lambda: _run_steps(steps)  # noqa: E731
        # wrappers only for traced passes, and installing them is not timed
        with self.tracer if traced else contextlib.nullcontext():
            cpu0, t0 = time.process_time(), time.perf_counter()
            out, step_s, attempted, failed = run()
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        return out, step_s, attempted, failed, wall, cpu

    def fleet_seeds(self):
        return [self.seed * self.wl.fleets + i for i in range(self.wl.fleets)]

    def set_up(self):
        """Set up SETUP_REPS times: make the fleets and run one warm-up pass at tiny sizes."""
        ctxs = None
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            ctxs = [self.wl.setup(fs, self.sizes, str(self.workdir / f"fleet{i}"))
                    for i, fs in enumerate(self.fleet_seeds())]
            warm = self.wl.setup(self.seed, self.wl.tiny, str(self.workdir / "warm"))
            failed = _run_steps(self.wl.steps(warm))[3]
            self.setup_reps.append(time.perf_counter() - t0)
            if failed:
                raise RuntimeError("warm-up pass failed")
        return ctxs

    def measure(self, ctxs):
        import layers
        from tracer import Tracer
        if self.trace:
            self.tracer = Tracer(attrs=layers.SPAN_ATTRS)
        first_digest, first_out = {}, {}
        start = time.perf_counter()
        while True:
            pid = len(self.passes)
            fleet = pid % self.wl.fleets
            # traced and untraced rounds over all fleets alternate
            traced = self.trace and (pid // self.wl.fleets) % 2 == 1
            out, step_s, attempted, failed, wall, cpu = self._pass(ctxs[fleet], pid, traced)
            self.ops_attempted += attempted
            self.ops_failed += failed
            rec = {"id": pid, "fleet": fleet, "traced": traced, "wall_s": wall,
                   "step_s": step_s, "cpu_s": cpu, "digest": None}
            self.passes.append(rec)
            if not failed:
                rec["digest"] = self.wl.digest(ctxs[fleet], out)
                self.checks += self.wl.checks(ctxs[fleet], out)
                if fleet in first_digest:
                    ref = first_digest[fleet]
                    what = "traced digest equals untraced" if traced else "digest repeats"
                    self.checks.append((f"pass {pid} (fleet {fleet}): {what}",
                                        rec["digest"] == ref,
                                        f"{rec['digest'][:12]} vs {ref[:12]}"))
                else:
                    first_digest[fleet], first_out[fleet] = rec["digest"], out
            elapsed = time.perf_counter() - start
            est = statistics.median(p["wall_s"] for p in self.passes)
            # every fleet runs at least twice (in a traced run: once traced)
            if len(self.passes) >= 2 * self.wl.fleets and elapsed + est > self.seconds:
                break
        if first_out:
            self.checks += self.wl.run_checks([first_out[f] for f in sorted(first_out)])

    def ref_pass_s(self, fleet):
        """Sum over the fleet's steps of the step's median untraced time in reference seconds."""
        ref_s = {}
        for p in self.passes:
            if p["fleet"] == fleet and not p["traced"]:
                for name, (wall, cal) in p["step_s"].items():
                    ref_s.setdefault(name, []).append(wall * REF_CAL_S / cal)
        return sum(statistics.median(v) for v in ref_s.values())

    def end_to_end(self, import_s):
        return {
            "setup_s": (import_s + statistics.median(self.setup_reps), "s"),
            "wall_s": (statistics.mean(self.ref_pass_s(f) for f in range(self.wl.fleets)), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }

    def per_layer(self):
        import layers
        traced = [p for p in self.passes if p["traced"]]
        plain = [p for p in self.passes if not p["traced"]]
        per_pass = [layers.pass_metrics(self.tracer.self_times(p["id"])) for p in traced]
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        overhead = traced_wall - statistics.median(p["wall_s"] for p in plain)
        for p, m in zip(traced, per_pass):
            total = sum(v for k, v in m.items() if k.endswith(".self_s"))
            self.checks.append((f"pass {p['id']}: self times sum to traced wall_s",
                                abs(total - p["wall_s"]) <= abs(overhead) + 1e-3,
                                f"{total:.6f} vs {p['wall_s']:.6f}"))
        out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = overhead
        out["process.cpu_s"] = statistics.median(p["cpu_s"] for p in traced)
        return {name: (out[name], unit) for name, unit, _, _ in layers.PER_LAYER}

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_benchmark(workload_name, seed, seconds, trace, tiny=False, emit=print):
    """Run one workload and emit readable lines, then the JSON result line.

    ``tiny`` runs at the warm-up sizes, for the smoke test.
    """
    try:
        numpy, scipy, workloads = _import_program()
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    import layers
    import_s = time.perf_counter() - T0
    run = Run(workloads.WORKLOADS[workload_name], seed, seconds, trace, tiny)
    try:
        run.measure(run.set_up())
    finally:
        run.cleanup()
    metrics = run.per_layer() if trace else run.end_to_end(import_s)
    attempted = run.ops_attempted + len(run.checks)
    failed = run.ops_failed + sum(1 for _, ok, _ in run.checks if not ok)

    meta = {
        "workload": workload_name, "why": run.wl.why, "seed": seed,
        "fleet_seeds": run.fleet_seeds(),
        "seconds": seconds, "trace": trace, "sizes": run.sizes, "warmup_sizes": run.wl.tiny,
        "passes": len(run.passes), "setup_reps_s": run.setup_reps, "import_s": import_s,
        "ref_cal_s": REF_CAL_S, "cal_iters": CAL_ITERS, "cal_reps": CAL_REPS,
        "git_rev": _git_rev(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": NPROC,
        "blas_thread_cap": {v: os.environ[v] for v in THREAD_VARS},
        "computed": layers.COMPUTED if trace else {},
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w") as fh:
        json.dump({
            "meta": meta,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
            "passes": run.passes,
            "ops": {"attempted": run.ops_attempted, "failed": run.ops_failed},
            "spans": run.tracer.dump() if trace else None,
        }, fh, indent=1)

    emit(f"# perfbench {workload_name} seed={seed} trace={int(trace)} "
         f"passes={len(run.passes)} sizes={json.dumps(run.sizes)}")
    for name, ok, detail in run.checks:
        if not ok:
            emit(f"# FAILED check: {name} ({detail})")
    walls = [p["wall_s"] for p in run.passes if not p["traced"]]
    cals = [c for p in run.passes for _, c in p["step_s"].values()]
    emit(f"# untraced passes: raw wall median {statistics.median(walls):.4f} s, "
         f"min {min(walls):.4f} s, max {max(walls):.4f} s, n={len(walls)} over {run.wl.fleets} "
         f"fleets; reference loop median {statistics.median(cals) * 1e3:.3f} ms "
         f"(REF_CAL_S {REF_CAL_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        emit(f"{name} = {value:.6g} {unit}")
    emit(f"check_fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} ratio")
    emit(f"# results and run metadata: {path.relative_to(ROOT)}")
    emit(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True,
                    help="non-negative; a workload with F fleets uses fleet seeds F*seed+i, i < F")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure passes for about this long (seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
