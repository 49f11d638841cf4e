"""Outside-in span tracer for the sensorprint modules.

The tracer wraps a fixed list of public functions from outside the package:
each wrapper replaces the original in *every* ``sensorprint`` module
namespace that binds it (``features.build_streams`` as well as
``preprocess.build_streams``, ``classify.train_ldml`` as well as
``metric.train_ldml``). Lazy ``from .x import y`` inside a function body
resolves to the wrapper too, because it reads the module attribute at call
time. Nothing under ``src/`` is modified, and ``uninstall`` restores every
binding it replaced.

Spans (name, start, end, parent, pass id, attributes) stay in memory until
the run ends. The self time of a span is its duration minus the durations
of its direct children, so the self times of one pass sum to its root span.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "sensorprint"

# Layer boundaries, by module. Per-element helpers (to_polar, quantize_value,
# interpolate_uniform, temporal_features, sample_distribution, fit_family, ...)
# are deliberately left unwrapped: they run up to a million times per pass,
# and wrapping them would make the tracer the largest cost it measures.
TARGETS = {
    "dataset": ("generate_synthetic", "write_dataset", "load_dataset"),
    "preprocess": ("build_streams",),
    "features": ("featurize_sample", "featurize", "write_features_csv", "load_features_csv"),
    "metric": ("standardize_fit", "train_ldml", "transform",
               "save_metric_model", "load_metric_model"),
    "classify": ("run_protocol", "evaluate", "knn_predict", "rf_train", "rf_predict"),
    "distances": ("pairwise_distances", "rank_families", "ks_statistic",
                  "save_fitted", "load_fitted"),
    "simulate": ("sweep", "simulate_knn", "write_sweep_csv"),
    "countermeasures": ("privacy_impact", "apply_countermeasure", "quantize_sample", "obfuscate"),
    "cli": ("main",),
}

ROOT = "bench.pass"

# span record fields
NAME, START, END, PARENT, PASS, ATTRS = range(6)


class Tracer:
    """Owns the wrappers and the spans of one benchmark run.

    ``attrs`` maps a traced name (``"module.function"``) to a callable
    ``(args, kwargs, result) -> dict`` whose counts are stored on the span.
    """

    def __init__(self, attrs=None):
        self.attrs = dict(attrs or {})
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.pass_id = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, attr_fn = self.spans, self._stack, self.attrs.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if attr_fn is not None:
                rec[ATTRS] = attr_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in TARGETS]
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for fname in TARGETS[short]:
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, orig = self._patches.pop()
            setattr(ns, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans -------------------------------------------------------------

    def run_pass(self, pass_id, fn):
        """Run ``fn()`` under a root span for one pass; returns its result.

        Install the wrappers (``with tracer:``) around traced passes only,
        so untraced passes between them run the original functions.
        """
        self.pass_id = pass_id
        return self._wrap(ROOT, fn)()

    def self_times(self, pass_id) -> list[tuple[list, float]]:
        """(span, self seconds) for every span of one pass."""
        child_time: dict[int, float] = {}
        picked = []
        for i, s in enumerate(self.spans):
            if s[PASS] != pass_id:
                continue
            picked.append((i, s))
            if s[PARENT] >= 0:
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + (s[END] - s[START])
        return [(s, (s[END] - s[START]) - child_time.get(i, 0.0)) for i, s in picked]

    def dump(self) -> list[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "pass": s[PASS], **({"attrs": s[ATTRS]} if s[ATTRS] else {})}
            for s in self.spans
        ]


def installed_wrappers() -> list[str]:
    """Names still bound to a tracer wrapper in any sensorprint namespace."""
    found = []
    for n, m in sorted(sys.modules.items()):
        if m is None or not (n == PACKAGE or n.startswith(PACKAGE + ".")):
            continue
        for attr, val in vars(m).items():
            if callable(val) and getattr(val, "__wrapped__", None) is not None \
                    and getattr(val, "__qualname__", "").startswith("Tracer._wrap"):
                found.append(f"{n}.{attr}")
    return found
