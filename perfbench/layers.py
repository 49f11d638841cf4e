"""Per-layer metrics: how each is derived from the spans, and what it predicts.

Every entry names the end-to-end metric it should move and on which
workload. Later performance changes cite these predictions by metric name;
a layer metric that moves where its prediction says "no change" is a
finding. Times are span self times per pass (median over traced passes);
counts are exact per pass.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracer import NAME, ATTRS, ROOT, TARGETS

LAYERS = tuple(TARGETS)

# (k, D) cells of the project workload's two simulate sweeps
SIM_CELLS = ((1, 100), (1, 1000), (1, 10000), (1, 100000), (3, 100), (3, 1000), (3, 10000))

# derived arithmetically from other measurements rather than observed
COMPUTED = {
    "simulate.draws": "runs * N * D per simulate_knn call, from its SimConfig",
    "simulate.draws_per_s": "simulate.draws / simulate.simulate_knn_s",
    "trace.overhead_s": "median traced pass wall time - median untraced pass wall time",
}


def _cell_name(k, d):
    return f"simulate.cell_s.k{k}.D{d}"


# name, unit, better, prediction
PER_LAYER = [
    ("classify.rf_train_s", "s", "lower",
     "moves wall_s on identify and defend; no change on project"),
    ("classify.rf_train_calls", "count", "lower",
     "moves wall_s on identify and defend; zero on project"),
    ("classify.rf_predict_s", "s", "lower",
     "moves wall_s on identify and defend; no change on project"),
    ("classify.knn_predict_s", "s", "lower", "moves wall_s on identify"),
    ("classify.knn_predict_calls", "count", "lower", "moves wall_s on identify"),
    ("classify.protocol_self_s", "s", "lower", "run_protocol self time; moves wall_s on identify"),
    ("metric.train_ldml_s", "s", "lower",
     "moves wall_s on identify and project; no change on defend"),
    ("metric.train_ldml_calls", "count", "lower",
     "moves wall_s on identify and project; zero on defend"),
    ("metric.transform_s", "s", "lower",
     "moves wall_s on identify and project; no change on defend"),
    ("features.featurize_s", "s", "lower", "moves wall_s most on defend, then on identify"),
    ("features.featurize_calls", "count", "lower",
     "feature vectors computed per pass; the exact count featurize-once work should cut"),
    ("preprocess.build_streams_s", "s", "lower", "moves wall_s most on defend, then on identify"),
    ("features.csv_s", "s", "lower", "CSV write and read; moves wall_s on project"),
    ("countermeasures.quantize_s", "s", "lower", "moves wall_s on defend only"),
    ("countermeasures.obfuscate_s", "s", "lower", "moves wall_s on defend only"),
    ("countermeasures.readings", "count", "lower",
     "readings transformed per pass; non-zero on defend only"),
    ("simulate.simulate_knn_s", "s", "lower", "moves wall_s and peak_rss_mb on project only"),
    *[(_cell_name(k, d), "s", "lower", "one simulator cell; moves wall_s on project only")
      for k, d in SIM_CELLS],
    ("simulate.draws", "count", "lower", "computed runs*N*D; non-zero on project only"),
    ("simulate.draws_per_s", "1/s", "higher", "computed; moves wall_s on project only"),
    ("distances.pairwise_s", "s", "lower", "moves wall_s on project"),
    ("distances.rank_families_s", "s", "lower", "moves wall_s on project"),
    ("distances.ks_s", "s", "lower", "moves wall_s on project"),
    ("distances.fitted_points", "count", "lower",
     "distances passed to rank_families; project only"),
    ("dataset.generate_s", "s", "lower", "moves wall_s on project and setup_s everywhere"),
    ("dataset.write_s", "s", "lower", "moves wall_s on project; zero elsewhere"),
    ("dataset.load_s", "s", "lower", "moves wall_s on project; zero elsewhere"),
    ("dataset.jsonl_bytes", "B", "lower", "bytes of JSONL written per pass; project only"),
    *[(f"{layer}.self_s", "s", "lower",
       f"all {layer} spans' self time; the layer totals and bench.self_s sum to trace.wall_s")
      for layer in LAYERS],
    ("bench.self_s", "s", "lower", "benchmark harness time inside a pass, outside every layer"),
    ("trace.wall_s", "s", "lower", "traced pass wall time; diagnostic"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced pass wall time; diagnostic"),
    ("trace.spans", "count", "lower", "spans recorded per pass; diagnostic"),
    ("process.cpu_s", "s", "lower", "process CPU seconds per traced pass; diagnostic"),
]

_SELF_SUMS = {
    "classify.rf_train_s": ("classify.rf_train",),
    "classify.rf_predict_s": ("classify.rf_predict",),
    "classify.knn_predict_s": ("classify.knn_predict",),
    "classify.protocol_self_s": ("classify.run_protocol",),
    "metric.train_ldml_s": ("metric.train_ldml",),
    "metric.transform_s": ("metric.transform",),
    "features.featurize_s": ("features.featurize_sample", "features.featurize"),
    "preprocess.build_streams_s": ("preprocess.build_streams",),
    "features.csv_s": ("features.write_features_csv", "features.load_features_csv"),
    "countermeasures.quantize_s": ("countermeasures.quantize_sample",),
    "countermeasures.obfuscate_s": ("countermeasures.obfuscate",),
    "simulate.simulate_knn_s": ("simulate.simulate_knn",),
    "distances.pairwise_s": ("distances.pairwise_distances",),
    "distances.rank_families_s": ("distances.rank_families",),
    "distances.ks_s": ("distances.ks_statistic",),
    "dataset.generate_s": ("dataset.generate_synthetic",),
    "dataset.write_s": ("dataset.write_dataset",),
    "dataset.load_s": ("dataset.load_dataset",),
}
_CALLS = {
    "classify.rf_train_calls": "classify.rf_train",
    "classify.knn_predict_calls": "classify.knn_predict",
    "metric.train_ldml_calls": "metric.train_ldml",
    "features.featurize_calls": "features.featurize",
}
_ATTR_SUMS = {
    "countermeasures.readings": "readings",
    "simulate.draws": "draws",
    "distances.fitted_points": "points",
    "dataset.jsonl_bytes": "bytes",
}


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[1]


def _sim_config(args, kwargs):
    c = kwargs["config"] if "config" in kwargs else args[0]
    return {"k": c.k, "N": c.N, "D": c.D, "runs": c.runs, "draws": c.runs * c.N * c.D}


# counts recorded on spans as they close
SPAN_ATTRS = {
    "countermeasures.quantize_sample": lambda a, kw, r: {"readings": len(a[0].timestamps)},
    "countermeasures.obfuscate": lambda a, kw, r: {"readings": len(a[0].timestamps)},
    "simulate.simulate_knn": lambda a, kw, r: _sim_config(a, kw),
    "distances.rank_families": lambda a, kw, r: {"points": len(a[0])},
    "dataset.write_dataset": lambda a, kw, r: {"bytes": os.path.getsize(_path_arg(a, kw))},
}


def pass_metrics(timed) -> dict[str, float]:
    """Per-layer metrics of one pass from its (span, self seconds) pairs."""
    self_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr_sums: dict[str, float] = defaultdict(float)
    cells: dict[tuple, float] = defaultdict(float)
    for span, self_s in timed:
        name = span[NAME]
        self_by_name[name] += self_s
        calls[name] += 1
        for key, val in (span[ATTRS] or {}).items():
            attr_sums[key] += val
        if name == "simulate.simulate_knn" and span[ATTRS]:
            cells[(span[ATTRS]["k"], span[ATTRS]["D"])] += self_s
    out = {m: sum(self_by_name[n] for n in names) for m, names in _SELF_SUMS.items()}
    out.update({m: calls[n] for m, n in _CALLS.items()})
    out.update({m: attr_sums[key] for m, key in _ATTR_SUMS.items()})
    out.update({_cell_name(k, d): cells[(k, d)] for k, d in SIM_CELLS})
    sim_s = out["simulate.simulate_knn_s"]
    out["simulate.draws_per_s"] = out["simulate.draws"] / sim_s if sim_s > 0 else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in self_by_name.items()
                                     if n.split(".", 1)[0] == layer)
    out["bench.self_s"] = self_by_name[ROOT]
    out["trace.spans"] = sum(calls.values())
    return out
