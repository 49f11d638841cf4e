"""Command-line pipeline orchestration.

Each subcommand drives exactly one pipeline stage and writes its artifact to
a file, so any step can be re-run from the previous step's output alone.
Exit codes: 0 success, 1 usage, 2 missing or unreadable/unwritable files,
3 domain errors (invalid values, malformed content).

Heavy imports happen inside the handlers: the ``--threads`` cap must land in
the environment before the numeric libraries initialize their thread pools.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

log = logging.getLogger(__name__)

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class _Parser(argparse.ArgumentParser):
    # no abbreviated flags: an abbreviation would not count as explicit in _apply_config
    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    # usage problems exit 1 (argparse defaults to 2, which we reserve for I/O)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_json(obj, path) -> None:
    # encoded first: a NaN or infinity is refused before the file is opened
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _config_echo(args) -> dict:
    # threads is an execution knob, not a pipeline parameter: artifacts must
    # not depend on it, so it stays out of the echo
    skip = {"func", "command", "config", "verbose", "threads", "_required"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# ---------------------------------------------------------------------------
# Handlers. Each returns the process exit code.


def cmd_synth(args) -> int:
    from .dataset import DevicePrior, generate_synthetic, write_dataset

    # the prior flags that are set, each named after its field; DevicePrior holds the defaults
    prior = DevicePrior(**{f.name: getattr(args, f.name) for f in fields(DevicePrior)
                           if getattr(args, f.name) is not None})
    ds = generate_synthetic(args.devices, args.samples, device_prior=prior, seed=args.seed)
    write_dataset(ds, args.out)
    log.info("synth: %d device(s), %d sample(s) -> %s", args.devices, len(ds.samples), args.out)
    return 0


def cmd_ingest(args) -> int:
    from .dataset import load_dataset, write_dataset

    ds = load_dataset(args.input)
    write_dataset(ds, args.out)
    log.info("ingest: %d sample(s), %d device(s) -> %s",
             len(ds.samples), len(ds.index), args.out)
    return 0


def cmd_featurize(args) -> int:
    from .dataset import load_dataset
    from .features import featurize_dataset, write_features_csv

    table = featurize_dataset(load_dataset(args.input), args.fs_target)
    write_features_csv(table, args.out)
    log.info("featurize: %d vector(s) at %.1f Hz -> %s", len(table.X), args.fs_target, args.out)
    return 0


def cmd_train_metric(args) -> int:
    from .features import load_features_csv
    from .metric import save_metric_model, train_ldml

    table = load_features_csv(args.features)
    model = train_ldml(
        table.X, table.device_ids, d_prime=args.d_prime, iterations=args.iterations,
        step=args.step, seed=args.seed,
    )
    save_metric_model(model, args.out)
    log.info("train-metric: %d vector(s), %d iteration(s) -> %s",
             len(table.X), args.iterations, args.out)
    return 0


def _protocol_kwargs(args) -> dict:
    """The run_protocol settings among the flags the subcommand defines."""
    return {k: getattr(args, k) for k in _SPLIT_SETTINGS + _LDML_SETTINGS if hasattr(args, k)}


def _protocol(args, repeats: int):
    from .classify import run_protocol
    from .features import load_features_csv

    return run_protocol(load_features_csv(args.features), repeats=repeats,
                        **_protocol_kwargs(args))


def cmd_classify(args) -> int:
    res = _protocol(args, repeats=1)
    rep = res.reports[0]
    _write_json({
        "command": "classify",
        "config": _config_echo(args),
        "result": {**rep.to_dict(), "n_devices": res.n_devices},
    }, args.out)
    log.info("classify: accuracy %.4f, AvgF %.4f -> %s", rep.accuracy, rep.avg_f, args.out)
    return 0


def cmd_evaluate(args) -> int:
    res = _protocol(args, repeats=args.repeats)
    _write_json({
        "command": "evaluate",
        "config": _config_echo(args),
        "result": {
            "n_devices": res.n_devices,
            "avg_f_mean": res.avg_f_mean,
            "avg_f_ci": list(res.avg_f_ci),
            "accuracy_mean": res.accuracy_mean,
            "per_repeat": [
                {"avg_f": r.avg_f, "accuracy": r.accuracy} for r in res.reports
            ],
        },
    }, args.out)
    log.info("evaluate: %d repeat(s), AvgF %.4f -> %s", args.repeats, res.avg_f_mean, args.out)
    return 0


def cmd_distfit(args) -> int:
    from .distances import ks_statistic, pairwise_distances, rank_families, save_fitted
    from .features import load_features_csv
    from .metric import load_metric_model, standardizer

    table = load_features_csv(args.features)
    model = load_metric_model(args.metric_model) if args.metric_model else standardizer(table.X)
    intra, inter = pairwise_distances(table.X, table.device_ids, model)
    report = {"command": "distfit", "config": _config_echo(args)}
    best = {}
    for kind, values in (("intra", intra), ("inter", inter)):
        try:  # both populations before any write: a failed fit leaves no file behind
            ranking = rank_families(values)
        except ValueError as e:
            raise ValueError(f"{kind} distances: {e}") from None
        best[kind] = ranking[0]
        report[kind] = {
            "n_distances": len(values),
            "ranking": [
                {"family": f.family, "params": f.params, "log_likelihood": f.log_likelihood,
                 "aic": f.aic, "ks": ks_statistic(values, f)}
                for f in ranking
            ],
        }
    for kind, out_path in (("intra", args.intra_out), ("inter", args.inter_out)):
        if out_path:
            save_fitted(best[kind], kind, out_path)
    _write_json(report, args.out)
    log.info("distfit: intra n=%d best %s, inter n=%d best %s -> %s",
             len(intra), report["intra"]["ranking"][0]["family"],
             len(inter), report["inter"]["ranking"][0]["family"], args.out)
    return 0


def cmd_simulate(args) -> int:
    from .distances import load_fitted
    from .simulate import sweep, write_sweep_csv

    kind_a, intra = load_fitted(args.intra)
    kind_b, inter = load_fitted(args.inter)
    if kind_a != "intra" or kind_b != "inter":
        raise ValueError(
            f"expected an intra and an inter fit, got {kind_a!r} and {kind_b!r}"
        )
    rows = sweep(args.k, args.train_counts, args.device_counts, args.runs,
                 intra, inter, seed=args.seed)
    write_sweep_csv(rows, args.out)
    log.info("simulate: %d cell(s) x %d run(s) -> %s", len(rows), args.runs, args.out)
    return 0


def cmd_countermeasure(args) -> int:
    from .countermeasures import (
        ObfuscationConfig, QuantizationConfig, _impact, apply_countermeasure,
    )
    from .dataset import load_dataset, write_dataset

    ds = load_dataset(args.input)
    obf = ObfuscationConfig(
        offset_range=tuple(args.offset_range), gain_range=tuple(args.gain_range),
        seed=args.seed,
    )
    quant = QuantizationConfig(angle_bin=args.angle_bin, magnitude_bin=args.magnitude_bin)
    out_ds = apply_countermeasure(ds, args.scheme, obfuscation=obf, quantization=quant)
    rep = None
    if args.impact_out:  # before any write: settings it refuses must leave no file behind
        rep = _impact(ds, out_ds, args.scheme, repeats=args.repeats, **_protocol_kwargs(args))
    write_dataset(out_ds, args.out)
    log.info("countermeasure: %s on %d sample(s) -> %s", args.scheme, len(ds.samples), args.out)
    if rep is not None:
        _write_json({"command": "countermeasure", "config": _config_echo(args),
                     "result": rep.to_dict()}, args.impact_out)
        log.info("privacy impact: AvgF %.4f -> %.4f (drop %.1f%%) -> %s",
                 rep.baseline_avg_f, rep.protected_avg_f,
                 100 * rep.relative_drop, args.impact_out)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


# the flags that name files; an output may be neither an input nor another output
_INPUTS = ("config", "input", "features", "metric_model", "intra", "inter")
_OUTPUTS = ("out", "intra_out", "inter_out", "impact_out")
_SPLIT_SETTINGS = ("classifier", "train_per_device", "k", "n_trees", "seed")
_LDML_SETTINGS = ("use_ldml", "ldml_iterations", "ldml_step", "d_prime")


def _add_split_flags(p, classifier: str = "knn") -> None:
    p.add_argument("--classifier", choices=("knn", "rf"), default=classifier,
                   help=f"classifier to run (default {classifier})")
    p.add_argument("--train-per-device", type=int, default=3,
                   help="training samples held out per device (count, default 3)")
    p.add_argument("--k", type=int, default=1, help="neighbors for knn (odd count, default 1)")
    p.add_argument("--n-trees", type=int, default=100,
                   help="trees in the forest (count, default 100)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (integer, default 0)")


def _add_ldml_flags(p) -> None:
    p.add_argument("--use-ldml", action="store_true",
                   help="learn a distance metric on the training split")
    p.add_argument("--ldml-iterations", type=int, default=200,
                   help="metric-learning ascent iterations (count, default 200)")
    p.add_argument("--ldml-step", type=float, default=1e-3,
                   help="metric-learning initial step size (unitless, default 1e-3)")
    p.add_argument("--d-prime", type=int, default=None,
                   help="projected metric dimension (count, default: full)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sensorprint", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults; explicit flags win (path)")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap numeric-library thread pools; output bytes do not "
                             "depend on it (count, default: library choice)")
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # "required" flags default to None and are checked after the config file
    # is merged, so a config can supply them; explicit flags still win

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--devices", type=int, help="device count (required)")
    p.add_argument("--samples", type=int, default=5, help="sessions per device (count, default 5)")
    p.add_argument("--accel-gain", type=float, nargs=2, metavar=("LO", "HI"),
                   help="per-axis accelerometer gain range (unitless, default: built-in)")
    p.add_argument("--accel-offset", type=float, nargs=2, metavar=("LO", "HI"),
                   help="per-axis accelerometer offset range (m/s^2, default: built-in)")
    p.add_argument("--gyro-offset", type=float, nargs=2, metavar=("LO", "HI"),
                   help="per-axis gyroscope offset range (rad/s, default: built-in)")
    p.add_argument("--noise-sigma-accel", type=float, metavar="SIGMA",
                   help="accelerometer noise std (m/s^2, default: built-in)")
    p.add_argument("--noise-sigma-gyro", type=float, metavar="SIGMA",
                   help="gyroscope noise std (rad/s, default: built-in)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (integer, default 0)")
    p.add_argument("--out", help="output dataset path (JSONL, required)")
    p.set_defaults(func=cmd_synth, _required=("devices", "out"))

    p = sub.add_parser("ingest", help="validate a dataset file and rewrite it normalized")
    p.add_argument("--in", dest="input", help="input dataset path (JSONL, required)")
    p.add_argument("--out", help="output dataset path (JSONL, required)")
    p.set_defaults(func=cmd_ingest, _required=("input", "out"))

    p = sub.add_parser("featurize", help="extract per-sample feature vectors")
    p.add_argument("--in", dest="input", help="input dataset path (JSONL, required)")
    p.add_argument("--fs-target", type=float, default=100.0,
                   help="uniform resampling rate (Hz, at most 200, default 100)")
    p.add_argument("--out", help="output feature table path (CSV, required)")
    p.set_defaults(func=cmd_featurize, _required=("input", "out"))

    p = sub.add_parser("train-metric", help="learn a distance metric from labeled features")
    p.add_argument("--features", help="input feature table path (CSV, required)")
    p.add_argument("--iterations", type=int, default=200,
                   help="ascent iterations (count, default 200)")
    p.add_argument("--step", type=float, default=1e-3,
                   help="initial step size (unitless, default 1e-3)")
    p.add_argument("--d-prime", type=int, default=None,
                   help="projected dimension (count, default: full)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (integer, default 0)")
    p.add_argument("--out", help="output model path (JSON, required)")
    p.set_defaults(func=cmd_train_metric, _required=("features", "out"))

    p = sub.add_parser("classify", help="single split: train, predict, report per-class scores")
    p.add_argument("--features", help="input feature table path (CSV, required)")
    _add_split_flags(p)
    _add_ldml_flags(p)
    p.add_argument("--out", help="output report path (JSON, required)")
    p.set_defaults(func=cmd_classify, _required=("features", "out"))

    p = sub.add_parser("evaluate", help="repeated-split protocol with confidence intervals")
    p.add_argument("--features", help="input feature table path (CSV, required)")
    _add_split_flags(p)
    _add_ldml_flags(p)
    p.add_argument("--repeats", type=int, default=10,
                   help="independent splits to average (count, default 10)")
    p.add_argument("--out", help="output report path (JSON, required)")
    p.set_defaults(func=cmd_evaluate, _required=("features", "out"))

    p = sub.add_parser("distfit", help="fit distance distributions to a feature table")
    p.add_argument("--features", help="input feature table path (CSV, required)")
    p.add_argument("--metric-model", default=None,
                   help="metric model to apply before distances (path, default: standardize)")
    p.add_argument("--intra-out", default=None,
                   help="write the best same-device fit here (JSON, optional)")
    p.add_argument("--inter-out", default=None,
                   help="write the best cross-device fit here (JSON, optional)")
    p.add_argument("--out", help="output ranking report path (JSON, required)")
    p.set_defaults(func=cmd_distfit, _required=("features", "out"))

    p = sub.add_parser("simulate", help="project identification accuracy to large populations")
    p.add_argument("--intra", help="same-device distance fit (JSON path, required)")
    p.add_argument("--inter", help="cross-device distance fit (JSON path, required)")
    p.add_argument("--k", type=int, default=1, help="neighbors (odd count, default 1)")
    p.add_argument("--train-counts", type=int, nargs="+", default=[3],
                   help="training samples per device, one sweep axis (counts, default 3)")
    p.add_argument("--device-counts", type=int, nargs="+",
                   help="population sizes to sweep (counts, required)")
    p.add_argument("--runs", type=int, default=10000,
                   help="Monte Carlo runs per cell (count, default 10000)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (integer, default 0)")
    p.add_argument("--out", help="output sweep table path (CSV, required)")
    p.set_defaults(func=cmd_simulate,
                   _required=("intra", "inter", "device_counts", "out"))

    p = sub.add_parser("countermeasure", help="transform a dataset with a privacy defense")
    p.add_argument("--in", dest="input", help="input dataset path (JSONL, required)")
    p.add_argument("--scheme", choices=("obfuscate", "quantize"),
                   help="defense to apply (required)")
    p.add_argument("--offset-range", type=float, nargs=2, default=[-1.5, 1.5],
                   metavar=("LO", "HI"),
                   help="obfuscation offset range (m/s^2 accel, rad/s gyro; default -1.5 1.5)")
    p.add_argument("--gain-range", type=float, nargs=2, default=[0.75, 1.25],
                   metavar=("LO", "HI"),
                   help="obfuscation gain range (unitless, default 0.75 1.25)")
    p.add_argument("--angle-bin", type=float, default=6.0,
                   help="quantization bin for angles and gyro rates (degrees, default 6)")
    p.add_argument("--magnitude-bin", type=float, default=1.0,
                   help="quantization bin for accel magnitude (m/s^2, default 1)")
    p.add_argument("--impact-out", default=None,
                   help="also measure the identification cost, report here (JSON, optional)")
    # the impact report's protocol; its --seed also seeds the obfuscation
    _add_split_flags(p, classifier="rf")
    p.add_argument("--repeats", type=int, default=10,
                   help="protocol repeats for the impact report (count, default 10)")
    p.add_argument("--out", help="output dataset path (JSONL, required)")
    p.set_defaults(func=cmd_countermeasure, _required=("input", "scheme", "out"))

    return parser


class _ConfigUsageError(Exception):
    """A config value its flag would refuse on the command line (exit 1)."""


def _actions(parser, command) -> dict[str, argparse.Action]:
    """Destination -> its option, for the top-level options and those of
    ``command`` (--help aside): the only keys a config file may set."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for p in (parser, sub.choices[command])
            for a in p._actions if a.option_strings and a.dest != "help"}


# flag type -> (what a config value must be, the JSON types that are that)
_CONFIG_KINDS = {int: ("an integer", (int,)), float: ("a number", (int, float)),
                 None: ("a string", (str,))}


def _config_value(key: str, action: argparse.Action, value):
    """``value`` as the flag would hold it had it been given on the command
    line: the JSON type must fit the flag's type (so a float is refused for
    an integer flag, as ``--samples 2.5`` is), numbers are converted with that
    type, and choices are checked. ``null`` leaves a flag whose default is
    None unset, as when it is not given."""
    flag = action.option_strings[-1]

    def refuse(expected):
        return _ConfigUsageError(
            f"config key {key!r}: {flag} must be {expected}, got {json.dumps(value)}")

    if value is None and action.default is None:
        return None
    if action.nargs == 0:  # an on/off flag such as --verbose
        if not isinstance(value, bool):
            raise refuse("true or false")
        return value
    what, kinds = _CONFIG_KINDS[action.type]
    items = [value]
    if action.nargs is not None:
        count = "one or more" if action.nargs == "+" else action.nargs
        what = f"a list of {count} values, each {what}"
        if not isinstance(value, list) or not value or (
                action.nargs != "+" and len(value) != action.nargs):
            raise refuse(what)
        items = value
    if any(isinstance(v, bool) or not isinstance(v, kinds) for v in items):
        raise refuse(what)
    if action.type is not None:
        try:
            items = [action.type(v) for v in items]
        except OverflowError:  # an integer past the float range, as 1e400 is on the command line
            raise ValueError(f"config key {key!r}: {flag} is beyond the float range") from None
    if action.choices is not None and any(v not in action.choices for v in items):
        raise refuse("one of " + ", ".join(map(json.dumps, action.choices)))
    return items if action.nargs is not None else items[0]


def _apply_config(args, argv, actions) -> None:
    """Let a JSON config file fill in flags the user did not pass explicitly."""
    if not args.config:
        return
    with open(args.config) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ValueError(f"unknown config key {key!r}")
        value = _config_value(key, actions[dest], value)
        flag = actions[dest].option_strings[-1]
        if not any(a == flag or a.startswith(flag + "=") for a in argv):
            setattr(args, dest, value)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # --help exits 0; usage errors exit 1 via _Parser.error
        return int(e.code or 0)
    try:
        actions = _actions(parser, args.command)
        _apply_config(args, argv, actions)  # first: a config may set threads and verbose
        if args.threads is not None:
            if args.threads < 1:
                print("error: --threads must be an integer >= 1", file=sys.stderr)
                return 1
            for var in _THREAD_VARS:  # must precede the first numpy import
                os.environ[var] = str(args.threads)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        missing = [actions[n].option_strings[-1] for n in args._required
                   if getattr(args, n) is None]
        if missing:
            print(f"{parser.prog} {args.command}: error: missing required "
                  f"arguments: {', '.join(missing)}", file=sys.stderr)
            return 1
        named = {}  # absolute path -> the first flag naming it, inputs first
        for dest in [d for d in _INPUTS + _OUTPUTS if getattr(args, d, None) is not None]:
            flag, path = actions[dest].option_strings[-1], os.path.abspath(getattr(args, dest))
            if dest in _OUTPUTS and path in named:
                raise ValueError(f"{flag} names the same file as {named[path]}")
            named.setdefault(path, flag)
        log.info("command %s, config: %s", args.command, json.dumps(_config_echo(args), sort_keys=True))
        return args.func(args)
    except _ConfigUsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # includes FileNotFoundError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:  # RuntimeError: train_ldml diverged
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
