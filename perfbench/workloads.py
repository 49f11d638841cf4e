"""The three benchmark workloads and their correctness checks.

Each workload runs its passes over ``fleets`` fleets made from the run's
seed and weighs them equally. Project uses seven, because the family that
``distfit`` picks for a fleet sets how fast ``simulate`` samples it (a GEV
fit takes about three times as long as a gamma fit). Identify uses five, so
that its classifier-ordering check averages over enough devices. Defend
varies little between fleets and uses three, which leaves more passes of
each fleet to take the median of.

Each workload calls sensorprint's public API through module attributes
(``classify.run_protocol``, ``cli.main``), never through names bound in this
file, so the tracer's wrappers see every call. A pass is a list of steps;
a step that raises is a failed layer call. Checks hold for any seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics

import oracle
from sensorprint import classify, cli, countermeasures, dataset

AVG_F_SLACK = 0.02  # c07's ordering: RF and kNN+LDML no worse than kNN


class Workload:
    """Check hooks: ``checks`` on each pass's outputs, ``run_checks`` once on
    the first outputs of every fleet of the run."""

    def checks(self, ctx, out):
        return []

    def run_checks(self, outs):
        return []


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _protocol_out(res):
    return {**res.to_dict(), "per_repeat": [(r.accuracy, r.avg_f) for r in res.reports]}


class Identify(Workload):
    """The lab fleet through run_protocol with kNN, kNN+LDML and RF."""

    name = "identify"
    why = ("classify (RF) and metric (LDML) do most of the work, features the rest; "
           "no simulate, no countermeasures, no file I/O")
    fleets = 5
    sizes = {"devices": 20, "samples": 5, "train_per_device": 3, "repeats": 1,
             "ldml_iterations": 200, "n_trees": 100}
    tiny = {"devices": 6, "samples": 4, "train_per_device": 3, "repeats": 1,
            "ldml_iterations": 5, "n_trees": 5}

    def setup(self, seed, sizes, workdir):
        return {"seed": seed, "sizes": sizes,
                "fleet": dataset.generate_synthetic(sizes["devices"], sizes["samples"], seed=seed)}

    def steps(self, ctx):
        s, fleet, seed = ctx["sizes"], ctx["fleet"], ctx["seed"]
        common = dict(train_per_device=s["train_per_device"], repeats=s["repeats"], seed=seed)
        return [
            ("knn", lambda: classify.run_protocol(fleet, classifier="knn", k=1, **common)),
            ("knn+ldml", lambda: classify.run_protocol(
                fleet, classifier="knn", k=1, use_ldml=True,
                ldml_iterations=s["ldml_iterations"], **common)),
            ("rf", lambda: classify.run_protocol(
                fleet, classifier="rf", n_trees=s["n_trees"], **common)),
        ]

    def digest(self, ctx, out):
        return _sha({k: _protocol_out(v) for k, v in out.items()})

    def run_checks(self, outs):
        """c07's ordering, on AvgF means over the run's fleets.

        c07 compares means over 10 repeats of a 50-device fleet. On one
        20-device fleet at one repeat the kNN+LDML - kNN gap has a standard
        deviation of about 0.09 around +0.17, so a per-fleet check would
        fail a correct program on about 2% of fleets; over five fleets the
        false-fail rate is below 1e-5.
        """
        mean = {name: statistics.mean(o[name].avg_f_mean for o in outs)
                for name in ("knn", "knn+ldml", "rf")}
        return [
            (f"identify.{name} mean AvgF >= kNN - {AVG_F_SLACK}",
             mean[name] >= mean["knn"] - AVG_F_SLACK,
             f"{mean[name]:.4f} vs kNN {mean['knn']:.4f} over {len(outs)} fleets")
            for name in ("rf", "knn+ldml")
        ]


class Project(Workload):
    """The population-projection CLI chain, in-process through cli.main."""

    name = "project"
    why = ("metric (LDML), simulate, features and dataset JSONL/CSV I/O share the work, "
           "simulate's share set by the fitted family; no classify, no countermeasures")
    fleets = 7
    sizes = {"devices": 20, "samples": 5, "ldml_iterations": 120, "runs": 40, "N": 3,
             "D_k1": [100, 1000, 10000, 100000], "D_k3": [100, 1000, 10000]}
    tiny = {"devices": 5, "samples": 4, "ldml_iterations": 5, "runs": 20, "N": 3,
            "D_k1": [100, 1000, 10000, 100000], "D_k3": [100, 1000, 10000]}
    ARTIFACTS = ("fleet.jsonl", "features.csv", "metric.json", "intra.json", "inter.json",
                 "ranking.json", "sweep_k1.csv", "sweep_k3.csv")

    def setup(self, seed, sizes, workdir):
        os.makedirs(workdir, exist_ok=True)
        return {"seed": seed, "sizes": sizes, "dir": workdir}

    def steps(self, ctx):
        s, seed = ctx["sizes"], str(ctx["seed"])
        p = {a: os.path.join(ctx["dir"], a) for a in self.ARTIFACTS}
        sim = ["simulate", "--intra", p["intra.json"], "--inter", p["inter.json"],
               "--train-counts", str(s["N"]), "--runs", str(s["runs"]), "--seed", seed]
        chain = [
            ("synth", ["synth", "--devices", str(s["devices"]), "--samples", str(s["samples"]),
                       "--seed", seed, "--out", p["fleet.jsonl"]]),
            ("featurize", ["featurize", "--in", p["fleet.jsonl"], "--out", p["features.csv"]]),
            ("train-metric", ["train-metric", "--features", p["features.csv"],
                              "--iterations", str(s["ldml_iterations"]), "--seed", seed,
                              "--out", p["metric.json"]]),
            ("distfit", ["distfit", "--features", p["features.csv"],
                         "--metric-model", p["metric.json"], "--intra-out", p["intra.json"],
                         "--inter-out", p["inter.json"], "--out", p["ranking.json"]]),
            ("simulate k=1", sim + ["--k", "1", "--device-counts", *map(str, s["D_k1"]),
                                    "--out", p["sweep_k1.csv"]]),
            ("simulate k=3", sim + ["--k", "3", "--device-counts", *map(str, s["D_k3"]),
                                    "--out", p["sweep_k3.csv"]]),
        ]
        return [(name, lambda argv=argv: _cli(argv)) for name, argv in chain]

    def digest(self, ctx, out):
        h = hashlib.sha256()
        for a in self.ARTIFACTS:
            with open(os.path.join(ctx["dir"], a), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
        return h.hexdigest()

    def checks(self, ctx, out):
        s, d = ctx["sizes"], ctx["dir"]
        with open(os.path.join(d, "intra.json")) as fh:
            intra = json.load(fh)
        with open(os.path.join(d, "inter.json")) as fh:
            inter = json.load(fh)
        results = []
        for k, ds in ((1, s["D_k1"]), (3, s["D_k3"])):
            with open(os.path.join(d, f"sweep_k{k}.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            grid = [(int(r["k"]), int(r["N"]), int(r["D"]), int(r["runs"])) for r in rows]
            results.append((f"project.sweep k={k} covers the requested cells",
                            grid == [(k, s["N"], D, s["runs"]) for D in ds], str(grid)))
            if k != 1:
                continue
            for r, D in zip(rows, ds):
                p = oracle.p_correct_k1(intra, inter, s["N"], D)
                lo, hi = oracle.binomial_band(p, s["runs"])
                hits = round(float(r["accuracy"]) * s["runs"])
                results.append((f"project.k=1 D={D} agrees with the quadrature oracle",
                                lo <= hits <= hi,
                                f"{hits}/{s['runs']} correct, oracle p={p:.6f}, band [{lo}, {hi}]"))
        return results


def _cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"sensorprint {argv[0]} exited {rc}")
    return rc


class Defend(Workload):
    """privacy_impact with RF for quantize and obfuscate, plus the identity no-op."""

    name = "defend"
    why = ("countermeasures and repeated featurization do most of the work; RF trains on "
           "tied (quantized) and near-chance (obfuscated) features")
    fleets = 3
    sizes = {"devices": 12, "samples": 5, "train_per_device": 3, "repeats": 1, "n_trees": 50}
    tiny = {"devices": 5, "samples": 4, "train_per_device": 3, "repeats": 1, "n_trees": 5}

    def setup(self, seed, sizes, workdir):
        return {"seed": seed, "sizes": sizes,
                "fleet": dataset.generate_synthetic(sizes["devices"], sizes["samples"], seed=seed)}

    def steps(self, ctx):
        s, fleet, seed = ctx["sizes"], ctx["fleet"], ctx["seed"]
        common = dict(train_per_device=s["train_per_device"], repeats=s["repeats"], seed=seed)
        identity = countermeasures.ObfuscationConfig(
            offset_range=(0.0, 0.0), gain_range=(1.0, 1.0), seed=seed)
        return [
            ("quantize", lambda: countermeasures.privacy_impact(
                fleet, "quantize", classifier="rf", n_trees=s["n_trees"], **common)),
            ("obfuscate", lambda: countermeasures.privacy_impact(
                fleet, "obfuscate", classifier="rf", n_trees=s["n_trees"],
                obfuscation=countermeasures.ObfuscationConfig(seed=seed), **common)),
            ("identity", lambda: countermeasures.privacy_impact(
                fleet, "obfuscate", classifier="knn", k=1, obfuscation=identity, **common)),
        ]

    def digest(self, ctx, out):
        return _sha({k: v.to_dict() for k, v in out.items()})

    def checks(self, ctx, out):
        drops = {k: v.relative_drop for k, v in out.items()}
        return [
            ("defend.quantize drop > 0", drops["quantize"] > 0, f"{drops['quantize']:.4f}"),
            ("defend.obfuscate drop > 0", drops["obfuscate"] > 0, f"{drops['obfuscate']:.4f}"),
            ("defend.identity drop == 0", drops["identity"] == 0.0, repr(drops["identity"])),
        ]


WORKLOADS = {w.name: w for w in (Identify(), Project(), Defend())}
