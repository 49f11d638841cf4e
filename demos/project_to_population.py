"""Project small-sample accuracy to populations no lab can enroll.

``fit_populations`` fits parametric families to the same-device and
cross-device distance populations of a synthetic dataset (in the learned
metric space) and ranks them by AIC. The demo shows both rankings, then
Monte-Carlo simulates nearest-neighbor identification from each ranking's
first fit as the device count grows from 100 to 100,000.

Run:  python3 demos/project_to_population.py
"""

from sensorprint.dataset import generate_synthetic
from sensorprint.distances import fit_populations
from sensorprint.features import featurize_dataset
from sensorprint.metric import train_ldml
from sensorprint.simulate import sweep

DEVICES = 20
SAMPLES = 6
RUNS = 100_000


def main() -> None:
    print(f"generating {DEVICES} devices x {SAMPLES} sessions (seed 0) ...")
    ds = generate_synthetic(DEVICES, SAMPLES, seed=0)
    table = featurize_dataset(ds)
    print("learning the metric ...")
    model = train_ldml(table.X, table.device_ids, seed=0)

    (intra, intra_ranking), (inter, inter_ranking) = fit_populations(table, model)
    print(f"distance populations: {len(intra)} same-device, {len(inter)} cross-device")
    for kind, ranking in (("intra", intra_ranking), ("inter", inter_ranking)):
        print(f"\n{kind} ranking (AIC, lower wins):")
        for f in ranking:
            print(f"  {f.family:<18} aic={f.aic:>10.1f}  "
                  + " ".join(f"{k}={v:.3g}" for k, v in f.params.items()))

    print(f"\nsimulating 1-NN accuracy, N=3 enrolled sessions, {RUNS} runs per cell:")
    rows = sweep(1, [3], [100, 1_000, 10_000, 100_000], RUNS,
                 intra_ranking[0], inter_ranking[0], seed=0)
    print(f"{'devices':>9} {'accuracy':>9} {'95% CI':>20} {'vs chance':>10}")
    for row in rows:
        print(f"{row.D:>9,} {row.accuracy:>9.4f} "
              f"[{row.ci_low:>8.4f}, {row.ci_high:>8.4f}] {row.accuracy * row.D:>9.0f}x")


if __name__ == "__main__":
    main()
