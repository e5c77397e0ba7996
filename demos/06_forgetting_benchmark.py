"""The committed 5-task benchmark: who forgets, who retains, and at what cost.

Runs one seed of the benchmark through four regimes and prints the accuracy
matrix rows: cross-entropy finetuning with no memory (forgets hard), the
contrastive method with a half-data buffer (retains), both methods with a
tiny ~4% buffer (where the robust reweighting earns its keep), and the joint
upper bound.  Writes an SVG learning-curve chart next to this script.
"""

from pathlib import Path

from cclearn.benchmark import (
    CAPACITY_HIGH,
    CAPACITY_LOW,
    benchmark_config,
    benchmark_stream,
)
from cclearn.report import line_chart_svg
from cclearn.runner import run

SEED = 1
stream = benchmark_stream(SEED)
print(f"benchmark seed {SEED}: {stream.num_tasks} tasks, "
      f"{sum(len(t.train) for t in stream.tasks)} train samples\n")

runs = {
    f"finetune-ce (mem 0)": run(stream, benchmark_config("finetune-ce", 0, SEED)),
    f"gcl (mem {CAPACITY_HIGH})": run(stream, benchmark_config("gcl", CAPACITY_HIGH, SEED)),
    f"gcl (mem {CAPACITY_LOW})": run(stream, benchmark_config("gcl", CAPACITY_LOW, SEED)),
    f"gdro (mem {CAPACITY_LOW})": run(stream, benchmark_config("gdro", CAPACITY_LOW, SEED)),
}
joint = run(stream, benchmark_config("joint-upper-bound", 0, SEED)).accuracy.aggregate[0]

T = stream.num_tasks
for name, result in runs.items():
    curve = [result.accuracy.aggregate[t] for t in range(T)]
    task1 = [result.accuracy.entries[(t, 0)] for t in range(T)]
    print(f"{name:22s} A_t: " + " ".join(f"{a:.3f}" for a in curve))
    print(f"{'':22s} task-1 acc: " + " ".join(f"{a:.3f}" for a in task1))
print(f"\njoint upper bound (all data at once): {joint:.3f}")

ce_drop = runs["finetune-ce (mem 0)"].accuracy.entries[(0, 0)] - \
    runs["finetune-ce (mem 0)"].accuracy.entries[(T - 1, 0)]
print(f"cross-entropy forgetting on task 1: {100 * ce_drop:.0f} accuracy points")

series = [
    (name, list(range(1, T + 1)), [r.accuracy.aggregate[t] for t in range(T)])
    for name, r in runs.items()
]
out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)
out = out_dir / "forgetting_curves.svg"
out.write_text(line_chart_svg(series, "Accuracy over stages", "stage", "accuracy"), newline="\n")
print(f"\nwrote learning curves to {out}")
