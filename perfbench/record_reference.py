"""Record every run's final A_t for every workload and reference seed.

    python3 perfbench/record_reference.py [workload ...]

Writes ``perfbench/reference.json``, or only the named workloads' entries
in it; the benchmark checks each run against that file.  Results are meant
to stay byte-identical, so record only at a commit whose results are known
good; a change that moves them must explain why before recording again.
"""

import json
import sys

import run  # sets the BLAS thread count and the import path before numpy loads

import cclearn.runner
import workloads


def main(names):
    path = run.HERE / "reference.json"
    table = {}
    if names:
        with open(path) as fh:
            table = json.load(fh)
    for name in names or workloads.WORKLOADS:
        table[name] = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            table[name][str(seed)] = {
                label: cclearn.runner.run(stream, cfg).accuracy.final_aggregate()
                for label, stream, cfg in workloads.build(name, seed)
            }
            print(name, seed, table[name][str(seed)], flush=True)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
