"""cclearn benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload committed --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The workload's training runs are repeated back to back (closed
loop, one run at a time) until ``--seconds`` have passed, and every run's
final ``A_t`` is checked against ``reference.json``.  The first pass warms
up; the others are timed, and rescaled to the host's reference speed by
``hostspeed``.  Traced runs are checked against the same reference, so a
traced run that does not reproduce the untraced result fails.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics, plus a pool-size sweep of single estimator steps.  The last line of
standard output is the result object; the line before it records the
environment.  Both, and the spans of the last traced pass, are also written
under ``perfbench/out/``.

BLAS runs on one thread, so one run uses one core: in 3+3 fresh ``gdro``
runs on a 2-core machine, one thread spread about 5% against about 8% at
the default of one thread per core.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
# OpenBLAS reads these when numpy loads it, so they must be set first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cclearn  # noqa: E402
import cclearn.runner  # noqa: E402

if Path(cclearn.__file__).resolve().parent != ROOT / "src" / "cclearn":
    sys.exit(f"cclearn imported from {cclearn.__file__}, not from {ROOT / 'src'}")

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
OUT_DIR = HERE / "out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print the set-up time and exit")
    return ap.parse_args(argv)


def setup_probe(workload, seed):
    """Set-up time of a fresh interpreter: imports plus input generation."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.split()[-1])


def load_reference(workload, seed):
    with open(HERE / "reference.json") as fh:
        table = json.load(fh)
    return table[workload][str(workloads.input_seed(seed))]


def run_pass(runs, reference, tally, hook=None):
    """Train every run of the workload once; returns {label: final A_t}.

    A run fails if it raises or if its final A_t differs from the reference.
    """
    finals = {}
    for label, stream, cfg in runs:
        tally["attempted"] += 1
        try:
            result = cclearn.runner.run(stream, cfg, hook=hook)
        except Exception:  # a failed run is counted, and the benchmark goes on
            traceback.print_exc()
            tally["failed"] += 1
            continue
        finals[label] = result.accuracy.final_aggregate()
        if finals[label] != reference[label]:
            print(f"{label}: final A_t {finals[label]!r} != reference {reference[label]!r}",
                  file=sys.stderr)
            tally["failed"] += 1
    return finals


def final_acc(finals):
    return float(np.mean(list(finals.values()))) if finals else 0.0


def measure(workload, runs, reference, seconds):
    """End-to-end metrics from untraced passes repeated for ``seconds``.

    The first pass warms up and is not timed; peak memory is read after it,
    before the host-speed probe allocates its arrays (every pass does the
    same work, so its peak is the workload's).  ``ref_wall_s`` is the median
    pass time rescaled to the host's reference speed by ``hostspeed``; the
    raw pass times are kept in the detail.
    """
    tally = {"attempted": 0, "failed": 0}
    deadline = time.perf_counter() + seconds
    finals = run_pass(runs, reference, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    pass_s, ref_pass_s = [], []
    probe = hostspeed.HostProbe(workloads.PROBE_KERNEL[workload])
    with hostspeed.probing(probe):
        while not pass_s or time.perf_counter() < deadline:
            probe.start_pass()
            finals = run_pass(runs, reference, tally, hook=probe.poll)
            raw, ref = probe.end_pass()
            pass_s.append(raw)
            ref_pass_s.append(ref)
    metrics = {
        "ref_wall_s": statistics.median(ref_pass_s),
        "peak_rss_mb": peak_rss_mb,
        "final_acc": final_acc(finals),
    }
    detail = {"pass_s": pass_s, "ref_pass_s": ref_pass_s, "probe_s": probe.probes_s}
    return metrics, tally, detail


def measure_traced(workload, seed, reference, seconds, spans_path):
    """Per-layer metrics: traced passes alternate with untraced ones.

    Inputs are regenerated in every pass so that the traced pass records the
    data layer; the untraced pass does the same work, so their difference is
    the tracing overhead.  The spans of the last traced pass are written to
    ``spans_path``.
    """
    import sweep
    import tracing

    tally = {"attempted": 0, "failed": 0}
    plain_s, traced_s, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced_s or time.perf_counter() < deadline:
        t = time.perf_counter()
        plain = run_pass(workloads.build(workload, seed), reference, tally)
        plain_s.append(time.perf_counter() - t)

        tracer = tracing.Tracer()
        t = time.perf_counter()
        with tracing.traced(tracer):
            tracer.run_id = "setup"
            runs = workloads.build(workload, seed)
            traced = {}
            for label, stream, cfg in runs:
                tracer.run_id = label
                traced.update(run_pass([(label, stream, cfg)], reference, tally, tracer.stage))
        traced_s.append(time.perf_counter() - t)
        layers.append(tracing.layer_metrics(tracer.spans))
    tracer.write(spans_path)

    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    plain_med = statistics.median(plain_s)
    metrics["trace.overhead_share"] = (statistics.median(traced_s) - plain_med) / plain_med
    metrics.update(sweep.pool_sweep(workloads.input_seed(seed)))
    detail = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
              "untraced_final_acc": final_acc(plain), "traced_final_acc": final_acc(traced)}
    return metrics, tally, detail


def blas_info():
    """(library description, threads in use) of the OpenBLAS numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), get_threads()
    return "unknown", None


def environment():
    blas, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    args = parse_args(argv)
    runs = workloads.build(args.workload, args.seed)
    setup_here = time.perf_counter() - T0
    if args.setup_probe:
        print(repr(setup_here))
        return 0

    reference = load_reference(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, tally, detail = measure_traced(
            args.workload, args.seed, reference, args.seconds, OUT_DIR / f"{stem}.spans.jsonl"
        )
    else:
        metrics, tally, detail = measure(args.workload, runs, reference, args.seconds)
        # set-up is imports and small numpy work, so the small probe rescales it
        host = hostspeed.HostProbe("small")
        setup = [
            host.bracket(lambda: setup_probe(args.workload, args.seed))
            for _ in range(SETUP_PROBES)
        ]
        metrics["setup_s"] = statistics.median(ref for _, ref in setup)
        detail["setup_s_samples"] = [raw for raw, _ in setup]
        detail["ref_setup_s_samples"] = [ref for _, ref in setup]

    out = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared_metrics(args.trace)
        },
    }
    env = environment()
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "args": vars(args), "detail": detail, "result": out}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
