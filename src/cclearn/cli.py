"""Command-line entry point: generate datasets, run experiments, compare runs.

Exit codes: 0 success, 2 invalid arguments, config schema violation,
out-of-range config value or a model or generated dataset too large to
allocate, 3 dataset read failure, 4 training divergence (a failed run removes
the output directories it created, while they are empty).

Experiment configs are JSON documents with three sections (unknown keys are
rejected everywhere):

    {
      "dataset": {"path": "bench.clds"},
      "split":   {"mode": "cil", "num_tasks": 5, "test_fraction": 0.2, "seed": 1},
      "run":     {"method": "gdro", "epochs_per_task": 10,
                  "memory_capacity": 48, "seed": 7, ...},
      "output_dir": "out/run1"
    }

``split.mode`` may also be "dil" with a "domain_order" list.  The ``run`` keys
are the RunConfig fields and the other ``split`` keys the parameters of
``split_cil`` or ``split_dil``; those without a default are required.  A
non-object section, a NaN or Infinity number or an unusable output directory
exits 2 before training.  The output directory is resolved from --out, then
``output_dir`` in the config, then the CCLEARN_OUTPUT_DIR environment
variable.  Each run directory receives accuracy.csv, log.jsonl, curve.svg and
run_meta.json; all bytes are a deterministic function of config and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import ConfigError, DatasetFormatError, DivergenceError
from .report import accuracy_csv_text, config_sha256, file_sha256, line_chart_svg
from .runner import METHODS, RunConfig, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3
EXIT_DIVERGED = 4

OUTPUT_DIR_ENV = "CCLEARN_OUTPUT_DIR"


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


# -------------------------------------------------------------------- schema

_SPLITS = {"cil": data_mod.split_cil, "dil": data_mod.split_dil}
# the run_meta.json keys compare reads, and their JSON types
_META_TYPES = {
    "stream_sha256": (str,), "method": (str,), "memory_capacity": (int,),
    "final_aggregate": (int, float), "aggregate": (dict,),
}


def _keywords(fn, given=()):
    """The keyword names ``fn`` accepts, and those it requires, besides the ``given`` ones."""
    params = [p for p in inspect.signature(fn).parameters.values() if p.name not in given]
    return {p.name for p in params}, {p.name for p in params if p.default is p.empty}


def _check_keys(section, doc, allowed, required):
    if not isinstance(doc, dict):
        raise ValueError(f"section {section!r} must be an object")
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {section!r}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ValueError(f"missing keys in {section!r}: {sorted(missing)}")


def validate_config(doc) -> None:
    """Strict schema check.  The ``run`` keys are RunConfig's fields; the ``split``
    keys are ``mode`` plus the parameters of that mode's split function."""
    _check_keys("<root>", doc, {"dataset", "split", "run", "output_dir"}, {"dataset", "split", "run"})
    _check_keys("dataset", doc["dataset"], {"path"}, {"path"})
    split = doc["split"]
    if not isinstance(split, dict):
        raise ValueError("section 'split' must be an object")
    mode = split.get("mode")
    if mode not in list(_SPLITS):  # a list: mode may be unhashable
        raise ValueError(f"split.mode must be 'cil' or 'dil', got {mode!r}")
    allowed, required = _keywords(_SPLITS[mode], given={"ds"})
    _check_keys("split", split, allowed | {"mode"}, required | {"mode"})
    _check_keys("run", doc["run"], *_keywords(RunConfig))
    if not isinstance(doc["dataset"]["path"], str):
        raise ValueError("dataset.path must be a string")
    if "output_dir" in doc and not isinstance(doc["output_dir"], str):
        raise ValueError("output_dir must be a string")


def _write_texts(out: Path, texts: dict) -> None:
    for name, text in texts.items():  # the same bytes on every platform
        (out / name).write_text(text, newline="\n")


# ------------------------------------------------------------------ commands


def cmd_gen(args) -> int:
    try:
        ds = data_mod.gen_synthetic(
            args.classes, args.per_class, args.dim, args.separation, args.noise, args.seed
        )
        if args.domains:
            ds = data_mod.gen_domain_shift(ds, args.domains, args.shift, args.magnitude, args.seed)
        data_mod.save(ds, args.output)
    except (ValueError, OSError, MemoryError) as err:  # MemoryError: sizes no memory holds
        return _fail(EXIT_CONFIG, str(err))
    print(
        f"wrote {args.output}: {len(ds.y)} samples, "
        f"{ds.num_classes} classes, dim {ds.input_dim}"
        + (f", {args.domains} domains" if args.domains else "")
    )
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
        validate_config(doc)
        run_config = RunConfig(**doc["run"])
    except (OSError, ValueError, TypeError) as err:  # JSONDecodeError is a ValueError
        return _fail(EXIT_CONFIG, f"config: {err}")

    data_path = args.data or doc["dataset"]["path"]
    out_dir = args.out or doc.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV)
    if not out_dir:
        return _fail(
            EXIT_CONFIG,
            f"no output directory: use --out, config output_dir, or ${OUTPUT_DIR_ENV}",
        )

    try:
        ds = data_mod.load(data_path)
    except (OSError, DatasetFormatError) as err:
        return _fail(EXIT_DATASET, f"dataset: {err}")

    split = dict(doc["split"])
    try:
        stream = _SPLITS[split.pop("mode")](ds, **split)
    except (ValueError, TypeError) as err:
        return _fail(EXIT_CONFIG, f"config: {err}")

    out = Path(out_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]  # innermost first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        return _fail(EXIT_CONFIG, f"output directory: {err}")

    try:
        result = run(stream, run_config)
    except (ConfigError, MemoryError, DivergenceError) as err:
        for d in created:  # a failed run leaves no directory it made behind
            with contextlib.suppress(OSError):  # rmdir refuses a non-empty directory
                d.rmdir()
        if isinstance(err, DivergenceError):
            return _fail(EXIT_DIVERGED, f"diverged: {err}")
        # a MemoryError: the configured model is too large to allocate
        return _fail(EXIT_CONFIG, f"config: {err}")

    cfg_hash = config_sha256({"dataset": doc["dataset"], "split": doc["split"], "run": doc["run"]})
    records = [{"event": "run_meta", "config_sha256": cfg_hash}] + result.log
    stages = sorted(result.accuracy.aggregate)
    meta = {
        "config": {"dataset": doc["dataset"], "split": doc["split"], "run": doc["run"]},
        "config_sha256": cfg_hash,
        "stream_sha256": config_sha256(
            {"dataset_file": file_sha256(data_path), "split": doc["split"]}
        ),
        "method": run_config.method,
        "seed": run_config.seed,
        "memory_capacity": run_config.memory_capacity,
        "aggregate": {str(t): result.accuracy.aggregate[t] for t in stages},
        "final_aggregate": result.accuracy.final_aggregate(),
    }
    _write_texts(out, {
        "log.jsonl": "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records),
        "accuracy.csv": accuracy_csv_text(result.accuracy, cfg_hash),
        "curve.svg": line_chart_svg(
            [(run_config.method, [t + 1 for t in stages],
              [result.accuracy.aggregate[t] for t in stages])],
            title=f"Accuracy over stages ({run_config.method})",
            x_label="stage", y_label="accuracy",
        ),
        "run_meta.json": json.dumps(meta, sort_keys=True, indent=1) + "\n",
    })
    print(f"run complete: method={run_config.method} final={meta['final_aggregate']:.4f} -> {out}")
    return EXIT_OK


def _read_meta(path) -> dict:
    """The run meta at ``path``; ValueError unless it has the keys and types compare
    reads, names a known method and every accuracy is a finite number in [0, 1]."""
    meta = json.loads(Path(path).read_text())
    if not isinstance(meta, dict) or not _META_TYPES.keys() <= meta.keys():
        raise ValueError(f"not a run meta: needs keys {sorted(_META_TYPES)}")
    for key, kinds in _META_TYPES.items():
        if type(meta[key]) not in kinds:  # JSON gives exact types; bool is not an int here
            raise ValueError(f"{key} has the wrong type: {meta[key]!r}")
    if meta["method"] not in METHODS:  # it names a CSV column and an SVG label
        raise ValueError(f"method {meta['method']!r} is not one of {', '.join(METHODS)}")
    stages = meta["aggregate"]
    if not stages or not all(t.isdecimal() and type(a) in (int, float) for t, a in stages.items()):
        raise ValueError("aggregate must map stage numbers to accuracies")
    for a in (meta["final_aggregate"], *stages.values()):
        if not 0 <= a <= 1:  # NaN fails too; json reads NaN and Infinity
            raise ValueError(f"accuracy {a!r} is not a number in [0, 1]")
    return meta


def cmd_compare(args) -> int:
    if len(args.rundirs) < 2:
        return _fail(EXIT_CONFIG, "compare needs at least two run directories")
    metas = []
    for d in args.rundirs:
        meta_path = Path(d) / "run_meta.json"
        try:
            metas.append(_read_meta(meta_path))
        except (OSError, ValueError) as err:  # JSONDecodeError is a ValueError
            return _fail(EXIT_CONFIG, f"cannot read {meta_path}: {err}")
    stream_hashes = {m["stream_sha256"] for m in metas}
    if len(stream_hashes) != 1:
        return _fail(
            EXIT_CONFIG,
            "incompatible runs: they were executed on different datasets or splits",
        )

    groups: dict[tuple[str, int], list[dict]] = {}
    for m in metas:
        groups.setdefault((m["method"], m["memory_capacity"]), []).append(m)
    for (method, memory), runs in groups.items():
        if len({frozenset(m["aggregate"]) for m in runs}) != 1:
            return _fail(
                EXIT_CONFIG, f"incompatible runs: {method} (mem={memory}) runs differ in stages"
            )

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        return _fail(EXIT_CONFIG, f"output directory: {err}")
    lines = [
        f"# stream_sha256={next(iter(stream_hashes))}",
        "method,memory,n_runs,final_mean,final_std",
    ]
    series = []
    for (method, memory) in sorted(groups):
        runs = groups[(method, memory)]
        finals = np.array([m["final_aggregate"] for m in runs])
        lines.append(
            f"{method},{memory},{len(runs)},{float(finals.mean())!r},{float(finals.std())!r}"
        )
        stages = sorted(runs[0]["aggregate"], key=int)
        curve = [float(np.mean([m["aggregate"][t] for m in runs])) for t in stages]
        series.append((f"{method} (mem={memory})", [int(t) + 1 for t in stages], curve))
    _write_texts(out, {
        "comparison.csv": "\n".join(lines) + "\n",
        "comparison.svg": line_chart_svg(
            series, title="Method comparison", x_label="stage", y_label="accuracy"
        ),
    })
    print(f"compared {len(metas)} runs ({len(groups)} method/memory groups) -> {out}")
    return EXIT_OK


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cclearn",
        description="Continual learning experiments for small bimodal contrastive models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset file")
    gen.add_argument("--classes", type=int, required=True)
    gen.add_argument("--per-class", type=int, required=True, dest="per_class")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--separation", type=float, default=4.0)
    gen.add_argument("--noise", type=float, default=0.5)
    gen.add_argument("--domains", type=int, default=0, help="replicate across N shifted domains")
    gen.add_argument("--shift", choices=("rotation", "scaling", "mean-offset"), default="rotation")
    gen.add_argument("--magnitude", type=float, default=1.0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_gen)

    runp = sub.add_parser("run", help="execute one experiment from a config file")
    runp.add_argument("--config", required=True)
    runp.add_argument("--data", help="override dataset.path from the config")
    runp.add_argument("-o", "--out", help="override the output directory")
    runp.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="aggregate finished run directories")
    comp.add_argument("rundirs", nargs="+")
    comp.add_argument("-o", "--out", required=True)
    comp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
