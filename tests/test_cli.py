import hashlib
import json
import struct

import numpy as np
import pytest

import cclearn.runner
from cclearn import cli
from cclearn.data import Dataset, gen_domain_shift, load, save

from oracles import read_accuracy_csv
from test_data import _address_space_headroom


def _gen(tmp_path, name="bench.clds", classes=8, per_class=15, seed=5):
    path = tmp_path / name
    code = cli.main(
        ["gen", "--classes", str(classes), "--per-class", str(per_class),
         "--dim", "6", "--seed", str(seed), "-o", str(path)]
    )
    assert code == 0
    return path


def _config_doc(data_path, out_dir, method="gcl", **run_overrides):
    run_section = {
        "method": method, "epochs_per_task": 4, "memory_capacity": 12, "seed": 7,
        "embed_dim": 6, "tau": 0.2, "batch_size": 16, "eta": 0.5, "log_every": 5,
    }
    run_section.update(run_overrides)
    return {
        "dataset": {"path": str(data_path)},
        "split": {"mode": "cil", "num_tasks": 4, "test_fraction": 0.2, "seed": 1},
        "run": run_section,
        "output_dir": str(out_dir),
    }


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_gen_writes_expected_sample_count(tmp_path, capsys):
    path = _gen(tmp_path, classes=20, per_class=50)
    out = capsys.readouterr().out
    assert "1000 samples" in out
    from cclearn.data import load

    assert len(load(path).y) == 1000


@pytest.mark.parametrize("flag", ["--classes", "--per-class", "--dim", "--domains"])
def test_gen_oversized_size_exits_2_and_writes_no_file(tmp_path, capsys, flag):
    """A size no memory holds is a config error: one error line and no file.
    The domain count fails too, as gen allocates the whole output before it
    draws any domain's transform."""
    sizes = {"--classes": 4, "--per-class": 5, "--dim": 3, "--domains": 2, flag: 10**12}
    path = tmp_path / "big.clds"
    argv = ["gen", *(str(a) for item in sizes.items() for a in item), "-o", str(path)]
    with _address_space_headroom(64 * 2**20):
        code = cli.main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not path.exists()


def test_gen_deterministic_file_hash(tmp_path):
    a = _gen(tmp_path, name="a.clds", seed=7)
    b = _gen(tmp_path, name="b.clds", seed=7)
    assert hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(b.read_bytes()).digest()


def test_gen_invalid_dim_exits_2(tmp_path, capsys):
    for extra in (["--dim", "0"], ["--noise", "nan"], ["--separation", "inf"],
                  ["--domains", "2", "--magnitude", "nan"],
                  # finite, but the inputs would overflow float32
                  ["--separation", "1e39"], ["--noise", "1e39"],
                  ["--domains", "2", "--shift", "scaling", "--magnitude", "1e39"],
                  ["--domains", "2", "--shift", "mean-offset", "--magnitude", "1e39"]):
        code = cli.main(
            ["gen", "--classes", "3", "--per-class", "4", "--dim", "4",
             "-o", str(tmp_path / "x.clds"), *extra]
        )
        assert code == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, (extra, err)
        assert not (tmp_path / "x.clds").exists()


def test_gen_negative_seed_exits_2_naming_the_seed(tmp_path, capsys):
    path = tmp_path / "x.clds"
    code = cli.main(["gen", "--classes", "3", "--per-class", "4", "--dim", "4",
                     "--seed", "-1", "-o", str(path)])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not path.exists()


def test_run_produces_outputs(tmp_path, capsys):
    data = _gen(tmp_path)
    out_dir = tmp_path / "run1"
    cfg = _write_config(tmp_path, _config_doc(data, out_dir))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert (out_dir / "accuracy.csv").exists()
    assert (out_dir / "log.jsonl").exists()
    assert (out_dir / "curve.svg").exists()
    assert (out_dir / "run_meta.json").exists()

    entries, aggregate, cfg_hash = read_accuracy_csv(out_dir / "accuracy.csv")
    assert len(entries) == 4 + 3 + 2 + 1
    assert sorted(aggregate) == [0, 1, 2, 3]
    assert len(cfg_hash) == 64

    svg = (out_dir / "curve.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg

    first_log_line = (out_dir / "log.jsonl").read_text().splitlines()[0]
    assert json.loads(first_log_line)["config_sha256"] == cfg_hash


def test_run_twice_is_byte_identical(tmp_path):
    data = _gen(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = _write_config(tmp_path, _config_doc(data, out_a), "a.json")
    cfg_b = _write_config(tmp_path, _config_doc(data, out_b), "b.json")
    assert cli.main(["run", "--config", str(cfg_a)]) == 0
    assert cli.main(["run", "--config", str(cfg_b)]) == 0
    assert (out_a / "accuracy.csv").read_bytes() == (out_b / "accuracy.csv").read_bytes()
    assert (out_a / "log.jsonl").read_bytes() == (out_b / "log.jsonl").read_bytes()
    assert (out_a / "curve.svg").read_bytes() == (out_b / "curve.svg").read_bytes()


@pytest.mark.parametrize("method", ["gcl", "gdro"])
def test_run_dil_succeeds_and_repeats_byte_for_byte(tmp_path, capsys, method):
    """A domain-incremental run through the CLI: every class is in every
    domain, so the buffer merges each class's stored and incoming rows, and
    the estimates carried between stages follow them.  The run exits 0 and
    writes the four files, and a second run writes the same bytes."""
    data = tmp_path / "dil.clds"
    argv = ["gen", "--classes", "4", "--per-class", "10", "--dim", "6", "--seed", "3",
            "--domains", "3", "-o", str(data)]
    assert cli.main(argv) == 0
    doc = _config_doc(data, tmp_path / "unused", method, memory_capacity=8, batch_classes=2,
                      batch_per_class=3)
    doc["split"] = {"mode": "dil", "domain_order": [2, 0, 1], "test_fraction": 0.2, "seed": 1}
    cfg = _write_config(tmp_path, doc)
    names = ["accuracy.csv", "log.jsonl", "curve.svg", "run_meta.json"]
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        runs.append([(out / name).read_bytes() for name in names])
    assert "run complete" in capsys.readouterr().out
    entries, aggregate, _ = read_accuracy_csv(tmp_path / "a" / "accuracy.csv")
    assert len(entries) == 3 + 2 + 1 and sorted(aggregate) == [0, 1, 2]
    assert runs[0] == runs[1]


def test_run_rejects_unknown_config_keys(tmp_path, capsys):
    data = _gen(tmp_path)
    doc = _config_doc(data, tmp_path / "out")
    doc["run"]["learning_rate"] = 0.1  # not a RunConfig field
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_run_rejects_missing_required_keys(tmp_path, capsys):
    data = _gen(tmp_path)
    doc = _config_doc(data, tmp_path / "out")
    del doc["run"]["method"]
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 2


def test_run_rejects_bad_method(tmp_path):
    data = _gen(tmp_path)
    doc = _config_doc(data, tmp_path / "out")
    doc["run"]["method"] = "ewc"
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 2


def test_run_missing_dataset_exits_3(tmp_path, capsys):
    doc = _config_doc(tmp_path / "nope.clds", tmp_path / "out")
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 3


_HEADER = struct.Struct("<IIIII")  # version, n, dim, classes, flags


def _patched_header(path, field, value):
    """Replace one header field of a .clds file.  At ``dim`` 0 the input bytes
    go too, so that the payload size still matches the header."""
    blob = path.read_bytes()
    header = dict(zip(("version", "n", "dim", "classes", "flags"), _HEADER.unpack(blob[4:24])))
    payload = blob[24:]
    if field == "dim":
        payload = payload[4 * header["n"] * header["dim"] :]
    header[field] = value
    return blob[:4] + _HEADER.pack(*header.values()) + payload


def _zeroed_sample_ids(path):
    """A .clds file whose sample ids are all 0."""
    blob = path.read_bytes()
    _, n, dim, _, _ = _HEADER.unpack(blob[4:24])
    start = 24 + 4 * n * dim + 4 * n  # after the inputs and class ids
    return blob[:start] + bytes(8 * n) + blob[start + 8 * n :]


def _first_input(path, value):
    """A .clds file whose first input is ``value``."""
    blob = path.read_bytes()
    return blob[:24] + struct.pack("<f", value) + blob[28:]


def test_run_corrupt_dataset_exits_3(tmp_path, capsys):
    good = _gen(tmp_path)  # 8 classes
    cases = {
        "nan-input": _first_input(good, float("nan")),
        "inf-input": _first_input(good, float("inf")),
        "-inf-input": _first_input(good, float("-inf")),
        "junk": b"JUNKJUNKJUNK",
        "classes=4": _patched_header(good, "classes", 4),
        "classes=0": _patched_header(good, "classes", 0),
        "dim=0": _patched_header(good, "dim", 0),
        "duplicate-ids": _zeroed_sample_ids(good),
        "undefined-flag-bit": _patched_header(good, "flags", 6 | 8),  # payload size unchanged
    }
    for name, blob in cases.items():
        bad = tmp_path / "bad.clds"
        bad.write_bytes(blob)
        cfg = _write_config(tmp_path, _config_doc(bad, tmp_path / "out"))
        assert cli.main(["run", "--config", str(cfg)]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("error: dataset:") and err.count("\n") == 1, (name, err)


def test_run_more_classes_than_samples_exits_2(tmp_path, capsys):
    """A header that declares 2,000,000 classes for 20 samples passes ``load`` (every
    class id is below it) but the split refuses it before any per-class allocation."""
    good = _gen(tmp_path, classes=4, per_class=5)
    bad = tmp_path / "bad.clds"
    bad.write_bytes(_patched_header(good, "classes", 2_000_000))
    doc = _config_doc(bad, tmp_path / "out")
    doc["split"]["num_tasks"] = 2
    assert cli.main(["run", "--config", str(_write_config(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: dataset declares 2000000 classes"), err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["cil", "dil"])
def test_run_empty_dataset_exits_2(tmp_path, capsys, mode):
    empty = tmp_path / "empty.clds"
    none = np.zeros(0, dtype=np.int64)
    domains = none if mode == "dil" else None
    save(Dataset(np.zeros((0, 6), np.float32), none, 8, domain_ids=domains), empty)
    doc = _config_doc(empty, tmp_path / "out")
    if mode == "dil":
        doc["split"] = {"mode": "dil", "domain_order": []}
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "mode, split, gen",
    [
        ("cil", {"num_tasks": 0}, {}),
        ("cil", {"num_tasks": -4}, {}),
        ("cil", {"test_fraction": -0.2}, {}),
        ("cil", {"test_fraction": 0.0}, {}),
        ("dil", {"test_fraction": -0.2}, {}),
        ("dil", {"test_fraction": 0.0}, {}),
        # round(2 * 0.2) = 0: every task gets an empty test set
        ("cil", {"test_fraction": 0.2}, {"classes": 4, "per_class": 2}),
        ("dil", {"test_fraction": 0.2}, {"classes": 4, "per_class": 2}),
        ("cil", {"num_tasks": True}, {}),
        ("cil", {"seed": True}, {}),
        ("dil", {"seed": True}, {}),
        ("cil", {"seed": -1}, {}),
        ("dil", {"domain_order": [True, False]}, {}),
        ("cil", {"test_fraction": "0.2"}, {}),
    ],
    ids=["num_tasks=0", "num_tasks=-4", "cil-test_fraction=-0.2", "cil-test_fraction=0",
         "dil-test_fraction=-0.2", "dil-test_fraction=0", "cil-no-test-samples",
         "dil-no-test-samples", "num_tasks=true", "cil-seed=true",
         "dil-seed=true", "cil-seed=-1", "domain_order=[true,false]", "test_fraction=string"],
)
def test_run_bad_split_exits_2(tmp_path, capsys, mode, split, gen):
    data = _gen(tmp_path, **gen)
    doc = _config_doc(data, tmp_path / "out")
    if mode == "dil":
        shifted = tmp_path / "dil.clds"
        save(gen_domain_shift(load(data), 2, "rotation", 0.5, 3), shifted)
        doc["dataset"]["path"] = str(shifted)
        doc["split"] = {"mode": "dil", "domain_order": [0, 1], "seed": 1}
    doc["split"].update(split)
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("split", [[], "cil", 5, None], ids=["list", "string", "number", "null"])
def test_run_non_object_split_exits_2(tmp_path, capsys, split):
    doc = _config_doc(_gen(tmp_path), tmp_path / "out")
    doc["split"] = split
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: config: section 'split' must be an object\n", err


@pytest.mark.parametrize("sub", [None, "sub"], ids=["file", "below-file"])
def test_run_unusable_output_dir_exits_2_before_training(tmp_path, capsys, monkeypatch, sub):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker / sub if sub else blocker
    cfg = _write_config(tmp_path, _config_doc(_gen(tmp_path), out))
    capsys.readouterr()

    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "run", no_training)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory:") and err.count("\n") == 1, err


def test_run_divergence_exits_4(tmp_path, capsys):
    data = _gen(tmp_path)
    doc = _config_doc(data, tmp_path / "out", eta=1e308)
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 4
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("method, field, value", [
    ("gcl", "tau", 1e-320),
    ("finetune-ce", "tau", 1e-320),
    ("gdro", "tau", 1e-320),
    ("gdro", "dro_lambda", 1e-310),
], ids=["gcl-tau", "finetune-ce-tau", "gdro-tau", "gdro-lambda"])
def test_run_going_non_finite_reports_one_line_and_no_warning(tmp_path, capsys, method,
                                                              field, value):
    """A run that overflows exits 4 with its one error line: numpy's
    floating-point warnings on the way, which the test settings turn into
    errors, stay silent."""
    doc = _config_doc(_gen(tmp_path), tmp_path / "out", method=method, **{field: value})
    cfg = _write_config(tmp_path, doc)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: diverged: ") and err.count("\n") == 1, err


def test_run_nan_loss_exits_4_naming_where(tmp_path, capsys, monkeypatch):
    """A non-finite loss, not only exploding parameters, is a divergence: exit 4,
    one error line naming the cause and the step, and no output directory."""
    data = _gen(tmp_path)
    cfg = _write_config(tmp_path, _config_doc(data, tmp_path / "a" / "b"))
    monkeypatch.setattr(cclearn.runner, "_gcl_loss_and_grad",
                        lambda state, enc, *args: (float("nan"), np.zeros(enc.n_params)))
    assert cli.main(["run", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err == "error: diverged: loss became non-finite at task 0, epoch 0, step 0\n", err
    assert not (tmp_path / "a").exists()


def test_run_gdro_one_class_stage_exits_2_and_leaves_no_directory(tmp_path, capsys):
    """One class per task leaves gdro's first stage without negatives: a config
    error, reported before training and without an output directory."""
    data = _gen(tmp_path, classes=4, per_class=10)
    cfg = _write_config(tmp_path, _config_doc(data, tmp_path / "a" / "b", method="gdro"))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1, err
    assert "two classes" in err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("field", ["hidden_dim", "embed_dim"])
def test_run_oversized_encoder_exits_2_and_leaves_no_directory(tmp_path, capsys, field):
    """An encoder no memory holds is a config error: the parameter vector's
    allocation fails at once, long before the address-space cap matters."""
    data = _gen(tmp_path)
    cfg = _write_config(tmp_path, _config_doc(data, tmp_path / "a" / "b", **{field: 10**15}))
    with _address_space_headroom(64 * 2**20):
        code = cli.main(["run", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1, err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new-nested", "existing"])
def test_run_divergence_removes_only_the_directories_it_created(tmp_path, capsys, existing):
    data = _gen(tmp_path)
    out = tmp_path / "kept" if existing else tmp_path / "a" / "b"
    if existing:
        out.mkdir()
    cfg = _write_config(tmp_path, _config_doc(data, tmp_path / "unused", eta=1e308))
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 4
    assert "diverged" in capsys.readouterr().err
    if existing:
        assert out.is_dir()
    else:
        assert not (tmp_path / "a").exists()
    assert not (tmp_path / "unused").exists()


def test_run_that_raises_removes_the_directories_it_created(tmp_path, monkeypatch):
    """An error outside the exit-code contract still leaves no directory the
    run made behind, and reaches the caller as it was raised."""
    data = _gen(tmp_path)
    cfg = _write_config(tmp_path, _config_doc(data, tmp_path / "a" / "b"))

    def broken_run(stream, config):
        raise RuntimeError("broken")

    monkeypatch.setattr(cli, "run", broken_run)
    with pytest.raises(RuntimeError, match="^broken$"):
        cli.main(["run", "--config", str(cfg)])
    assert not (tmp_path / "a").exists()


def test_run_gdro_batch_past_int64_exits_0(tmp_path):
    """A per-class batch of 2**63 rows takes each picked class whole."""
    data = _gen(tmp_path)
    doc = _config_doc(data, tmp_path / "out", method="gdro", batch_per_class=2**63,
                      batch_classes=3, margin=0.5, dro_lambda=1.0, eta=0.2)
    assert cli.main(["run", "--config", str(_write_config(tmp_path, doc))]) == 0
    assert (tmp_path / "out" / "log.jsonl").exists()


@pytest.mark.parametrize("method", cclearn.runner.METHODS)
def test_run_log_names_the_configured_method(tmp_path, method):
    """``run_start`` in ``log.jsonl`` names the config's method, the joint
    bound's too, though it trains gcl on the merged stream."""
    out = _run_once(tmp_path, method, method=method)
    records = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    assert [r["method"] for r in records if r["event"] == "run_start"] == [method]


def test_run_output_dir_from_env(tmp_path, monkeypatch):
    data = _gen(tmp_path)
    doc = _config_doc(data, tmp_path / "ignored")
    del doc["output_dir"]
    cfg = _write_config(tmp_path, doc)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert (env_dir / "accuracy.csv").exists()


def _run_once(tmp_path, out_name, method="gcl", seed=7, memory=12):
    data = tmp_path / "bench.clds"
    if not data.exists():
        _gen(tmp_path)
    out_dir = tmp_path / out_name
    doc = _config_doc(data, out_dir, method=method, seed=seed, memory_capacity=memory)
    if method == "gdro":
        doc["run"].update({"batch_classes": 3, "batch_per_class": 4, "margin": 0.5,
                          "dro_lambda": 1.0, "eta": 0.2})
    cfg = _write_config(tmp_path, doc, f"{out_name}.json")
    assert cli.main(["run", "--config", str(cfg)]) == 0
    return out_dir


def test_run_zero_shot_completes_with_flat_model(tmp_path):
    data = _gen(tmp_path)
    out_dir = tmp_path / "zs"
    doc = _config_doc(data, out_dir, method="zero-shot")
    cfg = _write_config(tmp_path, doc, "zs.json")
    assert cli.main(["run", "--config", str(cfg)]) == 0
    _, aggregate, _ = read_accuracy_csv(out_dir / "accuracy.csv")
    assert sorted(aggregate) == [0, 1, 2, 3]  # evaluated at every stage, no training


def test_compare_run_with_itself_has_zero_std(tmp_path):
    out = _run_once(tmp_path, "r1")
    cmp_dir = tmp_path / "cmp"
    assert cli.main(["compare", str(out), str(out), "-o", str(cmp_dir)]) == 0
    lines = (cmp_dir / "comparison.csv").read_text().splitlines()
    assert lines[1] == "method,memory,n_runs,final_mean,final_std"
    row = lines[2].split(",")
    assert row[0] == "gcl" and row[2] == "2"
    assert float(row[4]) == 0.0


def test_compare_groups_methods_and_recomputes_std(tmp_path):
    runs = [
        _run_once(tmp_path, "g1", "gcl", seed=7),
        _run_once(tmp_path, "g2", "gcl", seed=8),
        _run_once(tmp_path, "g3", "gcl", seed=9),
        _run_once(tmp_path, "d1", "gdro", seed=7),
        _run_once(tmp_path, "d2", "gdro", seed=8),
        _run_once(tmp_path, "d3", "gdro", seed=9),
    ]
    cmp_dir = tmp_path / "cmp"
    assert cli.main(["compare", *map(str, runs), "-o", str(cmp_dir)]) == 0
    lines = (cmp_dir / "comparison.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 2  # gcl and gdro groups

    # independent recomputation from the per-run accuracy CSVs
    for row in rows:
        method = row[0]
        finals = []
        for name in ("g1", "g2", "g3") if method == "gcl" else ("d1", "d2", "d3"):
            _, aggregate, _ = read_accuracy_csv(tmp_path / name / "accuracy.csv")
            finals.append(aggregate[max(aggregate)])
        assert float(row[3]) == pytest.approx(np.mean(finals), abs=1e-12)
        assert float(row[4]) == pytest.approx(np.std(finals), abs=1e-12)
    assert (cmp_dir / "comparison.svg").exists()


def test_compare_rejects_single_directory(tmp_path):
    out = _run_once(tmp_path, "solo")
    assert cli.main(["compare", str(out), "-o", str(tmp_path / "cmp")]) == 2


def test_compare_rejects_incompatible_streams(tmp_path):
    out1 = _run_once(tmp_path, "s1")
    other_data = _gen(tmp_path, name="other.clds", seed=99)
    out2 = tmp_path / "s2"
    cfg = _write_config(tmp_path, _config_doc(other_data, out2), "other.json")
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert cli.main(["compare", str(out1), str(out2), "-o", str(tmp_path / "cmp")]) == 2


def test_compare_unusable_output_dir_exits_2(tmp_path, capsys):
    out = _run_once(tmp_path, "r1")
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    capsys.readouterr()
    assert cli.main(["compare", str(out), str(out), "-o", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory:") and err.count("\n") == 1, err
    assert blocker.read_text() == "not a directory"


def test_compare_missing_meta_exits_2(tmp_path, capsys):
    out = _run_once(tmp_path, "ok")
    capsys.readouterr()
    meta = json.loads((out / "run_meta.json").read_text())
    one_stage_less = dict(meta, aggregate=dict(list(meta["aggregate"].items())[:-1]))
    cases = {
        "empty": (None, "cannot read"),
        "list": ("[]", "cannot read"),
        "no-keys": ("{}", "cannot read"),
        "aggregate=5": (json.dumps(dict(meta, aggregate=5)), "cannot read"),
        "final_aggregate=x": (json.dumps(dict(meta, final_aggregate="x")), "cannot read"),
        # json reads NaN and Infinity; no accuracy lies outside [0, 1]
        "final_aggregate=NaN": (json.dumps(dict(meta, final_aggregate=float("nan"))), "cannot read"),
        "final_aggregate=Infinity": (
            json.dumps(dict(meta, final_aggregate=float("inf"))), "cannot read"
        ),
        "final_aggregate=1.5": (json.dumps(dict(meta, final_aggregate=1.5)), "cannot read"),
        "final_aggregate=-0.1": (json.dumps(dict(meta, final_aggregate=-0.1)), "cannot read"),
        "aggregate=NaN": (json.dumps(dict(meta, aggregate={"0": float("nan")})), "cannot read"),
        "aggregate=Infinity": (
            json.dumps(dict(meta, aggregate={"0": float("inf")})), "cannot read"
        ),
        "aggregate=1.5": (json.dumps(dict(meta, aggregate={"0": 1.5})), "cannot read"),
        "aggregate=-0.1": (json.dumps(dict(meta, aggregate={"0": -0.1})), "cannot read"),
        "stages-differ": (json.dumps(one_stage_less), "incompatible runs"),
    }
    for name, (text, message) in cases.items():
        bad = tmp_path / name
        bad.mkdir()
        if text is not None:
            (bad / "run_meta.json").write_text(text)
        assert cli.main(["compare", str(out), str(bad), "-o", str(tmp_path / "cmp")]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, (name, err)


def test_compare_refuses_an_unknown_method(tmp_path, capsys):
    """A meta's method names a CSV column and an SVG label, so compare reads only
    the methods a run can have: anything else exits 2 with one line, and writes
    nothing."""
    meta = json.loads((_run_once(tmp_path, "ok") / "run_meta.json").read_text())
    dirs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        bad = dict(meta, method="gcl,evil<b>&")
        (tmp_path / name / "run_meta.json").write_text(json.dumps(bad))
        dirs.append(str(tmp_path / name))
    capsys.readouterr()
    cmp_dir = tmp_path / "cmp"
    assert cli.main(["compare", *dirs, "-o", str(cmp_dir)]) == 2
    err = capsys.readouterr().err
    meta_path = tmp_path / "a" / "run_meta.json"
    assert err.startswith(f"error: cannot read {meta_path}: method 'gcl,evil<b>&'"), err
    assert err.count("\n") == 1, err
    assert not cmp_dir.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("tau", 0), ("tau", -0.5), ("eta", 0), ("embed_dim", 0), ("hidden_dim", -1),
        ("gcl_gamma", 2), ("dro_gamma", 2), ("dro_lambda", 0), ("beta1", 2),
        ("margin", -1), ("batch_classes", 0), ("batch_per_class", 0),
        ("optimizer", "sgd"),
        ("memory_capacity", 1.5), ("epochs_per_task", 2.5), ("batch_size", 3.5),
        ("seed", 1.5), ("embed_dim", 2.5), ("hidden_dim", 2.5), ("batch_per_class", 2.5),
        ("tau", True), ("eta", True), ("beta1", True), ("margin", False),
        ("dro_lambda", True), ("tau", "0.2"),
        # JSON's NaN and Infinity literals
        ("tau", float("inf")), ("eta", float("inf")), ("dro_lambda", float("inf")),
        ("margin", float("nan")), ("margin", float("inf")),
        pytest.param("tau", 10**400, id="tau-10**400"),  # a JSON integer no float holds
    ],
)
def test_run_rejects_out_of_range_values_exits_2(tmp_path, capsys, field, value):
    data = _gen(tmp_path)
    doc = _config_doc(data, tmp_path / "out", **{field: value})
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "path", [["bench.clds"], {"file": "bench.clds"}, 0, True], ids=["list", "object", "0", "true"]
)
def test_run_rejects_non_string_dataset_path_exits_2(tmp_path, capsys, path):
    doc = _config_doc(_gen(tmp_path), tmp_path / "out")
    doc["dataset"]["path"] = path
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: config: dataset.path must be a string\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, message", [
    ("root-list", "config: section '<root>' must be an object"),
    ("dataset-string", "config: section 'dataset' must be an object"),
    ("run-list", "config: section 'run' must be an object"),
    ("split-mode", "config: split.mode must be 'cil' or 'dil', got 'til'"),
    ("output_dir-number", "config: output_dir must be a string"),
    ("no-output-dir", "no output directory: use --out, config output_dir, or $CCLEARN_OUTPUT_DIR"),
])
def test_run_refuses_a_hostile_config_exits_2(tmp_path, capsys, monkeypatch, case, message):
    """Each refusal is one error line and exit 2, before any directory is made."""
    doc = _config_doc(tmp_path / "bench.clds", tmp_path / "out")
    if case == "root-list":
        doc = [doc]
    elif case == "dataset-string":
        doc["dataset"] = "bench.clds"
    elif case == "run-list":
        doc["run"] = []
    elif case == "split-mode":
        doc["split"]["mode"] = "til"
    elif case == "output_dir-number":
        doc["output_dir"] = 5
    else:
        del doc["output_dir"]
        monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("aggregate", [{}, {"first": 0.5}, {"0": "0.5"}, {"0": True}],
                         ids=["empty", "non-decimal-stage", "string", "bool"])
def test_compare_refuses_a_malformed_aggregate(tmp_path, capsys, aggregate):
    """An aggregate must map stage numbers to accuracies: anything else exits 2
    with one line naming the file."""
    meta = json.loads((_run_once(tmp_path, "ok") / "run_meta.json").read_text())
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "run_meta.json").write_text(json.dumps(dict(meta, aggregate=aggregate)))
    capsys.readouterr()
    assert cli.main(["compare", str(tmp_path / "ok"), str(bad), "-o", str(tmp_path / "cmp")]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {bad / 'run_meta.json'}: "
        "aggregate must map stage numbers to accuracies\n"
    )
