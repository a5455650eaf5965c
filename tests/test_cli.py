"""Command-line interface: artifacts, exit codes, reproducibility."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qmatch import density_metrics, evaluation, training
from qmatch.checkpoint import load_checkpoint
from qmatch.cli import (
    AUDIT_DETAILS_NAME,
    AUDIT_TABLE_NAME,
    BEST_CHECKPOINT_NAME,
    CHECKPOINT_NAME,
    DEV_REPORT_NAME,
    EVAL_REPORT_NAME,
    GRID_RESULTS_NAME,
    TRAIN_LOG_NAME,
    _CONFIG_FLAGS,
    _THREAD_VARS,
    _configure_threads,
    main,
)
from qmatch.data import write_canonical_tsv
from qmatch.model import TrainerConfig
from qmatch.synthetic import toy_corpus


@pytest.fixture()
def toy_tsv(tmp_path):
    path = tmp_path / "toy.tsv"
    write_canonical_tsv(toy_corpus(num_questions=3), str(path))
    return path


def train_args(toy_tsv, out_dir, seed=3, epochs="2"):
    return [
        "train",
        "--dataset", str(toy_tsv),
        "--dev", str(toy_tsv),
        "--out", str(out_dir),
        "--embedding-dim", "6",
        "--num-measurements", "4",
        "--window-sizes", "1,2",
        "--epochs", epochs,
        "--learning-rate", "0.1",
        "--batch-size", "4",
        "--dropout-rate", "0.0",
        "--seed", str(seed),
    ]


@pytest.fixture()
def trained(toy_tsv, tmp_path):
    out = tmp_path / "run"
    rc = main(train_args(toy_tsv, out))
    assert rc == 0
    return out / CHECKPOINT_NAME


# ---------------------------------------------------------------------------
# training


def test_train_writes_checkpoint_log_and_report(toy_tsv, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(train_args(toy_tsv, out))
    assert rc == 0
    assert (out / CHECKPOINT_NAME).exists()
    assert (out / DEV_REPORT_NAME).exists()
    records = [
        json.loads(line)
        for line in (out / TRAIN_LOG_NAME).read_text().splitlines()
    ]
    kinds = {r["kind"] for r in records}
    assert kinds == {"batch", "epoch"}
    assert [r["epoch"] for r in records if r["kind"] == "epoch"] == [1, 2]
    stdout = capsys.readouterr().out
    assert "best epoch" in stdout
    assert "dev MAP" in stdout


def test_train_same_seed_same_bytes(toy_tsv, tmp_path):
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(train_args(toy_tsv, out_a, seed=5)) == 0
    assert main(train_args(toy_tsv, out_b, seed=5)) == 0
    assert main(train_args(toy_tsv, out_c, seed=6)) == 0
    bytes_a = (out_a / CHECKPOINT_NAME).read_bytes()
    assert bytes_a == (out_b / CHECKPOINT_NAME).read_bytes()
    assert bytes_a != (out_c / CHECKPOINT_NAME).read_bytes()


def test_train_accepts_config_json_with_flag_overrides(toy_tsv, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "embedding_dim": 5,
                "num_measurements": 3,
                "window_sizes": [1],
                "epochs": 1,
                "dropout_rate": 0.0,
                "seed": 2,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "run"
    rc = main(
        [
            "train",
            "--dataset", str(toy_tsv),
            "--config", str(config_path),
            "--epochs", "2",  # flag beats the file
            "--out", str(out),
        ]
    )
    assert rc == 0
    epochs = [
        json.loads(line)["epoch"]
        for line in (out / TRAIN_LOG_NAME).read_text().splitlines()
        if json.loads(line)["kind"] == "epoch"
    ]
    assert epochs == [1, 2]


def write_vectors(tmp_path):
    """A 6-wide vectors file: two toy-corpus tokens and one it lacks."""
    path = tmp_path / "vectors.txt"
    path.write_text("echo 0.5 -0.25 0.125 1 0 -1\nask 1 2 3 4 5 6\n"
                    "absent 0 0 0 0 0 1\n", encoding="utf-8")
    return path


# The checkpoint of test_train_with_glove_keeps_its_checkpoint_bits as
# train() wrote it when it read the vectors file itself.  With no epoch
# the parameters are the initial draws and the file's rows, which no
# BLAS routine touches.
GLOVE_CHECKPOINT_SHA256 = (
    "768c8c4c7d0a22bc6c6bea4f44b21da444fbdef0212087a6134d50f0f31832da"
)


def test_train_with_glove_keeps_its_checkpoint_bits(toy_tsv, tmp_path):
    out = tmp_path / "run"
    args = [*train_args(toy_tsv, out, epochs="0"), "--glove",
            str(write_vectors(tmp_path))]
    assert main(args) == 0
    written = (out / CHECKPOINT_NAME).read_bytes()
    assert hashlib.sha256(written).hexdigest() == GLOVE_CHECKPOINT_SHA256
    params, _, vocab = load_checkpoint(out / CHECKPOINT_NAME)
    assert params.amplitude[vocab.encode(["ask"])[0]].tolist() == [1, 2, 3, 4, 5, 6]


# ---------------------------------------------------------------------------
# evaluation


def test_eval_reports_metrics(trained, toy_tsv, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--checkpoint", str(trained),
            "--dataset", str(toy_tsv),
            "--split", "toytest",
            "--out", str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "MAP:" in stdout and "MRR:" in stdout
    records = [
        json.loads(line)
        for line in (out / EVAL_REPORT_NAME).read_text().splitlines()
    ]
    summary = records[0]
    assert summary["kind"] == "summary"
    assert summary["split"] == "toytest"
    assert 0.0 <= summary["map"] <= 1.0
    assert len([r for r in records if r["kind"] == "question"]) == 3


@pytest.mark.parametrize("epochs", ["2", "0"])
def test_eval_of_the_dev_split_repeats_the_dev_report(epochs, toy_tsv, tmp_path):
    # train scores the parameters it keeps; eval of the same split must
    # write the same bytes
    run, out = tmp_path / "run", tmp_path / "eval"
    assert main(train_args(toy_tsv, run, epochs=epochs)) == 0
    rc = main(
        [
            "eval",
            "--checkpoint", str(run / CHECKPOINT_NAME),
            "--dataset", str(toy_tsv),
            "--split", "dev",
            "--out", str(out),
        ]
    )
    assert rc == 0
    dev_report = (run / DEV_REPORT_NAME).read_bytes()
    assert (out / EVAL_REPORT_NAME).read_bytes() == dev_report


def test_eval_non_finite_checkpoint_exits_4(trained, toy_tsv, tmp_path, capsys):
    data = bytearray(trained.read_bytes())
    # the last 8 bytes are the final measurement imaginary part
    data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    trained.write_bytes(bytes(data))
    rc = main(
        [
            "eval",
            "--checkpoint", str(trained),
            "--dataset", str(toy_tsv),
            "--out", str(tmp_path / "eval"),
        ]
    )
    assert rc == 4
    assert "'measurements'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_eval_non_finite_checkpoint_names_the_file(value, trained, toy_tsv, tmp_path,
                                                   capsys):
    data = bytearray(trained.read_bytes())
    data[-8:] = np.array([value], dtype="<f8").tobytes()   # last imaginary entry
    trained.write_bytes(bytes(data))
    rc = main(["eval", "--checkpoint", str(trained), "--dataset", str(toy_tsv),
               "--out", str(tmp_path / "eval")])
    assert rc == 4
    assert capsys.readouterr().err == (
        f"error: {trained}: non-finite values in parameter block 'measurements'\n"
    )


CHECKPOINT_COMMANDS = {
    "eval": ["--dataset", "toy.tsv"],
    "inspect-words": [],
    "inspect-match": ["--question", "ask", "--answer", "echo"],
    "inspect-measurements": [],
}


@pytest.mark.parametrize("flag", [["--config", "c.json"], ["--seed", "7"],
                                  ["--embedding-dim", "12"]],
                         ids=["config", "seed", "embedding-dim"])
@pytest.mark.parametrize("command", sorted(CHECKPOINT_COMMANDS))
def test_checkpoint_commands_take_no_config_flags(command, flag, capsys):
    # these commands run with the config stored in the checkpoint
    with pytest.raises(SystemExit) as exc:
        main([command, "--checkpoint", "c.qmatch", *CHECKPOINT_COMMANDS[command], *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def taken_file(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep me", encoding="utf-8")
    return taken


def must_not_run(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before --out was checked")
    return fail


def test_eval_checks_out_before_evaluating(trained, toy_tsv, tmp_path, monkeypatch,
                                           capsys):
    monkeypatch.setattr(evaluation, "evaluate", must_not_run("evaluate"))
    taken = taken_file(tmp_path)
    rc = main(["eval", "--checkpoint", str(trained), "--dataset", str(toy_tsv),
               "--out", str(taken)])
    assert rc == 2
    assert f"error: bad path: [Errno 17] File exists: '{taken}'" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "keep me"


def test_eval_out_of_range_stored_config_exits_2(trained, toy_tsv, tmp_path, capsys):
    head, rest = trained.read_bytes().split(b"\n\n", 1)
    bad = tmp_path / "margin.qmatch"
    bad.write_bytes(re.sub(rb'"margin": [^,}]+', b'"margin": -1.0', head)
                    + b"\n\n" + rest)
    rc = main(["eval", "--checkpoint", str(bad), "--dataset", str(toy_tsv)])
    assert rc == 2
    assert f"{bad}: bad stored config" in capsys.readouterr().err


def test_config_flags_name_every_trainer_config_field():
    # a setting half removed from TrainerConfig or from the flags fails here
    names = sorted(f.name for f in dataclasses.fields(TrainerConfig))
    assert sorted(_CONFIG_FLAGS) == names


# ---------------------------------------------------------------------------
# grid search


def grid_args(toy_tsv, tmp_path, pools, out_dir, epochs="1"):
    """``grid-search`` over ``pools`` with ``train_args``' settings."""
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(pools))
    train = train_args(toy_tsv, out_dir, epochs=epochs)
    return ["grid-search", *train[1:], "--grid", str(grid_path)]


def read_rows(out):
    return [json.loads(line)
            for line in (out / GRID_RESULTS_NAME).read_text().splitlines()]


def test_grid_search_writes_rows_and_best(toy_tsv, tmp_path, capsys):
    out = tmp_path / "grid"
    pools = {"learning_rate": [0.05, 0.1], "batch_size": [2, 4]}
    assert main(grid_args(toy_tsv, tmp_path, pools, out)) == 0
    rows = read_rows(out)
    # one row per run, in run order, each naming its whole config
    assert [r["run"] for r in rows] == [0, 1, 2, 3]
    assert [list(r) for r in rows] == [["kind", "run", "dev_map", "dev_mrr",
                                        "config"]] * 4
    assert [(r["config"]["learning_rate"], r["config"]["batch_size"])
            for r in rows] == [(0.05, 2), (0.05, 4), (0.1, 2), (0.1, 4)]
    best = max(r["dev_map"] for r in rows)
    first_best = next(r for r in rows if r["dev_map"] == best)
    _, config, _ = load_checkpoint(out / BEST_CHECKPOINT_NAME)
    assert config.to_dict() == first_best["config"]
    assert f"best dev MAP {best:.4f}" in capsys.readouterr().out


def test_grid_search_reports_every_run(toy_tsv, tmp_path, capsys):
    out = tmp_path / "grid"
    pools = {"learning_rate": [0.05, 0.1], "batch_size": [4]}
    assert main(grid_args(toy_tsv, tmp_path, pools, out, epochs="2")) == 0
    rows = read_rows(out)
    assert [(r["kind"], r["run"]) for r in rows] == [("grid", 0), ("grid", 1)]
    best = max(r["dev_map"] for r in rows)
    assert f"best dev MAP {best:.4f}" in capsys.readouterr().out
    assert (out / BEST_CHECKPOINT_NAME).exists()


def test_grid_search_first_of_tied_runs_wins(toy_tsv, tmp_path, capsys):
    # with no epoch both runs score the same initial parameters
    out = tmp_path / "grid"
    pools = {"margin": [0.1, 0.2]}
    assert main(grid_args(toy_tsv, tmp_path, pools, out, epochs="0")) == 0
    rows = read_rows(out)
    assert [r["config"]["margin"] for r in rows] == [0.1, 0.2]
    assert rows[0]["dev_map"] == rows[1]["dev_map"]
    assert '"margin": 0.1,' in capsys.readouterr().out
    _, config, _ = load_checkpoint(out / BEST_CHECKPOINT_NAME)
    assert config.margin == 0.1


def test_grid_search_row_without_epochs_equals_the_train_dev_summary(
    toy_tsv, tmp_path
):
    grid_out, train_out = tmp_path / "grid", tmp_path / "run"
    assert main(grid_args(toy_tsv, tmp_path, {"seed": [3]}, grid_out,
                          epochs="0")) == 0
    assert main(train_args(toy_tsv, train_out, seed=3, epochs="0")) == 0
    (row,) = read_rows(grid_out)
    summary = json.loads((train_out / DEV_REPORT_NAME).read_text().splitlines()[0])
    assert (row["dev_map"], row["dev_mrr"]) == (summary["map"], summary["mrr"])


def test_grid_file_that_is_not_an_object_exits_2(toy_tsv, tmp_path, capsys):
    out = tmp_path / "grid"
    assert main(grid_args(toy_tsv, tmp_path, [{"seed": [1]}], out)) == 2
    assert "grid.json: expected an object of pools" in capsys.readouterr().err
    assert not out.exists()


def test_grid_search_without_a_grid_sweeps_the_default_pools(
    toy_tsv, tmp_path, monkeypatch
):
    monkeypatch.setattr(training, "DEFAULT_GRID_POOLS", {"margin": [0.3, 0.4]})
    out = tmp_path / "grid"
    args = grid_args(toy_tsv, tmp_path, {}, out, epochs="0")
    assert args[-2] == "--grid"
    assert main(args[:-2]) == 0
    assert [row["config"]["margin"] for row in read_rows(out)] == [0.3, 0.4]


def test_grid_search_pool_that_is_not_a_list_exits_2(toy_tsv, tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"learning_rate": 0.1}))
    rc = main(
        [
            "grid-search",
            "--dataset", str(toy_tsv),
            "--dev", str(toy_tsv),
            "--grid", str(grid_path),
            "--out", str(tmp_path / "grid"),
        ]
    )
    assert rc == 2
    assert "'learning_rate' is not a list" in capsys.readouterr().err


def test_grid_search_out_of_range_combination_exits_2_before_training(
    toy_tsv, tmp_path, capsys
):
    out = tmp_path / "grid"
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"learning_rate": [0.1, -1.0]}))
    rc = main(
        [
            "grid-search",
            "--dataset", str(toy_tsv),
            "--dev", str(toy_tsv),
            "--grid", str(grid_path),
            "--out", str(out),
            "--embedding-dim", "5",
            "--num-measurements", "3",
            "--window-sizes", "1",
            "--epochs", "1",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "learning_rate must be positive and finite, got -1.0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "pools, message",
    [({"learning_rate": [0.1, -1.0]}, "learning_rate must be positive"),
     ({"learning_rate": 0.1}, "'learning_rate' is not a list")],
    ids=["out-of-range", "not-a-list"],
)
def test_bad_grid_keeps_an_earlier_search(pools, message, toy_tsv, tmp_path,
                                          capsys):
    # the grid is checked before any dataset is read or output opened
    out = tmp_path / "grid"
    assert main(grid_args(toy_tsv, tmp_path, {"seed": [1, 2]}, out)) == 0
    before = {name: (out / name).read_bytes()
              for name in (GRID_RESULTS_NAME, BEST_CHECKPOINT_NAME)}
    capsys.readouterr()
    assert main(grid_args(toy_tsv, tmp_path, pools, out)) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "kept" not in err   # no dataset summary
    assert {name: (out / name).read_bytes() for name in before} == before


def test_grid_search_reads_the_vectors_file_once(toy_tsv, tmp_path, monkeypatch):
    vectors = write_vectors(tmp_path)
    opened = []
    real_open = open

    def counting(file, *args, **kwargs):
        if str(file) == str(vectors):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    out = tmp_path / "grid"
    args = [*grid_args(toy_tsv, tmp_path, {"seed": [1, 2]}, out, epochs="0"),
            "--glove", str(vectors)]
    assert main(args) == 0
    assert len(opened) == 1
    assert [r["run"] for r in read_rows(out)] == [0, 1]
    params, _, vocab = load_checkpoint(out / BEST_CHECKPOINT_NAME)
    assert params.amplitude[vocab.encode(["ask"])[0]].tolist() == [1, 2, 3, 4, 5, 6]


def test_glove_grid_over_two_widths_exits_2_before_reading_data(
    toy_tsv, tmp_path, capsys
):
    # one vectors file holds one width, so a grid cannot sweep embedding_dim
    out = tmp_path / "grid"
    args = [*grid_args(toy_tsv, tmp_path, {"embedding_dim": [6, 7]}, out),
            "--glove", str(write_vectors(tmp_path))]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "--glove has one width; grid sweeps embedding_dim [6, 7]" in err
    assert "kept" not in err   # no dataset summary
    assert not out.exists()


@pytest.fixture()
def empty_tsv(tmp_path):
    """A split whose one question has no positive, so loading keeps none."""
    path = tmp_path / "empty.tsv"
    path.write_text("q1\task key0\techo key1 reply\t0\n", encoding="utf-8")
    return path


def with_dev(args, dev_path):
    args[args.index("--dev") + 1] = str(dev_path)
    return args


def test_train_with_an_empty_dev_split_exits_3_before_writing(
    toy_tsv, empty_tsv, tmp_path, capsys
):
    out = tmp_path / "run"
    assert main(with_dev(train_args(toy_tsv, out), empty_tsv)) == 3
    assert "split 'dev' has no questions to evaluate" in capsys.readouterr().err
    assert not out.exists()


def test_grid_search_with_an_empty_dev_split_keeps_an_earlier_search(
    toy_tsv, empty_tsv, tmp_path, capsys
):
    out = tmp_path / "grid"
    assert main(grid_args(toy_tsv, tmp_path, {"seed": [1, 2]}, out)) == 0
    before = {name: (out / name).read_bytes()
              for name in (GRID_RESULTS_NAME, BEST_CHECKPOINT_NAME)}
    capsys.readouterr()
    args = with_dev(grid_args(toy_tsv, tmp_path, {"seed": [1, 2]}, out),
                    empty_tsv)
    assert main(args) == 3
    assert "split 'dev' has no questions to evaluate" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in before} == before


def test_train_with_an_empty_training_split_exits_3_before_writing(
    toy_tsv, empty_tsv, tmp_path, capsys
):
    # the training split keeps no question, so no checkpoint can learn
    out = tmp_path / "run"
    args = train_args(toy_tsv, out)
    args[args.index("--dataset") + 1] = str(empty_tsv)
    assert main(args) == 3
    assert "split 'train' has no questions to train on" in capsys.readouterr().err
    assert not out.exists()


def test_grid_search_with_an_empty_training_split_keeps_an_earlier_search(
    toy_tsv, empty_tsv, tmp_path, capsys
):
    out = tmp_path / "grid"
    assert main(grid_args(toy_tsv, tmp_path, {"seed": [1, 2]}, out)) == 0
    before = {name: (out / name).read_bytes()
              for name in (GRID_RESULTS_NAME, BEST_CHECKPOINT_NAME)}
    capsys.readouterr()
    args = grid_args(toy_tsv, tmp_path, {"seed": [1, 2]}, out)
    args[args.index("--dataset") + 1] = str(empty_tsv)
    assert main(args) == 3
    assert "split 'train' has no questions to train on" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("flag", ["--config", "--grid"])
def test_non_utf8_config_or_grid_exits_2_and_keeps_an_earlier_search(
    flag, toy_tsv, tmp_path, capsys
):
    out = tmp_path / "grid"
    assert main(grid_args(toy_tsv, tmp_path, {"seed": [1]}, out)) == 0
    before = {name: (out / name).read_bytes()
              for name in (GRID_RESULTS_NAME, BEST_CHECKPOINT_NAME)}
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"epochs": \xff}')
    capsys.readouterr()
    args = [*grid_args(toy_tsv, tmp_path, {"seed": [1]}, out), flag, str(bad)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}:1: not valid UTF-8" in err
    assert "kept" not in err   # no dataset summary
    assert {name: (out / name).read_bytes() for name in before} == before


# ---------------------------------------------------------------------------
# inspection


def test_inspect_words_prints_ranked_norms(trained, capsys):
    rc = main(["inspect-words", "--checkpoint", str(trained), "--top-n", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rank\ttoken\tnorm"
    body = [line.split("\t") for line in lines[1:]]
    assert len(body) == 5
    norms = [float(cols[2]) for cols in body]
    assert norms == sorted(norms, reverse=True)


def test_inspect_match_prints_window_pair(trained, capsys):
    rc = main(
        [
            "inspect-match",
            "--checkpoint", str(trained),
            "--question", "ask key0",
            "--answer", "echo key0 reply",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "window_size\t" in out
    assert "similarity\t" in out
    rows = [l.split("\t") for l in out.strip().splitlines() if l.startswith(("question", "answer"))]
    assert rows, "expected per-token weight rows"
    for side, _, token, weight in rows:
        assert side in ("question", "answer")
        assert 0.0 <= float(weight) <= 1.0


def test_inspect_match_empty_question_is_domain_error(trained, capsys):
    rc = main(
        [
            "inspect-match",
            "--checkpoint", str(trained),
            "--question", "...",
            "--answer", "echo key0 reply",
        ]
    )
    assert rc == 4
    assert "tokens" in capsys.readouterr().err


def test_inspect_measurements_lists_neighbors(trained, capsys):
    rc = main(
        ["inspect-measurements", "--checkpoint", str(trained), "--top-n", "3"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "measurement\trank\ttoken\tsimilarity"
    assert len(lines) - 1 == 4 * 3  # k measurements x top_n


@pytest.mark.parametrize("top_n", ["0", "-2"])
@pytest.mark.parametrize("command", ["inspect-words", "inspect-measurements"])
def test_inspect_top_n_below_one_exits_2(trained, command, top_n, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--checkpoint", str(trained), "--top-n", top_n])
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_inspect_output_file(trained, tmp_path):
    out_file = tmp_path / "words.tsv"
    rc = main(
        [
            "inspect-words",
            "--checkpoint", str(trained),
            "--top-n", "3",
            "--out", str(out_file),
        ]
    )
    assert rc == 0
    assert out_file.read_text().startswith("rank\ttoken\tnorm")


# ---------------------------------------------------------------------------
# metric audit


def test_metric_audit_writes_table_and_details(tmp_path, capsys):
    out = tmp_path / "audit"
    rc = main(
        [
            "metric-audit",
            "--trials", "10",
            "--metrics", "trace_inner_product,sym_vn",
            "--dims", "2,3",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    table = (out / AUDIT_TABLE_NAME).read_text()
    assert "trace_inner_product" in table and "sym_vn" in table
    details = json.loads((out / AUDIT_DETAILS_NAME).read_text())
    assert [d["metric"] for d in details] == ["trace_inner_product", "sym_vn"]
    assert details[0]["axioms"]["identity"]["status"] == "violated"
    assert "triangle" in capsys.readouterr().out


def test_metric_audit_unknown_metric_exits_2(tmp_path, capsys):
    out = tmp_path / "audit"
    rc = main(
        ["metric-audit", "--trials", "5", "--metrics", "fidelity,hamming",
         "--out", str(out)]
    )
    assert rc == 2
    assert "unknown metric hamming; choose from fidelity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--metrics", ","], ["--dims", ""]],
                         ids=["metrics", "dims"])
def test_metric_audit_empty_list_exits_2(flag, tmp_path, capsys):
    rc = main(["metric-audit", "--trials", "5", *flag, "--out", str(tmp_path)])
    assert rc == 2
    assert "must each name at least one entry" in capsys.readouterr().err
    assert not (tmp_path / AUDIT_TABLE_NAME).exists()


def test_metric_audit_repeated_metric_exits_2(tmp_path, capsys):
    out = tmp_path / "audit"
    rc = main(["metric-audit", "--trials", "5", "--metrics", "fidelity, sym_vn,fidelity",
               "--out", str(out)])
    assert rc == 2
    assert "--metrics names fidelity more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--trials", "0"], "expected an integer >= 1, got '0'"),
        (["--trials", "-3"], "expected an integer >= 1, got '-3'"),
        (["--trials", "²"], "expected an integer >= 1, got '²'"),
        (["--dims", "1"], "expected dimensions >= 2, got '1'"),
        (["--dims", "2,0,3"], "expected dimensions >= 2, got '2,0,3'"),
        (["--seed", "-1"], "expected an integer >= 0, got '-1'"),
    ],
    ids=["trials-0", "trials-negative", "trials-superscript", "dims-1", "dims-0", "seed-negative"],
)
def test_metric_audit_bad_trials_or_dims_exit_2(flag, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["metric-audit", *flag, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / AUDIT_TABLE_NAME).exists()


def test_metric_audit_checks_out_before_auditing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(density_metrics, "audit_metrics", must_not_run("audit_metrics"))
    taken = taken_file(tmp_path)
    rc = main(["metric-audit", "--trials", "5", "--out", str(taken)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad path: [Errno")
    assert taken.read_text(encoding="utf-8") == "keep me"


# ---------------------------------------------------------------------------
# exit codes and wiring


def test_no_subcommand_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_missing_dataset_exits_2(tmp_path, capsys):
    rc = main(
        ["train", "--dataset", str(tmp_path / "absent.tsv"), "--epochs", "1"]
    )
    assert rc == 2
    assert "no such dataset" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--dataset", "--format", "--glove", "--config", "--grid"])
def test_a_directory_given_as_a_file_exits_2(flag, toy_tsv, tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "run"
    args = (grid_args(toy_tsv, tmp_path, {"seed": [1]}, out) if flag == "--grid"
            else train_args(toy_tsv, out))
    if flag in args:
        args[args.index(flag) + 1] = str(folder)
    else:
        args += [flag, str(folder)]
    assert main(args) == 2
    assert f"error: bad path: [Errno 21] Is a directory: '{folder}'" in capsys.readouterr().err
    assert not out.exists()


def test_a_directory_given_as_a_checkpoint_exits_2(toy_tsv, tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(tmp_path), "--dataset", str(toy_tsv)])
    assert rc == 2
    assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_an_out_that_is_a_file_exits_2(below, tmp_path, capsys):
    taken = taken_file(tmp_path)
    out = taken / "sub" if below else taken
    assert main(["metric-audit", "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad path: [Errno")
    assert f"'{out if below else taken}'" in err
    assert taken.read_text(encoding="utf-8") == "keep me"


def test_bad_config_json_exits_2(toy_tsv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = main(
        ["train", "--dataset", str(toy_tsv), "--config", str(bad)]
    )
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [{"window_sizes": 3}, {"epochs": "ten"}, {"embedding_dim": 2.5},
     {"learning_rate": None}, {"complex_valued": "false"}, [1, 2]],
    ids=["window_sizes", "epochs", "embedding_dim", "learning_rate",
         "complex_valued", "list"],
)
def test_mistyped_config_exits_2(data, toy_tsv, tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["train", "--dataset", str(toy_tsv), "--config", str(path),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert " must be " in err
    assert not out.exists()


@pytest.mark.parametrize("text, stored", [("yes", True), ("0", False)])
def test_complex_valued_flag_reads_a_boolean(text, stored, toy_tsv, tmp_path):
    out = tmp_path / "run"
    args = [*train_args(toy_tsv, out, epochs="0"), "--complex-valued", text]
    assert main(args) == 0
    _, config, _ = load_checkpoint(out / CHECKPOINT_NAME)
    assert config.complex_valued is stored


@pytest.mark.parametrize(
    "flag, value, message",
    [("--complex-valued", "maybe", "expected a boolean, got 'maybe'"),
     ("--window-sizes", "1,x", "expected comma-separated ints")],
    ids=["complex-valued", "window-sizes"],
)
def test_a_malformed_flag_exits_2(flag, value, message, toy_tsv, tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--dataset", str(toy_tsv), flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, message",
    [(["--seed", "-1"], "seed must be >= 0"),
     (["--margin", "nan"], "margin must be positive and finite"),
     (["--learning-rate", "inf"], "learning_rate must be positive and finite")],
    ids=["seed-negative", "margin-nan", "learning-rate-inf"],
)
def test_train_out_of_range_flag_exits_2(flag, message, toy_tsv, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--dataset", str(toy_tsv), *flag, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bad_label_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("q1\tquestion words\tanswer words\t7\n", encoding="utf-8")
    rc = main(["train", "--dataset", str(path), "--epochs", "1"])
    assert rc == 3
    assert "unknown label" in capsys.readouterr().err


def test_invalid_thread_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("QMATCH_THREADS", "many")
    rc = main(["metric-audit", "--trials", "1"])
    assert rc == 2
    assert "QMATCH_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["²", "1" * 5000], ids=["superscript", "5000-digits"])
def test_a_thread_count_int_cannot_read_exits_2(monkeypatch, capsys, value):
    # str.isdigit accepts "²", which int() rejects; int() also rejects a
    # decimal string past its digit limit
    monkeypatch.setenv("QMATCH_THREADS", value)
    assert main(["metric-audit", "--trials", "1"]) == 2
    assert "QMATCH_THREADS must be a positive integer" in capsys.readouterr().err


def test_a_thread_count_reaches_the_thread_variables_as_ascii(monkeypatch):
    # "١" (Arabic-Indic one) is a decimal int() reads as 1; C libraries
    # read the variables with atoi, which would see no digit at all
    environ = {"QMATCH_THREADS": "١"}
    monkeypatch.setattr(os, "environ", environ)
    _configure_threads()
    assert environ == {"QMATCH_THREADS": "١", **dict.fromkeys(_THREAD_VARS, "1")}


def test_invalid_thread_env_exits_2_from_subprocess():
    # main() applies the thread cap before any command imports numpy; a
    # bad value is a clean exit-2 error, not a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "qmatch.cli", "metric-audit", "--trials", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "QMATCH_THREADS": "many"},
    )
    assert proc.returncode == 2
    assert "QMATCH_THREADS" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_importing_the_cli_does_not_import_numpy():
    # the thread cap only takes effect if numpy loads after main() sets it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qmatch.cli; assert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_console_script_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qmatch.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("train", "eval", "grid-search", "metric-audit"):
        assert name in proc.stdout
