"""Command-line interface: artifacts, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qmatch.cli import (
    AUDIT_DETAILS_NAME,
    AUDIT_TABLE_NAME,
    CHECKPOINT_NAME,
    DEV_REPORT_NAME,
    EVAL_REPORT_NAME,
    GRID_RESULTS_NAME,
    TRAIN_LOG_NAME,
    main,
)
from qmatch.data import write_canonical_tsv
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


def test_eval_rejects_structural_flag_conflicts(trained, toy_tsv, capsys):
    rc = main(
        [
            "eval",
            "--checkpoint", str(trained),
            "--dataset", str(toy_tsv),
            "--embedding-dim", "12",
        ]
    )
    assert rc == 2
    assert "conflicts" in capsys.readouterr().err


def test_eval_allows_nonstructural_overrides(trained, toy_tsv, tmp_path):
    rc = main(
        [
            "eval",
            "--checkpoint", str(trained),
            "--dataset", str(toy_tsv),
            "--batch-size", "2",
            "--out", str(tmp_path / "eval2"),
        ]
    )
    assert rc == 0


# ---------------------------------------------------------------------------
# grid search


def test_grid_search_writes_rows_and_best(toy_tsv, tmp_path, capsys):
    out = tmp_path / "grid"
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"learning_rate": [0.05, 0.1]}))
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
            "--dropout-rate", "0.0",
            "--seed", "1",
        ]
    )
    assert rc == 0
    rows = [
        json.loads(line)
        for line in (out / GRID_RESULTS_NAME).read_text().splitlines()
    ]
    assert [r["run"] for r in rows] == [0, 1]
    assert {r["config"]["learning_rate"] for r in rows} == {0.05, 0.1}
    assert (out / "best_checkpoint.qmatch").exists()
    assert "best dev MAP" in capsys.readouterr().out


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


def test_metric_audit_unknown_metric_exits_4(tmp_path, capsys):
    rc = main(
        ["metric-audit", "--trials", "5", "--metrics", "hamming",
         "--out", str(tmp_path)]
    )
    assert rc == 4
    assert "unknown metric" in capsys.readouterr().err


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


def test_bad_config_json_exits_2(toy_tsv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = main(
        ["train", "--dataset", str(toy_tsv), "--config", str(bad)]
    )
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


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


def test_invalid_thread_env_exits_2_from_subprocess():
    # the thread cap is also applied at module import; a bad value must
    # still surface as a clean exit-2 error, not an import-time traceback
    proc = subprocess.run(
        [sys.executable, "-m", "qmatch.cli", "metric-audit", "--trials", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "QMATCH_THREADS": "many"},
    )
    assert proc.returncode == 2
    assert "QMATCH_THREADS" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_console_script_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qmatch.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("train", "eval", "grid-search", "metric-audit"):
        assert name in proc.stdout
