"""Every script's ``main`` starts.  The acceptance checks load the scripts'
experiment functions with ``runpy.run_path``, which never runs ``main``."""

import pathlib
import runpy
import sys

import pytest

from synthetic import order_corpus, write_canonical_tsv

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def script(name: str, function: str):
    # run_path compiles the file without writing bytecode and skips main()
    return runpy.run_path(str(SCRIPTS / f"{name}.py"))[function]


def run_main(monkeypatch, name, *args):
    """Run ``scripts/<name>`` as ``python <name> args...`` would."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


# the files that run as scripts, not the modules they import
@pytest.mark.parametrize("name", sorted(
    path.name for path in SCRIPTS.glob("*.py")
    if 'if __name__ == "__main__":' in path.read_text(encoding="utf-8")))
def test_script_help_exits_0(monkeypatch, capsys, name):
    with pytest.raises(SystemExit) as info:
        run_main(monkeypatch, name, "--help")
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_make_toy_data_keeps_the_corpus_own_seed(monkeypatch, tmp_path):
    run_main(monkeypatch, "make_toy_data.py", "--corpus", "order", "--out", str(tmp_path))
    want = tmp_path / "want.tsv"
    for split, dataset in zip(("train", "dev"), order_corpus()):
        write_canonical_tsv(dataset, str(want))
        assert (tmp_path / f"order_{split}.tsv").read_bytes() == want.read_bytes()
