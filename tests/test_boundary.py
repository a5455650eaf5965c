"""The installed package holds only what its commands run: every module of
``qmatch`` is reached from ``qmatch/cli.py`` through its imports, at any
depth, the lazy imports inside the command handlers included.  Code that
only the scripts or the tests use lives beside them, not in the package."""

import ast
from pathlib import Path

import qmatch

PACKAGE = Path(qmatch.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def imported_modules(name: str) -> set[str]:
    """The package modules that module ``name`` imports, anywhere in it."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            # from .x import y reads qmatch.x, and so does from . import x
            module = ("qmatch." if node.level else "") + (node.module or "")
            if module.rstrip(".") == "qmatch":
                names = [f"qmatch.{alias.name}" for alias in node.names]
            else:
                names = [module]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("qmatch."))
    return found & MODULES


def test_lazy_imports_inside_functions_count():
    # cli imports the checkpoint and training modules only in its handlers
    assert {"checkpoint", "training"} <= imported_modules("cli")


def test_every_package_module_is_reached_from_the_command_line():
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(imported_modules(name))
    assert sorted(MODULES - reached) == []
