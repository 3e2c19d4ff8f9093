"""The program's entry, ahgeom.__main__.main: `python -m ahgeom` and the
console script both run it, it ends a run with the collector frozen, and it
is the only code in the package that touches the collector."""
import ast
import gc
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ahgeom import cli

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "ahgeom"
ENTRY = "ahgeom.__main__:main"

# one command per exit code: 1 fails second_derivative_signs (c'' changes
# sign at 1.7176 m, past this horizon), 2 is argparse refusing the grid, and
# 3 is the stored-node budget, refused before the first step
EXITS = {
    "ok": (["solve", "--grid", "2"], 0),
    "verify-fail": (["verify", "--r-max", "1.5", "--grid", "50"], 1),
    "usage": (["solve", "--grid", "1"], 2),
    "numerical": (["solve", "--r-max", "1e7"], 3),
}

# Runs every command through both launchers in one interpreter, thawing the
# collector between runs.  runpy goes first: it warns when ahgeom.__main__
# was imported before it runs the package.
LAUNCH = """
import gc, importlib, json, os, runpy, sys
entry, commands = sys.argv[1], json.loads(sys.argv[2])
results = {}
for launcher in ("runpy", "script"):
    for name, argv in commands.items():
        before = [gc.get_freeze_count(), gc.isenabled()]
        sys.argv = ["ahgeom", *argv, "--output", os.devnull]
        try:
            if launcher == "runpy":
                runpy.run_module("ahgeom", run_name="__main__")
            else:
                module, _, attr = entry.partition(":")
                sys.exit(getattr(importlib.import_module(module), attr)())
            code = None
        except SystemExit as exc:
            code = exc.code
        results[f"{launcher}-{name}"] = [before, code,
                                         gc.get_freeze_count() > 0]
        gc.unfreeze()
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def launched():
    commands = {name: argv for name, (argv, _) in EXITS.items()}
    done = subprocess.run(
        [sys.executable, "-c", LAUNCH, ENTRY, json.dumps(commands)],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    return json.loads(done.stdout)


@pytest.mark.parametrize("launcher", ["runpy", "script"])
@pytest.mark.parametrize("name", list(EXITS))
def test_entry_exits_with_the_collector_frozen(launched, launcher, name):
    before, code, frozen = launched[f"{launcher}-{name}"]
    assert before == [0, True]
    assert code == EXITS[name][1]
    assert frozen


def test_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"ahgeom": ENTRY}
    # `python -m ahgeom` runs the same function: the launcher of
    # __main__.py is sys.exit(main()), and cli.py has none of its own
    tree = ast.parse((PACKAGE / "__main__.py").read_text())
    guards = [node for node in tree.body if isinstance(node, ast.If)]
    assert [ast.unparse(g.test) for g in guards] == ["__name__ == '__main__'"]
    assert [ast.unparse(s) for s in guards[0].body] == ["sys.exit(main())"]
    assert "__main__" not in (PACKAGE / "cli.py").read_text()


@pytest.mark.parametrize("argv", [
    ["solve", "--grid", "2"], ["curvature", "--grid", "2"],
    ["verify", "--r-max", "6", "--grid", "60"]],
    ids=["solve", "curvature", "verify"])
def test_cli_main_leaves_the_collector_alone(tmp_path, argv):
    importlib.import_module("ahgeom.__main__")  # the import runs nothing
    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(argv + ["--output", str(tmp_path / "out")]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_only_the_entry_touches_the_collector():
    # importing any module of the package must leave a caller's collector
    # as it was, so gc appears in the entry module alone
    users = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import)
                    and any(a.name == "gc" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "gc"
                    or isinstance(node, ast.Name) and node.id == "gc"):
                users.add(path.name)
    assert users == {"__main__.py"}
