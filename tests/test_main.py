"""The program's entry, ahgeom.__main__.main: `python -m ahgeom` and the
console script both run it, it runs a command on one thread and ends it with
the collector frozen, and it is the only code in the package that touches
the collector or the environment."""
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

# the variables OpenBLAS reads for its thread count, in its order of
# precedence; the harness's child starts with none of them
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs every command through both launchers in one interpreter, thawing the
# collector and dropping OPENBLAS_NUM_THREADS between runs, and records the
# process's threads after each (None without /proc/self/task).  runpy goes
# first: it warns when ahgeom.__main__ was imported before it runs the
# package.  Last, one more command runs with OPENBLAS_NUM_THREADS=3 set.
LAUNCH = """
import gc, importlib, json, os, runpy, sys
entry, commands = sys.argv[1], json.loads(sys.argv[2])

def run(launcher, argv):
    sys.argv = ["ahgeom", *argv, "--output", os.devnull]
    try:
        if launcher == "runpy":
            runpy.run_module("ahgeom", run_name="__main__")
        else:
            module, _, attr = entry.partition(":")
            sys.exit(getattr(importlib.import_module(module), attr)())
    except SystemExit as exc:
        return exc.code

def threads():
    task = "/proc/self/task"
    return len(os.listdir(task)) if os.path.isdir(task) else None

results = {}
for launcher in ("runpy", "script"):
    for name, argv in commands.items():
        before = [gc.get_freeze_count(), gc.isenabled(),
                  os.environ.get("OPENBLAS_NUM_THREADS")]
        code = run(launcher, argv)
        results[f"{launcher}-{name}"] = [
            before, code, gc.get_freeze_count() > 0, threads(),
            os.environ.pop("OPENBLAS_NUM_THREADS", None)]
        gc.unfreeze()
os.environ["OPENBLAS_NUM_THREADS"] = "3"
results["preset"] = [run("script", commands["ok"]),
                     os.environ["OPENBLAS_NUM_THREADS"]]
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def launched():
    commands = {name: argv for name, (argv, _) in EXITS.items()}
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    done = subprocess.run(
        [sys.executable, "-c", LAUNCH, ENTRY, json.dumps(commands)],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(env, PYTHONPATH=str(REPO / "src")))
    return json.loads(done.stdout)


@pytest.mark.parametrize("launcher", ["runpy", "script"])
@pytest.mark.parametrize("name", list(EXITS))
def test_entry_exits_with_the_collector_frozen(launched, launcher, name):
    before, code, frozen, _, _ = launched[f"{launcher}-{name}"]
    assert before == [0, True, None]
    assert code == EXITS[name][1]
    assert frozen


@pytest.mark.parametrize("launcher", ["runpy", "script"])
@pytest.mark.parametrize("name", list(EXITS))
def test_entry_runs_on_one_thread(launched, launcher, name):
    # numpy loads in the first run; unless told otherwise, OpenBLAS then
    # starts a worker per further CPU, which polls beside the command
    _, code, _, threads, blas_threads = launched[f"{launcher}-{name}"]
    if threads is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert code == EXITS[name][1]
    assert (threads, blas_threads) == (1, "1")


def test_entry_keeps_the_callers_blas_threads(launched):
    assert launched["preset"] == [0, "3"]


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
    before = gc.get_freeze_count(), gc.isenabled(), dict(os.environ)
    importlib.import_module("ahgeom.__main__")  # the import runs nothing
    assert cli.main(argv + ["--output", str(tmp_path / "out")]) == 0
    assert (gc.get_freeze_count(), gc.isenabled(), dict(os.environ)) == before


# what writes the process's environment: assigning or deleting a key of
# os.environ, its mutating methods, os.putenv and os.unsetenv
ENV_WRITERS = {"setdefault", "update", "pop", "popitem", "clear",
               "__setitem__", "__delitem__"}


def _writes_environ(node) -> bool:
    if (isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))):
        return ast.unparse(node.value) == "os.environ"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        return (ast.unparse(func.value) == "os.environ"
                and func.attr in ENV_WRITERS
                or ast.unparse(func) in ("os.putenv", "os.unsetenv"))
    return (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in ("environ", "putenv", "unsetenv")
                    for a in node.names))


def test_only_the_entry_touches_the_collector():
    # importing any module of the package, or calling cli.main, must leave
    # a caller's collector and environment as they were, so gc appears, and
    # os.environ is written, in the entry module alone
    users, writers = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import)
                    and any(a.name == "gc" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "gc"
                    or isinstance(node, ast.Name) and node.id == "gc"):
                users.add(path.name)
            if _writes_environ(node):
                writers.add(path.name)
    assert users == {"__main__.py"}
    assert writers == {"__main__.py"}


# Imports ahgeom.cli, then runs each command through the module launcher,
# in one fresh interpreter, and records after each step which of fractions
# and decimal (which fractions imports) are loaded
RATIONALS = """
import json, os, runpy, sys

def loaded():
    return sorted({"fractions", "decimal"} & set(sys.modules))

import ahgeom.cli
seen = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    sys.argv = ["ahgeom", *argv, "--output", os.devnull]
    try:
        runpy.run_module("ahgeom", run_name="__main__")
    except SystemExit as exc:
        seen[" ".join(argv)] = [exc.code, loaded()]
print(json.dumps(seen))
"""


def test_export_commands_load_no_rationals():
    # the series recurrence runs in floats, so only verify's series check
    # loads fractions, and with it decimal
    commands = [[cmd, "--grid", "600", "--format", fmt]
                for cmd in ("solve", "curvature") for fmt in ("csv", "json")]
    done = subprocess.run(
        [sys.executable, "-c", RATIONALS, json.dumps(commands)],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    seen = json.loads(done.stdout)
    assert seen.pop("import") == []
    assert seen == {" ".join(argv): [0, []] for argv in commands}
