"""Benchmark of the ahgeom command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Each
iteration runs the workload's commands as fresh `python -m ahgeom`
processes, one at a time, until about S seconds have been spent.
Iterations come in pairs with the same inputs, and the second of a pair
must reproduce the first byte for byte.  Every output then goes through
the correctness gate (gate.py).  reference.py runs as a child of its own
before the first set-up probe and after every probe and iteration; each
reported time is scaled to a fixed nominal machine speed by the mean of
the reference's times just before and after it.

With --trace 0 the result carries the end-to-end metrics.  With --trace 1
each iteration also runs its commands in-process under traced.py, and the
result carries the per-layer metrics instead.  The line before the result
records the machine, the samples and the deterministic counters.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from guard import run_child

# numpy and scipy are imported only after the timed phase (see guard.py).

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / ".work"

WORKLOADS = ("verify-default", "export-dense", "solve-tight")
CHILD_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0     # no child starts later than this; runs end < 180 s
SETUP_PROBES = 7
# Median wall time of reference.py, fork to reap, over a 7-minute series
# on the machine the baseline was measured on (2-vCPU x86_64 VM, Python
# 3.11.7, numpy 2.4.6).  It sets the scale of reported times and nothing
# else; changing it would move every baseline.
NOMINAL_S = 0.42

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "series.expand_s": "s",
    "ode.integrate_s": "s", "ode.integrate_calls": "count",
    "ode.nodes": "count", "ode.rhs_calls": "count", "ode.accept_ratio": "ratio",
    "ode.query_s": "s", "ode.query_calls": "count", "ode.query_us": "us",
    "curvature.eval_s": "s", "curvature.calls": "count",
    "convexity.kplane_s": "s", "convexity.kplane_calls": "count",
    "convexity.frames": "count", "convexity.chain_s": "s",
    "convexity.signs_s": "s",
    "zero_section.calibration_s": "s",
}
TRACE_UNITS = {
    "cli.self_s": "s", "cli.bytes_out": "bytes",
    "proc.cpu_s": "s", "trace.overhead_s": "s", "trace.uncovered_s": "s",
}
COUNTERS = ("ode.nodes", "ode.rhs_calls", "ode.query_calls",
            "convexity.frames", "cli.bytes_out")


@dataclass(frozen=True)
class Invocation:
    """One CLI command with every input given as an explicit flag."""

    command: str
    m: float
    r_max: float
    tol: float
    grid: int
    seed: int | None = None

    def argv(self, output: Path) -> list:
        args = [self.command, "--m", repr(self.m), "--r-max", repr(self.r_max),
                "--tol", repr(self.tol), "--grid", str(self.grid)]
        if self.command == "verify":
            args += ["--seed", str(self.seed), "--format", "json"]
        else:
            args += ["--format", "csv"]
        return args + ["--output", str(output)]


def iteration_inputs(workload: str, seed: int, pair: int) -> tuple:
    """The commands of every iteration in pair `pair` of a run.

    The model radius m moves every output value but not the cost: steps,
    horizon and tolerances all scale with m.
    """
    rng = random.Random(f"{workload}/{seed}/{pair}")
    if workload == "verify-default":
        return (Invocation("verify", 1.0, 20.0, 1e-10, 1000,
                           seed=rng.randrange(1 << 31)),)
    m = round(rng.uniform(0.5, 2.0), 6)
    if workload == "export-dense":
        return (Invocation("solve", m, 20.0 * m, 1e-8, 50_000),
                Invocation("curvature", m, 20.0 * m, 1e-8, 50_000))
    return (Invocation("solve", m, 20.0 * m, 1e-12, 1000),)


@dataclass
class Iteration:
    index: int
    inputs: tuple
    wall_s: float = 0.0
    ref_s: float = 0.0    # reference.py's time around the iteration
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    bytes_out: int = 0
    digests: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # kept for the gate
    problems: list = field(default_factory=list)
    traced_wall_s: float = 0.0
    span_summaries: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def is_repeat(self) -> bool:
        return self.index % 2 == 1


def at_nominal_speed(seconds: float, ref_s: float) -> float:
    """A time measured while reference.py took ref_s, scaled to the
    speed at which it takes NOMINAL_S."""
    return seconds * NOMINAL_S / ref_s


class Runner:
    def __init__(self, workload, seed, seconds, trace, work: Path):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace, self.work = seconds, trace, work
        self.t_start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ref_times = []

    def _child(self, argv):
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.t_start)
        return run_child([sys.executable, *argv],
                         timeout_s=max(1.0, min(CHILD_TIMEOUT_S, remaining)),
                         log_path=str(self.work / "child.log"),
                         env=self.env, cwd=str(self.work))

    def _failure(self, what, res) -> str:
        log = (self.work / "child.log").read_text(errors="replace")
        cause = "timed out" if res.timed_out else f"exit {res.exit_code}"
        return f"{what} {cause}: {log[-300:]!r}"

    def reference(self) -> float:
        """Run reference.py once.  Returns the mean of its wall time and
        the one before, the reference for what ran between the two."""
        res = self._child([str(HERE / "reference.py"),
                           str(self.work / "reference.out")])
        if res.exit_code != 0:
            raise SystemExit(self._failure("reference.py", res))
        before = self.ref_times[-1] if self.ref_times else res.wall_s
        self.ref_times.append(res.wall_s)
        return (before + res.wall_s) / 2

    def setup_times(self) -> tuple:
        """Time fresh interpreters importing ahgeom.cli, after one untimed
        probe that compiles bytecode and proves ./src is what gets imported.
        Returns the times as measured and at nominal speed."""
        probe = ("import sys, ahgeom.cli; "
                 "sys.stdout.write(ahgeom.cli.__file__)")
        res = self._child(["-c", probe])
        where = (self.work / "child.log").read_text().strip()
        if res.exit_code != 0 or not Path(where).resolve().is_relative_to(
                SRC.resolve()):
            raise SystemExit(f"cannot import ahgeom from {SRC}: {where[-300:]}")
        measured, nominal = [], []
        self.reference()
        for _ in range(SETUP_PROBES):
            res = self._child(["-c", "import ahgeom.cli"])
            if res.exit_code != 0:
                raise SystemExit(self._failure("import ahgeom.cli", res))
            measured.append(res.wall_s)
            nominal.append(at_nominal_speed(res.wall_s, self.reference()))
        return measured, nominal

    def iterations(self) -> list:
        """Run iterations until about `seconds` have gone into them, and at
        least one pair.  reference.py runs after each iteration."""
        done = []
        t0 = time.perf_counter()
        while time.perf_counter() - self.t_start < RUN_BUDGET_S:
            spent = time.perf_counter() - t0
            if len(done) >= 2 and spent + spent / len(done) / 2 >= self.seconds:
                break
            it = Iteration(len(done), iteration_inputs(
                self.workload, self.seed, len(done) // 2))
            self._run(it)
            it.ref_s = self.reference()
            if it.is_repeat:
                compare_repeat(done[-1], it)
            done.append(it)
        return done

    def _run(self, it: Iteration):
        for k, inv in enumerate(it.inputs):
            out = self.work / f"it{it.index:03d}-{k}-{inv.command}.out"
            res = self._child(["-m", "ahgeom", *inv.argv(out)])
            it.wall_s += res.wall_s
            it.cpu_s += res.cpu_s
            it.peak_rss_mb = max(it.peak_rss_mb, res.peak_rss_mb)
            if res.exit_code != 0:
                it.problems.append(self._failure(inv.command, res))
            digest = _digest(out)
            it.digests.append(digest)
            it.bytes_out += out.stat().st_size if out.exists() else 0
            it.outputs.append(out)
            if self.trace:
                self._run_traced(it, inv, out, digest)

    def _run_traced(self, it, inv, out, digest):
        traced_out = out.with_suffix(".traced")
        spans = self.work / "spans.json"
        spans.unlink(missing_ok=True)
        res = self._child([str(HERE / "traced.py"), str(spans),
                           *inv.argv(traced_out)])
        it.traced_wall_s += res.wall_s
        if res.exit_code != 0:
            it.problems.append(self._failure(f"traced {inv.command}", res))
        elif _digest(traced_out) != digest:
            it.problems.append(f"traced {inv.command} output differs")
        traced_out.unlink(missing_ok=True)
        if spans.exists():
            it.span_summaries.append(json.loads(spans.read_text()))


def compare_repeat(first: Iteration, again: Iteration):
    """Same inputs must give the same bytes.  The repeat's files go: the
    gate reads the first iteration's."""
    if again.digests != first.digests:
        again.problems.append("repeat with the same seed is not "
                              "byte-identical")
    for out in again.outputs:
        out.unlink(missing_ok=True)
    again.outputs = []


def _digest(path: Path):
    if not path.exists():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _quartiles(values) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q[0], "median": q[1], "q3": q[2]}


def gate_iterations(its: list):
    """Gate the outputs of first-of-pair iterations; a repeat with identical
    bytes inherits its partner's verdict."""
    import gate

    checks = {"solve": gate.check_solve, "curvature": gate.check_curvature,
              "verify": gate.check_verify}
    for it in its:
        for inv, out in zip(it.inputs, it.outputs):
            if not out.exists():
                continue
            kwargs = {"m": inv.m, "r_max": inv.r_max, "grid": inv.grid}
            if inv.command != "curvature":
                kwargs["tol"] = inv.tol
            if inv.command == "verify":
                kwargs["seed"] = inv.seed
            try:
                problems = checks[inv.command](out.read_text(), **kwargs)
            except (RuntimeError, ValueError) as exc:  # incl. bad UTF-8
                problems = [f"gate error {exc!r}"]
            it.problems += [f"{inv.command}: {p}" for p in problems]
        if it.is_repeat and not it.problems and its[it.index - 1].problems:
            it.problems.append("repeats a failed iteration")


def layer_values(it: Iteration) -> dict:
    """Per-layer values of one traced iteration, summed over its commands.

    Layer times are self times; verify.<check>_s are inclusive.  Accepted
    and attempted steps follow from the DP5(4) FSAL loop in ode.integrate:
    2 right-hand sides to start, 6 per attempted step, 1 per stored node.
    """
    from gate import CHECK_NAMES

    spans = defaultdict(Counter)  # keeps call counts integral
    counts = Counter()
    for summary in it.span_summaries:
        for name, rec in summary["spans"].items():
            for key, value in rec.items():
                spans[name][key] += value
        counts.update(summary["counts"])
    calls = spans["ode.integrate"]["calls"]
    nodes = counts["ode.nodes"]
    rhs_calls = counts["ode.rhs@ode.integrate"]
    accepted = nodes - calls
    attempted = (rhs_calls - 2 * calls - accepted) / 6
    queries = spans["ode.query"]["calls"]
    values = {
        "series.expand_s": spans["series.expand"]["first_s"],
        "ode.integrate_s": spans["ode.integrate"]["self_s"],
        "ode.integrate_calls": calls,
        "ode.nodes": nodes,
        "ode.rhs_calls": rhs_calls,
        "ode.accept_ratio": accepted / attempted if attempted > 0 else 0.0,
        "ode.query_s": spans["ode.query"]["self_s"],
        "ode.query_calls": queries,
        "ode.query_us": (1e6 * spans["ode.query"]["self_s"] / queries
                         if queries else 0.0),
        "curvature.eval_s": spans["curvature.eval"]["self_s"],
        "curvature.calls": spans["curvature.eval"]["calls"],
        "convexity.kplane_s": spans["convexity.kplane"]["self_s"],
        "convexity.kplane_calls": spans["convexity.kplane"]["calls"],
        "convexity.frames": counts["convexity.frames"],
        "convexity.chain_s": spans["convexity.chain"]["self_s"],
        "convexity.signs_s": spans["convexity.signs"]["self_s"],
        "zero_section.calibration_s":
            spans["zero_section.calibration"]["self_s"],
    }
    for name in CHECK_NAMES:
        values[f"verify.{name}_s"] = spans[f"verify.{name}"]["total_s"]
    values["cli.self_s"] = spans["cli"]["self_s"]
    values["cli.bytes_out"] = it.bytes_out
    values["proc.cpu_s"] = it.cpu_s
    covered = sum(rec["self_s"] for rec in spans.values())
    values["trace.uncovered_s"] = it.traced_wall_s - covered
    return values


def check_counters(its: list):
    """A counter that differs between two runs of the same inputs is a
    failure: the counters are meant to be deterministic."""
    for it in its:
        if it.is_repeat:
            first = its[it.index - 1]
            diff = [c for c in COUNTERS
                    if it.layers.get(c) != first.layers.get(c)]
            if diff:
                it.problems.append(f"counters differ from the first run: {diff}")


def machine_facts() -> dict:
    import numpy as np

    facts = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "machine": platform.machine(),
             "python": platform.python_version(),
             "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    return facts


def per_layer_units() -> dict:
    from gate import CHECK_NAMES

    return {
        **LAYER_UNITS,
        **{f"verify.{name}_s": "s" for name in CHECK_NAMES},
        **TRACE_UNITS,
    }


def per_layer_metrics(its: list) -> dict:
    values = {n: statistics.median(it.layers[n] for it in its)
              for n in its[0].layers}
    values["trace.overhead_s"] = (
        statistics.median(it.traced_wall_s for it in its)
        - statistics.median(it.wall_s for it in its))
    return {n: {"value": values[n], "unit": unit}
            for n, unit in per_layer_units().items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ahgeom" / "cli.py").is_file():
        print(f"perfbench: no ahgeom sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        runner = Runner(args.workload, args.seed, args.seconds, args.trace,
                        work)
        setup, nominal_setup = runner.setup_times()
        its = runner.iterations()
        sys.path.insert(0, str(SRC))
        gate_iterations(its)
        if args.trace:
            for it in its:
                it.layers = layer_values(it)
            check_counters(its)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def cost(it):
        # a failed iteration counts as missing any latency limit
        wall = at_nominal_speed(it.wall_s, it.ref_s)
        return max(wall, CHILD_TIMEOUT_S) if it.problems else wall

    walls = [cost(it) for it in its]
    failed = sum(1 for it in its if it.problems)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "wall_s": _quartiles(walls),
        "measured_wall_s": _quartiles([it.wall_s for it in its]),
        "setup_s": _quartiles(nominal_setup),
        "measured_setup_s": _quartiles(setup),
        "reference_s": {"nominal": NOMINAL_S,
                        **_quartiles(runner.ref_times)},
        "iterations": [
            {"index": it.index,
             "argv": [" ".join(inv.argv(Path("OUT"))) for inv in it.inputs],
             "wall_s": it.wall_s, "ref_s": it.ref_s, "cpu_s": it.cpu_s,
             "peak_rss_mb": it.peak_rss_mb, "bytes_out": it.bytes_out,
             **({"traced_wall_s": it.traced_wall_s,
                 "counters": {c: it.layers.get(c) for c in COUNTERS}}
                if args.trace else {}),
             "problems": it.problems}
            for it in its],
    }
    if args.trace:
        metrics = per_layer_metrics(its)
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(nominal_setup),
                  "peak_rss_mb": statistics.median(
                      it.peak_rss_mb for it in its)}
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in END_TO_END_UNITS.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(its),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
