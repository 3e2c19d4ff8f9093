"""Tests of the benchmark itself: the correctness gate and its negative
controls, the runaway guard, the traced runner and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from guard import run_child  # noqa: E402

from ahgeom.cli import main as cli_main  # noqa: E402

SOLVE = dict(m=1.25, r_max=25.0, tol=1e-8, grid=200)


def _solve_text(tmp_path, **kw):
    inv = run.Invocation("solve", kw["m"], kw["r_max"], kw["tol"], kw["grid"])
    out = tmp_path / "solve.csv"
    assert cli_main(inv.argv(out)) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def report_text(tmp_path_factory):
    (inv,) = run.iteration_inputs("verify-default", seed=3, pair=0)
    out = tmp_path_factory.mktemp("verify") / "report.json"
    assert cli_main(inv.argv(out)) == 0
    return inv, out.read_text()


def _verify_kwargs(inv):
    return dict(m=inv.m, r_max=inv.r_max, tol=inv.tol, grid=inv.grid,
                seed=inv.seed)


class TestGate:
    def test_clean_solve_passes(self, tmp_path):
        assert gate.check_solve(_solve_text(tmp_path, **SOLVE), **SOLVE) == []

    def test_altered_digit_fails(self, tmp_path):
        lines = _solve_text(tmp_path, **SOLVE).split("\n")
        cols = lines[120].split(",")
        a = cols[1]
        i = next(k for k, ch in enumerate(a) if ch.isdigit() and k > 3)
        cols[1] = a[:i] + str((int(a[i]) + 1) % 10) + a[i + 1:]
        lines[120] = ",".join(cols)
        problems = gate.check_solve("\n".join(lines), **SOLVE)
        assert problems and "reference" in problems[0]

    def test_short_table_fails(self, tmp_path):
        text = _solve_text(tmp_path, **SOLVE)
        assert gate.check_solve(text, **{**SOLVE, "grid": 201})

    def test_curvature_gate(self, tmp_path):
        out = tmp_path / "curv.csv"
        inv = run.Invocation("curvature", 0.75, 15.0, 1e-8, 300)
        assert cli_main(inv.argv(out)) == 0
        text = out.read_text()
        kw = dict(m=0.75, r_max=15.0, grid=300)
        assert gate.check_curvature(text, **kw) == []
        assert gate.check_curvature(text, **{**kw, "m": 0.7500001})
        rows = text.split("\n")
        cols = rows[50].split(",")
        cols[5] = "2e-6"
        rows[50] = ",".join(cols)
        assert "ASD" in gate.check_curvature("\n".join(rows), **kw)[0]

    def test_clean_report_passes(self, report_text):
        inv, text = report_text
        assert gate.check_verify(text, **_verify_kwargs(inv)) == []

    def test_loosened_tolerance_fails(self, report_text):
        inv, text = report_text
        report = json.loads(text)
        report["tolerances"]["kplane_agree"] = 0.01
        problems = gate.check_verify(json.dumps(report), **_verify_kwargs(inv))
        assert problems == ["tolerances differ from the pinned table: "
                            "['kplane_agree']"]

    def test_fewer_trials_fails(self, report_text):
        inv, text = report_text
        report = json.loads(text)
        report["tolerances"]["kplane_trials"] = 10_000
        assert gate.check_verify(json.dumps(report), **_verify_kwargs(inv))

    def test_missing_check_and_grid_change_fail(self, report_text):
        inv, text = report_text
        report = json.loads(text)
        del report["checks"][3]
        report["checks"][-2]["grid"] = 50
        problems = gate.check_verify(json.dumps(report), **_verify_kwargs(inv))
        assert any("twelve" in p for p in problems)
        assert any("scale_covariance grid" in p for p in problems)

    def test_failed_check_fails(self, report_text):
        inv, text = report_text
        report = json.loads(text)
        report["checks"][0]["status"] = "fail"
        report["all_pass"] = False
        assert len(gate.check_verify(json.dumps(report),
                                     **_verify_kwargs(inv))) == 2


class TestRepeats:
    def test_differing_bytes_fail(self, tmp_path):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        a.write_bytes(b"0.12345\n")
        b.write_bytes(b"0.12346\n")
        first = run.Iteration(0, (), digests=[run._digest(a)], outputs=[a])
        again = run.Iteration(1, (), digests=[run._digest(b)], outputs=[b])
        run.compare_repeat(first, again)
        assert again.problems and not b.exists()

    def test_identical_bytes_pass(self, tmp_path):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        a.write_bytes(b"0.12345\n")
        b.write_bytes(b"0.12345\n")
        first = run.Iteration(0, (), digests=[run._digest(a)], outputs=[a])
        again = run.Iteration(1, (), digests=[run._digest(b)], outputs=[b])
        run.compare_repeat(first, again)
        assert again.problems == []

    def test_differing_counters_fail(self):
        counters = dict.fromkeys(run.COUNTERS, 7)
        first = run.Iteration(0, (), layers=counters)
        again = run.Iteration(1, (), layers={**counters, "ode.nodes": 8})
        run.check_counters([first, again])
        assert again.problems and not first.problems

    def test_pairs_share_inputs(self):
        for workload in run.WORKLOADS:
            assert (run.iteration_inputs(workload, 5, 0)
                    == run.iteration_inputs(workload, 5, 0))
            assert (run.iteration_inputs(workload, 5, 0)
                    != run.iteration_inputs(workload, 5, 1))


class TestGuard:
    def test_busy_loop_is_killed(self, tmp_path):
        res = run_child([sys.executable, "-c", "while True: pass"],
                        timeout_s=1.0, log_path=str(tmp_path / "log"))
        assert res.timed_out and res.exit_code != 0
        assert res.wall_s < 10.0

    def test_runaway_allocation_fails(self, tmp_path):
        res = run_child([sys.executable, "-c", "bytearray(3 << 30)"],
                        timeout_s=30.0, log_path=str(tmp_path / "log"))
        assert res.exit_code != 0 and not res.timed_out
        assert "MemoryError" in (tmp_path / "log").read_text()

    def test_clean_child_reports_usage(self, tmp_path):
        res = run_child([sys.executable, "-c", "print('ok')"],
                        timeout_s=30.0, log_path=str(tmp_path / "log"))
        assert res.exit_code == 0 and not res.timed_out
        assert res.peak_rss_mb > 0 and res.cpu_s >= 0


def test_traced_runner_matches_untraced(tmp_path):
    inv = run.Invocation("solve", 1.0, 6.0, 1e-8, 60)
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert cli_main(inv.argv(plain)) == 0
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(HERE / "traced.py"), str(spans),
                    *inv.argv(traced)], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert traced.read_bytes() == plain.read_bytes()
    summary = json.loads(spans.read_text())
    assert summary["spans"]["ode.query"]["calls"] == 60
    assert summary["spans"]["ode.integrate"]["calls"] == 1
    assert summary["counts"]["ode.nodes"] > 0
    it = run.Iteration(0, (inv,), span_summaries=[summary], bytes_out=1)
    values = run.layer_values(it)
    assert values["ode.accept_ratio"] > 0
    assert set(values) | {"trace.overhead_s"} == set(run.per_layer_units())


def test_times_scale_to_nominal_speed(tmp_path):
    out = tmp_path / "reference.out"
    res = run_child([sys.executable, str(HERE / "reference.py"), str(out)],
                    timeout_s=60.0, log_path=str(tmp_path / "log"))
    assert res.exit_code == 0 and out.stat().st_size > 0
    assert "import ahgeom" not in (HERE / "reference.py").read_text()
    slow = 2 * run.NOMINAL_S
    assert run.at_nominal_speed(3.0, slow) == pytest.approx(1.5)
    assert run.at_nominal_speed(3.0, run.NOMINAL_S) == 3.0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
