"""CLI contracts: table formats, exit codes, determinism, config precedence."""
import ast
import contextlib
import functools
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ahgeom import cli, export, ode, verify
from ahgeom.cli import main
from ahgeom.config import M_MAX, M_MIN, ModelParams
from ahgeom.curvature import (asd_residual, curvature_components,
                              fiber_gauss_curvature, kappa_at_zero)
from conftest import force_cpus, replace

FAST = ["--r-max", "6", "--grid", "60"]


def run(args, capsys):
    # argparse refuses a flag by SystemExit(2), the commands by returning 2
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started after a usage error")


class TestSolve:
    def test_csv_header_and_zero_row(self, capsys):
        code, out, _ = run(["solve", "--m", "1"] + FAST, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,a,b,c,da,db,dc,dda,ddb,ddc,x,y"
        assert lines[1] == "0,0,-1,1,2,0.5,0.5,0,-0.75,0.75,0,-1"

    def test_json_structure(self, capsys):
        code, out, _ = run(["solve", "--format", "json"] + FAST, capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"params", "samples"}
        assert payload["params"]["m"] == 1.0
        assert len(payload["samples"]) == 60
        assert payload["samples"][0]["b"] == -1.0

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--output", str(a)] + FAST) == 0
        assert main(["solve", "--output", str(b)] + FAST) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_numerical_failure_exit(self, capsys):
        # horizon below the bootstrap radius cannot be integrated
        code, _, err = run(["solve", "--r-max", "0.01"], capsys)
        assert code == 2 or code == 3
        assert err

    def test_node_budget_exit(self, capsys, monkeypatch):
        # below the 195 nodes of the default run
        monkeypatch.setattr(ode, "_MAX_NODES", 100)
        code, out, err = run(["solve"], capsys)
        assert code == 3
        assert "numerical failure: stored-node budget of 100" in err
        assert out == ""


class TestCurvature:
    def test_zero_row_and_columns(self, capsys):
        code, out, _ = run(["curvature"] + FAST, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,k1,k2,k3,asd1,asd2,asd3,Kfiber"
        row0 = lines[1].split(",")
        assert row0[0] == "0"
        assert float(row0[1]) == -1.5
        assert float(row0[2]) == 0.75 and float(row0[3]) == 0.75
        assert float(row0[7]) == 1.5

    def test_cyclic_sums_small(self, capsys):
        code, out, _ = run(["curvature", "--format", "json"] + FAST, capsys)
        payload = json.loads(out)
        cols = payload["columns"]
        for row in payload["rows"]:
            rec = dict(zip(cols, row))
            scale = max(abs(rec["k1"]), abs(rec["k2"]), abs(rec["k3"]))
            assert abs(rec["k1"] + rec["k2"] + rec["k3"]) <= 1e-10 * scale


WRITER_ARGS = ["--r-max", "6", "--tol", "1e-6"]
BLOCK, EVAL = export._BLOCK_ROWS, export._EVAL_ROWS
# the writer cases run at 1/SHRINK of BLOCK and EVAL
SHRINK = 32


def _reference_rows(command, grid):
    """The header and rows of a WRITER_ARGS run, from columns of the whole
    grid."""
    r = cli._solve_grid(6.0, grid, 0, grid)
    profile = ode.integrate(ModelParams(m=1.0, r_max=6.0, tol=1e-6))
    if command == "solve":
        s = profile.eval(r)
        columns = (s.r, s.a, s.b, s.c, s.da, s.db, s.dc, s.dda, s.ddb, s.ddc,
                   s.a / s.c, s.b / s.c)
        return cli.SOLVE_COLUMNS, list(zip(*(col.tolist() for col in columns)))
    s = profile.eval(r[1:])
    k1, k2, k3 = kappa_at_zero(1.0)
    columns = (s.r, *curvature_components(s), *asd_residual(s),
               fiber_gauss_curvature(s))
    zero = (0.0, k1, k2, k3, 0.0, 0.0, 0.0, -k1)
    return cli.CURV_COLUMNS, [zero, *zip(*(col.tolist() for col in columns))]


@functools.lru_cache(maxsize=None)
def _reference_csv(command, grid):
    """The CSV text of a WRITER_ARGS run, one "%.17g" line per row."""
    header, rows = _reference_rows(command, grid)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(line % row for row in rows)


def _reference_json(command, grid):
    """The JSON text of a WRITER_ARGS run, as one json.dumps of all rows."""
    header, rows = _reference_rows(command, grid)
    if command == "solve":
        payload = {"params": {"m": 1.0, "r_max": 6.0, "tol": 1e-6,
                              "grid_points": grid},
                   "samples": [dict(zip(header, row)) for row in rows]}
    else:
        payload = {"columns": list(header),
                   "rows": [list(row) for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCsvWriter:
    # rows evaluated in blocks, formatted in smaller blocks, the blocks
    # dealt in turn over forked processes: the bytes are those of one
    # "%.17g" per row of the whole grid at any CPU count; no process gets
    # less than a full EVAL block, so two CPUs fork from two full blocks on.
    # Each id is a row count at the real sizes, two BLOCKs (256 rows) and
    # EVAL (4 096); the case runs at 1/SHRINK of both, which crosses the
    # same boundaries in a few hundred rows, except 8192, which runs at
    # the real sizes
    @pytest.mark.parametrize("grid, scale", [
        pytest.param(2, SHRINK, id="2"),
        pytest.param(2 * BLOCK // SHRINK - 1, SHRINK, id="255"),
        pytest.param(2 * BLOCK // SHRINK + 1, SHRINK, id="257"),
        pytest.param(2 * EVAL // SHRINK - 1, SHRINK, id="8191"),
        pytest.param(2 * EVAL, 1, id="8192"),
        pytest.param(2 * EVAL // SHRINK + 1, SHRINK, id="8193"),
        pytest.param(50_000 // SHRINK, SHRINK, id="50000")])
    @pytest.mark.parametrize("command", ["solve", "curvature"])
    def test_bytes_at_any_cpu_count(self, capsys, monkeypatch, command, grid,
                                    scale):
        monkeypatch.setattr(export, "_BLOCK_ROWS", BLOCK // scale)
        monkeypatch.setattr(export, "_EVAL_ROWS", EVAL // scale)
        fork, forks = os.fork, []

        def counted_fork():
            forks.append(1)
            return fork()
        monkeypatch.setattr(os, "fork", counted_fork)
        want = _reference_csv(command, grid)
        for cpus in (1, 2, 3):
            force_cpus(monkeypatch, cpus)
            forks.clear()
            code, out, err = run([command, "--grid", str(grid), *WRITER_ARGS],
                                 capsys)
            assert (code, err) == (0, "")
            assert out == want
            procs = min(cpus, max(1, grid // export._EVAL_ROWS))
            assert len(forks) == procs - 1
            _no_child_left()

    @pytest.mark.parametrize("output", ["stdout", "file"])
    def test_child_failure_exits_2(self, tmp_path, capsys, monkeypatch,
                                   output):
        # a block lost in a child is an error, never a shorter file
        parent, format_blocks = os.getpid(), export._format_blocks

        def fail_in_child(rows_of, lo, hi):
            if os.getpid() != parent:
                raise MemoryError("in a formatting process")
            return format_blocks(rows_of, lo, hi)
        monkeypatch.setattr(export, "_format_blocks", fail_in_child)
        force_cpus(monkeypatch, 2)
        path = tmp_path / "out.csv"
        dest = "<stdout>" if output == "stdout" else str(path)
        extra = [] if output == "stdout" else ["--output", dest]
        code, _, err = run(["curvature", "--grid", str(2 * EVAL),
                            *WRITER_ARGS, *extra], capsys)
        assert code == 2
        assert err == (f"ahgeom: cannot write {dest}: a CSV formatting "
                       "process exited with status 1\n")
        _no_child_left()


    @pytest.mark.parametrize("grid", [2, 7, EVAL + 1])
    @pytest.mark.parametrize("command", ["solve", "curvature"])
    def test_json_is_one_dump(self, capsys, command, grid):
        # dumped one evaluation block at a time, the same bytes as one
        # json.dumps of every row
        code, out, err = run([command, "--grid", str(grid), *WRITER_ARGS,
                              "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert out == _reference_json(command, grid)

    @pytest.mark.parametrize("command", [cli.cmd_solve, cli.cmd_curvature])
    def test_memory_does_not_grow_with_the_grid(self, monkeypatch, command):
        # rows are evaluated and formatted a block at a time, so no array or
        # text of the whole grid is held: the traced peak of the export at
        # 50 000 rows is that at 8 192, in one process.  The case runs at
        # 1/8 of the rows and of EVAL and BLOCK, and integrate is left out
        # of the trace, so its own peak cannot hide the export's
        scale = 8
        monkeypatch.setattr(export, "_BLOCK_ROWS", BLOCK // scale)
        monkeypatch.setattr(export, "_EVAL_ROWS", EVAL // scale)
        monkeypatch.setattr(export, "usable_cpus", lambda: 1)
        params = ModelParams(m=1.0, r_max=6.0, tol=1e-6)
        profile = ode.integrate(params)
        monkeypatch.setattr(cli, "integrate", lambda _: profile)
        peaks = []
        for grid in (2 * EVAL // scale, 50_000 // scale):
            with open(os.devnull, "w") as out:
                tracemalloc.start()
                try:
                    assert command(params, grid, "csv", out) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestWriteFailures:
    # exit 2 with the cannot-write message, not a traceback and exit 1
    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["solve", "curvature", "verify"])
    def test_device_full(self, capsys, monkeypatch, command):
        force_cpus(monkeypatch, 2)
        grid = "60" if command == "verify" else str(4 * EVAL)
        code, _, err = run([command, "--grid", grid, *WRITER_ARGS,
                            "--output", "/dev/full"], capsys)
        assert code == 2
        assert err.endswith("ahgeom: cannot write /dev/full: "
                            "No space left on device\n")
        _no_child_left()

    @pytest.mark.parametrize("command, grid, lines", [
        ("solve", 50_000, 1), ("curvature", 1000, 0)])
    def test_reader_closes_pipe_early(self, command, grid, lines):
        # stdout block-buffered, as outside this test environment: data
        # left in its buffer must not fail again in the flush at exit
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "ahgeom", command, "--grid", str(grid)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for _ in range(lines):
            assert proc.stdout.readline().startswith(b"r,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
        assert err == b"ahgeom: cannot write <stdout>: Broken pipe\n"


VERIFY_ARGS = ["verify", "--r-max", "10", "--grid", "200", "--seed", "7"]


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "report.json"
    code = main(VERIFY_ARGS + ["--output", str(out)])
    return code, json.loads(out.read_text()), out.read_bytes()


class TestVerify:
    EXPECTED = [
        "ode_residuals", "series_expansion", "shape_region",
        "hyperkahler_certificate", "strong_stability", "calibration_bound",
        "derivative_chain", "two_convexity", "kplane_oracle",
        "second_derivative_signs", "scale_covariance", "zero_section_limits",
    ]

    def test_exit_zero_and_all_pass(self, verify_report):
        code, payload, _ = verify_report
        assert code == 0
        assert payload["all_pass"] is True

    def test_report_complete(self, verify_report):
        _, payload, _ = verify_report
        names = [c["check"] for c in payload["checks"]]
        assert names == self.EXPECTED
        for c in payload["checks"]:
            assert {"check", "anchor", "status", "worst", "budget",
                    "direction", "grid", "note"} <= set(c)
            assert c["status"] == "pass"

    def test_config_echo(self, verify_report):
        _, payload, _ = verify_report
        assert payload["config"]["m"] == 1.0
        assert payload["config"]["r_max"] == 10.0
        assert payload["config"]["grid_points"] == 200
        assert payload["config"]["seed"] == 7
        assert "tolerances" in payload

    def test_ode_note_reports_steps(self, verify_report):
        # the integrator's node count, in the report's note and not in the
        # config echo
        _, payload, _ = verify_report
        profile = ode.integrate(ModelParams(m=1.0, r_max=10.0, tol=1e-10))
        note = payload["checks"][0]["note"]
        assert note.endswith(f"; nodes={len(profile.samples)}")
        assert set(payload["config"]) == {"m", "r_max", "tol", "grid_points",
                                          "seed"}

    def test_loose_tolerance_fails_named_checks(self, tmp_path, capsys):
        out = tmp_path / "loose.json"
        code = main(["verify", "--tol", "9e-3", "--r-max", "6",
                     "--grid", "50", "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "verification failed: ode_residuals" in err
        payload = json.loads(out.read_text())
        failing = [c["check"] for c in payload["checks"] if c["status"] == "fail"]
        assert "ode_residuals" in failing

    def test_seeded_reports_identical(self, verify_report, tmp_path):
        # one fresh run against the fixture's run of the same arguments
        again = tmp_path / "again.json"
        assert main(VERIFY_ARGS + ["--output", str(again)]) == 0
        assert again.read_bytes() == verify_report[2]

    def test_report_at_any_cpu_count(self, monkeypatch):
        # no check reads the CPU count: the k-plane oracle draws one stream
        # per k on the calling thread
        params = ModelParams(m=1.0, r_max=20.0, tol=1e-10)
        reports = []
        for n in (1, 2):
            force_cpus(monkeypatch, n)
            reports.append(json.dumps(
                verify.run_verification(params, 1000, 7)[0]))
        assert reports[0] == reports[1]

    def test_timings_on_stderr_only(self, verify_report, tmp_path, capsys):
        # the report is the fixture's, byte for byte; after the checks'
        # lines stderr gains the integrator's statistics, then one time line
        # for integrate and one per check, in run order, then the process's
        # user+sys CPU
        timed = tmp_path / "timed.json"
        cpu = [sum(os.times()[:2])]
        code, out, err = run(VERIFY_ARGS + ["--timings", "--output",
                                            str(timed)], capsys)
        cpu.append(sum(os.times()[:2]))
        assert code == 0 and out == ""
        assert timed.read_bytes() == verify_report[2]
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == (
            [f"PASS {name}" for name in self.EXPECTED] + ["integrate"]
            + [f"time {name}" for name in ["integrate"] + self.EXPECTED]
            + ["time cpu"])
        stats = ode.integrate(ModelParams(m=1.0, r_max=10.0, tol=1e-10)).stats
        assert lines[12] == (
            f"integrate: accepted={stats.accepted} rejected={stats.rejected} "
            f"rhs_calls={stats.rhs_calls} h_min={stats.h_min:.3e} "
            f"h_max={stats.h_max:.3e}")
        assert all(re.fullmatch(r"time \w+: \d+\.\d{4} s", line)
                   for line in lines[13:])
        # the CPU line is this process's user+sys when the command wrote it
        assert cpu[0] - 5e-5 <= float(lines[-1].split()[-2]) <= cpu[1] + 5e-5

    def test_timings_from_config_file(self, tmp_path, capsys):
        # a switch is set from the file by true: the same report and, the
        # seconds masked, the same stderr as the flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("timings = true\n")
        runs = []
        for extra in (["--timings"], ["--config", str(cfg)]):
            code, out, err = run(VERIFY_ARGS + extra, capsys)
            runs.append((code, out, re.sub(r"\d+\.\d{4} s$", "<t> s", err,
                                           flags=re.M)))
        assert runs[0] == runs[1]
        assert "time integrate: <t> s" in runs[0][2]
        assert runs[0][2].endswith("time cpu: <t> s\n")

def _check_args(m):
    """A check's arguments at m and the defaults: profile, grid and seed."""
    profile = ode.integrate(ModelParams(m=m, r_max=20.0 * m, tol=1e-10))
    return profile, profile.grid(1000), 0


class TestScaleFreeResiduals:
    # a power-of-two m rescales the m = 1 profile exactly, so a scale-free
    # residual reads the same bits at every such m
    @pytest.mark.parametrize("m", [2.0 ** -10, 2.0 ** 10, 2.0 ** 12])
    @pytest.mark.parametrize("check", [verify.check_ode_residuals,
                                       verify.check_hyperkahler_certificate])
    def test_worst_equals_unit_scale(self, profile1, grid1, check, m):
        unit = check(profile1, grid1, 0)
        scaled = check(*_check_args(m))
        assert scaled["worst"] == unit["worst"]
        assert scaled["note"] == unit["note"]  # each term of the ratio, too
        assert scaled["status"] == "pass"

    def test_ode_residuals_pass_at_large_m(self):
        # the midpoint residual is a length: an absolute budget failed here
        result = verify.check_ode_residuals(*_check_args(1e4))
        assert result["status"] == "pass", result["note"]

    @pytest.mark.parametrize("m", [2.0 ** -10, 2.0 ** 10])
    def test_zero_section_limits_unit_scale(self, profile1, grid1, m):
        unit = verify.check_zero_section_limits(profile1, grid1, 0)
        scaled = verify.check_zero_section_limits(*_check_args(m))
        assert scaled["status"] == "pass", scaled["note"]
        assert scaled["worst"] == unit["worst"]

    @pytest.mark.parametrize("m", [2.0 ** -10, 2.0 ** 10])
    def test_calibration_bound_unit_scale(self, profile1, grid1, m):
        # worst is the excess (bc + m^2)/m^2 and the note names only the
        # verdict's conditions, so both read as at m = 1
        unit = verify.check_calibration_bound(profile1, grid1, 0)
        scaled = verify.check_calibration_bound(*_check_args(m))
        assert scaled["status"] == "pass", scaled["note"]
        assert scaled["worst"] == unit["worst"]
        assert scaled["note"] == unit["note"]

    def test_zero_section_limits_catch_second_derivative_at_large_m(
            self, monkeypatch):
        # b''(0) = -3/(4m) is -7.5e-31 at m = 1e30: held to an absolute
        # 1e-13, a zeroed b''(0) passed; against its scale 1/m it reads 0.75
        args = _check_args(1e30)
        assert verify.check_zero_section_limits(*args)["status"] == "pass"
        evaluate = ode.MetricProfile.eval

        def zeroed_ddb(self, r):
            s = evaluate(self, r)
            ddb = s.ddb.copy()
            ddb[0] = 0.0
            return replace(s, ddb=ddb)
        monkeypatch.setattr(ode.MetricProfile, "eval", zeroed_ddb)
        result = verify.check_zero_section_limits(*args)
        assert result["status"] == "fail"
        assert result["worst"] == pytest.approx(0.75)


class TestConfigHandling:
    def test_usage_error_bad_m(self, capsys):
        code, _, err = run(["solve", "--m", "-1"], capsys)
        assert code == 2
        assert "positive" in err

    def test_usage_error_infinite_m(self, capsys):
        code, _, err = run(["solve", "--m", "inf"], capsys)
        assert code == 2
        assert "ahgeom: m must be positive and finite" in err

    @pytest.mark.parametrize("field", ["m", "r_max"])
    def test_non_finite_params_rejected(self, capsys, monkeypatch, field):
        # an infinite horizon would keep the integrator stepping forever
        with pytest.raises(ValueError, match=f"^{field} must"):
            ModelParams(**{"m": 1.0, "r_max": 20.0, "tol": 1e-10,
                           field: math.inf})
        monkeypatch.setattr(cli, "integrate", _must_not_run)
        monkeypatch.setattr(verify, "run_verification", _must_not_run)
        flag = "--" + field.replace("_", "-")
        for command in ("solve", "curvature", "verify"):
            code, out, err = run([command, flag, "inf"], capsys)
            assert (code, out) == (2, "")
            assert f"ahgeom: {field} must be positive and finite" in err

    def test_usage_error_bad_tol(self, capsys):
        code, _, err = run(["verify", "--tol", "1e-2"], capsys)
        assert code == 2

    def test_tol_floor(self, capsys):
        # below the floor the 10*tol budgets sink under value rounding and
        # the run stores hundreds of thousands of nodes
        with pytest.raises(ValueError, match=r"^tol must lie in \[1e-14,"):
            ModelParams(m=1.0, r_max=20.0, tol=9.9e-15)
        assert ModelParams(m=1.0, r_max=20.0, tol=1e-14).tol == 1e-14
        code, _, err = run(["solve", "--tol", "1e-16"], capsys)
        assert code == 2
        assert "ahgeom: tol must lie in [1e-14, 1e-2), got 1e-16" in err

    def test_negative_seed(self, capsys, monkeypatch):
        # rejected before the profile and the checks run, naming the seed;
        # cmd_verify looks run_verification up in verify when it is called
        monkeypatch.setattr(verify, "run_verification", _must_not_run)
        assert cli._seed("0") == 0
        code, out, err = run(["verify", "--seed", "-5"], capsys)
        assert code == 2
        assert out == ""
        assert "argument --seed: seed must be >= 0, got -5" in err

    def test_grid_cap(self, tmp_path, capsys, monkeypatch):
        # a grid past the cap is refused before anything is allocated, from
        # a flag and from a config file alike
        monkeypatch.setattr(cli, "integrate", _must_not_run)
        assert cli._grid_points(str(cli.MAX_GRID_POINTS)) == 10 ** 6
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 1000000001\n")
        for args in (["solve", "--grid", "1000000001"],
                     ["curvature", "--config", str(cfg)]):
            code, out, err = run(args, capsys)
            assert code == 2
            assert out == ""
            assert ("argument --grid: grid_points must lie in [2, 1000000], "
                    "got 1000000001") in err

    @pytest.mark.parametrize("m", ["1e60", "1e-60", "1e-120", "1e160"])
    def test_m_out_of_range(self, capsys, monkeypatch, m):
        # curvature read 0 or inf and solve crashed at these m; now they
        # are refused before the profile is built
        monkeypatch.setattr(cli, "integrate", _must_not_run)
        for command in ("solve", "curvature"):
            code, out, err = run([command, "--m", m], capsys)
            assert code == 2
            assert out == ""
            assert ("ahgeom: m must be positive and finite, in [1e-30, 1e30], "
                    f"got {float(m)}") in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [1e-30, 1e30])
    def test_m_range_ends_finite(self, capsys, m):
        for command in ("solve", "curvature"):
            code, out, _ = run([command, "--m", repr(m), "--grid", "60"],
                               capsys)
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert len(rows) == 60
            assert np.all(np.isfinite(np.array(rows, dtype=float)))

    def test_scale_covariance_at_top_of_m_range(self):
        # 2m would leave the accepted range, so the check compares the
        # profile at m/2 against this one; the rescaling is exact
        result = verify.check_scale_covariance(*_check_args(M_MAX))
        assert result["status"] == "pass" and result["worst"] == 0.0
        assert result["note"].endswith(
            "at parameter m/2, as 2m is out of range")

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output(self, tmp_path, capsys, monkeypatch, where):
        # refused before any work with a usage error, not a traceback and
        # exit 1 after the whole run
        monkeypatch.setattr(cli, "integrate", _must_not_run)
        monkeypatch.setattr(verify, "run_verification", _must_not_run)
        path = tmp_path / "no" / "x.csv" if where == "missing-dir" else tmp_path
        for command in ("solve", "curvature", "verify"):
            code, out, err = run([command, "--output", str(path)], capsys)
            assert code == 2
            assert out == ""
            assert f"ahgeom: cannot write {path}: " in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 2\ngrid = 40\ntol = 5e-9\n# trailing comment\n")
        code, out, _ = run(["solve", "--config", str(cfg), "--m", "1",
                            "--r-max", "6"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 40               # file grid respected
        assert lines[1].split(",")[2] == "-1"     # flag m=1 beats file m=2
        # the file's values survive the command's defaults
        code, out, _ = run(["solve", "--config", str(cfg), "--format",
                            "json"], capsys)
        assert code == 0
        assert json.loads(out)["params"] == {
            "m": 2.0, "r_max": 40.0, "tol": 5e-9, "grid_points": 40}

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobs = 3\n")
        code, _, err = run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert "frobs" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(["solve", "--config", "/nonexistent.cfg"], capsys)
        assert code == 2

    @pytest.mark.parametrize("args, config, message", [
        (["solve", "--seed", "3"], None, "unrecognized arguments: --seed 3"),
        (["curvature", "--seed", "3"], None,
         "unrecognized arguments: --seed 3"),
        (["verify", "--format", "csv"], None,
         "argument --format: invalid choice: 'csv'"),
        (["solve", "--out", os.devnull], None,
         "unrecognized arguments: --out"),
        (["solve"], "seed = 3",
         "ahgeom: config key 'seed' is not a flag of ahgeom solve\n"),
        (["solve"], "r = 6", "config key 'r' is not a flag"),
        (["verify"], "config = other.cfg", "config key 'config' is not"),
        (["curvature"], "grid = x", "argument --grid: invalid int value"),
        (["verify"], "format = csv", "argument --format: invalid choice"),
        (["verify"], "timings = yes",
         "ahgeom: config key 'timings' takes true or false, got 'yes'\n"),
        (["solve"], "timings = true",
         "config key 'timings' is not a flag of ahgeom solve"),
    ], ids=["solve-seed", "curvature-seed", "verify-csv", "abbreviated-flag",
            "file-seed-for-solve", "file-abbreviated-key", "file-config-key",
            "file-bad-grid", "file-verify-csv", "file-timings-yes",
            "file-timings-for-solve"])
    def test_input_the_command_does_not_read(self, tmp_path, capsys,
                                             monkeypatch, args, config,
                                             message):
        # exit 2 before any work, naming the flag or key: each command
        # takes exactly the flags it reads, unabbreviated, and its own
        # parser checks the config file's keys and values
        monkeypatch.setattr(cli, "integrate", _must_not_run)
        monkeypatch.setattr(verify, "run_verification", _must_not_run)
        if config is None:
            # the command's usage, not the top-level one
            code, out, err = run(args, capsys)
            assert err.startswith(f"usage: ahgeom {args[0]} ")
            assert "usage: ahgeom [-h]" not in err
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"m = 2\n{config}\n")
            code, out, err = run(args + ["--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert message in err

    def test_each_command_takes_the_flags_it_reads(self, capsys):
        # --seed and --timings are verify's alone, and verify writes JSON
        # only; solve and curvature read a format, not a seed
        common = ["--m", "--r-max", "--tol", "--grid"]
        tail = ["--output", "--config"]
        for name, flags in (
                ("solve", [*common, "--format {csv,json}", *tail]),
                ("curvature", [*common, "--format {csv,json}", *tail]),
                ("verify", [*common, "--seed", "--timings",
                            "--format {json}", *tail])):
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            usage = capsys.readouterr().out.split("\n\n")[0]
            assert re.findall(r"\[(--[a-z-]+(?: \{[a-z,]+\})?)", usage) == flags

    def test_commands_take_only_the_inputs_they_read(self, monkeypatch):
        # solve and curvature read no seed, and verify no format
        monkeypatch.setattr(cli, "integrate", _must_not_run)
        monkeypatch.setattr(verify, "integrate", _must_not_run)
        params = ModelParams(m=1.0, r_max=6.0, tol=1e-6)
        for command in (cli.cmd_solve, cli.cmd_curvature):
            with pytest.raises(TypeError, match="seed"):
                command(params, 60, "csv", io.StringIO(), seed=3)
        with pytest.raises(TypeError, match="fmt"):
            verify.run_verification(params, 60, fmt="json")

    @pytest.mark.parametrize("command, key, value, message", [
        ("verify", "seed", "-1", "argument --seed: seed must be >= 0, got -1"),
        ("solve", "grid", "1", "argument --grid: grid_points must lie in "
                               "[2, 1000000], got 1\n"),
        ("curvature", "grid", "1000001", "argument --grid: grid_points must "
                                         "lie in [2, 1000000], got 1000001"),
        ("verify", "m", "1e31", "ahgeom: m must be positive and finite, in "
                                "[1e-30, 1e30], got 1e+31"),
        ("solve", "tol", "1e-2", "ahgeom: tol must lie in [1e-14, 1e-2), "
                                 "got 0.01"),
        ("curvature", "tol", "9.9e-15", "ahgeom: tol must lie in "
                                        "[1e-14, 1e-2), got 9.9e-15"),
    ], ids=["seed--1", "grid-1", "grid-1000001", "m-1e31", "tol-1e-2",
            "tol-9.9e-15"])
    def test_flag_and_config_key_fail_alike(self, tmp_path, capsys,
                                            monkeypatch, command, key, value,
                                            message):
        # the same bound, from the command's own parser or ModelParams,
        # refuses the value before any work, whichever way it comes in
        monkeypatch.setattr(cli, "integrate", _must_not_run)
        monkeypatch.setattr(verify, "run_verification", _must_not_run)
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        errs = []
        for args in ([command, f"--{key}", value],
                     [command, "--config", str(path)]):
            code, out, err = run(args, capsys)
            assert (code, out) == (2, "")
            assert message in err
            errs.append(err)
        assert errs[0] == errs[1]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=st.one_of(st.sampled_from([M_MIN, M_MAX,
                                        math.nextafter(M_MIN, 0.0),
                                        math.nextafter(M_MAX, math.inf),
                                        0.0, -1.0, math.inf, math.nan]),
                       st.floats(-32.0, 32.0).map(lambda e: 10.0 ** e)),
           tol=st.one_of(st.sampled_from([1e-14, 9.9e-15, 1e-2,
                                          math.nextafter(1e-2, 0.0)]),
                         st.floats(-16.0, 0.0).map(lambda e: 10.0 ** e)),
           grid=st.one_of(st.sampled_from([1, 2, 10 ** 6, 10 ** 6 + 1]),
                          st.integers(-10, 2 * 10 ** 6)),
           seed=st.one_of(st.sampled_from([-1, 0]),
                          st.integers(-(1 << 64), 1 << 64)))
    def test_accepts_exactly_the_input_box(self, monkeypatch, m, tol, grid,
                                           seed):
        # verify reads every input; it starts work exactly when
        # m in [1e-30, 1e30], tol in [1e-14, 1e-2), grid in [2, 10^6] and
        # seed >= 0, and exits 2 otherwise
        class Started(Exception):
            pass

        def started(*args, **kwargs):
            raise Started
        monkeypatch.setattr(verify, "integrate", started)
        inside = (M_MIN <= m <= M_MAX and 1e-14 <= tol < 1e-2
                  and 2 <= grid <= 10 ** 6 and seed >= 0)
        args = ["verify", "--m", repr(m), "--tol", repr(tol),
                "--grid", str(grid), f"--seed={seed}", "--output", os.devnull]
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
            except Started:
                code = None
        assert code == (None if inside else 2)


def test_cli_import_leaves_out_logging():
    # concurrent.futures pulls in logging, about 10 ms of every start-up;
    # no command starts a thread (the k-plane oracle runs on the calling
    # thread, the CSV writer forks)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, ahgeom.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("args", [["solve", "--tol", "1e-6"], ["verify"]],
                         ids=["solve", "verify"])
def test_only_verify_loads_the_checks(tmp_path, args):
    # solve pays the start-up of config, series, ode, curvature and export
    # only; the package re-exports nothing, cli imports verify inside
    # cmd_verify, and export, the table writers, inside cmd_solve and
    # cmd_curvature.  No command loads numpy.random, whose import pulls in
    # secrets, hmac and OpenSSL through _hashlib: the k-plane oracle draws
    # from the package's own SplitMix64 stream
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    checks = ["ahgeom.convexity", "ahgeom.verify", "ahgeom.zero_section"]
    never = ["_hashlib", "numpy.random", "secrets"]
    argv = args + ["--grid", "40", "--output", str(tmp_path / "out")]
    code = ("import sys, ahgeom.cli; "
            f"assert ahgeom.cli.main({argv!r}) == 0; "
            f"print(sorted(set({checks!r}) & set(sys.modules))); "
            f"print(sorted(set({never!r}) & set(sys.modules))); "
            "print('ahgeom.export' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.split("\n")[:3] == [
        str(checks if args[0] == "verify" else []), "[]",
        str(args[0] != "verify")]


# json and dataclasses in sys.modules after each command in turn, in one
# fresh interpreter that imports neither itself
COMMANDS_IN_TURN = [["solve", "--grid", "10"], ["curvature", "--grid", "10"],
                    ["verify", "--grid", "50"]]


@pytest.fixture(scope="module")
def loaded_in_turn(tmp_path_factory):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = str(tmp_path_factory.mktemp("loads") / "out")
    code = ("import sys, ahgeom.cli\n"
            f"for argv in {COMMANDS_IN_TURN!r}:\n"
            f"    assert ahgeom.cli.main(argv + ['--output', {out!r}]) == 0\n"
            "    print(sorted({'dataclasses', 'json'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    return done.stdout.splitlines()


def test_json_only_where_json_is_written(loaded_in_turn):
    # CSV output never loads json; verify's report does
    assert loaded_in_turn == ["[]", "[]", "['json']"]


def test_no_module_uses_dataclasses(loaded_in_turn):
    # the records are __slots__ classes and the report is a dict, so no
    # command pays for importing dataclasses or generating its methods
    users = set()
    for path in (pathlib.Path(cli.__file__).parent).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import)
                    and any(a.name == "dataclasses" for a in node.names)
                    or isinstance(node, ast.ImportFrom)
                    and node.module == "dataclasses"):
                users.add(path.name)
    assert users == set()
    assert not any("dataclasses" in line for line in loaded_in_turn)
