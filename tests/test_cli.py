"""CLI contracts: table formats, exit codes, determinism, config precedence."""
import json
import math

import numpy as np
import pytest

from ahgeom import cli, ode
from ahgeom.cli import main
from ahgeom.config import MAX_GRID_POINTS, ModelParams, RunConfig

FAST = ["--r-max", "6", "--grid", "60"]


def run(args, capsys):
    code = main(args)
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
        monkeypatch.setattr(ode, "_MAX_NODES", 1000)
        code, out, err = run(["solve"], capsys)
        assert code == 3
        assert "numerical failure: stored-node budget of 1000" in err
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
        # the integrator's node count and capped share, in the report's note
        # and not in the config echo
        _, payload, _ = verify_report
        profile = ode.integrate(ModelParams(m=1.0, r_max=10.0, tol=1e-10))
        note = payload["checks"][0]["note"]
        assert f"nodes={len(profile.samples)}, " in note
        assert f"capped steps={profile.stats.capped_share:.4f}" in note
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
    def test_non_finite_params_rejected(self, field):
        # an infinite horizon would keep the integrator stepping forever
        with pytest.raises(ValueError, match=f"^{field} must"):
            ModelParams(**{"m": 1.0, "r_max": 20.0, field: math.inf})
        with pytest.raises(ValueError, match=f"^{field} must"):
            RunConfig(**{field: math.inf})

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
        # rejected before the profile and the checks run, naming the seed
        monkeypatch.setattr(cli, "run_verification", _must_not_run)
        assert RunConfig(seed=0).seed == 0
        code, out, err = run(["verify", "--seed", "-5"], capsys)
        assert code == 2
        assert out == ""
        assert "ahgeom: seed must be >= 0, got -5" in err

    def test_grid_cap(self, tmp_path, capsys, monkeypatch):
        # a grid past the cap is refused before anything is allocated, from
        # a flag and from a config file alike
        monkeypatch.setattr(cli, "integrate", _must_not_run)
        assert RunConfig(grid_points=MAX_GRID_POINTS).grid_points == 10 ** 6
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 1000000001\n")
        for args in (["solve", "--grid", "1000000001"],
                     ["curvature", "--config", str(cfg)]):
            code, out, err = run(args, capsys)
            assert code == 2
            assert out == ""
            assert ("ahgeom: grid_points must lie in [2, 1000000], "
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

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output(self, tmp_path, capsys, monkeypatch, where):
        # refused before any work with a usage error, not a traceback and
        # exit 1 after the whole run
        monkeypatch.setattr(cli, "integrate", _must_not_run)
        monkeypatch.setattr(cli, "run_verification", _must_not_run)
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
        cfg.write_text("m = 2\ngrid = 40\n# trailing comment\n")
        code, out, _ = run(["solve", "--config", str(cfg), "--m", "1",
                            "--r-max", "6"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 40               # file grid respected
        assert lines[1].split(",")[2] == "-1"     # flag m=1 beats file m=2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobs = 3\n")
        code, _, err = run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert "frobs" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(["solve", "--config", "/nonexistent.cfg"], capsys)
        assert code == 2
