"""Smoke test of the scripts under scripts/ and of the benchmark's traced
runner, so an API change cannot leave them broken unnoticed."""
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convexity_scan_one_m(capsys):
    assert load("convexity_scan").main(["--m", "1.0", "--tol", "1e-8"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert re.split(r"\s{2,}", header.strip()) == [
        "m", "delta (min2/r^2, r<=m/10)", "2/m^2", "c'' crossing",
        "crossing/m"]
    m, delta, two_over_m2, crossing, crossing_over_m = map(float, row.split())
    assert m == 1.0 and two_over_m2 == 2.0
    # the tube modulus approaches 2/m^2 from below at the sphere
    assert 1.9 < delta < 2.0
    assert crossing == crossing_over_m
    assert abs(crossing - 1.7175933) < 1e-6



@pytest.mark.parametrize("argv, message", [
    (["--m", "-1"], "m must be positive"),
    (["--m", "1.0", "2e30"], "m must be positive"),
    (["--tol", "1e-1"], "tol must lie in"),
], ids=["negative-m", "m-above-range", "tol-too-large"])
def test_convexity_scan_bad_input_is_usage_error(capsys, argv, message):
    # rejected before any profile is built or any line is printed
    with pytest.raises(SystemExit) as exit_info:
        load("convexity_scan").main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def _traced_matches_plain(tmp_path, flags):
    """Run the CLI plainly and under perfbench/traced.py; the traced
    in-process run must write the same bytes.  Returns its spans."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, "-m", "ahgeom", *flags, str(plain)],
                   env=env, check=True, timeout=120)
    done = subprocess.run([sys.executable, str(REPO / "perfbench" / "traced.py"),
                           str(spans), *flags, str(traced)],
                          env=env, timeout=120)
    assert done.returncode == 0
    assert traced.read_bytes() == plain.read_bytes()
    return json.loads(spans.read_text())["spans"]


def test_traced_runner_wraps_every_layer(tmp_path):
    # the tracer wraps each public name it times when it starts, so a name
    # removed from ahgeom fails here rather than only in a traced benchmark
    flags = ["solve", "--grid", "40", "--tol", "1e-6", "--output"]
    assert "ode.integrate" in _traced_matches_plain(tmp_path, flags)


def test_traced_runner_with_forked_csv_writer(tmp_path):
    # enough rows for the CSV writer to fork on two or more CPUs
    flags = ["curvature", "--grid", "20000", "--tol", "1e-6", "--output"]
    assert "curvature.eval" in _traced_matches_plain(tmp_path, flags)


def test_traced_runner_with_verify(tmp_path):
    # the k-plane oracle calls the minimizer through verify's own binding,
    # which the tracer wraps: one line call (k = 1 and 3), one 2-plane call
    flags = ["verify", "--grid", "100", "--seed", "7", "--output"]
    spans = _traced_matches_plain(tmp_path, flags)
    assert spans["convexity.kplane"]["calls"] == 2
    # each geometry helper a check calls keeps its layer: one call each,
    # and curvature.eval's 4 are the certificate's asd_residual (twice) and
    # curvature_components and the zero-section limits' fiber curvature
    calls = {name: spans[name]["calls"] for name in (
        "zero_section.calibration", "convexity.signs", "convexity.chain",
        "curvature.eval")}
    assert calls == {"zero_section.calibration": 1, "convexity.signs": 1,
                     "convexity.chain": 1, "curvature.eval": 4}
