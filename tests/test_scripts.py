"""Smoke test of the scripts under scripts/, so an API change cannot leave
them broken unnoticed."""
import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convexity_scan_one_m(capsys):
    assert load("convexity_scan").main(["--m", "1.0", "--tol", "1e-8"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    m, delta, two_over_m2, crossing, crossing_over_m = map(float, row.split())
    assert m == 1.0 and two_over_m2 == 2.0
    # the tube modulus approaches 2/m^2 from below at the sphere
    assert 1.9 < delta < 2.0
    assert crossing == crossing_over_m
    assert abs(crossing - 1.7175933) < 1e-6
