"""Command-line front end.

    ahgeom solve      write the sampled coefficient profile as CSV/JSON
    ahgeom curvature  tabulate curvature values and hyper-Kaehler residuals
    ahgeom verify     run the full verification suite, emit a JSON report

Flags may also come from a key=value config file (--config); command-line
flags win over the file, the file wins over defaults.  Exit codes: 0 ok,
1 verification failure, 2 usage error, 3 numerical failure.  Output for a
fixed config and seed is byte-identical across runs.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from itertools import chain

import numpy as np

from .config import RunConfig
from .curvature import (asd_residual, curvature_components,
                        fiber_gauss_curvature, kappa_at_zero)
from .ode import IntegrationError, integrate, shape_point
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

SOLVE_COLUMNS = ("r", "a", "b", "c", "da", "db", "dc", "dda", "ddb", "ddc", "x", "y")
CURV_COLUMNS = ("r", "k1", "k2", "k3", "asd1", "asd2", "asd3", "Kfiber")


def _rows(columns):
    """Rows of Python floats, one at a time, from a list of column arrays."""
    return zip(*(col.tolist() for col in columns))


def _csv_lines(header, rows):
    # full-precision shortest form; outputs double as fixtures
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return chain([",".join(header) + "\n"], (line % row for row in rows))


def _solve_grid(config: RunConfig):
    n = config.grid_points
    return config.params().r_max * np.arange(n) / (n - 1)


def cmd_solve(config: RunConfig, out) -> int:
    profile = integrate(config.params())
    s = profile.eval(_solve_grid(config))
    sp = shape_point(s)
    rows = _rows((s.r, s.a, s.b, s.c, s.da, s.db, s.dc,
                  s.dda, s.ddb, s.ddc, sp.x, sp.y))
    if config.fmt == "csv":
        chunks = _csv_lines(SOLVE_COLUMNS, rows)
    else:
        payload = {
            "params": {"m": profile.params.m, "r_max": profile.params.r_max,
                       "tol": profile.params.tol,
                       "grid_points": config.grid_points},
            "samples": [dict(zip(SOLVE_COLUMNS, row)) for row in rows],
        }
        chunks = [json.dumps(payload, indent=2) + "\n"]
    out.writelines(chunks)
    return EXIT_OK


def cmd_curvature(config: RunConfig, out) -> int:
    params = config.params()
    profile = integrate(params)
    # the grid starts at r = 0, where kappa is 0/0: that row holds the exact
    # limits, and the anti-self-duality residuals extend continuously to 0
    k0 = kappa_at_zero(params.m)
    zero = (0.0, k0.k1, k0.k2, k0.k3, 0.0, 0.0, 0.0, 1.5 / params.m ** 2)
    s = profile.eval(_solve_grid(config)[1:])
    k = curvature_components(s)
    rows = chain([zero], _rows((s.r, k.k1, k.k2, k.k3, *asd_residual(s),
                                fiber_gauss_curvature(s))))
    if config.fmt == "csv":
        chunks = _csv_lines(CURV_COLUMNS, rows)
    else:
        payload = {"columns": list(CURV_COLUMNS),
                   "rows": [list(row) for row in rows]}
        chunks = [json.dumps(payload, indent=2) + "\n"]
    out.writelines(chunks)
    return EXIT_OK


def cmd_verify(config: RunConfig, out) -> int:
    report = run_verification(config)
    for c in report.checks:
        state = "PASS" if c.passed else "FAIL"
        print(f"{state} {c.name}: worst={c.worst:.3e} "
              f"({c.direction} {c.budget:g}); {c.note}", file=sys.stderr)
    out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    if not report.all_pass:
        first = report.first_failure
        print(f"verification failed: {first.name}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {raw!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


_FLAG_TYPES = {
    "m": float,
    "r_max": float,
    "tol": float,
    "grid": int,
    "seed": int,
    "format": str,
    "output": str,
}


def build_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in _FLAG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _FLAG_TYPES[key](raw)
    for key in _FLAG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(
        m=values.get("m", 1.0),
        r_max=values.get("r_max"),
        tol=values.get("tol", 1e-10),
        grid_points=values.get("grid", 1000),
        seed=values.get("seed"),
        fmt=values.get("format", "csv"),
        output=values.get("output"),
    )


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--m", type=float, help="zero-section sphere radius (default 1)")
    p.add_argument("--r-max", dest="r_max", type=float,
                   help="integration horizon (default 20*m)")
    p.add_argument("--tol", type=float, help="integrator tolerance (default 1e-10)")
    p.add_argument("--grid", type=int, help="grid points (default 1000)")
    p.add_argument("--seed", type=int, help="RNG seed for the k-plane search")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    p.add_argument("--output", help="output path (default stdout)")
    p.add_argument("--config", help="key=value file mirroring the flags")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ahgeom",
        description="Construct the Atiyah-Hitchin coefficient profile and "
                    "verify the geometry of its minimal sphere.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("solve", "integrate and export the coefficient profile"),
            ("verify", "run every verification check; JSON report"),
            ("curvature", "tabulate curvature and hyper-Kaehler residuals")):
        _add_common(sub.add_parser(name, help=helptext))
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"ahgeom: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # opened (and emptied) before any work, so a bad path fails at once
        output = (contextlib.nullcontext(sys.stdout) if config.output is None
                  else open(config.output, "w", newline="\n"))
    except OSError as exc:
        print(f"ahgeom: cannot write {config.output}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        with output as out:
            if args.command == "solve":
                return cmd_solve(config, out)
            if args.command == "verify":
                return cmd_verify(config, out)
            return cmd_curvature(config, out)
    except IntegrationError as exc:
        print(f"ahgeom: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"ahgeom: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
