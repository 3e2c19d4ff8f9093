"""Command-line front end.

    ahgeom solve      write the sampled coefficient profile as CSV/JSON
    ahgeom curvature  tabulate curvature values and hyper-Kaehler residuals
    ahgeom verify     run the full verification suite, emit a JSON report

Flags may also come from a key=value config file (--config); command-line
flags win over the file, the file wins over defaults.  Exit codes: 0 ok,
1 verification failure, 2 usage error or an output that cannot be written,
3 numerical failure.  CSV numbers are "%.17g": always 17 significant
digits, so every double round-trips.  solve and curvature evaluate, derive
and write their rows in blocks, so their memory does not grow with the
grid; the blocks of a large CSV table are dealt in turn to one process per
usable CPU, which evaluates and formats its own.  Output for a fixed
config and seed is byte-identical across runs and at any CPU count.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .config import ModelParams
from .curvature import (asd_residual, curvature_components,
                        fiber_gauss_curvature, kappa_at_zero)
from .ode import IntegrationError, integrate

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Grid cap, 20x the densest grid in use (50 000 rows).  solve and curvature
# hold no array of the grid's length, as they write it in blocks, but verify
# holds about a dozen, so an unbounded grid could ask it for more memory
# than the machine has.
MAX_GRID_POINTS = 1_000_000

SOLVE_COLUMNS = ("r", "a", "b", "c", "da", "db", "dc", "dda", "ddb", "ddc", "x", "y")
CURV_COLUMNS = ("r", "k1", "k2", "k3", "asd1", "asd2", "asd3", "Kfiber")


def _solve_grid(r_max: float, n: int, lo: int, hi: int):
    """Rows lo..hi of the n-point grid on [0, r_max]; each value is the
    same whichever rows are asked for."""
    return r_max * np.arange(lo, hi) / (n - 1)


def cmd_solve(params: ModelParams, grid_points: int, fmt: str, out) -> int:
    # imported here, so that verify never compiles the writers
    from .export import write_csv, write_json

    profile = integrate(params)

    def rows_of(lo, hi):
        s = profile.eval(_solve_grid(params.r_max, grid_points, lo, hi))
        return (s.r, s.a, s.b, s.c, s.da, s.db, s.dc,
                s.dda, s.ddb, s.ddc, s.a / s.c, s.b / s.c)

    if fmt == "csv":
        write_csv(out, SOLVE_COLUMNS, rows_of, grid_points)
    else:
        head = {"params": {"m": profile.params.m,
                           "r_max": profile.params.r_max,
                           "tol": profile.params.tol,
                           "grid_points": grid_points}}
        write_json(out, head, "samples", rows_of, grid_points,
                   SOLVE_COLUMNS)
    return EXIT_OK


def cmd_curvature(params: ModelParams, grid_points: int, fmt: str,
                  out) -> int:
    from .export import write_csv, write_json

    profile = integrate(params)
    # the grid starts at r = 0, where kappa is 0/0: that row holds the exact
    # limits (the fiber curvature -a''/a is -k1), and the anti-self-duality
    # residuals extend continuously to 0
    k1, k2, k3 = kappa_at_zero(params.m)
    zero = (0.0, k1, k2, k3, 0.0, 0.0, 0.0, -k1)

    def rows_of(lo, hi):
        s = profile.eval(_solve_grid(params.r_max, grid_points,
                                     max(lo, 1), hi))
        columns = (s.r, *curvature_components(s), *asd_residual(s),
                   fiber_gauss_curvature(s))
        if lo > 0:
            return columns
        # the block at row 0 starts with the exact r = 0 row
        return [np.concatenate(([z], col)) for z, col in zip(zero, columns)]

    if fmt == "csv":
        write_csv(out, CURV_COLUMNS, rows_of, grid_points)
    else:
        write_json(out, {"columns": list(CURV_COLUMNS)}, "rows", rows_of,
                   grid_points)
    return EXIT_OK


def cmd_verify(params: ModelParams, grid_points: int, seed: int | None, out,
               timings: bool = False) -> int:
    # imported here, so that solve and curvature never load the checks, and
    # json is loaded only where JSON is written
    import json

    from .verify import run_verification

    report, seconds, stats = run_verification(params, grid_points, seed)
    for c in report["checks"]:
        print(f"{c['status'].upper()} {c['check']}: worst={c['worst']:.3e} "
              f"({c['direction']} {c['budget']:g}); {c['note']}",
              file=sys.stderr)
    if timings:
        print(f"integrate: accepted={stats.accepted} "
              f"rejected={stats.rejected} rhs_calls={stats.rhs_calls} "
              f"h_min={stats.h_min:.3e} h_max={stats.h_max:.3e}",
              file=sys.stderr)
        for name, s in seconds.items():
            print(f"time {name}: {s:.4f} s", file=sys.stderr)
        # user+sys of every thread so far, so that CPU burnt beside the
        # checks (a BLAS worker polling, say) shows against their wall times
        cpu = os.times()
        print(f"time cpu: {cpu.user + cpu.system:.4f} s", file=sys.stderr)
    out.write(json.dumps(report, indent=2) + "\n")
    if not report["all_pass"]:
        first = next(c for c in report["checks"] if c["status"] == "fail")
        print(f"verification failed: {first['check']}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _int_in(name: str, lo: int, hi: float, bound: str):
    """An argparse type: an int in [lo, hi], else a usage error naming
    `name` and its `bound`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"{name} must {bound}, got {value}")
        return value
    return parse


_grid_points = _int_in("grid_points", 2, MAX_GRID_POINTS,
                       f"lie in [2, {MAX_GRID_POINTS}]")
# the k-plane oracle keys SplitMix64 by seed, seed + 1000 and seed + 2000
_seed = _int_in("seed", 0, float("inf"), "be >= 0")


def _read_config_file(cmd: argparse.ArgumentParser,
                      path: str) -> argparse.Namespace:
    """The flags of a key=value file, parsed by the command's own parser:
    each key is one of its flags without the dashes (r_max or r-max for
    --r-max), so a key the command does not take is refused and a value is
    checked as the flag's would be.  A switch (timings for --timings) takes
    true or false."""
    values = argparse.Namespace()
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            action = cmd._option_string_actions.get(flag)
            # a config key would name a second file, which is never read,
            # and help is not an input
            if action is None or action.dest in ("config", "help"):
                raise ValueError(f"config key {key!r} is not a flag of "
                                 f"{cmd.prog}")
            if action.nargs != 0:
                cmd.parse_args([f"{flag}={val}"], values)
            elif val in ("true", "false"):
                setattr(values, action.dest, val == "true")
            else:
                raise ValueError(f"config key {key!r} takes true or false, "
                                 f"got {val!r}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ahgeom",
        description="Construct the Atiyah-Hitchin coefficient profile and "
                    "verify the geometry of its minimal sphere.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, formats in (
            ("solve", "integrate and export the coefficient profile",
             ("csv", "json")),
            ("verify", "run every verification check; JSON report",
             ("json",)),
            ("curvature", "tabulate curvature and hyper-Kaehler residuals",
             ("csv", "json"))):
        # a command takes exactly the flags it reads, and no abbreviation
        # of them, on the command line and as --config keys alike; its
        # parser holds every default and the bounds of --grid and --seed
        cmd = sub.add_parser(name, help=helptext, allow_abbrev=False)
        cmd.add_argument("--m", type=float, default=1.0,
                         help="zero-section sphere radius "
                              "(default %(default)s)")
        cmd.add_argument("--r-max", dest="r_max", type=float,
                         help="integration horizon (default 20*m)")
        cmd.add_argument("--tol", type=float, default=1e-10,
                         help="integrator tolerance (default %(default)s)")
        cmd.add_argument("--grid", dest="grid_points", metavar="GRID",
                         type=_grid_points, default=1000,
                         help="grid points (default %(default)s)")
        if name == "verify":
            cmd.add_argument("--seed", type=_seed,
                             help="RNG seed for the k-plane search "
                                  "(unset: 0, echoed as null)")
            cmd.add_argument("--timings", action="store_true",
                             help="also write the integrator's statistics, "
                                  "the integrate time, each check's wall "
                                  "time and, last, the process's user+sys "
                                  "time ('time cpu') to stderr")
        cmd.add_argument("--format", dest="fmt", choices=formats,
                         default=formats[0],
                         help="output format (default %(default)s)")
        cmd.add_argument("--output", help="output path (default stdout)")
        cmd.add_argument("--config",
                         help="key=value file of this command's flags")
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser only names the command; the command's own parser
    # reads its flags, so its defaults never overwrite a --config file's
    # values and an unknown flag is reported with the command's usage
    name = parser.parse_args(argv[:1]).command
    cmd = sub.choices[name]
    args = cmd.parse_args(argv[1:])
    try:
        if args.config is not None:
            # a flag given wins over its key in the file, the file over
            # the defaults
            args = cmd.parse_args(argv[1:],
                                  _read_config_file(cmd, args.config))
        # horizon 20*m: the verified claims are local or monotone, so a
        # finite scale-covariant horizon suffices
        r_max = 20.0 * args.m if args.r_max is None else args.r_max
        params = ModelParams(m=args.m, r_max=r_max, tol=args.tol)
    except (ValueError, OSError) as exc:
        print(f"ahgeom: {exc}", file=sys.stderr)
        return EXIT_USAGE
    dest = "<stdout>" if args.output is None else args.output
    try:
        # opened (and emptied) before any work, so a bad path fails at once
        output = (contextlib.nullcontext(sys.stdout) if args.output is None
                  else open(args.output, "w", newline="\n"))
    except OSError as exc:
        print(f"ahgeom: cannot write {dest}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with output as out:
            if name == "verify":
                code = cmd_verify(params, args.grid_points, args.seed, out,
                                  args.timings)
            elif name == "solve":
                code = cmd_solve(params, args.grid_points, args.fmt, out)
            else:
                code = cmd_curvature(params, args.grid_points, args.fmt, out)
            out.flush()
        return code
    except IntegrationError as exc:
        print(f"ahgeom: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"ahgeom: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and args.output is None:
            # the reader has gone: stdout goes to devnull, so the flush at
            # interpreter exit cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"ahgeom: cannot write {dest}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
