"""Command-line front end.

    ahgeom solve      write the sampled coefficient profile as CSV/JSON
    ahgeom curvature  tabulate curvature values and hyper-Kaehler residuals
    ahgeom verify     run the full verification suite, emit a JSON report

Flags may also come from a key=value config file (--config); command-line
flags win over the file, the file wins over defaults.  Exit codes: 0 ok,
1 verification failure, 2 usage error or an output that cannot be written,
3 numerical failure.  CSV numbers are "%.17g": always 17 significant
digits, so every double round-trips.  Large CSV tables are formatted by one
forked process per usable CPU.  Output for a fixed config and seed is
byte-identical across runs and at any CPU count.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import sys

import numpy as np

from .config import RunConfig, usable_cpus
from .curvature import (asd_residual, curvature_components,
                        fiber_gauss_curvature, kappa_at_zero)
from .ode import IntegrationError, integrate

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

SOLVE_COLUMNS = ("r", "a", "b", "c", "da", "db", "dc", "dda", "ddb", "ddc", "x", "y")
CURV_COLUMNS = ("r", "k1", "k2", "k3", "asd1", "asd2", "asd3", "Kfiber")


def _rows(columns):
    """Rows of Python floats, one at a time, from a list of column arrays."""
    return zip(*(col.tolist() for col in columns))


# Rows per "%": one format over a block of rows is about 20 % faster than
# one "%" per row, with the same bytes.
_BLOCK_ROWS = 256
# The fewest rows a share may have before the rows are split over forked
# processes: 4 096 rows of 12 columns take about 35 ms to format, a fork and
# reap about 2.4 ms (2-vCPU VM), and smaller tables such as the 1 000-row
# default stay in one process.
_FORK_FLOOR = 4096
_PIPE_READ = 1 << 16


def _format_blocks(line, table):
    """The text of `table`'s rows, one string per block of rows."""
    for lo in range(0, len(table), _BLOCK_ROWS):
        block = table[lo:lo + _BLOCK_ROWS]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def _fork_formatter(line, table, children):
    """Fork a process that formats `table` into a new pipe; return its pid
    and the pipe's read end.  The process closes the read ends of the
    earlier `children`, so the parent is the only reader of every pipe, and
    it leaves through os._exit on every path."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            for fd in (*(fd for _, fd in children), r):
                os.close(fd)
            # all of the share before the first write, so a full pipe does
            # not hold the formatting to the parent's pace
            chunks = [text.encode() for text in _format_blocks(line, table)]
            for chunk in chunks:
                view = memoryview(chunk)
                while view:
                    view = view[os.write(w, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _write_csv(out, header, columns):
    """Write the column arrays as CSV rows under `header`.

    "%.17g" always writes 17 significant digits, so every double
    round-trips.  The rows are split into contiguous shares, one per usable
    CPU and none under _FORK_FLOOR rows.  A forked process formats each
    share after the first and sends it down a pipe; the parent writes the
    first share and then copies each pipe in order, so the bytes are the
    same at any CPU count.
    """
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    out.write(",".join(header) + "\n")
    shares = max(1, min(usable_cpus(), len(table) // _FORK_FLOOR))
    cuts = [len(table) * i // shares for i in range(shares + 1)]
    children = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append(_fork_formatter(line, table[lo:hi], children))
        out.writelines(_format_blocks(line, table[:cuts[1]]))
        for _, r in children:
            while chunk := os.read(r, _PIPE_READ):
                out.write(chunk.decode())
    finally:
        # after a failure here, a child still writing sees a closed pipe
        for _, r in children:
            os.close(r)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, _ in children]
    failed = [code for code in codes if code]
    if failed:
        raise OSError(errno.EIO, "a CSV formatting process exited with "
                                 f"status {failed[0]}")


def _solve_grid(config: RunConfig):
    n = config.grid_points
    return config.params().r_max * np.arange(n) / (n - 1)


def cmd_solve(config: RunConfig, out) -> int:
    profile = integrate(config.params())
    s = profile.eval(_solve_grid(config))
    columns = (s.r, s.a, s.b, s.c, s.da, s.db, s.dc,
               s.dda, s.ddb, s.ddc, s.a / s.c, s.b / s.c)
    if config.fmt == "csv":
        _write_csv(out, SOLVE_COLUMNS, columns)
    else:
        payload = {
            "params": {"m": profile.params.m, "r_max": profile.params.r_max,
                       "tol": profile.params.tol,
                       "grid_points": config.grid_points},
            "samples": [dict(zip(SOLVE_COLUMNS, row))
                        for row in _rows(columns)],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_curvature(config: RunConfig, out) -> int:
    params = config.params()
    profile = integrate(params)
    # the grid starts at r = 0, where kappa is 0/0: that row holds the exact
    # limits (the fiber curvature -a''/a is -k1), and the anti-self-duality
    # residuals extend continuously to 0
    k0 = kappa_at_zero(params.m)
    zero = (0.0, k0.k1, k0.k2, k0.k3, 0.0, 0.0, 0.0, -k0.k1)
    s = profile.eval(_solve_grid(config)[1:])
    k = curvature_components(s)
    columns = [np.concatenate(([z], col)) for z, col in zip(
        zero, (s.r, k.k1, k.k2, k.k3, *asd_residual(s),
               fiber_gauss_curvature(s)))]
    if config.fmt == "csv":
        _write_csv(out, CURV_COLUMNS, columns)
    else:
        payload = {"columns": list(CURV_COLUMNS),
                   "rows": [list(row) for row in _rows(columns)]}
        out.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_verify(config: RunConfig, out, timings: bool = False) -> int:
    # imported here, so that solve and curvature never load the checks
    from .verify import run_verification

    report = run_verification(config)
    for c in report.checks:
        state = "PASS" if c.passed else "FAIL"
        print(f"{state} {c.name}: worst={c.worst:.3e} "
              f"({c.direction} {c.budget:g}); {c.note}", file=sys.stderr)
    if timings:
        stats = report.integration
        print(f"integrate: accepted={stats.accepted} "
              f"rejected={stats.rejected} rhs_calls={stats.rhs_calls} "
              f"h_min={stats.h_min:.3e} h_max={stats.h_max:.3e}",
              file=sys.stderr)
        for name, seconds in report.seconds.items():
            print(f"time {name}: {seconds:.4f} s", file=sys.stderr)
    out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    if not report.all_pass:
        first = report.first_failure
        print(f"verification failed: {first.name}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _read_config_file(cmd: argparse.ArgumentParser,
                      path: str) -> argparse.Namespace:
    """The flags of a key=value file, parsed by the command's own parser:
    each key is one of its flags without the dashes (r_max or r-max for
    --r-max), so a key the command does not take is refused and a value is
    checked as the flag's would be."""
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
            # a --config key would name a second file, which is never read
            if (key == "config"
                    or cmd.parse_known_args([f"{flag}={val}"], values)[1]):
                raise ValueError(f"config key {key!r} is not a flag of "
                                 f"{cmd.prog}")
    return values


def build_config(cmd: argparse.ArgumentParser,
                 args: argparse.Namespace) -> RunConfig:
    """The RunConfig of command `cmd`'s parsed arguments: a flag given wins
    over its key in the --config file, and the file over the defaults."""
    given = vars(args)
    if args.config is not None:
        given = {**vars(_read_config_file(cmd, args.config)),
                 **{key: value for key, value in given.items()
                    if value is not None}}
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    return RunConfig(**{key: value for key, value in given.items()
                        if key in fields and value is not None})


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
        # of them, on the command line and as --config keys alike
        cmd = sub.add_parser(name, help=helptext, allow_abbrev=False)
        cmd.add_argument("--m", type=float,
                         help="zero-section sphere radius (default 1)")
        cmd.add_argument("--r-max", dest="r_max", type=float,
                         help="integration horizon (default 20*m)")
        cmd.add_argument("--tol", type=float,
                         help="integrator tolerance (default 1e-10)")
        cmd.add_argument("--grid", dest="grid_points", metavar="GRID",
                         type=int, help="grid points (default 1000)")
        if name == "verify":
            cmd.add_argument("--seed", type=int,
                             help="RNG seed for the k-plane search")
            cmd.add_argument("--timings", action="store_true",
                             help="also write the integrator's statistics, "
                                  "the integrate time and each check's wall "
                                  "time to stderr")
        cmd.add_argument("--format", dest="fmt", choices=formats,
                         help="output format")
        cmd.add_argument("--output", help="output path (default stdout)")
        cmd.add_argument("--config",
                         help="key=value file of this command's flags")
    args = parser.parse_args(argv)
    try:
        config = build_config(sub.choices[args.command], args)
    except (ValueError, OSError) as exc:
        print(f"ahgeom: {exc}", file=sys.stderr)
        return EXIT_USAGE
    dest = "<stdout>" if config.output is None else config.output
    try:
        # opened (and emptied) before any work, so a bad path fails at once
        output = (contextlib.nullcontext(sys.stdout) if config.output is None
                  else open(config.output, "w", newline="\n"))
    except OSError as exc:
        print(f"ahgeom: cannot write {dest}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with output as out:
            if args.command == "solve":
                code = cmd_solve(config, out)
            elif args.command == "verify":
                code = cmd_verify(config, out, args.timings)
            else:
                code = cmd_curvature(config, out)
            out.flush()
        return code
    except IntegrationError as exc:
        print(f"ahgeom: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"ahgeom: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and config.output is None:
            # the reader has gone: stdout goes to devnull, so the flush at
            # interpreter exit cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"ahgeom: cannot write {dest}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
