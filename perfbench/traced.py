"""Run one ahgeom CLI command in-process with spans around each layer.

    python perfbench/traced.py SPANS_JSON <ahgeom CLI arguments...>

The wrappers are installed from here, in every namespace a public function
is looked up in (names bound by `from ... import` are separate bindings),
so nothing under src/ changes.  Spans are aggregated in memory per name
(calls, inclusive time, self time, first call) and written to SPANS_JSON
when the command ends.  The exit code is the CLI's.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Nested spans keyed by name.  Self time is a span's duration minus
    the time of the spans it directly encloses."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.first_s = {}
        self.counts = Counter()
        self._stack = []  # [name, time spent in child spans]

    def span(self, name, fn, count=None):
        """Wrap fn in a span; count(bound_arguments, result) returns extra
        counters to add."""
        stack = self._stack
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - frame[1]
                self.first_s.setdefault(name, dt)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(count(bound.arguments, result))
            return result
        return traced

    def counted(self, name, fn):
        """Count calls of fn by the innermost enclosing span, without timing."""
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{name}@{stack[-1][0] if stack else ''}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def summary(self) -> dict:
        return {
            "spans": {name: {"calls": self.calls[name],
                             "total_s": self.total_s[name],
                             "self_s": self.self_s[name],
                             "first_s": self.first_s[name]}
                      for name in self.calls},
            "counts": dict(self.counts),
        }


def install(tracer: Tracer):
    """Wrap the public functions of every layer the CLI reaches."""
    from ahgeom import (cli, convexity, curvature, ode, series, verify,
                        zero_section)

    def wrap(name, attr, modules, count=None):
        for mod in modules:
            setattr(mod, attr, tracer.span(name, getattr(mod, attr), count))

    wrap("series.expand", "expand", (series, ode))
    wrap("ode.integrate", "integrate", (ode, verify, cli),
         count=lambda args, profile: {"ode.nodes": len(profile.samples)})
    ode.rhs = tracer.counted("ode.rhs", ode.rhs)
    ode.MetricProfile.at = tracer.span("ode.query", ode.MetricProfile.at)
    for attr in ("curvature_components", "asd_residual", "fiber_gauss_curvature"):
        wrap("curvature.eval", attr, (curvature, verify, cli))
    wrap("convexity.kplane", "brute_force_plane_min", (convexity, verify),
         count=lambda args, _: {"convexity.frames": args["trials"]})
    wrap("convexity.chain", "chain_margins", (convexity, verify))
    wrap("convexity.signs", "second_derivative_signs", (convexity, verify))
    wrap("zero_section.calibration", "calibration_check", (zero_section, verify))
    verify.ALL_CHECKS = tuple(
        tracer.span("verify." + fn.__name__.removeprefix("check_"), fn)
        for fn in verify.ALL_CHECKS)
    for attr in ("cmd_solve", "cmd_curvature", "cmd_verify"):
        wrap("cli", attr, (cli,))
    return cli


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    code = cli.main(cli_args)
    with open(spans_path, "w") as f:
        json.dump(tracer.summary(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
