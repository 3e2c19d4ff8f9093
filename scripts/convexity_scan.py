#!/usr/bin/env python3
"""Two empirical scans beyond the pinned verification suite:

1. the tube-convexity modulus near the zero section: the largest delta such
   that the minimal two-plane trace of Hess(r^2) stays >= delta * r^2 on a
   fine grid r <= m/10 (the series predicts delta -> 2/m^2 at the sphere);
2. the sign-change radius of c'' for several sphere radii m, confirming it
   scales exactly linearly in m.

    python scripts/convexity_scan.py
"""
import argparse
import sys

import numpy as np

from ahgeom.config import ModelParams
from ahgeom.convexity import (hessian_r2, min_trace_over_kplanes,
                              second_derivative_signs)
from ahgeom.ode import integrate


def tube_modulus(profile, n: int = 400) -> float:
    r = (profile.params.m / 10.0) * np.arange(1, n + 1) / n
    eig = hessian_r2(profile.eval(r))
    return float(np.min(min_trace_over_kplanes(eig, 2) / (r * r)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args(argv)
    try:
        params = [ModelParams(m=m, r_max=20.0 * m, tol=args.tol)
                  for m in args.m]
    except ValueError as exc:
        ap.error(str(exc))

    print("{:>6} {:>28} {:>10} {:>14} {:>12}".format(
        "m", "delta (min2/r^2, r<=m/10)", "2/m^2", "c'' crossing",
        "crossing/m"))
    for m, p in zip(args.m, params):
        profile = integrate(p)
        delta = tube_modulus(profile)
        *_, cross = second_derivative_signs(profile, profile.grid(1000))
        if cross is None:
            cross = float("nan")
        print(f"{m:6.2f} {delta:28.6f} {2.0 / m ** 2:10.4f} "
              f"{cross:14.9f} {cross / m:12.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
