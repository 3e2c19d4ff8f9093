"""A fixed reference program that measures how fast the machine runs now.

    python3 perfbench/reference.py OUTPUT

The benchmark's children run on shared virtual CPUs whose speed drifts by
up to ±25 % in stretches of ten seconds to minutes; user+sys time moves
with wall time, and both vCPUs drift together.  run.py starts this program
next to the workload's children, the same way, and scales each of
their wall times to a fixed nominal speed (NOMINAL_S in run.py) by the
reference's times just before and after it.

It has the shape of one ahgeom command: a fresh interpreter that imports
numpy, steps scalar float arithmetic (like the ODE right-hand side and
profile and curvature evaluation), orthonormalises a batch of random
frames (like the k-plane oracle) and writes `%.17g` rows to a file (like
the CLI writers).  It never imports ahgeom, so a change to the program
cannot change the reference.  A new process each time also averages over
the memory layouts a single long-lived process would be stuck with.
"""
from __future__ import annotations

import math
import sys

import numpy as np


def main(output: str) -> int:
    a, b, c = 1.0, 1.1, 1.2
    h = 1e-5
    rows = []
    for i in range(120_000):
        da = (b * b + c * c - a * a) / (2.0 * b * c) - 1.0
        db = (c * c + a * a - b * b) / (2.0 * c * a) - 1.0
        dc = (a * a + b * b - c * c) / (2.0 * a * b) - 1.0
        a, b, c = a + h * da, b + h * db, c + h * dc
        if i % 8 == 0:
            rows.append("%.17g,%.17g,%.17g,%.17g" % (h * i, a, b,
                                                      math.sin(c)))
    rng = np.random.default_rng(0)
    frames, _ = np.linalg.qr(rng.standard_normal((100_000, 4, 2)))
    d = np.array([2.0, a, b, c])
    tr = np.einsum("i,tij->t", d, frames ** 2)
    rows.append("%.17g" % tr.min())
    with open(output, "w") as f:
        f.write("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
