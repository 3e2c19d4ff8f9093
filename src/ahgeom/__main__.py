"""The program's entry: `python -m ahgeom` and the `ahgeom` console script
both run `main`.

A command is a short-lived process on one thread.  Before numpy loads,
`main` sets OPENBLAS_NUM_THREADS to 1 unless the caller set it: the package
makes no BLAS call, yet OpenBLAS otherwise starts a worker pool as numpy
loads, and its worker polls for work on a CPU of its own for about 0.1 s
before it sleeps.  With no pool, a command's user+sys CPU falls by about
that much, and a CSV writer forked by `solve` or `curvature` starts from a
smaller process.  So the import of cli, and with it of numpy, happens in
`main`, and importing this module runs nothing.

`main` ends a command with the collector's tracked objects frozen
(gc.freeze).  The interpreter's shutdown runs a full collection even with
the collector disabled, but it never scans the permanent generation that
the freeze fills, and most of the exit time of a command went into that
collection.  A frozen object that is garbage in a cycle is never
finalized; nothing a command leaves needs it to be: its output is closed
by a `with` before cli.main returns, the interpreter still flushes stdout
and stderr and runs atexit handlers, forked CSV writers leave through
os._exit, and after a broken pipe stdout is already devnull.
"""
import os
import sys


def main() -> int:
    """Run the command that sys.argv names and return its exit code, on
    one OpenBLAS thread unless the caller chose otherwise, and leave the
    collector frozen for the exit that follows.  In-process callers use
    cli.main, which leaves the environment and the collector alone."""
    # OpenBLAS reads its thread count once, when numpy loads it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    try:
        return cli.main()
    finally:
        # imported after the command: in direct runs of solve at tol 1e-12,
        # importing gc at the top raised the peak RSS by 0.06 MB
        import gc
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
