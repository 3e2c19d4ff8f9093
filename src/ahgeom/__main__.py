"""The program's entry: `python -m ahgeom` and the `ahgeom` console script
both run `main`.

A command is a short-lived process, so `main` ends it with the collector's
tracked objects frozen (gc.freeze).  The interpreter's shutdown runs a full
collection even with the collector disabled, but it never scans the
permanent generation that the freeze fills, and most of the exit time of a
command went into that collection.  A frozen object that is garbage in a
cycle is never finalized; nothing a command leaves needs it to be: its
output is closed by a `with` before cli.main returns, the interpreter still
flushes stdout and stderr and runs atexit handlers, forked CSV writers
leave through os._exit, and after a broken pipe stdout is already devnull.
"""
import sys

from . import cli


def main() -> int:
    """Run the command that sys.argv names and return its exit code,
    leaving the collector frozen for the exit that follows.  In-process
    callers use cli.main, which leaves the collector alone."""
    try:
        return cli.main()
    finally:
        # imported after the command: in direct runs of solve at tol 1e-12,
        # importing gc at the top raised the peak RSS by 0.06 MB
        import gc
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
