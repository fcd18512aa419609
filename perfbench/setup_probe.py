"""Set-up probe: import the CLI in a fresh interpreter and run the smallest op
of each command the workloads use.  Exits non-zero if any op does not exit 0.

The benchmark times whole runs of this script; the lazy ``sympy`` and
``numpy`` imports land here, not in the warm workload timings.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import ops

SETUP_OUT = ".perfbench_out/setup"
SETUP_OPS = [
    ["neighbors", "--A", "1", "--B", "2", "--check", "--format", "json"],
    ["cutpoint", "--A", "5", "--B", "5", "--out", SETUP_OUT],
    ["verify-chains", "--A", "4", "--B", "5", "--out", SETUP_OUT],
    ["approx", "--A", "1", "--B", "3", "--n", "1"],
    ["render", "--A", "1", "--B", "3", "--n", "1", "--kind", "boundary", "--out", SETUP_OUT],
    ["render", "--A", "1", "--B", "3", "--n", "1", "--kind", "patch", "--out", SETUP_OUT],
    ["param", "--A", "2", "--B", "3", "--walk", "1;;1", "--format", "json"],
]


def main() -> int:
    os.chdir(ops.ROOT)
    cli = ops.import_tiletopo()
    for argv in SETUP_OPS:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            print(f"setup op {' '.join(argv)} exited {rc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
