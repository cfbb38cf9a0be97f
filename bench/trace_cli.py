"""Run one mulli CLI command in this process with the span tracer installed.

    PYTHONPATH=src python3 bench/trace_cli.py verify -p 3 -n 18 --format json

The traced counterpart of `python -m mulli ...` for the verify-sweep
workload: a fresh process per op, so enumeration and import are paid as
a user pays them.  Prints one JSON object holding the CLI's exit code,
its standard output, the wall time of main() measured outside the tracer
and the spans of the run (op id 0).
"""

import contextlib
import io
import json
import sys
import time

import mulli.cli
from spans import Tracer


def main():
    tracer = Tracer().install()
    out = io.StringIO()
    t0 = time.perf_counter()
    tracer.begin_op(0)
    with contextlib.redirect_stdout(out):
        code = mulli.cli.main(sys.argv[1:])
    tracer.end_op()
    wall = time.perf_counter() - t0
    json.dump({"code": code, "stdout": out.getvalue(), "wall": wall, "trace": tracer.dump()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
