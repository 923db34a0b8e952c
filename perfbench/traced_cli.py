"""Run the arcperp CLI once under the outside tracer.

Usage: python3 perfbench/traced_cli.py <arcperp arguments...>

The CLI's standard output is captured and printed back, together with its
exit code and the tracer's summary, as one JSON object on standard output.
The package is imported from ``PYTHONPATH`` as usual.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from arcperp import cli  # after install, so the module sees its wrapped names

    captured = io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    elapsed_ns = time.perf_counter_ns() - start
    json.dump(
        {
            "exit_code": code,
            "output": captured.getvalue(),
            "main_ns": elapsed_ns,
            **tracer.summary(),
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
