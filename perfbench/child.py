"""One fresh process of the benchmark: import the CLI, run one command, report.

Usage, from the root of a checkout (``run.py`` starts it, one at a time):

    python3 perfbench/child.py setup
    python3 perfbench/child.py run   CLI-ARGS...
    python3 perfbench/child.py trace CLI-ARGS...

``setup`` stops once ``import dipterous.cli`` has returned. ``run`` then calls
``dipterous.cli.main(CLI-ARGS)`` once; ``trace`` does the same with the layer
spans of ``spans.py`` installed. stdout carries exactly what the CLI printed.
The last line of stderr is ``PERFBENCH_RECORD <json>`` with the monotonic
time at which the import returned, the duration of the ``main`` call, the
peak RSS and, when tracing, the per-layer record. The exit code is the CLI's.
"""

import os
import sys
import time

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

from dipterous import cli  # noqa: E402  (the import is what set-up time measures)

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402

RECORD_PREFIX = "PERFBENCH_RECORD "


def main() -> int:
    mode, cli_args = sys.argv[1], sys.argv[2:]
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "dipterous"):
        print(f"imported {cli.__file__}, not the checkout's src/", file=sys.stderr)
        return 3
    record = {"imported_ns": IMPORTED_NS}
    rc = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        rc = cli.main(cli_args)
        record["wall_s"] = time.perf_counter() - start
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record["layers"] = tracer.record()
            record["missing"] = tracer.missing
    sys.stdout.flush()
    print(RECORD_PREFIX + json.dumps(record), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
