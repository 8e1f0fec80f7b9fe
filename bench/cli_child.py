"""A traced `hepp-expand` process, for the traced run of cli-demos.

    python3 bench/cli_child.py SPANS_FILE <hepp-expand arguments>

Runs the command exactly as ``python3 -m hepp_expand.cli`` would, with
the benchmark's wrappers installed after the (timed) package import,
and writes the spans and counters to SPANS_FILE when it ends.
"""

import json
import sys
import time

_T0 = time.perf_counter()
import hepp_expand.cli  # noqa: E402
_T1 = time.perf_counter()

import tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.spans.append(["import.hepp_expand", _T0, _T1, -1])
    tracer.install()
    try:
        return hepp_expand.cli.main(argv)
    finally:
        tracer.restore()
        with open(spans_file, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
