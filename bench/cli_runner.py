"""Run one qcmap CLI command with the layer wrappers installed.

Usage: python bench/cli_runner.py TRACE_JSON <qcmap arguments>

Behaves like ``python -m qcmap.cli <qcmap arguments>`` and also writes the
spans, the counts and the import time of ``qcmap.cli`` to TRACE_JSON.
"""

import time

_t0 = time.perf_counter()
import qcmap.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main():
    tracer = tracing.Tracer()
    tracer.op = 0
    tracing.install(tracer)
    try:
        return cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as fh:
            json.dump({"import_s": IMPORT_S, **tracer.export()}, fh)


if __name__ == "__main__":
    sys.exit(main())
