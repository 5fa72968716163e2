"""Run ``dirmusic`` CLI arguments under the tracer.

Usage: ``python bench_traced_cli.py SPANS_JSON ARG...``. Imports
``dirmusic.cli``, wraps its layers, calls ``main(ARG...)`` and writes the
aggregated spans to SPANS_JSON. Exits with ``main``'s exit code.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402

import dirmusic.cli  # noqa: E402
from bench_trace import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = dirmusic.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out, "w") as handle:
        json.dump(tracer.table(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
