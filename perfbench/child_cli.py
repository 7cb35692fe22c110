"""Run one CLI call with spans, for the traced run of the ``cli`` workload.

    python3 perfbench/child_cli.py <span-file> <cyclehom arguments...>

Records the import of ``numpy`` and of ``cyclehom.cli`` as spans, wraps the
same program names as the in-process traced run, runs ``cyclehom.cli.main``
and writes the spans, call counts and missing names to ``<span-file>``.
The CLI's own JSON report goes to stdout as usual.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = Tracer()
    tracer.active = True
    with tracer.span(layers.IMPORT_CLI):
        with tracer.span(layers.IMPORT_NUMPY):
            import numpy  # noqa: F401
        import cyclehom.cli
    tracer.active = False
    layers.install(tracer)
    tracer.wrap(layers.CLI_MAIN)
    tracer.active = True
    try:
        code = cyclehom.cli.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
        spans, calls = tracer.take()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "calls": dict(calls),
                       "missing": sorted(tracer.missing)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
