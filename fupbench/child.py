"""Run the ``repro`` command line with the layer tracer installed.

Usage: ``python3 child.py TRACE_FILE <repro arguments...>``.  The serve
workload starts its pipeline through this file on traced runs; the spans
are written to TRACE_FILE as JSON when the command returns.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer

from repro.cli import main as cli_main


def main() -> int:
    trace_file = Path(sys.argv[1])
    tracer = Tracer().install()
    try:
        return cli_main(sys.argv[2:])
    finally:
        trace_file.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
