"""Run the mibounds CLI with the benchmark's tracer installed.

Usage: python bench/traced_cli.py SPANS_JSON [mibounds arguments ...]

Behaves like ``python -m mibounds`` (same import, same exit code, same
traceback on an uncaught error) and writes the recorded spans to
SPANS_JSON when the command ends.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import mibounds.cli

    tracer = Tracer()
    tracer.install()
    try:
        return mibounds.cli.main(argv)
    finally:
        tracer.restore()
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
