"""Run one ``hypspeeds`` CLI experiment with the tracer installed.

Usage: ``python3 bench/traced_cli.py <trace.json> <cli arguments...>``.
The exit code is the CLI's; the tracer's totals go to ``<trace.json>``.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import hypspeeds.cli

    try:
        return hypspeeds.cli.main(argv)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
