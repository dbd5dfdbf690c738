"""Traced stand-in for ``python -m repro``: wraps the layers, then runs the CLI.

Usage: python -X importtime perfbench/cli_traced.py SPANS_FILE ARGV...

Times ``import repro.cli`` as one span, installs the layer wrappers,
calls ``repro.cli.main(ARGV)``, and writes every span to SPANS_FILE
before exiting with the CLI's exit code.
"""

import json
import sys

from common import use_sources
from spans import SpanRecorder, install


def main(argv):
    spans_file, cli_argv = argv[0], argv[1:]
    use_sources()
    recorder = SpanRecorder()
    with recorder.span("import.repro"):
        import repro.cli
    install(recorder)
    try:
        code = repro.cli.main(cli_argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in recorder.spans], handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
