"""Child process timing one workload's set-up: prints ``ready`` when done.

Usage: python perfbench/setup_probe.py {cli,batch,trace} [--tiny]

The parent times from spawn to the ``ready`` line, so the figure is what
a user pays before the first request: interpreter start, imports and,
for ``batch``, the cache prewarm.
"""

import sys

from common import use_sources


def main(argv):
    use_sources()
    kind = argv[0]
    if kind == "cli":
        import repro.cli

        repro.cli.build_parser()
    elif kind == "batch":
        import random

        import repro  # noqa: F401 - the import is part of set-up
        import w_batch

        deck = w_batch.batch_deck()
        if "--tiny" in argv:
            deck = random.Random(0).sample(deck, 48)
        runtime = w_batch.make_runtime()
        w_batch.prewarm(runtime, deck)
        runtime.close()
    elif kind == "trace":
        import repro  # noqa: F401 - the import is part of set-up
        import repro.replay  # noqa: F401
        import repro.tracing  # noqa: F401
    else:
        raise SystemExit(f"unknown set-up kind {kind!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
