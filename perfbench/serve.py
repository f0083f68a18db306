"""Launch ``repro-sim serve`` with the per-layer tracer installed.

    python3 perfbench/serve.py --spans SPANS.json serve --port 0 ...

Everything after ``--spans PATH`` is passed to the ``repro-sim`` command
line unchanged.  The wrappers of ``layers.py`` are installed before the
service starts; when the service stops (SIGINT), the spans recorded in this
process are written to ``PATH``.
"""

import sys

import layers
from tracer import Tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans, rest = argv[1], argv[2:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    layers.install(tracer)
    try:
        return cli_main(rest)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
