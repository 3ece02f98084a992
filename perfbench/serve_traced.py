"""Launch ``repro serve`` with the serving-layer wrappers installed.

Usage::

    python perfbench/serve_traced.py <trace.jsonl> [repro serve args...]

Calls the same ``repro.serving.server.main`` as ``python -m repro
serve``; the spans are written to ``<trace.jsonl>`` when the server
stops (SIGINT shuts it down cleanly).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.serving import server  # noqa: E402
from tracer import SERVER_RUN, Tracer, install_serving  # noqa: E402


def main() -> int:
    tracer = Tracer(SERVER_RUN)
    install_serving(tracer)
    try:
        return server.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    raise SystemExit(main())
