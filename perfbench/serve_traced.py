#!/usr/bin/env python3
"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``serve_traced.py DUMP_PATH SERVE_ARGS...``.  Tracing starts on
SIGUSR1 and stops on SIGUSR2 (each acknowledged by a line on standard
output); spans and totals are written to DUMP_PATH once SIGTERM has
drained the server.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.cli
    from perfbench.tracing import Tracer, install

    dump_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)

    def switch(on: bool) -> None:
        tracer.active = on
        print(f"tracing {'on' if on else 'off'}", flush=True)

    signal.signal(signal.SIGUSR1, lambda *__: switch(True))
    signal.signal(signal.SIGUSR2, lambda *__: switch(False))
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        tracer.dump(dump_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
