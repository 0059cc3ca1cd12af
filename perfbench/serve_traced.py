"""Launch ``repro-anonymize serve`` with the benchmark's tracer installed.

Usage::

    python3 perfbench/serve_traced.py TRACE_DIR serve [serve options...]

The wrappers go in before ``serve`` forks its workers, so every worker
inherits them.  A worker writes its spans to ``TRACE_DIR`` when it
drains: workers leave through ``os._exit``, so ``atexit`` never runs.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: serve_traced.py TRACE_DIR serve [options...]",
              file=sys.stderr)
        return 2
    tracer = Tracer(flush_dir=Path(argv[0]))
    tracer.install(daemon=True)
    return cli.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
