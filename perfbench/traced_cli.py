"""Run ``degswap.cli.main(argv)`` with spans around every measured function.

Usage: python3 perfbench/traced_cli.py SPAN_DIR SUBCOMMAND [ARGS...]

Spans go to SPAN_DIR/spans-<pid>.jsonl, one file per process, pool
workers included.  The program under test is imported from ``src`` next to
this directory.
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from spans import Recorder  # noqa: E402


def main() -> int:
    recorder = Recorder(sys.argv[1])
    start = perf_counter()
    import degswap.cli

    recorder.add("cli.import", start, perf_counter())
    recorder.install()
    try:
        return recorder.wrap("cli.main", degswap.cli.main)(sys.argv[2:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
