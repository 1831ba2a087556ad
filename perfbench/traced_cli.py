"""Run ``art9`` with the benchmark's layer spans installed.

Usage: ``PERFBENCH_TRACE_DIR=DIR python3 perfbench/traced_cli.py <art9 args>``.
Spans of this process and every worker it starts land in ``DIR``; the
exit code is the CLI's.
"""

import sys
import time

import spans


def main() -> int:
    started = time.monotonic()
    import repro.cli

    spans.record("cli.import", started, time.monotonic())
    spans.install()
    try:
        with spans.span("cli.main"):
            return repro.cli.main(sys.argv[1:])
    finally:
        spans.flush()


# Spawned workers re-import this file as __mp_main__; only a direct run
# starts the CLI.
if __name__ == "__main__":
    sys.exit(main())
