"""Run one picstab CLI command with spans installed, for the traced cli_cold pass.

Usage: clitrace.py SPAN_FILE ARGS...

Behaves like ``python -m picstab.cli ARGS...`` (same output and exit code)
and writes the per-layer span totals of the process to SPAN_FILE, with
``cli.command_s``: the time from entering the click command to its exit.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main() -> int:
    span_file, args = sys.argv[1], sys.argv[2:]
    import picstab.cli
    from picstab import exactlin, picard

    lru = {"exactlin.fq_make": exactlin.fq_make, "picard.t_group": picard.t_group}
    tracer = spans.Tracer()
    tracer.install()
    code = 0
    start = time.perf_counter()
    try:
        picstab.cli.main.main(args=args, prog_name="picstab")
    except SystemExit as ex:
        code = ex.code if isinstance(ex.code, int) else 1
    finally:
        command_s = time.perf_counter() - start
        totals = spans.summarize(tracer.spans)
        totals["cli.command_s"] = command_s
        for name, fn in lru.items():
            totals[f"{name}.misses"] = fn.cache_info().misses
        with open(span_file, "w") as fh:
            json.dump(totals, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
