"""One chowkit CLI invocation, as the benchmark runs it.

    python3 child.py SRC MARKS TRACE UNTIL [chowkit arguments...]

Imports chowkit from SRC and runs ``chowkit.cli.main`` on the arguments,
to the end (UNTIL ``done``) or only until the target is ready (UNTIL
``ready``: the child then exits at once, which times set-up alone).
MARKS receives the ``time.perf_counter`` readings (system-wide monotonic on
Linux, so the parent can subtract its own spawn time) at which the target
was ready and the report was written.  TRACE, unless it is ``-``, receives
the tracer's counters, self times and spans.  With no chowkit arguments the
child only imports the package, which compiles its bytecode.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _write(path, marks):
    with open(path, "w") as fh:
        json.dump(marks, fh)


def _marked(marks, key, fn, at_start=False, stop=None):
    """``fn``, recording under ``key`` when its first call starts or returns;
    with ``stop`` (the marks path), the process writes the marks and exits
    right after recording."""

    def mark():
        marks.setdefault(key, time.perf_counter())
        if stop:
            _write(stop, marks)
            os._exit(0)

    def wrapper(*args, **kwargs):
        if at_start:
            mark()
        result = fn(*args, **kwargs)
        mark()
        return result

    return wrapper


def main():
    src, marks_path, trace_path, until = sys.argv[1:5]
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.hook_imports()
    from chowkit import cli

    if tracer:
        tracer.install()
    if not argv:
        return 0
    # the target is ready when load_target returns; the identities command
    # has no target and is ready when its suite starts
    marks = {}
    stop = marks_path if until == "ready" else None
    cli.load_target = _marked(marks, "ready", cli.load_target, stop=stop)
    cli._suite_identities = _marked(marks, "ready", cli._suite_identities, at_start=True, stop=stop)
    cli._emit = _marked(marks, "done", cli._emit)
    try:
        return cli.main(argv)
    finally:
        _write(marks_path, marks)
        if tracer:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
