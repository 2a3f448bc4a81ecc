"""Run one ``mflight`` command in this process and report when its parts ran.

Usage: python3 bench/child.py REPORT.json TRACE -- <mflight arguments>

The parent reads the monotonic clock just before it starts this process.
This script reads it again at the command's first campaign or evaluation
call (set-up ends there) and after the command returns with its artifacts
written (the run ends there), together with the process CPU time at both
points and the peak resident memory. With TRACE=1 it wraps the calls into
each layer first (see spans.py) and writes the spans beside the report.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    report_path, trace, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py REPORT.json TRACE -- <mflight arguments>")
    sys.path.insert(0, SRC)
    from mflight import cli, orchestrator

    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    marks: dict[str, float] = {}

    def first_call(fn):
        def marked(*args, **kwargs):
            if "t_first" not in marks:
                marks["t_first"] = time.monotonic()
                marks["cpu_first"] = time.process_time()
            return fn(*args, **kwargs)
        return marked

    orchestrator.run_campaign = first_call(orchestrator.run_campaign)
    orchestrator.evaluate_policy = first_call(orchestrator.evaluate_policy)

    code = cli.main(cli_args)
    marks["t_end"] = time.monotonic()
    marks["cpu_end"] = time.process_time()

    report = dict(marks, exit_code=code,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        spans_path = os.path.splitext(report_path)[0] + "_spans.npz"
        tracer.save(spans_path)
        report["spans"] = spans_path
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
