"""One CLI process: ``python cli_child.py 0|1 <symchar arguments>``.

Does what ``python -m symchar.cli <arguments>`` does (import ``symchar.cli``,
run ``main``, exit with its code; stdout is the CLI's own) between two
measurements of the machine's speed (calibrate.py), then writes one
``BENCH-CHILD {json}`` line to stderr: the two speeds, the seconds they
took (which the caller takes off the process's time), the process's own
peak RSS and, with a first argument of 1, the trace of the call, with the
import time of ``symchar.cli`` and spans for argparse, ``main`` and the
output writers.
"""

import json
import sys
import time

import calibrate

t_cal = time.perf_counter()
SPEED_BEFORE = calibrate.speed()
t0 = time.perf_counter()
CAL_S = t0 - t_cal
import symchar.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0


def peak_rss_kb() -> int:
    """VmHWM, not ru_maxrss: see worker.peak_rss_kb."""
    with open("/proc/self/status") as f:
        return int(next(line.split()[1] for line in f if line.startswith("VmHWM:")))


def main() -> int:
    tracer = None
    if sys.argv[1] == "1":
        import argparse

        from tracing import Tracer

        tracer = Tracer()
        tracer.install(
            extra={
                "cli.main": (cli, "main"),
                "cli.build_parser": (cli, "build_parser"),
                "cli.parse_args": (argparse.ArgumentParser, "parse_args"),
                "cli.emit": (cli, "_emit"),
                "cli.poly_text": (cli, "_poly_text"),
            }
        )
    rc = cli.main(sys.argv[2:])
    sys.stdout.flush()
    report = {"peak_rss_kb": peak_rss_kb()}
    if tracer:
        report["trace"] = dict(tracer.snapshot(), import_s=IMPORT_S)
    t1 = time.perf_counter()
    report.update(speeds=[SPEED_BEFORE, calibrate.speed()], cal_s=CAL_S + time.perf_counter() - t1)
    print("BENCH-CHILD " + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
