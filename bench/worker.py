"""One dworksum call in a fresh process, the way a command-line user runs it.

Reads a request from stdin:

    {"root": <checkout>, "command": "check", "job": {...},
     "mode": "call" | "setup", "trace": false}

and prints one JSON line to stdout.  ``ready`` is the monotonic clock once
``dworksum.cli`` is imported and the job is validated (the parent subtracts
its own clock from before the spawn to get the set-up time).  In ``call``
mode the worker then times ``cli.run`` plus ``cli.render_report``, checks the
report's own correctness flags and returns the SHA-256 of the report bytes.
With ``trace`` set, the tracer is installed after set-up, so set-up is never
traced.

``setup_probe_s`` and ``call_probe_s`` are the median times of a fixed
integer loop that a SIGALRM handler runs every PROBE_INTERVAL_S during
set-up and during the call.  On a shared host the speed of pure-Python code
drifts by half within seconds; the parent divides by these medians to give
times at a reference speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

PROBE_INTERVAL_S = 0.01
PROBE_LOOPS = 1500


class SpeedProbe:
    """Times PROBE_LOOPS turns of an integer loop every PROBE_INTERVAL_S."""

    def __init__(self):
        self.samples = []

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s = (s * 31 + i) % 1000003
        self.samples.append(time.perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def take(self) -> float:
        """Median of the samples since the last take (at least one)."""
        self.sample()
        samples, self.samples = self.samples, []
        return statistics.median(samples)


def report_failures(command: str, result: dict) -> list[str]:
    """The correctness flags a report carries about itself."""
    bad = []
    if command == "check" and result.get("all_pass") is not True:
        bad.append("check: all_pass is not true")
    if command == "lfunction" and result.get("routes_agree") is not True:
        bad.append("lfunction: routes_agree is not true")
    if command == "trace":
        if result.get("routes_agree", True) is not True:
            bad.append("trace: routes_agree is not true")
        if not result.get("levels"):
            bad.append("trace: no levels")
    if command in ("lfunction", "trace"):
        for lv in result.get("levels", []):
            if lv.get("routes_agree") is not True:
                bad.append(f"{command}: routes_agree is not true at m={lv.get('m')}")
    if command == "sums":
        for lv in result.get("levels", []):
            if lv.get("agree") is not True:
                bad.append(f"sums: agree is not true at m={lv.get('m')}")
    return bad


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    req = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(req["root"], "src"))
    out = sys.stdout
    sys.stdout = sys.stderr  # nothing the program prints can corrupt the result line
    from dworksum import cli, errors

    # the exit codes the command line gives these refusals
    refused = {
        errors.ParseError: 2,
        errors.ValidationError: 2,
        errors.BudgetExceeded: 4,
        errors.LevelTooLarge: 4,
        errors.Timeout: 4,
    }
    res = {"status": "ok", "failures": []}
    try:
        cli.JobConfig(req["job"])
        res["ready"] = time.monotonic()
        res["setup_probe_s"] = probe.take()
        if req["mode"] == "call":
            tracer = None
            if req["trace"]:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            start = time.perf_counter()
            report = cli.run(req["command"], req["job"])
            text = cli.render_report(report)
            res["wall_s"] = time.perf_counter() - start
            res["call_probe_s"] = probe.take()
            res["digest"] = hashlib.sha256(text.encode()).hexdigest()
            res["failures"] = report_failures(req["command"], report["result"])
            if tracer is not None:
                res["trace"] = tracer.dump()
    except errors.DworksumError as exc:
        code = next((c for k, c in refused.items() if isinstance(exc, k)), None)
        res["status"] = f"refused (exit {code})" if code else "raised"
        res["failures"].append(f"{type(exc).__name__}: {exc}")
    except Exception:
        res["status"] = "raised"
        res["failures"].append(traceback.format_exc(limit=-3))
    probe.stop()
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.write(json.dumps(res) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
