"""One pass of a workload in a fresh process.

Reads the pass spec (ops, warm-ups, trace mode) as JSON on stdin, sets up
(imports, scheme loads, one untimed warm-up per op type), then runs the
timed ops one at a time, each as cli.parse_args + cli.run + cli.render,
and checks every output.  Prints one JSON result line on stdout.

The CPU speed of a shared machine drifts by tens of percent within a
minute, so a fixed pure-Python calibration loop, independent of
smoothsieve, runs after setup and after every op.  It mixes integer
arithmetic with lookups in a table of a few megabytes: on its own, the
arithmetic slows down less than the program does when the machine is
busy, and the lookups more.  Each op carries a speed factor CAL_REF_S /
(mean of the calibrations around it); the driver multiplies raw times by
it to report seconds at a fixed nominal speed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

CAL_ITERS = 40_000
CAL_REF_S = 0.005     # nominal time of one calibration loop


class Calibrator:
    def __init__(self):
        self.table = {(i, i * 7 % 1013): i for i in range(50_000)}
        self.keys = list(self.table)[::2]

    def __call__(self):
        """Best of three timings of the fixed loop."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(CAL_ITERS):
                acc += i * i
            table = self.table
            for k in self.keys:
                acc ^= table[k]
            best = min(best, time.perf_counter() - t0)
        return best


def _scan_counts(argv, result):
    """(forms classified, forms certified smooth) reported by a scan op."""
    if argv[0] == "lowdeg":
        return result["estimated"]["count_total"], 0
    if argv[0] == "estimate":
        forms = result["value"]["count_total"]
        smooth = result["value"]["count_smooth"]
    else:
        hists = result["per_degree"].values()
        forms = sum(v["count"] for h in hists for v in h.values())
        smooth = sum(h["0"]["count"] for h in hists)
    return forms, smooth if "--exact" in argv else 0


def run_op(o, cli, checker):
    code = report = error = None
    t0 = time.perf_counter()
    try:
        config = cli.parse_args(o["argv"])
        code, report = cli.run(config)
        cli.render(report, config.out)
    except Exception as exc:  # a refused or crashed op is a measured outcome
        error = exc
    latency = time.perf_counter() - t0
    out = {"latency_s": latency, "scan": o["scan"], "forms": 0,
           "certified": 0, "embed_tries": 0, "failure": None}
    try:
        checker.check(o, code, report, error)
        if o["scan"]:
            out["forms"], out["certified"] = _scan_counts(o["argv"],
                                                          report["result"])
        if o["argv"][0] == "embed" and code == 0:
            out["embed_tries"] = sum(t["tries"] for t in
                                     report["result"]["tries_per_degree"])
    except Exception:  # a failed check is counted, never fatal
        out["failure"] = (" ".join(o["argv"]) + ": "
                          + traceback.format_exc(limit=2).strip())
    out["done_s"] = time.perf_counter() - t0
    return out


def main():
    spec = json.load(sys.stdin)
    import numpy
    from smoothsieve import cli, variety

    import checks
    checker = checks.Checker()
    for path in {o["argv"][o["argv"].index("--scheme") + 1]
                 for o in spec["ops"] + spec["warm"]}:
        variety.load_problem(path)
    for o in spec["warm"]:
        res = run_op(o, cli, checker)
        if res["failure"]:
            sys.exit("warm-up failed: " + res["failure"])
    ready = time.monotonic()
    calibrate = Calibrator()
    cal = calibrate()
    setup_speed = CAL_REF_S / cal

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer(counting=spec["trace"] == "counts")
        tracer.install()
    results = []
    for i, o in enumerate(spec["ops"]):
        if tracer:
            tracer.op_id = i
        res = run_op(o, cli, checker)
        prev, cal = cal, calibrate()
        res["speed"] = 2 * CAL_REF_S / (prev + cal)
        results.append(res)

    out = {"ready": ready, "setup_speed": setup_speed, "ops": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024, "numpy": numpy.__version__}
    if tracer:
        totals = {k: sum(r[k] for r in results)
                  for k in ("forms", "certified", "embed_tries")}
        out["layer"] = tracer.values(totals)
        out["absent"] = tracer.absent
        tracer.write(spec["spans_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
