"""smoothsieve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of workloads.py, or `all` to run each in turn and end
with one record over all of them.  Run from the repository root.  The load is a closed loop with one client:
passes run one after another, each in a fresh worker process (so the
in-process scan cache never spans passes) that runs one op at a time.
Passes repeat until S seconds have elapsed.  Every op's output is checked.
Times are reported in seconds at a nominal CPU speed (see worker.py).

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 untraced passes, span passes and counting passes take turns,
and it holds the per-layer metrics (see tracing.py): times from the span
passes, counts from the counting passes, and trace.overhead_frac, the
span passes' wall time over the untraced passes' minus one.
The line before it is a JSON detail record: environment, sample counts,
op_p90_s where at least ten samples lie beyond it, useful-work ratios
with their bases, and any failures.  Traced passes write their spans to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170         # hard stop for a run, whatever --seconds says
TRACE_CYCLE = (None, "spans", "counts")   # pass kinds with --trace 1

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "forms_per_s": "1/s",
             "op_p50_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "frac"}


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_pass(ops, warm, kind, spans_path, deadline):
    spec = {"ops": ops, "warm": warm, "trace": kind,
            "spans_path": str(spans_path)}
    spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py")],
                          input=json.dumps(spec), stdout=subprocess.PIPE,
                          text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - spawn))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["kind"] = kind
    # times at nominal CPU speed (see worker.py), raw ones kept alongside
    res["raw_setup_s"] = res["ready"] - spawn
    res["setup_s"] = res["raw_setup_s"] * res["setup_speed"]
    ops = res["ops"]
    for o in ops:
        o["time_s"] = o["latency_s"] * o["speed"]
    res["raw_wall_s"] = sum(o["done_s"] for o in ops)
    res["wall_s"] = sum(o["done_s"] * o["speed"] for o in ops)
    speed = statistics.fmean(o["speed"] for o in ops)
    for m, v in res.get("layer", {}).items():
        if tracing.LAYER_METRICS[m][0] == "s":
            res["layer"][m] = v * speed
    return res


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(passes):
    ops = [o for p in passes for o in p["ops"]]
    scan = [o for o in ops if o["scan"]]
    lat = [o["time_s"] for o in ops]
    return {
        "setup_s": _median([p["setup_s"] for p in passes]),
        "wall_s": _median([p["wall_s"] for p in passes]),
        "forms_per_s": (sum(o["forms"] for o in scan)
                        / sum(o["time_s"] for o in scan)),
        "op_p50_s": _median(lat),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "ops_ok_frac": (sum(o["failure"] is None for o in ops) / len(ops)),
    }


def _wall(passes):
    return _median([p["wall_s"] for p in passes])


def per_layer(by_kind):
    """Mean per pass of each layer metric: times from the span passes,
    counts from the counting passes; left out unless every such pass has
    it."""
    out = {}
    for m, (unit, _) in tracing.LAYER_METRICS.items():
        passes = by_kind["spans" if unit == "s" else "counts"]
        if all(m in p["layer"] for p in passes):
            out[m] = (statistics.fmean(p["layer"][m] for p in passes), unit)
    out["trace.overhead_frac"] = (
        _wall(by_kind["spans"]) / _wall(by_kind[None]) - 1, "frac")
    return out


def _ratio(values, num, den):
    if num in values and den in values:
        n, d = values[num][0], values[den][0]
        return {"value": n / d if d else None, "num": n, "den": d,
                "of": f"{num} / {den}"}
    return None


def run_workload(workload, seed, seconds, trace):
    """Run passes of one workload; returns (detail, result) records."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    seeds = workloads.SeedStream(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    passes = []
    cycle = TRACE_CYCLE if trace else TRACE_CYCLE[:1]
    while True:
        kind = cycle[len(passes) % len(cycle)]
        ops, warm = workloads.plan_pass(workload, seeds)
        spans = OUT_DIR / f"{workload}-pass{len(passes)}.spans.jsonl"
        passes.append(run_pass(ops, warm, kind, spans, deadline))
        elapsed = time.monotonic() - start
        if elapsed >= seconds and len(passes) >= len(cycle):
            break

    by_kind = {k: [p for p in passes if p["kind"] == k] for k in cycle}
    untraced = by_kind[None]
    ops = [o for p in passes for o in p["ops"]]
    failures = [o["failure"] for o in ops if o["failure"]]
    lat = sorted(o["time_s"] for p in untraced for o in p["ops"])
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "env": {"git_sha": _git_sha(),
                "python": platform.python_version(),
                "numpy": passes[0]["numpy"], "nproc": os.cpu_count(),
                "cpu_model": _cpu_model()},
        "client": "closed loop, 1 client, 1 op at a time",
        "ops_per_pass": len(passes[0]["ops"]),
        "passes": {str(k): len(v) for k, v in by_kind.items()},
        "samples": {"setup_s": len(untraced), "wall_s": len(untraced),
                    "op_p50_s": len(lat),
                    "forms_per_s": sum(o["scan"] for p in untraced
                                       for o in p["ops"]),
                    "peak_rss_mb": len(untraced)},
        "raw": {"setup_s": _median([p["raw_setup_s"] for p in untraced]),
                "wall_s": _median([p["raw_wall_s"] for p in untraced]),
                "op_p50_s": _median([o["latency_s"] for p in untraced
                                     for o in p["ops"]]),
                "speed": _median([o["speed"] for p in untraced
                                  for o in p["ops"]])},
        "ops_failed_frac": len(failures) / len(ops),
        "failures": failures[:5],
    }
    # the p90 is reported only with at least ten samples beyond it
    if len(lat) >= 100:
        detail["op_p90_s"] = {"value": statistics.quantiles(lat, n=10)[-1],
                              "unit": "s", "samples": len(lat)}
    if trace:
        values = per_layer(by_kind)
        detail["counting_overhead_frac"] = (_wall(by_kind["counts"])
                                            / _wall(untraced) - 1)
        detail["ratios"] = {
            "certified_per_scan_clean": _ratio(values, "sieve.certified",
                                               "sieve.scan_clean"),
            "empty_per_certificate": _ratio(values,
                                            "graded.certificate_empty",
                                            "graded.certificate_calls")}
        detail["absent"] = sorted({n for k in cycle[1:] for p in by_kind[k]
                                   for n in p["absent"]})
    else:
        values = {m: (v, E2E_UNITS[m])
                  for m, v in end_to_end(untraced).items()}
    result = {"correct": not failures, "attempted": len(ops),
              "failed": len(failures),
              "metrics": {m: {"value": v, "unit": u}
                          for m, (v, u) in values.items()}}
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "smoothsieve" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'smoothsieve'} not found; run from "
                 f"a smoothsieve checkout")

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        detail, results[name] = run_workload(name, args.seed, args.seconds,
                                             args.trace)
        print(json.dumps({"detail": detail}))
        print(json.dumps(results[name]))
    if len(names) > 1:
        # one record over every workload, metrics named workload.metric
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))


if __name__ == "__main__":
    main()
