"""Traced benchmark runs end with a result line.

`perfbench/run.py --trace 1` must exit 0 and print, as its last stdout
line, a JSON record whose metrics are all finite numbers: a line printed
after the result, or a NaN or infinite metric, makes the run unreadable.
One pass of each workload at `--seconds 0` takes a few seconds; f2_scan
and generic_q run `lowdeg` ops, f2_exact and predict_embed the exact
scans, predictions and embeddings.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _refuse(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


@pytest.mark.parametrize("workload", ["f2_exact", "f2_scan", "generic_q",
                                      "predict_embed"])
def test_traced_run_ends_with_a_finite_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1],
                        parse_constant=_refuse)
    assert result["correct"] is True
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), name
