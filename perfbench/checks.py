"""Output checks, one per op kind.  A check raises CheckFailed; the worker
counts that op as failed.

Closed forms used here: for P^n over F_q the smooth density is
prod_{j=1..n+1} (1 - q^-j), zeta_{P^n}(s) = prod_{i=0..n} 1/(1 - q^(i-s)),
and the plane-curve ell = 1 entry is (q^3 - 1)(q^2 - 1)/q^6.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from smoothsieve import mpoly, sieve, variety

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# the acceptance module's tolerance for sampled low-degree fractions
SIGMAS = 4


class CheckFailed(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def unseeded(argv):
    i = argv.index("--seed")
    return " ".join(argv[:i] + argv[i + 2:])


def summarize(argv, report):
    """Seed-independent counts of an exhaustive scan or a point listing."""
    result = report["result"]
    if argv[0] == "points":
        return [[p["degree"], p["e"]] for p in result["points"]]
    per_degree = result["per_degree"]
    if argv[0] == "estimate":
        return {d: [v["count_smooth"], v["count_total"]]
                for d, v in per_degree.items()}
    return {d: {label: v["count"] for label, v in hist.items()}
            for d, hist in per_degree.items()}


def _pn_density(q, n):
    out = Fraction(1)
    for j in range(1, n + 2):
        out *= 1 - Fraction(1, q ** j)
    return out


def _pn_zeta(q, n, s):
    out = Fraction(1)
    for i in range(n + 1):
        out /= 1 - Fraction(q ** i, q ** s)
    return out


def _estimate_counts(argv, result):
    """(count_smooth, count_total) of a single-degree estimate or singdist."""
    if argv[0] == "estimate":
        v = result["value"]
        return v["count_smooth"], v["count_total"]
    (hist,) = result["per_degree"].values()
    return hist["0"]["count"], sum(h["count"] for h in hist.values())


class Checker:
    def __init__(self):
        self._expected = None

    def expected(self, argv):
        if self._expected is None:
            self._expected = json.loads(EXPECTED_FILE.read_text())
        key = unseeded(argv)
        _require(key in self._expected, f"no recorded value for {key!r}")
        return self._expected[key]

    def check(self, o, code, report, error):
        """Raise CheckFailed unless the op's outcome is the expected one."""
        kind = o["check"]
        if kind == "refused":
            _require(error is not None and type(error).__name__ == o["expect"],
                     f"expected {o['expect']}, got {error!r}")
            return
        if error is not None:
            raise CheckFailed(f"{type(error).__name__}: {error}")
        want_code = 2 if kind == "obstructed" else 0
        _require(code == want_code, f"exit code {code}, want {want_code}")
        getattr(self, "_" + kind)(o, report["result"], report)

    def _ok(self, o, result, report):
        pass

    def _recorded(self, o, result, report):
        got = summarize(o["argv"], report)
        _require(got == self.expected(o["argv"]), f"counts {got} differ "
                 f"from the recorded ones")

    def _p2_exact(self, o, result, report):
        got = _estimate_counts(o["argv"], result)
        _require(list(got) == list(o["expect"]),
                 f"smooth/total {got}, want {o['expect']}")

    def _sampled(self, o, result, report):
        _require(result["value"]["count_total"] == o["expect"],
                 f"{result['value']['count_total']} samples, want {o['expect']}")

    def _lowdeg(self, o, result, report):
        est = result["estimated"]
        n = est["count_total"]
        _require(n == o["expect"], f"{n} samples, want {o['expect']}")
        p = float(Fraction(result["predicted"]))
        dev = abs(est["count_smooth"] / n - p)
        limit = SIGMAS * math.sqrt(p * (1 - p) / n)
        _require(dev <= limit, f"|estimate - prediction| = {dev:.5f} > "
                 f"{SIGMAS} sigma = {limit:.5f}")

    def _predict(self, o, result, report):
        _require(result["value"] == o["expect"],
                 f"density {result['value']}, want {o['expect']}")

    def _predict_pn(self, o, result, report):
        q, n = o["expect"]
        want = str(_pn_density(q, n))
        _require(result["value"] == want, f"density {result['value']}, "
                 f"want {want}")

    def _violated(self, o, result, report):
        hc = result["hypothesis_check"]
        _require(result["value"] == "0" and hc["status"] == "violated"
                 and hc.get("e") == o["expect"],
                 f"want density 0 violated at e={o['expect']}, got {result}")

    def _singdist_p2(self, o, result, report):
        q = o["expect"]
        entries = result["entries"]
        want0 = str(_pn_density(q, 2))
        want1 = str(Fraction((q ** 3 - 1) * (q ** 2 - 1), q ** 6))
        _require(entries["0"]["value"] == want0
                 and entries["1"]["value"] == want1,
                 f"ell 0/1 entries {entries['0']['value']}, "
                 f"{entries['1']['value']}; want {want0}, {want1}")

    def _zeta_pn(self, o, result, report):
        q, n = o["expect"]
        argv = o["argv"]
        s_values = [int(argv[i + 1]) for i, a in enumerate(argv) if a == "--s"]
        got = [v["exact"] for v in result["values"]]
        want = [str(_pn_zeta(q, n, s)) for s in s_values]
        _require(got == want, f"zeta values {got}, want {want}")

    def _obstructed(self, o, result, report):
        _require(result["status"] == "obstructed"
                 and result["witness"]["embedding_dimension"] == o["expect"],
                 f"want an obstruction with e = {o['expect']}, got {result}")

    def _embedded(self, o, result, report):
        _require(result["status"] == "success", f"status {result['status']}")
        cfg = report["config"]
        problem = variety.load_problem(cfg["scheme"], cfg.get("q"))
        steps = tuple(
            sieve.EmbedStep(s["degree"],
                            mpoly.parse_homogeneous(s["polynomial"],
                                                    problem.field,
                                                    problem.nvars,
                                                    problem.aliases),
                            None, s["tries"])
            for s in result["chain"])
        _require(sieve.verify_chain(problem, sieve.EmbedResult("success",
                                                               steps)),
                 "verify_chain rejected the reported chain")
