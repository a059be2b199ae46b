"""Workload definitions: the operations of one pass, the untimed warm-ups,
seed derivation and the scan-cache guard.

An operation is a dict with
  argv   -- smoothsieve command-line arguments, without --seed
  check  -- name of the output check in checks.py
  expect -- data for that check (optional)
  scan   -- True when the op classifies candidate forms (counts in forms_per_s)
  key    -- for exhaustive scans, the seed-independent scan arguments

This module imports nothing from smoothsieve, so the driver process stays
small; the worker process imports the package.
"""

from __future__ import annotations

import random

SCHEMES = "schemes"
QUADRIC = "perfbench/fixtures/quadric.scm"

# Exhaustive exact counts over F_2, confirmed by tests/oracles.py.
P2_EXACT = {3: (336, 1024), 4: (10920, 32768)}


def _scheme(name):
    return f"{SCHEMES}/{name}.scm"


def exhaustive(command, scheme, q, d, bound, exact, check="recorded",
               expect=None):
    """estimate / singdist estimate over all of I_d."""
    head = ["estimate"] if command == "estimate" else ["singdist", "estimate"]
    argv = head + ["--scheme", scheme, "--q", str(q), "-d", str(d),
                   "--budget", "exhaustive", "--sing-bound", str(bound),
                   "--exact" if exact else "--bounded"]
    return {"argv": argv, "check": check, "expect": expect, "scan": True,
            "key": [scheme, q, d, bound, exact]}


def sampled(scheme, d, n, bound=None, q=None):
    argv = ["estimate", "--scheme", scheme, "-d", str(d),
            "--budget", f"sample:{n}"]
    if q is not None:
        argv += ["--q", str(q)]
    if bound is not None:
        argv += ["--sing-bound", str(bound)]
    return {"argv": argv, "check": "sampled", "expect": n, "scan": True}


def lowdeg(scheme, r, d, n, q=None):
    argv = ["lowdeg", "--scheme", scheme, "--r", str(r), "-d", str(d),
            "--samples", str(n)]
    if q is not None:
        argv += ["--q", str(q)]
    return {"argv": argv, "check": "lowdeg", "expect": n, "scan": True}


def op(argv, check, expect=None):
    return {"argv": list(argv), "check": check, "expect": expect,
            "scan": False}


# ---------------------------------------------------------------------------
# One pass per workload.  `choose(a, b)` picks one of two equivalent commands
# from the workload seed; both run the same scan.

def _f2_exact(choose):
    ops = []
    # Small sing bounds leave more scan-clean candidates to the slow
    # certificate; at B = 6 the fast one settles all of them.  Two
    # millisecond d = 3 ops sit below the d = 4 scan at B = 6 and two
    # slower ones above it, so op_p50_s is that scan's time rather than a
    # point in a gap between op sizes.
    for d, bounds in ((3, (1, 2)), (4, (1, 2, 6))):
        for b in bounds:
            ops.append(exhaustive(choose("estimate", "singdist"),
                                  _scheme("p2"), 2, d, b, True,
                                  check="p2_exact", expect=P2_EXACT[d]))
    warm = [exhaustive("estimate", _scheme("p2"), 2, 2, 2, True,
                       check="ok"),
            exhaustive("singdist", _scheme("p2"), 2, 2, 3, True, check="ok")]
    return ops, warm


def _f2_scan(choose):
    ops = [exhaustive(choose("estimate", "singdist"), _scheme("p2"), 2, 5, b,
                      False) for b in (3, 6)]
    ops += [exhaustive(choose("estimate", "singdist"), _scheme(s), 2, 3, 4,
                       False) for s in ("nodal_cubic", "cuspidal_cubic")]
    ops += [sampled(_scheme("p2"), 9, 2000, bound=6),
            lowdeg(_scheme("p2"), 2, 25, 20000),
            lowdeg(_scheme("p2"), 3, 25, 20000)]
    warm = [exhaustive("estimate", _scheme("p2"), 2, 4, 2, False, check="ok"),
            exhaustive("singdist", _scheme("p2"), 2, 4, 3, False, check="ok"),
            sampled(_scheme("p2"), 6, 50, bound=3),
            lowdeg(_scheme("p2"), 2, 10, 100)]
    return ops, warm


def _generic_q(choose):
    ops = [exhaustive(choose("estimate", "singdist"), _scheme("p2"), 3, 2, b,
                      False) for b in (2, 3)]
    ops += [sampled(_scheme("p2"), 3, 100, q=3),
            sampled(_scheme("p2"), 4, 60, q=3),
            sampled(_scheme("p2"), 2, 50, q=4),
            sampled(_scheme("p2"), 3, 40, q=4),
            # d = 8 is above the interpolation threshold of the eight
            # 2-jet conditions at the four points of P^1(F_3), so the
            # sampled fraction is an exact Bernoulli of the prediction.
            lowdeg(_scheme("p1"), 2, 8, 2000, q=3)]
    warm = [exhaustive("estimate", _scheme("p2"), 3, 1, 2, False, check="ok"),
            exhaustive("singdist", _scheme("p2"), 3, 1, 1, False, check="ok"),
            sampled(_scheme("p2"), 2, 5, q=5),
            lowdeg(_scheme("p1"), 2, 8, 50, q=5)]
    return ops, warm


def _predict_embed(choose):
    ops = [op(["predict", "--scheme", _scheme("nodal_cubic")], "predict",
              "15/128"),
           op(["predict", "--scheme", _scheme("cuspidal_cubic")], "predict",
              "3/32"),
           op(["predict", "--scheme", _scheme("nonreduced_line")],
              "violated", 2),
           op(["predict", "--scheme", _scheme("p1"), "--q", "2"],
              "predict_pn", [2, 1]),
           op(["predict", "--scheme", _scheme("p2"), "--q", "3"],
              "predict_pn", [3, 2]),
           op(["singdist", "predict", "--scheme", _scheme("p2"), "--q", "2",
               "--ell-max", "2"], "singdist_p2", 2),
           op(["zeta", "--scheme", _scheme("p2"), "--s", "3", "--s", "4"],
              "zeta_pn", [2, 2]),
           op(["points", "--scheme", _scheme("nodal_cubic"),
               "--max-degree", "5"], "recorded")]
    for scheme in ("nodal_cubic", "cuspidal_cubic"):
        for d_min in (1, 2, 3):
            ops.append(op(["embed", "--scheme", _scheme(scheme), "--d-min",
                           str(d_min)], "embedded"))
    ops += [op(["embed", "--scheme", _scheme("obstructed_axes")],
               "obstructed", 3),
            op(["predict", "--scheme", _scheme("nodal_cubic"), "--q", "4"],
               "refused", "EnumerationCapExceeded")]
    ops += [exhaustive(choose("estimate", "singdist"), QUADRIC, 2, 2, b, True)
            for b in (2, 3)]
    warm = [op(["predict", "--scheme", _scheme("p1"), "--q", "11"], "ok"),
            op(["singdist", "predict", "--scheme", _scheme("p1"), "--q", "3",
                "--ell-max", "1"], "ok"),
            op(["zeta", "--scheme", _scheme("p1"), "--s", "3"], "ok"),
            op(["points", "--scheme", _scheme("cuspidal_cubic"),
                "--max-degree", "2"], "ok"),
            op(["embed", "--scheme", _scheme("cuspidal_cubic"),
                "--target-dim", "3"], "embedded"),
            exhaustive("estimate", QUADRIC, 2, 1, 2, True, check="ok")]
    return ops, warm


WORKLOADS = {
    "f2_exact": _f2_exact,
    "f2_scan": _f2_scan,
    "generic_q": _generic_q,
    "predict_embed": _predict_embed,
}


class GuardError(ValueError):
    """The op list would let the in-process scan cache answer a timed op."""


class SeedStream:
    """Fresh 31-bit op seeds derived from the workload seed; no repeats."""

    def __init__(self, workload, seed):
        self._rng = random.Random(f"{workload}/{seed}")
        self._used = set()

    def choose(self, a, b):
        return a if self._rng.random() < 0.5 else b

    def fresh(self):
        while True:
            s = self._rng.getrandbits(31)
            if s not in self._used:
                self._used.add(s)
                return s


def plan_pass(workload, seeds: SeedStream):
    """Ops and warm-ups for one pass (one fresh process), seeds attached."""
    ops, warm = WORKLOADS[workload](seeds.choose)
    for o in warm + ops:
        o["argv"] = o["argv"] + ["--seed", str(seeds.fresh())]
    check_guard(ops, warm)
    return ops, warm


def _unseeded(o):
    argv = o["argv"]
    i = argv.index("--seed")
    return tuple(argv[:i] + argv[i + 2:])


def check_guard(ops, warm):
    """Within one process no two timed exhaustive scans share their
    seed-independent arguments, and no warm-up repeats a timed op."""
    keys = [tuple(o["key"]) for o in ops if "key" in o]
    if len(keys) != len(set(keys)):
        raise GuardError(f"timed exhaustive scans repeat a key: {keys}")
    timed = {_unseeded(o) for o in ops}
    for w in warm:
        if _unseeded(w) in timed or tuple(w.get("key", ())) in set(keys):
            raise GuardError(f"warm-up repeats a timed op: {w['argv']}")

