"""Per-layer tracing from outside the program.

A layer is a smoothsieve module.  `Tracer.install` wraps public functions
and methods of each module: coarse entry points record spans (name,
start, end, parent span, op id); with `counting`, hot ones also count
calls.  Counting millions of field operations costs more than the work
it counts and would inflate the callers' self times, so self times come
from passes without counting and counts from passes with it.  Spans stay
in memory until the pass ends.  A name missing from the installed package is
listed as absent and the metrics that need it are left out, so the traced
run keeps working when later code removes or renames functions.

Self time of a span is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

MODULES = ("gf", "mpoly", "graded", "variety", "zeta", "sieve", "cli")

# module -> wrapped names that record spans
SPANS = {
    "cli": ("run", "render"),
    "sieve": ("predict_density", "predict_sing_dist", "low_degree_predictor",
              "estimate_density", "estimate_sing_dist", "estimate_low_degree",
              "candidate_space", "embed_curve", "verify_chain"),
    "variety": ("load_problem", "enumerate_closed_points", "raw_point_count",
                "closed_point_count", "stratify", "embedding_dimension",
                "effective_generators", "is_smooth_at"),
    "graded": ("GradedIdeal.piece", "GradedIdeal.saturated_piece",
               "GradedIdeal.contains", "GradedIdeal.is_projectively_empty",
               "GradedIdeal.find_point"),
    "zeta": ("profile_from_scheme", "profile_from_counts",
             "fit_count_polynomial", "zeta_value", "zeta_ell",
             "sym_coefficients", "sym_total"),
}

# counter -> wrapped names whose calls it counts
COUNTS = {
    "graded.ideals": ("graded.GradedIdeal.__init__",),
    "mpoly.evaluate_calls": ("mpoly.MPoly.evaluate_codes",),
    "mpoly.point_iter_calls": ("mpoly.normalized_projective_points",),
    "gf.field_ops": tuple(f"gf.FieldSpec.{m}" for m in
                          ("add", "sub", "neg", "mul", "inv", "pow",
                           "frobenius")),
    "gf.make_field_calls": ("gf.make_field",),
    "sieve.scan_results": ("sieve.ScanResult",),
}


def _points_seen(result, counts):
    counts["variety.points"] += len(result)


def _certificate_seen(result, counts):
    counts["graded.certificate_empty"] += result.status == "empty"


def _scan_seen(result, counts):
    if "exact-certificates" in result.flags:
        counts["sieve.scan_clean"] += result.smooth_count + result.unresolved


# wrapped name -> callback on its return value
OBSERVE = {
    "variety.enumerate_closed_points": _points_seen,
    "graded.GradedIdeal.is_projectively_empty": _certificate_seen,
    "sieve.ScanResult": _scan_seen,
}


def _self(name):
    return {"self": name}


def _incl(*names):
    return {"incl": names}


def _calls(name):
    return {"calls": name}


def _count(name, needs):
    return {"count": name, "needs": needs}


# per-layer metric -> (unit, source).  Report counts come from the op
# outputs, not from wrappers, and are always present.
LAYER_METRICS = {
    "sieve.self_s": ("s", {"module": "sieve"}),
    "sieve.candidate_space_s": ("s", _incl("sieve.candidate_space")),
    "sieve.forms": ("count", {"report": "forms"}),
    "sieve.certified": ("count", {"report": "certified"}),
    "sieve.scan_clean": ("count", _count("sieve.scan_clean",
                                         "sieve.ScanResult")),
    "sieve.embed_tries": ("count", {"report": "embed_tries"}),
    "variety.self_s": ("s", {"module": "variety"}),
    "variety.enumerate_s": ("s", _incl("variety.enumerate_closed_points")),
    "variety.enumerate_calls": ("count",
                                _calls("variety.enumerate_closed_points")),
    "variety.points": ("count", _count("variety.points",
                                       "variety.enumerate_closed_points")),
    "variety.stratify_s": ("s", _incl("variety.stratify")),
    "variety.embedding_dimension_calls": (
        "count", _calls("variety.embedding_dimension")),
    "graded.self_s": ("s", {"module": "graded"}),
    "graded.ideals": ("count", _count("graded.ideals",
                                      "graded.GradedIdeal.__init__")),
    "graded.certificate_calls": (
        "count", _calls("graded.GradedIdeal.is_projectively_empty")),
    "graded.certificate_empty": (
        "count", _count("graded.certificate_empty",
                        "graded.GradedIdeal.is_projectively_empty")),
    "graded.certificate_s": (
        "s", _self("graded.GradedIdeal.is_projectively_empty")),
    "graded.saturated_piece_s": (
        "s", _incl("graded.GradedIdeal.saturated_piece")),
    "graded.contains_s": ("s", _incl("graded.GradedIdeal.contains")),
    "mpoly.evaluate_calls": ("count", _count("mpoly.evaluate_calls",
                                             "mpoly.MPoly.evaluate_codes")),
    "mpoly.point_iter_calls": (
        "count", _count("mpoly.point_iter_calls",
                        "mpoly.normalized_projective_points")),
    "zeta.self_s": ("s", {"module": "zeta"}),
    "zeta.profile_s": ("s", _incl("zeta.profile_from_scheme",
                                  "zeta.profile_from_counts")),
    "zeta.value_s": ("s", _incl("zeta.zeta_value", "zeta.zeta_ell")),
    "gf.field_ops": ("count", _count("gf.field_ops", "gf.FieldSpec.mul")),
    "gf.make_field_calls": ("count", _count("gf.make_field_calls",
                                            "gf.make_field")),
    "cli.run_s": ("s", _self("cli.run")),
    "cli.render_s": ("s", _incl("cli.render")),
}


class Tracer:
    def __init__(self, counting):
        self.counting = counting
        self.spans = []        # [name, start, end, parent index or -1, op id]
        self.counts = Counter()
        self.op_id = None
        self.installed = set()
        self.absent = []
        self._stack = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVE.get(name)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if observe:
                observe(result, counts)
            return result
        return wrapper

    def _count_wrapper(self, name, counter, fn):
        counts = self.counts
        observe = OBSERVE.get(name)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            result = fn(*args, **kwargs)
            if observe:
                observe(result, counts)
            return result
        return wrapper

    def install(self):
        """Wrap every listed name that exists in the imported package."""
        mods = {m: importlib.import_module(f"smoothsieve.{m}")
                for m in MODULES}
        for module, names in SPANS.items():
            for name in names:
                full = f"{module}.{name}"
                self._patch(mods, full,
                            lambda fn, full=full: self._span_wrapper(full, fn))
        if not self.counting:
            return
        for counter, fulls in COUNTS.items():
            for full in fulls:
                self._patch(mods, full, lambda fn, full=full, c=counter:
                            self._count_wrapper(full, c, fn))

    def _patch(self, mods, full, make):
        module, *path = full.split(".")
        owner = mods[module]
        try:
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = vars(owner)[path[-1]]
        except (AttributeError, KeyError):
            self.absent.append(full)
            return
        wrapper = make(orig)
        if isinstance(owner, type):
            setattr(owner, path[-1], wrapper)
        else:
            # rebind every alias, e.g. `from .variety import stratify`
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
        self.installed.add(full)

    # -- results ------------------------------------------------------------

    def values(self, report_counts):
        """Per-layer metric values of this pass; absent metrics left out."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_by = Counter()
        module_self = Counter()
        calls = Counter()
        for i, (name, t0, t1, _, _) in enumerate(spans):
            own = t1 - t0 - child[i]
            self_by[name] += own
            module_self[name.split(".", 1)[0]] += own
            calls[name] += 1
        out = {}
        for metric, (_, src) in LAYER_METRICS.items():
            if "report" in src:
                out[metric] = report_counts[src["report"]]
            elif "module" in src:
                if any(n.startswith(src["module"] + ".")
                       for n in self.installed):
                    out[metric] = module_self[src["module"]]
            elif "self" in src:
                if src["self"] in self.installed:
                    out[metric] = self_by[src["self"]]
            elif "incl" in src:
                if all(n in self.installed for n in src["incl"]):
                    out[metric] = self._inclusive(set(src["incl"]))
            elif "calls" in src:
                if src["calls"] in self.installed:
                    out[metric] = calls[src["calls"]]
            elif src["needs"] in self.installed:
                out[metric] = self.counts[src["count"]]
        return out

    def _inclusive(self, names):
        """Total duration of spans in `names` not nested in another one."""
        spans = self.spans
        total = 0.0
        for name, t0, t1, parent, _ in spans:
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                total += t1 - t0
        return total

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counts": self.counts,
                                 "absent": self.absent}) + "\n")
