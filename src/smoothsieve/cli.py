"""Command-line front end: scheme files in, deterministic JSON/CSV
reports out.

Exit codes: 0 success, 1 errors (including usage and exhausted searches),
2 certified-failure outcomes such as an embedding obstruction witness.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from . import gf, sieve, variety, zeta
from .sieve import EmbedResult, NoSmoothHypersurfaceFound

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


class ValueTooLarge(gf.SmoothsieveError):
    """An exact value with more digits than Python prints an integer with
    (`sys.get_int_max_str_digits`)."""


def _exact_string(value):
    try:
        return str(value)
    except ValueError as exc:
        bits = max(value.numerator.bit_length(),
                   value.denominator.bit_length())
        digits = int(bits * math.log10(2)) + 1
        raise ValueTooLarge(
            f"the exact value has about {digits} digits, over the limit of "
            f"{sys.get_int_max_str_digits()} for printing an integer") from exc


@dataclass
class RunConfig:
    subcommand: str
    scheme: str | None = None
    q: int | None = None
    degrees: tuple = ()
    budget: tuple = ("exhaustive",)
    seed: int = 0
    sing_bound: int | None = None
    ell_max: int = 3
    exact: bool | None = None
    out: str = "json"
    max_degree: int | None = None
    r: int = 2
    s_values: tuple = ()
    ell: int | None = None
    target_dim: int = 2
    d_max: int = 8
    d_min: int = 1
    samples: int | None = None
    mode: str | None = None
    cap: int = sieve.DEFAULT_CAP

    def echo(self):
        out = {"subcommand": self.subcommand, "seed": self.seed,
               "out": self.out}
        if self.scheme:
            out["scheme"] = self.scheme
        if self.q is not None:
            out["q"] = self.q
        if self.degrees:
            out["degrees"] = list(self.degrees)
        if self.subcommand in ("estimate", "singdist"):
            out["budget"] = _budget_string(self.budget)
            out["sing_bound"] = self.sing_bound
            out["exact"] = self.exact
        if self.subcommand in ("singdist",):
            out["ell_max"] = self.ell_max
            out["mode"] = self.mode
        if self.subcommand == "lowdeg":
            out["r"] = self.r
            if self.samples:
                out["samples"] = self.samples
            if self.degrees:
                out["d"] = self.degrees[0]
        if self.subcommand == "zeta":
            out["s"] = list(self.s_values)
            if self.ell is not None:
                out["ell"] = self.ell
        if self.subcommand == "embed":
            out["target_dim"] = self.target_dim
            out["d_max"] = self.d_max
            out["d_min"] = self.d_min
        if self.max_degree is not None:
            out["max_degree"] = self.max_degree
        return out


def _budget_string(budget):
    return "exhaustive" if budget[0] == "exhaustive" else f"sample:{budget[1]}"


def _parse_budget(text):
    if text == "exhaustive":
        return ("exhaustive",)
    if text.startswith("sample:"):
        n = text.split(":", 1)[1]
        if not n.isdigit() or int(n) < 1:
            raise UsageError(f"--budget sample:{n}: sample size must be a "
                             f"positive integer")
        return ("sample", int(n))
    raise UsageError(f"--budget {text!r}: expected 'exhaustive' or 'sample:N'")


def _parse_degrees(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        if not (lo.isdigit() and hi.isdigit()) or int(lo) > int(hi):
            raise UsageError(f"--degree {text!r}: expected D or LO..HI")
        return tuple(range(int(lo), int(hi) + 1))
    if not text.isdigit():
        raise UsageError(f"--degree {text!r}: expected D or LO..HI")
    return (int(text),)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built on first use and then shared by every
    `parse_args` call: parsing leaves it unchanged."""
    top = _Parser(prog="smoothsieve", add_help=True)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p, scheme_required=True):
        p.add_argument("--scheme", required=scheme_required,
                       help="scheme problem file")
        p.add_argument("--q", type=int, default=None,
                       help="override the base field size")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", choices=("json", "csv"), default="json")
        p.add_argument("--cap", type=int, default=sieve.DEFAULT_CAP)
        p.add_argument("--max-degree", type=int, default=None,
                       help="enumeration bound for point profiles")

    p = sub.add_parser("predict", help="exact zeta-product density")
    common(p)

    p = sub.add_parser("estimate", help="empirical smooth fraction over I_d")
    common(p)
    p.add_argument("--degree", "-d", required=True)
    p.add_argument("--budget", default="exhaustive")
    p.add_argument("--sing-bound", type=int, default=None)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", action="store_true", dest="exact", default=None)
    g.add_argument("--bounded", action="store_false", dest="exact")

    p = sub.add_parser("singdist", help="singular-point count distribution")
    common(p)
    p.add_argument("mode", choices=("predict", "estimate"))
    p.add_argument("--ell-max", type=int, default=3)
    p.add_argument("--degree", "-d", default=None)
    p.add_argument("--budget", default="exhaustive")
    p.add_argument("--sing-bound", type=int, default=None)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", action="store_true", dest="exact", default=None)
    g.add_argument("--bounded", action="store_false", dest="exact")

    p = sub.add_parser("lowdeg", help="low-degree smoothness density")
    common(p)
    p.add_argument("--r", type=int, required=True,
                   help="points of degree < r are checked")
    p.add_argument("--degree", "-d", default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="sample the fraction empirically from I_d")

    p = sub.add_parser("zeta", help="zeta special values of the scheme X")
    common(p)
    p.add_argument("--s", type=int, action="append", required=True)
    p.add_argument("--ell", type=int, default=None)

    p = sub.add_parser("embed", help="search for a smooth hypersurface chain "
                                     "containing the curve Z")
    common(p)
    p.add_argument("--target-dim", type=int, default=2)
    p.add_argument("--d-max", type=int, default=8)
    p.add_argument("--d-min", type=int, default=1)

    p = sub.add_parser("points", help="list closed points of X (or V)")
    common(p)
    return top


def parse_args(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    cfg = RunConfig(subcommand=ns.subcommand, scheme=ns.scheme, q=ns.q,
                    seed=ns.seed, out=ns.out, cap=ns.cap,
                    max_degree=ns.max_degree)
    if ns.max_degree is not None and ns.max_degree < 1:
        raise UsageError(f"--max-degree {ns.max_degree}: the bound must be a "
                         f"positive integer")
    if ns.subcommand in ("estimate", "singdist", "lowdeg"):
        deg = getattr(ns, "degree", None)
        if deg is not None:
            cfg.degrees = _parse_degrees(deg)
    if ns.subcommand in ("estimate", "singdist"):
        cfg.budget = _parse_budget(ns.budget)
        cfg.sing_bound = ns.sing_bound
        cfg.exact = ns.exact
        if ns.sing_bound is not None and ns.sing_bound < 1:
            raise UsageError(f"--sing-bound {ns.sing_bound}: the bound must "
                             f"be a positive integer")
    if ns.subcommand == "singdist":
        cfg.ell_max = ns.ell_max
        cfg.mode = ns.mode
        if ns.ell_max < 0:
            raise UsageError(f"--ell-max {ns.ell_max}: ell must be a "
                             f"nonnegative integer")
        if ns.mode == "estimate" and not cfg.degrees:
            raise UsageError("singdist estimate needs --degree")
    if ns.subcommand == "estimate" and not cfg.degrees:
        raise UsageError("estimate needs --degree")
    if ns.subcommand == "lowdeg":
        cfg.r = ns.r
        cfg.samples = ns.samples
        if ns.samples is not None:
            if ns.samples < 1:
                raise UsageError(f"--samples {ns.samples}: sample size must "
                                 f"be a positive integer")
            if not cfg.degrees:
                raise UsageError("lowdeg --samples needs --degree")
            if len(cfg.degrees) > 1:
                raise UsageError(f"--degree {ns.degree!r}: lowdeg --samples "
                                 f"needs a single degree D")
    if ns.subcommand == "zeta":
        cfg.s_values = tuple(ns.s)
        cfg.ell = ns.ell
        if ns.ell is not None and ns.ell < 0:
            raise UsageError(f"--ell {ns.ell}: ell must be a nonnegative "
                             f"integer")
    if ns.subcommand == "embed":
        cfg.target_dim = ns.target_dim
        cfg.d_max = ns.d_max
        cfg.d_min = ns.d_min
        if ns.d_min < 1:
            raise UsageError(f"--d-min {ns.d_min}: the degree must be a "
                             f"positive integer")
        if ns.d_min > ns.d_max:
            raise UsageError(f"--d-min {ns.d_min} exceeds --d-max {ns.d_max}: "
                             f"no degree to try")
    return cfg


# ---------------------------------------------------------------------------

def run(config: RunConfig):
    """Execute a validated config; returns (exit_code, report_dict)."""
    problem = variety.load_problem(config.scheme, config.q)
    report = {"schema": SCHEMA_VERSION, "command": config.subcommand,
              "config": config.echo()}
    code = 0
    if config.subcommand == "predict":
        rep = sieve.predict_density(problem, config.max_degree, config.cap)
        report["result"] = rep.to_json_dict()
    elif config.subcommand == "estimate":
        rep = sieve.estimate_density(problem, config.degrees, config.budget,
                                     config.sing_bound, config.exact,
                                     config.seed, config.cap)
        report["result"] = rep.to_json_dict()
    elif config.subcommand == "singdist":
        if config.mode == "predict":
            rep = sieve.predict_sing_dist(problem, config.ell_max,
                                          config.max_degree, config.cap)
        else:
            rep = sieve.estimate_sing_dist(problem, config.degrees,
                                           config.budget, config.sing_bound,
                                           config.ell_max, config.exact,
                                           config.seed, config.cap)
        report["result"] = rep.to_json_dict()
    elif config.subcommand == "lowdeg":
        value = sieve.low_degree_predictor(problem, config.r, config.cap)
        result = {"r": config.r, "predicted": _exact_string(value),
                  "approx": float(value)}
        if config.samples:
            est = sieve.estimate_low_degree(problem, config.r,
                                            config.degrees[0], config.samples,
                                            config.seed, config.cap)
            result["estimated"] = est.to_json_dict()
        report["result"] = result
    elif config.subcommand == "zeta":
        b = config.max_degree or ((problem.X.dim() or 1) + 2)
        prof = zeta.profile_from_scheme(problem.X, b, config.cap)
        values = []
        for s in config.s_values:
            if config.ell is None:
                values.append(zeta.zeta_value(prof, s).to_json_dict())
            else:
                ell_dict = zeta.zeta_ell(prof, config.ell, s).to_json_dict()
                ell_dict["ell"] = config.ell
                values.append(ell_dict)
        report["result"] = {"profile": prof.to_json_dict(), "values": values}
    elif config.subcommand == "embed":
        res = sieve.embed_curve(problem, config.target_dim, config.d_max,
                                config.seed, config.d_min, cap=config.cap)
        report["result"] = _embed_json(res, problem)
        if res.status == "obstructed":
            code = 2
    elif config.subcommand == "points":
        scheme = sieve.intersection_presentation(problem) or problem.X
        b = config.max_degree or 3
        pts = variety.enumerate_closed_points(scheme, b, config.cap)
        rows = []
        for P in pts:
            e_p = variety.embedding_dimension(scheme, P)
            rows.append({"degree": P.degree,
                         "representative": list(P.rep_strings()), "e": e_p})
        report["result"] = {"scheme": "V" if problem.Z is not None else "X",
                            "max_degree": b, "points": rows}
    return code, report


def _embed_json(res: EmbedResult, problem):
    out = {"status": res.status}
    if res.status == "obstructed":
        out["witness"] = {
            "degree": res.witness.degree,
            "representative": list(res.witness.rep_strings()),
            "embedding_dimension": res.witness_e,
        }
    else:
        out["chain"] = [{
            "degree": s.degree,
            "polynomial": s.poly.to_string(problem.aliases),
            "certificate": s.certificate.to_json_dict(),
            "tries": s.tries,
        } for s in res.steps]
        out["tries_per_degree"] = [
            {"step": i, "degree": d, "tries": t}
            for i, d, t in res.tries_per_degree]
        if res.flags:
            out["flags"] = list(res.flags)
    return out


def render(report: dict, out_format: str) -> str:
    if out_format == "json":
        return json.dumps(report, indent=2)
    # csv: one row per (d, metric)
    lines = ["d,metric,value"]
    result = report.get("result", {})
    per_degree = result.get("per_degree")
    if per_degree:
        for d, payload in per_degree.items():
            for metric, value in sorted(payload.items()):
                if isinstance(value, dict):
                    lines.append(f"{d},{metric},{value.get('fraction', value.get('count'))}")
                else:
                    lines.append(f"{d},{metric},{value}")
    else:
        for metric, value in result.items():
            if isinstance(value, (str, int, float)):
                lines.append(f",{metric},{value}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        code, report = run(config)
    except NoSmoothHypersurfaceFound as exc:
        print(json.dumps({"schema": SCHEMA_VERSION, "error":
                          "NoSmoothHypersurfaceFound", "d_max": exc.d_max,
                          "tries": [list(t) for t in exc.tries]}, indent=2))
        return 1
    except (gf.SmoothsieveError, FileNotFoundError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    print(render(report, config.out))
    return code


if __name__ == "__main__":
    sys.exit(main())
