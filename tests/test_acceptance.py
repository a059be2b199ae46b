"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live).

The exhaustive plane-curve scans are shared across criteria through a
module-scoped fixture; the full module takes about 15-20 s, most of it
the test-side oracle of criterion 4.
"""

import json
from fractions import Fraction

import pytest

import oracles
from smoothsieve import cli, gf, sieve, variety, zeta
from smoothsieve.variety import SchemePresentation, load_problem

TARGET = Fraction(21, 64)
TOLERANCE = Fraction(5, 100)  # design choice, flagged in the report lines


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def plane_runs(schemes_dir):
    """Exhaustive exact-mode scans of plane curves over F_2, d = 3, 4, 5."""
    prob = load_problem(schemes_dir / "p2.scm")
    density = sieve.estimate_density(prob, [3, 4, 5], ("exhaustive",),
                                     sing_bound=6, exact=True)
    dist = sieve.estimate_sing_dist(prob, [5], ("exhaustive",), sing_bound=6,
                                    ell_max=2, exact=True)
    return prob, density, dist


def test_criterion_1_nodal_cubic_prediction(schemes_dir):
    import time
    t0 = time.time()
    prob = load_problem(schemes_dir / "nodal_cubic.scm")
    rep = sieve.predict_density(prob)
    factors = {(f.part, f.s): f.value for f in rep.factors}
    ok = (rep.value == Fraction(15, 128)
          and factors == {("X-V", 4): Fraction(128, 45),
                          ("V_1", 2): Fraction(3, 2),
                          ("V_2", 1): Fraction(2)}
          and time.time() - t0 < 10)
    _report(1, ok, f"predict = {rep.value} from factors "
                   f"zeta_X-V(4), zeta_V1(2), zeta_V2(1) = "
                   f"{[str(v) for v in factors.values()]} "
                   f"in {time.time() - t0:.1f}s (< 10 s)")


def test_criterion_2_plane_curve_distribution(schemes_dir):
    import time
    t0 = time.time()
    prob = load_problem(schemes_dir / "p2.scm")
    rep = sieve.predict_sing_dist(prob, 1)
    entries = dict(rep.entries)
    ok = entries[0] == TARGET and entries[1] == TARGET
    identity = []
    for q in (2, 3, 4, 5):
        pq = load_problem(schemes_dir / "p2.scm", q_override=q)
        got = dict(sieve.predict_sing_dist(pq, 1).entries)[1]
        identity.append(got == Fraction((q ** 3 - 1) * (q * q - 1), q ** 6))
    ok = ok and all(identity) and time.time() - t0 < 10
    _report(2, ok, f"ell=0 -> {entries[0]}, ell=1 -> {entries[1]}; "
                   f"(q^3-1)(q^2-1)/q^6 identity exact for q in 2..5; "
                   f"{time.time() - t0:.1f}s (< 10 s)")


def test_criterion_3_degenerate_branch(schemes_dir):
    import time
    t0 = time.time()
    prob = load_problem(schemes_dir / "nonreduced_line.scm")
    rep = sieve.predict_density(prob)
    hc = rep.hypothesis_check
    ok = (rep.value == 0 and hc.status == "violated" and hc.e == 2
          and time.time() - t0 < 10)
    _report(3, ok, f"predict = {rep.value}, hypothesis violated at e={hc.e} "
                   f"(dim {hc.dim}); {time.time() - t0:.1f}s (< 10 s)")


def test_criterion_4_empirical_convergence(plane_runs):
    prob, density, dist = plane_runs
    fractions = {d: v.fraction for d, v in density.per_degree}
    close = abs(fractions[5] - TARGET) <= TOLERANCE
    agree = True
    for d in (3, 4):
        smooth = oracles.f2_plane_curve_oracle(d, e_max=6)
        agree = agree and int(smooth.sum()) == dict(density.per_degree)[d].count_smooth
        # every oracle-smooth candidate is certified by the main path, so
        # equal counts force equal sets
        agree = agree and bool(sieve._certify_smooth(
            prob, d, oracles.index_digits(sieve.candidate_space(prob, d),
                                          smooth.nonzero()[0].tolist())
        ).all())
    ok = close and agree
    _report(4, ok, f"smooth fractions {{d: f}} = "
                   f"{{3: {float(fractions[3]):.4f}, 4: {float(fractions[4]):.4f}, "
                   f"5: {float(fractions[5]):.4f}}}; |f(5) - 21/64| = "
                   f"{float(abs(fractions[5] - TARGET)):.4f} <= 0.05 "
                   f"(tolerance is a design choice); oracle agreement exact "
                   f"at d = 3, 4")


def test_criterion_5_ell_distribution(plane_runs):
    prob, density, dist = plane_runs
    (d, rows), = dist.per_degree
    hist = {label: fr for label, cnt, fr in rows}
    total = sum(fr for fr in hist.values())
    ell1 = hist["1"]
    ok = abs(ell1 - TARGET) <= TOLERANCE and total == 1
    _report(5, ok, f"d=5 ell=1 fraction = {float(ell1):.4f}, "
                   f"|ell1 - 21/64| = {float(abs(ell1 - TARGET)):.4f} <= 0.05; "
                   f"histogram sums to {total} exactly")


def test_criterion_6_low_degree_lemma(schemes_dir):
    import time
    t0 = time.time()
    prob = load_problem(schemes_dir / "p2.scm")
    n = 10 ** 5
    est = sieve.estimate_low_degree(prob, 2, 25, n, seed=20240901)
    p = Fraction(7, 8) ** 7
    sigma = (float(p) * (1 - float(p)) / n) ** 0.5
    dev = abs(float(est.fraction) - float(p))
    ok = dev <= 4 * sigma and time.time() - t0 < 60
    _report(6, ok, f"sampled {float(est.fraction):.5f} vs (7/8)^7 = "
                   f"{float(p):.5f}; |dev| = {dev:.5f} <= 4 sigma = "
                   f"{4 * sigma:.5f}; {time.time() - t0:.1f}s (< 1 min)")


def test_criterion_7_embedder_end_to_end(schemes_dir):
    import time
    t0 = time.time()
    nodal = load_problem(schemes_dir / "nodal_cubic.scm")
    res = sieve.embed_curve(nodal, 2, 8, seed=0)
    ok = res.status == "success" and sieve.verify_chain(nodal, res, e_max=4)
    # a second run forced past the trivial hyperplane answer
    res3 = sieve.embed_curve(nodal, 2, 8, seed=0, d_min=3)
    ok = ok and res3.status == "success" and sieve.verify_chain(nodal, res3,
                                                                e_max=4)
    code, report = cli.run(cli.parse_args(
        ["embed", "--scheme", str(schemes_dir / "obstructed_axes.scm"),
         "--target-dim", "2"]))
    wit = report["result"].get("witness", {})
    ok = (ok and code == 2 and wit.get("embedding_dimension") == 3
          and time.time() - t0 < 600)
    _report(7, ok, f"chains of degree {[s.degree for s in res.steps]} and "
                   f"{[s.degree for s in res3.steps]} re-verified from "
                   f"scratch; obstruction witness exits 2 with e = "
                   f"{wit.get('embedding_dimension')}; "
                   f"{time.time() - t0:.1f}s (< 10 min)")


def test_criterion_8_invariant_suites(schemes_dir):
    import time
    t0 = time.time()
    details = []

    # Moebius identity on every fixture, e <= 4
    mob_ok = True
    for name in ("p1.scm", "p2.scm", "nodal_cubic.scm", "cuspidal_cubic.scm",
                 "nonreduced_line.scm", "obstructed_axes.scm"):
        prob = load_problem(schemes_dir / name)
        scheme = sieve.intersection_presentation(prob) or prob.X
        pts = variety.enumerate_closed_points(scheme, 4)
        for e in range(1, 5):
            n_e = variety.raw_point_count(scheme, e)
            mob_ok = mob_ok and n_e == sum(P.degree for P in pts
                                           if e % P.degree == 0)
    details.append(f"Moebius: {mob_ok}")

    # Sym decomposition against brute-force zero-cycle enumeration
    sym_ok = True
    for nvars in (2, 3):
        X = SchemePresentation(gf.make_field(2), nvars)
        prof = zeta.profile_from_scheme(X, 8)
        table = oracles.sym_coefficients(prof, 8, 8)
        totals = oracles.sym_total(prof, 8)
        degrees = [P.degree for P in variety.enumerate_closed_points(X, 8)]
        oracle = oracles.zero_cycles_by_support(degrees, 8)
        for n in range(9):
            sym_ok = sym_ok and sum(table[n]) == totals[n]
            sym_ok = sym_ok and all(table[n][l] == oracle[n][l]
                                    for l in range(9))
    details.append(f"Sym decomposition: {sym_ok}")

    # monotone truncated Euler products
    mono_ok = True
    full = zeta.CountProfile(2, 2, (), ((1, 2), (1, 1), (1, 0)))
    lowers = []
    for b in range(1, 7):
        trunc = zeta.CountProfile(
            2, 2, tuple(full.a_d(d) for d in range(1, b + 1)), None)
        lowers.append(zeta.zeta_value(trunc, 3).lower)
    mono_ok = lowers == sorted(lowers)
    details.append(f"monotone Euler partials: {mono_ok}")

    # chart independence and Galois stability on the nodal curve
    geo_ok = True
    nodal = load_problem(schemes_dir / "nodal_cubic.scm")
    C = SchemePresentation(nodal.field, nodal.nvars,
                           nodal.X.equations + nodal.Z.equations)
    plane = SchemePresentation(nodal.field, 4, (nodal.Z.equations[0],),
                               declared_dim=2)
    cubic = nodal.Z.equations[1]
    gens, _ = variety.effective_generators(C)
    for P in variety.enumerate_closed_points(C, 3):
        charts = [i for i, c in enumerate(P.representative) if c]
        geo_ok = geo_ok and (
            {oracles.affine_jacobian_rank(gens, P, ch) for ch in charts}
            == {C.ambient_dim - variety.embedding_dimension(C, P)})
        geo_ok = geo_ok and len(
            {oracles.is_smooth_at(plane, cubic, v, 1)
             for v in oracles.orbit_variants(P)}) == 1
    details.append(f"chart/Galois stability: {geo_ok}")

    # determinism: identical invocations give byte-identical reports
    args = ["estimate", "--scheme", str(schemes_dir / "p2.scm"), "-d", "3",
            "--budget", "sample:400", "--seed", "7"]
    blobs = []
    for _ in range(2):
        _, rep = cli.run(cli.parse_args(args))
        blobs.append(json.dumps(rep, indent=2))
    det_ok = blobs[0] == blobs[1]
    details.append(f"repeated-invocation determinism: {det_ok}")

    elapsed = time.time() - t0
    ok = (mob_ok and sym_ok and mono_ok and geo_ok and det_ok
          and elapsed < 300)
    _report(8, ok, "; ".join(details) + f"; {elapsed:.1f}s (< 5 min)")
