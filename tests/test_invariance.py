"""Reports that do not depend on a choice of coordinates: exhaustive
`--bounded` singular-point histograms, `predict`, `lowdeg` and `embed`
verdicts under a linear change of coordinates of X and Z, exact counts and
histograms under a permutation of the variables, every report of the nodal
cubic under a permutation of its equations, and exact counts, histograms
and `lowdeg` reports under the choice of modulus for F_9; and point counts
under base change.  Exact
scans of P^n no longer group forms by GL_{n+1}(F_q)-orbits, so these pin
the invariance the degree bounds rely on nowhere else."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import SCHEMES
from oracles import substitute
from smoothsieve import cli, sieve, variety, zeta
from smoothsieve.variety import load_problem, parse_problem

THROUGH_PAIR = "q = 2\nP 2 : x y z\nX:\nZ:\n  x\n  y^2 + y*z + z^2\n"
PAIR_F3 = "q = 3\nP 2 : x y z\nX:\nZ:\n  x\n  y^2 + z^2\n"
CONIC_F3 = "q = 3\nP 2 : x y z\nX:\n  x*z - y^2\ndim X = 1\n"
# invertible over F_2 (determinant 1) and over F_3 (determinant 2)
A2 = ((1, 1, 0), (0, 1, 1), (1, 0, 0))
A3 = ((2, 1, 0), (0, 1, 1), (1, 0, 2))
# invertible over F_2 and over F_3 (determinant -1)
A4 = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 0))
# the smooth quadric surface of the benchmark's exact scans, and the cycle
# x -> y -> z -> w -> x of its variables, which makes it y*z + w*x
QUADRIC = "q = 2\nP 3 : x y z w\nX:\n  x*y + z*w\ndim X = 2\n"
CYCLE4 = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))
# a quadric surface whose rulings are conjugate over F_2, not over F_4
NONSPLIT = "q = 2\nP 3 : x y z w\nX:\n  x*y + z^2 + z*w + w^2\ndim X = 2\n"


def moved(problem, matrix):
    """The problem with every equation g of X and Z replaced by g(Ax)."""
    def image(scheme):
        return replace(scheme, equations=tuple(
            substitute(g, matrix) for g in scheme.equations))
    return replace(problem, X=image(problem.X),
                   Z=None if problem.Z is None else image(problem.Z))


def histograms(problem, degrees):
    return sieve.estimate_sing_dist(problem, degrees, ("exhaustive",),
                                    sing_bound=2, ell_max=4,
                                    exact=False).to_json_dict()


@pytest.mark.parametrize("text,matrix,degrees", [
    (THROUGH_PAIR, A2, [2, 3, 4]), (PAIR_F3, A3, [2, 3, 4]),
    (CONIC_F3, A3, [2, 3])], ids=["pair_f2", "pair_f3", "conic_f3"])
def test_bounded_histograms_are_gl_invariant(text, matrix, degrees):
    problem = parse_problem(text)
    image = moved(problem, matrix)
    assert image != problem
    before = histograms(problem, degrees)
    assert before == histograms(image, degrees)
    # more than one bin is filled at every degree
    assert all(sum(bin["count"] > 0 for bin in hist.values()) > 2
               for hist in before["per_degree"].values())


@pytest.mark.parametrize("name,q", [
    ("nodal_cubic", 2), ("nodal_cubic", 3), ("cuspidal_cubic", 2),
    ("nonreduced_line", 2), ("nonreduced_line", 3)])
def test_moved_coordinates_change_no_prediction(name, q):
    problem = load_problem(SCHEMES / f"{name}.scm", q_override=q)
    image = moved(problem, A4)
    assert image != problem
    assert (sieve.predict_density(image).to_json_dict()
            == sieve.predict_density(problem).to_json_dict())
    assert (sieve.low_degree_predictor(image, 3)
            == sieve.low_degree_predictor(problem, 3))


def test_moved_coordinates_keep_the_axes_obstructed():
    # a point of e(P) = 3 stays one, and it is still found at degree 1
    image = moved(load_problem(SCHEMES / "obstructed_axes.scm"), A4)
    result = sieve.embed_curve(image, target_dim=2, d_max=8)
    assert result.status == "obstructed"
    assert (result.witness.degree, result.witness_e) == (1, 3)


def permuted_points(groups):
    """`closed_point_arrays` groups with every point's coordinates cycled
    (x, y, z) -> (z, x, y): a permutation of the variables maps P^2 to
    itself, so each closed point becomes another, with its own jet
    conditions and pivot pattern, and the set of points stays the same."""
    return [(e, ext, orbits[..., [2, 0, 1]]) for e, ext, orbits in groups]


def scan_reports(p2, quadric):
    out = []
    for problem, degrees, bound in ((p2, [4, 5], 3), (quadric, [2], 3)):
        out.append(sieve.estimate_sing_dist(
            problem, degrees, ("exhaustive",), sing_bound=bound, ell_max=4,
            exact=False).to_json_dict())
    for problem, d in ((p2, 4), (quadric, 2)):
        out.append(sieve.estimate_density(problem, [d], ("exhaustive",),
                                          sing_bound=1, exact=True)
                   .value.count_smooth)
    return out


def test_permuted_variables_change_no_scan(schemes_dir, monkeypatch):
    # exhaustive histograms at B = 3 and exact counts over F_2: of P^2 at
    # d = 4, 5 with the variables permuted on its points, and of the
    # quadric surface with them permuted in its equation
    p2 = load_problem(schemes_dir / "p2.scm")
    quadric = parse_problem(QUADRIC)
    before = scan_reports(p2, quadric)
    assert before[2:] == [10920, 288]  # as at the parent, by certificates
    space = sieve.candidate_space(p2, 4)
    groups = variety.closed_point_arrays(p2.X, 3)
    assert not np.array_equal(
        sieve._conditions(p2.X, space, groups)[1],
        sieve._conditions(p2.X, space, permuted_points(groups))[1])
    arrays = sieve.closed_point_arrays
    monkeypatch.setattr(sieve, "closed_point_arrays", lambda X, *args: (
        permuted_points(arrays(X, *args)) if X == p2.X else arrays(X, *args)))
    image = moved(quadric, CYCLE4)
    assert image.X.equations != quadric.X.equations
    assert scan_reports(p2, image) == before


def test_modulus_of_f9_changes_no_count():
    reports = []
    for modulus in ("x^2 + 1", "x^2 + x + 2"):
        problem = parse_problem(f"q = 9 [{modulus}]\nP 2 : x y z\n")
        density = sieve.estimate_density(problem, [2], ("exhaustive",),
                                         sing_bound=1, exact=True)
        assert density.value.count_smooth == 471744  # (q - 1)(q^5 - q^2)
        reports.append((density.to_json_dict(), histograms(problem, [2])))
    assert reports[0] == reports[1]


def test_modulus_of_f9_changes_no_lowdeg_report(tmp_path):
    # the Euler-factor product of the cuspidal cubic at r = 2 counts closed
    # points, which no choice of modulus changes
    text = (SCHEMES / "cuspidal_cubic.scm").read_text()
    results = []
    for i, modulus in enumerate(("x^2 + 1", "x^2 + x + 2", "x^2 + 2*x + 2")):
        path = tmp_path / f"cusp_{i}.scm"
        path.write_text(text.replace("q = 2\n", f"q = 9 [{modulus}]\n"))
        code, report = cli.run(cli.parse_args(
            ["lowdeg", "--scheme", str(path), "--r", "2"]))
        assert code == 0
        results.append(report["result"])
    assert results[0] == results[1] == results[2]
    assert results[0]["predicted"].count("/") == 1
    assert 0.71 < results[0]["approx"] < 0.72


def test_permuted_equations_change_no_report():
    # Z = V(w, y^2 z + x y z - x^3) and V(y^2 z + x y z - x^3, w): the same
    # scheme, so the same density, low-degree product and histogram
    text = (SCHEMES / "nodal_cubic.scm").read_text()
    swapped = text.replace("  w\n  y^2*z + x*y*z - x^3\n",
                           "  y^2*z + x*y*z - x^3\n  w\n")
    problems = [parse_problem(text), parse_problem(swapped)]
    assert problems[0].Z.equations == problems[1].Z.equations[::-1]
    reports = []
    for problem in problems:
        hist = sieve.estimate_sing_dist(problem, [3], ("exhaustive",),
                                        sing_bound=4, ell_max=4,
                                        exact=False).to_json_dict()
        reports.append((sieve.predict_density(problem).to_json_dict(),
                        sieve.low_degree_predictor(problem, 3), hist))
    assert reports[0][0]["value"] == "15/128"
    assert reports[0][2]["per_degree"]["3"]["0"]["count"] == 248
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", ["p2", "nodal_cubic", "nonsplit"])
def test_base_change_counts(name):
    # N_e of X over F_4 is N_2e of X over F_2: X(F_{4^e}) = X(F_{2^2e})
    def scheme(q):
        if name == "nonsplit":
            return parse_problem(NONSPLIT, q_override=q).X
        problem = load_problem(SCHEMES / f"{name}.scm", q_override=q)
        return sieve.intersection_presentation(problem) or problem.X

    def counts(q, b):
        return variety.point_counts(
            zeta.profile_from_scheme(scheme(q), b).a)

    small, large = counts(2, 6), counts(4, 3)
    assert large == small[1::2]
    if name == "nonsplit":
        # non-split over F_2, split over F_4, so B* = 4 and B* = 2 at d = 2
        assert small[:4] == [5, 25, 65, 289] and large[:2] == [25, 289]
        splits = [sieve._quadric_split(scheme(q), sieve.DEFAULT_CAP)
                  for q in (2, 4)]
        assert [sieve._quadric_bound(2, s) for s in splits] == [4, 2]
