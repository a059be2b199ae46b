"""Reports that do not depend on a choice of coordinates: exhaustive
`--bounded` singular-point histograms under a linear change of coordinates
of X and Z, and exact counts, histograms and `lowdeg` reports under the
choice of modulus for F_9.  Exact scans of P^n no longer group forms by
GL_{n+1}(F_q)-orbits, so these pin the invariance the degree bounds rely
on nowhere else."""

from dataclasses import replace

import pytest

from conftest import SCHEMES
from oracles import substitute
from smoothsieve import cli, sieve
from smoothsieve.variety import parse_problem

THROUGH_PAIR = "q = 2\nP 2 : x y z\nX:\nZ:\n  x\n  y^2 + y*z + z^2\n"
PAIR_F3 = "q = 3\nP 2 : x y z\nX:\nZ:\n  x\n  y^2 + z^2\n"
CONIC_F3 = "q = 3\nP 2 : x y z\nX:\n  x*z - y^2\ndim X = 1\n"
# invertible over F_2 (determinant 1) and over F_3 (determinant 2)
A2 = ((1, 1, 0), (0, 1, 1), (1, 0, 0))
A3 = ((2, 1, 0), (0, 1, 1), (1, 0, 2))


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
