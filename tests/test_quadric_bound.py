"""Exact scans of a smooth quadric surface in P^3 by the proven degree
bounds of `sieve._quadric_bound`: the classification by rational points,
the answers of `_degree_route`, the degree route against one certificate
per form over F_2, pinned smooth counts over F_3 with certificates on a
sample, and the point cap, which sends a scan to the certificates or
refuses it before any point past the cap is enumerated."""

import numpy as np
import pytest

from smoothsieve import sieve, variety
from smoothsieve.variety import parse_problem

# the split x*y + z*w, and x*y + z^2 + z*w + w^2, whose rulings are
# conjugate over F_2 (z^2 + z*w + w^2 is irreducible) but not over F_4;
# over F_3, x*y + z^2 + w^2 is non-split (-1 is not a square)
SPLIT = "q = {q}\nP 3 : x y z w\nX:\n  x*y + z*w\ndim X = 2\n"
NONSPLIT = "q = {q}\nP 3 : x y z w\nX:\n  x*y + z^2 + z*w + w^2\ndim X = 2\n"
NONSPLIT_F3 = "q = 3\nP 3 : x y z w\nX:\n  x*y + z^2 + w^2\ndim X = 2\n"
# forms through the ruling line x = z = 0, and through the four coordinate
# points, all on x*y + z*w
LINE = SPLIT + "Z:\n  x\n  z\n"
CORNERS = SPLIT + "Z:\n  x*y\n  x*z\n  x*w\n  y*z\n  y*w\n  z*w\n"
SURFACES = {"split": SPLIT, "nonsplit": NONSPLIT, "line": LINE}


def quadric(text, q=2):
    return parse_problem(text.format(q=q))


def exact_scan(problem, d, bound, cap=sieve.DEFAULT_CAP):
    return sieve._run_scan(problem, d, ("exhaustive",), bound, True, 0, cap)


def refuse(*args):
    raise AssertionError("the degree route runs no certificates")


def forced(problem, d, sing_bound, total, cap=sieve.DEFAULT_CAP):
    """`_degree_route` whatever its row rule says."""
    split = sieve._quadric_split(problem.X, cap)
    return max(sing_bound, sieve._quadric_bound(d, split))


class Enumerated(Exception):
    """Stops a scan at its first point enumeration."""


# two planes have 2q^2 + q + 1 points, which the declared dimension's check
# reads as growth of dimension 3 over F_2
@pytest.mark.filterwarnings("ignore:declared dim X = 2")
def test_quadric_bound_table_and_classification():
    assert [sieve._quadric_bound(d, True) for d in (1, 2, 3, 4)] == [
        1, 2, None, None]
    assert [sieve._quadric_bound(d, False) for d in (1, 2, 3, 4)] == [
        1, 4, None, None]
    for q in (2, 3, 4):
        assert sieve._quadric_split(quadric(SPLIT, q).X, sieve.DEFAULT_CAP)
    assert sieve._quadric_split(quadric(NONSPLIT, 2).X,
                                sieve.DEFAULT_CAP) is False
    assert sieve._quadric_split(quadric(NONSPLIT, 4).X, sieve.DEFAULT_CAP)
    assert sieve._quadric_split(parse_problem(NONSPLIT_F3).X,
                                sieve.DEFAULT_CAP) is False
    # singular quadrics: a cone, two rational planes, two conjugate planes,
    # a double plane; and X that are no quadric surface in P^3
    for equation in ("x*y + z^2", "x*y", "x^2 + x*y + y^2", "x^2"):
        X = parse_problem(SPLIT.replace("x*y + z*w", equation)
                          .format(q=2)).X
        assert sieve._quadric_split(X, sieve.DEFAULT_CAP) is None, equation
    for text in ("q = 3\nP 2 : x y z\nX:\n  x*z - y^2\ndim X = 1\n",
                 "q = 2\nP 3 : x y z w\nX:\n  x*y*z + w^3\ndim X = 2\n",
                 "q = 2\nP 3 : x y z w\nX:\n  x*y + z*w\n  x + y\ndim X = 1\n",
                 "q = 2\nP 3 : x y z w\nX:\n  x*y + z*w\n"
                 "X.remove:\n  x\ndim X = 2\n",
                 "q = 2\nP 4 : x y z w v\nX:\n  x*y + z*w + v^2\n"
                 "dim X = 3\n"):
        assert sieve._quadric_split(parse_problem(text).X,
                                    sieve.DEFAULT_CAP) is None, text


def test_degree_route_answers_for_quadrics():
    # the rows past B against |I_d|: over F_2 the non-split quadric at d = 2
    # needs 1,620 rows at degrees 3 and 4 for 2^10 forms, over F_3 29,736
    # at degrees 2..4 for 3^10; no bound at d = 3, none for a singular
    # quadric
    split, nonsplit = quadric(SPLIT), quadric(NONSPLIT)
    assert [sieve._degree_route(split, 2, b, 2 ** 10) for b in (1, 2, 3)] == [
        2, 2, 3]
    assert [sieve._degree_route(split, 1, b, 2 ** 4) for b in (1, 2)] == [
        1, 2]
    assert [sieve._degree_route(nonsplit, 2, b, 2 ** 10)
            for b in (1, 2, 3, 4)] == [None, None, None, 4]
    assert sieve._degree_route(nonsplit, 2, 2, 1621) == 4
    assert sieve._degree_route(nonsplit, 2, 2, 1620) is None
    assert sieve._degree_route(parse_problem(NONSPLIT_F3), 2, 1, 3 ** 10) == 4
    assert sieve._degree_route(quadric(SPLIT, 3), 2, 1, 3 ** 10) == 2
    assert sieve._degree_route(quadric(LINE), 2, 1, 2 ** 7) == 2
    assert sieve._degree_route(split, 3, 1, 2 ** 20) is None
    cone = parse_problem(SPLIT.replace("z*w", "z^2").format(q=3))
    assert sieve._degree_route(cone, 2, 1, 3 ** 10) is None


@pytest.mark.parametrize("name", sorted(SURFACES))
@pytest.mark.parametrize("d", [1, 2])
def test_quadric_route_equals_certificates(monkeypatch, name, d):
    # the route forced to B* whatever its rows, and as the rule picks it,
    # against one certificate per scan-clean form, at B = 1..4
    problem = quadric(SURFACES[name])
    for bound in range(1, 5):
        with monkeypatch.context() as m:
            m.setattr(sieve, "_degree_route", lambda *args, **kw: None)
            certified = exact_scan(problem, d, bound)
        with monkeypatch.context() as m:
            m.setattr(sieve, "_certify_smooth", refuse)
            m.setattr(sieve, "_degree_route", forced)
            assert exact_scan(problem, d, bound) == certified, bound
        assert exact_scan(problem, d, bound) == certified, bound
        if bound >= sieve._quadric_bound(d, name != "nonsplit"):
            assert certified.unresolved == 0
        if (name, d, bound) == ("nonsplit", 2, 3):
            # 6 curves of four conjugate lines, each cut by 2 forms, are
            # singular only at one closed point of degree 4
            assert certified.unresolved == 12


@pytest.mark.parametrize("text,smooth", [(SPLIT.format(q=3), 31104),
                                         (NONSPLIT_F3, 38880)],
                         ids=["split", "nonsplit"])
def test_quadric_counts_over_f3(monkeypatch, text, smooth):
    # one certificate per form takes about 10 s here, so the counts are
    # pinned as the certificate route gave them, and the certificate
    # checks a seeded sample: forms clean at B* are smooth, forms clean
    # at B = 1 but not at B* are singular
    problem = parse_problem(text)
    with monkeypatch.context() as m:
        m.setattr(sieve, "_certify_smooth", refuse)
        assert exact_scan(problem, 2, 1).smooth_count == smooth
    top = sieve._degree_route(problem, 2, 1, 3 ** 10)
    space = sieve.candidate_space(problem, 2)
    degrees, funcs = sieve._conditions(problem.X, space,
                                       variety.closed_point_arrays(
                                           problem.X, top))
    at_top = sieve._scan_all(space, (degrees, funcs))
    at_one = sieve._scan_all(space, (degrees[degrees == 1],
                                     funcs[degrees == 1]))
    assert np.count_nonzero(at_top == 0) == smooth
    rng = np.random.default_rng(28)
    for clean, expected in ((at_top == 0, True),
                            ((at_one == 0) & (at_top > 0), False)):
        sample = rng.choice(np.flatnonzero(clean), 150, replace=False)
        digits = sieve._index_digits(sample, 3, space.rank)
        assert (sieve._certify_smooth(problem, 2, digits) == expected).all()


def test_quadric_route_fails_closed(monkeypatch, enumeration_calls):
    def listed_within(cap):
        return all(sum(spec.q ** i for i in range(nvars)) <= cap
                   for spec, nvars in enumeration_calls)

    # 3^6 forms through the coordinate points over F_3, more than the 336
    # rows at degree 2: the 820 points of P^3(F_9) pass a cap of 3^6, so
    # the route leaves the scan to the certificates
    corners = quadric(CORNERS, 3)
    assert sieve._degree_route(corners, 2, 1, 3 ** 6) == 2
    assert sieve._degree_route(corners, 2, 1, 3 ** 6, cap=3 ** 6) is None
    enumeration_calls.clear()
    capped = exact_scan(corners, 2, 1, cap=3 ** 6)
    assert enumeration_calls and listed_within(3 ** 6)
    assert capped == exact_scan(corners, 2, 1)
    assert capped.count_total == 3 ** 6 and capped.unresolved > 0
    # over F_3 the non-split quadric needs P^3(F_81): with the cap at 3^10
    # the first enumeration is the certificate route's, to B = 1
    nonsplit = parse_problem(NONSPLIT_F3)
    assert sieve._degree_route(nonsplit, 2, 1, 3 ** 10, cap=3 ** 10) is None
    calls = []

    def stop(scheme, max_degree, cap):
        calls.append(max_degree)
        raise Enumerated

    enumeration_calls.clear()
    with monkeypatch.context() as m:
        m.setattr(sieve, "closed_point_arrays", stop)
        with pytest.raises(Enumerated):
            exact_scan(nonsplit, 2, 1, cap=3 ** 10)
    assert calls == [1] and listed_within(3 ** 10)
    # a cap below the 15 rational points: refused as without the route,
    # before any point is listed
    line = quadric(LINE)
    enumeration_calls.clear()
    with pytest.raises(variety.EnumerationCapExceeded) as info:
        exact_scan(line, 1, 1, cap=10)
    assert str(info.value) == "P^3(F_2) has 15 points (cap 10)"
    assert enumeration_calls == []
