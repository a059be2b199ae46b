"""The batched smoothness certificate against the former per-candidate one
(`oracles.certify_per_candidate`, one rank over F_q per candidate), its
rows against the former row build (`oracles.certificate_rows`), and exact
scans of quadric surfaces against their closed-form count."""

import random

import numpy as np
import pytest

import oracles
from smoothsieve import sieve
from smoothsieve.variety import load_problem, parse_problem

QUADRIC = "q = {q}\nP 3 : x y z w\nX:\n  x*y + z*w\ndim X = 2\n"
CONIC = "q = 3\nP 2 : x y z\nX:\n  x*z - y^2\ndim X = 1\n"
# through (1:1:1), so that the basis of I_d is not a set of monomials
THROUGH_POINT = "q = 2\nP 2 : x y z\nX:\nZ:\n  x + z\n  y + z\n"


def projective(n, q):
    """P^n over F_q with no equations and Z empty."""
    return parse_problem(f"q = {q}\nP {n} : {' '.join('xyzw'[:n + 1])}\n")


def problem_of(schemes_dir, name, q):
    if name in ("p2", "p3"):
        return projective(int(name[1]), q)
    if name == "nodal":
        return load_problem(schemes_dir / "nodal_cubic.scm")
    return parse_problem({"quadric": QUADRIC.format(q=q), "conic": CONIC,
                          "point": THROUGH_POINT}[name])


# (problem, q, d, sample size or None for every index): the benchmark's F_2
# quadric, the quadric and the conic over F_3 (cofactor signs), P^2 over
# F_3, F_5, F_4 and F_9 (k > 1 expands each F_q row), F_2 quintics (66
# columns, two words), P^2 through a point and the nodal cubic (the lift
# from I_d folded into the map)
CASES = [("quadric", 2, 2, None), ("quadric", 3, 2, 120),
         ("conic", 3, 2, None), ("p2", 3, 3, 400), ("p2", 3, 4, 100),
         ("p2", 5, 3, 300), ("p2", 4, 3, 500), ("p2", 9, 2, 500),
         ("p2", 2, 5, 600), ("point", 2, 3, None), ("point", 2, 4, 1500),
         ("nodal", 2, 3, None)]


def sample(problem, d, size, seed):
    space = sieve.candidate_space(problem, d)
    total = problem.field.q ** space.rank
    if size is None:
        return list(range(total))
    return random.Random(seed).sample(range(total), size)


def digits(problem, d, indices):
    """The digit array `sieve._certify_smooth` takes for these indices."""
    return oracles.index_digits(sieve.candidate_space(problem, d), indices)


@pytest.mark.parametrize("name,q,d,size", CASES,
                         ids=[f"{n}_q{q}_d{d}" for n, q, d, _ in CASES])
def test_batched_certificate_equals_per_candidate(schemes_dir, name, q, d,
                                                  size):
    problem = problem_of(schemes_dir, name, q)
    indices = sample(problem, d, size, seed=q * 100 + d)
    batched = sieve._certify_smooth(problem, d, digits(problem, d, indices))
    expected = oracles.certify_per_candidate(problem, d, indices)
    assert batched.tolist() == expected.tolist()
    assert batched.any() and not batched.all()


# every case above, the quadric over F_4 and cubic surfaces over F_2
ROW_CASES = [(name, q, d) for name, q, d, _ in CASES] + [("quadric", 4, 2),
                                                        ("p3", 2, 3)]


@pytest.mark.parametrize("name,q,d", ROW_CASES,
                         ids=[f"{n}_q{q}_d{d}" for n, q, d in ROW_CASES])
def test_certificate_rows_equal_oracle(schemes_dir, name, q, d):
    # the rows built by linearity against the former build, one MPoly
    # product and one reduction per multiple: same shape, dtype and entries
    problem = problem_of(schemes_dir, name, q)
    rows = sieve._certificate_rows(problem, d)
    expected = oracles.certificate_rows(problem, d)
    assert (rows.shape, rows.dtype) == (expected.shape, expected.dtype)
    assert np.array_equal(rows, expected)


@pytest.mark.parametrize("name,q,d,size", [("quadric", 2, 2, None),
                                            ("point", 2, 3, None),
                                            ("p2", 3, 3, 60),
                                            ("p2", 4, 3, 60)])
def test_small_batches(schemes_dir, monkeypatch, name, q, d, size):
    # batches of 256 candidates and one word per byte table over F_2, one
    # candidate per batch over odd p
    problem = problem_of(schemes_dir, name, q)
    indices = sample(problem, d, size, seed=7)
    monkeypatch.setattr(sieve, "_DIGIT_ENTRIES", 1)
    monkeypatch.setattr(sieve, "_BLOCK_ENTRIES", 1)
    assert sieve._certify_smooth(problem, d,
                                 digits(problem, d, indices)).tolist() == \
        oracles.certify_per_candidate(problem, d, indices).tolist()


@pytest.mark.parametrize("q", [2, 3])
def test_empty_index_list_and_rank_0_space(q):
    plane = projective(2, q)
    out = sieve._certify_smooth(plane, 3, digits(plane, 3, []))
    assert out.dtype == bool and out.shape == (0,)
    # Z = P^2 leaves only f = 0, whose section is never smooth
    ambient = parse_problem(f"q = {q}\nP 2 : x y z\nX:\nZ:\n")
    assert sieve._certify_smooth(ambient, 3,
                                 digits(ambient, 3, [])).shape == (0,)
    assert sieve._certify_smooth(ambient, 3,
                                 digits(ambient, 3, [0])).tolist() == \
        oracles.certify_per_candidate(ambient, 3, [0]).tolist() == [False]


@pytest.mark.parametrize("q,count", [(2, 448), (3, 37908), (4, 774144),
                                     (5, 7750000)])
def test_exact_quadric_surface_count_closed_form(q, count):
    # the degree route: a singular quadric has a singular rational point, so
    # the scan at B = 1 decides every form
    assert oracles.smooth_quadric_surfaces(q) == count
    res = sieve._run_scan(projective(3, q), 2, ("exhaustive",), 1, True, 0,
                          sieve.DEFAULT_CAP)
    assert res.smooth_count == count
    assert "exact-certificates" in res.flags
