"""The scan engine against independent per-candidate classification and
against the per-point paths it batches, closed forms for plane conics, and
caps that refuse before any work."""

import random
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from oracles import (certify_per_candidate, dense_rref_mod_p, digit_indices,
                     draw, ell_histogram_oracle, ells_by_products,
                     index_digits, per_degree_conditions, point_functionals,
                     scan_all_per_point)
from smoothsieve import sieve, variety
from smoothsieve.mpoly import MPoly, monomials_of_degree
from smoothsieve.variety import load_problem, parse_problem

QUADRIC = "q = 3\nP 3 : x y z w\nX:\n  x*y + z*w\ndim X = 2\n"
CONIC = "q = 3\nP 2 : x y z\nX:\n  x*z - y^2\ndim X = 1\n"
# every form through the fat point vanishes to order 2 at (0:0:1), so its
# jet conditions there are all zero
FAT_POINT = "q = 3\nP 2 : x y z\nX:\nZ:\n  x^2\n  y^2\ndim X = 2\n"


def engine_histogram(problem, d, budget, sing_bound, seed=0):
    """{ell: count} of a bounded scan, ell = 0 for scan-clean forms and -1
    for the zero form."""
    res = sieve._run_scan(problem, d, budget, sing_bound, False, seed,
                          sieve.DEFAULT_CAP)
    hist = dict(res.ell_counts)
    hist[0] = res.smooth_count
    return hist


def all_forms(problem, d):
    monos = monomials_of_degree(problem.nvars, d)
    return [MPoly(problem.field, problem.nvars, dict(zip(monos, coeffs)))
            for coeffs in product(range(problem.field.q), repeat=len(monos))]


def drawn_forms(space, n, seed):
    """The forms a seeded scan over q != 2 draws: one randrange(q) per
    coordinate, coordinate i weighting basis row i (a tuple of codes)."""
    spec = space.problem.field
    nvars = space.problem.nvars
    monos = space.monomials
    rows = space.basis_rows or [tuple(int(i == j) for j in range(len(monos)))
                                for i in range(len(monos))]
    rng = random.Random(seed)
    forms = []
    for _ in range(n):
        f = MPoly.zero(spec, nvars)
        for row in rows:
            c = rng.randrange(spec.q)
            f = f + MPoly(spec, nvars, {monos[t]: spec.mul(c, x)
                                        for t, x in enumerate(row) if x})
        forms.append(f)
    return forms


@pytest.mark.parametrize("scheme,q,d,bound", [
    ("p2", 3, 2, 2), ("p2", 3, 2, 3), ("p2", 4, 2, 1), ("p1", 3, 4, 3)])
def test_exhaustive_histogram_matches_oracle(schemes_dir, scheme, q, d, bound):
    prob = load_problem(schemes_dir / f"{scheme}.scm", q_override=q)
    points = variety.enumerate_closed_points(prob.X, bound)
    expected = ell_histogram_oracle(prob.X, all_forms(prob, d), points)
    assert engine_histogram(prob, d, ("exhaustive",), bound) == expected


@pytest.mark.parametrize("case", ["nodal_q4", "quadric_q3"])
def test_sampled_histogram_matches_oracle(schemes_dir, case):
    if case == "nodal_q4":
        prob = load_problem(schemes_dir / "nodal_cubic.scm", q_override=4)
        d, n, seed = 3, 40, 11
    else:
        prob = parse_problem(QUADRIC)
        d, n, seed = 2, 300, 12
    space = sieve.candidate_space(prob, d)
    points = variety.enumerate_closed_points(prob.X, 2)
    expected = ell_histogram_oracle(prob.X, drawn_forms(space, n, seed),
                                    points)
    assert engine_histogram(prob, d, ("sample", n), 2, seed) == expected


@pytest.mark.parametrize("bound,q", [(b, q) for b in (1, 2)
                                     for q in (2, 3, 4, 5, 7, 8)]
                         + [(3, 5), (3, 7)])
def test_plane_conic_counts_closed_form(schemes_dir, q, bound):
    # a singular conic is singular at a rational point: a line pair has
    # one, a double line a whole line, so B = 1 already sees every one
    prob = load_problem(schemes_dir / "p2.scm", q_override=q)
    hist = engine_histogram(prob, 2, ("exhaustive",), bound)
    assert hist[0] == (q - 1) * (q ** 5 - q ** 2)
    assert hist[1] == (q * q + q + 1) * (q ** 3 - q * q)
    assert sum(hist.values()) == q ** 6


# (scheme file or text, q override, d, B): P^2 at d = 1 has kernel {0} at
# every point, and the fat point's all-zero conditions are vacuous
BATCH_CASES = {
    "p2_q2_d1": ("p2", 2, 1, 2),
    "p2_q2_d4": ("p2", 2, 4, 6),
    "p2_q2_d5": ("p2", 2, 5, 6),
    "p2_q3_d2": ("p2", 3, 2, 3),
    "p2_q3_d3": ("p2", 3, 3, 2),
    "p2_q4_d2": ("p2", 4, 2, 2),
    "p2_q5_d2": ("p2", 5, 2, 2),
    "nodal_d3": ("nodal_cubic", None, 3, 4),
    "quadric_q2": (QUADRIC.replace("q = 3", "q = 2"), None, 2, 3),
    "quadric_q3": (QUADRIC, None, 2, 2),
    "conic_q3": (CONIC, None, 2, 3),
    "fat_point_q3": (FAT_POINT, None, 3, 2),
}


def load_case(schemes_dir, scheme, q):
    if "\n" in scheme:
        return parse_problem(scheme)
    return load_problem(schemes_dir / f"{scheme}.scm", q_override=q)


def batch_case(schemes_dir, case):
    """(candidate space, closed points, batched conditions) of a case."""
    scheme, q, d, bound = BATCH_CASES[case]
    prob = load_case(schemes_dir, scheme, q)
    space = sieve.candidate_space(prob, d)
    points = variety.enumerate_closed_points(prob.X, bound)
    return space, points, sieve._conditions(
        prob.X, space, variety.closed_point_arrays(prob.X, bound))


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_functionals_span_the_per_point_rows(schemes_dir, case):
    space, points, (degrees, stack) = batch_case(schemes_dir, case)
    X, p = space.problem.X, space.problem.field.p
    assert degrees.tolist() == [P.degree for P in points]
    for P, funcs in zip(points, stack):
        expected = point_functionals(X, space, P).tolist()
        assert (dense_rref_mod_p(funcs.tolist(), p)
                == dense_rref_mod_p(expected, p))


def test_functionals_through_z_over_a_large_prime():
    # over F_65537 one product of a lift digit and a jet digit passes 2^31,
    # so the lifted functionals must be reduced from exact integers
    prob = parse_problem("q = 65537\nP 1 : x y\nX:\nZ:\n  x - 2*y\n"
                         "dim X = 1\n")
    space = sieve.candidate_space(prob, 3)
    [(e, ext, orbits)] = variety.closed_point_arrays(prob.X, 1)
    points = variety.enumerate_closed_points(prob.X, 1)
    picks = list(range(0, len(points), 4099)) + [len(points) - 1]
    degrees, group = sieve._conditions(prob.X, space,
                                       [(e, ext, orbits[picks])])
    assert degrees.tolist() == [1] * len(picks)
    assert group.shape == (len(picks), 2, 3)
    for i, funcs in zip(picks, group):
        expected = point_functionals(prob.X, space, points[i]).tolist()
        assert (dense_rref_mod_p(funcs.tolist(), 65537)
                == dense_rref_mod_p(expected, 65537))


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_scan_all_equals_per_point_kernels(schemes_dir, case):
    space, _, conds = batch_case(schemes_dir, case)
    assert np.array_equal(sieve._scan_all(space, conds),
                          scan_all_per_point(space, conds))


# (scheme, q override, d, B, draws, rows per point of each degree) for the
# sampled classifier: index bytes, lanes (uint8 up to 8 rows, ..., uint64
# from 33), degree groups and the lift through Z vary with these
ELL_CASES = {
    "p2_q2_d9_b6": ("p2", 2, 9, 6, 2000, [3, 6, 9, 12, 15, 18]),
    "lowdeg_p2_d25_r3": ("p2", 2, 25, 2, 1600, [3, 6]),  # 44-byte indices
    "nodal_q2": ("nodal_cubic", 2, 4, 3, 500, [5, 10, 15]),
    "nodal_q4": ("nodal_cubic", 4, 3, 2, 300, [8, 16]),
    "p2_q8": ("p2", 8, 3, 2, 300, [9, 18]),
    "p1_q4_d2_b6": ("p1", 4, 2, 6, 300, [6, 12, 18, 24, 30, 36]),
    "p2_q3_d3": ("p2", 3, 3, 2, 200, [4, 8]),           # products mod 3
}


def drawn_indices(space, n, seed=0):
    rng = random.Random(seed)
    q = space.problem.field.q
    return [draw(rng, q, space.rank) for _ in range(n)]


@pytest.mark.parametrize("case", sorted(ELL_CASES))
def test_ells_equal_per_point_products(schemes_dir, case):
    scheme, q, d, bound, n, rows = ELL_CASES[case]
    prob = load_case(schemes_dir, scheme, q)
    space = sieve.candidate_space(prob, d)
    groups = variety.closed_point_arrays(prob.X, bound)
    conds = sieve._conditions(prob.X, space, groups)
    assert [group.shape[1] for _, group in per_degree_conditions(
        prob.X, space, groups)] == rows
    assert conds[1].shape[1] == rows[-1]
    indices = drawn_indices(space, n)
    assert np.array_equal(sieve._ells(space, conds,
                                      index_digits(space, indices)),
                          ells_by_products(space, conds, indices))


def test_ells_more_than_64_rows_and_a_vacuous_point(schemes_dir):
    # 70 rows take two words per point: the first 64 rows span a plane and
    # the last 6 another, so a candidate can clear the first word and not
    # the second; the all-zero point holds every candidate
    space = sieve.candidate_space(load_problem(schemes_dir / "p2.scm"), 5)
    rng = np.random.default_rng(3)
    width = space.rank
    funcs = []
    for _ in range(9):
        first = rng.integers(0, 2, (64, 2)) @ rng.integers(0, 2, (2, width))
        last = rng.integers(0, 2, (6, 2)) @ rng.integers(0, 2, (2, width))
        funcs.append(np.concatenate([first, last]) % 2)
    conds = (np.array([2] + [3] * 9),
             np.array([np.zeros((70, width))] + funcs, dtype=np.uint8))
    indices = drawn_indices(space, 700)
    ell = sieve._ells(space, conds, index_digits(space, indices))
    assert np.array_equal(ell, ells_by_products(space, conds, indices))
    assert {int(v) % 3 for v in ell} == {2} and len(set(ell.tolist())) > 2


def test_ells_on_a_rank_0_candidate_space(schemes_dir):
    space = sieve.CandidateSpace(load_problem(schemes_dir / "p2.scm"), 3, 0,
                                 ())
    conds = (np.array([1] * 4 + [2] * 2), np.ones((6, 6, 0), dtype=np.uint8))
    assert sieve._ells(space, conds,
                       index_digits(space, [0] * 5)).tolist() == [8] * 5


def test_ells_across_batches_and_blocks(schemes_dir, monkeypatch):
    # 101 indices in batches of 13 (3 bytes each), one point per block
    monkeypatch.setattr(sieve, "_DIGIT_ENTRIES", 40)
    monkeypatch.setattr(sieve, "_BLOCK_ENTRIES", 64)
    prob = load_problem(schemes_dir / "p2.scm")
    space = sieve.candidate_space(prob, 5)
    conds = sieve._conditions(prob.X, space,
                              variety.closed_point_arrays(prob.X, 4))
    indices = drawn_indices(space, 101, seed=4)
    assert np.array_equal(sieve._ells(space, conds,
                                      index_digits(space, indices)),
                          ells_by_products(space, conds, indices))


def test_scan_refuses_an_x_singular_at_a_point():
    # X's Jacobian vanishes at the node (0:0:1), so no jet condition there
    # can say whether a section is singular
    prob = parse_problem("q = 2\nP 2 : x y z\nX:\n  y^2*z + x*y*z + x^3\n"
                         "dim X = 1\n")
    with pytest.raises(sieve.UnsupportedPresentation) as info:
        sieve._run_scan(prob, 1, ("exhaustive",), 1, False, 0,
                        sieve.DEFAULT_CAP)
    assert str(info.value) == ("X is not smooth of dimension 1 at "
                               "('0', '0', '1')")


def test_exhaustive_cap_refuses_before_enumerating(schemes_dir, monkeypatch):
    # |I_9| = 2^55 is over the cap: refused before any closed point of
    # degree <= 8 is enumerated
    calls = []
    real = sieve.closed_point_arrays

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sieve, "closed_point_arrays", counting)
    p2 = load_problem(schemes_dir / "p2.scm")
    with pytest.raises(variety.EnumerationCapExceeded) as info:
        sieve.estimate_density(p2, [9], ("exhaustive",), sing_bound=8,
                               exact=False)
    assert str(info.value) == "|I_d| = 36028797018963968 exceeds cap 16777216"
    assert calls == []
    # the same patch sees the one enumeration of an accepted scan
    sieve._scan_cached.cache_clear()
    sieve.estimate_density(p2, [3], ("exhaustive",), sing_bound=2,
                           exact=False)
    assert [args[1:] for args in calls] == [(2, sieve.DEFAULT_CAP)]


@pytest.mark.parametrize("q,p,k", [(2, 2, 1), (3, 3, 1), (4, 2, 2),
                                   (5, 5, 1), (8, 2, 3), (9, 3, 2)])
def test_draws_equal_the_per_candidate_draw(q, p, k):
    # the same candidates as one draw per candidate, and the same words
    # consumed: the embedder's later draws depend on where the stream ends
    for rank in (0, 1, 31, 32, 33, 64, 65, 351):
        for n in (1, 3, 2000):
            seed = q * 10 ** 6 + rank * 10 ** 4 + n
            mine, theirs = random.Random(seed), random.Random(seed)
            digits = sieve._draws(mine, q, rank, n)
            expected = [draw(theirs, q, rank) for _ in range(n)]
            width = k * rank
            assert digits.shape == (n, -(-width // 8) if p == 2 else width)
            assert digit_indices(digits, p) == expected, (rank, n)
            assert mine.getstate() == theirs.getstate(), (rank, n)
    # one candidate at a time, as the embedder draws
    for rank in (5, 33):
        mine, theirs = random.Random(rank), random.Random(rank)
        drawn = [sieve._index_of(sieve._draws(mine, q, rank, 1)[0], p)
                 for _ in range(40)]
        assert drawn == [draw(theirs, q, rank) for _ in range(40)]
        assert mine.getstate() == theirs.getstate()


def test_poly_of_replays_the_drawn_forms(schemes_dir):
    # the index of a draw names the same form the coordinates do
    prob = load_problem(schemes_dir / "nodal_cubic.scm", q_override=4)
    space = sieve.candidate_space(prob, 3)
    digits = sieve._draws(random.Random(5), 4, space.rank, 30)
    indices = [sieve._index_of(row, 2) for row in digits]
    assert [space.poly_of(i) for i in indices] == drawn_forms(space, 30, 5)


# (scheme, q override, d, B) for the fitted chunk width: 55, 22, 30 and 3
# candidate bits, none a multiple of 4 or 8, and 3 bits take c = 1 for one
# draw
FIT_CASES = {"p2_q2_d9": ("p2", 2, 9, 4),
             "nodal_q4_d3": ("nodal_cubic", 4, 3, 1),
             "p2_q8_d3": ("p2", 8, 3, 1),
             "p1_q2_d2": ("p1", 2, 2, 3)}
FIT_DRAWS = (1, 2, 5, 17, 50, 63, 64, 65, 223, 224, 225, 2000)


def with_wide_points(conds, width, rng):
    """The stack and three points of one degree more with 70 rows each,
    two words per lane: 64 rows of rank 2 and 6 more of rank 2, so a
    candidate can clear the first word and not the second."""
    degrees, funcs = conds
    top = int(degrees.max()) + 1
    wide = [np.concatenate([rng.integers(0, 2, (64, 2))
                            @ rng.integers(0, 2, (2, width)),
                            rng.integers(0, 2, (6, 2))
                            @ rng.integers(0, 2, (2, width))]) % 2
            for _ in range(3)]
    stack = np.zeros((len(funcs) + 3, 70, width), dtype=np.uint8)
    stack[:len(funcs), :funcs.shape[1]] = funcs
    stack[len(funcs):] = wide
    return np.append(degrees, [top] * 3), stack


@lru_cache(maxsize=None)
def fit_case(schemes_dir, case):
    """(space, stack with wide points, digit array, oracle ells) of a case,
    for 2000 draws."""
    scheme, q, d, bound = FIT_CASES[case]
    prob = load_case(schemes_dir, scheme, q)
    space = sieve.candidate_space(prob, d)
    conds = with_wide_points(sieve._conditions(
        prob.X, space, variety.closed_point_arrays(prob.X, bound)),
        prob.field.k * space.rank, np.random.default_rng(q))
    indices = drawn_indices(space, max(FIT_DRAWS), seed=q)
    return (space, conds, index_digits(space, indices),
            ells_by_products(space, conds, indices))


@pytest.mark.parametrize("budget", [None, (40, 64)],
                         ids=["default", "small_blocks"])
@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_fitted_chunks_equal_per_point_products(schemes_dir, monkeypatch,
                                                case, budget):
    # every batch size around the chunk widths' crossovers (c = 2 below 8
    # draws, 4 below 224, 8 from 224 on), on real stacks with wide points
    if budget is not None:
        monkeypatch.setattr(sieve, "_DIGIT_ENTRIES", budget[0])
        monkeypatch.setattr(sieve, "_BLOCK_ENTRIES", budget[1])
    space, conds, digits, expected = fit_case(schemes_dir, case)
    assert len(set(expected.tolist())) > 2
    for n in FIT_DRAWS:
        assert np.array_equal(sieve._ells(space, conds, digits[:n]),
                              expected[:n]), n


def test_chunk_width_rule():
    # ceil(bits / c) * (2^c + n) entries built and read, ties to the larger c
    assert sieve._chunk_width(50, 12) == 4
    assert sieve._chunk_width(2000, 55) == 8
    assert sieve._chunk_width(223, 16) == 4
    assert sieve._chunk_width(224, 16) == 8      # 960 entries either way
    assert sieve._chunk_width(7, 16) == 2
    assert sieve._chunk_width(1, 3) == 1
    assert sieve._chunk_width(2, 3) == 2         # 12 entries either way
    assert sieve._chunk_width(5, 0) == 8


# (scheme text, d): the F_2 certificate's rows from c-bit chunks of short
# batches, over F_2 with two words per row and over F_4
CERT_CASES = {"p2_q2_d5": ("q = 2\nP 2 : x y z\nX:\n", 5),
              "p2_q4_d3": ("q = 4\nP 2 : x y z\nX:\n", 3)}


@pytest.mark.parametrize("case", sorted(CERT_CASES))
def test_short_certificate_batches_equal_per_candidate(case):
    text, d = CERT_CASES[case]
    prob = parse_problem(text)
    space = sieve.candidate_space(prob, d)
    indices = drawn_indices(space, 223, seed=9)
    expected = certify_per_candidate(prob, d, indices)
    assert expected.any() and not expected.all()
    digits = index_digits(space, indices)
    for n in (1, 5, 17, 100, 223):
        assert np.array_equal(sieve._certify_smooth(prob, d, digits[:n]),
                              expected[:n]), n


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("rows", [1, 40])
def test_hits_mod_p_counts_rows_per_point(p, rows):
    # points of one row and of 40 rows of rank 2 (so that candidates clear
    # them), against one product per point
    rng = np.random.default_rng(p * rows)
    n, width = 300, 7
    rank = min(rows, 2)
    funcs = np.stack([rng.integers(0, p, (rows, rank))
                      @ rng.integers(0, p, (rank, width)) % p
                      for _ in range(25)] + [np.zeros((rows, width))])
    degrees = rng.integers(1, 4, len(funcs))
    digits = rng.integers(0, p, (n, width)).astype(np.float64)
    expected = sum(degree * ~(digits @ f.T % p).any(axis=1)
                   for degree, f in zip(degrees, funcs))
    hits = sieve._hits_mod_p(digits, degrees, funcs.astype(np.uint8), p)
    assert np.array_equal(hits, expected)
    assert len(set(hits.tolist())) > 3
