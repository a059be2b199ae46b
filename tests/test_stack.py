"""The jet conditions of a scan as one stack, sorted by degree and padded
with zero rows, against the per-degree path it replaced
(`oracles.per_degree_conditions`, `scan_all_per_degree`,
`ells_per_degree`): the same functionals, and equal ell arrays from the
exhaustive scan, the degree route's marking pass and the sampled
classifier."""

import random
import tracemalloc

import numpy as np
import pytest

from oracles import (ells_per_degree, per_degree_conditions,
                     scan_all_per_degree)
from smoothsieve import sieve, variety
from smoothsieve.variety import load_problem, parse_problem

QUADRIC = "q = {q}\nP 3 : x y z w\nX:\n  x*y + z*w\ndim X = 2\n"
# one closed point of degree 2 and none of degree 1
NO_RATIONAL_POINT = "q = 2\nP 1 : x y\nX:\n  x^2 + x*y + y^2\n"
# Z = P^2: only the zero form contains it, so I_d has rank 0
AMBIENT_Z = "q = 2\nP 2 : x y z\nX:\nZ:\ndim X = 2\n"

# (scheme file or text, q override, d, B)
CASES = {
    "p1_q2": ("p1", 2, 5, 3),
    "p2_q2": ("p2", 2, 4, 4),
    "nodal_q2": ("nodal_cubic", 2, 3, 3),        # P^3 through Z: a lift
    "cuspidal_q2": ("cuspidal_cubic", 2, 3, 2),
    "p2_q3": ("p2", 3, 3, 2),
    "p2_q4": ("p2", 4, 2, 2),
    "quadric_q2": (QUADRIC.format(q=2), None, 2, 3),  # Jacobian reduces
    "quadric_q3": (QUADRIC.format(q=3), None, 2, 2),
    "no_rational_point": (NO_RATIONAL_POINT, None, 3, 2),
    "rank_0": (AMBIENT_Z, None, 2, 2),
}


def load_case(schemes_dir, case):
    scheme, q, d, bound = CASES[case]
    if "\n" in scheme:
        problem = parse_problem(scheme)
    else:
        problem = load_problem(schemes_dir / f"{scheme}.scm", q_override=q)
    space = sieve.candidate_space(problem, d)
    groups = variety.closed_point_arrays(problem.X, bound)
    return (space, sieve._conditions(problem.X, space, groups),
            per_degree_conditions(problem.X, space, groups))


@pytest.mark.parametrize("case", sorted(CASES))
def test_stack_pads_the_per_degree_conditions(schemes_dir, case):
    space, (degrees, funcs), per_degree = load_case(schemes_dir, case)
    assert degrees.tolist() == [e for e, group in per_degree
                                for _ in group]
    assert funcs.shape[1] == max(group.shape[1] for _, group in per_degree)
    for e, group in per_degree:
        own = funcs[degrees == e]
        assert np.array_equal(own[:, :group.shape[1]], group)
        assert not own[:, group.shape[1]:].any()
    if case == "no_rational_point":
        assert [e for e, _ in per_degree] == [2]
    if case == "rank_0":
        assert space.rank == 0 and funcs.shape[2] == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_all_equals_per_degree(schemes_dir, case):
    space, conds, per_degree = load_case(schemes_dir, case)
    assert np.array_equal(sieve._scan_all(space, conds),
                          scan_all_per_degree(space, per_degree))


@pytest.mark.parametrize("case", sorted(CASES))
def test_marking_pass_equals_per_degree(schemes_dir, case):
    # the degree route's second pass marks the candidates singular at a
    # point above the split with 1, over ell of the points below it
    space, (degrees, funcs), per_degree = load_case(schemes_dir, case)
    split = int(np.searchsorted(degrees, 1, side="right"))
    ell = sieve._scan_all(space, (degrees[:split], funcs[:split]))
    expected = scan_all_per_degree(space, per_degree[:1] if split else [])
    assert np.array_equal(ell, expected)
    sieve._scan_all(space, (degrees[split:], funcs[split:]), ell)
    scan_all_per_degree(space, per_degree[1:] if split else per_degree,
                        expected)
    assert np.array_equal(ell, expected)


@pytest.mark.parametrize("case", sorted(CASES))
def test_ells_equal_per_degree(schemes_dir, case):
    space, conds, per_degree = load_case(schemes_dir, case)
    digits = sieve._draws(random.Random(len(case)), space.problem.field,
                          space.rank, 700)
    ell = sieve._ells(space, conds, digits)
    assert np.array_equal(ell, ells_per_degree(space, per_degree, digits))
    assert len(set(ell.tolist())) > (1 if case != "rank_0" else 0)


@pytest.mark.parametrize("case", ["p2_q2", "nodal_q2", "quadric_q3"])
def test_small_budgets_equal_per_degree(schemes_dir, monkeypatch, case):
    # many blocks of points, tables of one word and batches of 64 draws
    monkeypatch.setattr(sieve, "_DIGIT_ENTRIES", 40)
    monkeypatch.setattr(sieve, "_BLOCK_ENTRIES", 64)
    space, conds, per_degree = load_case(schemes_dir, case)
    digits = sieve._draws(random.Random(3), space.problem.field,
                          space.rank, 300)
    assert np.array_equal(sieve._ells(space, conds, digits),
                          ells_per_degree(space, per_degree, digits))
    assert np.array_equal(sieve._scan_all(space, conds),
                          scan_all_per_degree(space, per_degree))


def check_pivot_rows_against_swaps(problem, d, bound, split):
    """`_scan_all` on the stack of problem's points of degree <= bound
    against the oracle's swap-based elimination and kernels: counting ell,
    and marking the points above degree split over ell of those below."""
    space = sieve.candidate_space(problem, d)
    groups = variety.closed_point_arrays(problem.X, bound)
    degrees, funcs = sieve._conditions(problem.X, space, groups)
    per_degree = per_degree_conditions(problem.X, space, groups)
    assert np.array_equal(sieve._scan_all(space, (degrees, funcs)),
                          scan_all_per_degree(space, per_degree))
    at = int(np.searchsorted(degrees, split, side="right"))
    ell = sieve._scan_all(space, (degrees[:at], funcs[:at]))
    expected = scan_all_per_degree(space, [g for g in per_degree
                                           if g[0] <= split])
    sieve._scan_all(space, (degrees[at:], funcs[at:]), ell)
    scan_all_per_degree(space, [g for g in per_degree if g[0] > split],
                        expected)
    assert np.array_equal(ell, expected)
    assert 0 < np.count_nonzero(ell == 0) < len(ell)


# F_2 stacks of the exhaustive scans the benchmark times: (scheme, d, B)
F2_STACKS = {"p2_d4_b6": ("p2", 4, 6), "p2_d5_b6": ("p2", 5, 6),
             "nodal_d3_b4": ("nodal_cubic", 3, 4)}


@pytest.mark.parametrize("budget", [1 << 16, 3000])
@pytest.mark.parametrize("case", sorted(F2_STACKS))
def test_f2_pivot_rows_equal_swap_elimination(schemes_dir, monkeypatch, case,
                                              budget):
    # the pivot rows and the kernel steps read off them, on whole stacks
    # and on blocks of about 130 points
    monkeypatch.setattr(sieve, "_DIGIT_ENTRIES", budget)
    scheme, d, bound = F2_STACKS[case]
    check_pivot_rows_against_swaps(
        load_problem(schemes_dir / f"{scheme}.scm"), d, bound, 2)


@pytest.mark.parametrize("price", [0, 1 << 62], ids=["scatter", "dense"])
@pytest.mark.parametrize("case", sorted(F2_STACKS) + ["nodal_q2", "p1_q2"])
def test_f2_dense_and_scatter_routes_equal_swap_elimination(
        schemes_dir, monkeypatch, case, price):
    # price 0 scatters every kernel, the largest price reads every kernel
    # short of full rank off dense passes, counting and marking
    monkeypatch.setattr(sieve, "_SCATTER_PRICE", price)
    scheme, q, d, bound = (CASES[case] if case in CASES
                           else (F2_STACKS[case][0], 2, *F2_STACKS[case][1:]))
    check_pivot_rows_against_swaps(
        load_problem(schemes_dir / f"{scheme}.scm", q_override=q), d, bound, 2)


def test_f2_scan_temporaries_stay_within_blocks(schemes_dir):
    # every temporary is at most 8 * _DIGIT_ENTRIES bytes and at most two
    # are alive at once (a dense pass's mask and its counts; a block of
    # kernel indices is released before the next is built), so two blocks
    # bound the peak beyond ell; one rational point's span of 2^18 int64
    # indices alone would be four
    problem = load_problem(schemes_dir / "p2.scm")
    space = sieve.candidate_space(problem, 5)
    conds = sieve._conditions(problem.X, space,
                              variety.closed_point_arrays(problem.X, 3))
    tracemalloc.start()
    try:
        ell = sieve._scan_all(space, conds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ell) == 1 << 21
    assert peak - ell.nbytes <= 2 * 8 * sieve._DIGIT_ENTRIES


# odd-p stacks: generic_q's exhaustive scan and others over F_3 and F_5,
# and one over F_131, where the sum of two kernel digits passes 255
# (scheme file or text, q, d, B)
ODD_STACKS = {"p2_q3_d2_b3": ("p2", 3, 2, 3), "p2_q5_d2_b2": ("p2", 5, 2, 2),
              "nodal_q3_d3_b3": ("nodal_cubic", 3, 3, 3),
              "quadric_q3_d2_b3": (QUADRIC.format(q=3), None, 2, 3),
              "p1_q131_d2_b1": ("p1", 131, 2, 1)}


@pytest.mark.parametrize("budget", [1 << 16, 3000])
@pytest.mark.parametrize("case", sorted(ODD_STACKS))
def test_odd_pivot_rows_equal_swap_elimination(schemes_dir, monkeypatch,
                                               case, budget):
    # the odd-p pivot rows and the kernel spans read off them, against the
    # oracle's `echelon_stack` and `kernel_indices`, on whole stacks and on
    # blocks of a few dozen points
    monkeypatch.setattr(sieve, "_DIGIT_ENTRIES", budget)
    scheme, q, d, bound = ODD_STACKS[case]
    problem = (parse_problem(scheme) if "\n" in scheme else
               load_problem(schemes_dir / f"{scheme}.scm", q_override=q))
    assert problem.field.p > 2
    check_pivot_rows_against_swaps(problem, d, bound, 1)


@pytest.mark.parametrize("bound", [1, 2])
def test_degree_route_equals_per_degree(schemes_dir, bound):
    # p2 over F_2 at d = 4 scans on to B* = 4: the forms clean there are
    # the smooth ones
    problem = load_problem(schemes_dir / "p2.scm")
    space = sieve.candidate_space(problem, 4)
    groups = variety.closed_point_arrays(problem.X, 4)
    per_degree = per_degree_conditions(problem.X, space, groups)
    ell = scan_all_per_degree(space, per_degree[:bound])
    ell[0] = sieve._INFINITE
    clean = int(np.count_nonzero(ell == 0))
    scan_all_per_degree(space, per_degree[bound:], ell)
    smooth = int(np.count_nonzero(ell[1:] == 0))
    res = sieve._run_scan(problem, 4, ("exhaustive",), bound, True, 0,
                          sieve.DEFAULT_CAP)
    assert (res.smooth_count, res.unresolved) == (smooth, clean - smooth)
    assert smooth == 10920  # workload P2_EXACT, by the certificate oracle


@pytest.mark.parametrize("scheme,r,d", [("p2", 3, 25), ("nodal_cubic", 3, 4),
                                        ("p1", 2, 8)])
def test_lowdeg_equals_per_degree(schemes_dir, scheme, r, d):
    problem = load_problem(schemes_dir / f"{scheme}.scm",
                           q_override=3 if scheme == "p1" else None)
    space = sieve.candidate_space(problem, d)
    per_degree = per_degree_conditions(
        problem.X, space, variety.closed_point_arrays(problem.X, r - 1))
    digits = sieve._draws(random.Random(5), problem.field, space.rank,
                          1500)
    expected = int(np.count_nonzero(
        ells_per_degree(space, per_degree, digits) == 0))
    est = sieve.estimate_low_degree(problem, r, d, 1500, seed=5)
    assert est.count_smooth == expected
    assert 0 < expected < 1500


def test_sampled_scan_equals_per_degree(schemes_dir):
    # the sampled route of `_run_scan`: draws, the classifier, f = 0
    problem = load_problem(schemes_dir / "p2.scm")
    space = sieve.candidate_space(problem, 9)
    per_degree = per_degree_conditions(
        problem.X, space, variety.closed_point_arrays(problem.X, 6))
    digits = sieve._draws(random.Random(8), problem.field, space.rank, 2000)
    ell = ells_per_degree(space, per_degree, digits)
    ell[~digits.any(axis=1)] = sieve._INFINITE
    res = sieve._run_scan(problem, 9, ("sample", 2000), 6, False, 8,
                          sieve.DEFAULT_CAP)
    counts = dict(zip(*np.unique(ell, return_counts=True)))
    assert res.smooth_count == counts.pop(0)
    assert dict(res.ell_counts) == {int(k): int(v)
                                    for k, v in counts.items()}
