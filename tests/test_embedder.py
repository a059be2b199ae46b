"""Cross-checks of the predictors' complement counts and the embedder's
jet-condition filter against the routes they replace.

`predict_density` and `low_degree_predictor` read the closed-point counts
of X - V off the stratification of V and X's own counts;
`zeta.profile_from_scheme` scans X - V, and `oracles.low_degree_predictor`
takes one factor per closed point of V and enumerates X - V.  The embedder rejects a draw singular at a closed point of degree
<= e_max by the scan's jet conditions; `GradedIdeal.find_point` searches
the points of V(J) one draw at a time, and `oracles.embed_per_draw` is the
former per-draw loop.
"""

import random
from dataclasses import replace

import pytest

import oracles
from smoothsieve import sieve, variety, zeta
from smoothsieve.graded import GradedIdeal
from smoothsieve.variety import load_problem, parse_problem

QUADRIC = """q = {q}
P 3 : x0 x1 x2 x3
X:
  x0*x1 + x2*x3
{removed}Z:
  x0
  x2
dim X = 2
"""

# the cone x0 x1 + x2^2 is singular at its rational vertex (0:0:0:1), off
# the conic Z; f = x3 cuts Z itself out of it
CONE = """q = 2
P 3 : x0 x1 x2 x3
X:
  x0*x1 + x2^2
Z:
  x3
  x0*x1 + x2^2
dim X = 2
"""


# a smooth conic: the chain P^3 > plane > conic has two steps, so the
# second step's draws follow the first step's winner on the same stream
CONIC = """q = 2
P 3 : x0 x1 x2 x3
X:
Z:
  x3
  x0*x1 + x2^2
dim X = 3
"""


def _quadric(q, removed):
    return parse_problem(QUADRIC.format(
        q=q, removed="X.remove:\n  x1\n" if removed else ""))


def _problem(schemes_dir, name, q):
    if name.startswith("quadric"):
        return _quadric(q, name.endswith("removed"))
    return load_problem(schemes_dir / f"{name}.scm", q_override=q)


# -- complement counts ----------------------------------------------------------

@pytest.mark.parametrize("name", ["nodal_cubic", "cuspidal_cubic",
                                  "nonreduced_line", "obstructed_axes",
                                  "quadric", "quadric_removed"])
@pytest.mark.parametrize("q", [2, 3])
def test_complement_profile_equals_scan_of_complement(schemes_dir, name, q):
    prob = _problem(schemes_dir, name, q)
    m = prob.X.dim()
    # the predictor's default b (5 for the curves, 4 for the quadric), but
    # at most 4 over F_3: the axes' points through F_243 take seconds there
    b = max([m] + list(prob.dims.values())) + 2
    if q == 3:
        b = min(b, 4)
    table = variety.stratify(sieve.intersection_presentation(prob), b,
                             prob.dims)
    got = zeta.profile_from_counts(
        sieve._complement_counts(prob, table, b, sieve.DEFAULT_CAP),
        prob.field.q, m, b)
    xmv = replace(oracles.complement_presentation(prob), declared_dim=m)
    want = zeta.profile_from_scheme(xmv, b)
    assert (got.a, got.poly, got.dim, got.flags) == (
        want.a, want.poly, want.dim, want.flags)


LOWDEG_CASES = ([(name, q, r) for name in ("p1", "p2", "nodal_cubic",
                                           "cuspidal_cubic", "nonreduced_line",
                                           "obstructed_axes")
                 for q in (2, 3, 4) for r in (1, 2, 3, 4)]
                + [(name, 2, r) for name in ("quadric", "quadric_removed")
                   for r in (2, 3, 4)])


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name,q,r", LOWDEG_CASES)
def test_low_degree_predictor_equals_per_point_product(schemes_dir, name, q,
                                                       r):
    prob = _problem(schemes_dir, name, q)
    assert (_value_or_error(sieve.low_degree_predictor, prob, r)
            == _value_or_error(oracles.low_degree_predictor, prob, r))


# -- the jet-condition filter ---------------------------------------------------

FILTER_CASES = ([(name, 2, d) for name in ("nodal_cubic", "cuspidal_cubic")
                 for d in (2, 3, 4)]
                + [(name, 3, d) for name in ("nodal_cubic", "cuspidal_cubic")
                   for d in (2, 3)]
                + [("quadric", 2, 2), ("quadric_removed", 2, 2)])


@pytest.mark.parametrize("name,q,d", FILTER_CASES)
def test_jet_filter_flags_exactly_the_draws_with_a_point(schemes_dir, name,
                                                         q, d):
    prob = _problem(schemes_dir, name, q)
    X, spec = prob.X, prob.field
    space = sieve.candidate_space(prob, d)
    conds = sieve._conditions(X, space, variety.closed_point_arrays(X, 2))
    digits = sieve._draws(random.Random(q * 100 + d), spec.q, space.rank, 300)
    ells = sieve._ells(space, conds, digits)
    flagged = 0
    for row, ell in zip(digits, ells.tolist()):
        cand = sieve._index_of(row, spec.p)
        if not cand:
            continue
        f = space.poly_of(cand)
        J = GradedIdeal(spec, prob.nvars, sieve._jacobian_ideal_polys(
            list(X.equations) + [f], spec, prob.nvars))
        assert (ell > 0) == (J.find_point(2, X.removed) is not None)
        flagged += ell > 0
    assert 0 < flagged < len(digits)  # both answers occur


# -- the embedder against the per-draw loop -------------------------------------

def _outcome(embed, prob, target_dim=2, d_max=8, **kwargs):
    try:
        return embed(prob, target_dim, d_max, **kwargs)
    except sieve.NoSmoothHypersurfaceFound as exc:
        return ("exhausted", exc.d_max, exc.tries)


EMBED_RUNS = ([(name, None, d_min, range(60))
               for name in ("nodal_cubic", "cuspidal_cubic")
               for d_min in (1, 2, 3)]
              + [("nodal_cubic", q, d_min, range(8)) for q in (3, 4)
                 for d_min in (1, 2, 3)])


@pytest.mark.parametrize("name,q,d_min,seeds", EMBED_RUNS)
def test_embed_equals_per_draw_loop(schemes_dir, name, q, d_min, seeds):
    prob = load_problem(schemes_dir / f"{name}.scm", q_override=q)
    for seed in seeds:
        assert (_outcome(sieve.embed_curve, prob, seed=seed, d_min=d_min)
                == _outcome(oracles.embed_per_draw, prob, seed=seed,
                            d_min=d_min)), seed


@pytest.mark.parametrize("chunk", [1, 7])
def test_embed_equals_per_draw_loop_across_chunks(schemes_dir, monkeypatch,
                                                  chunk):
    # a winner in the middle of a chunk, in its last place, and chunks
    # ending between the draws of one degree
    monkeypatch.setattr(sieve, "_EMBED_CHUNK", chunk)
    for name in ("nodal_cubic", "cuspidal_cubic"):
        prob = load_problem(schemes_dir / f"{name}.scm")
        for d_min in (1, 2, 3):
            for seed in range(10):
                assert (_outcome(sieve.embed_curve, prob, seed=seed,
                                 d_min=d_min)
                        == _outcome(oracles.embed_per_draw, prob, seed=seed,
                                    d_min=d_min)), (name, d_min, seed)


def test_embed_chain_of_two_steps_equals_per_draw_loop():
    conic = parse_problem(CONIC)
    chains = 0
    for seed in range(12):
        got = _outcome(sieve.embed_curve, conic, 1, 2, seed=seed)
        assert got == _outcome(oracles.embed_per_draw, conic, 1, 2,
                               seed=seed)
        chains += isinstance(got, sieve.EmbedResult) and len(got.steps) == 2
    assert chains


def test_embed_falls_back_where_the_conditions_refuse(schemes_dir,
                                                      monkeypatch):
    # X singular at a rational point: `_conditions` refuses, and every draw
    # gets the per-draw point search; conditions priced at one draw ask
    # for them from the second draw of a degree on
    monkeypatch.setattr(sieve, "_SEARCH_POINTS", 10 ** 9)
    refusals = []
    for name in ("_conditions", "closed_point_arrays"):
        monkeypatch.setattr(sieve, name, _recording(getattr(sieve, name),
                                                    refusals))
    cone = parse_problem(CONE)
    space = sieve.candidate_space(cone, 1)
    with pytest.raises(sieve.UnsupportedPresentation):
        sieve._conditions(cone.X, space, variety.closed_point_arrays(
            cone.X, 2))
    # x3 wins at degree 1; at degree 2, f = x3 h on X, so X cap H_f is Z
    # plus X cap V(h), singular where they meet, and the budget runs out
    refused = 0
    for d_min, seeds in ((1, range(4)), (2, range(1))):
        for seed in seeds:
            refusals.clear()
            got = _outcome(sieve.embed_curve, cone, d_max=2, seed=seed,
                           d_min=d_min)
            assert got == _outcome(oracles.embed_per_draw, cone, d_max=2,
                                   seed=seed, d_min=d_min)
            assert isinstance(got, sieve.EmbedResult) == (d_min == 1)
            # at most once per chain step, then the degrees go on without
            assert refusals in ([], ["UnsupportedPresentation"])
            refused += len(refusals)
    assert refused
    refusals.clear()
    # the point cap refuses F_16 at e_max = 4 but not the precheck's F_8
    nodal = load_problem(schemes_dir / "nodal_cubic.scm")
    with pytest.raises(variety.EnumerationCapExceeded):
        variety.closed_point_arrays(nodal.X, 4, cap=1000)
    for seed in range(3):
        assert (_outcome(sieve.embed_curve, nodal, seed=seed, d_min=3,
                         e_max=4, cap=1000)
                == _outcome(oracles.embed_per_draw, nodal, seed=seed,
                            d_min=3, e_max=4, cap=1000))
    assert "EnumerationCapExceeded" in refusals


def _recording(func, refusals):
    """`func`, appending the name of each exception it raises."""
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (sieve.UnsupportedPresentation,
                variety.EnumerationCapExceeded) as exc:
            refusals.append(type(exc).__name__)
            raise
    return wrapper
