"""Differential test of the bitmask oracle kernel against the reference oracle.

tests/reference_oracle.py is the oracle that quiverdt.oracle replaced: three
enumeration loops with explicit matrix-vector products and one loop per
framing vector.  Every entry point must give the same answer on the same
arguments, across quivers with several arrows and several framing slots,
stability data on and off the walls on every side, and both infinities.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import cache, partial

import pytest

import reference_oracle as ref
from quiverdt import oracle
from quiverdt.quiver import (FramedQuiver, Quiver, dim_vectors_up_to,
                             jordan_quiver, kronecker_quiver, loop_quiver)
from quiverdt.stability import (MINUS_INF, PLUS_INF, StabilityParams, find_walls,
                                theta_slope)
from reference_qtorus import ext

QUIVERS = {
    "jordan": jordan_quiver(),
    "point": loop_quiver(0),
    "two_loops": loop_quiver(2),
    "kronecker": kronecker_quiver(),
    "jordan_w2": jordan_quiver(w=(2,)),
    "kronecker_w11": kronecker_quiver(w=(1, 1)),
    # a loop at vertex 0 next to an arrow 0 -> 1: both kinds of normal form
    "loop_arrow": FramedQuiver(Quiver(2, ((1, 1), (0, 0))), (1, 0)),
}

# (quiver, q, alpha): every class at q = 2, the smaller ones at q = 3 too
CASES = [(name, q, alpha) for name, alphas in [
    ("jordan", [(1,), (2,)]),
    ("point", [(1,), (2,), (3,)]),
    ("two_loops", [(1,), (2,)]),
    ("kronecker", [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]),
    ("jordan_w2", [(1,), (2,)]),
    ("kronecker_w11", [(1, 0), (1, 1), (2, 1)]),
] for alpha in alphas for q in (2, 3) if q == 2 or sum(alpha) == 1 or name == "jordan"
    or alpha == (1, 1)] + [("loop_arrow", q, alpha)
                           for q, alpha in [(3, (1, 1)), (5, (1, 1)), (3, (1, 2))]]
# the reference needs from 10 s to over 2 min for the entry points on each
# of these, so only the kernel is compared on them
KERNEL_ONLY = [("jordan", 2, (3,)), ("jordan", 3, (3,)), ("two_loops", 3, (2,)),
               ("jordan_w2", 3, (2,)), ("kronecker", 3, (2, 1)), ("kronecker", 2, (2, 2)),
               ("loop_arrow", 3, (2, 1))]

# theta = (1, 1) gives every class the same slope: it lies on every wall
THETAS = {1: [(Fraction(0),), (Fraction(1),)],
          2: [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
              (Fraction(1), Fraction(1))]}


def levels(fq, theta, alpha):
    """The outer walls of alpha, a level between the first two, and one
    level beyond each end."""
    walls = list(find_walls(fq, theta, alpha))
    between = [(walls[0] + walls[1]) / 2] if len(walls) > 1 else []
    return sorted({walls[0], walls[-1]}) + between + [walls[0] - 1, walls[-1] + 1]


def case_id(case):
    name, q, alpha = case
    return f"{name}-q{q}-{''.join(map(str, alpha))}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_entry_points_agree(case):
    name, q, alpha = case
    fq = QUIVERS[name]
    for star in (0, 1):
        assert oracle.count_stack(fq, alpha, "all", q, framed=bool(star)) == \
            ref.count_stack(fq, ext(alpha, star), "all", q)
    for theta in THETAS[len(alpha)]:
        sp = StabilityParams(theta)
        assert oracle.count_stack(fq, alpha, sp, q) == ref.count_stack(fq, alpha, sp, q)
        for c in levels(fq, theta, alpha):
            for side in ("exact", "plus", "minus"):
                sp = StabilityParams(theta, c, side)
                assert oracle.count_stack(fq, alpha, sp, q, framed=True) == \
                    ref.count_stack(fq, ext(alpha, 1), sp, q), (theta, c, side)
                assert oracle.count_framed_stable(fq, alpha, theta, c, side, q) == \
                    ref.count_framed_stable(fq, alpha, theta, c, side, q), (theta, c, side)
            assert oracle.hall_filtration_check(fq, alpha, theta, c, q) == \
                ref.hall_filtration_check(fq, alpha, theta, c, q), (theta, c)
        for c in (PLUS_INF, MINUS_INF):
            assert oracle.count_framed_stable(fq, alpha, theta, c, "exact", q) == \
                ref.count_framed_stable(fq, alpha, theta, c, "exact", q), c


@pytest.mark.parametrize("case", [c for c in CASES if c[0] == "loop_arrow"], ids=case_id)
def test_loop_arrow_counts_are_nonzero(case):
    """The loop-and-arrow comparisons above are not all between zeros."""
    name, q, alpha = case
    fq = QUIVERS[name]
    semistable = [oracle.count_stack(fq, alpha, StabilityParams(theta), q)
                  for theta in THETAS[2]]
    framed = [oracle.count_framed_stable(fq, alpha, theta, c, side, q)
              for theta in THETAS[2] for c in levels(fq, theta, alpha)
              for side in ("exact", "plus", "minus")]
    assert any(semistable + framed)


@pytest.mark.parametrize("case", [c for c in CASES + KERNEL_ONLY if c[0] != "point"],
                         ids=case_id)
def test_invariant_tuples_agree(case):
    """Over all matrix tuples, the kernel finds the same invariant subspace
    tuples as the reference's matrix-vector test (the orders differ), each
    normal-form run counted as often as its weight says."""
    name, q, alpha = case
    fq = QUIVERS[name]
    cands, _ = oracle._candidates(alpha, q)
    members = [oracle._subspaces(q, a)[1] for a in alpha]

    def key(cand):  # a subspace tuple as its members, comparable across both
        return tuple(members[i][k] for i, k in enumerate(cand))

    got = Counter()
    for weight, inv in oracle._invariant_runs(fq, alpha, q, cands):
        got[frozenset(key(cand) for p, cand in enumerate(cands) if inv >> p & 1)] += weight
    arrows = ref._arrow_list(fq)
    shape = [(alpha[j], alpha[i]) for i, j in arrows]
    ref_cands = ref._candidate_tuples(alpha, q)
    want = Counter(
        frozenset(tuple(sum(1 << oracle._index(v, q) for v in c[2]) for c in cand)
                  for cand in ref._invariant_tuples(mats, arrows, ref_cands, q))
        for mats in ref._enumerate_matrices(shape, q))
    assert got == want
    assert sum(got.values()) == q ** sum(alpha[i] * alpha[j] for i, j in arrows)


@pytest.mark.parametrize("name", ["jordan", "kronecker", "two_loops"])
@pytest.mark.parametrize("q", [2, 3])
def test_staged_budget_accepts_what_the_flat_formula_did(name, q):
    """Every class within the cap that the flat formula of the earlier
    kernel accepts at the budget, with all candidates and with and without
    the filtration check's pre-pass over pairs, runs."""
    fq = QUIVERS[name]
    accepted = 0
    for alpha in dim_vectors_up_to(fq.n_vertices, oracle.MAX_TOTAL_DIM):
        cands, _ = oracle._candidates(alpha, q)
        for once in (0, len(cands) ** 2):
            if ref.flat_budget_work(fq, alpha, q, cands, once) <= oracle.BUDGET:
                oracle._invariant_runs(fq, alpha, q, cands, once)
                accepted += 1
    assert accepted


def one_sided_inputs():
    """(theta, alpha, walls, levels): for 1, 2 and 3 vertices, the
    zero and the all-ones theta (every class on one slope) and three drawn
    ones; every class of total at most 6 (5 on three vertices); every wall,
    each midpoint between neighbouring walls, and one level beyond each end.
    Walls and slopes see only theta and the classes, so the quivers have
    no arrows."""
    rng = random.Random(20261019)
    for n, top in [(1, 6), (2, 6), (3, 5)]:
        fq = FramedQuiver(Quiver(n, ((0,) * n,) * n), (1,) + (0,) * (n - 1))
        thetas = [(Fraction(0),) * n, (Fraction(1),) * n] + [
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
            for _ in range(3)]
        for theta in thetas:
            for alpha in dim_vectors_up_to(n, top):
                if sum(alpha):
                    walls = find_walls(fq, theta, alpha)
                    mids = [(a + b) / 2 for a, b in zip(walls, walls[1:])]
                    yield theta, alpha, walls, [*walls, *mids, walls[0] - 1, walls[-1] + 1]


def test_one_sided_flags_match_concrete_levels():
    """The oracle reads c-plus and c-minus as c + eps and c - eps; the
    reference realizes them as a rational between walls.  Both give the
    same flagged classes, for semistability and stability, with no matrix
    enumerated."""
    checked = 0
    for theta, alpha, walls, cs in one_sided_inputs():
        slope = cache(partial(theta_slope, theta))
        for c in cs:
            for side in ("plus", "minus"):
                concrete = ref.resolve_side(walls, c, side)
                for semistable in (True, False):
                    got = oracle._flagged(slope, theta, alpha, c, side, semistable)
                    want = oracle._flagged(slope, theta, alpha, concrete, "exact", semistable)
                    assert got == want, (theta, alpha, c, side, semistable)
                    checked += 1
    assert checked > 10 ** 4
