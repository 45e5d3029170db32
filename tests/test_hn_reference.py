"""Differential test of the peeled HN split against the HN-chain recursion.

tests/reference_hn.py is the split that quiverdt.hn replaced: a recursion
over HN chains with its own copy of the twisted product, and framed series
that multiply the pieces below the level again on every call.  The slope
ladder must give equal pieces, rests equal to the products of the pieces
below them, and equal uniform and framed series: at every slope, between
slopes, at both infinities, at levels whose slope class is empty, and at
every wall find_walls reports, on all three sides.  The cases cover the
stock quivers, the 3-Kronecker quiver, a 3-vertex cycle and, through
Hypothesis, random quivers with up to 3 vertices.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_hn as ref
from reference_hn import remultiply_check, torus_product, truncate_tau
from quiverdt.hn import hn_factorize, slope_ladder, universal_for
from quiverdt.quiver import (FramedQuiver, Quiver, c3_quiver, conifold_quiver,
                             dim_vectors_up_to, jordan_quiver, kronecker_quiver,
                             loop_quiver)
from quiverdt.qtorus import TorusSeries, nu_weights, s_twist, torus_mul
from quiverdt.stability import MINUS_INF, PLUS_INF, SIDES, find_walls, theta_slope
from quiverdt.wallcross import framed_at, uniform_series

CYCLE3 = FramedQuiver(Quiver(3, ((0, 1, 0), (0, 0, 1), (1, 0, 0))), (1, 0, 0))
KRON3 = FramedQuiver(Quiver(2, ((0, 3), (0, 0))), (1, 0))

# (name, quiver, thetas, N for the split, N for the walls)
CASES = [
    ("kronecker", kronecker_quiver(), [(1, 0), (0, 1), (2, -1), (0, 0)], 6, 4),
    ("kronecker3", KRON3, [(1, 0), (-1, 1)], 5, 3),
    ("jordan", jordan_quiver(), [(0,), (3,)], 6, 4),
    ("two_loops", loop_quiver(2), [(0,), (-1,)], 5, 3),
    ("cycle3", CYCLE3, [(1, 0, 0), (2, -1, 1), (0, 0, 0)], 4, 3),
    ("c3", c3_quiver(), [(0,)], 5, 3),
    ("conifold", conifold_quiver(), [(1, 0), (-1, 2)], 5, 3),
]
IDS = [case[0] for case in CASES]


def between(slopes):
    """Levels strictly between consecutive slopes and beyond both ends."""
    if not slopes:
        return [Fraction(0)]
    lo, hi = min(slopes), max(slopes)
    mids = [(a + b) / 2 for a, b in zip(slopes, slopes[1:])]
    return [lo - 1, hi + 1] + mids


def check_split(fq, theta, N):
    """hn_factorize, the ladder's rests and uniform_series against the
    reference; returns the universal series it split."""
    bu = universal_for(fq, N)
    want = ref.hn_split(bu.series, tuple(Fraction(t) for t in theta), N)
    got = hn_factorize(bu, theta, N)
    assert got == want and list(got) == list(want)
    # each rest is the decreasing product of the pieces below it, the last is 1
    ladder = slope_ladder(bu, theta, N)
    for i, (mu, piece, rest) in enumerate(ladder):
        assert piece is got[mu]
        assert rest == torus_product(fq, N, [p for _, p, _ in ladder[i + 1:]])
    assert not ladder or ladder[-1][2] == TorusSeries.one(fq, N)
    slopes = sorted(want)
    for a in [PLUS_INF, MINUS_INF] + slopes + between(slopes):
        for side in SIDES:
            assert uniform_series(bu, theta, a, side) == \
                ref._uniform(fq, want, N, a, side), (a, side)
    return bu


@pytest.mark.parametrize("name, fq, thetas, N, _", CASES, ids=IDS)
def test_split_and_uniform_series(name, fq, thetas, N, _):
    for theta in thetas:
        for n in (0, 1, N):  # N = 0 has no rung at all
            check_split(fq, theta, n)


def check_walls(fq, theta, N, alphas) -> None:
    """framed_at against the reference at every wall of every class, all sides."""
    bu = universal_for(fq, N)
    parts = ref.hn_split(bu.series, tuple(Fraction(t) for t in theta), N)
    levels = set()
    for alpha in alphas:
        for c in find_walls(fq, theta, alpha):
            levels.add((c, theta_slope(theta, alpha, c)))
    for c, mu in sorted(levels):
        for side in SIDES:
            got = framed_at(bu, theta, N, c, side, mu).series
            assert got == ref.framed_at(fq, parts, theta, N, c, side, mu), (c, mu, side)


@pytest.mark.parametrize("name, fq, thetas, _, N", CASES, ids=IDS)
def test_framed_at_every_wall(name, fq, thetas, _, N):
    alphas = [a for a in dim_vectors_up_to(fq.n_vertices, N) if sum(a)]
    for theta in thetas:
        check_walls(fq, theta, N, alphas)


@pytest.mark.parametrize("name, fq, thetas, _, N", CASES, ids=IDS)
def test_infinities_and_empty_slope_classes(name, fq, thetas, _, N):
    bu = universal_for(fq, N)
    one = TorusSeries.one(fq, N)
    for theta in thetas:
        assert uniform_series(bu, theta, MINUS_INF) == one
        assert uniform_series(bu, theta, PLUS_INF) == \
            framed_at(bu, theta, N, PLUS_INF).series
        parts = ref.hn_split(bu.series, tuple(Fraction(t) for t in theta), N)
        # a slope class with no piece: far above and below every slope, and
        # between two slopes
        for mu in between(sorted(parts)):
            for c in (mu, mu + 1):
                for side in SIDES:
                    got = framed_at(bu, theta, N, c, side, mu).series
                    assert got == ref.framed_at(fq, parts, theta, N, c, side, mu)


@st.composite
def random_quivers(draw):
    n = draw(st.integers(1, 3))
    arrows = tuple(tuple(draw(st.integers(0, 2)) for _ in range(n)) for _ in range(n))
    w = tuple(draw(st.integers(0, 2)) for _ in range(n))
    theta = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    N = draw(st.integers(1, 4 if n < 3 else 3))
    alpha = draw(st.sampled_from([a for a in dim_vectors_up_to(n, N) if sum(a)]))
    return FramedQuiver(Quiver(n, arrows), w), theta, N, alpha


@settings(max_examples=60, derandomize=True, deadline=None)
@given(random_quivers())
def test_random_quivers(case):
    """The split, its certificate and the framed wall-crossing identity
    A_exact = S_nu(B) . A_minus = A_plus . S_{-nu}(B), cut to the slope line,
    at every wall of one class."""
    fq, theta, N, alpha = case
    bu = check_split(fq, theta, N)
    parts = hn_factorize(bu, theta, N)
    assert remultiply_check(parts, bu)
    for c in find_walls(fq, theta, alpha):
        mu = theta_slope(theta, alpha, c)
        minus, exact, plus = (framed_at(bu, theta, N, c, side, mu).series
                              for side in ("minus", "exact", "plus"))
        B = parts.get(mu, TorusSeries.one(fq, N))

        def cut(series):
            t = truncate_tau(series, theta, c, mu)
            return TorusSeries.one(fq, N) if t.is_zero() else t

        assert cut(torus_mul(s_twist(B, nu_weights(fq, 1)), minus)) == exact
        assert cut(torus_mul(plus, s_twist(B, nu_weights(fq, -1)))) == exact
    check_walls(fq, theta, N, [alpha])
