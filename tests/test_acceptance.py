"""End-to-end acceptance suite: one test per numbered criterion.

Each test is self-contained, asserts exact (symbolic or integer) equality,
and enforces its own wall-clock budget, so `pytest -v` reports one
pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from plane_partitions import plane_partitions
from reference_hn import remultiply_check, transfer_slope_product, truncate_tau
from quiverdt.hn import hn_factorize, universal_for, universal_trivial, verify_coefficient
from quiverdt.oracle import count_framed_stable, count_stack
from quiverdt.quiver import (c3_quiver, conifold_quiver, dim_vectors_up_to,
                             is_symmetric, jordan_quiver,
                             kronecker_quiver, loop_quiver, sub_vectors,
                             tits_form)
from quiverdt.qtorus import (TorusSeries, nu_weights, pleth_exp, pleth_log,
                             s_twist, torus_div, torus_mul)
from quiverdt.scalar import L, ONE, Scalar
from quiverdt.stability import PLUS_INF, StabilityParams, find_walls, theta_slope
from quiverdt.wallcross import (dt_omega, framed_at, general_wallcross, ncdt,
                                smooth_model_motive, transfer_series)

V = Scalar.v_pow(1)


def test_criterion_1_cyclic_series_counts_plane_partitions():
    """Three-loop cyclic series at the euler point vs direct enumeration."""
    t0 = time.monotonic()
    fq = c3_quiver()
    series = ncdt(universal_for(fq, 7))
    got = [series.coeff((n,)).specialize() for n in range(8)]
    assert got == [plane_partitions(n) for n in range(8)]
    assert time.monotonic() - t0 < 5.0


def test_criterion_2_one_loop_framed_moduli_are_affine_spaces():
    """[moduli at (n, 1)] = L^n, and its point counts check out."""
    t0 = time.monotonic()
    fq = jordan_quiver()
    bu = universal_for(fq, 8)
    motives = {n: smooth_model_motive(bu, (0,), (n,)) for n in range(1, 9)}
    for n in range(1, 9):
        assert motives[n] == L ** n
    for n in (1, 2, 3):
        for q in (2, 3):
            counted = count_framed_stable(fq, (n,), (0,), 0, "plus", q)
            assert motives[n].specialize_L(q) == counted
    assert time.monotonic() - t0 < 30.0


def test_criterion_3_series_coefficients_match_finite_field_counts():
    """Universal and slope-piece coefficients vs point counts over F_2, F_3."""
    t0 = time.monotonic()
    cases = [(loop_quiver(0), (0,)), (loop_quiver(1), (0,)),
             (loop_quiver(2), (0,)), (kronecker_quiver(), (1, 0))]
    for fq, theta in cases:
        bu = universal_trivial(fq, 3)
        parts = hn_factorize(bu, theta)
        sp = StabilityParams(theta)
        for alpha in dim_vectors_up_to(fq.n_vertices, 3):
            if not sum(alpha):
                continue
            chi = tits_form(fq, alpha)
            mu = sum(Fraction(t) * a for t, a in zip(theta, alpha)) / sum(alpha)
            piece = parts.get(mu, TorusSeries.one(fq, 3)).coeff(alpha)
            for q in (2, 3):
                n_all = count_stack(fq, alpha, "all", q)
                assert verify_coefficient(bu.series.coeff(alpha), n_all, q, chi=chi)
                n_sst = count_stack(fq, alpha, sp, q)
                assert verify_coefficient(piece, n_sst, q, chi=chi)
    assert time.monotonic() - t0 < 120.0


def test_criterion_4_wall_crossing_identities_hold_termwise():
    """Both crossing products, the stepping operator, and the transfer
    route (symmetric cases) agree termwise at N = 6 on four quivers."""
    t0 = time.monotonic()
    N = 6
    setups = [(jordan_quiver(), (0,), Fraction(0)),
              (c3_quiver(), (0,), Fraction(0)),
              (conifold_quiver(), (1, 0), Fraction(1, 2)),
              (kronecker_quiver(), (1, 0), Fraction(1, 2))]
    for fq, theta, mu in setups:
        bu = universal_for(fq, N)
        parts = hn_factorize(bu, theta)
        B = parts[mu]
        a_minus = framed_at(bu, theta, mu, "minus", mu)
        a_exact = framed_at(bu, theta, mu, "exact", mu)
        a_plus = framed_at(bu, theta, mu, "plus", mu)
        snu = s_twist(B, nu_weights(fq, 1))
        sdn = s_twist(B, nu_weights(fq, -1))
        assert a_exact.series == torus_mul(snu, a_minus.series)
        assert a_exact.series == torus_mul(a_plus.series, sdn)
        assert general_wallcross(a_minus, bu, "plus").series == \
            a_plus.series
        if is_symmetric(fq):
            below = transfer_slope_product(fq, parts, N, lambda b: b < mu)
            above = transfer_slope_product(fq, parts, N, lambda b: b > mu)
            thru = transfer_slope_product(fq, parts, N, lambda b: b <= mu)
            top = framed_at(bu, theta, PLUS_INF).series
            lifted = torus_div(top, above, left=True)
            assert truncate_tau(below, theta, mu, mu) == a_minus.series
            assert truncate_tau(lifted, theta, mu, mu) == a_plus.series
            assert truncate_tau(thru, theta, mu, mu) == \
                truncate_tau(lifted, theta, mu, mu)
        else:
            with pytest.raises(ValueError):
                transfer_series(B)
    assert time.monotonic() - t0 < 60.0


def test_criterion_5_inversion_round_trips():
    """Exp/Log invert each other on random commuting series; the slope
    factorization re-multiplies; the invariants re-exponentiate."""
    t0 = time.monotonic()
    N = 6
    fq = jordan_quiver()
    rng = random.Random(20260822)

    def rand_scalar():
        s = Scalar.of(0)
        for k in range(3):
            s = s + Scalar.v_pow(k - 1) * rng.randint(-3, 3)
        return s

    for _ in range(25):
        f = TorusSeries(fq, N, {(n,): rand_scalar() for n in range(1, N + 1)})
        assert pleth_log(pleth_exp(f)) == f
        g = TorusSeries(fq, N, {(0,): ONE, **{(n,): rand_scalar() for n in range(1, N + 1)}})
        assert pleth_exp(pleth_log(g)) == g

    for fq2, theta in [(kronecker_quiver(), (1, 0)), (conifold_quiver(), (1, 0))]:
        bu = universal_for(fq2, N)
        assert remultiply_check(hn_factorize(bu, theta), bu)

    co = conifold_quiver()
    bu = universal_for(co, N)
    s = ONE / (L - 1)
    assert pleth_exp(dt_omega(bu.series).map_coeffs(lambda k, c: c * s)) == bu.series
    assert time.monotonic() - t0 < 60.0


def test_criterion_6_resolved_conifold_invariants():
    """The invariant table up to total dimension 6, plus the positivity
    diagnostic: substituting v -> -v leaves nonnegative integer coefficients."""
    t0 = time.monotonic()
    fq = conifold_quiver()
    om = dt_omega(universal_for(fq, 6).series).coeffs
    expect = {}
    for n in range(1, 4):
        expect[(n, n)] = L + L * L
    for n in range(3):
        expect[(n + 1, n)] = -V
        expect[(n, n + 1)] = -V
    assert om == expect
    for value in om.values():
        assert value.den == ONE.den  # a polynomial in v
        for k, c in enumerate(value.num):
            flipped = c if k % 2 == 0 else -c
            assert flipped >= 0 and flipped.denominator == 1
    assert time.monotonic() - t0 < 10.0


def test_criterion_7_walls_are_finite_and_intervals_are_stable():
    """Every class has finitely many walls, each wall is realized by some
    subclass, and random probes between consecutive walls always order the
    slopes the same way."""
    t0 = time.monotonic()
    rng = random.Random(7)
    setups = [(jordan_quiver(), (0,)), (kronecker_quiver(), (1, 0)),
              (kronecker_quiver(), (-1, 2))]
    for fq, theta in setups:
        for alpha in dim_vectors_up_to(fq.n_vertices, 6):
            walls = find_walls(fq, theta, alpha)
            if not sum(alpha):
                assert walls == ()
                continue
            assert len(walls) < 2 * len(list(sub_vectors(alpha)))

            def signature(c):
                target = theta_slope(theta, alpha, c)
                out = []
                for b in sub_vectors(alpha):
                    for s in (0, 1):
                        if (sum(b) == 0 and s == 0) or (b == alpha and s == 1):
                            continue
                        d = theta_slope(theta, b, c if s else None) - target
                        out.append((d > 0) - (d < 0))
                return tuple(out)

            for w in walls:
                assert 0 in signature(w)
            if walls:
                grid = [walls[0] - 1] + list(walls) + [walls[-1] + 1]
            else:
                grid = [Fraction(-3), Fraction(3)]
            for lo, hi in zip(grid, grid[1:]):
                probes = [lo + (hi - lo) * Fraction(rng.randint(1, 99), 100)
                          for _ in range(3)]
                base = signature(probes[0])
                assert all(signature(c) == base for c in probes[1:])
    assert time.monotonic() - t0 < 30.0
