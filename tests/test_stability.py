import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverdt.hn import slope_ladder, universal_for
from quiverdt.oracle import count_framed_stable, hall_filtration_check
from quiverdt.quiver import jordan_quiver, kronecker_quiver, sub_vectors
from quiverdt.stability import (MINUS_INF, PLUS_INF, StabilityParams, check_alpha,
                                check_theta, find_walls, theta_slope)
from quiverdt.wallcross import framed_at
from reference_oracle import resolve_side

KRON = kronecker_quiver()
JORDAN = jordan_quiver()


class TestParams:
    def test_theta_coerced(self):
        sp = StabilityParams((1, "2/3"), Fraction(1, 2), "plus")
        assert sp.theta == (Fraction(1), Fraction(2, 3))
        assert sp.c == Fraction(1, 2) and sp.is_finite()

    def test_infinite_c(self):
        sp = StabilityParams((0,), PLUS_INF)
        assert not sp.is_finite()
        assert StabilityParams((0,), MINUS_INF).c == MINUS_INF

    def test_side_validated(self):
        # one line naming the sides and the value given
        with pytest.raises(ValueError, match=(
                r"^side must be one of \('exact', 'plus', 'minus'\), not 'left'$")):
            StabilityParams((0,), 0, "left")

    @pytest.mark.parametrize("call, message", [
        (lambda: check_theta(KRON, (0.1, 0)), "theta weight 0.1"),
        (lambda: find_walls(KRON, (1, 0.5), (1, 1)), "theta weight 0.5"),
        (lambda: StabilityParams((1, float("inf"))), "theta weight inf"),
        (lambda: StabilityParams((1, 0), 0.1), "level c 0.1"),
        (lambda: StabilityParams((1, 0), float("nan"), "plus"), "level c nan"),
        (lambda: count_framed_stable(KRON, (1, 1), (1, 0), 0.5, "plus", 2), "level c 0.5"),
        (lambda: hall_filtration_check(KRON, (1, 1), (1, 0), 0.5, 2), "level c 0.5"),
        (lambda: framed_at(universal_for(KRON, 2), (1, 0), 0.5, "plus", 1), "level c 0.5"),
    ], ids=["check_theta", "find_walls", "theta-inf", "StabilityParams", "level-nan",
            "count_framed_stable", "hall_filtration_check", "framed_at"])
    def test_inexact_float_refused(self, call, message):
        # a float that is not an integer stands for a binary fraction, not the
        # rational meant: one line naming it
        with pytest.raises(ValueError, match=(
                f"^{message} is not exact: give an int, a Fraction or 'p/q'$")):
            call()

    def test_integral_float_and_infinite_levels_kept(self):
        # as check_alpha keeps 1.0, an integral float is the integer it holds
        sp = StabilityParams((1.0, -2.0), 3.0, "plus")
        assert sp.theta == (1, -2) and sp.c == 3 and type(sp.c) is Fraction
        assert check_theta(KRON, (0.0, 4.0)) == (0, 4)
        assert StabilityParams((0,), float("inf")).c == PLUS_INF
        assert StabilityParams((0,), float("-inf")).c == MINUS_INF

    def test_infinite_c_is_exact_only(self):
        with pytest.raises(ValueError, match="finite c"):
            StabilityParams((0,), PLUS_INF, "plus")


class TestSlope:
    def test_framed_and_unframed(self):
        assert theta_slope((1, 0), (1, 1)) == Fraction(1, 2)
        assert theta_slope((1, 0), (1, 1), Fraction(1, 2)) == Fraction(1, 2)
        assert theta_slope((1, 0), (1, 0), Fraction(1, 2)) == Fraction(3, 4)
        assert theta_slope((0,), (0,), 3) == 3  # the bare framing line

    def test_zero_class(self):
        with pytest.raises(ZeroDivisionError):
            theta_slope((1, 0), (0, 0))

    def test_int_and_fraction_theta_agree(self):
        # callers pass ints or check_theta's Fractions; both give one slope
        for theta in [(1, 0), (2, -1), (0, 3)]:
            frac = check_theta(KRON, theta)
            for d in [(1, 0), (1, 1), (2, 3)]:
                assert theta_slope(theta, d) == theta_slope(frac, d)
                for c in (Fraction(1, 2), 0, -2):
                    got = theta_slope(theta, d, c)
                    assert got == theta_slope(frac, d, c)
                    assert type(got) is Fraction


class TestFindWalls:
    def test_kronecker_example(self):
        walls = find_walls(KRON, (1, 0), (1, 1))
        assert walls == (Fraction(-1), Fraction(1, 2), Fraction(2))

    def test_jordan_degenerate_theta(self):
        assert find_walls(JORDAN, (0,), (3,)) == (Fraction(0),)

    def test_zero_class_has_no_walls(self):
        assert find_walls(KRON, (1, 0), (0, 0)) == ()

    @pytest.mark.parametrize("theta, alpha, message", [
        ((1,), (1, 1), "theta must list one weight per vertex: got 1 for 2 vertices"),
        ((1, 0, 2), (1, 1), "theta must list one weight per vertex: got 3 for 2 vertices"),
        ((1, 0), (1,), "alpha must list one dimension per vertex: got 1 for 2 vertices"),
        ((1, 0), (-1, 2), r"alpha \(-1, 2\) has a negative entry"),
        ((1, 0), (1.5, 1), "alpha entry 1.5 is not an integer"),
    ])
    def test_refuses_bad_input(self, theta, alpha, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            find_walls(KRON, theta, alpha)

    @pytest.mark.parametrize("call", [
        lambda: check_theta(KRON, None),
        lambda: StabilityParams(None),
        lambda: slope_ladder(universal_for(KRON, 2), None),
        lambda: framed_at(universal_for(KRON, 2), None, Fraction(1, 2), "plus", 1),
        lambda: find_walls(KRON, None, (1, 1)),
        lambda: count_framed_stable(KRON, (1, 1), None, Fraction(1, 2), "plus", 2),
        lambda: hall_filtration_check(KRON, (1, 1), None, Fraction(1, 2), 2),
    ], ids=["check_theta", "StabilityParams", "slope_ladder", "framed_at", "find_walls",
            "count_framed_stable", "hall_filtration_check"])
    def test_refuses_no_theta(self, call):
        # None lists no weights: one line naming it, not a TypeError
        with pytest.raises(ValueError, match="^theta must list one weight per vertex: got None$"):
            call()

    @pytest.mark.parametrize("theta", ["10", 3, Fraction(1, 2)])
    @pytest.mark.parametrize("call", [
        lambda theta: check_theta(KRON, theta),
        lambda theta: StabilityParams(theta),
        lambda theta: find_walls(KRON, theta, (1, 1)),
        lambda theta: slope_ladder(universal_for(KRON, 2), theta),
        lambda theta: count_framed_stable(KRON, (1, 1), theta, Fraction(1, 2), "plus", 2),
        lambda theta: hall_filtration_check(KRON, (1, 1), theta, Fraction(1, 2), 2),
    ], ids=["check_theta", "StabilityParams", "find_walls", "slope_ladder",
            "count_framed_stable", "hall_filtration_check"])
    def test_refuses_a_theta_that_is_not_a_list(self, call, theta):
        # a string is not read character by character, and a number is one
        # line naming it, not a TypeError
        with pytest.raises(ValueError, match=(
                f"^theta must list one weight per vertex: got {re.escape(repr(theta))}$")):
            call(theta)

    def test_check_alpha_refuses_a_fraction_and_keeps_integral_values(self):
        with pytest.raises(ValueError, match="^alpha entry 3/2 is not an integer$"):
            check_alpha(KRON, (Fraction(3, 2), 1))
        assert check_alpha(KRON, (Fraction(2), 1.0)) == (2, 1)

    def test_walls_on_each_wall_some_slope_matches(self):
        alpha = (1, 1)
        for w in find_walls(KRON, (1, 0), alpha):
            target = theta_slope((1, 0), alpha, w)
            hit = any(theta_slope((1, 0), b, w if s else None) == target
                      for b in sub_vectors(alpha) for s in (0, 1)
                      if (sum(b), s) not in ((0, 0),) and (b, s) != (alpha, 1))
            assert hit

    @given(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
           st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def test_walls_sorted_and_finite(self, theta, alpha):
        walls = find_walls(KRON, theta, alpha)
        assert list(walls) == sorted(set(walls))
        assert len(walls) <= sum(1 for b in sub_vectors(alpha) for _ in (0, 1))


class TestResolveSide:
    """The reference oracle's concrete c-plus and c-minus."""

    def test_single_wall_at_c(self):
        assert resolve_side((Fraction(0),), 0, "plus") == Fraction(1, 2)

    def test_nearest_gap_rule(self):
        walls = (Fraction(0), Fraction(1))
        assert resolve_side(walls, 0, "plus") == Fraction(1, 2)
        assert resolve_side(walls, 0, "minus") == Fraction(-1, 2)

    def test_no_walls(self):
        assert resolve_side((), 5, "minus") == 4

    def test_between_walls(self):
        walls = (Fraction(-1), Fraction(1, 2), Fraction(2))
        assert resolve_side(walls, Fraction(1, 2), "plus") == Fraction(5, 4)
        assert resolve_side(walls, Fraction(1, 2), "minus") == Fraction(-1, 4)

    def test_rejects_exact(self):
        with pytest.raises(ValueError, match="plus or minus"):
            resolve_side((), 0, "exact")

    @given(st.lists(st.fractions(min_value=-3, max_value=3), max_size=4),
           st.fractions(min_value=-3, max_value=3),
           st.sampled_from(["plus", "minus"]))
    def test_no_wall_strictly_between(self, walls, c, side):
        r = resolve_side(tuple(walls), c, side)
        lo, hi = min(c, r), max(c, r)
        assert r != c
        assert not any(lo < w < hi for w in walls)


class TestComparisonConstancy:
    def probe_signs(self, fq, theta, alpha, c):
        target = theta_slope(theta, alpha, c)
        signs = []
        for b in sub_vectors(alpha):
            for s in (0, 1):
                if (sum(b) == 0 and s == 0) or (b == alpha and s == 1):
                    continue
                d = theta_slope(theta, b, c if s else None) - target
                signs.append((b, s, (d > 0) - (d < 0)))
        return signs

    def test_constant_between_consecutive_walls(self):
        theta, alpha = (1, 0), (1, 1)
        walls = find_walls(KRON, theta, alpha)
        grid = [walls[0] - 1] + list(walls) + [walls[-1] + 1]
        for lo, hi in zip(grid, grid[1:]):
            probes = [lo + (hi - lo) * t for t in (Fraction(1, 3), Fraction(1, 2),
                                                   Fraction(2, 3))]
            baseline = self.probe_signs(KRON, theta, alpha, probes[0])
            for c in probes[1:]:
                assert self.probe_signs(KRON, theta, alpha, c) == baseline

    def test_sign_changes_across_a_wall(self):
        theta, alpha = (1, 0), (1, 1)
        left = self.probe_signs(KRON, theta, alpha, Fraction(1, 4))
        right = self.probe_signs(KRON, theta, alpha, Fraction(3, 4))
        assert left != right
