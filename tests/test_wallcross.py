from fractions import Fraction

import pytest

from reference_hn import transfer_slope_product, truncate_tau
from quiverdt import hn, qtorus, wallcross
from quiverdt.hn import hn_factorize, slope_ladder, universal_for
from quiverdt.quiver import (c3_quiver, conifold_quiver, dim_vectors_up_to, ext,
                             jordan_quiver, kronecker_quiver, loop_quiver, tits_form)
from quiverdt.qtorus import (TorusSeries, nu_weights, pleth_exp, pleth_log,
                             s_twist, torus_div, torus_mul)
from quiverdt.scalar import L, ONE, Scalar, V
from quiverdt.stability import MINUS_INF, PLUS_INF, StabilityParams
from quiverdt.wallcross import (DIRECTIONS, FramedSeries, dt_omega, euler_transfer,
                                framed_at, general_wallcross, ncdt,
                                smooth_model_motive, smooth_model_series,
                                transfer_series, uniform_series)

JORDAN = jordan_quiver()
KRON = kronecker_quiver()
HALF = Fraction(1, 2)


def jordan_BU(N=4):
    return universal_for(JORDAN, N)


def inverse(g):
    return torus_div(TorusSeries.one(g.fq, g.trunc), g)


class TestTransferSeries:
    def test_jordan_first_coefficient(self):
        bu = jordan_BU().series
        C = transfer_series(bu)
        assert C.coeff((1,)) == -V

    def test_needs_symmetry(self):
        bu = universal_for(KRON, 3).series
        with pytest.raises(ValueError, match="general_wallcross"):
            transfer_series(bu)

    def test_needs_constant_one(self):
        with pytest.raises(ValueError, match="constant term 1"):
            transfer_series(TorusSeries.zero(JORDAN, 3))

    def test_slope_product_filters(self):
        fq = conifold_quiver()
        bu = universal_for(fq, 4)
        parts = hn_factorize(bu, (1, 0), 4)
        whole = transfer_slope_product(fq, parts, 4, lambda b: True)
        below = transfer_slope_product(fq, parts, 4, lambda b: b < HALF)
        at = transfer_slope_product(fq, parts, 4, lambda b: b == HALF)
        above = transfer_slope_product(fq, parts, 4, lambda b: b > HALF)
        assert whole == torus_mul(above, torus_mul(at, below))


def count_calls(monkeypatch, name="torus_mul"):
    """Count calls of one qtorus product (torus_mul or torus_div) through
    every module that forms series."""
    calls = []
    fn = getattr(qtorus, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for module in (qtorus, hn, wallcross):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def product_from_one(fq, N, factors):
    """The slope product as it was formed before: one times each factor."""
    out = TorusSeries.one(fq, N)
    for f in factors:
        out = torus_mul(out, f)
    return out


class TestSlopeProducts:
    """The split is one left torus_div per rung and no torus_mul; a uniform
    series is one torus_div, its products read off the slope ladder and
    equal to the products started from one."""

    def setup_method(self):
        self.bu = universal_for(KRON, 4)
        self.parts = hn_factorize(self.bu, (1, 0), 4)
        self.slopes = sorted(self.parts, reverse=True)

    def test_split_solves_once_per_rung(self, monkeypatch):
        # each rung but the last peels its piece off the rest by one left
        # solve; the last rest is 1 and costs nothing
        bu = universal_for(KRON, 5)
        calls = count_calls(monkeypatch)
        divs = count_calls(monkeypatch, "torus_div")
        ladder = slope_ladder(bu, (1, 0), 5)
        assert len(ladder) > 2 and ladder[-1][2] == TorusSeries.one(KRON, 5)
        assert (len(calls), len(divs)) == (0, len(ladder) - 1)

    def test_uniform_series(self, monkeypatch):
        levels = [MINUS_INF, PLUS_INF, Fraction(1, 3)] + self.slopes
        want = {}
        for a in levels:
            lower = [self.parts[b] for b in self.slopes if b < a]
            below = product_from_one(KRON, 4, lower)
            upto = torus_mul(self.parts[a], below) if a in self.parts else below
            want[a] = wallcross._crossing(upto, below)
        calls = count_calls(monkeypatch)
        divs = count_calls(monkeypatch, "torus_div")
        for a in levels:
            calls.clear()
            divs.clear()
            assert uniform_series(self.bu, (1, 0), a, "exact") == want[a]
            # P_<a and P_<=a come off the memoized slope ladder: one solve
            assert (len(calls), len(divs)) == (0, 1)


class TestGeneralWallcross:
    def setup_method(self):
        self.bu = universal_for(KRON, 4)
        self.parts = hn_factorize(self.bu, (1, 0), 4)
        self.B = self.parts[HALF]
        self.a_minus = framed_at(self.bu, (1, 0), 4, HALF, "minus", HALF)
        self.a_exact = framed_at(self.bu, (1, 0), 4, HALF, "exact", HALF)
        self.a_plus = framed_at(self.bu, (1, 0), 4, HALF, "plus", HALF)

    def test_direction_names(self):
        assert len(DIRECTIONS) == 6
        with pytest.raises(ValueError, match="unknown direction"):
            general_wallcross(self.a_minus, self.B, "sideways")

    def test_side_must_match(self):
        with pytest.raises(ValueError, match="does not match"):
            general_wallcross(self.a_minus, self.B, "exact_to_plus")

    def test_crossing_formulas(self):
        up = general_wallcross(self.a_minus, self.B, "minus_to_exact")
        assert up.series == self.a_exact.series
        assert up.params.side == "exact"
        on = general_wallcross(self.a_exact, self.B, "exact_to_plus")
        assert on.series == self.a_plus.series

    def test_round_trips(self):
        for there, back in [("minus_to_exact", "exact_to_minus"),
                            ("minus_to_plus", "plus_to_minus")]:
            out = general_wallcross(
                general_wallcross(self.a_minus, self.B, there), self.B, back)
            assert out.series == self.a_minus.series
            assert out.params == self.a_minus.params

    def test_two_step_equals_one_jump(self):
        two = general_wallcross(
            general_wallcross(self.a_minus, self.B, "minus_to_exact"),
            self.B, "exact_to_plus")
        one = general_wallcross(self.a_minus, self.B, "minus_to_plus")
        assert two.series == one.series


WALL_QUIVERS = {
    "kronecker": KRON, "conifold": conifold_quiver(),
    # the framing reaches the identity only through S_nu and B_U's labels
    "kronecker-w20": kronecker_quiver((2, 0)),
    "kronecker-w11": kronecker_quiver((1, 1)),
    "kronecker-w01": kronecker_quiver((0, 1)),
}


@pytest.fixture(scope="module", params=sorted(WALL_QUIVERS))
def wall_sides(request):
    """B at the wall mu = c = 1/2 (theta = (1, 0)) and framed_at on each side."""
    fq = WALL_QUIVERS[request.param]
    bu = universal_for(fq, 4)
    B = hn_factorize(bu, (1, 0), 4)[HALF]
    return B, {side: framed_at(bu, (1, 0), 4, HALF, side, HALF)
               for side in ("minus", "exact", "plus")}


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_direction_maps_source_side_to_target_side(wall_sides, direction):
    B, at = wall_sides
    src, dst = direction.split("_to_")
    assert general_wallcross(at[src], B, direction) == at[dst]


class TestUniformSeries:
    def test_below_all_walls(self):
        bu = universal_for(KRON, 3)
        assert uniform_series(bu, (1, 0), MINUS_INF) == \
            TorusSeries.one(KRON, 3)

    def test_above_all_walls(self):
        bu = universal_for(KRON, 3)
        top = uniform_series(bu, (1, 0), PLUS_INF)
        assert top == framed_at(bu, (1, 0), 3, PLUS_INF).series

    def test_sides_agree_off_the_slopes(self):
        bu = universal_for(KRON, 3)
        a = Fraction(9, 10)  # not a slope of any class
        exact = uniform_series(bu, (1, 0), a, "exact")
        assert uniform_series(bu, (1, 0), a, "plus") == exact
        assert uniform_series(bu, (1, 0), a, "minus") == exact

    @pytest.mark.parametrize("side", ["minus", "exact", "plus"])
    def test_slope_products_on_a_slope(self, side):
        bu = universal_for(KRON, 4)
        parts = hn_factorize(bu, (1, 0), 4)

        def product(keep):  # decreasing slope, left to right
            out = TorusSeries.one(KRON, 4)
            for b in sorted(parts, reverse=True):
                if keep(b):
                    out = torus_mul(out, parts[b])
            return out

        upto, below = product(lambda b: b <= HALF), product(lambda b: b < HALF)
        left = below if side == "minus" else upto
        right = upto if side == "plus" else below
        want = torus_mul(s_twist(left, nu_weights(KRON, 1)),
                         inverse(s_twist(right, nu_weights(KRON, -1))))
        assert uniform_series(bu, (1, 0), HALF, side) == want

    def test_sides_differ_on_a_slope(self):
        bu = universal_for(KRON, 3)
        plus = uniform_series(bu, (1, 0), HALF, "plus")
        minus = uniform_series(bu, (1, 0), HALF, "minus")
        assert plus != minus


class TestFramedAt:
    def test_minus_infinity(self):
        bu = jordan_BU()
        a = framed_at(bu, (0,), 4, MINUS_INF)
        assert a.series == TorusSeries.one(JORDAN, 4)
        assert not a.params.is_finite()

    def test_plus_infinity_matches_cyclic(self):
        bu = jordan_BU()
        a = framed_at(bu, (0,), 4, PLUS_INF)
        assert s_twist(a.series, nu_weights(JORDAN, 1)) == ncdt(bu)

    def test_jordan_above_the_wall(self):
        bu = jordan_BU()
        a = framed_at(bu, (0,), 4, 0, "plus", 0)
        assert [a.series.coeff((n,)) for n in range(4)] == \
            [ONE, -V, V ** 2, -(V ** 3)]
        assert a.series == framed_at(bu, (0,), 4, PLUS_INF).series

    @pytest.mark.parametrize("c", [PLUS_INF, MINUS_INF, HALF],
                             ids=["plus_inf", "minus_inf", "finite"])
    def test_refuses_short_theta(self, c):
        with pytest.raises(ValueError, match="^theta must list one weight per vertex: "
                                             "got 1 for 2 vertices$"):
            framed_at(universal_for(KRON, 3), (1,), 3, c, "exact", HALF)

    def test_finite_needs_mu(self):
        with pytest.raises(ValueError, match="slope mu"):
            framed_at(jordan_BU(), (0,), 4, 0)

    def test_empty_slope_class(self):
        bu = universal_for(KRON, 3)
        a = framed_at(bu, (1, 0), 3, 0, "exact", 5)
        assert a.series == TorusSeries.one(KRON, 3)

    def test_trunc_guard_and_cut(self):
        bu = jordan_BU(3)
        with pytest.raises(ValueError, match="exceeds"):
            framed_at(bu, (0,), 4, MINUS_INF)
        a = framed_at(bu, (0,), 2, PLUS_INF)
        assert a.series.trunc == 2

    def test_smaller_N_matches_a_fresh_series(self, monkeypatch):
        import quiverdt.hn as hn
        calls = []
        split = hn._hn_split
        monkeypatch.setattr(hn, "_hn_split", lambda *a: calls.append(a) or split(*a))
        big, small = universal_for(KRON, 5), universal_for(KRON, 3)
        for c, side, mu in [(HALF, "minus", HALF), (HALF, "exact", HALF),
                            (HALF, "plus", HALF), (2, "exact", 1),
                            (PLUS_INF, "exact", None), (MINUS_INF, "exact", None)]:
            assert framed_at(big, (1, 0), 3, c, side, mu) == \
                framed_at(small, (1, 0), 3, c, side, mu)
        for mu in (HALF, Fraction(1), Fraction(2, 3)):
            assert smooth_model_series(big, (1, 0), 3, mu) == \
                smooth_model_series(small, (1, 0), 3, mu)
        # one split of each universal series at N = 3, however many calls
        assert len(calls) == 2


class TestWallCrossingTheorem:
    def test_kronecker_at_the_interior_wall(self):
        bu = universal_for(KRON, 4)
        parts = hn_factorize(bu, (1, 0), 4)
        B = parts[HALF]
        a_minus = framed_at(bu, (1, 0), 4, HALF, "minus", HALF).series
        a_exact = framed_at(bu, (1, 0), 4, HALF, "exact", HALF).series
        a_plus = framed_at(bu, (1, 0), 4, HALF, "plus", HALF).series
        snu = s_twist(B, nu_weights(KRON, 1))
        sdn = s_twist(B, nu_weights(KRON, -1))
        assert a_exact == torus_mul(snu, a_minus)
        assert a_exact == torus_mul(a_plus, sdn)

    def test_conifold_transfer_route(self):
        fq = conifold_quiver()
        bu = universal_for(fq, 4)
        theta = (1, 0)
        parts = hn_factorize(bu, theta, 4)
        a_minus = framed_at(bu, theta, 4, HALF, "minus", HALF).series
        a_plus = framed_at(bu, theta, 4, HALF, "plus", HALF).series
        a_top = framed_at(bu, theta, 4, PLUS_INF).series
        below = transfer_slope_product(fq, parts, 4, lambda b: b < HALF)
        above = transfer_slope_product(fq, parts, 4, lambda b: b > HALF)
        thru = transfer_slope_product(fq, parts, 4, lambda b: b <= HALF)
        assert truncate_tau(below, theta, HALF, HALF) == a_minus
        lifted = torus_mul(inverse(above), a_top)
        assert truncate_tau(lifted, theta, HALF, HALF) == a_plus
        assert truncate_tau(thru, theta, HALF, HALF) == \
            truncate_tau(lifted, theta, HALF, HALF)


SYMMETRIC = {"jordan": JORDAN, "c3": c3_quiver(), "conifold": conifold_quiver(),
             "two_loops": loop_quiver(2)}


@pytest.mark.parametrize("name", SYMMETRIC)
class TestSecondRoutes:
    """Each product form against a second closed form of the same series."""

    def test_transfer_is_twisted_cyclic_product(self, name):
        fq = SYMMETRIC[name]
        B = universal_for(fq, 6).series
        cyclic = torus_mul(s_twist(B, nu_weights(fq, 2)), inverse(B))
        assert transfer_series(B) == s_twist(cyclic, nu_weights(fq, -1))

    def test_ncdt_is_exp_of_twisted_log(self, name):
        fq = SYMMETRIC[name]
        bu = universal_for(fq, 6)
        log = pleth_log(bu.series)
        assert ncdt(bu) == pleth_exp(s_twist(log, nu_weights(fq, 2)) - log)


class TestNCDT:
    def test_jordan_closed_form(self):
        out = ncdt(jordan_BU())
        assert all(out.coeff((n,)) == L ** n for n in range(5))

    def test_unframed_collapses_to_one(self):
        fq = jordan_quiver(w=(0,))
        out = ncdt(universal_for(fq, 3))
        assert out == TorusSeries.one(fq, 3)

    def test_c3_euler_numbers(self):
        fq = c3_quiver()
        out = ncdt(universal_for(fq, 3))
        assert [out.coeff((n,)).specialize("euler") for n in range(4)] == \
            [1, 1, 3, 6]


class TestSmoothModel:
    def test_kronecker_motives(self):
        bu = universal_for(KRON, 3)
        assert smooth_model_motive(bu, (1, 0), 3, (1, 1)) == L + 1
        assert smooth_model_motive(bu, (1, 0), 3, (2, 1)) == L + 1
        assert smooth_model_motive(bu, (1, 0), 3, (1, 0)) == ONE

    def test_jordan_affine_spaces(self):
        bu = jordan_BU()
        for n in range(1, 5):
            assert smooth_model_motive(bu, (0,), 4, (n,)) == L ** n

    def test_zero_class_refused(self):
        with pytest.raises(ValueError, match="no smooth model"):
            smooth_model_motive(jordan_BU(), (0,), 4, (0,))

    @pytest.mark.parametrize("theta, alpha, message", [
        ((1, 0), (1, 1, 0), "alpha must list one dimension per vertex: got 3 for 2 vertices"),
        ((1, 0), (1,), "alpha must list one dimension per vertex: got 1 for 2 vertices"),
        ((1, 0), (1, -1), r"alpha \(1, -1\) has a negative entry"),
        ((1,), (1, 1), "theta must list one weight per vertex: got 1 for 2 vertices"),
        ((1, 0), (Fraction(3, 2), 1), "alpha entry 3/2 is not an integer"),
    ])
    def test_refuses_bad_input(self, theta, alpha, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            smooth_model_motive(universal_for(KRON, 4), theta, 4, alpha)

    def test_series_trunc_guard(self):
        with pytest.raises(ValueError, match="^N exceeds the series truncation$"):
            smooth_model_series(universal_for(KRON, 3), (1, 0), 4, HALF)

    def test_series_carries_the_twist(self):
        bu = universal_for(KRON, 3)
        ser = smooth_model_series(bu, (1, 0), 3, HALF)
        alpha = (1, 1)
        t = tits_form(KRON, ext(alpha))
        assert ser.coeff(alpha) * (L - 1) == \
            Scalar.neg_v_pow(t) * smooth_model_motive(bu, (1, 0), 3, alpha)

    def test_counts_points(self):
        from quiverdt.oracle import count_framed_stable
        bu = universal_for(KRON, 3)
        got = smooth_model_motive(bu, (1, 0), 3, (1, 1)).specialize_L(2)
        assert got == count_framed_stable(KRON, (1, 1), (1, 0), HALF, "plus", 2)


class TestOmega:
    def test_conifold_values(self):
        fq = conifold_quiver()
        bu = universal_for(fq, 4)
        om = dt_omega(bu.series).coeffs
        assert om[(1, 0)] == om[(0, 1)] == -V
        assert om[(2, 1)] == om[(1, 2)] == -V
        assert om[(1, 1)] == om[(2, 2)] == L + L * L
        assert (2, 0) not in om

    def test_round_trip(self):
        fq = conifold_quiver()
        bu = universal_for(fq, 4)
        back = pleth_exp(dt_omega(bu.series) * (ONE / (L - 1)))
        assert back == bu.series

    def test_as_series_region(self):
        # Omega is a series on B's region, labelled with B's quiver and framing
        fq = jordan_quiver((2,))
        om = dt_omega(universal_for(fq, 3).series)
        assert om.fq == fq and om.trunc == 3 and om.coeff((1,)) == L

    def test_euler_transfer_c3(self):
        fq = c3_quiver()
        bu = universal_for(fq, 3)
        out = euler_transfer(dt_omega(bu.series))
        assert [out.coeff((n,)) for n in range(4)] == \
            [ONE, -ONE, Scalar.of(3), Scalar.of(-6)]

    def test_euler_transfer_drops_unframed(self):
        fq = conifold_quiver()  # w = (1, 0): nu ignores the second coordinate
        bu = universal_for(fq, 3)
        out = euler_transfer(dt_omega(bu.series))
        assert out.coeff((0, 1)) == Scalar.of(0)
        assert out.coeff((1, 0)) == ONE

    @pytest.mark.parametrize("fq, N", [
        (c3_quiver(), 6), (c3_quiver(w=(2,)), 5),
        (conifold_quiver(), 6), (conifold_quiver(w=(1, 1)), 5),
        (loop_quiver(2), 5),
    ], ids=["c3-w1", "c3-w2", "conifold-w10", "conifold-w11", "loop2"])
    def test_euler_transfer_is_transfer_at_v_1(self, fq, N):
        B = universal_for(fq, N).series
        limit = euler_transfer(dt_omega(B))
        full = transfer_series(B)
        for a in dim_vectors_up_to(fq.n_vertices, N):
            assert limit.coeff(a).specialize("euler") == full.coeff(a).specialize("euler"), a
