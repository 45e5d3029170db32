import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverdt.quiver import (c3_quiver, conifold_quiver, dim_vectors_up_to, ext,
                             jordan_quiver, kronecker_quiver, loop_quiver, skew_form)
from quiverdt.qtorus import (TorusSeries, _mul_into, adams_series, nu_weights,
                             pleth_exp, pleth_log, s_twist, serialize, slope_of,
                             torus_inverse, torus_mul, truncate_tau)
from quiverdt.scalar import ONE, Scalar, V, _settle

KRON = kronecker_quiver()
JORDAN = jordan_quiver()
N = 4

KRON_KEYS = [ext((0, 0)), ext((1, 0)), ext((0, 1)), ext((1, 1)),
             ext((2, 0)), ext((0, 0), 1), ext((1, 0), 1)]
COEFF_POOL = [ONE, -ONE, Scalar.of(2), V, -V, V ** -1, Scalar.of(Fraction(1, 2))]


@st.composite
def kron_series(draw):
    picks = draw(st.lists(st.tuples(st.sampled_from(KRON_KEYS),
                                    st.sampled_from(COEFF_POOL)),
                          min_size=0, max_size=4))
    coeffs = {}
    for key, c in picks:
        coeffs[key] = coeffs.get(key, Scalar.of(0)) + c
    return TorusSeries(KRON, N, coeffs)


@st.composite
def jordan_series(draw, constant=None):
    coeffs = {}
    for n in range(N + 1):
        c = draw(st.sampled_from(COEFF_POOL + [Scalar.of(0)]))
        if c:
            coeffs[ext((n,))] = c
    if constant is not None:
        coeffs[ext((0,))] = constant
        if not constant:
            coeffs.pop(ext((0,)))
    return TorusSeries(JORDAN, N, coeffs)


class TestProduct:
    def test_monomial_twist(self):
        x1 = TorusSeries.monomial(KRON, N, (1, 0))
        x2 = TorusSeries.monomial(KRON, N, (0, 1))
        assert skew_form(KRON, ext((1, 0)), ext((0, 1))) == -2
        assert (x1 * x2).coeff((1, 1)) == V ** -2
        assert (x2 * x1).coeff((1, 1)) == V ** 2

    def test_star_squares_to_zero(self):
        xs = TorusSeries.monomial(KRON, N, (0, 0), star=1)
        assert (xs * xs).is_zero()

    def test_truncation_drops_products(self):
        x1 = TorusSeries.monomial(KRON, 1, (1, 0))
        x2 = TorusSeries.monomial(KRON, 1, (0, 1))
        assert (x1 * x2).is_zero()

    @given(kron_series())
    def test_unit(self, f):
        one = TorusSeries.one(KRON, N)
        assert one * f == f
        assert f * one == f

    @given(kron_series(), kron_series(), kron_series())
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(kron_series(), kron_series(), kron_series())
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h
        assert (g + h) * f == g * f + h * f

    def test_scalar_coercions(self):
        f = TorusSeries.monomial(KRON, N, (1, 0))
        assert 2 * f == f * 2 == f + f
        assert V * f == f * V
        assert Fraction(1, 2) * (f + f) == f
        assert (f + 1).constant_term() == ONE

    def test_mismatched_regions(self):
        f = TorusSeries.one(KRON, 3)
        g = TorusSeries.one(KRON, 4)
        with pytest.raises(ValueError, match="different tori"):
            f + g
        with pytest.raises(ValueError, match="different tori"):
            torus_mul(f, g)


class TestInverse:
    @given(kron_series())
    def test_two_sided(self, f):
        f = f + 1 - TorusSeries(KRON, N, {ext((0, 0)): f.constant_term()})
        inv = torus_inverse(f)
        one = TorusSeries.one(KRON, N)
        assert f * inv == one
        assert inv * f == one

    def test_needs_constant(self):
        f = TorusSeries.monomial(KRON, N, (1, 0))
        with pytest.raises(ValueError, match="not invertible"):
            torus_inverse(f)

    def test_geometric(self):
        x = TorusSeries.monomial(JORDAN, N, (1,))
        inv = torus_inverse(1 - x + TorusSeries.zero(JORDAN, N))
        assert all(inv.coeff((n,)) == ONE for n in range(N + 1))


class TestTwists:
    @given(kron_series(), kron_series())
    def test_linear_twist_multiplicative(self, f, g):
        lam = ((3, -1), 2)
        assert s_twist(f * g, lam) == s_twist(f, lam) * s_twist(g, lam)

    @given(kron_series())
    def test_inverse_twist(self, f):
        lam = nu_weights(KRON)
        neg = nu_weights(KRON, -1)
        assert s_twist(s_twist(f, lam), neg) == f

    @given(kron_series())
    def test_commute_past_monomial(self, f):
        # f x^beta = x^beta S_lam f with lam = 2 skew(-, beta)
        beta = ext((0, 1))
        xb = TorusSeries.monomial(KRON, N, beta.unframed)
        n = KRON.n_vertices
        lam = (tuple(2 * skew_form(KRON, ext(tuple(int(i == j) for j in range(n))), beta)
                     for i in range(n)),
               2 * skew_form(KRON, ext((0,) * n, 1), beta))
        assert f * xb == xb * s_twist(f, lam)

    @given(kron_series())
    def test_commute_past_star(self, f):
        f = f.restrict(lambda k: k.star == 0)
        xs = TorusSeries.monomial(KRON, N, (0, 0), star=1)
        assert s_twist(f, nu_weights(KRON, -1)) * xs == xs * s_twist(f, nu_weights(KRON))

    def test_nu_weights_shape(self):
        assert nu_weights(KRON) == ((1, 0), 0)
        assert nu_weights(KRON, -2) == ((-2, 0), 0)


class TestAdams:
    @given(jordan_series(), st.integers(1, 3), st.integers(1, 3))
    def test_composition(self, f, m, n):
        assert adams_series(adams_series(f, m), n) == adams_series(f, m * n)

    @given(kron_series(), st.integers(1, 3))
    def test_additive(self, f, n):
        g = TorusSeries.monomial(KRON, N, (1, 1), coeff=V)
        assert adams_series(f + g, n) == adams_series(f, n) + adams_series(g, n)

    def test_scales_key_and_coeff(self):
        f = TorusSeries.monomial(JORDAN, N, (2,), coeff=V)
        assert adams_series(f, 2).coeff((4,)) == V ** 2

    def test_drops_out_of_region(self):
        f = TorusSeries.monomial(JORDAN, N, (3,))
        assert adams_series(f, 2).is_zero()
        g = TorusSeries.monomial(JORDAN, N, (1,), star=1)
        assert adams_series(g, 2).is_zero()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            adams_series(TorusSeries.one(JORDAN, N), 0)


class TestExpLog:
    def test_exp_of_line(self):
        x = TorusSeries.monomial(JORDAN, N, (1,))
        e = pleth_exp(x)
        assert all(e.coeff((n,)) == ONE for n in range(N + 1))

    def test_log_of_geometric(self):
        x = TorusSeries.monomial(JORDAN, N, (1,))
        geom = torus_inverse(1 - x + TorusSeries.zero(JORDAN, N))
        assert pleth_log(geom) == x

    @given(jordan_series(constant=Scalar.of(0)))
    def test_round_trip(self, f):
        assert pleth_log(pleth_exp(f)) == f

    @given(jordan_series(constant=Scalar.of(0)), jordan_series(constant=Scalar.of(0)))
    def test_exp_adds(self, f, g):
        assert pleth_exp(f + g) == pleth_exp(f) * pleth_exp(g)

    def test_exp_rejects_constant(self):
        with pytest.raises(ValueError, match="zero constant term"):
            pleth_exp(TorusSeries.one(JORDAN, N))

    def test_log_rejects_constant(self):
        with pytest.raises(ValueError, match="constant term 1"):
            pleth_log(TorusSeries.zero(JORDAN, N))

    def test_noncommutative_support_refused(self):
        f = (TorusSeries.monomial(KRON, N, (1, 0))
             + TorusSeries.monomial(KRON, N, (0, 1)))
        with pytest.raises(ValueError, match="non-commutative support"):
            pleth_exp(f)
        with pytest.raises(ValueError, match="non-commutative support"):
            pleth_log(f + 1)


class TestSlopesAndTau:
    def test_slope_values(self):
        assert slope_of((1, 0), 2, ext((1, 1))) == Fraction(1, 2)
        assert slope_of((1, 0), Fraction(1, 2), ext((1, 1), 1)) == Fraction(1, 2)
        assert slope_of((0,), 3, ext((0,), 1)) == 3

    def test_slope_of_zero_class(self):
        with pytest.raises(ValueError, match="zero class"):
            slope_of((1, 0), 0, ext((0, 0)))

    def test_tau_keeps_matching_framed_slope(self):
        f = TorusSeries(KRON, N, {ext((1, 1)): ONE, ext((1, 0)): V,
                                  ext((0, 0)): Scalar.of(2)})
        t = truncate_tau(f, (1, 0), Fraction(1, 2), Fraction(1, 2))
        assert t.support() == [ext((0, 0)), ext((1, 1))]

    def test_tau_zero_class_needs_mu_equal_c(self):
        one = TorusSeries.one(KRON, N)
        assert truncate_tau(one, (1, 0), 2, 2) == one
        assert truncate_tau(one, (1, 0), 2, 1).is_zero()

    def test_tau_at_infinity(self):
        f = TorusSeries.one(KRON, N)
        assert truncate_tau(f, (1, 0), 0, float("inf")).is_zero()

    def test_tau_rejects_star_terms(self):
        f = TorusSeries.monomial(KRON, N, (0, 0), star=1)
        with pytest.raises(ValueError, match="star-0"):
            truncate_tau(f, (1, 0), 0, 0)


class TestSeriesBasics:
    def test_serialize_format(self):
        f = TorusSeries(KRON, N, {ext((1, 0)): V, ext((0, 1), 1): ONE})
        assert serialize(f) == ("alpha=0,1;star=1;coeff=(1)/(1)\n"
                                "alpha=1,0;star=0;coeff=(v)/(1)")

    def test_terms_sorted(self):
        f = TorusSeries(KRON, N, {ext((1, 0)): ONE, ext((0, 1)): ONE,
                                  ext((0, 1), 1): ONE})
        assert [k for k, _ in f.terms()] == [ext((0, 1)), ext((0, 1), 1),
                                             ext((1, 0))]

    def test_zero_coeffs_dropped(self):
        f = TorusSeries(KRON, N, {ext((1, 0)): Scalar.of(0)})
        assert f.is_zero() and f.support() == []

    def test_retrunc(self):
        f = TorusSeries(JORDAN, 4, {ext((n,)): ONE for n in range(5)})
        g = f.retrunc(2)
        assert g.trunc == 2 and g.support() == [ext((0,)), ext((1,)), ext((2,))]
        with pytest.raises(ValueError, match="cannot grow"):
            f.retrunc(5)

    def test_out_of_region_keys_dropped_on_build(self):
        f = TorusSeries(JORDAN, 2, {ext((3,)): ONE})
        assert f.is_zero()

    def test_repr_mentions_region(self):
        assert "N=4" in repr(TorusSeries.one(KRON, 4))


def test_random_product_sanity():
    # fixed-seed stress: associativity on denser series than hypothesis builds
    rng = random.Random(7)
    keys = [ext((a, b), s) for a in range(3) for b in range(3) for s in (0, 1)
            if a + b <= 3]
    def rand_series():
        return TorusSeries(KRON, 3, {k: Scalar.of(rng.randint(-2, 2)) * V ** rng.randint(-1, 1)
                                     for k in rng.sample(keys, 5)})
    for _ in range(10):
        f, g, h = rand_series(), rand_series(), rand_series()
        assert (f * g) * h == f * (g * h)


class TestSkewRows:
    """_mul_into reads <a, b> off one integer row per left key; each
    monomial product must carry (-v)^skew_form(a, b)."""

    @pytest.mark.parametrize("fq", [
        jordan_quiver(), loop_quiver(2), kronecker_quiver(), c3_quiver(),
        conifold_quiver(), kronecker_quiver(w=(1, 1)),
    ], ids=["jordan", "two_loops", "kronecker", "c3", "conifold", "kronecker_w11"])
    def test_matches_skew_form(self, fq):
        keys = [ext(a, s) for a in dim_vectors_up_to(fq.n_vertices, 2) for s in (0, 1)]
        for ka in keys:
            for kb in keys:
                acc: dict = {}
                _mul_into(fq, 4, acc, [(ka, ONE)], [(kb, ONE)])
                if ka.star + kb.star > 1:
                    assert acc == {}
                    continue
                [(key, parts)] = acc.items()
                assert key == ext(tuple(x + y for x, y in zip(ka.unframed, kb.unframed)),
                                  ka.star + kb.star)
                assert _settle(parts) == Scalar.neg_v_pow(skew_form(fq, ka, kb))
