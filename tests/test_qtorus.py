import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_qtorus as ref
from reference_hn import at_star0, series_sum, truncate_tau
from reference_qtorus import adams_series, ext, skew_form
from quiverdt.quiver import (c3_quiver, conifold_quiver, dim_vectors_up_to,
                             jordan_quiver, kronecker_quiver, loop_quiver)
from quiverdt.qtorus import (TorusSeries, _mul_into, nu_weights, pleth_exp,
                             pleth_log, s_twist, serialize, torus_div, torus_mul)
from quiverdt.scalar import ONE, Scalar, _settle

V = Scalar.v_pow(1)
KRON = kronecker_quiver()
JORDAN = jordan_quiver()
N = 4

KRON_KEYS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]
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
            coeffs[(n,)] = c
    if constant is not None:
        coeffs[(0,)] = constant
        if not constant:
            coeffs.pop((0,))
    return TorusSeries(JORDAN, N, coeffs)


class TestProduct:
    def test_monomial_twist(self):
        x1 = TorusSeries(KRON, N, {(1, 0): ONE})
        x2 = TorusSeries(KRON, N, {(0, 1): ONE})
        assert skew_form(KRON, ext((1, 0)), ext((0, 1))) == -2
        assert torus_mul(x1, x2).coeff((1, 1)) == V ** -2
        assert torus_mul(x2, x1).coeff((1, 1)) == V ** 2

    def test_star_squares_to_zero(self):
        # the framing line of the star-1 torus, which the reference keeps
        xs = ref.TorusSeries.monomial(KRON, N, (0, 0), star=1)
        assert (xs * xs).is_zero()

    def test_truncation_drops_products(self):
        x1 = TorusSeries(KRON, 1, {(1, 0): ONE})
        x2 = TorusSeries(KRON, 1, {(0, 1): ONE})
        assert torus_mul(x1, x2).is_zero()

    @given(kron_series())
    def test_unit(self, f):
        one = TorusSeries.one(KRON, N)
        assert torus_mul(one, f) == f
        assert torus_mul(f, one) == f

    @given(kron_series(), kron_series(), kron_series())
    def test_associative(self, f, g, h):
        assert torus_mul(torus_mul(f, g), h) == torus_mul(f, torus_mul(g, h))

    @given(kron_series(), kron_series(), kron_series())
    def test_distributive(self, f, g, h):
        assert torus_mul(f, series_sum(g, h)) == series_sum(torus_mul(f, g), torus_mul(f, h))
        assert torus_mul(series_sum(g, h), f) == series_sum(torus_mul(g, f), torus_mul(h, f))

    def test_mismatched_regions(self):
        f = TorusSeries.one(KRON, 3)
        g = TorusSeries.one(KRON, 4)
        same = "^series live on different tori: truncations 3 and 4 on the same framed quiver$"
        with pytest.raises(ValueError, match=same):
            torus_mul(f, g)
        with pytest.raises(ValueError, match=same):
            torus_div(f, g)
        with pytest.raises(ValueError, match="^series live on different tori: truncations "
                                             "3 and 3 on different framed quivers$"):
            torus_mul(f, TorusSeries.one(kronecker_quiver((0, 1)), 3))


class TestInverse:
    @given(kron_series())
    def test_two_sided(self, f):
        f = TorusSeries(KRON, N, {**f.coeffs, (0, 0): ONE})
        one = TorusSeries.one(KRON, N)
        inv = torus_div(one, f)
        assert torus_mul(f, inv) == one
        assert torus_mul(inv, f) == one
        assert torus_div(one, f, left=True) == inv

    @given(kron_series(), kron_series())
    def test_left_and_right_quotients(self, f, g):
        g = TorusSeries(KRON, N, {**g.coeffs, (0, 0): ONE})
        assert torus_mul(g, torus_div(f, g, left=True)) == f
        assert torus_mul(torus_div(f, g), g) == f

    def test_needs_constant(self):
        f = TorusSeries(KRON, N, {(1, 0): ONE})
        with pytest.raises(ValueError, match="not invertible"):
            torus_div(TorusSeries.one(KRON, N), f)
        with pytest.raises(ValueError, match="not invertible"):
            torus_div(TorusSeries.one(KRON, N), f, left=True)

    def test_geometric(self):
        one_minus_x = TorusSeries(JORDAN, N, {(0,): ONE, (1,): -ONE})
        inv = torus_div(TorusSeries.one(JORDAN, N), one_minus_x)
        assert all(inv.coeff((n,)) == ONE for n in range(N + 1))


class TestTwists:
    @given(kron_series(), kron_series())
    def test_linear_twist_multiplicative(self, f, g):
        lam = (3, -1)
        assert s_twist(torus_mul(f, g), lam) == torus_mul(s_twist(f, lam), s_twist(g, lam))

    @given(kron_series())
    def test_inverse_twist(self, f):
        lam = nu_weights(KRON)
        neg = nu_weights(KRON, -1)
        assert s_twist(s_twist(f, lam), neg) == f

    @given(kron_series())
    def test_commute_past_monomial(self, f):
        # f x^beta = x^beta S_lam f with lam = 2 skew(-, beta)
        beta = (0, 1)
        xb = TorusSeries(KRON, N, {beta: ONE})
        n = KRON.n_vertices
        lam = tuple(2 * skew_form(KRON, ext(tuple(int(i == j) for j in range(n))), ext(beta))
                    for i in range(n))
        assert torus_mul(f, xb) == torus_mul(xb, s_twist(f, lam))

    @given(kron_series())
    def test_commute_past_star(self, f):
        # S_{-nu}(f) x* = x* S_nu(f) in the star-1 torus the reference keeps:
        # the framing enters a star-0 series only as the twist by nu_weights
        f = at_star0(f)
        xs = ref.TorusSeries.monomial(KRON, N, (0, 0), star=1)
        assert ref.s_twist(f, (nu_weights(KRON, -1), 0)) * xs == \
            xs * ref.s_twist(f, (nu_weights(KRON), 0))

    def test_nu_weights_shape(self):
        assert nu_weights(KRON) == (1, 0)
        assert nu_weights(KRON, -2) == (-2, 0)


class TestAdams:
    """psi_n on whole series of the reference torus; the kernels apply
    psi_n term by term (qtorus._adams_into)."""

    @given(jordan_series(), st.integers(1, 3), st.integers(1, 3))
    def test_composition(self, f, m, n):
        f = at_star0(f)
        assert adams_series(adams_series(f, m), n) == adams_series(f, m * n)

    @given(kron_series(), st.integers(1, 3))
    def test_additive(self, f, n):
        f = at_star0(f)
        g = ref.TorusSeries.monomial(KRON, N, (1, 1), coeff=V)
        assert adams_series(f + g, n) == adams_series(f, n) + adams_series(g, n)

    def test_scales_key_and_coeff(self):
        f = ref.TorusSeries.monomial(JORDAN, N, (2,), coeff=V)
        assert adams_series(f, 2).coeff((4,)) == V ** 2

    def test_drops_out_of_region(self):
        f = ref.TorusSeries.monomial(JORDAN, N, (3,))
        assert adams_series(f, 2).is_zero()
        g = ref.TorusSeries.monomial(JORDAN, N, (1,), star=1)
        assert adams_series(g, 2).is_zero()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            adams_series(ref.TorusSeries.one(JORDAN, N), 0)


class TestExpLog:
    def test_exp_of_line(self):
        x = TorusSeries(JORDAN, N, {(1,): ONE})
        e = pleth_exp(x)
        assert all(e.coeff((n,)) == ONE for n in range(N + 1))

    def test_log_of_geometric(self):
        one_minus_x = TorusSeries(JORDAN, N, {(0,): ONE, (1,): -ONE})
        geom = torus_div(TorusSeries.one(JORDAN, N), one_minus_x)
        assert pleth_log(geom) == TorusSeries(JORDAN, N, {(1,): ONE})

    @given(jordan_series(constant=Scalar.of(0)))
    def test_round_trip(self, f):
        assert pleth_log(pleth_exp(f)) == f

    @given(jordan_series(constant=Scalar.of(0)), jordan_series(constant=Scalar.of(0)))
    def test_exp_adds(self, f, g):
        assert pleth_exp(series_sum(f, g)) == torus_mul(pleth_exp(f), pleth_exp(g))

    def test_exp_rejects_constant(self):
        with pytest.raises(ValueError, match="zero constant term"):
            pleth_exp(TorusSeries.one(JORDAN, N))

    def test_log_rejects_constant(self):
        with pytest.raises(ValueError, match="constant term 1"):
            pleth_log(TorusSeries(JORDAN, N, {}))

    def test_noncommutative_support_refused(self):
        f = TorusSeries(KRON, N, {(1, 0): ONE, (0, 1): ONE})
        message = r" undefined on non-commutative support: <\(1, 0\), \(0, 1\)> = -2$"
        with pytest.raises(ValueError, match="^Exp" + message):
            pleth_exp(f)
        with pytest.raises(ValueError, match="^Log" + message):
            pleth_log(TorusSeries(KRON, N, {**f.coeffs, (0, 0): ONE}))


class TestSlopesAndTau:
    """The slope cut the reference framed series are read through."""

    def test_tau_keeps_matching_framed_slope(self):
        f = TorusSeries(KRON, N, {(1, 1): ONE, (1, 0): V, (0, 0): Scalar.of(2)})
        t = truncate_tau(f, (1, 0), Fraction(1, 2), Fraction(1, 2))
        assert sorted(t.coeffs) == [(0, 0), (1, 1)]

    def test_tau_zero_class_needs_mu_equal_c(self):
        one = TorusSeries.one(KRON, N)
        assert truncate_tau(one, (1, 0), 2, 2) == one
        assert truncate_tau(one, (1, 0), 2, 1).is_zero()

    def test_tau_at_infinity(self):
        f = TorusSeries.one(KRON, N)
        assert truncate_tau(f, (1, 0), 0, float("inf")).is_zero()

    def test_tau_rejects_star_terms(self):
        # only the reference torus has star-1 keys to refuse
        f = ref.TorusSeries.monomial(KRON, N, (0, 0), star=1)
        with pytest.raises(ValueError, match="star-0"):
            ref.truncate_tau(f, (1, 0), 0, 0)


class TestSeriesBasics:
    def test_serialize_format(self):
        f = TorusSeries(KRON, N, {(1, 0): V, (0, 1): ONE})
        assert serialize(f) == ("alpha=0,1;star=0;coeff=(1)/(1)\n"
                                "alpha=1,0;star=0;coeff=(v)/(1)")

    def test_terms_sorted(self):
        f = TorusSeries(KRON, N, {(1, 0): ONE, (0, 1): ONE, (0, 2): ONE})
        assert [k for k, _ in f.terms()] == [(0, 1), (0, 2), (1, 0)]

    def test_zero_coeffs_dropped(self):
        f = TorusSeries(KRON, N, {(1, 0): Scalar.of(0)})
        assert f.is_zero() and sorted(f.coeffs) == []

    def test_out_of_region_keys_dropped_on_build(self):
        f = TorusSeries(JORDAN, 2, {(3,): ONE})
        assert f.is_zero()

    def test_monomial_refuses_bad_class(self):
        with pytest.raises(ValueError, match=r"^alpha \(-1, 2\) has a negative entry$"):
            TorusSeries(KRON, N, {(-1, 2): ONE})
        with pytest.raises(ValueError, match="^alpha must list one dimension per vertex"):
            TorusSeries(KRON, N, {(1,): ONE})

    @pytest.mark.parametrize("key, message", [
        ((-1,), r"^alpha \(-1,\) has a negative entry$"),
        ((1.5,), "^alpha entry 1.5 is not an integer$"),
        ((True,), "^alpha entry True is not an integer$"),
    ], ids=["negative", "fraction", "bool"])
    def test_bad_key_refused(self, key, message):
        # the constructor and coeff read a key through check_alpha
        with pytest.raises(ValueError, match=message):
            TorusSeries(JORDAN, 3, {key: ONE})
        with pytest.raises(ValueError, match=message):
            TorusSeries(JORDAN, 3, {(1,): ONE}).coeff(key)

    def test_class_above_the_truncation_refused(self):
        # (3,) was cut off, not found to be 0; a class inside the region
        # that holds no term reads 0
        f = TorusSeries(JORDAN, 2, {(1,): ONE, (3,): ONE})
        assert f.coeff((2,)) == Scalar.of(0)
        with pytest.raises(ValueError, match=r"^class \(3,\) has degree 3, above the "
                                             r"series truncation 2$"):
            f.coeff((3,))

    def test_repr_mentions_region(self):
        assert "N=4" in repr(TorusSeries.one(KRON, 4))


def test_random_product_sanity():
    # fixed-seed stress: associativity on denser series than hypothesis builds
    rng = random.Random(7)
    keys = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
    def rand_series():
        return TorusSeries(KRON, 3, {k: Scalar.of(rng.randint(-2, 2)) * V ** rng.randint(-1, 1)
                                     for k in rng.sample(keys, 5)})
    for _ in range(10):
        f, g, h = rand_series(), rand_series(), rand_series()
        assert torus_mul(torus_mul(f, g), h) == torus_mul(f, torus_mul(g, h))


class TestSkewRows:
    """_mul_into reads <a, b> off one integer row per left key; each
    monomial product must carry (-v)^skew_form(a, b) of the star-0 classes."""

    @pytest.mark.parametrize("fq", [
        jordan_quiver(), loop_quiver(2), kronecker_quiver(), c3_quiver(),
        conifold_quiver(), kronecker_quiver(w=(1, 1)),
    ], ids=["jordan", "two_loops", "kronecker", "c3", "conifold", "kronecker_w11"])
    def test_matches_skew_form(self, fq):
        keys = list(dim_vectors_up_to(fq.n_vertices, 2))
        for a in keys:
            for b in keys:
                acc: dict = {}
                _mul_into(fq, 4, acc, [(a, ONE)], [(b, ONE)])
                [(key, parts)] = acc.items()
                assert key == tuple(x + y for x, y in zip(a, b))
                assert _settle(parts) == Scalar.neg_v_pow(skew_form(fq, ext(a), ext(b)))
