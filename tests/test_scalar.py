from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverdt.scalar import L, ONE, V, ZERO, Scalar


def poly(coeffs):
    """Polynomial in v with the given int coefficients, low degree first."""
    out = ZERO
    for k, c in enumerate(coeffs):
        if c:
            out = out + Scalar.v_pow(k) * c
    return out


@st.composite
def scalars(draw, allow_zero=True):
    num = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    den = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)
               .filter(lambda cs: any(cs)))
    a = poly(num) / poly(den)
    if not allow_zero and a.is_zero():
        return a + 1
    return a


nonzero_scalars = scalars(allow_zero=False)


class TestConstruction:
    def test_of_int_and_fraction(self):
        assert Scalar.of(3) == 3
        assert Scalar.of(Fraction(2, 4)) == Fraction(1, 2)
        assert Scalar.of(0) == ZERO

    def test_v_pow_negative(self):
        assert Scalar.v_pow(-2) * Scalar.v_pow(2) == ONE

    def test_neg_v_pow_signs(self):
        assert Scalar.neg_v_pow(2) == V * V
        assert Scalar.neg_v_pow(3) == -(V ** 3)
        assert Scalar.neg_v_pow(-1) * Scalar.neg_v_pow(1) == ONE

    def test_L_is_v_squared(self):
        assert L == V * V

    def test_reduction_canonical(self):
        a = (L * L - ONE) / (L - ONE)  # common factor cancels
        assert a == L + 1

    def test_monic_denominator_normal_form(self):
        a = ONE / (2 * V - 2)
        assert repr(a) == "(1/2)/(v-1)"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            V.num = ()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO


class TestFieldAxioms:
    @given(scalars(), scalars(), scalars())
    def test_add_assoc(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(scalars(), scalars(), scalars())
    def test_mul_assoc(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(scalars(), scalars())
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars(), scalars(), scalars())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(scalars())
    def test_additive_inverse(self, a):
        assert a + (-a) == ZERO

    @given(nonzero_scalars)
    def test_multiplicative_inverse(self, a):
        assert a * (ONE / a) == ONE

    @given(scalars(), nonzero_scalars)
    def test_div_mul_round_trip(self, a, b):
        assert (a / b) * b == a


class TestArithWrappers:
    def test_dispatch(self):
        assert V + V == 2 * V
        assert V - V == ZERO
        assert V * V == L
        assert V / V == ONE


class TestAdams:
    @given(scalars(), scalars(), st.integers(1, 4))
    def test_ring_hom(self, a, b, n):
        assert (a + b).adams(n) == a.adams(n) + b.adams(n)
        assert (a * b).adams(n) == a.adams(n) * b.adams(n)

    @given(scalars(), st.integers(1, 3), st.integers(1, 3))
    def test_composition(self, a, m, n):
        assert a.adams(m).adams(n) == a.adams(m * n)

    @given(scalars())
    def test_identity(self, a):
        assert a.adams(1) == a

    def test_on_v(self):
        assert V.adams(3) == V ** 3
        assert L.adams(2) == L * L

    def test_fixes_constants(self):
        assert Scalar.of(Fraction(7, 3)).adams(5) == Fraction(7, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            V.adams(0)


class TestSpecialize:
    def test_euler_point(self):
        assert (V + 1).specialize() == 2
        assert ((L * L - ONE) / (L - ONE)).specialize() == 2

    def test_euler_cancels_shared_pole(self):
        # reduced form already cancelled the (v-1) factor
        a = (V * V - ONE) / (V - ONE)
        assert a.specialize() == 2

    def test_euler_true_pole(self):
        with pytest.raises(ZeroDivisionError, match="not specializable"):
            (ONE / (V - ONE)).specialize()

    def test_at_point(self):
        # v = 1 is the one point: the sums of the coefficients, and no
        # other point can be asked for
        assert ((V ** 2 + V) / (V + 3)).specialize() == Fraction(1, 2)
        with pytest.raises(TypeError):
            (V ** 2 + V).specialize(Fraction(2))

    def test_L_eval(self):
        assert (L ** 3 / (L - ONE)).specialize_L(2) == 8
        assert ((L + 1) / (L - ONE)).specialize_L(2) == 3

    def test_L_rejects_odd_powers(self):
        with pytest.raises(ValueError, match="half-power mismatch"):
            V.specialize_L(2)

    def test_L_pole(self):
        with pytest.raises(ZeroDivisionError, match="not specializable"):
            (ONE / (L - ONE)).specialize_L(1)

    def test_pole_names_the_value_and_point(self):
        with pytest.raises(ZeroDivisionError, match=r"^not specializable: \(v\)/\(v-1\) "
                                                    r"has a pole at v = 1$"):
            (V / (V - ONE)).specialize()
        with pytest.raises(ZeroDivisionError, match=r"^not specializable: \(1\)/\(v\^4-4\) "
                                                    r"has a pole at L = 2$"):
            (ONE / (L * L - 4)).specialize_L(2)

    @given(st.integers(0, 5), st.integers(2, 5))
    def test_L_matches_power(self, k, q):
        assert (L ** k).specialize_L(q) == q ** k


class TestRendering:
    def test_repr_examples(self):
        assert repr((L * L + L) / ONE) == "(v^4+v^2)/(1)"
        assert repr(ZERO) == "(0)/(1)"
        assert repr(-V) == "(-v)/(1)"
        assert repr(V - 3) == "(v-3)/(1)"

    def test_hashable_and_eq_across_types(self):
        assert hash(Scalar.of(2)) == hash(Scalar.of(2))
        assert Scalar.of(2) == 2
        assert Scalar.of(Fraction(1, 2)) == Fraction(1, 2)
        assert V != 1
