"""Differential test of the integer-pair Scalar against the Euclid reference.

Operands are random integer or rational polynomials times random products of
L^k - 1 and v^j + 1, so that numerators and denominators share cyclotomic
factors and every reduction has a non-trivial gcd to find.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_scalar as ref
from quiverdt import scalar as new

coeffs = st.one_of(st.integers(-9, 9),
                   st.fractions(min_value=-4, max_value=4, max_denominator=6))


def _l_minus_one(k):
    return (Fraction(-1),) + (Fraction(0),) * (2 * k - 1) + (Fraction(1),)


def _v_plus_one(j):
    return (Fraction(1),) + (Fraction(0),) * (j - 1) + (Fraction(1),)


factors = st.one_of(st.integers(1, 4).map(_l_minus_one),
                    st.integers(1, 6).map(_v_plus_one))


@st.composite
def polys(draw, max_size=13, max_factors=4):
    """Coefficients (Fractions, low degree first) of a nonzero polynomial."""
    p = tuple(Fraction(c) for c in draw(st.lists(coeffs, min_size=1, max_size=max_size)))
    if not any(p):
        p = p + (Fraction(1),)
    for f in draw(st.lists(factors, max_size=max_factors)):
        p = ref._pmul(p, f)
    return p


@st.composite
def operands(draw, max_size=13, max_factors=4):
    """The same random rational function in both kernels."""
    num, den = draw(polys(max_size, max_factors)), draw(polys(max_size, max_factors))
    if draw(st.booleans()):
        num = ()
    return new.Scalar(num, den), ref.Scalar(num, den)


def both(num, den):
    """The rational function num/den, integer coefficients, in both kernels."""
    num, den = tuple(map(Fraction, num)), tuple(map(Fraction, den))
    return new.Scalar(num, den), ref.Scalar(num, den)


def assert_same(got, want):
    assert repr(got) == repr(want)
    assert got.num == want.num
    assert got.den == want.den


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    @settings(max_examples=150)
    @given(operands(), operands())
    def test_field_operations(self, x, y):
        (a, ra), (b, rb) = x, y
        assert_same(a, ra)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            got, want = outcome(op, a, b), outcome(op, ra, rb)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert_same(got, want)

    # smaller operands: the reference's Euclid over Q is slow at degree ~100
    @given(operands(max_size=7, max_factors=2), st.integers(-3, 3))
    def test_pow(self, x, k):
        a, ra = x
        got, want = outcome(pow, a, k), outcome(pow, ra, k)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same(got, want)

    @given(operands(), st.integers(1, 4))
    def test_adams(self, x, n):
        a, ra = x
        assert_same(a.adams(n), ra.adams(n))

    @given(operands())
    def test_specialize(self, x):
        a, ra = x
        assert outcome(a.specialize) == outcome(ra.specialize, "euler")

    @given(operands(), st.integers(-3, 5))
    # a negative power of v is a pole at L = 0, alone or next to other factors
    @example(both((1,), (0, 0, 1)), 0)
    @example(both((1,), (0, 0, -1, 0, 1)), 0)
    def test_specialize_L(self, x, q):
        a, ra = x
        a2, ra2 = a.adams(2), ra.adams(2)  # even powers only
        assert outcome(a2.specialize_L, q) == outcome(ra2.specialize_L, q)
        assert outcome(a.specialize_L, q) == outcome(ra.specialize_L, q)

    @given(operands(), operands())
    def test_equal_values_hash_equally(self, x, y):
        (a, _), (b, _) = x, y
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert hash(new.Scalar(a.num, a.den)) == hash(a)
        if b:
            assert (a * b) / b == a and hash((a * b) / b) == hash(a)


@st.composite
def monomials(draw):
    """c v^j as coefficients, low degree first, c a nonzero rational."""
    c = draw(coeffs.filter(bool))
    return (Fraction(0),) * draw(st.integers(0, 6)) + (Fraction(c),)


@st.composite
def monomial_operands(draw):
    """A rational function with a monomial numerator or denominator (or both)
    in both kernels; the other side may carry a power of v too."""
    mono, other = draw(monomials()), draw(polys(max_size=7, max_factors=2))
    other = (Fraction(0),) * draw(st.integers(0, 3)) + other
    num, den = draw(st.sampled_from([(mono, other), (other, mono), (mono, draw(monomials()))]))
    return new.Scalar(num, den), ref.Scalar(num, den)


class TestMonomials:
    """The twist by (-v)^k as a shift, and the reduction that skips the gcd
    when one side is a monomial, against the reference's full reduction."""

    @given(operands(), st.integers(-7, 7))
    # v^3 (2v + 1) / (v^5 (3 - v^2)): the shift takes v^-2 to v^3 and back
    @example(both((0, 0, 0, 1, 2), (0, 0, 0, 0, 0, 3, 0, -1)), 5)
    def test_times_neg_v_pow(self, x, k):
        a, ra = x
        assert_same(a.times_neg_v_pow(k), ra * ref.Scalar.neg_v_pow(k))
        assert_same(a.times_neg_v_pow(k), a * new.Scalar.neg_v_pow(k))
        back = a.times_neg_v_pow(k).times_neg_v_pow(-k)
        assert back == a and hash(back) == hash(a) and repr(back) == repr(a)

    @given(monomial_operands(), st.integers(-7, 7))
    def test_times_neg_v_pow_of_monomial_sides(self, x, k):
        a, ra = x
        assert_same(a.times_neg_v_pow(k), ra * ref.Scalar.neg_v_pow(k))

    @settings(max_examples=100)
    @given(monomial_operands(), operands(max_size=7, max_factors=2))
    def test_canonical_with_a_monomial_side(self, x, y):
        (a, ra), (b, rb) = x, y
        assert_same(a, ra)
        for op in (operator.mul, operator.truediv, operator.add):
            got, want = outcome(op, a, b), outcome(op, ra, rb)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert_same(got, want)


def _poly(*factors):
    out = (Fraction(1),)
    for f in factors:
        out = ref._pmul(out, tuple(Fraction(c) for c in f))
    return out


V_MINUS_ONE, V_PLUS_ONE, V_PLUS_TWO, VV = (-1, 1), (1, 1), (2, 1), (0, 1)

# (a, b, c, d) for a/b + c/d: the denominators share a factor h, except
# that one denominator is a constant in the last case
HENRICI = {
    # t = 2(v+2) - 3(v+1) = -(v-1) cancels against h = v-1
    "t_meets_h": ((2,), _poly(V_MINUS_ONE, V_PLUS_ONE), (-3,), _poly(V_MINUS_ONE, V_PLUS_TWO)),
    "shared_L_powers": ((1,), _poly(_l_minus_one(1), _l_minus_one(2)),
                        (0, 1), _poly(_l_minus_one(2), _l_minus_one(3))),
    # h = v and t = (v+1)^2 + (v-1) = v(v+3)
    "shared_v": ((1, 1), _poly(VV, V_MINUS_ONE), (1,), _poly(VV, V_PLUS_ONE)),
    "exact_zero": ((0, 1), _poly(_l_minus_one(1), _l_minus_one(2)),
                   (0, -1), _poly(_l_minus_one(1), _l_minus_one(2))),
    "zero_after_reduction": ((1,), _l_minus_one(1), (-1, 0, -1), _l_minus_one(2)),
    "constant_denominator": ((1,), (3,), (0, 1), _poly(_l_minus_one(1), V_PLUS_ONE)),
}


@pytest.mark.parametrize("case", HENRICI)
def test_henrici_sum(case):
    a, b, c, d = (tuple(Fraction(x) for x in p) for p in HENRICI[case])
    x, rx = new.Scalar(a, b), ref.Scalar(a, b)
    y, ry = new.Scalar(c, d), ref.Scalar(c, d)
    for got, want in ((x + y, rx + ry), (y + x, ry + rx), (x - y, rx - ry)):
        assert_same(got, want)
    if case.startswith(("exact", "zero")):
        assert not x + y
    if case == "t_meets_h":
        assert x + y == new.Scalar((-1,), _poly(V_PLUS_ONE, V_PLUS_TWO))


@st.composite
def shared_denominators(draw):
    """A product of L^k - 1, v + 1 and a power of v, from few enough
    factors that the denominators of one accumulator share some."""
    den = _poly(*draw(st.lists(st.sampled_from([_l_minus_one(1), _l_minus_one(2),
                                                _l_minus_one(3), V_PLUS_ONE]),
                               max_size=3)))
    return (Fraction(0),) * draw(st.integers(0, 2)) + den


@st.composite
def sum_terms(draw):
    """1-6 terms a b (-v)^k for _acc_term, in both kernels, and whether every
    term comes with a term that cancels it (otherwise some terms do), so that
    such accumulators settle to zero.  The cancelling term is written with
    the twist one lower and a factor q moved from a to b, which usually puts
    it in another denominator group."""
    terms, cancel_all = [], draw(st.booleans())
    for _ in range(draw(st.integers(1, 6))):
        a = new.Scalar(draw(polys(max_size=5, max_factors=1)), draw(shared_denominators()))
        ra = ref.Scalar(a.num, a.den)
        b = tuple(Fraction(c) for c in draw(st.sampled_from(
            [(1,), (-2,), (0, 1), (1, 1), (3, 0, 1)])))
        b, rb = new.Scalar(b), ref.Scalar(b)
        k = draw(st.integers(-4, 4))
        terms.append((a, ra, b, rb, k))
        if cancel_all or draw(st.integers(0, 3)) == 0:
            q = draw(shared_denominators())
            q, rq = new.Scalar(q), ref.Scalar(q)
            # (a v / q) (b q) (-v)^(k-1) = -a b (-v)^k
            v, rv = new.Scalar.v_pow(1), ref.Scalar.v_pow(1)
            terms.append((a * v / q, ra * rv / rq, b * q, rb * rq, k - 1))
    return terms, cancel_all


class TestSettle:
    """_settle brings the groups of an _acc_term accumulator to one common
    denominator and reduces once; the reference adds the same terms one by
    one with Euclid's reduction after every step."""

    @settings(max_examples=150)
    @given(sum_terms(), st.integers(1, 4))
    def test_settle_matches_reference(self, drawn, div):
        terms, cancel_all = drawn
        acc, want = {}, ref.Scalar.of(0)
        for a, ra, b, rb, k in terms:
            new._acc_term(acc, a, b, k)
            want = want + ra * rb * ref.Scalar.neg_v_pow(k)
        got = new._settle(acc, div)
        assert_same(got, want / ref.Scalar.of(div))
        if cancel_all:
            assert not got


def _ints(p):
    return tuple(int(c) for c in p)


@st.composite
def int_polys(draw):
    p = tuple(Fraction(c) for c in draw(st.lists(st.integers(-9, 9), min_size=2, max_size=13)))
    if not any(p[1:]):
        p = p + (Fraction(1),)
    for f in draw(st.lists(factors, max_size=4)):
        p = ref._pmul(p, f)
    return ref._trim(p)


class TestFallbackGcd:
    """The primitive remainder sequence that runs when every heuristic xi fails."""

    @given(int_polys(), int_polys(), int_polys())
    def test_prs_gcd_matches_reference(self, f, g, common):
        f, g = ref._pmul(f, common), ref._pmul(g, common)
        h = new._prs_gcd(_ints(f), _ints(g))
        assert tuple(Fraction(c, h[-1]) for c in h) == ref._pgcd(f, g)

    @given(operands(), operands())
    def test_operations_without_heuristic(self, x, y):
        (a, ra), (b, rb) = x, y
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(new, "_HEURISTIC_TRIES", 0)
            assert_same(a + b, ra + rb)
            assert_same(a * b, ra * rb)
            if rb:
                assert_same(a / b, ra / rb)
