"""Differential test of the graded torus kernels against the reference torus.

tests/reference_qtorus.py is the torus that quiverdt.qtorus replaced: every
term product and partial sum reduced on its own, an inverse built from one
series product per pair of degrees, and Exp/Log summed from full powers.
torus_mul, torus_inverse, pleth_exp and pleth_log must give equal series,
coefficient by coefficient in canonical form, on commuting support (Jordan,
c3 and the conifold heads) and on twisted support (Kronecker and two loops
with star-1 keys), at truncations 0 to 6.  The coefficients have
denominators that share L^k - 1 factors, and some products cancel exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_qtorus as ref
from quiverdt import qtorus as new
from quiverdt.hn import universal_trivial
from quiverdt.quiver import (c3_quiver, conifold_quiver, dim_vectors_up_to, ext,
                             jordan_quiver, kronecker_quiver, loop_quiver)
from quiverdt.scalar import ONE, L, Scalar, V

JORDAN, C3, CONIFOLD = jordan_quiver(), c3_quiver(), conifold_quiver()
KRON, TWO_LOOPS = kronecker_quiver(), loop_quiver(2)

LM1, LM2, LM3 = L - 1, L ** 2 - 1, L ** 3 - 1
POOL = [ONE, -ONE, Scalar.of(Fraction(1, 2)), V, -V ** 3, V ** -1,
        ONE / LM1, -ONE / LM1, L / LM2, -V / (LM1 * LM2), (L + 1) / LM3,
        V ** 2 / (LM2 * LM2), LM1 / (L + 1), -V ** -1 / (LM1 * LM3)]


def pair(fq, trunc, coeffs):
    """The same series in the new and the reference torus."""
    return new.TorusSeries(fq, trunc, coeffs), ref.TorusSeries(fq, trunc, coeffs)


def outcome(fn, series):
    try:
        return fn(series)
    except ValueError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert (got.fq, got.trunc) == (want.fq, want.trunc)
    assert got.coeffs == want.coeffs


def c3_head(trunc):
    return {ext((n,)): (L * L) / LM1 for n in range(1, trunc + 1)}


def conifold_head(trunc):
    head = new.TorusSeries(CONIFOLD, trunc, {
        ext((1, 1)): (L + L * L) / LM1,
        ext((1, 0)): -V / LM1,
        ext((0, 1)): -V / LM1,
    })
    diag = new.TorusSeries(CONIFOLD, trunc,
                           {ext((n, n)): ONE for n in range(trunc // 2 + 1)})
    return dict(new.torus_mul(head, diag).coeffs)


TRUNCS = range(7)


class TestHeads:
    @pytest.mark.parametrize("trunc", TRUNCS)
    def test_exp_log_c3(self, trunc):
        f, rf = pair(C3, trunc, c3_head(trunc))
        g, rg = new.pleth_exp(f), ref.pleth_exp(rf)
        assert_same(g, rg)
        assert_same(new.pleth_log(g), ref.pleth_log(rg))
        assert_same(new.torus_inverse(g), ref.torus_inverse(rg))

    @pytest.mark.parametrize("trunc", TRUNCS)
    def test_exp_log_conifold(self, trunc):
        f, rf = pair(CONIFOLD, trunc, conifold_head(trunc))
        g, rg = new.pleth_exp(f), ref.pleth_exp(rf)
        assert_same(g, rg)
        assert_same(new.pleth_log(g), ref.pleth_log(rg))

    @pytest.mark.parametrize("trunc", TRUNCS)
    def test_jordan_universal(self, trunc):
        g, rg = pair(JORDAN, trunc, universal_trivial(JORDAN, trunc).series.coeffs)
        assert_same(new.pleth_log(g), ref.pleth_log(rg))
        assert_same(new.torus_inverse(g), ref.torus_inverse(rg))
        assert_same(new.torus_mul(g, g), ref.torus_mul(rg, rg))

    @pytest.mark.parametrize("trunc", TRUNCS)
    @pytest.mark.parametrize("fq", [KRON, TWO_LOOPS], ids=["kronecker", "two_loops"])
    def test_twisted_universal(self, fq, trunc):
        # the framed series S_nu(B_U) . S_{-nu}(B_U)^{-1} of the c = +inf chamber,
        # plus star-1 keys that twist against every star-0 key
        bu = universal_trivial(fq, trunc).series.coeffs
        up, rup = pair(fq, trunc, new.s_twist(new.TorusSeries(fq, trunc, bu),
                                              new.nu_weights(fq, 1)).coeffs)
        dn, rdn = pair(fq, trunc, new.s_twist(new.TorusSeries(fq, trunc, bu),
                                              new.nu_weights(fq, -1)).coeffs)
        inv, rinv = new.torus_inverse(dn), ref.torus_inverse(rdn)
        assert_same(inv, rinv)
        assert_same(new.torus_mul(up, inv), ref.torus_mul(rup, rinv))
        zero = (0,) * fq.n_vertices
        starred = {**bu, ext(zero, 1): -V / LM1, ext((1,) + zero[1:], 1): ONE / LM2}
        s, rs = pair(fq, trunc, starred)
        assert_same(new.torus_inverse(s), ref.torus_inverse(rs))
        assert_same(new.torus_mul(s, up), ref.torus_mul(rs, rup))
        assert_same(outcome(new.pleth_log, s), outcome(ref.pleth_log, rs))


class TestCancellation:
    def test_same_denominator_group(self):
        c = V / (LM1 * LM2)
        f, rf = pair(JORDAN, 4, {ext((1,)): c, ext((2,)): c})
        g, rg = pair(JORDAN, 4, {ext((1,)): -ONE, ext((2,)): ONE})
        got = new.torus_mul(f, g)
        assert_same(got, ref.torus_mul(rf, rg))
        assert got.coeff((3,)) == 0

    def test_across_denominator_groups(self):
        # (1/(L-1)) (L-1)/(L+1) - 1/(L+1): the groups (L-1)(L+1) and L+1 cancel
        f, rf = pair(JORDAN, 4, {ext((1,)): ONE / LM1, ext((2,)): ONE / (L + 1)})
        g, rg = pair(JORDAN, 4, {ext((1,)): -ONE, ext((2,)): LM1 / (L + 1)})
        got = new.torus_mul(f, g)
        assert_same(got, ref.torus_mul(rf, rg))
        assert got.coeff((3,)) == 0

    def test_exp_of_log_cancels_to_argument(self):
        f, rf = pair(C3, 5, {ext((1,)): ONE / LM1, ext((2,)): -ONE / LM1,
                             ext((3,)): L / LM2})
        back = new.pleth_log(new.pleth_exp(f))
        assert_same(back, ref.pleth_log(ref.pleth_exp(rf)))
        assert back == f


def keys_of(fq, trunc, stars):
    return [ext(a, s) for a in dim_vectors_up_to(fq.n_vertices, trunc) for s in stars
            if sum(a) + s]


@st.composite
def series_pairs(draw, quivers, stars, constant=None):
    fq = draw(st.sampled_from(quivers))
    trunc = draw(st.integers(0, 6))
    keys = keys_of(fq, trunc, stars)
    picks = draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(POOL)),
                          max_size=6)) if keys else []
    coeffs = {}
    for key, c in picks:
        coeffs[key] = coeffs.get(key, Scalar.of(0)) + c
    if constant is not None:
        coeffs[ext((0,) * fq.n_vertices)] = constant
    return pair(fq, trunc, coeffs)


COMMUTING = [JORDAN, C3, CONIFOLD]
TWISTED = [KRON, TWO_LOOPS]


class TestRandom:
    @settings(max_examples=100)
    @given(st.data())
    def test_mul(self, data):
        quivers, stars = data.draw(st.sampled_from([(COMMUTING, (0,)), (TWISTED, (0, 1))]))
        f, rf = data.draw(series_pairs(quivers, stars))
        g, rg = pair(f.fq, f.trunc, data.draw(series_pairs([f.fq], stars))[0].coeffs)
        assert_same(new.torus_mul(f, g), ref.torus_mul(rf, rg))
        assert_same(new.torus_mul(g, f), ref.torus_mul(rg, rf))

    @settings(max_examples=100)
    @given(series_pairs(TWISTED, (0, 1), constant=ONE))
    def test_inverse_twisted(self, fs):
        f, rf = fs
        assert_same(new.torus_inverse(f), ref.torus_inverse(rf))

    @settings(max_examples=100)
    @given(series_pairs(COMMUTING, (0,), constant=V / LM2))
    def test_inverse_constant_not_one(self, fs):
        f, rf = fs
        assert_same(new.torus_inverse(f), ref.torus_inverse(rf))

    @settings(max_examples=100)
    @given(series_pairs(COMMUTING, (0,)))
    def test_exp(self, fs):
        f, rf = fs
        assert_same(outcome(new.pleth_exp, f), outcome(ref.pleth_exp, rf))

    @settings(max_examples=100)
    @given(series_pairs(COMMUTING, (0,), constant=ONE))
    def test_log(self, fs):
        g, rg = fs
        assert_same(outcome(new.pleth_log, g), outcome(ref.pleth_log, rg))

    @settings(max_examples=100)
    @given(series_pairs(TWISTED, (0, 1)))
    def test_exp_log_refuse_twisted_support(self, fs):
        f, rf = fs
        assert_same(outcome(new.pleth_exp, f), outcome(ref.pleth_exp, rf))
        one = ext((0,) * f.fq.n_vertices)
        g, rg = pair(f.fq, f.trunc, {**f.coeffs, one: ONE})
        assert_same(outcome(new.pleth_log, g), outcome(ref.pleth_log, rg))
