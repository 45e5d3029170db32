"""Differential test of the graded torus kernels against the reference torus.

tests/reference_qtorus.py is the torus that quiverdt.qtorus replaced: every
term product and partial sum reduced on its own, an inverse built from one
series product per pair of degrees, and Exp/Log summed from full powers.
torus_mul, torus_div (on either side), pleth_exp and pleth_log must give
equal series, coefficient by coefficient in canonical form, on commuting
support (Jordan, c3 and the conifold heads) and on twisted support
(Kronecker and two loops), at truncations 0 to 6.  The coefficients have
denominators that share L^k - 1 factors, and some products cancel exactly.
The production keys are dimension vectors; pair, at_star0 and assert_same
place them at star 0 of the reference torus, which keeps its star
coordinate: test_star_zero_normal_form checks there that the star-0 framed
series, with the framing line put back, is the framed product.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_hn as ref_hn
from reference_hn import at_star0
import reference_qtorus as ref
import test_hn_reference as hn_ref
from quiverdt import qtorus as new
from quiverdt.hn import hn_factorize, universal_for, universal_trivial
from quiverdt.quiver import (c3_quiver, conifold_quiver, dim_vectors_up_to,
                             jordan_quiver, kronecker_quiver, loop_quiver)
from quiverdt.scalar import ONE, L, Scalar, V
from quiverdt.stability import SIDES, find_walls, theta_slope
from quiverdt.wallcross import framed_at, general_wallcross

JORDAN, C3, CONIFOLD = jordan_quiver(), c3_quiver(), conifold_quiver()
KRON, TWO_LOOPS = kronecker_quiver(), loop_quiver(2)

LM1, LM2, LM3 = L - 1, L ** 2 - 1, L ** 3 - 1
HALF = Fraction(1, 2)
POOL = [ONE, -ONE, Scalar.of(Fraction(1, 2)), V, -V ** 3, V ** -1,
        ONE / LM1, -ONE / LM1, L / LM2, -V / (LM1 * LM2), (L + 1) / LM3,
        V ** 2 / (LM2 * LM2), LM1 / (L + 1), -V ** -1 / (LM1 * LM3)]


def pair(fq, trunc, coeffs):
    """The same series in the new and the reference torus."""
    f = new.TorusSeries(fq, trunc, coeffs)
    return f, at_star0(f)


def from_ref(coeffs) -> dict:
    """Reference coefficients, every key at star 0, by dimension vector."""
    assert not any(k.star for k in coeffs)
    return {k.unframed: c for k, c in coeffs.items()}


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
    assert got.coeffs == from_ref(want.coeffs)


def assert_inverse(g, rg):
    """torus_div(1, g), solved on either side, against the reference inverse."""
    one = new.TorusSeries.one(g.fq, g.trunc)
    want = ref.torus_inverse(rg)
    for left in (False, True):
        assert_same(new.torus_div(one, g, left=left), want)


def c3_head(trunc):
    return {(n,): (L * L) / LM1 for n in range(1, trunc + 1)}


def conifold_head(trunc):
    head = new.TorusSeries(CONIFOLD, trunc, {
        (1, 1): (L + L * L) / LM1,
        (1, 0): -V / LM1,
        (0, 1): -V / LM1,
    })
    diag = new.TorusSeries(CONIFOLD, trunc, {(n, n): ONE for n in range(trunc // 2 + 1)})
    return dict(new.torus_mul(head, diag).coeffs)


TRUNCS = range(7)


class TestHeads:
    @pytest.mark.parametrize("trunc", TRUNCS)
    def test_exp_log_c3(self, trunc):
        f, rf = pair(C3, trunc, c3_head(trunc))
        g, rg = new.pleth_exp(f), ref.pleth_exp(rf)
        assert_same(g, rg)
        assert_same(new.pleth_log(g), ref.pleth_log(rg))
        assert_inverse(g, rg)

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
        assert_inverse(g, rg)
        assert_same(new.torus_mul(g, g), ref.torus_mul(rg, rg))

    @pytest.mark.parametrize("trunc", TRUNCS)
    @pytest.mark.parametrize("fq", [KRON, TWO_LOOPS], ids=["kronecker", "two_loops"])
    def test_twisted_universal(self, fq, trunc):
        # the framed series S_nu(B_U) . S_{-nu}(B_U)^{-1} of the c = +inf chamber
        bu = universal_trivial(fq, trunc).series.coeffs
        up, rup = pair(fq, trunc, new.s_twist(new.TorusSeries(fq, trunc, bu),
                                              new.nu_weights(fq, 1)).coeffs)
        dn, rdn = pair(fq, trunc, new.s_twist(new.TorusSeries(fq, trunc, bu),
                                              new.nu_weights(fq, -1)).coeffs)
        rinv = ref.torus_inverse(rdn)
        assert_inverse(dn, rdn)
        assert_same(new.torus_div(up, dn), ref.torus_mul(rup, rinv))
        assert_same(new.torus_div(up, dn, left=True), ref.torus_mul(rinv, rup))


class TestCancellation:
    def test_same_denominator_group(self):
        c = V / (LM1 * LM2)
        f, rf = pair(JORDAN, 4, {(1,): c, (2,): c})
        g, rg = pair(JORDAN, 4, {(1,): -ONE, (2,): ONE})
        got = new.torus_mul(f, g)
        assert_same(got, ref.torus_mul(rf, rg))
        assert got.coeff((3,)) == 0

    def test_across_denominator_groups(self):
        # (1/(L-1)) (L-1)/(L+1) - 1/(L+1): the groups (L-1)(L+1) and L+1 cancel
        f, rf = pair(JORDAN, 4, {(1,): ONE / LM1, (2,): ONE / (L + 1)})
        g, rg = pair(JORDAN, 4, {(1,): -ONE, (2,): LM1 / (L + 1)})
        got = new.torus_mul(f, g)
        assert_same(got, ref.torus_mul(rf, rg))
        assert got.coeff((3,)) == 0

    def test_exp_of_log_cancels_to_argument(self):
        f, rf = pair(C3, 5, {(1,): ONE / LM1, (2,): -ONE / LM1, (3,): L / LM2})
        back = new.pleth_log(new.pleth_exp(f))
        assert_same(back, ref.pleth_log(ref.pleth_exp(rf)))
        assert back == f


def keys_of(fq, trunc):
    return [a for a in dim_vectors_up_to(fq.n_vertices, trunc) if sum(a)]


@st.composite
def series_pairs(draw, quivers, constant=None):
    fq = draw(st.sampled_from(quivers))
    trunc = draw(st.integers(0, 6))
    keys = keys_of(fq, trunc)
    picks = draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(POOL)),
                          max_size=6)) if keys else []
    coeffs = {}
    for key, c in picks:
        coeffs[key] = coeffs.get(key, Scalar.of(0)) + c
    if constant is not None:
        coeffs[(0,) * fq.n_vertices] = constant
    return pair(fq, trunc, coeffs)


COMMUTING = [JORDAN, C3, CONIFOLD]
TWISTED = [KRON, TWO_LOOPS]


class TestRandom:
    @settings(max_examples=100)
    @given(st.data())
    def test_mul(self, data):
        quivers = data.draw(st.sampled_from([COMMUTING, TWISTED]))
        f, rf = data.draw(series_pairs(quivers))
        g, rg = pair(f.fq, f.trunc, data.draw(series_pairs([f.fq]))[0].coeffs)
        assert_same(new.torus_mul(f, g), ref.torus_mul(rf, rg))
        assert_same(new.torus_mul(g, f), ref.torus_mul(rg, rf))

    @settings(max_examples=100)
    @given(series_pairs(TWISTED, constant=ONE))
    def test_inverse_twisted(self, fs):
        assert_inverse(*fs)

    @settings(max_examples=100)
    @given(series_pairs(COMMUTING, constant=V / LM2))
    def test_inverse_constant_not_one(self, fs):
        assert_inverse(*fs)

    @settings(max_examples=100)
    @given(series_pairs(COMMUTING))
    def test_exp(self, fs):
        f, rf = fs
        assert_same(outcome(new.pleth_exp, f), outcome(ref.pleth_exp, rf))

    @settings(max_examples=100)
    @given(series_pairs(COMMUTING, constant=ONE))
    def test_log(self, fs):
        g, rg = fs
        assert_same(outcome(new.pleth_log, g), outcome(ref.pleth_log, rg))

    @settings(max_examples=100)
    @given(series_pairs(TWISTED))
    def test_exp_log_refuse_twisted_support(self, fs):
        f, rf = fs
        assert_same(outcome(new.pleth_exp, f), outcome(ref.pleth_exp, rf))
        one = (0,) * f.fq.n_vertices
        g, rg = pair(f.fq, f.trunc, {**f.coeffs, one: ONE})
        assert_same(outcome(new.pleth_log, g), outcome(ref.pleth_log, rg))


UNITS = [(False, False), (True, False), (False, True), (True, True)]


@st.composite
def on_torus(draw, fq, trunc, constant):
    """A series on the torus of (fq, trunc) in both kernels, with the given
    constant term (None: none)."""
    coeffs = dict(draw(series_pairs([fq]))[0].coeffs)
    if constant is not None:
        coeffs[(0,) * fq.n_vertices] = constant
    return pair(fq, trunc, coeffs)


@st.composite
def quotients(draw):
    """f and a divisor g on one torus in both kernels; g's constant term is
    1, -1, a non-unit, 1/2 or missing."""
    quivers = draw(st.sampled_from([COMMUTING, TWISTED]))
    f, rf = draw(series_pairs(quivers))
    c0 = draw(st.sampled_from([ONE, -ONE, V / LM2, Scalar.of(Fraction(1, 2)), None]))
    return (f, rf) + draw(on_torus(f.fq, f.trunc, c0))


@st.composite
def half_space_quotients(draw):
    """f, a divisor g and keep = {k : phi(k) >= t} for a linear phi <= 0 on
    g's keys, so keep accepts k - e whenever it accepts k."""
    quivers = draw(st.sampled_from([COMMUTING, TWISTED]))
    f, rf = draw(series_pairs(quivers))
    fq, trunc = f.fq, f.trunc
    weights = draw(st.lists(st.integers(-2, 2), min_size=fq.n_vertices,
                            max_size=fq.n_vertices))

    def phi(key):
        return sum(w * a for w, a in zip(weights, key))

    t = draw(st.integers(-4, 2))
    keys = [k for k in keys_of(fq, trunc) if phi(k) <= 0]
    picks = draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(POOL)),
                          max_size=6)) if keys else []
    coeffs = {(0,) * fq.n_vertices: draw(st.sampled_from([ONE, V / LM2]))}
    for key, c in picks:
        coeffs[key] = coeffs.get(key, Scalar.of(0)) + c
    return (f, rf) + pair(fq, trunc, coeffs) + (lambda key: phi(key) >= t,)


class TestQuotientAndPassThrough:
    """torus_div against the reference's product with the inverse, on either
    side, also on a half-space of keys, and the unit-constant pass-through
    of torus_mul."""

    @settings(max_examples=100)
    @given(quotients())
    def test_div(self, draws):
        f, rf, g, rg = draws
        want = outcome(lambda rg: ref.torus_mul(rf, ref.torus_inverse(rg)), rg)
        assert_same(outcome(lambda g: new.torus_div(f, g), g), want)
        if not isinstance(want, str):
            assert_inverse(g, rg)

    @settings(max_examples=100)
    @given(quotients())
    def test_left_div(self, draws):
        f, rf, g, rg = draws
        want = outcome(lambda rg: ref.torus_mul(ref.torus_inverse(rg), rf), rg)
        assert_same(outcome(lambda g: new.torus_div(f, g, left=True), g), want)

    @settings(max_examples=100)
    @given(half_space_quotients())
    def test_div_on_a_half_space(self, draws):
        f, rf, g, rg, keep = draws
        want = ref.torus_mul(rf, ref.torus_inverse(rg)).restrict(lambda k: keep(k.unframed))
        assert_same(new.torus_div(f, g, keep), want)

    @settings(max_examples=100)
    @given(half_space_quotients())
    def test_left_div_on_a_half_space(self, draws):
        f, rf, g, rg, keep = draws
        want = ref.torus_mul(ref.torus_inverse(rg), rf).restrict(lambda k: keep(k.unframed))
        assert_same(new.torus_div(f, g, keep, left=True), want)

    def test_div_on_a_half_space_forms_no_other_key(self):
        # framed_at's case: a divisor of slope <= 1/2 at theta = (1, 0), and
        # the classes of framed slope >= 1/2 at c = 1/2; f has every class
        bu = universal_trivial(KRON, 5).series
        g = bu.restrict(lambda k: 2 * k[0] <= sum(k))

        def keep(key):
            return theta_slope((1, 0), key, HALF) >= HALF

        got = new.torus_div(bu, g, keep)
        want = ref.torus_mul(at_star0(bu), ref.torus_inverse(at_star0(g)))
        assert got.coeffs and all(keep(k) for k in got.coeffs)
        assert_same(got, want.restrict(lambda k: keep(k.unframed)))

    @settings(max_examples=100)
    @given(st.data(), st.sampled_from(UNITS))
    def test_mul_unit_constants(self, data, units):
        quivers = data.draw(st.sampled_from([COMMUTING, TWISTED]))
        fq = data.draw(st.sampled_from(quivers))
        trunc = data.draw(st.integers(0, 6))
        other = data.draw(st.sampled_from([V / LM2, -ONE, None]))
        f, rf = data.draw(on_torus(fq, trunc, ONE if units[0] else other))
        g, rg = data.draw(on_torus(fq, trunc, ONE if units[1] else other))
        assert_same(new.torus_mul(f, g), ref.torus_mul(rf, rg))

    def test_pass_through_keeps_untouched_coefficients(self):
        # (1 + a x^(1,0)) . (1 + b x^(0,1)) on Kronecker: only x^(1,1) is a product
        a, b = ONE / LM1, V / LM2
        f = new.TorusSeries(KRON, 3, {(0, 0): ONE, (1, 0): a})
        g = new.TorusSeries(KRON, 3, {(0, 0): ONE, (0, 1): b})
        got = new.torus_mul(f, g)
        assert got.coeff((1, 0)) is a and got.coeff((0, 1)) is b
        assert_same(got, ref.torus_mul(at_star0(f), at_star0(g)))


def reference_framed(fq, parts, theta, N, c, side, mu):
    """The finite-level framed series from the reference HN split's pieces,
    in the reference torus: the whole crossing, then truncate_tau."""
    def product(slopes):  # decreasing slope, left to right
        out = ref.TorusSeries.one(fq, N)
        for b in sorted(slopes, reverse=True):
            out = ref.torus_mul(out, at_star0(parts[b]))
        return out

    below, upto = product(b for b in parts if b < mu), product(b for b in parts if b <= mu)
    left = below if side == "minus" else upto
    right = upto if side == "plus" else below
    crossing = ref.torus_mul(ref.s_twist(left, ref.nu_weights(fq, 1)),
                             ref.torus_inverse(ref.s_twist(right, ref.nu_weights(fq, -1))))
    return from_ref(ref.truncate_tau(crossing, theta, c, mu).coeffs) or {(0,) * fq.n_vertices: ONE}


@pytest.mark.parametrize("name, fq, thetas, _, N", hn_ref.CASES, ids=hn_ref.IDS)
def test_framed_slope_line(name, fq, thetas, _, N):
    """framed_at, solved for the classes of framed slope >= mu only, against
    truncate_tau of the whole crossing: at every wall of every class and at
    empty slope classes (the levels tests/test_hn_reference.py enumerates),
    on all three sides."""
    bu = universal_for(fq, N)
    alphas = [a for a in dim_vectors_up_to(fq.n_vertices, N) if sum(a)]
    for theta in thetas:
        parts = ref_hn.hn_split(bu.series, tuple(Fraction(t) for t in theta), N)
        levels = {(c, theta_slope(theta, a, c))
                  for a in alphas for c in find_walls(fq, theta, a)}
        levels |= {(c, mu) for mu in hn_ref.between(sorted(parts)) for c in (mu, mu + 1)}
        for c, mu in sorted(levels):
            for side in SIDES:
                got = framed_at(bu, theta, N, c, side, mu).series
                assert got.coeffs == reference_framed(fq, parts, theta, N, c, side, mu), \
                    (theta, c, mu, side)


@pytest.mark.parametrize("fq", [KRON, CONIFOLD], ids=["kronecker", "conifold"])
def test_wallcross_onto_the_minus_side(fq):
    """exact_to_minus and plus_to_minus, a left quotient by S_nu(B), against
    the reference's S_nu(B)^{-1} . A_exact at the wall c = mu = 1/2, where
    A_exact = A_plus . S_{-nu}(B) on the plus side."""
    N = 5
    bu = universal_for(fq, N)
    B = hn_factorize(bu, (1, 0), N)[HALF]
    rb = at_star0(B)
    snu_inv = ref.torus_inverse(ref.s_twist(rb, ref.nu_weights(fq, 1)))
    sdn = ref.s_twist(rb, ref.nu_weights(fq, -1))
    for src in ("exact", "plus"):
        a = framed_at(bu, (1, 0), N, HALF, src, HALF)
        exact = at_star0(a.series)
        if src == "plus":
            exact = ref.torus_mul(exact, sdn)
        got = general_wallcross(a, B, f"{src}_to_minus").series
        assert_same(got, ref.torus_mul(snu_inv, exact))


@pytest.mark.parametrize("fq, theta", [
    (KRON, (1, 0)), (KRON, (2, -1)), (TWO_LOOPS, (0,)), (CONIFOLD, (1, 0)), (CONIFOLD, (-1, 2)),
], ids=["kronecker", "kronecker_2_-1", "two_loops", "conifold", "conifold_-1_2"])
@pytest.mark.parametrize("N", [2, 6])
def test_star_zero_normal_form(fq, theta, N):
    """On every rung (mu, B_mu, Q) of the slope ladder, with P the rest one
    rung up: P . x* . Q^{-1} in the star-1 torus equals
    S_{-nu}(_crossing(P, Q)) . x*, the production series placed at star 0.
    Any other twist on the left (-2, 0, 1, 2 times nu) breaks it."""
    rungs = ref_hn.star_one_rungs(universal_for(fq, N), theta, N)
    assert rungs
    for mu, framed, normal in rungs:
        assert framed == normal, mu
