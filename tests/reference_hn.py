"""Reference HN split for the differential test of quiverdt.hn.

hn_split is the recursion over HN chains (Reineke, arXiv:math/0204059) that
quiverdt.hn replaced by peeling the top slope, kept verbatim except for its
name and absolute imports: the coefficient of B at alpha is the B_U
coefficient minus every chain alpha = a_1 + ... + a_k, k >= 2, of strictly
decreasing slopes, twisted by (-v)^{sum_{i<j} <a_i, a_j>}.  _uniform and
framed_at assemble the framed series from its pieces the way
quiverdt.wallcross did before it read them off the slope ladder: every call
multiplies the pieces below the level again.  torus_product, truncate_tau,
remultiply_check and transfer_slope_product are the product-side helpers
that the tests read the production series against; at_star0 places a
production series in the star-1 torus of reference_qtorus, and
star_one_rungs reads the star-0 framed series against that torus.  Nothing
under src/ imports it.
"""

from __future__ import annotations

from fractions import Fraction

import reference_qtorus as ref_qt
from quiverdt.hn import slope_ladder
from quiverdt.qtorus import TorusSeries, nu_weights, s_twist, torus_mul
from quiverdt.quiver import ExtDimVector, dim_vectors_up_to, ext, skew_form, sub_vectors
from quiverdt.scalar import ONE, Scalar, _acc_term, _settle
from quiverdt.stability import MINUS_INF, PLUS_INF, theta_slope
from quiverdt.wallcross import _crossing, transfer_series


def hn_split(series: TorusSeries, theta: tuple, N: int) -> dict:
    fq = series.fq
    n = fq.n_vertices
    classes = [a for a in dim_vectors_up_to(n, N) if sum(a)]
    classes.sort(key=sum)
    slope = {a: theta_slope(theta, a) for a in classes}
    b: dict = {}
    memo: dict = {}

    def skew(x, y) -> int:
        return skew_form(fq, ExtDimVector(tuple(x), 0), ExtDimVector(tuple(y), 0))

    def chains(rho, bound) -> Scalar:
        # sum over HN chains of rho with all slopes strictly below bound
        if not sum(rho):
            return ONE
        key = (rho, bound)
        if key in memo:
            return memo[key]
        acc: dict = {}
        for beta in sub_vectors(rho):
            coeff = b.get(beta)  # b holds nonzero classes and coefficients only
            if coeff is None or slope[beta] >= bound:
                continue
            rest = tuple(r - x for r, x in zip(rho, beta))
            tail = chains(rest, slope[beta])
            if tail:
                _acc_term(acc, coeff, tail, skew(beta, rest))
        memo[key] = total = _settle(acc)
        return total

    for alpha in classes:
        acc = {}
        _acc_term(acc, series.coeff(alpha), ONE, 0)
        for beta in sub_vectors(alpha):
            coeff = b.get(beta)
            if coeff is None or beta == alpha:
                continue
            rest = tuple(r - x for r, x in zip(alpha, beta))
            tail = chains(rest, slope[beta])
            if tail:
                _acc_term(acc, -coeff, tail, skew(beta, rest))
        val = _settle(acc)
        if val:
            b[alpha] = val

    parts: dict = {}
    for alpha, coeff in b.items():
        parts.setdefault(slope[alpha], {})[alpha] = coeff
    out = {}
    for mu in sorted(parts):
        terms = parts[mu]
        terms[(0,) * n] = ONE
        out[mu] = TorusSeries(fq, N, terms)
    return out


def _uniform(fq, parts, N, a, side) -> TorusSeries:
    if a not in (PLUS_INF, MINUS_INF):
        a = Fraction(a)
    lower = [parts[b] for b in sorted(parts, reverse=True) if b < a]
    below = torus_product(fq, N, lower)  # P_{<a}, decreasing slope
    upto = below  # P_{<=a}
    if a in parts:
        upto = torus_mul(parts[a], below) if lower else parts[a]
    return _crossing(below if side == "minus" else upto,
                     upto if side == "plus" else below)


def framed_at(fq, parts, theta, N, c, side, mu) -> TorusSeries:
    """The finite-level framed series of quiverdt.wallcross.framed_at, from parts."""
    mu = Fraction(mu)
    ser = truncate_tau(_uniform(fq, parts, N, mu, side), theta, Fraction(c), mu)
    return TorusSeries.one(fq, N) if ser.is_zero() else ser


def torus_product(fq, trunc: int, factors) -> TorusSeries:
    """The product of factors, left to right, from the first factor: k - 1
    products for k factors, and one when there is none."""
    out = None
    for f in factors:
        out = f if out is None else torus_mul(out, f)
    return TorusSeries.one(fq, trunc) if out is None else out


def truncate_tau(f: TorusSeries, theta, c, mu) -> TorusSeries:
    """Keep exactly the terms whose framed slope mu_c(alpha, 1) is mu."""
    if mu == float("inf"):
        # r(alpha, 1) > 0 always, so no finite class ever has infinite slope
        return TorusSeries.zero(f.fq, f.trunc)
    mu, c = Fraction(mu), Fraction(c)
    return f.restrict(lambda key: theta_slope(theta, key, c) == mu)


def remultiply_check(parts: dict, BU) -> bool:
    """Re-multiply the slope pieces (decreasing slope) and compare with B_U."""
    series = BU.series
    fq, N = series.fq, series.trunc
    prod = torus_product(fq, N, (parts[mu].retrunc(N) for mu in sorted(parts, reverse=True)))
    return prod == series


def transfer_slope_product(fq, parts: dict, trunc: int, pred) -> TorusSeries:
    """Product of the transfer series C_b over the slopes b with pred(b).

    Symmetric quivers only; the factors commute, the order is fixed
    decreasing for definiteness.
    """
    return torus_product(fq, trunc, (transfer_series(parts[b])
                                     for b in sorted(parts, reverse=True) if pred(b)))


def at_star0(f: TorusSeries) -> ref_qt.TorusSeries:
    """f in the star-1 torus of reference_qtorus, every key at star 0."""
    return ref_qt.TorusSeries(f.fq, f.trunc, {ext(k): c for k, c in f.coeffs.items()})


def star_one_rungs(BU, theta, N) -> list:
    """[(mu, framed, normal)] over the rungs (mu, B_mu, Q) of the slope ladder.

    With P the rest one rung up (B_U above the top rung), framed is
    P . x* . Q^{-1}, formed in the star-1 torus of reference_qtorus, and
    normal is S_{-nu}(_crossing(P, Q)) . x*, the production star-0 series
    placed at star 0 with the framing line x* put back on its right.  The
    two agree on every rung when the star-0 normal form is right.
    """
    fq = BU.series.fq
    xs = ref_qt.TorusSeries.monomial(fq, N, (0,) * fq.n_vertices, star=1)
    out, P = [], BU.series.retrunc(N)
    for mu, _, Q in slope_ladder(BU, theta, N):
        framed = ref_qt.torus_mul(ref_qt.torus_mul(at_star0(P), xs),
                                  ref_qt.torus_inverse(at_star0(Q)))
        normal = ref_qt.torus_mul(at_star0(s_twist(_crossing(P, Q), nu_weights(fq, -1))), xs)
        out.append((mu, framed, normal))
        P = Q
    return out
