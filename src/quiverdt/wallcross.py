"""Framed wall-crossing engine.

Everything framed is stored star-0: the framing coordinate and its
automorphism factor are stripped once and for all, so a framed series lives
in the same torus as B_U (keys are dimension vectors) and the wall-crossing
identities read as products of ordinary series twisted by S_nu, the one
place the framing enters.  Every function reads the quiver and its framing
off the series it is given (B_U's for a UniversalSeries).  Outputs:
transfer series C_mu, framed series A at any stability level (including
both infinities), the cyclic-stability series, smooth-model motives, and
the series Omega of integer DT invariants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial

from .hn import UniversalSeries, hn_factorize, slope_ladder
from .quiver import Record, ext, is_symmetric, nu, tits_form
from .qtorus import (TorusSeries, nu_weights, pleth_exp, pleth_log, s_twist,
                     torus_div, torus_mul)
from .scalar import L, ONE, Scalar
from .stability import (MINUS_INF, PLUS_INF, SIDES, StabilityParams, check_alpha,
                        check_theta, theta_slope)

DIRECTIONS = tuple(f"{src}_to_{dst}" for src in SIDES for dst in SIDES
                   if src != dst)


class FramedSeries(Record):
    """A framed generating series in star-0 normal form."""
    __slots__ = ("series", "params", "mu")

    def __init__(self, series: TorusSeries, params: StabilityParams, mu=None):
        self._set(series=series, params=params, mu=mu)


def _crossing(left: TorusSeries, right: TorusSeries, keep=None) -> TorusSeries:
    """S_nu(left) . S_{-nu}(right)^{-1}, the product form of a framed series:
    one solve, on the keys keep accepts (see torus_div) when given."""
    fq = left.fq
    return torus_div(s_twist(left, nu_weights(fq, 1)), s_twist(right, nu_weights(fq, -1)),
                     keep)


def _cyclic(B: TorusSeries) -> TorusSeries:
    """S_{2nu}(B) . B^{-1}, the cyclic-stability product form."""
    return torus_div(s_twist(B, nu_weights(B.fq, 2)), B)


def transfer_series(B_mu: TorusSeries) -> TorusSeries:
    """C_mu = S_nu(B_mu) . S_{-nu}(B_mu)^{-1}, one slope's crossing factor."""
    if not is_symmetric(B_mu.fq):
        raise ValueError("use general_wallcross")
    if B_mu.constant_term() != ONE:
        raise ValueError("transfer series needs constant term 1")
    return _crossing(B_mu, B_mu)


def general_wallcross(a_in: FramedSeries, B_mu: TorusSeries,
                      direction: str) -> FramedSeries:
    """Cross one wall in the stated direction, no symmetry assumed.

    Governing identity: A_exact = S_nu(B) . A_minus = A_plus . S_{-nu}(B).
    The side of each product is part of the statement and is preserved here.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    src, dst = direction.split("_to_")
    if a_in.params.side != src:
        raise ValueError("input series side does not match the direction")
    fq = a_in.series.fq
    # A_side = S_nu(B)^{-[side = minus]} . A_exact . S_{-nu}(B)^{-[side = plus]}
    left = (src == "minus") - (dst == "minus")
    right = (src == "plus") - (dst == "plus")
    out = a_in.series
    if left:
        snu_b = s_twist(B_mu, nu_weights(fq, 1))
        out = torus_mul(snu_b, out) if left > 0 else torus_div(out, snu_b, left=True)
    if right:
        sdn_b = s_twist(B_mu, nu_weights(fq, -1))
        out = torus_mul(out, sdn_b) if right > 0 else torus_div(out, sdn_b)
    params = StabilityParams(a_in.params.theta, a_in.params.c, dst)
    return FramedSeries(out, params, a_in.mu)


def uniform_series(BU: UniversalSeries, theta, a, side: str = "exact") -> TorusSeries:
    """The one-parameter framed series A^a assembled from slope factors.

    A^a = S_nu(P_{<=a}) . S_{-nu}(P_{<a})^{-1} where P is the
    decreasing-order product of the slope factors of B_U, both read off the
    slope ladder; side plus uses the upper product on both sides, side minus
    the lower one.
    """
    return _uniform(BU, theta, BU.series.trunc, a, side)


def _uniform(BU, theta, N, a, side, keep=None) -> TorusSeries:
    if a not in (PLUS_INF, MINUS_INF):
        a = Fraction(a)
    # P_{<a} is the rest at the lowest slope >= a, P_{<=a} the one at the
    # lowest slope > a; above every rung both are B_U
    upto = below = BU.series.retrunc(N)
    for mu, _, rest in slope_ladder(BU, theta, N):
        if mu < a:
            break
        upto, below = (rest if mu > a else upto), rest
    return _crossing(below if side == "minus" else upto,
                     upto if side == "plus" else below, keep)


def framed_at(BU: UniversalSeries, theta, N: int, c, side: str = "exact",
              mu=None) -> FramedSeries:
    """The framed series A at level c (or c plus/minus) and slope mu.

    Finite c gives the uniform series at a = mu on the mu slope class, the
    classes alpha whose framed slope (theta.alpha + c)/(|alpha| + 1) is mu;
    the infinities come from their characterizations directly: nothing but
    the bare framing line below all walls, the full cyclic series above them.
    """
    fq = BU.series.fq
    theta = check_theta(fq, theta)
    if N > BU.series.trunc:
        raise ValueError("truncation exceeds the given universal series")
    params = StabilityParams(theta, c, side)
    if c == MINUS_INF:
        return FramedSeries(TorusSeries.one(fq, N), params, None)
    if c == PLUS_INF:
        bu = BU.series.retrunc(N)
        return FramedSeries(_crossing(bu, bu), params, None)
    if mu is None:
        raise ValueError("finite c needs a slope mu")
    mu = Fraction(mu)
    slope = cache(partial(theta_slope, params.theta, c=params.c))  # once per class
    # The divisor P_{<=mu} or P_{<mu} has classes of slope <= mu only, and
    # removing one never lowers a framed slope below mu, so the solve on the
    # classes of framed slope >= mu reads nothing else: only they are formed.
    ser = _uniform(BU, theta, N, mu, side, lambda k: slope(k) >= mu)
    ser = ser.restrict(lambda k: slope(k) == mu)
    if ser.is_zero():
        # empty slope class: only the bare framing line remains
        ser = TorusSeries.one(fq, N)
    return FramedSeries(ser, params, mu)


def ncdt(BU: UniversalSeries) -> TorusSeries:
    """The cyclic-stability series S_{2nu}(B_U) . B_U^{-1}."""
    return _cyclic(BU.series)


def smooth_model_series(BU: UniversalSeries, theta, N: int, mu) -> TorusSeries:
    """Generating series of smooth-model motives on one slope class:
    (1/(L-1)) S_{2nu}(B_mu) . B_mu^{-1}."""
    parts = hn_factorize(BU, theta, N)
    B = parts.get(Fraction(mu), TorusSeries.one(BU.series.fq, N))
    return _cyclic(B) * (ONE / (L - ONE))


def smooth_model_motive(BU: UniversalSeries, theta, N: int, alpha) -> Scalar:
    """(L-1) times the motive of the stable framed moduli space at alpha.

    The slope is the one alpha itself determines; the quadratic-form twist
    (-v)^{T(alpha)} recorded in the series is stripped.
    """
    fq = BU.series.fq
    alpha = check_alpha(fq, alpha)
    if sum(alpha) == 0:
        raise ValueError("the zero class has no smooth model")
    theta = check_theta(fq, theta)
    mu = theta_slope(theta, alpha)
    series = smooth_model_series(BU, theta, N, mu)
    bare = series.coeff(alpha) * (L - ONE)
    t = tits_form(fq, ext(alpha, 0))
    return bare * Scalar.neg_v_pow(-t)


def dt_omega(B_mu: TorusSeries) -> TorusSeries:
    """The series Omega of invariants with B_mu = Exp(Omega / (L-1))."""
    return pleth_log(B_mu) * (L - ONE)


def euler_transfer(omega: TorusSeries) -> TorusSeries:
    """Euler-number limit of the transfer series.

    Builds Exp(sum nu(alpha) om_alpha x^alpha) from the specialized
    invariants, then flips the sign of every term with odd nu(alpha).
    """
    fq = omega.fq
    base: dict = {}
    for k, c in omega.coeffs.items():
        e = c.specialize("euler")
        n = nu(fq, k)
        if n and e:
            base[k] = Scalar.of(n * e)
    g = pleth_exp(TorusSeries(fq, omega.trunc, base))

    def sign(key, c):
        return -c if nu(fq, key) % 2 else c

    return g.map_coeffs(sign)
