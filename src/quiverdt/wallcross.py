"""Framed wall-crossing engine.

Everything framed is stored star-0: the framing coordinate and its
automorphism factor are stripped once and for all, so the wall-crossing
identities read as products of ordinary series twisted by S_nu.  Outputs:
transfer series C_mu, framed series A at any stability level (including
both infinities), the cyclic-stability series, smooth-model motives, and
the integer DT invariants Omega.
"""

from __future__ import annotations

from fractions import Fraction

from .hn import UniversalSeries, hn_factorize
from .quiver import FramedQuiver, Record, ext, is_symmetric, nu, tits_form
from .qtorus import (TorusSeries, nu_weights, pleth_exp, pleth_log, s_twist,
                     torus_inverse, torus_mul, torus_product, truncate_tau)
from .scalar import L, ONE, Scalar, V
from .stability import (MINUS_INF, PLUS_INF, SIDES, StabilityParams,
                        theta_slope)

# motive of the bare framing line with its scalar automorphisms
A_STAR = -V / (L - ONE)

DIRECTIONS = tuple(f"{src}_to_{dst}" for src in SIDES for dst in SIDES
                   if src != dst)


class FramedSeries(Record):
    """A framed generating series in star-0 normal form."""
    __slots__ = ("series", "params", "mu")

    def __init__(self, series: TorusSeries, params: StabilityParams, mu=None):
        self._set(series=series, params=params, mu=mu)


class DTInvariants(Record):
    """The invariants Omega with B = Exp(Omega / (L-1)) on one slope class."""
    __slots__ = ("omega", "trunc")  # omega: DimVector -> Scalar

    def __init__(self, omega: dict, trunc: int):
        self._set(omega=omega, trunc=trunc)

    def as_series(self, fq: FramedQuiver) -> TorusSeries:
        return TorusSeries(fq, self.trunc,
                           {ext(k): c for k, c in self.omega.items()})


def _crossing(fq: FramedQuiver, left: TorusSeries,
              right: TorusSeries) -> TorusSeries:
    """S_nu(left) . S_{-nu}(right)^{-1}, the product form of a framed series."""
    return torus_mul(s_twist(left, nu_weights(fq, 1)),
                     torus_inverse(s_twist(right, nu_weights(fq, -1))))


def _cyclic(fq: FramedQuiver, B: TorusSeries) -> TorusSeries:
    """S_{2nu}(B) . B^{-1}, the cyclic-stability product form."""
    return torus_mul(s_twist(B, nu_weights(fq, 2)), torus_inverse(B))


def transfer_series(B_mu: TorusSeries, fq: FramedQuiver) -> TorusSeries:
    """C_mu = S_nu(B_mu) . S_{-nu}(B_mu)^{-1}, one slope's crossing factor."""
    if not is_symmetric(fq):
        raise ValueError("use general_wallcross")
    if B_mu.constant_term() != ONE:
        raise ValueError("transfer series needs constant term 1")
    return _crossing(fq, B_mu, B_mu)


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
    if any(k.star for k in B_mu.coeffs):
        raise ValueError("B_mu must be star-0")
    fq = a_in.series.fq
    # A_side = S_nu(B)^{-[side = minus]} . A_exact . S_{-nu}(B)^{-[side = plus]}
    left = (src == "minus") - (dst == "minus")
    right = (src == "plus") - (dst == "plus")
    out = a_in.series
    if left:
        snu_b = s_twist(B_mu, nu_weights(fq, 1))
        out = torus_mul(snu_b if left > 0 else torus_inverse(snu_b), out)
    if right:
        sdn_b = s_twist(B_mu, nu_weights(fq, -1))
        out = torus_mul(out, sdn_b if right > 0 else torus_inverse(sdn_b))
    params = StabilityParams(a_in.params.theta, a_in.params.c, dst)
    return FramedSeries(out, params, a_in.mu)


def uniform_series(fq: FramedQuiver, BU: UniversalSeries, theta, a,
                   side: str = "exact") -> TorusSeries:
    """The one-parameter framed series A^a assembled from slope factors.

    A^a = S_nu(P_{<=a}) . S_{-nu}(P_{<a})^{-1} where P is the
    decreasing-order product of the slope factors of B_U; side plus uses
    the upper product on both sides, side minus the lower one.
    """
    N = BU.series.trunc
    return _uniform(fq, hn_factorize(BU, theta, N), N, a, side)


def _uniform(fq, parts, N, a, side) -> TorusSeries:
    if a not in (PLUS_INF, MINUS_INF):
        a = Fraction(a)
    lower = [parts[b] for b in sorted(parts, reverse=True) if b < a]
    below = torus_product(fq, N, lower)  # P_{<a}, decreasing slope
    upto = below  # P_{<=a}
    if a in parts:
        upto = torus_mul(parts[a], below) if lower else parts[a]
    return _crossing(fq, below if side == "minus" else upto,
                     upto if side == "plus" else below)


def framed_at(fq: FramedQuiver, BU: UniversalSeries, theta, N: int,
              c, side: str = "exact", mu=None) -> FramedSeries:
    """The framed series A at level c (or c plus/minus) and slope mu.

    Finite c reduces to the uniform series at a = mu cut down to the mu
    slope class; the infinities come from their characterizations directly:
    nothing but the bare framing line below all walls, the full cyclic
    series above them.
    """
    if N > BU.series.trunc:
        raise ValueError("truncation exceeds the given universal series")
    params = StabilityParams(theta, c, side)
    if c == MINUS_INF:
        return FramedSeries(TorusSeries.one(fq, N), params, None)
    if c == PLUS_INF:
        bu = BU.series.retrunc(N)
        return FramedSeries(_crossing(fq, bu, bu), params, None)
    if mu is None:
        raise ValueError("finite c needs a slope mu")
    mu = Fraction(mu)
    uni = _uniform(fq, hn_factorize(BU, theta, N), N, mu, side)
    ser = truncate_tau(uni, theta, Fraction(c), mu)
    if ser.is_zero():
        # empty slope class: only the bare framing line remains
        ser = TorusSeries.one(fq, N)
    return FramedSeries(ser, params, mu)


def transfer_slope_product(fq: FramedQuiver, parts: dict, trunc: int,
                           pred) -> TorusSeries:
    """Product of the transfer series C_b over the slopes b with pred(b).

    Symmetric quivers only; the factors commute, the order is fixed
    decreasing for definiteness.
    """
    return torus_product(fq, trunc, (transfer_series(parts[b], fq)
                                     for b in sorted(parts, reverse=True) if pred(b)))


def ncdt(fq: FramedQuiver, BU: UniversalSeries) -> TorusSeries:
    """The cyclic-stability series S_{2nu}(B_U) . B_U^{-1}."""
    return _cyclic(fq, BU.series)


def smooth_model_series(fq: FramedQuiver, theta, mu, BU: UniversalSeries,
                        N: int) -> TorusSeries:
    """Generating series of smooth-model motives on one slope class:
    (1/(L-1)) S_{2nu}(B_mu) . B_mu^{-1}."""
    if N > BU.series.trunc:
        raise ValueError("truncation exceeds the given universal series")
    parts = hn_factorize(BU, theta, N)
    B = parts.get(Fraction(mu), TorusSeries.one(fq, N))
    return _cyclic(fq, B) * (ONE / (L - ONE))


def smooth_model_motive(fq: FramedQuiver, theta, BU: UniversalSeries,
                        N: int, alpha) -> Scalar:
    """(L-1) times the motive of the stable framed moduli space at alpha.

    The slope is the one alpha itself determines; the quadratic-form twist
    (-v)^{T(alpha)} recorded in the series is stripped.
    """
    alpha = tuple(int(x) for x in alpha)
    if sum(alpha) == 0:
        raise ValueError("the zero class has no smooth model")
    theta = tuple(Fraction(t) for t in theta)
    mu = theta_slope(theta, alpha)
    series = smooth_model_series(fq, theta, mu, BU, N)
    bare = series.coeff(alpha) * (L - ONE)
    t = tits_form(fq, ext(alpha, 0))
    return bare * Scalar.neg_v_pow(-t)


def dt_omega(B_mu: TorusSeries) -> DTInvariants:
    """Solve B_mu = Exp(Omega / (L-1)) for the invariants Omega."""
    om = pleth_log(B_mu) * (L - ONE)
    return DTInvariants({k.unframed: c for k, c in om.terms()}, B_mu.trunc)


def euler_transfer(omega: DTInvariants, fq: FramedQuiver) -> TorusSeries:
    """Euler-number limit of the transfer series.

    Builds Exp(sum nu(alpha) om_alpha x^alpha) from the specialized
    invariants, then flips the sign of every term with odd nu(alpha).
    """
    base: dict = {}
    for k, c in omega.omega.items():
        e = c.specialize("euler")
        n = nu(fq, k)
        if n and e:
            base[ext(k)] = Scalar.of(n * e)
    g = pleth_exp(TorusSeries(fq, omega.trunc, base))

    def sign(key, c):
        return -c if nu(fq, key.unframed) % 2 else c

    return g.map_coeffs(sign)
