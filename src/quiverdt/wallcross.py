"""Framed wall-crossing engine.

Everything framed is stored star-0: the framing coordinate and its
automorphism factor are stripped once and for all, so a framed series lives
in the same torus as B_U (keys are dimension vectors) and the wall-crossing
identities read as products of ordinary series twisted by S_nu, the one
place the framing enters.  Every function reads the quiver, its framing and
the truncation off the series it is given (B_U's for a UniversalSeries),
and B_U's slope factors off hn.ladder_at.  One product form,
S_nu(P) . S_{-nu}(Q)^{-1} (_crossing), gives the transfer series C_mu,
framed series A at any level, both infinities too, the same series carried
across its wall (general_wallcross) and, twisted by S_nu, the
cyclic-stability series and smooth-model motives; dt_omega gives the series
Omega of DT invariants.
"""

from functools import cache, partial

from .hn import UniversalSeries, ladder_at
from .quiver import Record, is_symmetric, nu, tits_form
from .qtorus import (TorusSeries, nu_weights, pleth_exp, pleth_log, s_twist,
                     torus_div, torus_mul)
from .scalar import L, ONE, Scalar
from .stability import StabilityParams, _exact, check_alpha, check_theta, theta_slope

L_MINUS_1 = L - ONE


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


def transfer_series(B_mu: TorusSeries) -> TorusSeries:
    """C_mu = S_nu(B_mu) . S_{-nu}(B_mu)^{-1}, one slope's crossing factor."""
    if not is_symmetric(B_mu.fq):
        m = B_mu.fq.base.arrows
        i, j = next((i, j) for i, row in enumerate(m) for j in range(i) if row[j] != m[j][i])
        raise ValueError(f"transfer series needs a symmetric quiver, but {m[j][i]} arrows "
                         f"go {j} -> {i} and {m[i][j]} go {i} -> {j}: use general_wallcross")
    if B_mu.constant_term() != ONE:
        raise ValueError("transfer series needs constant term 1")
    return _crossing(B_mu, B_mu)


def general_wallcross(a_in: FramedSeries, BU: UniversalSeries, side: str) -> FramedSeries:
    """Carry a_in from its own side of its wall onto `side`, no symmetry assumed.

    Governing identity: A_exact = S_nu(B) . A_minus = A_plus . S_{-nu}(B),
    with B = B_mu the slope factor of B_U at the wall's slope mu = a_in.mu.
    The output lies on the same slope class as a_in, so crossing framed_at's
    series gives framed_at's series on `side`.
    """
    params = StabilityParams(a_in.params.theta, a_in.params.c, side)
    src, out = a_in.params.side, a_in.series
    # A_side = S_nu(B)^{-[side = minus]} . A_exact . S_{-nu}(B)^{-[side = plus]}
    left = (src == "minus") - (side == "minus")
    right = (src == "plus") - (side == "plus")
    if left or right:
        if a_in.mu is None:
            raise ValueError("crossing a wall needs a_in's slope class mu")
        _, B, _ = ladder_at(BU, params.theta, a_in.mu)
        if left:
            snu_b = s_twist(B, nu_weights(out.fq, 1))
            out = torus_mul(snu_b, out) if left > 0 else torus_div(out, snu_b, left=True)
        if right:
            sdn_b = s_twist(B, nu_weights(out.fq, -1))
            out = torus_mul(out, sdn_b) if right > 0 else torus_div(out, sdn_b)
        out = _on_slope_class(out, partial(theta_slope, params.theta, c=params.c), a_in.mu)
    return FramedSeries(out, params, a_in.mu)


def _on_slope_class(ser: TorusSeries, slope, mu) -> TorusSeries:
    """ser on the classes alpha with slope(alpha) == mu, the framed slope
    class; the bare framing line 1 when none is left."""
    ser = ser.restrict(lambda k: slope(k) == mu)
    return TorusSeries.one(ser.fq, ser.trunc) if ser.is_zero() else ser


def _uniform(BU, theta, a, side, keep=None) -> TorusSeries:
    """The one-parameter framed series A^a assembled from slope factors.

    A^a = S_nu(P_{<=a}) . S_{-nu}(P_{<a})^{-1} where P is the
    decreasing-order product of the slope factors of B_U, both read off the
    slope ladder by ladder_at; side plus uses the upper product on both
    sides, side minus the lower one.  keep goes to the solve (_crossing).
    """
    upto, _, below = ladder_at(BU, theta, a)
    return _crossing(below if side == "minus" else upto,
                     upto if side == "plus" else below, keep)


def framed_at(BU: UniversalSeries, theta, c, side: str = "exact", mu=None) -> FramedSeries:
    """The framed series A at level c (or c plus/minus) and slope mu.

    Finite c gives the uniform series at a = mu on the mu slope class, the
    classes alpha whose framed slope (theta.alpha + c)/(|alpha| + 1) is mu;
    c = +inf or -inf gives the uniform series there, the full cyclic series
    above all walls and the bare framing line below them.
    """
    params = StabilityParams(theta, c, side)
    if not params.is_finite():
        return FramedSeries(_uniform(BU, theta, params.c, side), params, None)
    if mu is None:
        raise ValueError("finite c needs a slope mu")
    mu = _exact(mu, "slope mu")
    slope = cache(partial(theta_slope, params.theta, c=params.c))  # once per class
    # The divisor P_{<=mu} or P_{<mu} has classes of slope <= mu only, and
    # removing one never lowers a framed slope below mu, so the solve on the
    # classes of framed slope >= mu reads nothing else: only they are formed.
    ser = _uniform(BU, theta, mu, side, lambda k: slope(k) >= mu)
    return FramedSeries(_on_slope_class(ser, slope, mu), params, mu)


def ncdt(BU: UniversalSeries) -> TorusSeries:
    """The cyclic-stability series S_{2nu}(B_U) . B_U^{-1}, which is
    S_nu(A^{+inf}) since S_nu is an algebra automorphism."""
    B = BU.series
    return s_twist(_crossing(B, B), nu_weights(B.fq, 1))


def smooth_model_series(BU: UniversalSeries, theta, mu) -> TorusSeries:
    """Generating series of smooth-model motives on one slope class, each
    [M] / (L-1) with its (-v)^T twist: (1/(L-1)) S_{2nu}(B_mu) . B_mu^{-1},
    formed as S_nu of the crossing form."""
    _, B, _ = ladder_at(BU, theta, mu)
    return s_twist(_crossing(B, B), nu_weights(B.fq, 1)).map_coeffs(lambda k, c: c / L_MINUS_1)


def smooth_model_motive(BU: UniversalSeries, theta, alpha) -> Scalar:
    """The motive [M] of the stable framed moduli space at alpha: the
    series coefficient times (L-1), so L+1 for the Kronecker class (1, 1).

    The slope is the one alpha itself determines; the quadratic-form twist
    (-v)^{T(alpha)} recorded in the series is stripped.
    """
    fq = BU.series.fq
    alpha = check_alpha(fq, alpha)
    if sum(alpha) == 0:
        raise ValueError("the zero class has no smooth model")
    if sum(alpha) > BU.series.trunc:
        raise ValueError(f"class {alpha} has degree {sum(alpha)}, above the series "
                         f"truncation {BU.series.trunc}")
    theta = check_theta(fq, theta)
    mu = theta_slope(theta, alpha)
    series = smooth_model_series(BU, theta, mu)
    bare = series.coeff(alpha) * L_MINUS_1
    return bare.times_neg_v_pow(-tits_form(fq, alpha))


def dt_omega(B_mu: TorusSeries) -> TorusSeries:
    """The series Omega of invariants with B_mu = Exp(Omega / (L-1))."""
    return pleth_log(B_mu).map_coeffs(lambda k, c: c * L_MINUS_1)


def euler_transfer(omega: TorusSeries) -> TorusSeries:
    """Euler-number limit of the transfer series.

    Builds Exp(sum nu(alpha) om_alpha x^alpha) from the specialized
    invariants, then flips the sign of every term with odd nu(alpha).
    """
    fq = omega.fq
    base: dict = {}
    for k, c in omega.coeffs.items():
        e = c.specialize()
        n = nu(fq, k)
        if n and e:
            base[k] = Scalar.of(n * e)
    g = pleth_exp(TorusSeries(fq, omega.trunc, base))

    def sign(key, c):
        return -c if nu(fq, key) % 2 else c

    return g.map_coeffs(sign)
