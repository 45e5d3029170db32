"""Universal series B_U and its Harder-Narasimhan factorization.

B_U collects the motives of all representations (trivial stability); for a
weight vector theta it factors uniquely as the ordered product of slope
pieces B_mu, decreasing slope left to right.  The factorization peels the
top slope off one rest at a time, by one left quotient each, leaving the
ladder of partial products, which other modules read through ladder_at.
"""

from fractions import Fraction
from functools import cache, partial

from .qtorus import TorusSeries, pleth_exp, torus_div
from .quiver import FramedQuiver, Record, dim_vectors_up_to
from .scalar import ONE, L, Scalar
from .stability import MINUS_INF, PLUS_INF, check_theta, theta_slope


class UniversalSeries(Record):
    __slots__ = ("series", "_hn")
    _hidden = ("_hn",)  # slope ladders by theta as Fractions

    def __init__(self, series: TorusSeries):
        if series.constant_term() != ONE:
            raise ValueError("universal series needs constant term 1")
        self._set(series=series, _hn={})


@cache
def gl_motive(n: int) -> Scalar:
    """[GL_n] = prod_{k<n} (L^n - L^k)."""
    out = ONE
    ln = L ** n
    for k in range(n):
        out = out * (ln - L ** k)
    return out


def universal_trivial(fq: FramedQuiver, N: int) -> UniversalSeries:
    """B_U for the trivial potential: all representations, no stability.

    Coefficient at alpha: (-v)^{chi(alpha,alpha)} L^{sum m_ij a_i a_j} / [GL_alpha],
    which is (-v)^{sum a_i^2 + sum m_ij a_i a_j} / [GL_alpha] as L = (-v)^2.
    """
    arrows = fq.base.arrows
    coeffs = {}
    for alpha in dim_vectors_up_to(fq.n_vertices, N):
        power = sum(a * a for a in alpha) + sum(
            m * alpha[i] * alpha[j] for i, row in enumerate(arrows) for j, m in enumerate(row))
        denom = ONE
        for ai in alpha:
            denom = denom * gl_motive(ai)
        coeffs[alpha] = Scalar.neg_v_pow(power) / denom
    return UniversalSeries(TorusSeries(fq, N, coeffs))


# Omega_alpha, the motivic DT invariants of the stock potentials, by the spread
# max(alpha) - min(alpha) of a nonzero class (0 off the table).  c3: Omega_n = L^2
# (Behrend-Bryan-Szendroi, arXiv:0909.5088); conifold: Omega_(n,n) = L + L^2 and
# Omega_(n+1,n) = Omega_(n,n+1) = -v (Morrison-Mozgovoy-Nagao-Szendroi, arXiv:1107.5017).
_OMEGA = {"c3": {0: L * L}, "conifold": {0: L + L * L, 1: -Scalar.v_pow(1)}}


def universal_for(fq: FramedQuiver, N: int) -> UniversalSeries:
    """B_U as declared by the quiver's bu_source field: the closed form of
    the trivial potential, or Exp(Omega/(L - 1)) of a stock potential."""
    if fq.bu_source == "trivial_potential":
        return universal_trivial(fq, N)
    over = {k: om / (L - 1) for k, om in _OMEGA[fq.bu_source].items()}
    arg = {alpha: over[max(alpha) - min(alpha)]
           for alpha in dim_vectors_up_to(fq.n_vertices, N)
           if any(alpha) and max(alpha) - min(alpha) in over}
    return UniversalSeries(pleth_exp(TorusSeries(fq, N, arg)))


def slope_ladder(BU: UniversalSeries, theta) -> tuple:
    """The HN split of B_U as a ladder ((mu, B_mu, P_<mu), ...), mu decreasing.

    P_<mu is the decreasing-slope product of the pieces below mu, so the rest
    one rung up (B_U above the top rung) is B_mu . P_<mu, and the last rest
    is 1.  Each theta is split once per UniversalSeries, in B_U's region.
    """
    theta = check_theta(BU.series.fq, theta)
    ladder = BU._hn.get(theta)
    if ladder is None:
        ladder = BU._hn[theta] = _hn_split(BU.series, theta)
    return ladder


def ladder_at(BU: UniversalSeries, theta, a) -> tuple:
    """(P_<=a, B_a, P_<a): the decreasing products of the pieces of slope at
    most a and below a, and the piece B_a (1 off the rungs), so that
    P_<=a = B_a . P_<a.  a = +inf gives (B_U, 1, B_U) and a = -inf gives
    (1, 1, 1); neither splits B_U."""
    fq = BU.series.fq
    one = TorusSeries.one(fq, BU.series.trunc)
    if a in (PLUS_INF, MINUS_INF):
        check_theta(fq, theta)
        top = one if a == MINUS_INF else BU.series
        return top, one, top
    ladder, a = slope_ladder(BU, theta), Fraction(a)
    upto = below = BU.series
    piece = one
    for mu, B, rest in ladder:
        if mu < a:
            break
        upto, piece, below = (rest, piece, rest) if mu > a else (upto, B, rest)
    return upto, piece, below


def hn_factorize(BU: UniversalSeries, theta) -> dict:
    """Split B_U into slope pieces: a new dict {mu: B_mu}, mu increasing,
    constant terms 1, read off slope_ladder."""
    return {mu: piece for mu, piece, _ in reversed(slope_ladder(BU, theta))}


def _hn_split(series: TorusSeries, theta: tuple) -> tuple:
    # A product of classes of slope <= mu has slope mu only when every factor
    # has, so the top piece of a rest is the rest cut to its top slope (and
    # the constant 1), and the rest below it is piece^{-1} . rest, one left solve.
    slope = cache(partial(theta_slope, theta))  # once per class
    rest, one = series, TorusSeries.one(series.fq, series.trunc)
    ladder = []
    while len(rest.coeffs) > 1:  # the constant term is 1 throughout
        top = max(slope(k) for k in rest.coeffs if any(k))
        piece = rest.restrict(lambda k: not any(k) or slope(k) == top)
        rest = one if len(piece.coeffs) == len(rest.coeffs) else \
            torus_div(rest, piece, left=True)
        ladder.append((top, piece, rest))
    return tuple(ladder)
