"""Universal series B_U and its Harder-Narasimhan factorization.

B_U collects the motives of all representations (trivial stability); for a
weight vector theta it factors uniquely as the ordered product of slope
pieces B_mu, decreasing slope left to right.  The factorization peels the
top slope off one rest at a time, by one left quotient each, leaving the
ladder of partial products the framed series are read from.
"""

from __future__ import annotations

from functools import cache, partial

from .qtorus import TorusSeries, pleth_exp, torus_div, torus_mul
from .quiver import (BUILTIN_SOURCES, FramedQuiver, Record, dim_vectors_up_to, ext,
                     tits_form)
from .scalar import ONE, L, Scalar
from .stability import check_theta, theta_slope

SOURCES = BUILTIN_SOURCES + ("user_supplied",)


class UniversalSeries(Record):
    __slots__ = ("series", "source", "_hn")
    _hidden = ("_hn",)  # slope ladders by (theta as Fractions, N)

    def __init__(self, series: TorusSeries, source: str = "user_supplied"):
        if source not in SOURCES:
            raise ValueError(f"unknown source {source!r}")
        if series.constant_term() != ONE:
            raise ValueError("universal series needs constant term 1")
        self._set(series=series, source=source, _hn={})


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

    Coefficient at alpha: (-v)^{chi(alpha,alpha)} L^{sum m_ij a_i a_j} / [GL_alpha].
    """
    arrows = fq.base.arrows
    coeffs = {}
    for alpha in dim_vectors_up_to(fq.n_vertices, N):
        chi = tits_form(fq, ext(alpha, 0))
        arrow_dim = sum(m * alpha[i] * alpha[j]
                        for i, row in enumerate(arrows)
                        for j, m in enumerate(row) if m)
        denom = ONE
        for ai in alpha:
            denom = denom * gl_motive(ai)
        # (-v)^chi L^arrow_dim = (-v)^(chi + 2 arrow_dim), one monomial
        coeffs[alpha] = Scalar.neg_v_pow(chi + 2 * arrow_dim) / denom
    return UniversalSeries(TorusSeries(fq, N, coeffs), "trivial_potential")


def universal_for(fq: FramedQuiver, N: int) -> UniversalSeries:
    """B_U as declared by the quiver's bu_source field: the closed form of
    the trivial potential, or that of one of the two stock potentials."""
    name = fq.bu_source
    if name == "trivial_potential":
        return universal_trivial(fq, N)
    lm1 = L - 1
    if name == "c3":
        arg = TorusSeries(fq, N, {(n,): (L * L) / lm1 for n in range(1, N + 1)})
        return UniversalSeries(pleth_exp(arg), name)
    head = TorusSeries(fq, N, {  # the conifold
        (1, 1): (L + L * L) / lm1,
        (1, 0): -Scalar.v_pow(1) / lm1,
        (0, 1): -Scalar.v_pow(1) / lm1,
    })
    diag = TorusSeries(fq, N, {(n, n): ONE for n in range(N // 2 + 1)})
    return UniversalSeries(pleth_exp(torus_mul(head, diag)), name)


def slope_ladder(BU: UniversalSeries, theta, N: int) -> tuple:
    """The HN split of B_U as a ladder ((mu, B_mu, P_<mu), ...), mu decreasing.

    P_<mu is the decreasing-slope product of the pieces below mu, so the rest
    one rung up (B_U above the top rung) is B_mu . P_<mu, and the last rest
    is 1.  Each (theta, N) is split once per UniversalSeries.
    """
    if N > BU.series.trunc:
        raise ValueError("N exceeds the series truncation")
    theta = check_theta(BU.series.fq, theta)
    ladder = BU._hn.get((theta, N))
    if ladder is None:
        ladder = BU._hn[(theta, N)] = _hn_split(BU.series, theta, N)
    return ladder


def hn_factorize(BU: UniversalSeries, theta, N: int) -> dict:
    """Split B_U into slope pieces: a new dict {mu: B_mu}, mu increasing,
    constant terms 1, read off slope_ladder."""
    return {mu: piece for mu, piece, _ in reversed(slope_ladder(BU, theta, N))}


def _hn_split(series: TorusSeries, theta: tuple, N: int) -> tuple:
    # A product of classes of slope <= mu has slope mu only when every factor
    # has, so the top piece of a rest is the rest cut to its top slope (and
    # the constant 1), and the rest below it is piece^{-1} . rest, one left solve.
    slope = cache(partial(theta_slope, theta))  # once per class
    rest, one = series.retrunc(N), TorusSeries.one(series.fq, N)
    ladder = []
    while len(rest.coeffs) > 1:  # the constant term is 1 throughout
        top = max(slope(k) for k in rest.coeffs if any(k))
        piece = rest.restrict(lambda k: not any(k) or slope(k) == top)
        rest = one if len(piece.coeffs) == len(rest.coeffs) else \
            torus_div(rest, piece, left=True)
        ladder.append((top, piece, rest))
    return tuple(ladder)

