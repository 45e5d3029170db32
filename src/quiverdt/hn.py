"""Universal series B_U and its Harder-Narasimhan factorization.

B_U collects the motives of all representations (trivial stability); for a
weight vector theta it factors uniquely as the ordered product of slope
pieces B_mu, decreasing slope left to right.  The factorization is computed
by the standard recursion over first HN pieces and certified by
remultiply_check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .qtorus import TorusSeries, pleth_exp, torus_mul, torus_product
from .quiver import (ExtDimVector, FramedQuiver, check_builtin_shape,
                     dim_vectors_up_to, ext, skew_form, sub_vectors, tits_form)
from .scalar import ONE, L, Scalar, _acc_term, _settle
from .stability import theta_slope

SOURCES = ("trivial_potential", "builtin_c3", "builtin_conifold", "user_supplied")


@dataclass(frozen=True)
class UniversalSeries:
    series: TorusSeries
    source: str = "user_supplied"
    # hn_factorize results by (theta as Fractions, N)
    _hn: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if any(k.star for k in self.series.coeffs):
            raise ValueError("universal series must be star-0")
        if self.series.constant_term() != ONE:
            raise ValueError("universal series needs constant term 1")


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
        a = ext(alpha, 0)
        chi = tits_form(fq, a)
        arrow_dim = sum(m * alpha[i] * alpha[j]
                        for i, row in enumerate(arrows)
                        for j, m in enumerate(row) if m)
        denom = ONE
        for ai in alpha:
            denom = denom * gl_motive(ai)
        coeffs[a] = Scalar.neg_v_pow(chi) * (L ** arrow_dim) / denom
    return UniversalSeries(TorusSeries(fq, N, coeffs), "trivial_potential")


def builtin_BU(fq: FramedQuiver, name: str, N: int) -> UniversalSeries:
    """The closed-form universal series of the two stock potentials."""
    check_builtin_shape(fq, name)
    if name == "c3":
        lm1 = L - 1
        arg = TorusSeries(fq, N, {ext((n,)): (L * L) / lm1 for n in range(1, N + 1)})
        return UniversalSeries(pleth_exp(arg), "builtin_c3")
    if name == "conifold":
        lm1 = L - 1
        head = TorusSeries(fq, N, {
            ext((1, 1)): (L + L * L) / lm1,
            ext((1, 0)): -Scalar.v_pow(1) / lm1,
            ext((0, 1)): -Scalar.v_pow(1) / lm1,
        })
        diag = TorusSeries(fq, N, {ext((n, n)): ONE for n in range(N // 2 + 1)})
        return UniversalSeries(pleth_exp(torus_mul(head, diag)), "builtin_conifold")
    raise ValueError(f"no builtin series named {name!r}")


def universal_for(fq: FramedQuiver, N: int) -> UniversalSeries:
    """B_U as declared by the quiver's bu_source field."""
    if fq.bu_source == "trivial_potential":
        return universal_trivial(fq, N)
    return builtin_BU(fq, fq.bu_source, N)


def hn_factorize(BU: UniversalSeries, theta, N: int) -> dict:
    """Split B_U into slope pieces: {mu: B_mu}, constant terms 1.

    Recursion: the coefficient of B at alpha is the B_U coefficient minus the
    contributions of all HN chains alpha = a_1 + ... + a_k with k >= 2 and
    strictly decreasing slopes, each chain twisted by (-v)^{sum_{i<j} <a_i, a_j>}.
    Each (theta, N) is split once per UniversalSeries; every call returns a
    new dict.
    """
    if N > BU.series.trunc:
        raise ValueError("N exceeds the series truncation")
    theta = tuple(Fraction(t) for t in theta)
    parts = BU._hn.get((theta, N))
    if parts is None:
        parts = BU._hn[(theta, N)] = _hn_split(BU.series, theta, N)
    return dict(parts)


def _hn_split(series: TorusSeries, theta: tuple, N: int) -> dict:
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
        parts.setdefault(slope[alpha], {})[ext(alpha)] = coeff
    out = {}
    for mu in sorted(parts):
        terms = parts[mu]
        terms[ext((0,) * n)] = ONE
        out[mu] = TorusSeries(fq, N, terms)
    return out


def remultiply_check(parts: dict, BU: UniversalSeries) -> bool:
    """Re-multiply the slope pieces (decreasing slope) and compare with B_U."""
    series = BU.series
    fq, N = series.fq, series.trunc
    prod = torus_product(fq, N, (parts[mu].retrunc(N) if parts[mu].trunc != N else parts[mu]
                                 for mu in sorted(parts, reverse=True)))
    return prod == series
