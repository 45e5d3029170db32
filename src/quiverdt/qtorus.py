"""Truncated quantum torus over Q(v).

Series are finitely supported maps (alpha, star) -> Scalar with the twisted
product x^a x^b = (-v)^{<a,b>} x^{a+b}.  The truncation keeps unframed total
degree <= N and star <= 1; everything discarded forms a two-sided monomial
ideal, so the truncated algebra is an honest quotient and associativity,
Adams operations and Exp/Log identities survive truncation exactly.

Each output coefficient is formed once.  The term products that land on a
key are summed unreduced, grouped by denominator, and each group is reduced
once (scalar._acc_term, scalar._settle).  The grade of a key is
|alpha| + star; products add grades, so the inverse and Exp/Log are solved
grade by grade:
  torus_inverse  g_d = -c0^{-1} sum_{e=1..d} f_e g_{d-e}
  pleth_exp      d g_d = sum_{k=1..d} k T_k g_{d-k},  T = sum_n psi_n(f)/n
  pleth_log      d l_d = d g_d - sum_{k=1..d-1} k l_k g_{d-k},
                 then Log g = sum_n mu(n)/n psi_n(l)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .quiver import (ExtDimVector, FramedQuiver, Record, ext, nu, skew_form,
                     zero_vector)
from .scalar import ONE, Scalar, _acc_term, _settle
from .stability import theta_slope

Key = ExtDimVector


def _zero_key(fq: FramedQuiver) -> Key:
    return ExtDimVector(zero_vector(fq.n_vertices), 0)


class TorusSeries(Record):
    """A truncated series: fq fixes the skew form, trunc the region."""

    __slots__ = ("fq", "trunc", "coeffs")

    def __init__(self, fq: FramedQuiver, trunc: int, coeffs: Mapping[Key, Scalar]):
        clean = {}
        for key, c in coeffs.items():
            key = ExtDimVector(tuple(key[0]), key[1])
            if not _in_region(key, trunc):
                continue
            if c:
                clean[key] = c
        self._set(fq=fq, trunc=trunc, coeffs=clean)

    @classmethod
    def zero(cls, fq: FramedQuiver, trunc: int) -> "TorusSeries":
        return cls(fq, trunc, {})

    @classmethod
    def one(cls, fq: FramedQuiver, trunc: int) -> "TorusSeries":
        return cls(fq, trunc, {_zero_key(fq): ONE})

    @classmethod
    def monomial(cls, fq, trunc, alpha, star=0, coeff=ONE) -> "TorusSeries":
        return cls(fq, trunc, {ext(alpha, star): coeff})

    def coeff(self, alpha, star: int = 0) -> Scalar:
        return self.coeffs.get(ExtDimVector(tuple(alpha), star), Scalar.of(0))

    def constant_term(self) -> Scalar:
        return self.coeffs.get(_zero_key(self.fq), Scalar.of(0))

    def terms(self):
        """(key, coeff) pairs sorted lexicographically by (alpha, star)."""
        return sorted(self.coeffs.items())

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def restrict(self, keep) -> "TorusSeries":
        return TorusSeries(self.fq, self.trunc,
                           {k: c for k, c in self.coeffs.items() if keep(k)})

    def retrunc(self, n: int) -> "TorusSeries":
        """The same series in a smaller region."""
        if n > self.trunc:
            raise ValueError("cannot grow the truncation region")
        return TorusSeries(self.fq, n, dict(self.coeffs))

    def map_coeffs(self, f) -> "TorusSeries":
        return TorusSeries(self.fq, self.trunc,
                           {k: f(k, c) for k, c in self.coeffs.items()})

    def __add__(self, other):
        other = _lift(other, self)
        _check(self, other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Scalar.of(0)) + c
        return TorusSeries(self.fq, self.trunc, out)

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(lambda k, c: -c)

    def __sub__(self, other):
        return self + (-_lift(other, self))

    def __rsub__(self, other):
        return _lift(other, self) + (-self)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            s = other if isinstance(other, Scalar) else Scalar.of(other)
            return self.map_coeffs(lambda k, c: c * s)
        return torus_mul(self, _lift(other, self))

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.__mul__(other)
        return torus_mul(_lift(other, self), self)

    def __eq__(self, other):
        if not isinstance(other, TorusSeries):
            return NotImplemented
        return (self.fq, self.trunc, dict(self.coeffs)) == \
               (other.fq, other.trunc, dict(other.coeffs))

    def __repr__(self):
        body = ", ".join(f"{k.unframed}{'*' if k.star else ''}: {c}"
                         for k, c in self.terms())
        return f"TorusSeries(N={self.trunc}, {{{body}}})"


def _in_region(key: Key, trunc: int) -> bool:
    return key.star in (0, 1) and sum(key.unframed) <= trunc


def _check(f: TorusSeries, g: TorusSeries) -> None:
    if f.fq != g.fq or f.trunc != g.trunc:
        raise ValueError("series live on different tori")


def _lift(x, like: TorusSeries) -> TorusSeries:
    if isinstance(x, TorusSeries):
        return x
    if isinstance(x, (int, Fraction, Scalar)):
        s = x if isinstance(x, Scalar) else Scalar.of(x)
        return TorusSeries(like.fq, like.trunc, {_zero_key(like.fq): s})
    raise TypeError(f"cannot treat {type(x).__name__} as a series")


def _grades(coeffs: Mapping) -> dict:
    """{grade: [(key, coeff)]} over the nonzero coefficients; grade = |alpha| + star."""
    out: dict = {}
    for k, c in coeffs.items():
        if c:
            out.setdefault(sum(k.unframed) + k.star, []).append((k, c))
    return out


def _mul_into(fq: FramedQuiver, trunc: int, acc: dict, left, right) -> None:
    """Add the twisted product of two (key, coeff) lists to acc, unreduced.

    acc maps each key to a {denominator: numerator sum} dict for
    scalar._settle.  Products with star >= 2 or total degree > trunc drop.
    The skew form comes from one row per left key a:
    <a, b> = sum_j r_j b_j + b* nu(a), r_j = sum_i (m_ji - m_ij) a_i - a* w_j.
    """
    m, w = fq.base.arrows, fq.w
    for ka, ca in left:
        a = ka.unframed
        row = [sum((mj[i] - m[i][j]) * x for i, x in enumerate(a)) - ka.star * w[j]
               for j, mj in enumerate(m)]
        nu_a = nu(fq, a)
        for kb, cb in right:
            star = ka.star + kb.star
            if star > 1:
                continue
            b = kb.unframed
            alpha = tuple(x + y for x, y in zip(a, b))
            if sum(alpha) > trunc:
                continue
            skew = sum(r * y for r, y in zip(row, b)) + kb.star * nu_a
            _acc_term(acc.setdefault(ExtDimVector(alpha, star), {}), ca, cb, skew)


def _settled(acc: dict, div: int = 1) -> dict:
    return {k: _settle(parts, div) for k, parts in acc.items()}


def _adams_into(acc: dict, trunc: int, key: Key, c: Scalar, weight) -> None:
    """Add weight(n) psi_n(c) at n*key to acc for each n keeping n*key in the region."""
    n = 1
    while True:
        nkey = ExtDimVector(tuple(n * a for a in key.unframed), n * key.star)
        if not _in_region(nkey, trunc):
            return
        w = weight(n)
        if w:
            _acc_term(acc.setdefault(nkey, {}), c.adams(n), Scalar.of(w), 0)
        n += 1


def torus_mul(f: TorusSeries, g: TorusSeries) -> TorusSeries:
    """Twisted product; out-of-region keys (and star >= 2) are dropped."""
    _check(f, g)
    acc: dict = {}
    _mul_into(f.fq, f.trunc, acc, list(f.coeffs.items()), list(g.coeffs.items()))
    return TorusSeries(f.fq, f.trunc, _settled(acc))


def torus_product(fq: FramedQuiver, trunc: int, factors) -> TorusSeries:
    """The product of factors, left to right, from the first factor: k - 1
    products for k factors, and one when there is none."""
    out = None
    for f in factors:
        out = f if out is None else torus_mul(out, f)
    return TorusSeries.one(fq, trunc) if out is None else out


def torus_inverse(f: TorusSeries) -> TorusSeries:
    """Two-sided inverse; needs a nonzero constant term c0.

    Degree by degree, g_d = -c0^{-1} sum_{e=1..d} f_e g_{d-e} with f_e the
    grade-e part of f (grade |alpha| + star), f kept on the left.
    """
    c0 = f.constant_term()
    if not c0:
        raise ValueError("not invertible")
    fq, trunc = f.fq, f.trunc
    parts = _grades(f.coeffs)
    inv0 = c0.inverse()
    g = {0: [(_zero_key(fq), inv0)]}
    for d in range(1, trunc + 2):
        acc: dict = {}
        for e in range(1, d + 1):
            _mul_into(fq, trunc, acc, parts.get(e, ()), g[d - e])
        g[d] = [(k, -c if c0 == ONE else -(inv0 * c))
                for k, c in _settled(acc).items() if c]
    return TorusSeries(fq, trunc, {k: c for row in g.values() for k, c in row})


def s_twist(f: TorusSeries, lam) -> TorusSeries:
    """S_lam: multiply the coefficient at (alpha, star) by (-v)^{lam(alpha, star)}.

    lam is (weights over Q_0, star weight), all integers.
    """
    weights, star_w = tuple(lam[0]), int(lam[1])

    def scale(key, c):
        e = sum(w * a for w, a in zip(weights, key.unframed)) + star_w * key.star
        return c * Scalar.neg_v_pow(e) if e else c

    return f.map_coeffs(scale)


def nu_weights(fq: FramedQuiver, scale: int = 1):
    """The linear map scale * nu as an s_twist weight pair (star weight 0)."""
    return tuple(scale * wi for wi in fq.w), 0


def adams_series(f: TorusSeries, n: int) -> TorusSeries:
    """psi_n: a x^alpha -> psi_n(a) x^{n alpha}; out-of-region images drop."""
    if n < 1:
        raise ValueError("adams operation needs n >= 1")
    if n == 1:
        return f
    out: dict = {}
    for k, c in f.coeffs.items():
        key = ExtDimVector(tuple(n * a for a in k.unframed), n * k.star)
        if key.star > 1 or sum(key.unframed) > f.trunc:
            continue
        out[key] = out.get(key, Scalar.of(0)) + c.adams(n)
    return TorusSeries(f.fq, f.trunc, out)


def _check_commuting(f: TorusSeries) -> None:
    keys = list(f.coeffs)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            if skew_form(f.fq, a, b):
                raise ValueError("Exp undefined on non-commutative support")


def pleth_exp(f: TorusSeries) -> TorusSeries:
    """Exp(f) = exp(T), T = sum_n psi_n(f)/n, on commuting support with no constant term.

    With T_k the grade-k part of T, g = exp(T) solves
    d g_d = sum_{k=1..d} k T_k g_{d-k}, g_0 = 1 (apply the derivation
    x^a -> grade(a) x^a to g).  psi_n(c) x^{n a} enters k T_k with weight
    k/n = grade(a).
    """
    if f.constant_term():
        raise ValueError("Exp needs zero constant term")
    _check_commuting(f)
    fq, trunc = f.fq, f.trunc
    kt: dict = {}
    for key, c in f.coeffs.items():
        e = sum(key.unframed) + key.star
        _adams_into(kt, trunc, key, c, lambda n: e)
    kt = _grades(_settled(kt))
    g = {0: [(_zero_key(fq), ONE)]}
    for d in range(1, trunc + 2):
        acc: dict = {}
        for k in range(1, d + 1):
            _mul_into(fq, trunc, acc, kt.get(k, ()), g[d - k])
        g[d] = [(key, c) for key, c in _settled(acc, d).items() if c]
    return TorusSeries(fq, trunc, {k: c for row in g.values() for k, c in row})


def _mobius(n: int) -> int:
    val, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            val = -val
        p += 1
    if m > 1:
        val = -val
    return val


def pleth_log(g: TorusSeries) -> TorusSeries:
    """Inverse of pleth_exp via Moebius inversion of the formal logarithm.

    The logarithm l = log g comes degree by degree from
    d l_d = d g_d - sum_{k=1..d-1} k l_k g_{d-k} (g_d the grade-d part,
    g_0 = 1); then Log(g) = sum_n mu(n)/n psi_n(l).
    """
    if g.constant_term() != ONE:
        raise ValueError("Log needs constant term 1")
    _check_commuting(g)
    fq, trunc = g.fq, g.trunc
    parts = _grades(g.coeffs)
    neg_kl: dict = {}  # k -> [(key, -k l_k)]
    out: dict = {}
    for d in range(1, trunc + 2):
        acc: dict = {}
        for key, c in parts.get(d, ()):
            _acc_term(acc.setdefault(key, {}), c, Scalar.of(d), 0)
        for k in range(1, d):
            _mul_into(fq, trunc, acc, neg_kl[k], parts.get(d - k, ()))
        row = [(key, c) for key, c in _settled(acc).items() if c]
        neg_kl[d] = [(key, -c) for key, c in row]
        for key, c in row:
            _adams_into(out, trunc, key, c, lambda n: Fraction(_mobius(n), n * d))
    return TorusSeries(fq, trunc, _settled(out))


def slope_of(theta, c, key: Key) -> Fraction:
    """mu_c(alpha, star) = (theta.alpha + c star) / (|alpha| + star)."""
    if sum(key.unframed) + key.star == 0:
        raise ValueError("slope of the zero class")
    return theta_slope(theta, key.unframed, Fraction(c) if key.star else None)


def truncate_tau(f: TorusSeries, theta, c, mu) -> TorusSeries:
    """Keep exactly the star-0 terms whose framed slope mu_c(alpha, 1) is mu."""
    if any(k.star for k in f.coeffs):
        raise ValueError("tau expects a star-0 series")
    if mu == float("inf"):
        # r(alpha, 1) > 0 always, so no finite class ever has infinite slope
        return TorusSeries.zero(f.fq, f.trunc)
    mu, c = Fraction(mu), Fraction(c)
    return f.restrict(lambda key: theta_slope(theta, key.unframed, c) == mu)


def serialize(f: TorusSeries) -> str:
    lines = []
    for key, c in f.terms():
        alpha = ",".join(str(a) for a in key.unframed)
        lines.append(f"alpha={alpha};star={key.star};coeff={c}")
    return "\n".join(lines)
