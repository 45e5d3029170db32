"""Truncated quantum torus over Q(v).

Series are finitely supported maps alpha -> Scalar on dimension vectors
(int tuples) with the twisted product x^a x^b = (-v)^{<a,b>} x^{a+b}.  There
is no framing coordinate: framed series live here in star-0 normal form and
the framing enters only through the twist s_twist by nu_weights.  The
truncation keeps total degree <= N; everything discarded forms a two-sided
monomial ideal, so the truncated algebra is an honest quotient and
associativity, Adams operations and Exp/Log identities survive truncation
exactly.

Each output coefficient is formed once.  The term products that land on a
key are summed unreduced, grouped by denominator, and the groups are added
over one common denominator and reduced once (scalar._acc_term,
scalar._settle).  A factor with constant term 1 passes the other factor's
coefficients through exactly: a key that no other term product reaches
keeps its coefficient and is never reduced.  The grade of a key is
|alpha|; products add grades, so a quotient and Exp are solved grade
by grade, a quotient also on a set of keys only (a keep predicate closed
under removing the divisor's keys), and Log is a quotient:
  torus_div      f g^{-1} = y with y g = f, or g^{-1} f = y with g y = f:
                 y_d = (f_d - sum_{e=1..d} y_{d-e} g_e) g_0^{-1}, g_e on the
                 side of the product that g is on (g_0 is a scalar)
  pleth_exp      d g_d = sum_{k=1..d} k T_k g_{d-k},  T = sum_n psi_n(f)/n
  pleth_log      D l = D g . g^{-1}, one torus_div, D the derivation
                 x^a -> grade(a) x^a; then Log g = sum_n mu(n)/n psi_n(l)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .quiver import FramedQuiver, Record, zero_vector
from .scalar import ONE, Scalar, _acc_term, _settle
from .stability import check_alpha

MINUS_ONE = -ONE

Key = tuple  # a dimension vector


def _zero_key(fq: FramedQuiver) -> Key:
    return zero_vector(fq.n_vertices)


class TorusSeries(Record):
    """A truncated series: fq fixes the skew form, trunc the region."""

    __slots__ = ("fq", "trunc", "coeffs")

    def __init__(self, fq: FramedQuiver, trunc: int, coeffs: Mapping[Key, Scalar]):
        clean = {}
        n = fq.n_vertices
        for key, c in coeffs.items():
            key = tuple(key)
            if len(key) != n:
                raise ValueError(f"series key {key} must list one dimension per vertex: "
                                 f"got {len(key)} for {n} vertices")
            if sum(key) > trunc:
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
    def monomial(cls, fq, trunc, alpha, coeff=ONE) -> "TorusSeries":
        return cls(fq, trunc, {check_alpha(fq, alpha): coeff})

    def coeff(self, alpha) -> Scalar:
        return self.coeffs.get(tuple(alpha), Scalar.of(0))

    def constant_term(self) -> Scalar:
        return self.coeffs.get(_zero_key(self.fq), Scalar.of(0))

    def terms(self):
        """(alpha, coeff) pairs sorted lexicographically by alpha."""
        return sorted(self.coeffs.items())

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def restrict(self, keep) -> "TorusSeries":
        return TorusSeries(self.fq, self.trunc,
                           {k: c for k, c in self.coeffs.items() if keep(k)})

    def retrunc(self, n: int) -> "TorusSeries":
        """The same series in a smaller region (itself in the same one)."""
        if n == self.trunc:
            return self
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
        body = ", ".join(f"{k}: {c}" for k, c in self.terms())
        return f"TorusSeries(N={self.trunc}, {{{body}}})"


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
    """{grade: [(key, coeff)]} over the nonzero coefficients; grade = |alpha|."""
    out: dict = {}
    for k, c in coeffs.items():
        if c:
            out.setdefault(sum(k), []).append((k, c))
    return out


def _skew_row(m, a) -> list:
    """r with <a, b> = sum_j r_j b_j: r_j = sum_i (m_ji - m_ij) a_i."""
    return [sum((mj[i] - m[i][j]) * x for i, x in enumerate(a)) for j, mj in enumerate(m)]


def _mul_into(fq: FramedQuiver, trunc: int, acc: dict, left, right, keep=None) -> None:
    """Add the twisted product of two (key, coeff) lists to acc, unreduced.

    acc maps each key to a {denominator: numerator sum} dict for
    scalar._settle.  Products of total degree > trunc drop, and so do those
    whose key keep (when given) refuses.  The skew form comes from one row
    per left key (_skew_row).
    """
    m = fq.base.arrows
    for a, ca in left:
        row = _skew_row(m, a)
        for b, cb in right:
            key = tuple(x + y for x, y in zip(a, b))
            if sum(key) > trunc:
                continue
            if keep is not None and not keep(key):
                continue
            skew = sum(r * y for r, y in zip(row, b))
            _acc_term(acc.setdefault(key, {}), ca, cb, skew)


def _settled(acc: dict, div: int = 1) -> dict:
    return {k: _settle(parts, div) for k, parts in acc.items()}


def _adams_into(acc: dict, trunc: int, key: Key, c: Scalar, weight) -> None:
    """Add weight(n) psi_n(c) at n*key to acc for each n keeping n*key in the region."""
    n = 1
    while True:
        nkey = tuple(n * a for a in key)
        if sum(nkey) > trunc:
            return
        w = weight(n)
        if w:
            _acc_term(acc.setdefault(nkey, {}), c.adams(n), Scalar.of(w), 0)
        n += 1


def torus_mul(f: TorusSeries, g: TorusSeries) -> TorusSeries:
    """Twisted product; out-of-region keys are dropped."""
    _check(f, g)
    fq, zero = f.fq, _zero_key(f.fq)
    left, right, through = list(f.coeffs.items()), list(g.coeffs.items()), []
    # f . 1 = f and 1 . g = g: a unit constant term passes the other side through
    if g.coeffs.get(zero) == ONE:
        right = [(k, c) for k, c in right if k != zero]
        through += left
    if f.coeffs.get(zero) == ONE:
        left = [(k, c) for k, c in left if k != zero]
        through += right
    acc: dict = {}
    _mul_into(fq, f.trunc, acc, left, right)
    out = {}
    for k, c in through:
        if k in acc:
            _acc_term(acc[k], c, ONE, 0)
        elif k in out:  # a key of both sides, both passed through
            out[k] = out[k] + c
        else:
            out[k] = c
    out.update(_settled(acc))
    return TorusSeries(fq, f.trunc, out)


def torus_div(f: TorusSeries, g: TorusSeries, keep=None, left=False) -> TorusSeries:
    """f . g^{-1} by one solve of y . g = f, or g^{-1} . f by one solve of
    g . y = f when left is set; g needs a nonzero constant term g_0.

    Grade by grade (grade |alpha|),
    y_d = (f_d - sum_{e=1..d} y_{d-e} g_e) g_0^{-1}, each product taken with
    g_e on g's side; g_0 sits at the zero key and commutes with every term.
    A key of f_d that no product reaches passes through (times g_0^{-1}).
    With keep, only the keys it accepts are solved for.  That is exact on
    them when keep accepts k - e for every key k it accepts and every key e
    of g (with k - e in the region): y_k then reads only accepted keys.
    """
    _check(f, g)
    c0 = g.constant_term()
    if not c0:
        raise ValueError("not invertible")
    fq, trunc = f.fq, f.trunc
    fparts, gparts = _grades(f.coeffs), _grades(g.coeffs)
    inv0 = None if c0 == ONE else c0.inverse()
    y: dict = {}
    for d in range(trunc + 1):
        acc: dict = {}
        for e in range(1, d + 1):
            terms = (gparts.get(e, ()), y[d - e])  # g_e . y_{d-e}
            _mul_into(fq, trunc, acc, *(terms if left else terms[::-1]), keep)
        row = {}
        for k, c in fparts.get(d, ()):
            if keep is not None and not keep(k):
                continue
            if k in acc:
                _acc_term(acc[k], c, MINUS_ONE, 0)
            else:
                row[k] = c if inv0 is None else c * inv0
        for k, c in _settled(acc).items():  # acc = sum y g_e - f_d
            if c:
                row[k] = -c if inv0 is None else -(c * inv0)
        y[d] = list(row.items())
    return TorusSeries(fq, trunc, {k: c for row in y.values() for k, c in row})


def s_twist(f: TorusSeries, weights) -> TorusSeries:
    """S_lam: multiply the coefficient at alpha by (-v)^{lam(alpha)}, where
    lam(alpha) = sum_i weights_i alpha_i for integer weights over Q_0."""
    weights = tuple(weights)
    return f.map_coeffs(
        lambda key, c: c.times_neg_v_pow(sum(w * a for w, a in zip(weights, key))))


def nu_weights(fq: FramedQuiver, scale: int = 1) -> tuple:
    """The linear map scale * nu, nu(alpha) = w . alpha, as s_twist weights:
    the one place the framing enters the torus."""
    return tuple(scale * wi for wi in fq.w)


def _check_commuting(f: TorusSeries) -> None:
    m, keys = f.fq.base.arrows, list(f.coeffs)
    for i, a in enumerate(keys):
        row = _skew_row(m, a)
        for b in keys[i + 1:]:
            if sum(r * y for r, y in zip(row, b)):
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
        e = sum(key)
        _adams_into(kt, trunc, key, c, lambda n: e)
    kt = _grades(_settled(kt))
    g = {0: [(_zero_key(fq), ONE)]}
    for d in range(1, trunc + 1):
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

    With D the derivation x^a -> grade(a) x^a, the logarithm l = log g has
    D l = D g . g^{-1} on commuting support: one torus_div.  Then
    Log(g) = sum_n mu(n)/n psi_n(l), the 1/grade of l = D^{-1} D l folded
    into the weights.
    """
    if g.constant_term() != ONE:
        raise ValueError("Log needs constant term 1")
    _check_commuting(g)
    dl = torus_div(g.map_coeffs(lambda key, c: c * sum(key)), g)
    out: dict = {}
    for key, c in dl.coeffs.items():
        d = sum(key)
        _adams_into(out, g.trunc, key, c, lambda n: Fraction(_mobius(n), n * d))
    return TorusSeries(g.fq, g.trunc, _settled(out))


def serialize(f: TorusSeries) -> str:
    """One line per term; the star field is always 0, kept for file compatibility."""
    return "\n".join(f"alpha={','.join(map(str, key))};star=0;coeff={c}"
                     for key, c in f.terms())
