"""Reference kernel for the differential test of quiverdt.qtorus.

This is the truncated quantum torus that quiverdt.qtorus replaced, kept
verbatim except for this docstring and absolute imports: torus_mul reduces
every term product and every partial sum, torus_inverse builds one series
product per pair of degrees, and pleth_exp and pleth_log sum full powers of
their argument.  Its keys carry the framing coordinate star, 0 or 1
(ExtDimVector), and its products twist by the skew form of the quiver with
the framing vertex * added.  quiverdt keeps every framed series star-0 and
has no framing coordinate, so these classes, that Euler form and its skew
form are defined here, for this torus and the tests that read quiverdt
against it.  Nothing under src/ imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from quiverdt.quiver import FramedQuiver, zero_vector
from quiverdt.scalar import ONE, Scalar


class ExtDimVector(NamedTuple):
    unframed: tuple
    star: int


def ext(coords, star: int = 0) -> ExtDimVector:
    if star not in (0, 1):
        raise ValueError(f"star {star} is not 0 or 1")
    values = tuple(coords)
    unframed = tuple(int(x) for x in values)
    if unframed != values:  # int() would truncate a non-integer entry
        bad = next(x for x, n in zip(values, unframed) if x != n)
        raise ValueError(f"dimension vector entry {bad} is not an integer")
    a = ExtDimVector(unframed, int(star))
    if any(c < 0 for c in a.unframed):
        raise ValueError(f"bad dimension vector {a}")
    return a


def euler_form(fq: FramedQuiver, a: ExtDimVector, b: ExtDimVector) -> int:
    """Euler-Ringel form of the framed quiver, chi(a, b)."""
    arrows = fq.base.arrows
    au, bu = a.unframed, b.unframed
    val = sum(x * y for x, y in zip(au, bu)) + a.star * b.star
    val -= sum(m * au[i] * bu[j]
               for i, row in enumerate(arrows) for j, m in enumerate(row) if m)
    val -= a.star * sum(wi * bi for wi, bi in zip(fq.w, bu))
    return val


def skew_form(fq: FramedQuiver, a: ExtDimVector, b: ExtDimVector) -> int:
    return euler_form(fq, a, b) - euler_form(fq, b, a)


Key = ExtDimVector


def _zero_key(fq: FramedQuiver) -> Key:
    return ExtDimVector(zero_vector(fq.n_vertices), 0)


@dataclass(frozen=True)
class TorusSeries:
    """A truncated series: fq fixes the skew form, trunc the region."""

    fq: FramedQuiver
    trunc: int
    coeffs: Mapping[Key, Scalar]

    def __post_init__(self):
        clean = {}
        for key, c in self.coeffs.items():
            key = ExtDimVector(tuple(key[0]), key[1])
            if not _in_region(key, self.trunc):
                continue
            if c:
                clean[key] = c
        object.__setattr__(self, "coeffs", clean)

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


def torus_mul(f: TorusSeries, g: TorusSeries) -> TorusSeries:
    """Twisted product; out-of-region keys (and star >= 2) are dropped."""
    _check(f, g)
    fq, trunc = f.fq, f.trunc
    out: dict = {}
    for ka, ca in f.coeffs.items():
        for kb, cb in g.coeffs.items():
            star = ka.star + kb.star
            if star > 1:
                continue
            alpha = tuple(x + y for x, y in zip(ka.unframed, kb.unframed))
            if sum(alpha) > trunc:
                continue
            tw = skew_form(fq, ka, kb)
            c = ca * cb
            if tw:
                c = c * Scalar.neg_v_pow(tw)
            key = ExtDimVector(alpha, star)
            if key in out:
                out[key] = out[key] + c
            else:
                out[key] = c
    return TorusSeries(fq, trunc, out)


def torus_inverse(f: TorusSeries) -> TorusSeries:
    """Two-sided inverse, degree by degree; needs a nonzero constant term."""
    c0 = f.constant_term()
    if not c0:
        raise ValueError("not invertible")
    fq, trunc = f.fq, f.trunc
    # grade by unframed degree plus star; products add grades
    by_deg: dict = {}
    for k, c in f.coeffs.items():
        by_deg.setdefault(sum(k.unframed) + k.star, {})[k] = c
    inv0 = c0.inverse()
    g: dict = {_zero_key(fq): inv0}
    for d in range(1, trunc + 2):
        wanted: dict = {}
        for e, part in by_deg.items():
            if 0 < e <= d:
                lower = {k: c for k, c in g.items() if sum(k.unframed) + k.star == d - e}
                if not lower:
                    continue
                prod = torus_mul(TorusSeries(fq, trunc, part),
                                 TorusSeries(fq, trunc, lower))
                for k, c in prod.coeffs.items():
                    wanted[k] = wanted.get(k, Scalar.of(0)) + c
        for k, c in wanted.items():
            if c:
                g[k] = g.get(k, Scalar.of(0)) - inv0 * c
    return TorusSeries(fq, trunc, g)


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
    """Exp(f) = exp(sum_n psi_n(f)/n) on commuting support with no constant term."""
    if f.constant_term():
        raise ValueError("Exp needs zero constant term")
    _check_commuting(f)
    t = TorusSeries.zero(f.fq, f.trunc)
    for n in range(1, f.trunc + 2):
        pn = adams_series(f, n)
        if pn.is_zero():
            continue
        t = t + pn * Scalar.of(Fraction(1, n))
    out = TorusSeries.one(f.fq, f.trunc)
    term = TorusSeries.one(f.fq, f.trunc)
    for k in range(1, f.trunc + 2):
        term = torus_mul(term, t) * Scalar.of(Fraction(1, k))
        if term.is_zero():
            break
        out = out + term
    return out


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
    """Inverse of pleth_exp via Moebius inversion of the formal logarithm."""
    if g.constant_term() != ONE:
        raise ValueError("Log needs constant term 1")
    _check_commuting(g)
    u = g - 1
    logg = TorusSeries.zero(g.fq, g.trunc)
    power = TorusSeries.one(g.fq, g.trunc)
    for k in range(1, g.trunc + 2):
        power = torus_mul(power, u)
        if power.is_zero():
            break
        sign = 1 if k % 2 else -1
        logg = logg + power * Scalar.of(Fraction(sign, k))
    out = TorusSeries.zero(g.fq, g.trunc)
    for n in range(1, g.trunc + 2):
        mu = _mobius(n)
        if not mu:
            continue
        pn = adams_series(logg, n)
        if pn.is_zero():
            continue
        out = out + pn * Scalar.of(Fraction(mu, n))
    return out


def slope_of(theta, c, key: Key) -> Fraction:
    """mu_c(alpha, star) = (theta.alpha + c star) / (|alpha| + star)."""
    d = sum(Fraction(t) * a for t, a in zip(theta, key.unframed))
    if key.star:
        d += Fraction(c)
    r = sum(key.unframed) + key.star
    if r == 0:
        raise ValueError("slope of the zero class")
    return d / r


def truncate_tau(f: TorusSeries, theta, c, mu) -> TorusSeries:
    """Keep exactly the star-0 terms whose framed slope mu_c(alpha, 1) is mu."""
    if any(k.star for k in f.coeffs):
        raise ValueError("tau expects a star-0 series")
    if mu == float("inf"):
        # r(alpha, 1) > 0 always, so no finite class ever has infinite slope
        return TorusSeries.zero(f.fq, f.trunc)
    mu = Fraction(mu)

    def keep(key):
        return slope_of(theta, c, ExtDimVector(key.unframed, 1)) == mu

    return f.restrict(keep)


def serialize(f: TorusSeries) -> str:
    lines = []
    for key, c in f.terms():
        alpha = ",".join(str(a) for a in key.unframed)
        lines.append(f"alpha={alpha};star={key.star};coeff={c}")
    return "\n".join(lines)
