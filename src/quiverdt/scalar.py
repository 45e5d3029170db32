"""Exact coefficient field Q(v) with v = L^(1/2).

Every series coefficient in this package is a Scalar: a reduced ratio of dense
univariate polynomials in v with exact rational coefficients.  The Lefschetz
motive L is v^2, so half-integer powers of L are integer powers of v.  Signs
like (-L^(1/2))^k are produced at call sites via Scalar.neg_v_pow(k), and
applied to a value as a shift by its times_neg_v_pow(k).

A Scalar is stored as v^e n/d: an integer e and a pair of integer
polynomials n and d, both with a nonzero constant term, so the power of v is
kept apart from the polynomials.  The pair is in a canonical form: coprime
over Q[v], the denominator's leading coefficient positive, and the integer
content of the two together 1; zero is v^0 0/1.  Equal values therefore have
equal triples, and a twist by (-v)^k only moves e.  Coprimality comes from
the heuristic gcd of Char, Geddes and Gonnet (1989): evaluate both
polynomials at a large integer xi, take the integer gcd, and read a candidate
back from its balanced base-xi digits.  The candidate is accepted only if it
divides both polynomials exactly; with xi > 2 min(|f|, |g|) + 1 for the
max-norms, that proves it is the gcd.  When no xi succeeds, a primitive
remainder sequence over Z finishes the job.  A constant side needs no gcd: no
power of v is left in either polynomial for it to share.
Products pack each polynomial into one integer (Kronecker substitution) so
that CPython's big-integer multiply does the work.
A sum goes over the lcm of its denominators, found from gcds of the
denominators only, and is reduced once.  Callers that add many products into
one coefficient collect them unreduced, one numerator sum per denominator
(_acc_term), and _settle adds them all that way; so does Scalar.__add__.
The public `num` and `den` are the same value with rational coefficients and
a monic denominator.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

# polynomials are tuples of ints, low degree first, no trailing zeros

_HEURISTIC_TRIES = 6


def _trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b, s=0):
    """a + v^s b for s >= 0."""
    out = list(a) + [0] * (len(b) + s - len(a))
    for i, c in enumerate(b, s):
        out[i] += c
    return _trim(out)


def _norm(a):
    return max(max(a), -min(a))


def _unpack(x, bits, n):
    """The n balanced base-2^bits digits of x, low first."""
    mask, half, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
    out = []
    for _ in range(n):
        c = x & mask
        if c >= half:
            c -= full
        out.append(c)
        x = (x - c) >> bits
    return tuple(out)


def _pmul(a, b):
    """Product by Kronecker substitution: evaluate at 2^bits, multiply, read digits."""
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        k = b[0]
        return tuple(c * k for c in a)
    bits = (_norm(a) * _norm(b) * len(b)).bit_length() + 1
    x = y = 0
    for c in reversed(a):
        x = (x << bits) + c
    for c in reversed(b):
        y = (y << bits) + c
    return _unpack(x * y, bits, len(a) + len(b) - 1)


def _pquo(a, b):
    """a / b if b divides a exactly in Z[v], else None."""
    db, lb = len(b) - 1, b[-1]
    if len(a) <= db:
        return None
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        t, rem = divmod(r[db + k], lb)
        if rem:
            return None
        if t:
            q[k] = t
            for i in range(db):
                r[i + k] -= b[i] * t
    if any(r[:db]):
        return None
    return tuple(q)


def _primitive(a):
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else tuple(x // c for x in a)


def _prem(a, b):
    """Pseudo-remainder of lc(b)^(deg a - deg b + 1) * a by b."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    while len(r) > db:
        t = r.pop()
        k = len(r) - db
        r = [c * lb for c in r]
        for i in range(db):
            r[i + k] -= t * b[i]
    return _trim(r)


def _prs_gcd(a, b):
    """Primitive gcd of a and b by the primitive remainder sequence over Z."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, (_primitive(r) if r else ())
    return a


def _gcd_cofactors(a, b):
    """(a/h, b/h) for h = gcd(a, b) in Q[v]; a and b have degree >= 1."""
    xi = 2 * min(_norm(a), _norm(b)) + 2
    for _ in range(_HEURISTIC_TRIES):
        x = y = 0
        for c in reversed(a):
            x = x * xi + c
        for c in reversed(b):
            y = y * xi + c
        g, h = gcd(x, y), []
        while g:
            c = g % xi
            if 2 * c > xi:
                c -= xi
            h.append(c)
            g = (g - c) // xi
        if len(h) == 1:
            return a, b
        h = _primitive(tuple(h))
        qa = _pquo(a, h)
        if qa is not None:
            qb = _pquo(b, h)
            if qb is not None:
                return qa, qb
        # a larger xi keeps the bound; the odd ratio changes the stray integer factors
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    h = _prs_gcd(a, b)
    return _pquo(a, h), _pquo(b, h)


def _content(n, d):
    """n/d with the integer content of the pair removed and d[-1] > 0."""
    c = gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c != 1:
        n = tuple(x // c for x in n)
        d = tuple(x // c for x in d)
    return n, d


def _low(p):
    """(k, p / v^k) for the largest power v^k that divides p != 0."""
    k = 0
    while not p[k]:
        k += 1
    return k, p[k:]


def _canonical(n, d, e=0):
    """The canonical triple of v^e n/d for integer polynomials n and d != 0."""
    if not n:
        return 0, (), (1,)
    (a, n), (b, d) = _low(n), _low(d)
    # with no power of v left, a constant side shares no factor with the other
    if len(n) > 1 and len(d) > 1:
        n, d = _gcd_cofactors(n, d)
    return (e + a - b, *_content(n, d))


def _acc_term(acc, a, b, k):
    """Add a*b*(-v)^k, unreduced, to acc, a {denominator: numerator sum} dict.

    a and b are Scalars and k an integer; the twist is a shift and a sign.
    acc[d] = (e, n) stands for v^e n / d, in a Scalar's own form: d is a
    product of Scalar denominators, so d(0) != 0 and the power of v of every
    term is in e.  A group's terms align by shifting numerators to its lowest e.
    """
    n = _pmul(a._n, b._n)
    if not n:
        return
    if k & 1:
        n = tuple(-x for x in n)
    e, d = a._e + b._e + k, _pmul(a._d, b._d)
    if d in acc:
        e0, n0 = acc[d]
        n = _padd(n0, n, e - e0) if e >= e0 else _padd(n, n0, e0 - e)
        e = min(e, e0)
    acc[d] = (e, n)


def _settle(acc, div=1):
    """The Scalar (sum over acc of v^e n / d) / div, for an integer div.

    The groups are brought to the lcm of their denominators, which needs
    gcds of denominators only (no key has a power of v, so the v^e align by
    shifting numerators to the lowest e); the numerators are added and the
    sum is reduced once.
    """
    e0 = min((e for e, n in acc.values() if n), default=0)
    num, den = (), (1,)
    for d, (e, n) in acc.items():
        if not n:
            continue
        # den = h den1 and d = h d1, so the lcm is den d1
        den1, d1 = _gcd_cofactors(den, d) if len(den) > 1 and len(d) > 1 else (den, d)
        num = _padd(_pmul(num, d1), _pmul(n, den1), e - e0)
        den = _pmul(den, d1)
    if div != 1:
        den = tuple(div * x for x in den)
    return Scalar._reduced(num, den, e0)


def _psubst_pow(a, n):
    # v -> v^n
    if not a or n == 1:
        return a
    out = [0] * ((len(a) - 1) * n + 1)
    out[::n] = a
    return tuple(out)


def _peval(a, x):
    """a at x by Horner; in ints when x is an int."""
    val = 0
    for c in reversed(a):
        val = val * x + c
    return val


def _pterm(c, k):
    if k == 0:
        return str(c)
    var = "v" if k == 1 else f"v^{k}"
    if c == 1:
        return var
    if c == -1:
        return "-" + var
    return f"{c}*{var}"


def _pstr(a):
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        t = _pterm(c, k)
        if parts and not t.startswith("-"):
            parts.append("+")
        parts.append(t)
    return "".join(parts)


class Scalar:
    """A rational function num/den in v, always in reduced form.

    Scalar(num, den) takes coefficient sequences of ints or Fractions, low
    degree first, and reduces.  Invariants of the public view: gcd(num, den)
    = 1, den is monic, zero is ()/(1).
    """

    __slots__ = ("_e", "_n", "_d")

    def __init__(self, num, den=(1,)):
        num, den = _trim(tuple(num)), _trim(tuple(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        m = lcm(*(Fraction(c).denominator for c in num + den))
        n = tuple(int(c * m) for c in num)
        d = tuple(int(c * m) for c in den)
        e, n, d = _canonical(n, d)
        object.__setattr__(self, "_e", e)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_d", d)

    @classmethod
    def _raw(cls, e, n, d) -> "Scalar":
        """The Scalar v^e n/d from a triple already in canonical form."""
        s = object.__new__(cls)
        object.__setattr__(s, "_e", e)
        object.__setattr__(s, "_n", n)
        object.__setattr__(s, "_d", d)
        return s

    @classmethod
    def _reduced(cls, n, d, e=0) -> "Scalar":
        return cls._raw(*_canonical(n, d, e))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def num(self) -> tuple:
        """Numerator coefficients as Fractions, low degree first, den monic."""
        lc = self._d[-1]
        return (Fraction(0),) * self._e + tuple(Fraction(c, lc) for c in self._n)

    @property
    def den(self) -> tuple:
        """Monic denominator coefficients as Fractions, low degree first."""
        lc = self._d[-1]
        return (Fraction(0),) * -self._e + tuple(Fraction(c, lc) for c in self._d)

    @classmethod
    def of(cls, x) -> "Scalar":
        """Scalar from an int or Fraction."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")
        if not x:
            return ZERO
        return cls._raw(0, (x.numerator,), (x.denominator,))

    @classmethod
    def v_pow(cls, k: int) -> "Scalar":
        """v^k for any integer k."""
        return cls._raw(k, (1,), (1,))

    @classmethod
    def neg_v_pow(cls, k: int) -> "Scalar":
        """(-v)^k = (-1)^k v^k, any integer k."""
        return cls._raw(k, (-1,) if k & 1 else (1,), (1,))

    def times_neg_v_pow(self, k: int) -> "Scalar":
        """self * (-v)^k as a sign and a shift of the power of v."""
        n = self._n
        if not (n and k):
            return self
        if k & 1:
            n = tuple(-x for x in n)
        return Scalar._raw(self._e + k, n, self._d)

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self):
        return bool(self._n)

    @staticmethod
    def _lift(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.of(x)
        return None  # defer to the other operand's reflected method

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not other._n:
            return self
        if not self._n:
            return other
        acc: dict = {}
        _acc_term(acc, self, ONE, 0)
        _acc_term(acc, other, ONE, 0)
        return _settle(acc)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._raw(self._e, tuple(-c for c in self._n), self._d)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return Scalar._reduced(_pmul(self._n, other._n), _pmul(self._d, other._d),
                               self._e + other._e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not other._n:
            raise ZeroDivisionError("zero denominator")
        return Scalar._reduced(_pmul(self._n, other._d), _pmul(self._d, other._n),
                               self._e - other._e)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> "Scalar":
        return ONE / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._lift(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._e == other._e and self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._e, self._n, self._d))

    def adams(self, n: int) -> "Scalar":
        """psi_n: substitute v -> v^n.  Ring homomorphism, psi_1 = id."""
        if n < 1:
            raise ValueError("adams operation needs n >= 1")
        if n == 1:
            return self
        # v -> v^n maps a Bezout identity to one, so the pair stays coprime
        return Scalar._raw(self._e * n, _psubst_pow(self._n, n), _psubst_pow(self._d, n))

    def specialize(self) -> Fraction:
        """The value at v = 1, the Euler-number limit.

        The series carry their signs in explicit (-v)^chi twists, so in this
        normalisation the Euler-number limit is v = 1, not v = -1: the
        conifold's Omega = -v gives -1.  The reduced-form invariant already
        cancels any shared (v-1) factors, so this is a plain evaluation,
        sum(num) / sum(den), with a pole check.
        """
        dv = sum(self._d)
        if dv == 0:
            raise ZeroDivisionError(f"not specializable: {self} has a pole at v = 1")
        return Fraction(sum(self._n), dv)

    def specialize_L(self, q) -> Fraction:
        """Evaluate at L = q, requiring every v-exponent to be even."""
        e, n, d = self._e, self._n, self._d
        if e & 1 or any(n[1::2]) or any(d[1::2]):
            raise ValueError("half-power mismatch")
        # integer coefficients at an integer q: two ints, one Fraction;
        # v^e = L^(e/2) goes to the side where its exponent is positive
        x = q if isinstance(q, int) else Fraction(q)
        dv = _peval(d[::2], x) * x ** max(-e // 2, 0)
        if dv == 0:
            raise ZeroDivisionError(f"not specializable: {self} has a pole at L = {x}")
        return Fraction(_peval(n[::2], x) * x ** max(e // 2, 0), dv)

    def __repr__(self):
        return f"({_pstr(self.num)})/({_pstr(self.den)})"

    __str__ = __repr__


ZERO = Scalar._raw(0, (), (1,))
ONE = Scalar._raw(0, (1,), (1,))
V = Scalar.v_pow(1)
L = Scalar.v_pow(2)
