"""Reference kernel for the differential test of quiverdt.scalar.

This is the Euclid-over-Fraction Scalar that quiverdt.scalar replaced, kept
verbatim except that the optional gmpy2 import and the module-level wrappers
(scalar_arith, adams_scalar, specialize, specialize_L) are gone.  Every
operation reduces num/den by polynomial Euclid over Q, so it is slow but
obviously correct.  Nothing under src/ imports it.
"""

from __future__ import annotations

from fractions import Fraction

_Q = Fraction

_ZERO = _Q(0)
_ONE = _Q(1)
_NUMERIC = (int, Fraction, type(_ONE))


# polynomials are tuples of exact rationals, low degree first, no trailing zeros

def _trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("zero denominator")
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    if len(a) < len(b):
        return (), _trim(a)
    q = [_ZERO] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        t = a[db + k] / lb
        if t:
            q[k] = t
            for i, cb in enumerate(b):
                a[i + k] -= cb * t
    return _trim(q), _trim(a)


def _pgcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    lc = a[-1]
    return tuple(c / lc for c in a)


def _psubst_pow(a, n):
    # v -> v^n
    if not a or n == 1:
        return a
    out = [_ZERO] * ((len(a) - 1) * n + 1)
    for i, c in enumerate(a):
        out[i * n] = c
    return tuple(out)


def _peval(a, x: Fraction) -> Fraction:
    val = Fraction(0)
    for c in reversed(a):
        val = val * x + Fraction(int(c.numerator), int(c.denominator))
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


def _coerce_q(x):
    if isinstance(x, (int, Fraction)) or type(x) is type(_ONE):
        return _Q(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


class Scalar:
    """A rational function num/den in v, always in reduced form.

    Invariants: gcd(num, den) = 1, den is monic, zero is ()/(1).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(_ONE,), reduce=True):
        if reduce:
            num, den = _trim(num), _trim(den)
            if not den:
                raise ZeroDivisionError("zero denominator")
            if not num:
                den = (_ONE,)
            else:
                g = _pgcd(num, den)
                if len(g) > 1:
                    num = _pdivmod(num, g)[0]
                    den = _pdivmod(den, g)[0]
                lc = den[-1]
                if lc != 1:
                    num = tuple(c / lc for c in num)
                    den = tuple(c / lc for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @classmethod
    def of(cls, x) -> "Scalar":
        """Scalar from an int or Fraction."""
        q = _coerce_q(x)
        if not q:
            return ZERO
        return cls((q,), (_ONE,), reduce=False)

    @classmethod
    def v_pow(cls, k: int) -> "Scalar":
        """v^k for any integer k."""
        mono = (_ZERO,) * abs(k) + (_ONE,)
        if k >= 0:
            return cls(mono, (_ONE,), reduce=False)
        return cls((_ONE,), mono, reduce=False)

    @classmethod
    def L_pow(cls, k: int) -> "Scalar":
        return cls.v_pow(2 * k)

    @classmethod
    def neg_v_pow(cls, k: int) -> "Scalar":
        """(-v)^k = (-1)^k v^k, any integer k."""
        s = cls.v_pow(k)
        return -s if k % 2 else s

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    @staticmethod
    def _lift(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, _NUMERIC):
            return Scalar.of(x)
        return None  # defer to the other operand's reflected method

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return Scalar(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(_pneg(self.num), self.den, reduce=False)

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
        return Scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("zero denominator")
        return Scalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

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
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def adams(self, n: int) -> "Scalar":
        """psi_n: substitute v -> v^n.  Ring homomorphism, psi_1 = id."""
        if n < 1:
            raise ValueError("adams operation needs n >= 1")
        if n == 1:
            return self
        return Scalar(_psubst_pow(self.num, n), _psubst_pow(self.den, n))

    def specialize(self, point) -> Fraction:
        """Evaluate at v = point; "euler" means v = 1.

        The reduced-form invariant already cancels any shared (v-1) factors,
        so the euler case is a plain evaluation with a pole check.
        """
        x = Fraction(1) if point == "euler" else Fraction(point)
        dv = _peval(self.den, x)
        if dv == 0:
            raise ZeroDivisionError(f"not specializable: {self} has a pole at v = {x}")
        return _peval(self.num, x) / dv

    def specialize_L(self, q) -> Fraction:
        """Evaluate at L = q, requiring every v-exponent to be even."""
        for cs in (self.num, self.den):
            if any(c and (k % 2) for k, c in enumerate(cs)):
                raise ValueError(f"half-power mismatch: {self} has an odd power of v")
        x = Fraction(q)

        # even-index coefficients only; walk degrees 0, 2, 4, ...
        def ev_even(cs):
            val = Fraction(0)
            top = (len(cs) - 1) // 2 if cs else -1
            for k in range(top, -1, -1):
                c = cs[2 * k]
                val = val * x + Fraction(int(c.numerator), int(c.denominator))
            return val

        dv = ev_even(self.den)
        if dv == 0:
            raise ZeroDivisionError(f"not specializable: {self} has a pole at L = {x}")
        return ev_even(self.num) / dv

    def __repr__(self):
        return f"({_pstr(self.num)})/({_pstr(self.den)})"

    __str__ = __repr__


ZERO = Scalar((), (_ONE,), reduce=False)
ONE = Scalar((_ONE,), (_ONE,), reduce=False)
V = Scalar.v_pow(1)
L = Scalar.v_pow(2)

