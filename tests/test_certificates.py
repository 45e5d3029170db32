"""Structural theorems of DT theory as certificates of the series code.

Each statement below is known independently of this package, so it checks
the universal series, the HN split and pleth_log at once, at truncations
past the oracle's reach:

- the Kronecker table at theta = (1, 0) (Reineke, arXiv:0804.3214):
  Omega = -v on the real roots (n+1, n), (n, n+1), (1, 0), (0, 1),
  Omega = v^2 + 1 at the imaginary root (1, 1), and zero elsewhere;
- the Euler numbers of the m-loop quiver (Reineke, arXiv:1102.3978);
- positivity on symmetric quivers (Efimov, arXiv:1103.2736): Omega(-v)
  has nonnegative integer coefficients.
"""

from fractions import Fraction
from math import comb

import pytest

from quiverdt.hn import hn_factorize, universal_for
from quiverdt.quiver import FramedQuiver, Quiver, kronecker_quiver, loop_quiver
from quiverdt.scalar import ONE, V, ZERO
from quiverdt.wallcross import dt_omega


def mobius(n: int) -> int:
    """The Moebius function, by trial division."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def reineke_euler(m: int, d: int) -> Fraction:
    """R_m(d) = (1/d^2) sum_{e | d} mu(d/e) (-1)^{(m-1)(d-e)} C(me-1, e-1)."""
    total = sum(mobius(d // e) * (-1) ** ((m - 1) * (d - e)) * comb(m * e - 1, e - 1)
                for e in range(1, d + 1) if d % e == 0)
    return Fraction(total, d * d)


def flipped(value) -> dict:
    """{e: coefficient of v^e in value(-v)}; value must be a Laurent polynomial."""
    num, den = value.num, value.den
    k = len(den) - 1
    assert not any(den[:-1]), f"not a Laurent polynomial: {value}"
    return {j - k: (-1) ** (j - k) * c for j, c in enumerate(num) if c}


def test_kronecker_closed_form():
    N = 8
    fq = kronecker_quiver()
    omega = {}
    for piece in hn_factorize(universal_for(fq, N), (1, 0), N).values():
        omega.update((a, om) for a, om in dt_omega(piece).omega.items() if om)
    real = {(1, 0), (0, 1)} | {r for n in range(1, N) for r in ((n + 1, n), (n, n + 1))
                               if sum(r) <= N}
    want = {a: -V for a in real}
    want[(1, 1)] = V * V + ONE
    assert omega == want


@pytest.mark.parametrize("m, top", [(1, 12), (2, 12), (3, 9), (4, 7)])
def test_m_loop_euler_numbers(m, top):
    omega = dt_omega(universal_for(loop_quiver(m), top).series).omega
    for d in range(1, top + 1):
        got = omega.get((d,), ZERO).specialize("euler")
        assert got == (-1) ** ((m - 1) * d) * reineke_euler(m, d), (m, d)


@pytest.mark.parametrize("arrows", [
    ((1,),), ((2,),), ((3,),), ((4,),),
    ((1, 1), (1, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 0)), ((0, 2), (2, 0)),
])
def test_efimov_positivity(arrows):
    n = len(arrows)
    fq = FramedQuiver(Quiver(n, arrows), (1,) + (0,) * (n - 1))
    omega = dt_omega(universal_for(fq, 6).series).omega
    assert omega
    for a, om in omega.items():
        assert all(c >= 0 and c.denominator == 1 for c in flipped(om).values()), (a, om)
