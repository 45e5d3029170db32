"""Structural theorems of DT theory as certificates of the series code.

Each statement below is known independently of this package, so it checks
the universal series, the HN split and pleth_log at once, most of them at
truncations past the oracle's reach:

- the Kronecker table at theta = (1, 0) (Reineke, arXiv:0804.3214):
  Omega = -v on the real roots (n+1, n), (n, n+1), (1, 0), (0, 1),
  Omega = v^2 + 1 at the imaginary root (1, 1), and zero elsewhere;
- the Euler numbers of the m-loop quiver (Reineke, arXiv:1102.3978);
- positivity on symmetric quivers (Efimov, arXiv:1103.2736): Omega(-v)
  has nonnegative integer coefficients;
- the motivic MacMahon function for c3 (Behrend-Bryan-Szendroi,
  arXiv:0909.5088) and Szendroi's Euler partition function for the
  conifold (arXiv:0705.3419), against ncdt of the built-in B_U;
- Reineke's resolution of the HN recursion (arXiv:math/0204059), against
  every HN piece, with no torus solve;
- the Euler numbers of noncommutative Hilbert schemes (Reineke,
  arXiv:math/0306185), against ncdt of the m-loop quiver;
- the framed series as a count of framed representations: at every wall
  and side, its coefficient is (q - 1) times the oracle's framed stack
  count, and on the sides just off a wall, the stable framed count;
- smooth models (Engel-Reineke, arXiv:0706.4306): each motive is a
  polynomial in L with nonnegative integer coefficients, and at L = q it
  counts the F_q-points of the stable framed moduli space.

The last two read the finite-field oracle, which shares no code with the
series.

The check_* helpers take the truncation, so a run past the tier-1 sizes
needs only `PYTHONPATH=src:tests` and one call.
"""

from fractions import Fraction
from itertools import product
from math import comb

import pytest

from quiverdt.hn import hn_factorize, universal_for
from quiverdt.oracle import count_framed_stable, count_stack, verify_coefficient
from quiverdt.quiver import (FramedQuiver, Quiver, c3_quiver, conifold_quiver,
                             jordan_quiver, kronecker_quiver, loop_quiver, nu,
                             tits_form)
from quiverdt.qtorus import TorusSeries, torus_mul
from quiverdt.scalar import L, ONE, V, ZERO, Scalar
from quiverdt.stability import SIDES, StabilityParams, find_walls, theta_slope
from quiverdt.wallcross import dt_omega, framed_at, ncdt, smooth_model_motive


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
    for piece in hn_factorize(universal_for(fq, N), (1, 0)).values():
        omega.update((a, om) for a, om in dt_omega(piece).coeffs.items() if om)
    real = {(1, 0), (0, 1)} | {r for n in range(1, N) for r in ((n + 1, n), (n, n + 1))
                               if sum(r) <= N}
    want = {a: -V for a in real}
    want[(1, 1)] = V * V + ONE
    assert omega == want


@pytest.mark.parametrize("m, top", [(1, 12), (2, 12), (3, 9), (4, 7)])
def test_m_loop_euler_numbers(m, top):
    omega = dt_omega(universal_for(loop_quiver(m), top).series).coeffs
    for d in range(1, top + 1):
        got = omega.get((d,), ZERO).specialize()
        assert got == (-1) ** ((m - 1) * d) * reineke_euler(m, d), (m, d)


@pytest.mark.parametrize("arrows", [
    ((1,),), ((2,),), ((3,),), ((4,),),
    ((1, 1), (1, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 0)), ((0, 2), (2, 0)),
])
def test_efimov_positivity(arrows):
    n = len(arrows)
    fq = FramedQuiver(Quiver(n, arrows), (1,) + (0,) * (n - 1))
    omega = dt_omega(universal_for(fq, 6).series).coeffs
    assert omega
    for a, om in omega.items():
        assert all(c >= 0 and c.denominator == 1 for c in flipped(om).values()), (a, om)


def motivic_macmahon(N: int) -> TorusSeries:
    """prod_{m<=N} prod_{k<m} (1 - L^{k+2} x^m)^{-1} on c3's torus, each
    factor written out as sum_j L^{(k+2)j} x^{mj}."""
    fq = c3_quiver()
    out = TorusSeries.one(fq, N)
    for m in range(1, N + 1):
        for k in range(m):
            factor = {(m * j,): Scalar.v_pow(2 * (k + 2) * j) for j in range(N // m + 1)}
            out = torus_mul(out, TorusSeries(fq, N, factor))
    return out


def check_c3_motivic_macmahon(N: int) -> int:
    """ncdt of c3's B_U is the motivic MacMahon function, with no sign;
    returns the number of classes compared."""
    got = ncdt(universal_for(c3_quiver(), N))
    assert got == motivic_macmahon(N)
    return len(got.coeffs)


def _int_mul(f: dict, g: dict, N: int) -> dict:
    """Product of integer series {(a, b): c} in q0, q1, cut to a + b <= N."""
    out: dict = {}
    for (a, b), x in f.items():
        for (c, d), y in g.items():
            if a + b + c + d <= N:
                out[(a + c, b + d)] = out.get((a + c, b + d), 0) + x * y
    return {k: c for k, c in out.items() if c}


def _binomial_power(mono, e: int, N: int) -> dict:
    """(1 - q0^a q1^b)^e for an integer e of either sign, cut to degree N."""
    a, b = mono
    top = N // (a + b)
    if e >= 0:
        coeffs = [(-1) ** j * comb(e, j) for j in range(min(e, top) + 1)]
    else:
        coeffs = [comb(-e + j - 1, j) for j in range(top + 1)]
    return {(a * j, b * j): c for j, c in enumerate(coeffs)}


def szendroi_euler(N: int) -> dict:
    """Szendroi's Z(-q0, q1) = prod_k (1 - (q0 q1)^k)^{-2k}
    (1 - q0^k q1^{k+1})^k (1 - q0^k q1^{k-1})^k, cut to a + b <= N."""
    out = {(0, 0): 1}
    for k in range(1, N + 1):
        for mono, e in (((k, k), -2 * k), ((k, k + 1), k), ((k, k - 1), k)):
            if sum(mono) <= N:
                out = _int_mul(out, _binomial_power(mono, e, N), N)
    return out


def check_conifold_szendroi(N: int) -> int:
    """ncdt of the conifold's B_U at v = 1 is Z(-q0, q1); returns the number
    of classes compared."""
    got = ncdt(universal_for(conifold_quiver(), N))
    values = {k: c.specialize() for k, c in got.coeffs.items()}
    assert {k: c for k, c in values.items() if c} == szendroi_euler(N)
    return len(values)


def _gl(n: int) -> Scalar:
    """[GL_n] = prod_{k<n} (L^n - L^k)."""
    out = ONE
    for k in range(n):
        out = out * (L ** n - L ** k)
    return out


def reineke_hn(fq: FramedQuiver, theta, d) -> Scalar:
    """The coefficient at d of the HN piece of slope mu = slope(d), by
    Reineke's resolution of the HN recursion:

      (-v)^{chi(d,d)} sum (-1)^{s-1} L^{-sum_{k<l} chi(d^l, d^k)}
          prod_k L^{sum m_ij d^k_i d^k_j} / prod_i [GL_{d^k_i}],

    over ordered splittings d = d^1 + ... + d^s into nonzero parts whose
    partial sums d^1 + ... + d^k, k < s, have slope > mu.  The sum runs as a
    recursion over the partial sums P: a part e appended after P adds
    chi(e, P) to the exponent, chi being bilinear.
    """
    m = fq.base.arrows
    n = len(d)

    def chi(a, b):
        return sum(a[i] * b[i] for i in range(n)) - sum(
            m[i][j] * a[i] * b[j] for i in range(n) for j in range(n))

    def slope(a):
        return Fraction(sum(t * x for t, x in zip(theta, a)), sum(a))

    def motive(e):  # [R_e] / [G_e]
        out = Scalar.v_pow(2 * sum(m[i][j] * e[i] * e[j] for i in range(n) for j in range(n)))
        for x in e:
            out = out / _gl(x)
        return out

    mu = slope(d)
    chains = {(0,) * n: -ONE}  # partial sum P -> signed sum over the chains ending at P
    total = ZERO
    for P in sorted(product(*(range(x + 1) for x in d)), key=sum):
        if P not in chains:
            continue
        for e in product(*(range(x - p + 1) for x, p in zip(d, P))):
            if not any(e):
                continue
            nxt = tuple(p + x for p, x in zip(P, e))
            term = -chains[P] * Scalar.v_pow(-2 * chi(e, P)) * motive(e)
            if nxt == d:
                total = total + term
            elif slope(nxt) > mu:
                chains[nxt] = chains.get(nxt, ZERO) + term
    return Scalar.neg_v_pow(chi(d, d)) * total


def _classes(fq: FramedQuiver, top: int):
    """The classes d with 0 < |d| <= top."""
    return [d for d in product(range(top + 1), repeat=fq.n_vertices) if 0 < sum(d) <= top]


def check_reineke_hn(fq: FramedQuiver, theta, N: int) -> int:
    """Every HN piece at theta against reineke_hn, at every class d with
    0 < |d| <= N; returns the number of nonzero piece coefficients."""
    pieces = hn_factorize(universal_for(fq, N), theta)
    seen = 0
    for d in _classes(fq, N):
        mu = Fraction(sum(t * x for t, x in zip(theta, d)), sum(d))
        got = pieces[mu].coeff(d) if mu in pieces else ZERO
        assert got == reineke_hn(fq, theta, d), d
        seen += bool(got)
    return seen


def nc_hilbert_euler(m: int, n: int, d: int) -> Fraction:
    """Euler number n/((m-1)d + n) C(md + n - 1, d) of the noncommutative
    Hilbert scheme of the m-loop quiver with framing n at dimension d."""
    return Fraction(n * comb(m * d + n - 1, d), (m - 1) * d + n)


def check_nc_hilbert(m: int, n: int, N: int) -> int:
    """ncdt of the m-loop quiver with framing n at v = 1 is
    (-1)^{(m-1)d} times nc_hilbert_euler; returns the number of d compared."""
    got = ncdt(universal_for(loop_quiver(m, (n,)), N))
    for d in range(N + 1):
        want = (-1) ** ((m - 1) * d) * nc_hilbert_euler(m, n, d)
        assert got.coeff((d,)).specialize() == want, (m, n, d)
    return N + 1


def check_framed_oracle(fq: FramedQuiver, theta, top: int, qs) -> int:
    """framed_at's series against the oracle at every class 0 < |alpha| <= top,
    every wall of alpha and every side: the coefficient at alpha, with its
    (-v)^{chi(alpha, alpha) - nu(alpha)} twist stripped, is at L = q the
    framed stack count times q - 1 (the GL_1 at the framing vertex), and
    off the wall that count is the stable framed count; returns the number
    of agreements."""
    bu = universal_for(fq, top)
    agree = 0
    for alpha in _classes(fq, top):
        chi = tits_form(fq, alpha) - nu(fq, alpha)
        for c in find_walls(fq, theta, alpha):
            mu = theta_slope(theta, alpha, c)
            for side in SIDES:
                coeff = framed_at(bu, theta, c, side, mu).series.coeff(alpha)
                sp = StabilityParams(theta, c, side)
                for q in qs:
                    count = (q - 1) * count_stack(fq, alpha, sp, q, framed=True)
                    assert verify_coefficient(coeff, count, q, chi=chi), (alpha, c, side, q)
                    if side != "exact":
                        assert count == count_framed_stable(fq, alpha, theta, c, side, q), \
                            (alpha, c, side, q)
                    agree += 1
    return agree


def check_smooth_models(fq: FramedQuiver, theta, N: int, top: int, qs) -> tuple:
    """Every smooth_model_motive at 0 < |alpha| <= N is a polynomial in L
    with nonnegative integer coefficients, and for |alpha| <= top it equals
    at L = q the stable framed count just above c = slope(alpha); returns
    (motives checked, counts compared)."""
    bu = universal_for(fq, N)
    motives = counts = 0
    for alpha in _classes(fq, N):
        motive = smooth_model_motive(bu, theta, alpha)
        num = motive.num
        assert motive.den == (1,) and not any(num[1::2]), (alpha, motive)
        assert all(c >= 0 and c.denominator == 1 for c in num), (alpha, motive)
        motives += 1
        if sum(alpha) <= top:
            c = theta_slope(theta, alpha)
            for q in qs:
                want = count_framed_stable(fq, alpha, theta, c, "plus", q)
                assert motive.specialize_L(q) == want, (alpha, q)
                counts += 1
    return motives, counts


# the acyclic quiver 0 -> 1, 0 -> 2, 1 -> 2, framed at 0
ACYCLIC_3 = FramedQuiver(Quiver(3, ((0, 1, 1), (0, 0, 1), (0, 0, 0))), (1, 0, 0))


def test_c3_motivic_macmahon():
    assert check_c3_motivic_macmahon(8) == 9


def test_conifold_szendroi():
    assert check_conifold_szendroi(10) == 23


@pytest.mark.parametrize("fq, theta, N, nonzero", [
    (kronecker_quiver(), (1, 0), 6, 21),
    (FramedQuiver(Quiver(2, ((0, 3), (0, 0))), (1, 0)), (1, 0), 5, 18),
    (ACYCLIC_3, (2, 1, 0), 4, 22),
], ids=["kronecker", "3-kronecker", "acyclic-3"])
def test_reineke_hn_resolution(fq, theta, N, nonzero):
    assert check_reineke_hn(fq, theta, N) == nonzero


@pytest.mark.parametrize("m, n, N", [(1, 1, 8), (2, 1, 12), (3, 2, 7), (2, 3, 8), (4, 1, 6)])
def test_nc_hilbert_schemes(m, n, N):
    assert check_nc_hilbert(m, n, N) == N + 1


@pytest.mark.parametrize("fq, theta, agree", [
    (kronecker_quiver((1, 0)), (1, 0), 102),
    (kronecker_quiver((1, 1)), (1, 0), 102),
    (jordan_quiver((1,)), (0,), 18),
    (jordan_quiver((2,)), (0,), 18),
], ids=["kronecker-w10", "kronecker-w11", "jordan-w1", "jordan-w2"])
def test_framed_series_counts_framed_representations(fq, theta, agree):
    assert check_framed_oracle(fq, theta, 3, (2, 3)) == agree


@pytest.mark.parametrize("fq, theta, N, checked", [
    (kronecker_quiver((1, 0)), (1, 0), 6, (27, 18)),
    (kronecker_quiver((0, 1)), (1, 0), 6, (27, 18)),
    (FramedQuiver(Quiver(2, ((0, 3), (0, 0))), (1, 0)), (1, 0), 5, (20, 18)),
    (ACYCLIC_3, (2, 1, 0), 4, (34, 38)),
], ids=["kronecker-w10", "kronecker-w01", "3-kronecker", "acyclic-3"])
def test_smooth_models(fq, theta, N, checked):
    assert check_smooth_models(fq, theta, N, 3, (2, 3)) == checked
