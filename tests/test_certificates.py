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
- integrality per HN piece (Meinhardt-Reineke, arXiv:1411.4062): for
  generic theta every Omega of every piece is Laurent in v, and on a
  symmetric quiver each piece is Exp(Omega/(L - 1)) cut to its slope class;
- the motivic MacMahon function for c3 (Behrend-Bryan-Szendroi,
  arXiv:0909.5088) and Szendroi's Euler partition function for the
  conifold (arXiv:0705.3419), against ncdt of the built-in B_U;
- the conifold chamber by chamber (Nagao-Nakajima, arXiv:0809.2992;
  Jafferis-Moore, arXiv:0810.4909): at v = 1, S_nu of the uniform series
  at each level is a sub-product of Szendroi's class factors;
- the Euler limit of the transfer series, sigma Exp(sum nu(alpha)
  Omega_alpha(1) x^alpha), against transfer_series read at v = 1;
- Reineke's resolution of the HN recursion (arXiv:math/0204059), against
  every HN piece, with no torus solve;
- the Euler numbers of noncommutative Hilbert schemes (Reineke,
  arXiv:math/0306185), against ncdt of the m-loop quiver;
- the framed series as a count of framed representations: at every wall
  and side, its coefficient is (q - 1) times the oracle's framed stack
  count, and on the sides just off a wall, the stable framed count;
- smooth models (Engel-Reineke, arXiv:0706.4306): each motive is a
  polynomial in L with nonnegative integer coefficients, and at L = q it
  counts the F_q-points of the stable framed moduli space;
- the framed series and the smooth models motivically, past the oracle's
  reach: a framed object of class alpha is a representation of class
  (alpha, 1) of the quiver Q-hat with the framing vertex made an
  ordinary one (extended_quiver), so at every wall and side the framed
  coefficient, and each smooth model, is Reineke's resolution on Q-hat
  times a fixed factor.

The two before the last read the finite-field oracle, which shares no
code with the series.

The check_* helpers take the truncation, so a run past the tier-1 sizes
needs only `PYTHONPATH=src:tests` and one call.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

import pytest

from quiverdt.hn import hn_factorize, universal_for, verify_coefficient
from quiverdt.oracle import count_framed_stable, count_stack
from quiverdt.quiver import (FramedQuiver, Quiver, c3_quiver, conifold_quiver,
                             jordan_quiver, kronecker_quiver, loop_quiver, tits_form)
from quiverdt.qtorus import TorusSeries, nu_weights, pleth_exp, s_twist, torus_mul
from quiverdt.scalar import L, ONE, ZERO, Scalar
from quiverdt.stability import SIDES, StabilityParams, find_walls, theta_slope
from quiverdt.wallcross import (_uniform, dt_omega, framed_at, ncdt, smooth_model_motive,
                                transfer_series)
from reference_qtorus import nu

V = Scalar.v_pow(1)


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


def framed_at_first(arrows) -> FramedQuiver:
    """The quiver with the arrow matrix arrows, framed at its first vertex."""
    n = len(arrows)
    return FramedQuiver(Quiver(n, arrows), (1,) + (0,) * (n - 1))


def check_efimov_positivity(fq: FramedQuiver, N: int) -> int:
    """Every Omega of B_U up to N, read at -v, has nonnegative integer
    coefficients; returns the number of nonzero Omega."""
    omega = dt_omega(universal_for(fq, N).series).coeffs
    for a, om in omega.items():
        assert all(c >= 0 and c.denominator == 1 for c in flipped(om).values()), (a, om)
    return sum(map(bool, omega.values()))


EFIMOV_ARROWS = [
    ((1,),), ((2,),), ((3,),), ((4,),),
    ((1, 1), (1, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 0)), ((0, 2), (2, 0)),
]


@pytest.mark.parametrize("arrows", EFIMOV_ARROWS)
def test_efimov_positivity(arrows):
    assert check_efimov_positivity(framed_at_first(arrows), 6)


def check_piece_integrality(fq: FramedQuiver, thetas, N: int) -> tuple:
    """Integrality (Meinhardt-Reineke, arXiv:1411.4062): for generic theta,
    every Omega of every HN piece, dt_omega(B_mu), is a Laurent polynomial
    in v; at each of thetas.  A piece whose support does not commute, as it
    may at a theta that is not generic, has no Omega; it is counted as
    refused, not dropped.  Returns (the nonzero Omega checked, the pieces
    refused)."""
    bu = universal_for(fq, N)
    laurent = refused = 0
    for piece in (p for theta in thetas for p in hn_factorize(bu, theta).values()):
        try:
            omega = dt_omega(piece)
        except ValueError as err:
            assert str(err).startswith("Log undefined on non-commutative support"), err
            refused += 1
            continue
        for a, om in omega.coeffs.items():
            assert not any(om.den[:-1]), f"Omega at {a} is not Laurent: {om}"
            laurent += bool(om)
    return laurent, refused


def check_piece_exp(fq: FramedQuiver, thetas, N: int) -> int:
    """On a symmetric quiver each HN piece at each of thetas is
    Exp(Omega/(L - 1)) cut to its slope class, Omega = dt_omega(B_U);
    returns the pieces checked."""
    bu = universal_for(fq, N)
    over = dt_omega(bu.series).map_coeffs(lambda a, om: om / (L - 1))
    checked = 0
    for theta in thetas:
        for mu, piece in hn_factorize(bu, theta).items():
            cut = over.restrict(lambda a: theta_slope(theta, a) == mu)
            assert pleth_exp(cut) == piece, (theta, mu)
            checked += 1
    return checked


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
    """Product of commuting integer series {exponent tuple: c}, cut to total
    degree <= N."""
    out: dict = {}
    for a, x in f.items():
        for b, y in g.items():
            if sum(a) + sum(b) <= N:
                k = tuple(i + j for i, j in zip(a, b))
                out[k] = out.get(k, 0) + x * y
    return {k: c for k, c in out.items() if c}


def _binomial_power(mono, e: int, N: int) -> dict:
    """(1 - x^mono)^e for an integer e of either sign, cut to degree N."""
    top = N // sum(mono)
    if e >= 0:
        coeffs = [(-1) ** j * comb(e, j) for j in range(min(e, top) + 1)]
    else:
        coeffs = [comb(-e + j - 1, j) for j in range(top + 1)]
    return {tuple(a * j for a in mono): c for j, c in enumerate(coeffs)}


def szendroi_factors(N: int) -> list:
    """Szendroi's class factors ((a, b), e), each (1 - q0^a q1^b)^e, with
    0 < a + b <= N: e = -2k at (k, k), and e = k at (k, k+1) and (k, k-1).
    These are the classes where the conifold's Omega is nonzero; the factor
    at (0, 1) is 1."""
    return [(mono, e) for k in range(N + 1)
            for mono, e in (((k, k), -2 * k), ((k, k + 1), k), ((k, k - 1), k))
            if 0 < sum(mono) <= N]


def szendroi_euler(N: int, factors=None) -> dict:
    """The product of Szendroi's class factors (all of them by default,
    which is Z(-q0, q1)), cut to a + b <= N."""
    out = {(0, 0): 1}
    for mono, e in szendroi_factors(N) if factors is None else factors:
        out = _int_mul(out, _binomial_power(mono, e, N), N)
    return out


def _at_v_1(series: TorusSeries) -> dict:
    """The nonzero coefficients of series at v = 1."""
    values = {k: c.specialize() for k, c in series.coeffs.items()}
    return {k: c for k, c in values.items() if c}


def check_conifold_szendroi(N: int) -> int:
    """ncdt of the conifold's B_U at v = 1 is Z(-q0, q1); returns the number
    of classes compared."""
    got = ncdt(universal_for(conifold_quiver(), N))
    assert _at_v_1(got) == szendroi_euler(N)
    return len(got.coeffs)


def check_conifold_chambers(N: int) -> int:
    """Chamber by chamber on the conifold: for theta = (1, 0), (0, 1) and
    (2, -1), S_nu of the uniform series A^a at v = 1 is the product of
    Szendroi's class factors of theta-slope < a on side minus and <= a on
    side plus, at each rung a (a slope of a factor class), each midpoint
    between rungs and one level beyond each end.  Side exact is left out:
    at a rung it mixes P_{<=a} with P_{<a} and has a pole at v = 1.  At
    a = +inf this is check_conifold_szendroi.  Returns the number of
    side-levels compared."""
    bu = universal_for(conifold_quiver(), N)
    factors = szendroi_factors(N)
    twist = nu_weights(bu.series.fq, 1)
    seen = 0
    for theta in ((1, 0), (0, 1), (2, -1)):
        rungs = sorted({theta_slope(theta, mono) for mono, _ in factors})
        levels = rungs + [(x + y) / 2 for x, y in zip(rungs, rungs[1:])]
        levels += [rungs[0] - 1, rungs[-1] + 1]
        for a in levels:
            for side in ("minus", "plus"):
                below = [(mono, e) for mono, e in factors
                         if theta_slope(theta, mono) < a
                         or side == "plus" and theta_slope(theta, mono) == a]
                got = s_twist(_uniform(bu, theta, a, side), twist)
                assert _at_v_1(got) == szendroi_euler(N, below), (theta, a, side)
                seen += 1
    return seen


def euler_transfer_closed_form(B: TorusSeries) -> dict:
    """The Euler limit of the transfer series of B on a symmetric quiver,
    sigma Exp(sum_alpha nu(alpha) Omega_alpha(1) x^alpha) with Omega =
    dt_omega(B): at v = 1 the torus commutes and Exp(n x^alpha) is
    (1 - x^alpha)^{-n}, and sigma flips the sign where nu(alpha) is odd;
    {alpha: value}, cut to |alpha| <= B.trunc."""
    fq, N = B.fq, B.trunc
    out = {(0,) * fq.n_vertices: 1}
    for alpha, om in dt_omega(B).coeffs.items():
        e = nu(fq, alpha) * om.specialize()
        assert e.denominator == 1, (alpha, om)
        if e:
            out = _int_mul(out, _binomial_power(alpha, -int(e), N), N)
    return {alpha: (-1) ** nu(fq, alpha) * c for alpha, c in out.items()}


def check_euler_transfer(fq: FramedQuiver, N: int) -> int:
    """transfer_series of B_U at v = 1 is euler_transfer_closed_form;
    returns the number of classes compared."""
    B = universal_for(fq, N).series
    got = transfer_series(B)
    assert _at_v_1(got) == euler_transfer_closed_form(B)
    return len(got.coeffs)


@cache
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


def extended_quiver(fq: FramedQuiver) -> FramedQuiver:
    """The quiver Q-hat of fq: its framing vertex made an ordinary last
    vertex, with w_i arrows from it to i, and no framing of its own.  A
    framed representation of class alpha is a representation of Q-hat of
    class (alpha, 1), and the framed slope at level c is Q-hat's slope at
    theta + (c,)."""
    n = fq.n_vertices
    arrows = tuple(row + (0,) for row in fq.base.arrows) + (fq.w + (0,),)
    return FramedQuiver(Quiver(n + 1, arrows), (0,) * (n + 1))


def wall_offset(walls, c) -> Fraction:
    """A quarter of the gap from the level c to the nearest wall other than
    c, or 1 when there is none: c + s wall_offset lies, for s = 1 and -1,
    in the open chamber next to c on that side."""
    gaps = [abs(c - x) for x in walls if x != c]
    return min(gaps) / 4 if gaps else Fraction(1)


SIGNS = {"exact": 0, "plus": 1, "minus": -1}  # the eps-coefficient of each side


def check_framed_extended(fq: FramedQuiver, theta, N: int) -> tuple:
    """framed_at's series against Reineke's resolution on Q-hat: at every
    class 0 < |alpha| <= N, every wall c of alpha and every side, the
    coefficient at alpha is (1 - L)/v times reineke_hn(Q-hat, theta +
    (c + s delta,), (alpha, 1)), with s the side's sign and delta =
    wall_offset.  The twist (-v)^{chi-hat} of (alpha, 1) is that of the
    framed series times -v, and the group GL_alpha x GL_1 of Q-hat has the
    extra factor L - 1.  Returns (cases, zeros): the agreements, and how
    many of them are between zeros."""
    bu = universal_for(fq, N)
    hat = extended_quiver(fq)
    scale = (ONE - L) / V
    cases = zeros = 0
    for alpha in _classes(fq, N):
        walls = find_walls(fq, theta, alpha)
        for c in walls:
            mu, delta = theta_slope(theta, alpha, c), wall_offset(walls, c)
            for side, s in SIGNS.items():
                got = framed_at(bu, theta, c, side, mu).series.coeff(alpha)
                want = scale * reineke_hn(hat, tuple(theta) + (c + s * delta,), alpha + (1,))
                assert got == want, (alpha, c, side)
                cases += 1
                zeros += not got
    return cases, zeros


def check_smooth_extended(fq: FramedQuiver, theta, N: int) -> tuple:
    """smooth_model_motive against Reineke's resolution on Q-hat: at every
    class 0 < |alpha| <= N, the motive is (L - 1) (-v)^{-chi-hat((alpha, 1),
    (alpha, 1))} times reineke_hn(Q-hat, theta + (c,), (alpha, 1)) at the
    level c = mu + wall_offset just above mu = slope(alpha), a wall of
    alpha (where (alpha, 0) matches it).  Off the walls no subclass of
    (alpha, 1) shares its slope, so the semistable objects there are the
    stable ones, whose moduli space is the smooth model.  Returns (cases,
    zeros)."""
    bu = universal_for(fq, N)
    hat = extended_quiver(fq)
    cases = zeros = 0
    for alpha in _classes(fq, N):
        mu = theta_slope(theta, alpha)
        c = mu + wall_offset(find_walls(fq, theta, alpha), mu)
        d = alpha + (1,)
        got = smooth_model_motive(bu, theta, alpha)
        want = (L - 1) * reineke_hn(hat, tuple(theta) + (c,), d).times_neg_v_pow(
            -tits_form(hat, d))
        assert got == want, alpha
        cases += 1
        zeros += not got
    return cases, zeros


# the acyclic quiver 0 -> 1, 0 -> 2, 1 -> 2, framed at 0
ACYCLIC_3 = FramedQuiver(Quiver(3, ((0, 1, 1), (0, 0, 1), (0, 0, 0))), (1, 0, 0))


def test_c3_motivic_macmahon():
    assert check_c3_motivic_macmahon(8) == 9


def test_conifold_szendroi():
    assert check_conifold_szendroi(10) == 23


def test_conifold_chambers():
    assert check_conifold_chambers(8) == 114


@pytest.mark.parametrize("fq, N, classes", [
    (c3_quiver(), 6, 7), (c3_quiver(w=(2,)), 5, 6),
    (conifold_quiver(), 6, 11), (conifold_quiver(w=(1, 1)), 5, 11),
    (loop_quiver(2), 5, 6),
], ids=["c3-w1", "c3-w2", "conifold-w10", "conifold-w11", "loop2"])
def test_euler_transfer(fq, N, classes):
    assert check_euler_transfer(fq, N) == classes


def test_euler_transfer_c3_values():
    B = universal_for(c3_quiver(), 3).series
    want = {(0,): 1, (1,): -1, (2,): 3, (3,): -6}
    assert euler_transfer_closed_form(B) == want
    assert check_euler_transfer(c3_quiver(), 3) == 4


def test_euler_transfer_drops_unframed():
    # w = (1, 0): nu ignores the second coordinate, so Omega_(0,1) = -v drops
    B = universal_for(conifold_quiver(), 3).series
    got = euler_transfer_closed_form(B)
    assert got[(1, 0)] == 1 and (0, 1) not in got
    assert check_euler_transfer(conifold_quiver(), 3) == 5


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


# (fq, theta, N, the framed and the smooth-model (cases, zeros))
EXTENDED = [
    (kronecker_quiver((1, 0)), (1, 0), 4, (102, 68), (14, 9)),
    (kronecker_quiver((1, 1)), (1, 0), 4, (102, 59), (14, 8)),
    (jordan_quiver(), (0,), 4, (12, 4), (4, 0)),
    (loop_quiver(2), (0,), 4, (12, 4), (4, 0)),
    (ACYCLIC_3, (2, 1, 0), 3, (141, 110), (19, 15)),
    (FramedQuiver(Quiver(2, ((0, 3), (0, 0))), (1, 0)), (1, 0), 4, (102, 54), (14, 7)),
    # not symmetric, with a 2-cycle
    (FramedQuiver(Quiver(2, ((0, 2), (1, 0))), (1, 0)), (1, 0), 4, (102, 66), (14, 9)),
    (loop_quiver(3, (2,)), (0,), 4, (12, 4), (4, 0)),
]


@pytest.mark.parametrize("fq, theta, N, framed, smooth", EXTENDED,
                         ids=["kronecker-w10", "kronecker-w11", "jordan", "loop2", "acyclic-3",
                              "3-kronecker", "two-cycle", "loop3-w2"])
def test_extended_quiver_certificates(fq, theta, N, framed, smooth):
    assert check_framed_extended(fq, theta, N) == framed
    assert check_smooth_extended(fq, theta, N) == smooth


KRONECKER_3 = FramedQuiver(Quiver(2, ((0, 3), (0, 0))), (1, 0))
TWO_CYCLE = FramedQuiver(Quiver(2, ((0, 2), (1, 0))), (1, 0))
THREE_CYCLE = FramedQuiver(Quiver(3, ((0, 1, 0), (0, 0, 1), (1, 0, 0))), (1, 0, 0))

# name -> (fq, thetas, N, the nonzero Omega and the refused pieces over the
# thetas); ACYCLIC_3's (3, 1, 0) is not generic, and one of its pieces has
# support that does not commute
INTEGRALITY = {
    "kronecker": (kronecker_quiver(), [(1, 0)], 6, (7, 0)),
    "3-kronecker": (KRONECKER_3, [(1, 0)], 6, (13, 0)),
    "two-cycle": (TWO_CYCLE, [(1, 0), (0, 1)], 6, (16, 0)),
    "acyclic-3": (ACYCLIC_3, [(2, 1, 0), (0, 1, 2), (3, 1, 0)], 4, (19, 1)),
    "3-cycle": (THREE_CYCLE, [(2, 1, 0), (0, 1, 2)], 4, (11, 0)),
}


@pytest.mark.parametrize("name", INTEGRALITY)
def test_piece_integrality(name):
    fq, thetas, N, counts = INTEGRALITY[name]
    assert check_piece_integrality(fq, thetas, N) == counts


# symmetric quivers, each with its thetas, N and the pieces over them; the
# built-in conifold and the trivial potential on its arrows
PIECE_EXP = {
    "conifold": (conifold_quiver(), [(1, 0), (0, 1), (2, -1)], 10, 33),
    "loop-at-each": (framed_at_first(((1, 1), (1, 1))), [(1, 0), (0, 1)], 8, 46),
    "trivial-conifold": (framed_at_first(((0, 2), (2, 0))), [(1, 0)], 8, 11),
    "two-loops-at-0": (framed_at_first(((2, 1), (1, 0))), [(1, 0), (0, 1)], 8, 26),
}


@pytest.mark.parametrize("name", PIECE_EXP)
def test_piece_exp(name):
    fq, thetas, N, pieces = PIECE_EXP[name]
    assert check_piece_exp(fq, thetas, N) == pieces
