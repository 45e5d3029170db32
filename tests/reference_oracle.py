"""Reference oracle for the differential test of quiverdt.oracle.

This is the finite-field oracle that the bitmask kernel of quiverdt.oracle
replaced, kept verbatim except for this docstring, the package-relative
imports, which name quiverdt here, and its budget, the fixed BUDGET rather
than a value read from the environment.  Its three entry points each enumerate
matrix tuples, filter every subspace tuple by explicit matrix-vector products
and loop over framing vectors, so it is slow but close to the definitions.
Nothing under src/ imports it.

It also holds resolve_side, which realizes c-plus and c-minus as a concrete
rational half a gap away from the nearest wall.  quiverdt.oracle reads them
as c + eps and c - eps instead, so the differential tests compare two
independent derivations of the one-sided levels.

flat_budget_work is the single work formula that quiverdt.oracle priced a
kernel run with before it priced each stage of the run on its own; the
staged pricing must accept every class this formula accepts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from quiverdt.quiver import FramedQuiver, sub_vectors
from quiverdt.scalar import Scalar
from quiverdt.stability import MINUS_INF, PLUS_INF, StabilityParams, find_walls
from reference_qtorus import ExtDimVector, ext

BUDGET = 10 ** 8


class BudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class FiniteFieldConfig:
    q: int
    max_total_dim: int = 4
    budget: int = BUDGET

    def __post_init__(self):
        if self.q not in (2, 3, 5):
            raise ValueError("q must be a prime at most 5")
        if not 1 <= self.max_total_dim <= 4:
            raise ValueError("max_total_dim must be between 1 and 4")


def resolve_side(walls, c, side: str) -> Fraction:
    """A concrete rational realizing c-plus or c-minus for the given wall set.

    Step size: half the gap to the nearest distinct wall; with no other wall
    in sight, 1/2 if c itself is a wall and 1 otherwise.  Either way the open
    interval between c and the result contains no wall, so every slope
    comparison in the region is constant on it.
    """
    c = Fraction(c)
    if side not in ("plus", "minus"):
        raise ValueError("resolve_side takes side plus or minus")
    gaps = [abs(w - c) for w in walls if w != c]
    if gaps:
        delta = min(gaps) / 2
    else:
        delta = Fraction(1, 2) if c in walls else Fraction(1)
    return c + delta if side == "plus" else c - delta


def gl_order(n: int, q: int) -> int:
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


# ---- small modular linear algebra -------------------------------------------

def _matvec(M, v, q):
    return tuple(sum(m * x for m, x in zip(row, v)) % q for row in M)


@lru_cache(maxsize=None)
def subspaces(q: int, n: int):
    """All subspaces of F_q^n as (dim, basis, members) triples.

    Enumerated via reduced row echelon bases, so each subspace appears once.
    members is a frozenset of all its vectors.
    """
    zero = (0,) * n
    out = [(0, (), frozenset({zero}))]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(r, c) for r in range(k) for c in range(n)
                    if c > pivots[r] and c not in pivots]
            for vals in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = 1
                for (r, c), val in zip(free, vals):
                    rows[r][c] = val
                basis = tuple(tuple(r) for r in rows)
                members = set()
                for coefs in itertools.product(range(q), repeat=k):
                    vec = zero
                    for co, b in zip(coefs, basis):
                        if co:
                            vec = tuple((x + co * y) % q for x, y in zip(vec, b))
                    members.add(vec)
                out.append((k, basis, frozenset(members)))
    return tuple(out)


def _solve_coords(basis, target, q):
    """Coordinates of target in the span of basis, or None."""
    if not basis:
        return () if not any(target) else None
    n, k = len(target), len(basis)
    A = [[basis[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    row = 0
    piv_cols = []
    for col in range(k):
        sel = next((r for r in range(row, n) if A[r][col]), None)
        if sel is None:
            continue
        A[row], A[sel] = A[sel], A[row]
        inv = pow(A[row][col], q - 2, q)
        A[row] = [(x * inv) % q for x in A[row]]
        for r in range(n):
            if r != row and A[r][col]:
                f = A[r][col]
                A[r] = [(x - f * y) % q for x, y in zip(A[r], A[row])]
        piv_cols.append(col)
        row += 1
    for r in range(row, n):
        if A[r][k]:
            return None
    x = [0] * k
    for r, col in enumerate(piv_cols):
        x[col] = A[r][k]
    return tuple(x)


def _complement_basis(sub_basis, n, q):
    """Standard vectors extending sub_basis to a basis of F_q^n."""
    piv = {}  # leading index -> echelon row

    def reduce(vec):
        v = list(vec)
        while True:
            lead = next((i for i, x in enumerate(v) if x), None)
            if lead is None or lead not in piv:
                return v, lead
            b = piv[lead]
            f = (v[lead] * pow(b[lead], q - 2, q)) % q
            v = [(x - f * y) % q for x, y in zip(v, b)]

    for b in sub_basis:
        v, lead = reduce(b)
        if lead is not None:
            piv[lead] = v
    comp = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        v, lead = reduce(e)
        if lead is not None:
            piv[lead] = v
            comp.append(e)
    return tuple(comp)


# ---- representation enumeration ---------------------------------------------

def _arrow_list(fq: FramedQuiver):
    return [(i, j) for i, row in enumerate(fq.base.arrows)
            for j, m in enumerate(row) for _ in range(m)]


def _framing_slots(fq: FramedQuiver):
    return [i for i, w in enumerate(fq.w) for _ in range(w)]


def _enumerate_matrices(shape_list, q):
    """All tuples of matrices with the given (rows, cols) shapes."""
    sizes = [r * c for r, c in shape_list]
    for flat in itertools.product(range(q), repeat=sum(sizes)):
        mats, pos = [], 0
        for (r, c), size in zip(shape_list, sizes):
            chunk = flat[pos:pos + size]
            pos += size
            mats.append(tuple(chunk[i * c:(i + 1) * c] for i in range(r)))
        yield tuple(mats)


def _candidate_tuples(alpha, q):
    """Cartesian product of the per-vertex subspace lists."""
    return list(itertools.product(*(subspaces(q, a) for a in alpha)))


def _invariant_tuples(mats, arrows, candidates, q):
    """Filter candidates down to arrow-invariant subspace tuples."""
    out = []
    for cand in candidates:
        ok = True
        for (i, j), M in zip(arrows, mats):
            members_j = cand[j][2]
            for b in cand[i][1]:
                if _matvec(M, b, q) not in members_j:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(cand)
    return out


def _check_budget(cfg: FiniteFieldConfig, points: int, per_point: int) -> None:
    per_point = max(per_point, 1)
    if points * per_point > cfg.budget:
        raise BudgetError(
            f"budget exceeded: {points} points x {per_point} work per point = "
            f"{points * per_point} > budget {cfg.budget}")


def _check_dim(cfg: FiniteFieldConfig, alpha) -> None:
    if sum(alpha) > cfg.max_total_dim:
        raise BudgetError(f"budget exceeded: total dimension {sum(alpha)} > "
                          f"max_total_dim {cfg.max_total_dim}")


def _theta_slope(theta, d) -> Fraction:
    return sum(Fraction(t) * x for t, x in zip(theta, d)) / sum(d)


# ---- the three oracle entry points ------------------------------------------

def count_stack(fq: FramedQuiver, alpha, sp, q: int,
                cfg: FiniteFieldConfig | None = None) -> Fraction:
    """Weighted count sum 1/#Aut of (semi)stable representations of class alpha.

    alpha is an ExtDimVector (star 0 or 1); sp is "all" or StabilityParams.
    Equals #points / #G by the orbit formula, G = prod GL_{a_i} times GL_1
    at the framing vertex when star = 1.
    """
    if not isinstance(alpha, ExtDimVector):
        alpha = ext(alpha, 0)
    cfg = cfg or FiniteFieldConfig(q)
    if cfg.q != q:
        raise ValueError("config and argument disagree on q")
    a = alpha.unframed
    _check_dim(cfg, a)
    if sum(a) == 0 and alpha.star == 0:
        return Fraction(1)

    group = 1
    for ai in a:
        group *= gl_order(ai, q)
    if alpha.star:
        group *= q - 1
    arrows = _arrow_list(fq)
    entries = sum(a[i] * a[j] for i, j in arrows)
    slots = _framing_slots(fq) if alpha.star else []
    entries += sum(a[i] for i in slots)

    if sp == "all":
        return Fraction(q ** entries, group)

    if not isinstance(sp, StabilityParams):
        raise TypeError("sp must be 'all' or StabilityParams")
    theta = sp.theta
    if alpha.star:
        if not sp.is_finite():
            raise ValueError("semistable framed counting needs a finite c")
        c_eff = sp.c if sp.side == "exact" else \
            resolve_side(find_walls(fq, theta, a), sp.c, sp.side)
    else:
        c_eff = None  # unframed slopes never see c

    def sub_slope(d, s) -> Fraction:
        val = sum(Fraction(t) * x for t, x in zip(theta, d))
        if s:
            val += c_eff
        return val / (sum(d) + s)

    target = sub_slope(a, alpha.star)

    # if no subclass could have a bigger slope, every point is semistable
    could_destabilize = False
    for d in sub_vectors(a):
        for s in ((0, 1) if alpha.star else (0,)):
            if (sum(d) == 0 and s == 0) or (d == a and s == alpha.star):
                continue
            if sub_slope(d, s) > target:
                could_destabilize = True
    if not could_destabilize:
        return Fraction(q ** entries, group)

    candidates = _candidate_tuples(a, q)
    _check_budget(cfg, q ** entries, len(candidates) * 4)
    shape = [(a[j], a[i]) for i, j in arrows]
    count = 0
    for mats in _enumerate_matrices(shape, q):
        inv = _invariant_tuples(mats, arrows, candidates, q)
        if alpha.star == 0:
            good = all(sum(c[0] for c in cand) == 0
                       or sub_slope(tuple(c[0] for c in cand), 0) <= target
                       for cand in inv)
            if good:
                count += 1
            continue
        # star = 1: enumerate framing vectors on top of each matrix tuple
        bad0 = [cand for cand in inv
                if sum(c[0] for c in cand)
                and sub_slope(tuple(c[0] for c in cand), 0) > target]
        if bad0:
            continue
        watch = [cand for cand in inv
                 if tuple(c[0] for c in cand) != a
                 and sub_slope(tuple(c[0] for c in cand), 1) > target]
        for vecs in itertools.product(*(subspace_points(q, a[i]) for i in slots)):
            ok = True
            for cand in watch:
                if all(v in cand[i][2] for v, i in zip(vecs, slots)):
                    ok = False
                    break
            if ok:
                count += 1
    return Fraction(count, group)


@lru_cache(maxsize=None)
def subspace_points(q: int, n: int):
    return tuple(itertools.product(range(q), repeat=n))


def count_framed_stable(fq: FramedQuiver, alpha, theta, c, side: str, q: int,
                        cfg: FiniteFieldConfig | None = None) -> Fraction:
    """Weighted count of Z_c-stable framed representations of class (alpha, 1).

    Automorphisms fix the framing pointwise, so on stable objects they are
    trivial and the weighted count is #points / #GL_alpha: the number of
    F_q-points of the stable moduli space.
    """
    alpha = tuple(int(x) for x in alpha)
    cfg = cfg or FiniteFieldConfig(q)
    if cfg.q != q:
        raise ValueError("config and argument disagree on q")
    _check_dim(cfg, alpha)
    if c == MINUS_INF:
        # the only minus-infinity stable object is the bare framing line
        return Fraction(1) if sum(alpha) == 0 else Fraction(0)
    if sum(alpha) == 0:
        return Fraction(1)

    theta = tuple(Fraction(t) for t in theta)
    if c == PLUS_INF:
        c_eff = None
    elif side == "exact":
        c_eff = Fraction(c)
    else:
        c_eff = resolve_side(find_walls(fq, theta, alpha), c, side)

    arrows = _arrow_list(fq)
    slots = _framing_slots(fq)
    entries = sum(alpha[i] * alpha[j] for i, j in arrows)
    candidates = _candidate_tuples(alpha, q)
    _check_budget(cfg, q ** entries,
                  len(candidates) * 4 + q ** sum(alpha[i] for i in slots))

    if c_eff is not None:
        def fslope(d, s) -> Fraction:
            val = sum(t * x for t, x in zip(theta, d))
            if s:
                val += c_eff
            return val / (sum(d) + s)

        target = fslope(alpha, 1)

    group = 1
    for ai in alpha:
        group *= gl_order(ai, q)
    shape = [(alpha[j], alpha[i]) for i, j in arrows]
    count = 0
    for mats in _enumerate_matrices(shape, q):
        inv = _invariant_tuples(mats, arrows, candidates, q)
        if c_eff is not None:
            # star-0 subobjects destabilize independently of the framing vector
            if any(sum(c[0] for c in cand)
                   and fslope(tuple(c[0] for c in cand), 0) >= target
                   for cand in inv):
                continue
            watch = [cand for cand in inv
                     if tuple(c[0] for c in cand) != alpha
                     and fslope(tuple(c[0] for c in cand), 1) >= target]
        else:
            # plus infinity: no proper subobject may contain the framing
            watch = [cand for cand in inv if tuple(c[0] for c in cand) != alpha]
        for vecs in itertools.product(*(subspace_points(q, alpha[i]) for i in slots)):
            stable = True
            for cand in watch:
                if all(v in cand[i][2] for v, i in zip(vecs, slots)):
                    stable = False
                    break
            if stable:
                count += 1
    return Fraction(count, group)


def verify_coefficient(series_coeff: Scalar, count, q: int, *,
                       chi: int = 0, prefactor: Scalar | None = None) -> bool:
    """Strip the recorded prefactors, evaluate at L = q, compare exactly.

    chi is the exponent of the (-v)^chi normalization carried by the series;
    prefactor covers any extra recorded factor (framed normalizations).
    """
    raw = series_coeff
    if prefactor is not None:
        raw = raw / prefactor
    if chi:
        raw = raw * Scalar.neg_v_pow(-chi)
    return raw.specialize_L(q) == Fraction(count)


# ---- second, slower counting path: explicit orbit enumeration ---------------

def _invertible_matrices(n: int, q: int):
    if n == 0:
        return [()]
    out = []
    for mat in _enumerate_matrices([(n, n)], q):
        M = mat[0]
        # invertible iff the rows span everything
        ech = []
        for row in M:
            v = list(row)
            for b in ech:
                lead = next(i for i, x in enumerate(b) if x)
                if v[lead]:
                    f = (v[lead] * pow(b[lead], q - 2, q)) % q
                    v = [(x - f * y) % q for x, y in zip(v, b)]
            if any(v):
                ech.append(v)
        if len(ech) == n:
            out.append(M)
    return out


def _matmul(A, B, q):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) % q
                       for col in zip(*B)) for row in A)


def count_stack_isoclasses(fq: FramedQuiver, alpha, q: int,
                           cfg: FiniteFieldConfig | None = None) -> Fraction:
    """Sum of 1/#Aut over isomorphism classes, by explicit orbit enumeration.

    Cross-validates count_stack's orbit formula on small classes.  No
    stability; star 0 only.
    """
    alpha = tuple(int(x) for x in alpha)
    cfg = cfg or FiniteFieldConfig(q)
    if sum(alpha) > 2:
        raise BudgetError(f"budget exceeded: total dimension {sum(alpha)} > 2, "
                          "the cap of orbit enumeration")
    arrows = _arrow_list(fq)
    gls = [_invertible_matrices(ai, q) for ai in alpha]
    inverses = []
    for group_mats in gls:
        inv_map = {}
        for g in group_mats:
            for h in group_mats:
                if _matmul(g, h, q) == _ident(len(g)):
                    inv_map[g] = h
                    break
        inverses.append(inv_map)
    shape = [(alpha[j], alpha[i]) for i, j in arrows]
    seen = set()
    total = Fraction(0)
    for mats in _enumerate_matrices(shape, q):
        if mats in seen:
            continue
        orbit = set()
        aut = 0
        for gtuple in itertools.product(*gls):
            moved = tuple(
                _matmul(_matmul(gtuple[j], M, q), inverses[i][gtuple[i]], q)
                for (i, j), M in zip(arrows, mats))
            orbit.add(moved)
            if moved == mats:
                aut += 1
        seen |= orbit
        total += Fraction(1, aut)
    return total


def _ident(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


# ---- counting-level wall-crossing check -------------------------------------

def hall_filtration_check(fq: FramedQuiver, alpha, theta, c, q: int,
                          cfg: FiniteFieldConfig | None = None) -> bool:
    """Check, point by point, that a framed representation is c-semistable
    exactly when it has a unique filtration: a slope-matched semistable
    unframed subrepresentation with a c-minus-stable framed quotient.
    """
    alpha = tuple(int(x) for x in alpha)
    cfg = cfg or FiniteFieldConfig(q)
    _check_dim(cfg, alpha)
    theta = tuple(Fraction(t) for t in theta)
    c = Fraction(c)
    arrows = _arrow_list(fq)
    slots = _framing_slots(fq)
    candidates = _candidate_tuples(alpha, q)
    entries = sum(alpha[i] * alpha[j] for i, j in arrows)
    _check_budget(cfg, q ** (entries + sum(alpha[i] for i in slots)),
                  len(candidates) * 16)

    def fslope(d, s) -> Fraction:
        val = sum(t * x for t, x in zip(theta, d))
        if s:
            val += c
        return val / (sum(d) + s)

    target = fslope(alpha, 1)
    shape = [(alpha[j], alpha[i]) for i, j in arrows]
    n_verts = len(alpha)

    for mats in _enumerate_matrices(shape, q):
        inv = _invariant_tuples(mats, arrows, candidates, q)
        for vecs in itertools.product(*(subspace_points(q, alpha[i]) for i in slots)):
            # left side: c-semistability of (mats, vecs)
            sst = True
            for cand in inv:
                d = tuple(cc[0] for cc in cand)
                if sum(d) and fslope(d, 0) > target:
                    sst = False
                    break
                if d != alpha and all(v in cand[i][2] for v, i in zip(vecs, slots)) \
                        and fslope(d, 1) > target:
                    sst = False
                    break
            # right side: filtrations through slope-matched semistable subs
            hits = 0
            for cand in inv:
                d = tuple(cc[0] for cc in cand)
                if sum(d) and fslope(d, 0) != target:
                    continue
                if sum(d) and not _sub_is_semistable(cand, inv, theta, n_verts):
                    continue
                if not _quotient_framed_stable(fq, mats, vecs, cand, alpha, d,
                                               theta, c, q, arrows, slots, cfg):
                    continue
                hits += 1
            if hits != (1 if sst else 0):
                return False
    return True


def _sub_is_semistable(cand, inv, theta, n_verts) -> bool:
    """Is the subrepresentation cand semistable among the invariant tuples?"""
    d = tuple(c[0] for c in cand)
    mu = _theta_slope(theta, d)
    for other in inv:
        e = tuple(c[0] for c in other)
        if not sum(e) or e == d:
            continue
        inside = all(all(b in cand[i][2] for b in other[i][1])
                     for i in range(n_verts))
        if inside and _theta_slope(theta, e) > mu:
            return False
    return True


def _quotient_framed_stable(fq, mats, vecs, cand, alpha, d, theta, c, q,
                            arrows, slots, cfg) -> bool:
    """Build the quotient framed representation and test c-minus stability."""
    gamma = tuple(a - x for a, x in zip(alpha, d))
    if sum(gamma) == 0:
        return True
    comps = [_complement_basis(cand[i][1], alpha[i], q) for i in range(len(alpha))]

    def project(vec, i):
        # coordinates of vec on the complement part, modulo the subspace
        basis = cand[i][1] + comps[i]
        coords = _solve_coords(basis, vec, q)
        return coords[len(cand[i][1]):]

    qmats = []
    for (i, j), M in zip(arrows, mats):
        cols = [project(_matvec(M, e, q), j) for e in comps[i]]
        qmats.append(tuple(tuple(col[r] for col in cols) for r in range(gamma[j])))
    qvecs = [project(v, i) for v, i in zip(vecs, slots)]

    c_minus = resolve_side(find_walls(fq, theta, gamma), c, "minus")

    def fslope(dd, s) -> Fraction:
        val = sum(t * x for t, x in zip(theta, dd))
        if s:
            val += c_minus
        return val / (sum(dd) + s)

    target = fslope(gamma, 1)
    q_candidates = _candidate_tuples(gamma, q)
    inv = _invariant_tuples(qmats, arrows, q_candidates, q)
    for cc in inv:
        dd = tuple(x[0] for x in cc)
        if sum(dd) and fslope(dd, 0) >= target:
            return False
        if dd != gamma and all(v in cc[i][2] for v, i in zip(qvecs, slots)) \
                and fslope(dd, 1) >= target:
            return False
    return True


def flat_budget_work(fq: FramedQuiver, alpha, q: int, cands, once: int = 0) -> int:
    """The normal-form matrix tuples times the work per tuple (the image pass
    of the arrow with the largest matrix, its source points and subspaces,
    plus one test per candidate tuple), plus the one-off work once."""
    arrows = [(i, j) for i, row in enumerate(fq.base.arrows)
              for j, m in enumerate(row) for _ in range(m)]
    tuples = 1
    for i, j in arrows:
        entries = alpha[i] * alpha[j]
        free = entries - (i == j and entries > 0)  # a loop's (0, 0) entry is 0
        tuples *= (q ** free - 1) // (q - 1) + 1  # the nonzero normal forms and 0
    per_tuple = len(cands)
    if arrows:
        n = alpha[max(arrows, key=lambda a: alpha[a[0]] * alpha[a[1]])[0]]
        per_tuple += q ** n + len(subspaces(q, n))
    return tuples * per_tuple + once
