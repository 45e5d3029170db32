"""Finite-field counting oracle.

Counts representations and framed representations of a quiver over F_q,
weighted by automorphisms, by direct enumeration of matrix tuples.  Entirely
independent of the series machinery, so its numbers can certify series
coefficients at L = q via verify_coefficient.

count_stack, count_framed_stable and hall_filtration_check are predicates
over one kernel, _invariant_runs, which yields the arrow-invariant subspace
tuples of every matrix tuple:

- The points of F_q^n are numbered in itertools.product order, and each
  subspace is stored as the int bitmask of its members.
- One image pass per arrow matrix builds the images of all points from the
  column images and gives each source subspace the bitmask of the images of
  its basis; a subspace tuple is invariant when, for every arrow, that mask
  lies inside the mask of the target subspace.
- A subspace tuple is invariant under M exactly when it is invariant under
  lam M for lam != 0, and, for a loop, under M + mu I.  So each arrow runs
  over one normal form per class {lam M + mu I}: the first nonzero entry in
  column order is 1, and a loop's entry (0, 0) is 0.  A normal form stands
  for its class, q - 1 matrices if it is nonzero and 1 if not, times q for a
  loop; a tuple of normal forms stands for the product of these weights, and
  the weights of one shape sum to q^(mn).
- Slopes depend on dimension vectors only, so each entry point decides its
  slope tests once per candidate tuple before the matrix loop, and c-minus
  once per quotient class.
- A tuple of framing vectors is a point of the product of the framed
  vertices' spaces.  The framing tuples inside a subspace tuple form the
  product of its member masks, so stable framing points are counted by
  popcount and weighted by the normal-form tuple's weight.
- The budget prices one step of work: a run visits the normal-form tuples,
  and each costs the streamed arrow's image pass (the points and subspaces
  of its source space) plus one test per candidate subspace tuple.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .quiver import ExtDimVector, FramedQuiver, ext, sub_vectors
from .scalar import Scalar
from .stability import (MINUS_INF, PLUS_INF, StabilityParams, find_walls,
                        resolve_side, theta_slope)

DEFAULT_BUDGET = 10 ** 8


class BudgetError(RuntimeError):
    pass


def _env_budget() -> int:
    raw = os.environ.get("WALLCROSS_BUDGET")
    return int(raw) if raw else DEFAULT_BUDGET


@dataclass(frozen=True)
class FiniteFieldConfig:
    q: int
    max_total_dim: int = 4
    budget: int = field(default_factory=_env_budget)

    def __post_init__(self):
        if self.q not in (2, 3, 5):
            raise ValueError("q must be a prime at most 5")
        if not 1 <= self.max_total_dim <= 4:
            raise ValueError("max_total_dim must be between 1 and 4")


def gl_order(n: int, q: int) -> int:
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


# ---- F_q^n as bits ----------------------------------------------------------

def _index(vec, base: int) -> int:
    """The digits vec read in the given base; with base q this is the
    position of vec in itertools.product(range(q), repeat=len(vec))."""
    out = 0
    for x in vec:
        out = out * base + x
    return out


@lru_cache(maxsize=None)
def _subspaces(q: int, n: int):
    """All subspaces of F_q^n, by increasing dimension, as (dims, masks, bases).

    Enumerated via reduced row echelon bases, so each subspace appears once.
    masks[k] has bit p set when point p lies in subspace k; bases[k] holds
    the point indices of its echelon basis.
    """
    dims, masks, bases = [0], [1], [()]
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
                mask = 0
                for coefs in itertools.product(range(q), repeat=k):
                    vec = [sum(co * row[i] for co, row in zip(coefs, rows)) % q
                           for i in range(n)]
                    mask |= 1 << _index(vec, q)
                dims.append(k)
                masks.append(mask)
                bases.append(tuple(_index(row, q) for row in rows))
    return tuple(dims), tuple(masks), tuple(bases)


@lru_cache(maxsize=None)
def _sum_tables(q: int, m: int):
    """Carry-free addition in F_q^m: (scaled, norm, bit).

    A point is coded by its coordinates as digits in base 2q - 1, so two
    codes add without carries.  scaled[p] holds the codes of t * (point p)
    for t in range(q); for a sum s of two codes, norm[s] is the code and
    bit[s] is 1 << (index) of the reduced point.  Each table has at most
    (2q - 1)^m entries.
    """
    base = 2 * q - 1
    scaled = tuple(tuple(_index([t * x % q for x in p], base) for t in range(q))
                   for p in itertools.product(range(q), repeat=m))
    norm, bit = [], []
    for digits in itertools.product(range(base), repeat=m):
        reduced = [x % q for x in digits]
        norm.append(_index(reduced, base))
        bit.append(1 << _index(reduced, q))
    return scaled, norm, bit


def _req_tables(q: int, m: int, n: int, loop: bool):
    """The image pass: for every normal-form matrix F_q^n -> F_q^m (a loop's
    when loop is set), in column-tuple order, (weight, req).  The weight is
    the size of the matrix's class {lam M + mu I}, and req lists over the
    subspaces S of F_q^n the bitmask of the images of S's basis."""
    dims, _, bases = _subspaces(q, n)
    if n == 0:
        yield 1, [0]
        return
    # basis point indices column by column, per dimension, in subspace order
    groups = [tuple(zip(*(b for d, b in zip(dims, bases) if d == k)))
              for k in range(1, n + 1)]
    scaled, norm, bit = _sum_tables(q, m)
    points = list(itertools.product(range(q), repeat=m))
    # (first column, nonzero entry seen) -> the allowed columns, in point
    # order, each with whether a nonzero entry has been seen after it
    choices = {(first, seen): [(us, seen or any(p)) for p, us in zip(points, scaled)
                               if (seen or next((x for x in p if x), 1) == 1)
                               and not (loop and first and p[0])]
               for first in (False, True) for seen in (False, True)}
    shift = q if loop else 1

    def req(img):
        out = [0]
        for first, *rest in groups:
            acc = [img[p] for p in first]
            for col in rest:
                acc = [a | img[p] for a, p in zip(acc, col)]
            out += acc
        return out

    def columns(k, partial, seen):
        # partial: codes of the images of the points (x_0, .., x_{k-1}, 0, ..)
        if k == n - 1:
            for us, now in choices[k == 0, seen]:
                yield (q - 1 if now else 1) * shift, req([bit[x + u] for x in partial for u in us])
        else:
            for us, now in choices[k == 0, seen]:
                yield from columns(k + 1, [norm[x + u] for x in partial for u in us], now)

    yield from columns(0, [0], False)


def _framing_masks(alpha, slots, q: int, cands):
    """For each subspace tuple, the bitmask of the framing tuples inside it.

    A framing tuple has one vector per slot, in F_q^{alpha_i} for a slot at
    vertex i, and is numbered in itertools.product order over the slots.
    """
    masks = [_subspaces(q, a)[1] for a in alpha]
    out = []
    for cand in cands:
        fm = 1
        for i in slots:
            size, m = q ** alpha[i], masks[i][cand[i]]
            fm = sum(m << (k * size) for k in range(fm.bit_length()) if fm >> k & 1)
        out.append(fm)
    return out


# ---- the enumeration kernel -------------------------------------------------

def _arrow_list(fq: FramedQuiver):
    return [(i, j) for i, row in enumerate(fq.base.arrows)
            for j, m in enumerate(row) for _ in range(m)]


def _framing_slots(fq: FramedQuiver):
    return [i for i, w in enumerate(fq.w) for _ in range(w)]


def _candidates(alpha, q: int):
    """Every subspace tuple of class alpha, and its dimension vector."""
    dims = [_subspaces(q, a)[0] for a in alpha]
    cands = list(itertools.product(*(range(len(d)) for d in dims)))
    return cands, [tuple(d[k] for d, k in zip(dims, cand)) for cand in cands]


def _invariant_runs(fq: FramedQuiver, alpha, q: int, cands):
    """The one enumeration loop: for every tuple of normal-form arrow
    matrices of class alpha, (weight, the increasing positions in cands of
    the arrow-invariant tuples).  The weight, the product of the arrows'
    class sizes, is the number of matrix tuples with these invariant tuples.

    The arrow with the most entries streams its image tables; the other
    shapes are tabulated once and reused for every matrix of that arrow.
    """
    arrows = sorted(_arrow_list(fq), key=lambda a: -alpha[a[0]] * alpha[a[1]])
    every = range(len(cands))
    if not arrows:
        yield 1, every
        return
    masks = [_subspaces(q, a)[1] for a in alpha]
    checks = [([c[i] for c in cands], [~masks[j][c[j]] for c in cands])
              for i, j in arrows]
    shapes = [(alpha[j], alpha[i], i == j) for i, j in arrows]
    stored = {s: list(_req_tables(q, *s)) for s in shapes[1:]}
    for head in _req_tables(q, *shapes[0]):
        for rest in itertools.product(*(stored[s] for s in shapes[1:])):
            weight, keep = 1, every
            for (w, req), (src, out) in zip((head,) + rest, checks):
                weight *= w
                keep = [p for p in keep if not req[src[p]] & out[p]]
            yield weight, keep


def _count_points(fq: FramedQuiver, alpha, q: int, slots, bad, watch) -> int:
    """Points (matrix tuple, framing tuple) with no invariant subspace tuple
    in bad and the framing tuple inside no invariant subspace tuple of watch."""
    fmasks = _framing_masks(alpha, slots, q, watch)
    total = q ** sum(alpha[i] for i in slots)
    nbad = len(bad)
    count = 0
    for weight, inv in _invariant_runs(fq, alpha, q, bad + watch):
        if inv and inv[0] < nbad:
            continue
        hit = 0
        for p in inv:
            hit |= fmasks[p - nbad]
        count += weight * (total - hit.bit_count())
    return count


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


def _check_budget(cfg: FiniteFieldConfig, fq: FramedQuiver, alpha, q: int,
                  cands, once: int = 0) -> None:
    """Refuse a kernel run whose work exceeds the budget: the normal-form
    matrix tuples it visits times the work per tuple, which is the streamed
    arrow's image pass (its source points and subspaces) plus one test per
    candidate tuple, plus any one-off work."""
    arrows = _arrow_list(fq)
    tuples = 1
    for i, j in arrows:
        entries = alpha[i] * alpha[j]
        free = entries - (i == j and entries > 0)  # a loop's (0, 0) entry is 0
        tuples *= (q ** free - 1) // (q - 1) + 1  # the nonzero normal forms and 0
    per_tuple = len(cands)
    if arrows:
        n = alpha[max(arrows, key=lambda a: alpha[a[0]] * alpha[a[1]])[0]]
        per_tuple += q ** n + len(_subspaces(q, n)[0])
    work = tuples * per_tuple + once
    if work > cfg.budget:
        extra = f" + {once} once" if once else ""
        raise BudgetError(
            f"budget exceeded: {tuples} matrix tuples x {per_tuple} work per tuple{extra} = "
            f"{work} > budget {cfg.budget} (set WALLCROSS_BUDGET to change it)")


def _check_dim(cfg: FiniteFieldConfig, alpha) -> None:
    if sum(alpha) > cfg.max_total_dim:
        raise BudgetError(f"budget exceeded: total dimension {sum(alpha)} > "
                          f"max_total_dim {cfg.max_total_dim}")


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
            resolve_side(find_walls(fq, theta, a, sum(a)), sp.c, sp.side)
    else:
        c_eff = None  # unframed slopes never see c

    target = theta_slope(theta, a, c_eff)

    # if no subclass could have a bigger slope, every point is semistable
    stars = (0, 1) if alpha.star else (0,)
    if not any(theta_slope(theta, d, c_eff if s else None) > target
               for d in sub_vectors(a) for s in stars
               if sum(d) + s and (d != a or s != alpha.star)):
        return Fraction(q ** entries, group)

    cands, dims = _candidates(a, q)
    _check_budget(cfg, fq, a, q, cands)
    bad = [cand for cand, d in zip(cands, dims)
           if sum(d) and theta_slope(theta, d) > target]
    # star 1: a subobject through the framing destabilizes the framing tuples inside it
    watch = [cand for cand, d in zip(cands, dims)
             if alpha.star and d != a and theta_slope(theta, d, c_eff) > target]
    return Fraction(_count_points(fq, a, q, slots, bad, watch), group)


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
        c_eff = resolve_side(find_walls(fq, theta, alpha, sum(alpha)), c, side)

    slots = _framing_slots(fq)
    cands, dims = _candidates(alpha, q)
    _check_budget(cfg, fq, alpha, q, cands)

    if c_eff is None:
        # plus infinity: no proper subobject may contain the framing
        bad = []
        watch = [cand for cand, d in zip(cands, dims) if d != alpha]
    else:
        target = theta_slope(theta, alpha, c_eff)
        # star-0 subobjects destabilize independently of the framing vector
        bad = [cand for cand, d in zip(cands, dims)
               if sum(d) and theta_slope(theta, d) >= target]
        watch = [cand for cand, d in zip(cands, dims)
                 if d != alpha and theta_slope(theta, d, c_eff) >= target]

    group = 1
    for ai in alpha:
        group *= gl_order(ai, q)
    return Fraction(_count_points(fq, alpha, q, slots, bad, watch), group)


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
    if cfg.q != q:
        raise ValueError("config and argument disagree on q")
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

    The subrepresentations of the quotient by S are the invariant tuples
    T containing S, of class dim T - dim S, and a framing tuple lies in
    T / S exactly when it lies in T; so both sides are read off the
    invariant tuples of the one kernel.
    """
    alpha = tuple(int(x) for x in alpha)
    cfg = cfg or FiniteFieldConfig(q)
    if cfg.q != q:
        raise ValueError("config and argument disagree on q")
    _check_dim(cfg, alpha)
    theta = tuple(Fraction(t) for t in theta)
    if c in (PLUS_INF, MINUS_INF):
        raise ValueError("hall_filtration_check needs a finite c")
    c = Fraction(c)
    slots = _framing_slots(fq)
    cands, dims = _candidates(alpha, q)
    # the right side's pre-pass compares every pair of candidate tuples
    _check_budget(cfg, fq, alpha, q, cands, once=len(cands) ** 2)

    target = theta_slope(theta, alpha, c)
    masks = [_subspaces(q, a)[1] for a in alpha]
    fm = _framing_masks(alpha, slots, q, cands)
    full = (1 << q ** sum(alpha[i] for i in slots)) - 1
    mu = {d: theta_slope(theta, d) for d in set(dims) if sum(d)}

    # left side: star-0 subobjects kill every framing tuple, star-1 ones
    # kill the framing tuples inside them
    bad = sum(1 << p for p, d in enumerate(dims) if sum(d) and mu[d] > target)
    watch = [f if d != alpha and theta_slope(theta, d, c) > target else 0
             for f, d in zip(fm, dims)]

    # right side: for each slope-matched S, the tuples T whose invariance
    # kills S, and the tuples T above S that kill the framing tuples inside
    c_minus = {}  # quotient class -> (its c-minus level, its slope there)
    right = []
    for p, (cand, d) in enumerate(zip(cands, dims)):
        if sum(d) and mu[d] != target:
            continue
        gamma = tuple(a - x for a, x in zip(alpha, d))
        if sum(gamma) and gamma not in c_minus:
            cm = resolve_side(find_walls(fq, theta, gamma, sum(gamma)), c, "minus")
            c_minus[gamma] = cm, theta_slope(theta, gamma, cm)
        cm, top = c_minus.get(gamma, (None, None))
        m_s = [ms[k] for ms, k in zip(masks, cand)]
        dead, above = 0, []
        for t, (other, e) in enumerate(zip(cands, dims)):
            m_t = [ms[k] for ms, k in zip(masks, other)]
            if sum(d) and sum(e) and mu[e] > mu[d] \
                    and all(x & ~y == 0 for x, y in zip(m_t, m_s)):
                dead |= 1 << t  # T inside S: S is not semistable
            elif sum(gamma) and all(y & ~x == 0 for x, y in zip(m_t, m_s)):
                # T above S: T / S is a subobject of the quotient, of class dd
                dd = tuple(x - y for x, y in zip(e, d))
                if sum(dd) and mu[dd] >= top:
                    dead |= 1 << t
                elif dd != gamma and theta_slope(theta, dd, cm) >= top:
                    above.append(t)
        right.append((p, dead, above))

    for _, inv in _invariant_runs(fq, alpha, q, cands):
        bits = 0
        for p in inv:
            bits |= 1 << p
        if bits & bad:
            sst = 0
        else:
            hit = 0
            for p in inv:
                hit |= watch[p]
            sst = full & ~hit
        once = twice = 0
        for p, dead, above in right:
            if not bits >> p & 1 or bits & dead:
                continue
            hit = 0
            for t in above:
                if bits >> t & 1:
                    hit |= fm[t]
            good = full & ~hit
            twice |= once & good
            once |= good
        if twice or once != sst:
            return False
    return True
