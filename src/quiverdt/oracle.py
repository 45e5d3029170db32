"""Finite-field counting oracle.

Counts representations and framed representations of a quiver over F_q,
weighted by automorphisms, by direct enumeration of matrix tuples.  Entirely
independent of the series machinery, so its numbers can certify series
coefficients at L = q via verify_coefficient.

count_stack, count_framed_stable and hall_filtration_check are predicates
over one kernel, _invariant_runs, which yields each set of arrow-invariant
subspace tuples that occurs, as a bitmask over the candidate tuples, with
the number of matrix tuples that have it.  The three share one path to it:
_config checks alpha and theta against the quiver and refuses a q that is
not a prime at most 5 and a class above the dimension cap, _slope_tests
reads c-plus and c-minus as c + eps and c - eps, and the two counts go
through _points.

- The points of F_q^n are numbered in itertools.product order, and each
  subspace is stored as the int bitmask of its members.
- A subspace tuple is invariant when every arrow i -> j maps each echelon
  basis vector of its subspace at i into its subspace at j.  An echelon
  basis vector is a normalized point (its first nonzero coordinate is 1),
  so a matrix is known on every candidate through the images of these
  points.  Once per run, after the budget has accepted its walk, each
  arrow gets fail tables: Z[b][y] is the bitmask of the candidates with b
  in the basis of their subspace at i and y outside their subspace at j.
  A matrix's fail mask is the OR of Z[b][image of b] over the points b,
  and a matrix tuple's invariant candidates are those outside the OR of
  its arrows' fail masks.
- A subspace tuple is invariant under M exactly when it is invariant under
  lam M for lam != 0, and, for a loop, under M + mu I.  So each arrow walks
  one normal form per class {lam M + mu I}: the first nonzero entry in
  column order is 1, and a loop's entry (0, 0) is 0.  A normal form stands
  for its class, q - 1 matrices if it is nonzero and 1 if not, times q for a
  loop, and the weights of one shape sum to q^(mn).  The walk adds the
  columns one by one to carry-free codes of the points' images: column k
  moves only the points with a nonzero k-th coordinate, and a point's table
  is read as soon as its last nonzero coordinate's column is in.
- Each arrow's walk tallies its class sizes per fail mask, and the arrows'
  tallies are joined by OR with the sizes multiplied, so matrix tuples
  with the same fail mask are handled once.
- Slopes depend on dimension vectors only, so the slope tests are decided
  once per class d <= alpha before the matrix loop, reading each slope
  through one cache per call.  A nonzero class is bad when its unframed
  subobjects destabilize every point, and a proper class is watched when
  its framed subobjects destabilize the framing tuples inside them; with
  no class of either kind, every point counts and nothing is enumerated.
- A tuple of framing vectors is a point of the product of the framed
  vertices' spaces.  The framing tuples inside a subspace tuple form the
  product of its member masks, so stable framing points are counted by
  popcount and weighted by the number of matrix tuples.
- The budget, a fixed BUDGET of 10^8 steps, is spent stage by stage,
  each stage priced as soon as its size is known and refused before it
  runs (see _invariant_runs): each distinct arrow's walk from its normal
  forms and tables, each join from the two tally sizes, and the pass over
  the invariant sets from their count, after any one-off work of the
  caller (hall_filtration_check's pairs of candidates).
"""

import itertools
import math
import operator
from fractions import Fraction
from functools import cache, partial

from .quiver import FramedQuiver, sub_vectors
from .scalar import Scalar
from .stability import (MINUS_INF, PLUS_INF, StabilityParams, check_alpha,
                        check_theta, theta_slope)

BUDGET = 10 ** 8
MAX_TOTAL_DIM = 4


class BudgetError(RuntimeError):
    pass


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


@cache
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


@cache
def _sum_tables(q: int, m: int):
    """Carry-free addition in F_q^m: (scaled, norm, index).

    A point is coded by its coordinates as digits in base 2q - 1, so two
    codes add without carries.  scaled[p] holds the codes of t * (point p)
    for t in range(q); for a sum s of two codes, norm[s] is the code and
    index[s] the index of the reduced point.  Each table has at most
    (2q - 1)^m entries.
    """
    base = 2 * q - 1
    scaled = tuple(tuple(_index([t * x % q for x in p], base) for t in range(q))
                   for p in itertools.product(range(q), repeat=m))
    norm, index = [], []
    for digits in itertools.product(range(base), repeat=m):
        reduced = [x % q for x in digits]
        norm.append(_index(reduced, base))
        index.append(_index(reduced, q))
    return scaled, norm, index


def _fail_tables(q: int, alpha, cands, i: int, j: int):
    """The tables Z of an arrow i -> j: Z[b][y] is the bitmask of the
    candidates whose subspace at i has the point b in its echelon basis and
    whose subspace at j misses the point y.  Only the points b with a
    nonzero row are keys."""
    bases = _subspaces(q, alpha[i])[2]
    masks = _subspaces(q, alpha[j])[1]
    size = q ** alpha[j]
    Z = {}
    for p, cand in enumerate(cands):
        missed = [y for y in range(size) if not masks[cand[j]] >> y & 1]
        if missed:
            for b in bases[cand[i]]:
                row = Z.setdefault(b, [0] * size)
                for y in missed:
                    row[y] |= 1 << p
    return Z


def _fail_runs(q: int, m: int, n: int, loop: bool, Z):
    """The normal-form walk: for every normal-form matrix F_q^n -> F_q^m (a
    loop's when loop is set), in column-tuple order, (weight, fail).  The
    weight is the size of the matrix's class {lam M + mu I}, and fail is the
    OR of Z[b][image of b] over the points b keyed in Z."""
    if n == 0:
        yield 1, 0
        return
    scaled, norm, index = _sum_tables(q, m)
    points = list(itertools.product(range(q), repeat=m))
    # (first column, nonzero entry seen) -> the allowed columns, in point
    # order, each with whether a nonzero entry has been seen after it
    choices = {(first, seen): [(us, seen or any(p)) for p, us in zip(points, scaled)
                               if (seen or next((x for x in p if x), 1) == 1)
                               and not (loop and first and p[0])]
               for first in (False, True) for seen in (False, True)}
    shift = q if loop else 1
    coords = list(itertools.product(range(q), repeat=n))
    walked = [coords[b] for b in Z]
    last = [max(k for k, x in enumerate(b) if x) for b in walked]
    # Z[b] read at a sum of two codes, so that b's table is read as its last
    # column is added, with no reduction
    tables = [[row[y] for y in index] for row in Z.values()]
    # per column k, the points with a nonzero k-th coordinate: those with a
    # later one move their partial image on, the others read their table
    move = [[(s, b[k]) for s, b in enumerate(walked) if b[k] and last[s] > k]
            for k in range(n)]
    done = [[(tables[s], s, b[k]) for s, b in enumerate(walked) if last[s] == k]
            for k in range(n)]

    def prefixes(k, codes, fail, seen):
        # columns 0 .. k - 1 chosen: the codes of the partial images of the
        # walked points, and the OR of the tables read so far
        if k == n - 1:
            yield codes, fail, seen
            return
        for us, now in choices[k == 0, seen]:
            f = fail
            for table, s, t in done[k]:
                f |= table[codes[s] + us[t]]
            moved = codes.copy()
            for s, t in move[k]:
                moved[s] = norm[codes[s] + us[t]]
            yield from prefixes(k + 1, moved, f, now)

    for codes, fail, seen in prefixes(0, [0] * len(walked), 0, False):
        reads = [(table, codes[s], t) for table, s, t in done[n - 1]]
        for us, now in choices[n == 1, seen]:
            f = fail
            for table, x, t in reads:
                f |= table[x + us[t]]
            yield (q - 1 if now else 1) * shift, f


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


def _invariant_runs(fq: FramedQuiver, alpha, q: int, cands, once: int = 0) -> list:
    """The one enumeration kernel: for each set of arrow-invariant tuples
    that occurs among the matrix tuples of class alpha, (weight, the bitmask
    of their positions in cands), the weight being the number of matrix
    tuples with exactly these invariant tuples.

    Each arrow walks its normal forms once, tallying the class sizes per
    fail mask; a matrix tuple fails the union of its arrows' fail masks.
    Each stage is priced against BUDGET before it runs, starting from the
    caller's one-off work once: an arrow's walk, one step per normal form
    and table it may read there, plus its tables;
    each join, one step per pair of tally entries; and the pass over the
    sets that follows, one step per set and candidate.
    """
    spent = once

    def charge(work: int, what: str) -> None:
        nonlocal spent
        if spent + work > BUDGET:
            raise BudgetError(f"budget exceeded: {spent} steps so far + {work} for {what} = "
                              f"{spent + work} > budget {BUDGET}")
        spent += work

    fails = {0: 1}  # fail mask -> matrix tuples of the arrows so far
    tallies = {}
    for i, j in _arrow_list(fq):
        if (i, j) not in tallies:
            n, m = alpha[i], alpha[j]
            free = m * n - (i == j and m * n > 0)  # a loop's (0, 0) entry is 0
            forms = (q ** free - 1) // (q - 1) + 1  # nonzero ones up to scaling, and 0
            tables = (q ** n - 1) // (q - 1)  # the normalized points of F_q^n
            # the fail tables: a bit per candidate, basis point and image, then
            # one entry per table and sum of two codes; the walk reads a table
            # at most once per normal form
            charge(len(cands) * n * q ** m + tables * ((2 * q - 1) ** m + forms),
                   f"the walk of arrow {i} -> {j} over {forms} normal forms")
            tally = tallies[i, j] = {}
            Z = _fail_tables(q, alpha, cands, i, j)
            for w, f in _fail_runs(q, m, n, i == j, Z):
                tally[f] = tally.get(f, 0) + w
        tally = tallies[i, j]
        charge(len(fails) * len(tally), f"the join of {len(fails)} x {len(tally)} fail masks")
        joined = {}
        for f0, w0 in fails.items():
            for f, w in tally.items():
                joined[f0 | f] = joined.get(f0 | f, 0) + w0 * w
        fails = joined
    charge(len(fails) * len(cands), f"the pass over {len(fails)} sets of {len(cands)} tuples")
    full = (1 << len(cands)) - 1
    return [(w, full & ~f) for f, w in fails.items()]


def _union(masks, bits: int) -> int:
    """The OR of masks[p] over the set bits p of bits."""
    out = 0
    while bits:
        low = bits & -bits
        out |= masks[low.bit_length() - 1]
        bits ^= low
    return out


# ---- the shared path of the entry points -------------------------------------

def _config(fq: FramedQuiver, q: int, alpha, theta):
    """(alpha, theta), both checked against fq; refuses a q that is not a
    prime at most 5 and a class above the dimension cap MAX_TOTAL_DIM."""
    alpha = check_alpha(fq, alpha)
    theta = check_theta(fq, theta)
    if q not in (2, 3, 5):
        raise ValueError("q must be a prime at most 5")
    if sum(alpha) > MAX_TOTAL_DIM:
        raise BudgetError(f"budget exceeded: total dimension {sum(alpha)} > "
                          f"max_total_dim {MAX_TOTAL_DIM}")
    return alpha, theta


def _never(d) -> bool:
    return False


def _slope_tests(slope, theta, alpha, c, side: str, semistable: bool):
    """(bad_if, watch_if) for the class (alpha, 1) at level c + s eps, or
    alpha alone when c is None: a class destabilizes when its slope is above
    alpha's, or equal to it when stability rather than semistability is
    tested.  s is 0, 1 or -1 on side exact, plus or minus, for every small
    eps > 0: a framed class (d, 1) gains s eps / (|d| + 1) and an unframed
    one nothing, so the tests compare the pairs (slope at c, eps-coefficient)
    lexicographically.  slope is the entry point's cached unframed slope."""
    beats = operator.gt if semistable else operator.ge
    if c is None:
        target = slope(alpha)
        return (lambda d: beats(slope(d), target)), _never
    s = {"exact": 0, "plus": 1, "minus": -1}[side]
    # once per class
    framed = cache(lambda d: (theta_slope(theta, d, c), Fraction(s, sum(d) + 1)))
    target = framed(alpha)
    return (lambda d: beats((slope(d), 0), target)), (lambda d: beats(framed(d), target))


def _flagged(alpha, bad_if, watch_if):
    """The nonzero classes d <= alpha with bad_if(d) and the proper ones with
    watch_if(d): each slope test is decided once per class."""
    subs = list(sub_vectors(alpha))
    return ({d for d in subs if sum(d) and bad_if(d)},
            {d for d in subs if d != alpha and watch_if(d)})


def _points(fq: FramedQuiver, alpha, q: int, slots, bad_if, watch_if) -> int:
    """Points (matrix tuple, framing tuple) of class alpha with no invariant
    subspace tuple of a bad class, and the framing tuple inside no invariant
    subspace tuple of a watched class.  With no class flagged every point
    counts, and nothing is enumerated."""
    bad_dims, watch_dims = _flagged(alpha, bad_if, watch_if)
    if not bad_dims and not watch_dims:
        return q ** (sum(alpha[i] * alpha[j] for i, j in _arrow_list(fq))
                     + sum(alpha[i] for i in slots))
    cands, dims = _candidates(alpha, q)
    bad = [cand for cand, d in zip(cands, dims) if d in bad_dims]
    watch = [cand for cand, d in zip(cands, dims) if d in watch_dims]
    runs = _invariant_runs(fq, alpha, q, bad + watch)
    fmasks = _framing_masks(alpha, slots, q, watch)
    total = q ** sum(alpha[i] for i in slots)
    nbad = len(bad)
    count = 0
    for weight, inv in runs:
        if not inv & ((1 << nbad) - 1):
            count += weight * (total - _union(fmasks, inv >> nbad).bit_count())
    return count


# ---- the oracle entry points -------------------------------------------------

def count_stack(fq: FramedQuiver, alpha, sp, q: int, *, framed: bool = False) -> Fraction:
    """Weighted count sum 1/#Aut of (semi)stable representations of class alpha,
    or of framed class (alpha, 1) when framed is set.

    sp is "all" or StabilityParams.  Equals #points / #G by the orbit
    formula, G = prod GL_{a_i} times GL_1 at the framing vertex when framed.
    """
    # "all" reads no theta: a zero one passes the check
    theta = sp.theta if isinstance(sp, StabilityParams) else (0,) * fq.n_vertices
    alpha, theta = _config(fq, q, alpha, theta)
    if sum(alpha) == 0 and not framed:
        return Fraction(1)
    if sp == "all":
        tests = _never, _never
    elif not isinstance(sp, StabilityParams):
        raise TypeError("sp must be 'all' or StabilityParams")
    elif framed and not sp.is_finite():
        raise ValueError("semistable framed counting needs a finite c")
    else:
        # unframed slopes never see c; framed: a subobject through the
        # framing destabilizes the framing tuples inside it
        slope = cache(partial(theta_slope, theta))  # once per class
        tests = _slope_tests(slope, theta, alpha, sp.c if framed else None, sp.side,
                             semistable=True)
    slots = _framing_slots(fq) if framed else []
    group = math.prod(gl_order(ai, q) for ai in alpha) * (q - 1 if framed else 1)
    return Fraction(_points(fq, alpha, q, slots, *tests), group)


def count_framed_stable(fq: FramedQuiver, alpha, theta, c, side: str, q: int) -> Fraction:
    """Weighted count of Z_c-stable framed representations of class (alpha, 1).

    Automorphisms fix the framing pointwise, so on stable objects they are
    trivial and the weighted count is #points / #GL_alpha: the number of
    F_q-points of the stable moduli space.
    """
    sp = StabilityParams(theta, c, side)
    alpha, theta = _config(fq, q, alpha, sp.theta)
    if sp.c == MINUS_INF:
        # the only minus-infinity stable object is the bare framing line
        return Fraction(1) if sum(alpha) == 0 else Fraction(0)
    if sum(alpha) == 0:
        return Fraction(1)
    if sp.c == PLUS_INF:
        # plus infinity: no proper subobject may contain the framing
        tests = _never, (lambda d: True)
    else:
        # (alpha, 0) or (0, 1) is always flagged, since the slope of
        # (alpha, 1) is a weighted mean of theirs: this count always enumerates
        slope = cache(partial(theta_slope, theta))  # once per class
        tests = _slope_tests(slope, theta, alpha, sp.c, sp.side, semistable=False)
    group = math.prod(gl_order(ai, q) for ai in alpha)
    return Fraction(_points(fq, alpha, q, _framing_slots(fq), *tests), group)


def verify_coefficient(series_coeff: Scalar, count, q: int, *, chi: int = 0) -> bool:
    """Strip the (-v)^chi normalization carried by the series, evaluate at
    L = q, compare exactly."""
    return series_coeff.times_neg_v_pow(-chi).specialize_L(q) == Fraction(count)


# ---- counting-level wall-crossing check -------------------------------------

def hall_filtration_check(fq: FramedQuiver, alpha, theta, c, q: int) -> bool:
    """Check, point by point, that a framed representation is c-semistable
    exactly when it has a unique filtration: a slope-matched semistable
    unframed subrepresentation with a c-minus-stable framed quotient.

    The subrepresentations of the quotient by S are the invariant tuples
    T containing S, of class dim T - dim S, and a framing tuple lies in
    T / S exactly when it lies in T; so both sides are read off the
    invariant tuples of the one kernel.
    """
    sp = StabilityParams(theta, c)
    alpha, theta = _config(fq, q, alpha, sp.theta)
    if not sp.is_finite():
        raise ValueError("hall_filtration_check needs a finite c")
    c = sp.c
    slots = _framing_slots(fq)
    cands, dims = _candidates(alpha, q)
    # priced with the kernel, the right side's pre-pass below compares every
    # pair of candidate tuples
    runs = _invariant_runs(fq, alpha, q, cands, once=len(cands) ** 2)

    target = theta_slope(theta, alpha, c)
    slope = cache(partial(theta_slope, theta))  # once per class
    # a tuple's members, vertex by vertex, as one mask: T lies in S exactly
    # when T's mask lies in S's
    masks = [_subspaces(q, a)[1] for a in alpha]
    shifts = list(itertools.accumulate((q ** a for a in alpha), initial=0))
    members = [sum(ms[k] << s for ms, k, s in zip(masks, cand, shifts)) for cand in cands]
    sizes = [sum(d) for d in dims]
    fm = _framing_masks(alpha, slots, q, cands)
    full = (1 << q ** sum(alpha[i] for i in slots)) - 1

    # left side, the classes count_stack flags: star-0 subobjects kill every
    # framing tuple, star-1 ones kill the framing tuples inside them
    bad_classes, watch_classes = _flagged(
        alpha, *_slope_tests(slope, theta, alpha, c, "exact", semistable=True))
    bad = sum(1 << p for p, d in enumerate(dims) if d in bad_classes)
    watch = [f if d in watch_classes else 0 for f, d in zip(fm, dims)]

    # right side: for each slope-matched S, the tuples T whose invariance
    # kills S, and the tuples T above S that kill the framing tuples inside
    quotient = {}  # quotient class -> the classes its c-minus stability flags
    right = []
    for p, (m_s, d, n_d) in enumerate(zip(members, dims, sizes)):
        if n_d and slope(d) != target:
            continue
        gamma = tuple(a - x for a, x in zip(alpha, d))
        if sum(gamma) and gamma not in quotient:
            quotient[gamma] = _flagged(gamma, *_slope_tests(
                slope, theta, gamma, c, "minus", semistable=False))
        bad_q, watch_q = quotient.get(gamma, ((), ()))
        dead = above = 0
        for t, (m_t, e, n_e) in enumerate(zip(members, dims, sizes)):
            if n_d and n_e and slope(e) > slope(d) and not m_t & ~m_s:
                dead |= 1 << t  # T inside S: S is not semistable
            elif sum(gamma) and not m_s & ~m_t:
                # T above S: T / S is a subobject of the quotient, of class dd
                dd = tuple(x - y for x, y in zip(e, d))
                if dd in bad_q:
                    dead |= 1 << t
                elif dd in watch_q:
                    above |= 1 << t
        right.append((1 << p, dead, above))

    for _, bits in runs:
        sst = 0 if bits & bad else full & ~_union(watch, bits)
        once = twice = 0
        for s, dead, above in right:
            if not bits & s or bits & dead:
                continue
            good = full & ~_union(fm, bits & above)
            twice |= once & good
            once |= good
        if twice or once != sst:
            return False
    return True
