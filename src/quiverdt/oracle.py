"""Finite-field counting oracle.

Counts representations and framed representations of a quiver over F_q,
weighted by automorphisms, by direct enumeration of matrix tuples.  It
imports only quiver and stability, none of the series machinery, so its
numbers can certify series coefficients at L = q (hn.verify_coefficient).

count_stack, count_framed_stable and hall_filtration_check are predicates
over one kernel, _invariant_runs, which yields each set of arrow-invariant
subspace tuples that occurs, as a bitmask over the candidate tuples, with
the number of matrix tuples that have it.  The three share one path to it:
_config checks alpha and theta against the quiver and refuses a q that is
not a prime at most 5 and a class above the dimension cap, _flagged
returns the set of flagged classes, and the two counts take that set to
_points through one body, _count.

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
- A framed representation of class alpha is one of class (alpha, 1) of
  Q-hat (_hat), the quiver with the framing vertex made an ordinary last
  one of weight c, whose arrows out carry the framing vectors; so framed
  points are the points of Q-hat, counted by the same kernel.  Slopes
  depend on classes only, so _flagged tests each class (d, t) of Q-hat
  below the target once, before the matrix loop, by one key, its slope at
  c +- eps or at c = +-inf, and a point counts when no tuple of a flagged
  class is invariant.  The tuple of (alpha, 0) is invariant at every
  point, so with it flagged no point counts, and with no class flagged
  every point does; either way nothing is enumerated.
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
from functools import cache

from .quiver import FramedQuiver, Quiver, sub_vectors
from .stability import StabilityParams, check_alpha, check_theta, theta_slope

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


# ---- the enumeration kernel -------------------------------------------------

def _arrow_list(fq: FramedQuiver):
    return [(i, j) for i, row in enumerate(fq.base.arrows)
            for j, m in enumerate(row) for _ in range(m)]


def _hat(fq: FramedQuiver) -> FramedQuiver:
    """Q-hat: fq with its framing vertex made an ordinary last vertex, whose
    w_i arrows to i carry the framing vectors."""
    arrows = tuple(row + (0,) for row in fq.base.arrows) + (fq.w + (0,),)
    return FramedQuiver(Quiver(fq.n_vertices + 1, arrows), (0,) * (fq.n_vertices + 1))


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
                f |= f0
                joined[f] = joined.get(f, 0) + w0 * w
        fails = joined
    charge(len(fails) * len(cands), f"the pass over {len(fails)} sets of {len(cands)} tuples")
    full = (1 << len(cands)) - 1
    return [(w, full & ~f) for f, w in fails.items()]


# ---- the shared path of the entry points -------------------------------------

def _config(fq: FramedQuiver, q: int, alpha, theta):
    """(alpha, theta), both checked against fq; refuses a q that is not a
    prime at most 5 and a class above the dimension cap MAX_TOTAL_DIM."""
    alpha = check_alpha(fq, alpha)
    theta = check_theta(fq, theta)
    if q not in (2, 3, 5):
        raise ValueError(f"q must be a prime at most 5, not {q}")
    if sum(alpha) > MAX_TOTAL_DIM:
        raise BudgetError(f"budget exceeded: total dimension {sum(alpha)} > "
                          f"max_total_dim {MAX_TOTAL_DIM}")
    return alpha, theta


def _flagged(theta, alpha, star: int, c, side: str, semistable: bool) -> set:
    """The classes below the class (alpha, star) of Q-hat at level c, other
    than itself and 0, that destabilize it: classes d of Q for star 0, and
    classes d + (t,) of Q-hat for star 1.  A class destabilizes when its key
    is above the target's, or equal to it when stability rather than
    semistability is tested.  The key of (d, t) is its slope at c = c0 + k
    inf + s eps as the triple (t k/n, slope at c0, t s/n), n = |d| + t,
    compared lexicographically: k = +-1 at c = +-inf (c0 = 0 there), else
    0, and s = 0, 1, -1 on side exact, plus, minus, for every small eps > 0.
    With star 0, c and side are not read."""
    k, c0 = (0, c) if isinstance(c, Fraction) else (1 if c > 0 else -1, 0)
    s = {"exact": 0, "plus": 1, "minus": -1}[side]

    def key(d, t):
        n = sum(d) + t
        return Fraction(t * k, n), theta_slope(theta, d, c0 if t else None), Fraction(t * s, n)

    beats = operator.gt if semistable else operator.ge
    target = key(alpha, star)
    return {d + (t,) if star else d for d in sub_vectors(alpha) for t in range(star + 1)
            if sum(d) + t and (d, t) != (alpha, star) and beats(key(d, t), target)}


def _points(fq: FramedQuiver, alpha, q: int, flagged) -> int:
    """Points (matrix tuples) of class alpha with no invariant subspace tuple
    of a class in flagged.  With no class flagged every point counts, and
    nothing is enumerated."""
    if not flagged:
        return q ** sum(alpha[i] * alpha[j] for i, j in _arrow_list(fq))
    cands, dims = _candidates(alpha, q)
    runs = _invariant_runs(fq, alpha, q, [cand for cand, d in zip(cands, dims) if d in flagged])
    return sum(weight for weight, inv in runs if not inv)


# ---- the oracle entry points -------------------------------------------------

def _count(fq: FramedQuiver, alpha, theta, sp, q: int, star: int, semistable: bool) -> Fraction:
    """The points of class (alpha, star) of Q-hat that are semistable, or
    stable, at sp (every point when sp is "all"), over #GL_alpha.  With star
    1 they are the points of Q-hat at (alpha, 1), and none counts when
    (alpha, 0) is flagged: its tuple is invariant at every point."""
    flagged = set() if sp == "all" else _flagged(theta, alpha, star, sp.c, sp.side, semistable)
    group = math.prod(gl_order(ai, q) for ai in alpha)
    if star:
        if alpha + (0,) in flagged:
            return Fraction(0)
        fq, alpha = _hat(fq), alpha + (1,)
    return Fraction(_points(fq, alpha, q, flagged), group)


def count_stack(fq: FramedQuiver, alpha, sp, q: int, *, framed: bool = False) -> Fraction:
    """Weighted count sum 1/#Aut of (semi)stable representations of class alpha,
    or of framed class (alpha, 1) when framed is set.

    sp is "all" or StabilityParams.  Equals #points / #G by the orbit
    formula, G = prod GL_{a_i} times GL_1 at the framing vertex when framed.
    """
    if not isinstance(sp, StabilityParams) and sp != "all":
        raise TypeError("sp must be 'all' or StabilityParams")
    # "all" reads no theta: a zero one passes the check
    theta = (0,) * fq.n_vertices if sp == "all" else sp.theta
    alpha, theta = _config(fq, q, alpha, theta)
    if sum(alpha) == 0 and not framed:
        return Fraction(1)
    if framed and sp != "all" and not sp.is_finite():
        raise ValueError("semistable framed counting needs a finite c")
    count = _count(fq, alpha, theta, sp, q, int(framed), semistable=True)
    return count / (q - 1) if framed else count


def count_framed_stable(fq: FramedQuiver, alpha, theta, c, side: str, q: int) -> Fraction:
    """Weighted count of Z_c-stable framed representations of class (alpha, 1).

    Automorphisms fix the framing pointwise, so on stable objects they are
    trivial and the weighted count is #points / #GL_alpha: the number of
    F_q-points of the stable moduli space.  At -inf and at every level below
    the walls of a nonzero alpha, (alpha, 0) is flagged and 0 is returned
    with no enumeration.
    """
    sp = StabilityParams(theta, c, side)
    alpha, theta = _config(fq, q, alpha, sp.theta)
    return _count(fq, alpha, theta, sp, q, 1, semistable=False)


# ---- counting-level wall-crossing check -------------------------------------

def hall_filtration_check(fq: FramedQuiver, alpha, theta, c, q: int) -> bool:
    """Check, point by point, that a framed representation is c-semistable
    exactly when it has a unique filtration: a slope-matched semistable
    unframed subrepresentation with a c-minus-stable framed quotient.

    On Q-hat the subrepresentation is a tuple S of class (d, 0), and the
    subobjects of the quotient by S are the invariant tuples T above S, of
    class (class of T) - (d, 0); so both sides are read off the invariant
    tuples of one kernel run on Q-hat at (alpha, 1), which is handed only
    the tuples of the classes read.
    """
    sp = StabilityParams(theta, c)
    alpha, theta = _config(fq, q, alpha, sp.theta)
    if not sp.is_finite():
        raise ValueError("hall_filtration_check needs a finite c")
    c, top = sp.c, alpha + (1,)  # top: the class of Q-hat
    target = theta_slope(theta, alpha, c)

    # left side, the classes the framed count_stack flags
    flagged = _flagged(theta, alpha, 1, c, "exact", semistable=True)
    # right side: each slope-matched class of S, and the classes whose
    # invariant tuples kill S: inside S with a greater slope (S is not
    # semistable), or above S with T / S flagged for the quotient's c-minus
    # stability
    kills = {}
    for d in sub_vectors(alpha):
        if sum(d) and theta_slope(theta, d) != target:
            continue
        gamma = tuple(a - x for a, x in zip(alpha, d))
        inside = {e + (0,) for e in sub_vectors(d)
                  if sum(e) and theta_slope(theta, e) > theta_slope(theta, d)}
        above = _flagged(theta, gamma, 1, c, "minus", semistable=False)
        kills[d + (0,)] = inside | {tuple(map(operator.add, d + (0,), e)) for e in above}
    read = flagged | kills.keys() | set().union(*kills.values())
    cands, dims = zip(*[(cand, d) for cand, d in zip(*_candidates(top, q))
                        if d in read])
    # priced with the kernel as every pair of candidates, the pre-pass below
    # compares each candidate S with every candidate
    runs = _invariant_runs(_hat(fq), top, q, cands, once=len(cands) ** 2)

    # a tuple's members, vertex by vertex, as one mask: T lies in S exactly
    # when T's mask lies in S's
    masks = [_subspaces(q, a)[1] for a in top]
    shifts = list(itertools.accumulate((q ** a for a in top), initial=0))
    members = [sum(ms[k] << s for ms, k, s in zip(masks, cand, shifts)) for cand in cands]
    bad = sum(1 << p for p, d in enumerate(dims) if d in flagged)
    # each S with the tuples that kill it; a killing class is smaller or
    # larger than S's, so a comparable tuple of it lies inside or above S
    right = [(1 << p, sum(1 << t for t, (m_t, e) in enumerate(zip(members, dims))
                          if e in kills[d] and not (m_t & ~m_s and m_s & ~m_t)))
             for p, (m_s, d) in enumerate(zip(members, dims)) if d in kills]

    for _, bits in runs:
        filtrations = sum(1 for s, dead in right if bits & s and not bits & dead)
        if filtrations != (not bits & bad):
            return False
    return True
