"""Stability data: slopes, wall enumeration, and concrete c-plus/minus values.

The stability function is Z_c = -d + i r with d(alpha, star) = theta.alpha
+ c star and r = |alpha| + star.  A wall for alpha is a parameter c where
some proper nonzero class below (alpha, 1) shares its slope; between walls
every slope comparison is constant, so c-plus and c-minus can be realized
as exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .quiver import ExtDimVector, FramedQuiver, Record, sub_vectors

PLUS_INF = float("inf")
MINUS_INF = float("-inf")

SIDES = ("exact", "plus", "minus")


class StabilityParams(Record):
    __slots__ = ("theta", "c", "side")  # c: Fraction or one of the infinities

    def __init__(self, theta, c=Fraction(0), side: str = "exact"):
        theta = tuple(Fraction(t) for t in theta)
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if c in (PLUS_INF, MINUS_INF):
            if side != "exact":
                raise ValueError("side tags need a finite c")
            c = float(c)
        else:
            c = Fraction(c)
        self._set(theta=theta, c=c, side=side)

    def is_finite(self) -> bool:
        return isinstance(self.c, Fraction)


class WallList(Record):
    __slots__ = ("alpha", "walls")  # walls strictly increasing Fractions

    def __init__(self, alpha, walls):
        self._set(walls=tuple(sorted(set(Fraction(w) for w in walls))), alpha=tuple(alpha))


def theta_slope(theta, d, c=None) -> Fraction:
    """(theta.d)/|d| for a class of star 0; (theta.d + c)/(|d| + 1) for star 1.

    c is None for star 0 and a finite rational for star 1.  The caller
    keeps the zero class of star 0 away.
    """
    num = sum(Fraction(t) * x for t, x in zip(theta, d))
    den = sum(d)
    if c is not None:
        num += c
        den += 1
    return Fraction(num, den)


def slope(sp: StabilityParams, a: ExtDimVector) -> Fraction:
    """mu_c(alpha, star) = (theta.alpha + c star)/(|alpha| + star)."""
    if sum(a.unframed) + a.star == 0:
        raise ValueError("slope of the zero class")
    if a.star and not sp.is_finite():
        raise ValueError("framed slope needs a finite c")
    return theta_slope(sp.theta, a.unframed, sp.c if a.star else None)


def find_walls(fq: FramedQuiver, theta, alpha, trunc: int) -> WallList:
    """All c where some 0 < beta < (alpha, 1) matches the slope of (alpha, 1).

    For each such beta = (b, s) the matching condition is linear in c with
    nonzero leading coefficient s|alpha| - |b|, so each class contributes
    exactly one wall; the collected set is finite.
    """
    alpha = tuple(alpha)
    if sum(alpha) > trunc:
        raise ValueError("alpha outside the truncation region")
    theta = tuple(Fraction(t) for t in theta)
    ta = sum(t * a for t, a in zip(theta, alpha))
    na = sum(alpha)
    walls = set()
    for b in sub_vectors(alpha):
        nb = sum(b)
        tb = sum(t * x for t, x in zip(theta, b))
        for s in (0, 1):
            if (nb == 0 and s == 0) or (b == alpha and s == 1):
                continue
            denom = s * na - nb
            # denom = 0 would force beta = 0 or beta = (alpha, 1), both excluded
            walls.add(Fraction(ta * (nb + s) - tb * (na + 1), denom))
    return WallList(alpha, tuple(sorted(walls)))


def resolve_side(walls: WallList, c, side: str) -> Fraction:
    """A concrete rational realizing c-plus or c-minus for the given wall set.

    Step size: half the gap to the nearest distinct wall; with no other wall
    in sight, 1/2 if c itself is a wall and 1 otherwise.  Either way the open
    interval between c and the result contains no wall, so every slope
    comparison in the region is constant on it.
    """
    c = Fraction(c)
    if side not in ("plus", "minus"):
        raise ValueError("resolve_side takes side plus or minus")
    gaps = [abs(w - c) for w in walls.walls if w != c]
    if gaps:
        delta = min(gaps) / 2
    else:
        delta = Fraction(1, 2) if c in walls.walls else Fraction(1)
    return c + delta if side == "plus" else c - delta
