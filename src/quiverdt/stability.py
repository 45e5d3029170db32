"""Stability data: slopes, the caller's theta and class, and wall enumeration.

The stability function is Z_c = -d + i r with d(alpha, star) = theta.alpha
+ c star and r = |alpha| + star.  A wall for alpha is a parameter c where
some proper nonzero class below (alpha, 1) shares its slope; between walls
every slope comparison is constant.  The side tags plus and minus mean
c + eps and c - eps for every small eps > 0; no rational stands in for them
(the oracle compares slopes at c and their eps-coefficients).
"""

from collections.abc import Iterable
from fractions import Fraction

from .quiver import FramedQuiver, Record, int_entries, sub_vectors

PLUS_INF = float("inf")
MINUS_INF = float("-inf")

SIDES = ("exact", "plus", "minus")


class StabilityParams(Record):
    __slots__ = ("theta", "c", "side")  # c: Fraction or one of the infinities

    def __init__(self, theta, c=Fraction(0), side: str = "exact"):
        theta = _fractions(theta)
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, not {side!r}")
        if c in (PLUS_INF, MINUS_INF):
            if side != "exact":
                raise ValueError("side tags need a finite c")
            c = float(c)
        else:
            c = _exact(c, "level c")
        self._set(theta=theta, c=c, side=side)

    def is_finite(self) -> bool:
        return isinstance(self.c, Fraction)


def theta_slope(theta, d, c=None) -> Fraction:
    """(theta.d)/|d| for a class of star 0; (theta.d + c)/(|d| + 1) for star 1.

    c is None for star 0 and a finite rational for star 1.  theta holds
    ints or Fractions (check_theta's output); the caller keeps the zero
    class of star 0 away.
    """
    num = sum(t * x for t, x in zip(theta, d))
    den = sum(d)
    if c is not None:
        num += c
        den += 1
    return Fraction(num, den)


def _exact(x, what: str) -> Fraction:
    """x as a Fraction; a float that is not an integer is refused, since it
    stands for a binary fraction rather than the rational meant."""
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{what} {x!r} is not exact: give an int, a Fraction or 'p/q'")
    return Fraction(x)


def _fractions(theta) -> tuple:
    """theta as a tuple of exact Fractions; a value that lists no weights
    (None, a number, a string) is refused."""
    if isinstance(theta, str) or not isinstance(theta, Iterable):
        raise ValueError(f"theta must list one weight per vertex: got {theta!r}")
    return tuple(_exact(t, "theta weight") for t in theta)


def check_theta(fq: FramedQuiver, theta) -> tuple:
    """theta as Fractions, refused unless it lists one weight per vertex."""
    theta = _fractions(theta)
    if len(theta) != fq.n_vertices:
        raise ValueError(f"theta must list one weight per vertex: "
                         f"got {len(theta)} for {fq.n_vertices} vertices")
    return theta


def check_alpha(fq: FramedQuiver, alpha) -> tuple:
    """alpha as ints, refused unless it lists one nonnegative integer per vertex."""
    alpha = int_entries(alpha, "alpha")
    if len(alpha) != fq.n_vertices:
        raise ValueError(f"alpha must list one dimension per vertex: "
                         f"got {len(alpha)} for {fq.n_vertices} vertices")
    if any(a < 0 for a in alpha):
        raise ValueError(f"alpha {alpha} has a negative entry")
    return alpha


def find_walls(fq: FramedQuiver, theta, alpha) -> tuple:
    """All c where some 0 < beta < (alpha, 1) matches the slope of (alpha, 1),
    as an increasing tuple of Fractions.

    For each such beta = (b, s) the matching condition is linear in c with
    nonzero leading coefficient s|alpha| - |b|, so each class contributes
    exactly one wall; the collected set is finite.
    """
    alpha = check_alpha(fq, alpha)
    theta = check_theta(fq, theta)
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
    return tuple(sorted(walls))
