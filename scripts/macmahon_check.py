"""Compare the three-loop cyclic series with direct plane-partition counts.

The euler specialization of the cyclic-stability series for the one-vertex
quiver with three loops enumerates plane partitions by size; this script
recomputes both sides independently and prints them next to each other.
"""

import argparse
import sys
from functools import lru_cache

from quiverdt.quiver import c3_quiver
from quiverdt.hn import universal_for
from quiverdt.wallcross import ncdt


def plane_partitions(n: int) -> int:
    """Number of plane partitions of n, by row-by-row enumeration."""

    def rows_under(bound, left):
        # nonempty weakly decreasing rows r with r[i] <= bound[i], sum(r) <= left
        for first in range(1, min(bound[0], left) + 1):
            yield (first,)
            if len(bound) > 1:
                for rest in rows_under((min(first, bound[1]),) + bound[2:], left - first):
                    yield (first,) + rest

    @lru_cache(maxsize=None)
    def fill(row_bound, left):
        if left == 0:
            return 1
        return sum(fill(row, left - sum(row)) for row in rows_under(row_bound, left))

    return fill((n,) * n, n) if n else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trunc", "-N", type=int, default=7)
    args = ap.parse_args()

    series = ncdt(universal_for(c3_quiver(), args.trunc))

    print("n\tseries\tdirect")
    mismatches = 0
    for n in range(args.trunc + 1):
        left = series.coeff((n,)).specialize()
        right = plane_partitions(n)
        mark = "" if left == right else "  <- MISMATCH"
        mismatches += left != right
        print(f"{n}\t{left}\t{right}{mark}")
    if mismatches:
        print(f"{mismatches} mismatches", file=sys.stderr)
        return 1
    print("# all values agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
