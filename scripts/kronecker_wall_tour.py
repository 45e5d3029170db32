"""Walk the framed Kronecker series across its walls.

For theta = (1, 0) and the class (1, 1) the critical levels are -1, 1/2,
and 2.  The script prints the framed series on each side of every wall
(restricted to the slope class the wall belongs to), checks that
general_wallcross carries either side onto the series at the wall, and
ends with the smooth-model motives of the small classes.
"""

import argparse

from quiverdt.quiver import kronecker_quiver
from quiverdt.hn import universal_for
from quiverdt.stability import find_walls, theta_slope
from quiverdt.wallcross import framed_at, general_wallcross, smooth_model_motive


def show(label, series):
    body = ", ".join(f"x^({','.join(map(str, k))}): {c}"
                     for k, c in series.terms())
    print(f"{label}: {body}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trunc", "-N", type=int, default=4)
    args = ap.parse_args()

    fq = kronecker_quiver()
    theta = (1, 0)
    N = args.trunc
    bu = universal_for(fq, N)

    walls = find_walls(fq, theta, (1, 1))
    print(f"# walls for (1, 1): {' '.join(str(w) for w in walls)}")

    for c in walls:
        # the slope the framed class (1, 1, 1) sits on at this wall
        mu = theta_slope(theta, (1, 1), c)
        print(f"\n== wall c = {c}, slope class {mu}")
        below = framed_at(bu, theta, c, "minus", mu)
        exact = framed_at(bu, theta, c, "exact", mu)
        above = framed_at(bu, theta, c, "plus", mu)
        show("  below", below.series)
        show("  at   ", exact.series)
        show("  above", above.series)
        lhs = general_wallcross(below, bu, "exact").series
        rhs = general_wallcross(above, bu, "exact").series
        print(f"  crossing products agree: {lhs == exact.series == rhs}")

    print("\n# smooth-model motives")
    for alpha in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        if sum(alpha) > N:
            continue
        m = smooth_model_motive(bu, theta, alpha)
        print(f"{','.join(map(str, alpha))}\t{m}")


if __name__ == "__main__":
    main()
