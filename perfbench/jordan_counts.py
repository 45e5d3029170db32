"""Library job: finite-field counts of stable framed Jordan-quiver representations.

At theta = 0, c = 0, side plus, a framed representation of the Jordan quiver
(one loop, framing 1) of dimension n is stable when the framing vector
generates it under the loop, and there are q^n such points over F_q up to
GL_n.  Prints one row `n q count` per case and exits 1 on a mismatch.
"""

import sys
from fractions import Fraction

from quiverdt.oracle import count_framed_stable
from quiverdt.quiver import jordan_quiver


def main() -> int:
    fq = jordan_quiver()
    bad = 0
    for q in (2, 3):
        for n in (1, 2, 3):
            count = count_framed_stable(fq, (n,), (Fraction(0),), Fraction(0), "plus", q)
            print(f"{n}\t{q}\t{count}")
            bad += count != q ** n
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
