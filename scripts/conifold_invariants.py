"""Tabulate the DT invariants of the resolved conifold quiver.

Prints Omega_alpha up to a chosen total dimension, runs the sign
diagnostic (substituting v -> -v must leave nonnegative integer
coefficients), and finishes with the euler-limit transfer series: the
transfer series of B_U read at v = 1.
"""

import argparse

from quiverdt.quiver import conifold_quiver
from quiverdt.hn import universal_for
from quiverdt.wallcross import dt_omega, transfer_series


def flipped_coeffs(value):
    """Coefficients of value(-v), low degree first; value must be a polynomial."""
    if len(value.den) > 1:
        raise ValueError(f"not a polynomial: {value}")
    lead = value.den[0]
    return [(c if k % 2 == 0 else -c) / lead for k, c in enumerate(value.num)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trunc", "-N", type=int, default=8)
    args = ap.parse_args()

    fq = conifold_quiver()
    bu = universal_for(fq, args.trunc)
    omega = dt_omega(bu.series)

    print(f"# Omega table, total dimension <= {args.trunc}")
    clean = True
    for alpha in sorted(omega.coeffs, key=lambda a: (sum(a), a)):
        value = omega.coeffs[alpha]
        flips = flipped_coeffs(value)
        ok = all(c >= 0 and c.denominator == 1 for c in flips)
        clean &= ok
        tag = "" if ok else "  <- SIGN DIAGNOSTIC FAILED"
        print(f"{','.join(map(str, alpha))}\t{value}{tag}")
    print(f"# sign diagnostic: {'clean' if clean else 'FAILED'}")

    print("# euler-limit transfer series")
    for key, c in transfer_series(bu.series).terms():
        print(f"{','.join(map(str, key))}\t{c.specialize()}")


if __name__ == "__main__":
    main()
