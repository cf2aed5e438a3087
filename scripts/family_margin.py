#!/usr/bin/env python3
"""Positivity margins of Re((1-z^2)(h'+g')) for the dyadic family.

For each (alpha, n) the functional is evaluated through the exact
rational form of h'+g' (no truncation), and the table reports its
minimum over concentric rings up to --r-max.  The margin shrinks like
1 - r^(2^(n+1)) near the boundary, so the outermost ring dominates.

Passing --alpha-max beyond the family's bound is permitted here on
purpose: the functional keeps its sign past the endpoint 2(sqrt(2)-1),
up to the proved edge |alpha| <= sqrt(2).  (1-z^2)(h'+g') is
q_alpha(z^{2^(n-1)}), a sum of Herglotz kernels whose weights
(2 +- sqrt(2) alpha)/8 are nonnegative exactly there, for every n; this
is the family-residues route of the t3.8-t3.11 claims, whose premise is
the strict |alpha| < sqrt(2).  The family bound is an edge of those claims,
not a check on the maps: hmap.family_f_alpha_n builds any alpha in
(-2, 2), and harmconv runs the rows past the bound as exploratory.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from harmconv.convo import RationalFunction
from harmconv.cpoly import ComplexPolynomial
from harmconv.hmap import EDGE_ATOL, FAMILY_ALPHA_MAX
from harmconv.series import family_sum_polynomials


def functional_min(alpha: float, n: int, radii: np.ndarray, angles: int) -> float:
    num, den = family_sum_polynomials(n, alpha)
    rf = RationalFunction(ComplexPolynomial(num[1:]), ComplexPolynomial(den))
    ring = np.exp(2j * np.pi * np.arange(angles) / angles)
    low = np.inf
    for r in radii:
        z = r * ring
        low = min(low, float(np.min(np.real((1.0 - z * z) * rf(z)))))
    return low


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha-max", type=float, default=FAMILY_ALPHA_MAX)
    parser.add_argument("--alpha-steps", type=int, default=9)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--r-max", type=float, default=0.99)
    parser.add_argument("--rings", type=int, default=12)
    parser.add_argument("--angles", type=int, default=1440)
    args = parser.parse_args()

    alphas = np.linspace(-args.alpha_max, args.alpha_max, args.alpha_steps)
    radii = np.linspace(args.r_max / args.rings, args.r_max, args.rings)
    ns = range(1, args.n_max + 1)

    print(f"min Re((1-z^2)(h'+g')) over rings r <= {args.r_max:g}")
    print("  alpha   " + "".join(f"  n={n:<10d}" for n in ns))
    for alpha in alphas:
        cells = "".join(
            f"{functional_min(float(alpha), n, radii, args.angles):+12.4e} " for n in ns
        )
        tag = "" if abs(alpha) <= FAMILY_ALPHA_MAX + EDGE_ATOL else "  (outside interval)"
        print(f"  {alpha:+.4f} {cells}{tag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
