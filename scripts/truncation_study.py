#!/usr/bin/env python3
"""Where the truncated series routes stop being trustworthy.

Three tables, all comparing a series-route quantity against its exact
closed form on rings |z| = r:

  1. series dilatation of f_{a,0} * (slanted half-plane map) vs the
     closed-form rational, omega = z;
  2. the same with omega = (b - z^2)/(1 - b z^2), whose poles at
     |z| = 1/sqrt(b) sit just outside the circle;
  3. series evaluation of Re((1-z^2)(h'+g')) for the dyadic family vs
     the exact rational.

Table 1 is benign at every radius.  Tables 2 and 3 are why the numeric
policy looks the way it does: with poles near the circle the division
g'/h' amplifies truncation catastrophically beyond r = 0.9 (the
concordance tests tie their sample radius to omega's pole moduli and
use N = 256), and the family functional at N = 128 is noise on the
0.99 ring, so positivity there is certified through the exact rational
instead.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from harmconv.convo import (
    RationalFunction,
    convolve,
    halfplane_convolution_dilatation,
)
from harmconv.cpoly import ComplexPolynomial
from harmconv.hmap import (
    dilatation_series,
    f_a_alpha,
    family_f_alpha_n,
    slanted_halfplane,
)
from harmconv.series import family_sum_polynomials

ORDERS = (64, 128, 256, 512)
RADII = (0.5, 0.9, 0.95, 0.99)


def ring(r: float, count: int = 360) -> np.ndarray:
    return r * np.exp(2j * np.pi * np.arange(count) / count)


def header(title: str) -> None:
    print(title)
    print("     N  " + "".join(f"  r={r:<9g}" for r in RADII))


def dilatation_table(a: float, gamma: float, omega: RationalFunction, label: str) -> None:
    closed = halfplane_convolution_dilatation(a, gamma, omega)
    header(f"max |series dilatation - closed form|, a={a:g}, gamma={gamma:g}, {label}")
    for order in ORDERS:
        f = convolve(
            f_a_alpha(a, 0.0, order), slanted_halfplane(gamma, omega.series(order))
        )
        ws = dilatation_series(f)
        cells = []
        for r in RADII:
            z = ring(r)
            cells.append(f"{np.max(np.abs(ws(z) - closed(z))):12.3e}")
        print(f"  {order:4d}  " + "".join(cells))
    print()


def positivity_table(alpha: float, n: int) -> None:
    num, den = family_sum_polynomials(n, alpha)
    exact = RationalFunction(ComplexPolynomial(num[1:]), ComplexPolynomial(den))
    omega = RationalFunction(
        ComplexPolynomial([0.0] * (2 ** (n - 1)) + [-1.0]), ComplexPolynomial([1.0])
    )
    header(
        "max |series Re((1-z^2)(h'+g')) - exact|, "
        f"family alpha={alpha:g}, n={n}"
    )
    for order in ORDERS:
        f = family_f_alpha_n(alpha, n, omega.series(order))
        series = f.h.add(f.g).differentiate()
        cells = []
        for r in RADII:
            z = ring(r)
            got = np.real((1.0 - z * z) * series(z))
            want = np.real((1.0 - z * z) * exact(z))
            cells.append(f"{np.max(np.abs(got - want)):12.3e}")
        print(f"  {order:4d}  " + "".join(cells))
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, default=0.5)
    parser.add_argument("--gamma", type=float, default=0.0)
    parser.add_argument("--b", type=float, default=0.9, help="even-Moebius parameter")
    parser.add_argument("--alpha", type=float, default=-0.5)
    parser.add_argument("--n", type=int, default=2)
    args = parser.parse_args()

    monomial = RationalFunction(ComplexPolynomial([0.0, 1.0]), ComplexPolynomial([1.0]))
    dilatation_table(args.a, args.gamma, monomial, "omega = z")
    b = args.b
    even_mobius = RationalFunction(
        ComplexPolynomial([b, 0.0, -1.0]), ComplexPolynomial([1.0, 0.0, -b])
    )
    dilatation_table(
        args.a, args.gamma, even_mobius, f"omega = ({b:g} - z^2)/(1 - {b:g} z^2)"
    )
    positivity_table(args.alpha, args.n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
