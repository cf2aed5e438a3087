"""Truncated power series around the origin.

A PowerSeries stores coefficients c[0..order] of an expansion
sum c_k z**k + O(z**(order+1)).  Binary operations truncate to the
smaller order, since the longer operand's tail is meaningless past the
shorter one's.  Nothing here is trimmed: trailing zeros are significant
because they witness the truncation order.
"""

from __future__ import annotations

import numpy as np

from .cpoly import horner

DIVIDE_ATOL = 1e-13  # smallest |denominator constant term| we will invert


class PowerSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs: tuple[complex, ...] = tuple(complex(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def at_order(self, k: int) -> complex:
        """Coefficient of z**k; raises past the truncation order."""
        if not 0 <= k <= self.order:
            raise IndexError(f"order {k} outside stored range 0..{self.order}")
        return self.coeffs[k]

    def truncated(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def add(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(
            a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])
        )

    def subtract(self, other: "PowerSeries") -> "PowerSeries":
        return self.add(other.scale(-1.0))

    def scale(self, c) -> "PowerSeries":
        c = complex(c)
        return PowerSeries(c * a for a in self.coeffs)

    def multiply(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product, truncated to the smaller operand order."""
        n = min(self.order, other.order)
        a = np.asarray(self.coeffs[: n + 1])
        b = np.asarray(other.coeffs[: n + 1])
        return PowerSeries(np.convolve(a, b)[: n + 1])

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """Long division self/other; needs |other(0)| > DIVIDE_ATOL."""
        n = min(self.order, other.order)
        b0 = other.coeffs[0]
        if abs(b0) <= DIVIDE_ATOL:
            raise ZeroDivisionError(
                f"series division needs |b_0| > {DIVIDE_ATOL:g}, got {abs(b0):.3e}"
            )
        a = np.asarray(self.coeffs[: n + 1])
        b = np.asarray(other.coeffs[: n + 1])
        q = np.empty(n + 1, dtype=complex)
        q[0] = a[0] / b0
        for k in range(1, n + 1):
            q[k] = (a[k] - np.dot(b[1 : k + 1], q[:k][::-1])) / b0
        return PowerSeries(q)

    def hadamard(self, other: "PowerSeries") -> "PowerSeries":
        """Coefficientwise product.  The series sum_{k>=1} z**k acts as the
        identity on anything with zero constant term."""
        n = min(self.order, other.order)
        return PowerSeries(
            a * b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])
        )

    def differentiate(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries([0j])
        return PowerSeries(k * c for k, c in enumerate(self.coeffs) if k)

    def integrate(self) -> "PowerSeries":
        """Termwise antiderivative with zero constant term."""
        out = [0j]
        out.extend(c / (k + 1) for k, c in enumerate(self.coeffs))
        return PowerSeries(out)

    def evaluate(self, z):
        """Horner evaluation at a scalar or numpy array of points."""
        return horner(self.coeffs, z)

    __call__ = evaluate

    def on_circle(self, radius: float, m: int) -> np.ndarray:
        """Values at radius * e^{2 pi i j/m}, j = 0..m-1, by one inverse FFT.

        The scaled coefficients c_k radius**k are folded mod m first: the
        root of unity e^{2 pi i j k/m} depends only on k mod m, so the fold
        is exact and orders past m need no larger transform.
        """
        c = np.asarray(self.coeffs) * float(radius) ** np.arange(len(self.coeffs))
        c = np.pad(c, (0, -len(c) % m))
        return np.fft.ifft(c.reshape(-1, m).sum(axis=0)) * m

    def __repr__(self) -> str:
        return f"PowerSeries(order={self.order}, c1={self.coeffs[min(1, self.order)]:.6g})"


def monomial(k: int, order: int, coeff=1.0) -> PowerSeries:
    if k > order:
        raise ValueError("monomial degree beyond truncation order")
    c = [0j] * (order + 1)
    c[k] = complex(coeff)
    return PowerSeries(c)


def geometric(order: int, gamma: float = 0.0) -> PowerSeries:
    """z/(1 - e^{i gamma} z) = sum_{k>=1} e^{i gamma (k-1)} z**k, the slanted
    half-plane target; at gamma = 0 it is the unit for the coefficient
    product."""
    rot = complex(np.exp(1j * gamma))
    return PowerSeries([0j] + [rot ** (k - 1) for k in range(1, order + 1)])


def log_inverse(order: int) -> PowerSeries:
    """log(1/(1-z)) = sum_{k>=1} z**k / k."""
    return PowerSeries([0j] + [1.0 / k + 0j for k in range(1, order + 1)])


def arctangent(order: int) -> PowerSeries:
    """arctan z = z - z**3/3 + z**5/5 - ..., the vertical strip's h+g."""
    out = [0j] * (order + 1)
    sign = 1.0
    for k in range(1, order + 1, 2):
        out[k] = sign / k
        sign = -sign
    return PowerSeries(out)


def rational_series(num, den, order: int) -> PowerSeries:
    """Expand num(z)/den(z), given by ascending coefficients, to the given
    order; den[0] must be invertible."""

    def pad(cs):
        cs = list(cs[: order + 1])
        return PowerSeries(cs + [0j] * (order + 1 - len(cs)))

    return pad(num).divide(pad(den))


def family_sum_polynomials(n: int, alpha: float) -> tuple[list[complex], list[complex]]:
    """Numerator and denominator coefficient lists for the dyadic product
    z * (1+z**2)(1+z**4)...(1+z**(2**(n-1))) * (1+z**(2**n)+alpha*z**(2**(n-1)))
    over 1 + z**(2**(n+1)).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    num = np.array([0.0, 1.0], dtype=complex)  # the leading z
    for j in range(1, n):
        factor = np.zeros(2**j + 1, dtype=complex)
        factor[0] = 1.0
        factor[-1] = 1.0
        num = np.convolve(num, factor)
    top = np.zeros(2**n + 1, dtype=complex)
    top[0] = 1.0
    top[2 ** (n - 1)] = alpha
    top[-1] = 1.0
    num = np.convolve(num, top)
    den = np.zeros(2 ** (n + 1) + 1, dtype=complex)
    den[0] = 1.0
    den[-1] = 1.0
    return list(num), list(den)


def halfplane_parts(a: float, alpha: float, order: int) -> tuple[PowerSeries, PowerSeries]:
    """(h, g) of the slanted half-plane extremal map f_{a,alpha}, typed out
    coefficient by coefficient.  hmap.f_a_alpha expands the same map by
    series division; these formulas are the independent reference for it."""
    if not -1.0 < a < 1.0:
        raise ValueError(f"need |a| < 1, got a={a}")
    rot = complex(np.exp(1j * alpha))
    ks = range(1, order + 1)
    h = [rot ** (k - 1) * (k / (1.0 + a) - (k - 1) / 2.0) for k in ks]
    g = [rot ** (k + 1) * (a * k / (1.0 + a) - (k - 1) / 2.0) for k in ks]
    return PowerSeries([0j] + h), PowerSeries([0j] + g)
