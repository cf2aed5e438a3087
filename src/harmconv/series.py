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


def _product(a, b):
    """a * b elementwise, rounded as Python's complex product rounds it.

    numpy's complex multiply may fuse into FMA and move last bits, so the
    real and imaginary parts are formed from float products instead.  Like
    Python's, it overflows to inf and makes inf * 0 a nan without a warning.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        out.real = a.real * b.real - a.imag * b.imag
        out.imag = a.real * b.imag + a.imag * b.real
    return out


def ring_values(coeffs: np.ndarray, radii, m: int) -> np.ndarray:
    """Values of sum c_k z**k at radius * e^{2 pi i j/m}, j = 0..m-1, one
    row per radius, by one row-wise inverse FFT.

    The scaled coefficients c_k radius**k are folded mod m first: the
    root of unity e^{2 pi i j k/m} depends only on k mod m, so the fold
    is exact and orders past m need no larger transform.
    """
    radii = np.asarray(radii, dtype=float)
    n = len(coeffs)
    folded = np.zeros((len(radii), -(-n // m) * m), dtype=complex)
    folded[:, :n] = coeffs * radii[:, None] ** np.arange(n)
    folded = folded.reshape(len(radii), -1, m).sum(axis=1)
    return np.fft.ifft(folded, axis=-1) * m


class PowerSeries:
    """coeffs is one read-only complex128 array.  The termwise operations
    round exactly as Python's scalar complex arithmetic does."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if not isinstance(coeffs, (np.ndarray, list, tuple)):
            coeffs = list(coeffs)
        c = np.array(coeffs, dtype=complex)
        if c.ndim != 1 or not c.size:
            raise ValueError("a series needs at least its constant term")
        c.flags.writeable = False
        self.coeffs: np.ndarray = c

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def at_order(self, k: int) -> complex:
        """Coefficient of z**k; raises past the truncation order."""
        if not 0 <= k <= self.order:
            raise IndexError(f"order {k} outside stored range 0..{self.order}")
        return complex(self.coeffs[k])

    def truncated(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[: order + 1])

    def padded(self, order: int) -> "PowerSeries":
        """Truncate or zero-extend to the exact order.  Extension treats the
        stored coefficients as exact, which is right for prescribed
        dilatations like monomials and for polynomial coefficient lists;
        expanded approximations should arrive at full order."""
        if self.order >= order:
            return self.truncated(order)
        c = np.zeros(order + 1, dtype=complex)
        c[: self.order + 1] = self.coeffs
        return PowerSeries(c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs.tolist()))

    def add(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])

    def subtract(self, other: "PowerSeries") -> "PowerSeries":
        return self.add(other.scale(-1.0))

    def scale(self, c) -> "PowerSeries":
        return PowerSeries(_product(self.coeffs, complex(c)))

    def multiply(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product, truncated to the smaller operand order."""
        n = min(self.order, other.order)
        return PowerSeries(
            np.convolve(self.coeffs[: n + 1], other.coeffs[: n + 1])[: n + 1]
        )

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """Long division self/other; needs |other(0)| > DIVIDE_ATOL.

        q is filled back to front in qr (qr[n - k] = q[k]), so the reversed
        prefix q[k-1], ..., q[0] is the contiguous tail qr[n-k+1:] and each
        step is one full-length dot product with no reversed copy.
        """
        n = min(self.order, other.order)
        b0 = complex(other.coeffs[0])
        if abs(b0) <= DIVIDE_ATOL:
            raise ZeroDivisionError(
                f"series division needs |b_0| > {DIVIDE_ATOL:g}, got {abs(b0):.3e}"
            )
        a, b = self.coeffs, other.coeffs
        qr = np.empty(n + 1, dtype=complex)
        qr[n] = a[0] / b0
        for k in range(1, n + 1):
            qr[n - k] = (a[k] - np.dot(b[1 : k + 1], qr[n - k + 1 :])) / b0
        return PowerSeries(qr[::-1])

    def hadamard(self, other: "PowerSeries") -> "PowerSeries":
        """Coefficientwise product.  The series sum_{k>=1} z**k acts as the
        identity on anything with zero constant term."""
        n = min(self.order, other.order)
        return PowerSeries(_product(self.coeffs[: n + 1], other.coeffs[: n + 1]))

    def differentiate(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries([0j])
        return PowerSeries(_product(self.coeffs[1:], np.arange(1.0, self.order + 1)))

    def integrate(self) -> "PowerSeries":
        """Termwise antiderivative with zero constant term.

        c / k for a Python complex c runs Smith's quotient with ratio 0,
        ((re + im*0) / k, (im - re*0) / k); numpy's complex division
        multiplies by a reciprocal instead, so the parts are divided here.
        """
        c = self.coeffs
        k = np.arange(1.0, len(c) + 1)
        out = np.zeros(len(c) + 1, dtype=complex)
        with np.errstate(invalid="ignore"):
            out.real[1:] = (c.real + c.imag * 0.0) / k
            out.imag[1:] = (c.imag - c.real * 0.0) / k
        return PowerSeries(out)

    def evaluate(self, z):
        """Horner evaluation at a scalar or numpy array of points."""
        return horner(self.coeffs, z)

    __call__ = evaluate

    def on_circle(self, radius: float, m: int) -> np.ndarray:
        """Values at radius * e^{2 pi i j/m}, j = 0..m-1 (see ring_values)."""
        return ring_values(self.coeffs, (radius,), m)[0]

    def __repr__(self) -> str:
        return f"PowerSeries(order={self.order}, c1={self.at_order(min(1, self.order)):.6g})"


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
    return PowerSeries(num).padded(order).divide(PowerSeries(den).padded(order))


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
