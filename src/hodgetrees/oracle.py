"""Closed-form series oracle for the one-point Hodge integrals.

The generating function of all one-point Hodge integrals is the kernel
(t/2)/sin(t/2) raised to the power k+1: the coefficient of t**(2g) * k**j
is the integral of psi**(2g-2+j) * lambda_(g-j). This module expands that
power exactly, as one polynomial in k per even power of t (the odd ones
vanish) held as integers over one denominator, giving a cross-check on the
recursion pipeline that shares none of its code.

The power is P = S**(-(k+1)), where S = sin(t/2)/(t/2) has the closed-form
coefficients s_j = (-1)**j / (4**j * (2j+1)!) of u**j, u = t**2. J.C.P.
Miller's recurrence for a power of a series (Knuth, TAOCP vol. 2, section
4.7) follows from P' * S = -(k+1) * S' * P and gives the u**g coefficient
of P as p_0 = 1 and p_g = -(1/g) * sum_{j=1..g} (j*k + g) * s_j * p_(g-j),
a polynomial in k of degree g; so the k-degree is exactly the maximal
genus, and no series product, reciprocal or logarithm is taken.

The top lambda index also satisfies a Bernoulli closed form: g! times the
integral with lambda_g equals (2**(2g-1) - 1) * g! / (2**(2g-1) * (2g)!)
times the absolute value of the Bernoulli number with index 2g.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact_arith import TruncatedSeries, bernoulli

__all__ = [
    "sine_kernel",
    "KernelExpansion",
    "gf_expand",
    "oracle_integral",
    "bernoulli_rhs",
]


def sine_kernel(order_bound: int) -> TruncatedSeries:
    """Exact expansion of (t/2)/sin(t/2) modulo t**order_bound.

    Built as the reciprocal of sin(t/2)/(t/2), whose t**(2m) coefficient is
    (-1)**m / (4**m * (2m+1)!); the kernel is even with constant term 1.
    ``gf_expand`` does not call it: the tests compare the two.
    """
    coefficients = [Fraction(0)] * order_bound
    for m in range(0, (order_bound + 1) // 2):
        coefficients[2 * m] = Fraction(
            (-1) ** m, 4**m * math.factorial(2 * m + 1)
        )
    return TruncatedSeries(coefficients, order_bound).reciprocal()


class KernelExpansion(NamedTuple):
    """The kernel power, one reduced integer row per genus.

    The u**g coefficient, u = t**2, is sum(rows[g][j] * k**j) / dens[g] with
    g + 1 entries in rows[g], and gcd(dens[g], *rows[g]) == 1.
    """

    rows: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]

    @property
    def max_genus(self) -> int:
        """Highest genus covered, which is also the top power of k."""
        return len(self.rows) - 1


def gf_expand(max_genus: int) -> KernelExpansion:
    """Expand the kernel power up to genus ``max_genus``, every row exact."""
    if max_genus < 1:
        raise ValueError("max genus must be at least 1")
    # s_j = (-1)**j / sine_dens[j] is the u**j coefficient of S.
    sine_dens = [4**j * math.factorial(2 * j + 1) for j in range(max_genus + 1)]
    # p_g = sum(rows[g][i] * k**i) / dens[g], reduced once per row.
    rows, dens = [(1,)], [1]
    for g in range(1, max_genus + 1):
        den = math.lcm(*(sine_dens[j] * dens[g - j] for j in range(1, g + 1)))
        # Over den: plain = sum_j s_j p_(g-j), weighted = k * sum_j j s_j p_(g-j).
        plain, weighted = [0] * (g + 1), [0] * (g + 1)
        for j in range(1, g + 1):
            scale = (-1) ** j * (den // (sine_dens[j] * dens[g - j]))
            for i, c in enumerate(rows[g - j]):
                c *= scale
                plain[i] += c
                weighted[i + 1] += j * c
        row = [-g * a - b for a, b in zip(plain, weighted)]  # over g * den
        common = math.gcd(g * den, *row)
        rows.append(tuple(c // common for c in row))
        dens.append(g * den // common)
    return KernelExpansion(tuple(rows), tuple(dens))


def oracle_integral(genus: int, lam: int, expansion: KernelExpansion) -> Fraction:
    """Read the integral of psi**(3g-2-i) lambda_i off the expansion."""
    if not 1 <= genus <= expansion.max_genus:
        raise ValueError(f"genus must lie in 1..{expansion.max_genus}")
    if not 0 <= lam <= genus:
        raise ValueError("lambda index must lie in 0..genus")
    return Fraction(expansion.rows[genus][genus - lam], expansion.dens[genus])


def bernoulli_rhs(genus: int) -> Fraction:
    """Bernoulli closed form for g! times the top-lambda integral."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    half = 2 ** (2 * genus - 1)
    return (
        Fraction((half - 1) * math.factorial(genus), half * math.factorial(2 * genus))
        * abs(bernoulli(2 * genus))
    )
