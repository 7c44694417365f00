"""One-point Hodge integrals assembled from cut-and-join cycle values.

For genus g at least 1 and a lambda-class index between 0 and g, the
integral of psi**(3g-2-i) times lambda_i over the moduli of one-pointed
genus-g curves equals, up to the factor (-1)**g * g!, an alternating
binomial combination of cycle values whose weight lists append j = 0..g
extra unit weights to a caller-chosen auxiliary weight list. The identity
holds for every auxiliary choice, which the verifier exploits as a
consistency check; the default auxiliary list (1,) keeps the recursion
state space smallest.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .cutjoin import CycleKey, canonical_key, cycle_value

__all__ = ["hodge_integral", "hodge_table", "integral_keys"]


def hodge_integral(
    genus: int,
    lam: int,
    aux_weights: Iterable[int] = (1,),
    cache: dict[CycleKey, Fraction] | None = None,
) -> Fraction:
    """Exact value of the integral of psi**(3g-2-i) lambda_i at genus g.

    (-1)**g * g! times the integral is the sum over j = 0..g of
    (-1)**j * C(g, j) times the cycle value with j unit weights appended to
    the auxiliary weights.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    if not 0 <= lam <= genus:
        raise ValueError("lambda index must lie in 0..genus")
    if cache is None:
        cache = {}
    signed_sum = Fraction(0)
    for j, key in enumerate(integral_keys(genus, lam, aux_weights)):
        value = cycle_value(key, cache)
        signed_sum += (-1) ** j * math.comb(genus, j) * value
    return signed_sum * Fraction((-1) ** genus, math.factorial(genus))


def integral_keys(genus: int, lam: int, aux: Iterable[int] = (1,)) -> list[CycleKey]:
    """The g + 1 cycle keys ``hodge_integral`` reads, for j = 0..g unit weights."""
    aux = canonical_key(genus, lam, aux).weights
    return [canonical_key(genus, lam, (1,) * j + aux) for j in range(genus + 1)]


def hodge_table(
    max_genus: int, cache: dict[CycleKey, Fraction] | None = None
) -> list[tuple[int, int, Fraction]]:
    """Rows (g, i, integral) for every 1 <= g <= max_genus, 0 <= i <= g."""
    if max_genus < 1:
        raise ValueError("max genus must be at least 1")
    if cache is None:
        cache = {}
    return [
        (g, i, hodge_integral(g, i, cache=cache))
        for g in range(1, max_genus + 1)
        for i in range(g + 1)
    ]
