"""Exact arithmetic substrate: rational text forms, truncated series, Bernoulli numbers.

Every quantity in this package is a ``fractions.Fraction``; nothing is ever
evaluated in floating point, so all identity checks downstream are exact
equalities of reduced fractions. This module supplies the pieces the standard
library lacks: a strict canonical text form for rationals (used by the CLI,
the JSON emitters and the cache files), dense truncated power series with
exact coefficients, and a growing table of Bernoulli numbers. Series
products, reciprocals and logarithms add up ``Fraction`` terms one
coefficient at a time. Only the oracle's ``sine_kernel``, the tests'
reference, builds a series; ``gf_expand`` uses none of them. Bernoulli
numbers come from integer zigzag numbers, with one ``Fraction`` per table
entry. ``_multiset_joins`` is the one multiset helper the recursion's joins
and the tree aggregate share, so neither pipeline loads the other.
"""

from __future__ import annotations

import math
import re
import threading
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

__all__ = [
    "format_rational",
    "parse_rational",
    "TruncatedSeries",
    "bernoulli",
]

_ZERO = Fraction(0)

# A canonical integer, as memo lines and rationals spell it: no space, "_", "+",
# leading 0 or "-0". A command-line integer may add a "+" before a positive
# value. A rational adds a denominator above 1: not "2/4", "1/0".
_INTEGER = r"(?:0|-?[1-9][0-9]*)"
_ARGUMENT = re.compile(r"(?:\+(?=[1-9]))?" + _INTEGER)
_RATIONAL_RE = re.compile(_INTEGER + r"(?:/[1-9][0-9]*)?")


def format_rational(value: Fraction | int) -> str:
    """Render a rational as ``p/q`` with q > 0 and gcd(p, q) = 1, or plain ``p``."""
    value = value if isinstance(value, Fraction) else Fraction(value)  # True as 1
    try:
        return str(value)
    except ValueError:  # str() of a huge int is refused; Decimal's is not
        p, q = Decimal(value.numerator), Decimal(value.denominator)
        return f"{p}" if q == 1 else f"{p}/{q}"


# Pieces this short pass int() under any digit limit it can be given: 640 is
# the least nonzero one that sys.set_int_max_str_digits accepts.
_PIECE_DIGITS = 640


def _long_int(text: str) -> int:
    """int() of an optionally signed digit string past int()'s digit limit.

    The digits are split in halves until each piece is short, and the pieces
    combine as ``high * 10**len(low) + low``: subquadratic in the length,
    where int(Decimal(text)) is quadratic.
    """
    if text.startswith("-"):
        return -_long_int(text[1:])
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    half = len(text) // 2
    return _long_int(text[:-half]) * 10**half + _long_int(text[-half:])


def parse_rational(text: str) -> Fraction:
    """Parse the canonical text form, rejecting anything not in lowest terms."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a canonical rational: {text!r}")
    p_text, slash, q_text = text.partition("/")
    p, q = _long_int(p_text), _long_int(q_text or "1")
    if slash and (q == 1 or math.gcd(p, q) != 1):
        raise ValueError(f"rational not in lowest terms: {text!r}")
    return Fraction(p, q)


def _multiset_joins(items: tuple[int, ...], counts: Counter) -> Iterator[tuple]:
    """Each distinct way to replace two entries of a sorted tuple by their sum.

    ``counts`` is ``Counter(items)``. Yields the number of position pairs
    that make the join, the sum, and the sorted tuple after the join.
    """
    distinct = sorted(counts)
    for position, a in enumerate(distinct):
        m = counts[a]
        for b in distinct[position:]:
            pairs = m * (m - 1) // 2 if a == b else m * counts[b]
            if pairs:
                merged = list(items)
                merged.remove(a)
                merged.remove(b)
                yield pairs, a + b, tuple(sorted(merged + [a + b]))


class TruncatedSeries:
    """A dense power series in one variable, kept modulo t**order_bound.

    Coefficients are reduced ``Fraction``s, given as ``int`` or ``Fraction``
    (anything else, floats included, is refused with ``TypeError``), and
    instances are immutable after construction. Products, reciprocals and
    logarithms compute each coefficient as one sum of ``Fraction`` terms.
    Products insist on equal order bounds: silently mixing truncation
    orders would make "exact modulo t^N" meaningless. Reciprocals need a
    nonzero constant term, ``log`` a constant term of 1.
    """

    __slots__ = ("order_bound", "coefficients")

    def __init__(self, coefficients, order_bound: int | None = None):
        coeffs = tuple(map(_exact, coefficients))
        if order_bound is None:
            order_bound = len(coeffs)
        if order_bound < 1:
            raise ValueError("order bound must be a positive integer")
        if len(coeffs) < order_bound:
            coeffs = coeffs + (_ZERO,) * (order_bound - len(coeffs))
        elif len(coeffs) > order_bound:
            coeffs = coeffs[:order_bound]
        self.order_bound = order_bound
        self.coefficients = coeffs

    def coefficient(self, power: int) -> Fraction:
        if not 0 <= power < self.order_bound:
            raise ValueError(
                f"coefficient of t^{power} is not determined at order bound {self.order_bound}"
            )
        return self.coefficients[power]

    def __eq__(self, other: object):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.order_bound == other.order_bound
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.order_bound, self.coefficients))

    def __repr__(self):
        inside = ", ".join(format_rational(c) for c in self.coefficients)
        return f"TruncatedSeries([{inside}], order_bound={self.order_bound})"

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = self.order_bound
            if other.order_bound != n:
                raise ValueError(f"mismatched order bounds: {n} vs {other.order_bound}")
            a, b = self.coefficients, other.coefficients
            return TruncatedSeries(
                [sum((a[k] * b[m - k] for k in range(m + 1)), _ZERO) for m in range(n)],
                n,
            )
        if isinstance(other, (int, Fraction)):
            scaled = (other * a for a in self.coefficients)
            return TruncatedSeries(scaled, self.order_bound)
        return NotImplemented

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo t**order_bound."""
        a = self.coefficients
        if a[0] == 0:
            raise ValueError("series with zero constant term is not invertible")
        # a_0 q_m = [m == 0] - sum_{k=1..m} a_k q_{m-k}
        q = [1 / a[0]]
        for m in range(1, self.order_bound):
            q.append(-sum((a[k] * q[m - k] for k in range(1, m + 1)), _ZERO) / a[0])
        return TruncatedSeries(q, self.order_bound)

    def log(self) -> "TruncatedSeries":
        """Formal logarithm; requires constant term 1."""
        a = self.coefficients
        if a[0] != 1:
            raise ValueError("series logarithm requires constant term 1")
        # l' a = a', so m l_m = m a_m - sum_{k=1..m-1} k l_k a_{m-k}
        log = [_ZERO]
        for m in range(1, self.order_bound):
            below = sum((k * log[k] * a[m - k] for k in range(1, m)), _ZERO)
            log.append(a[m] - below / m)
        return TruncatedSeries(log, self.order_bound)


def _exact(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"series coefficients must be int or Fraction, not {type(value).__name__}"
    )


_bernoulli_lock = threading.Lock()
_bernoulli_table: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
# The last row of the Seidel-Entringer triangle, whose last entry is the
# zigzag number E_(len - 1).
_zigzag_row: list[int] = [1]


def bernoulli(index: int) -> Fraction:
    """The Bernoulli number B_index, in the convention with B_1 = -1/2.

    B_0 = 1 and B_1 = -1/2, every odd index above 1 gives 0, and
    B_2n = (-1)**(n-1) * 2n * E_(2n-1) / (4**n * (4**n - 1)), where the
    zigzag (tangent) number E_(2n-1) is read off the Seidel-Entringer
    triangle in integers alone (Brent & Harvey, "Fast computation of
    Bernoulli, Tangent and Secant numbers", 2011). The shared table and
    the triangle's last row grow on demand under a lock; table entries
    never change once written, so concurrent readers are safe.
    """
    if index < 0:
        raise ValueError("Bernoulli numbers are indexed by nonnegative integers")
    with _bernoulli_lock:
        while len(_bernoulli_table) <= index:
            m = len(_bernoulli_table)
            if m % 2:
                _bernoulli_table.append(_ZERO)
                continue
            while len(_zigzag_row) < m:  # row r holds r + 1 entries
                _zigzag_row[:] = accumulate(reversed(_zigzag_row), initial=0)
            n = m // 2
            _bernoulli_table.append(
                Fraction((-1) ** (n - 1) * m * _zigzag_row[-1], 4**n * (4**n - 1))
            )
        return _bernoulli_table[index]
