"""Memoized cut-and-join recursion for weighted ramification-cycle integrals.

A value is indexed by a genus g, a lambda-class index, and a nonempty
multiset of positive integer weights; it is the integral of a power of the
first psi class times one lambda class over the cycle of one-pointed curves
carrying a meromorphic function with those pole orders. With N the weight
total, n the number of weights and m_w the multiplicity of weight w,
12*N*(2g + n - 1) times a value is an integer combination of three rewrite
families of strictly smaller values:

* join: weights a <= b are replaced by a + b (genus and index unchanged),
  with coefficient 12(a + b) times the C(m_a, 2) or m_a*m_b such pairs;
* handle removal: genus and index both drop by one (weights unchanged),
  with coefficient the sum of m_w*(w**3 - w);
* split: one weight w is cut into p + q, p <= q, while only the genus
  drops, with coefficient 6*p*q*m_w, doubled when p != q (two ordered cuts).

Two seeds close the recursion: genus 1, index 1, single weight a gives
(a*a - 1)/24, and genus 0, index 0, two weights give 1. Values with index
below 0 or above the genus, or with negative genus, vanish identically.
With the index in 0..genus, the seeds are exactly the keys with psi
exponent 0, and only genus 0, index 0, one weight has a negative one.

The psi exponent 2g + n - 2 - index drops by exactly one at every rewrite,
so a query with positive exponent resolves to seeds and vanishing values in
finitely many steps, which evaluation walks with an explicit stack (no
recursion limit bounds their depth).

Since the coefficients depend on the weights alone, and genus and index only
pick each child's layer, a step is built once per partition: one
``recursion_terms`` call at (2, 1), where no child vanishes, gives the
partition's transitions (genus offset, index offset, child weights, integer
coefficient). Evaluation visits a state in one pass over them: it drops the
children whose index leaves 0..genus and reads the others as integer pairs.
If some are unknown, they go on the stack above the state, which is passed
over again once they are known; else the value is one reduced ``Fraction``,
coefficient times child numerator summed over the lcm of the child
denominators. ``step_value`` is the same pass over a given memo. The
transitions table lives as long as the process; its entries are immutable
and depend on the weights alone, so threads may share it. Evaluation is
pure given the memo dictionary; a single dict may be shared across threads
only because rebinding a key to a different value is rejected, but the
intended use is one cache per thread.
"""

from __future__ import annotations

import math
import os
import re
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .exact_arith import _INTEGER, format_rational, parse_rational

__all__ = [
    "CycleKey",
    "UndefinedExponentError",
    "canonical_key",
    "recursion_terms",
    "cycle_value",
    "step_value",
    "save_cache",
    "load_cache",
]

_ZERO = Fraction(0)


class CycleKey(NamedTuple):
    """Canonical index of a cycle integral: genus, lambda index, sorted weights."""

    genus: int
    lam: int
    weights: tuple[int, ...]

    @property
    def exponent(self) -> int:
        """Power of the psi class in the integrand."""
        return 2 * self.genus + len(self.weights) - 2 - self.lam


class UndefinedExponentError(ValueError):
    """Raised for indices whose integrand would need a negative psi power."""


def canonical_key(genus: int, lam: int, weights: Iterable[int]) -> CycleKey:
    """Sort the weights and validate the index; idempotent on canonical input."""
    ws = tuple(sorted(weights))
    if not ws:
        raise ValueError("weight list must be nonempty")
    if ws[0] < 1:
        raise ValueError("weights must be positive integers")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    return CycleKey(genus, lam, ws)


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


def recursion_terms(key: CycleKey) -> list[tuple[Fraction, CycleKey]]:
    """One rewrite step: children sorted by key, with their coefficients.

    Each coefficient is an integer over 12*N*(2g + n - 1), one per distinct
    child (the module docstring lists them). Children that vanish by the
    index convention are dropped, and zero coefficients (weight-1 handle
    removals) never appear. Every child conserves the weight total. Only
    keys with positive psi exponent can be expanded. Evaluation reads each
    partition's step from this function once, at (2, 1).
    """
    if key.exponent <= 0:
        raise ValueError(
            f"recursion needs a positive psi exponent, got {key.exponent} for {key}"
        )
    genus, lam, weights = key
    total = sum(weights)
    counts = Counter(weights)
    # Joins leave n - 1 weights, the handle n, splits n + 1: no child is shared.
    children: dict[CycleKey, int] = {}
    for pairs, joined, merged in _multiset_joins(weights, counts):
        children[CycleKey(genus, lam, merged)] = 12 * joined * pairs
    coefficient = sum(m * (w * w * w - w) for w, m in counts.items())
    if coefficient:
        children[CycleKey(genus - 1, lam - 1, weights)] = coefficient
    for w, m in counts.items():
        rest = list(weights)
        rest.remove(w)
        for p in range(1, w // 2 + 1):
            split = CycleKey(genus - 1, lam, tuple(sorted(rest + [p, w - p])))
            children[split] = 6 * p * (w - p) * m * (1 if 2 * p == w else 2)
    assert all(sum(c.weights) == total for c in children), "weight total changed"
    denominator = 12 * total * (2 * genus + len(weights) - 1)
    return [
        (Fraction(c, denominator), child)
        for child, c in sorted(children.items())
        if 0 <= child.lam <= child.genus
    ]


def cycle_value(
    key: tuple[int, int, Iterable[int]], cache: dict[CycleKey, Fraction] | None = None
) -> Fraction:
    """Exact value of the cycle integral at ``key``: genus, index, weights in any order.

    ``cache`` maps keys to values and is filled as evaluation proceeds; a key
    already present is trusted and never recomputed. A negative psi exponent
    that the index convention does not kill raises ``UndefinedExponentError``;
    only malformed queries have one, never the recursion itself.
    """
    key = canonical_key(*key)
    if not 0 <= key.lam <= key.genus:
        return _ZERO
    cache = {} if cache is None else cache
    if key in cache:
        return cache[key]
    # Every state pushed was missing from the memo, so it is done once pairs
    # holds it. States are plain tuples, equal to and hashed like their keys;
    # a CycleKey is built once per state, when it enters the memo.
    pairs: dict[tuple, tuple[int, int]] = {}
    stack: list[tuple] = [key]
    while stack:
        top = stack[-1]
        if top in pairs:
            stack.pop()
            continue
        value = _state(*top, pairs, cache)
        if type(value) is list:
            stack += value
            continue
        stack.pop()
        pairs[top] = value.as_integer_ratio()
        top = CycleKey(*top)
        previous = cache.setdefault(top, value)
        if previous is not value and previous != value:
            raise RuntimeError(f"memo cache rebound {top}: {previous} vs {value}")
    return cache[key]


# Weights -> (genus offset, index offset, child weights, integer coefficient)
# per child, filled on first use and kept for the life of the process. Entries
# are immutable and depend on the weights alone, so threads may share the
# table: two that race on one partition store equal entries.
_TRANSITIONS: dict[tuple[int, ...], tuple[tuple, ...]] = {}


def _transitions(weights: tuple[int, ...]) -> tuple[tuple, ...]:
    """One step's children for every (genus, index), from one ``recursion_terms``.

    At (2, 1) the exponent n + 1 is positive and every child any layer can
    have is kept; coefficients become integers over 12*N*(2g + n - 1).
    """
    entries = _TRANSITIONS.get(weights)
    if entries is None:
        scale = 12 * sum(weights) * (len(weights) + 3)
        built = []
        for coefficient, child in recursion_terms(CycleKey(2, 1, weights)):
            integer = coefficient * scale
            assert integer.denominator == 1, f"{coefficient} at {weights}"
            built.append(
                (child.genus - 2, child.lam - 1, child.weights, integer.numerator)
            )
        entries = _TRANSITIONS[weights] = tuple(built)
    return entries


def _state(genus: int, lam: int, weights: tuple, pairs: dict, cache: dict):
    """A state's value from one pass over its step, or the children it lacks.

    An index outside 0..genus gives 0, psi exponent 0 a seed's closed form, a
    negative one ``UndefinedExponentError``. Children in 0..genus are read as
    integer pairs from ``pairs``, else from ``cache``, then kept in ``pairs``.
    """
    if not 0 <= lam <= genus:
        return _ZERO
    exponent = 2 * genus + len(weights) - 2 - lam
    if exponent == 0:
        return Fraction(weights[0] * weights[0] - 1, 24) if genus else Fraction(1)
    if exponent < 0:
        key = CycleKey(genus, lam, weights)
        raise UndefinedExponentError(
            f"undefined integrand exponent {exponent} for {key}"
        )
    terms, missing = [], []
    for dg, dl, child_weights, c in _transitions(weights):
        if 0 <= lam + dl <= genus + dg:
            child = (genus + dg, lam + dl, child_weights)
            pair = pairs.get(child)
            if pair is None:
                value = cache.get(child)
                if value is None:
                    missing.append(child)
                    continue
                pair = pairs[child] = value.as_integer_ratio()
            terms.append((c, pair))
    if missing:
        return missing
    common = math.lcm(*[d for _, (_, d) in terms])
    numerator = sum([c * n * (common // d) for c, (n, d) in terms])
    scale = 12 * sum(weights) * (2 * genus + len(weights) - 1)
    return Fraction(numerator, common * scale)


def step_value(key: CycleKey, cache: dict[CycleKey, Fraction]) -> Fraction:
    """The value of ``key`` from one step over its children's values in ``cache``.

    Vanishing keys give 0 and seeds their closed form. The first child missing
    from ``cache`` raises ``KeyError``, a negative psi exponent
    ``UndefinedExponentError``.
    """
    value = _state(*key, {}, cache)
    if type(value) is list:
        raise KeyError(value[0])
    return value


def save_cache(cache: dict[CycleKey, Fraction], path: str | os.PathLike) -> None:
    """Write the memo as sorted tab-separated lines: genus, index, weights, value.

    The lines go to a temporary file next to ``path`` that then replaces it
    in one step, so a save that fails part way leaves any old file whole.
    """
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="ascii") as handle:
            for key in sorted(cache):
                weights_text = ",".join(str(w) for w in key.weights)
                value_text = format_rational(cache[key])
                handle.write(f"{key.genus}\t{key.lam}\t{weights_text}\t{value_text}\n")
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


# Key fields as save_cache writes them, canonical integers: int() would also
# take "+1", " 1", "0_3", "01" and "-0".
_KEY_FIELDS = re.compile(
    rf"{_INTEGER}\t{_INTEGER}\t[1-9][0-9]*(?:,[1-9][0-9]*)*\t"
).match


def load_cache(path: str | os.PathLike) -> dict[CycleKey, Fraction]:
    """Parse a cache file, rejecting any line that fails strict validation.

    Besides malformed lines, entries that no evaluation writes are refused:
    an index outside 0..genus (such values vanish and are never stored), and
    a negative psi exponent (undefined). Evaluation trusts every loaded
    entry, so neither may reach it.
    """
    cache: dict[CycleKey, Fraction] = {}
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle.read().splitlines(), start=1):
            if not raw:
                continue
            try:
                line = raw.decode("ascii")
                fields = line.split("\t")
                if len(fields) != 4:
                    raise ValueError("expected 4 tab-separated fields")
                if not _KEY_FIELDS(line):
                    raise ValueError("key fields must be canonical decimal integers")
                genus, lam = int(fields[0]), int(fields[1])
                weights = tuple(map(int, fields[2].split(",")))
                value = parse_rational(fields[3])
                key = canonical_key(genus, lam, weights)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not 0 <= lam <= genus:
                raise ValueError(f"{path}:{lineno}: lambda {lam} outside 0..{genus}")
            if key.weights != weights:
                raise ValueError(f"{path}:{lineno}: weights are not sorted")
            if key.exponent < 0:
                message = f"undefined integrand exponent {key.exponent} for {key}"
                raise ValueError(f"{path}:{lineno}: {message}")
            previous = cache.setdefault(key, value)
            if previous is not value and previous != value:
                raise ValueError(f"{path}:{lineno}: conflicting duplicate entry")
    return cache
