"""Memoized cut-and-join recursion for weighted ramification-cycle integrals.

A value is indexed by a genus g, a lambda-class index, and a nonempty
multiset of positive integer weights; it is the integral of a power of the
first psi class times one lambda class over the cycle of one-pointed curves
carrying a meromorphic function with those pole orders. Three rewrite
families express a value through strictly smaller ones:

* join: two weights are replaced by their sum (genus and index unchanged),
  with coefficient equal to that sum;
* handle removal: genus and index both drop by one (weights unchanged),
  each weight w contributing coefficient (w**3 - w)/12;
* split: one weight w is cut into positive parts w' + w'' while only the
  genus drops, with coefficient w'*w''/2 per ordered cut.

All coefficients are divided by the prefactor N*(2g + n - 1), where N is the
weight total and n the number of weights. Two seeds close the recursion:
genus 1, index 1, single weight a gives (a*a - 1)/24, and genus 0, index 0,
two weights give 1. Values with index below 0 or above the genus, or with
negative genus, vanish identically.

The psi exponent 2g + n - 2 - index drops by exactly one at every rewrite,
so a query with positive exponent resolves to seeds and vanishing values in
finitely many steps. Evaluation is pure given the memo dictionary; a single
dict may be shared across threads only because rebinding a key to a
different value is rejected, but the intended use is one cache per thread.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, NamedTuple

from .exact_arith import format_rational, parse_rational

__all__ = [
    "CycleKey",
    "UndefinedExponentError",
    "canonical_key",
    "recursion_terms",
    "cycle_value",
    "save_cache",
    "load_cache",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _vanishes(key: CycleKey) -> bool:
    # Index outside 0..genus (or negative genus) vanishes before any other rule.
    return key.lam < 0 or key.genus < 0 or key.lam > key.genus


def recursion_terms(key: CycleKey) -> list[tuple[Fraction, CycleKey]]:
    """One rewrite step: children with coefficients, prefactor already divided out.

    Children that vanish by the index convention are dropped, coefficients of
    children with equal canonical keys are summed, and zero coefficients
    (weight-1 handle removals) never appear. Every child conserves the weight
    total. Only keys with positive psi exponent can be expanded.
    """
    genus, lam, weights = key
    if key.exponent <= 0:
        raise ValueError(
            f"recursion needs a positive psi exponent, got {key.exponent} for {key}"
        )
    n = len(weights)
    total = sum(weights)
    scale = Fraction(1, total * (2 * genus + n - 1))
    acc: dict[CycleKey, Fraction] = {}

    def put(child: CycleKey, coefficient: Fraction) -> None:
        if _vanishes(child):
            return
        assert sum(child.weights) == total, "rewrite changed the weight total"
        acc[child] = acc.get(child, _ZERO) + coefficient

    for k in range(n):
        for l in range(k + 1, n):
            joined = weights[:k] + weights[k + 1 : l] + weights[l + 1 :]
            merged = weights[k] + weights[l]
            put(
                CycleKey(genus, lam, tuple(sorted(joined + (merged,)))),
                merged * scale,
            )
    handle_child = CycleKey(genus - 1, lam - 1, weights)
    for w in weights:
        numer = w * w * w - w
        if numer:
            put(handle_child, Fraction(numer, 12) * scale)
    for k, w in enumerate(weights):
        rest = weights[:k] + weights[k + 1 :]
        for part in range(1, w):
            put(
                CycleKey(genus - 1, lam, tuple(sorted(rest + (part, w - part)))),
                Fraction(part * (w - part), 2) * scale,
            )
    return [(coefficient, child) for child, coefficient in sorted(acc.items())]


def cycle_value(
    key: CycleKey, cache: dict[CycleKey, Fraction] | None = None
) -> Fraction:
    """Exact value of the cycle integral indexed by ``key``.

    ``cache`` maps keys to values and is filled as evaluation proceeds; a key
    already present is trusted and never recomputed. Raises
    ``UndefinedExponentError`` for indices with nonpositive psi exponent that
    are neither seeds nor killed by the index convention; such indices are
    never produced by the recursion itself, only by malformed queries.
    """
    key = canonical_key(*key)
    if cache is None:
        cache = {}
    return _evaluate(key, cache)


def _evaluate(key: CycleKey, cache: dict[CycleKey, Fraction]) -> Fraction:
    if _vanishes(key):
        return _ZERO
    hit = cache.get(key)
    if hit is not None:
        return hit
    genus, lam, weights = key
    if genus == 1 and lam == 1 and len(weights) == 1:
        a = weights[0]
        value = Fraction(a * a - 1, 24)
    elif genus == 0 and lam == 0 and len(weights) == 2:
        value = _ONE
    elif key.exponent > 0:
        value = _ZERO
        for coefficient, child in recursion_terms(key):
            value += coefficient * _evaluate(child, cache)
    else:
        raise UndefinedExponentError(
            f"undefined integrand exponent {key.exponent} for {key}"
        )
    previous = cache.setdefault(key, value)
    if previous != value:
        raise RuntimeError(f"memo cache rebound {key}: {previous} vs {value}")
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


def load_cache(path: str | os.PathLike) -> dict[CycleKey, Fraction]:
    """Parse a cache file, rejecting any line that fails strict validation."""
    cache: dict[CycleKey, Fraction] = {}
    with open(path, "r", encoding="ascii") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                genus = int(fields[0])
                lam = int(fields[1])
                weights = tuple(int(w) for w in fields[2].split(","))
                value = parse_rational(fields[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            key = canonical_key(genus, lam, weights)
            if key.weights != weights:
                raise ValueError(f"{path}:{lineno}: weights are not sorted")
            if cache.setdefault(key, value) != value:
                raise ValueError(f"{path}:{lineno}: conflicting duplicate entry")
    return cache
