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
import zlib
from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

from .exact_arith import _INTEGER, _long_int, format_rational, parse_rational

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


def _check_key(genus: int, lam: int, weights: tuple, unsorted: bool) -> None:
    """Raise the first rule of ``load_cache`` that a key breaks, if any.

    In order: genus >= 0, index in 0..genus, sorted weights (checked only if
    ``unsorted``), psi exponent >= 0.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if not 0 <= lam <= genus:
        raise ValueError(f"lambda {lam} outside 0..{genus}")
    if unsorted and list(weights) != sorted(weights):
        raise ValueError("weights are not sorted")
    if 2 * genus + len(weights) - 2 < lam:
        k = CycleKey(genus, lam, weights)
        raise ValueError(f"undefined integrand exponent {k.exponent} for {k}")


# The first line of a nonempty memo file: format version, entries (body
# lines), body bytes and the body's crc32. A crc32 catches a truncated or
# edited body; it is no guard against an edit that also rewrites the header.
_HEADER = re.compile(
    rb"#hodgetrees-memo/1 entries=[0-9]+ bytes=[0-9]+ crc32=[0-9a-f]{8}"
)


def _header(body: bytes) -> bytes:
    """The header line, newline included, that ``save_cache`` writes over ``body``."""
    counts = body.count(b"\n"), len(body), zlib.crc32(body)
    return b"#hodgetrees-memo/1 entries=%d bytes=%d crc32=%08x\n" % counts


def save_cache(cache: dict[CycleKey, Fraction], path: str | os.PathLike) -> None:
    """Write the memo as a header line over sorted tab-separated lines: genus,
    index, weights, value.

    An entry ``load_cache`` would refuse (negative genus, index outside
    0..genus, weights empty, unsorted or not positive, negative psi exponent)
    raises ``ValueError`` naming its key, and nothing is written. An empty
    memo is an empty file. The file goes to a temporary file next to ``path``
    that then replaces it in one step, so a save that fails part way leaves
    any old file whole.
    """
    texts: dict[tuple[int, ...], str] = {}  # weights -> text, each checked once
    lines = []
    for key in sorted(cache):
        genus, lam, weights = key
        text = texts.get(weights)
        try:
            if text is None and not (weights and weights[0] > 0):
                raise ValueError("weights must be nonempty and positive")
            _check_key(genus, lam, weights, text is None)
        except ValueError as exc:
            raise ValueError(f"memo entry {key} would not load: {exc}") from None
        if text is None:
            text = texts[weights] = ",".join(map(str, weights))
        lines.append(f"{genus}\t{lam}\t{text}\t{format_rational(cache[key])}\n")
    body = "".join(lines).encode("ascii")
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as handle:
            if body:
                handle.write(_header(body))
                handle.write(body)
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


# One memo line as save_cache writes it, canonical integers in five groups:
# genus, index, weights, numerator, denominator. int() would also take "+1",
# " 1", "0_3", "01" and "-0".
_KEY_FIELDS = rf"({_INTEGER})\t({_INTEGER})\t([1-9][0-9]*(?:,[1-9][0-9]*)*)\t"
_LINE = re.compile(f"{_KEY_FIELDS}({_INTEGER})(?:/([2-9]|[1-9][0-9]+))?".encode())


def _refuse_text(line: bytes) -> None:
    """Raise the first text rule broken by ``line``, which misses ``_LINE``.

    In order: ASCII, four fields, canonical key fields, key integers within
    int()'s digit limit, a canonical value. Every such line breaks one.
    """
    text = line.decode("ascii")
    fields = text.split("\t")
    if len(fields) != 4:
        raise ValueError("expected 4 tab-separated fields")
    if not re.match(_KEY_FIELDS, text):
        raise ValueError("key fields must be canonical decimal integers")
    for integer in [*fields[:2], *fields[2].split(",")]:
        int(integer)
    parse_rational(fields[3])


def _entry(line: bytes, checked: dict[bytes, tuple]) -> tuple[tuple, tuple]:
    """A memo line's key (genus, index, weights) and value (p, q) as integers.

    Raises the first rule the line breaks: a text rule if it misses
    ``_LINE``, else lowest terms, then ``_check_key``'s. ``checked`` maps each
    weights text whose order was checked to its weights.
    """
    fields = _LINE.fullmatch(line)
    if fields is None:
        _refuse_text(line)
    genus, lam, text, p, q = fields.groups(b"1")  # an integer: q is 1
    genus, lam = int(genus), int(lam)  # key integers keep int()'s digit limit
    weights = checked.get(text)
    unsorted = weights is None  # sorted below, once per weights text
    if unsorted:
        weights = tuple(map(int, text.split(b",")))
    try:
        value = int(p), int(q)
    except ValueError:  # values do not
        value = _long_int(p.decode()), _long_int(q.decode())
    if math.gcd(*value) != 1:
        value_text = (p + b"/" + q).decode()
        raise ValueError(f"rational not in lowest terms: {value_text!r}")
    _check_key(genus, lam, weights, unsorted)
    checked[text] = weights
    return (genus, lam, weights), value


def _hit(data: bytes, keys: Collection[CycleKey]) -> dict | None:
    """The entries of ``keys`` from a memo file whose header matches its body.

    Each key's line is found by its canonical text and checked by ``_entry``.
    None if the header is missing or does not match, or a key's text is
    absent, occurs twice or heads a line that breaks a rule.
    """
    start = data.find(b"\n")  # the newline that ends the header
    if start < 0 or data[: start + 1] != _header(data[start + 1 :]):
        return None
    checked: dict[bytes, tuple[int, ...]] = {}
    memo = {}
    for genus, lam, weights in keys:
        try:
            text = f"\n{genus}\t{lam}\t{','.join(map(str, weights))}\t".encode()
            at = data.find(text, start)
            end = data.find(b"\n", at + 1)
            if at < 0 or end < 0 or data.find(text, end) >= 0:
                return None
            key, value = _entry(data[at + 1 : end], checked)
        except ValueError:  # a broken rule, or a key past str()'s digit limit
            return None
        memo[CycleKey(*key)] = Fraction(*value)
    return memo


def load_cache(
    path: str | os.PathLike, keys: Collection[CycleKey] | None = None
) -> Mapping[CycleKey, Fraction]:
    """Parse a cache file, rejecting any line that fails strict validation.

    With ``keys``, a file whose header matches its body (``save_cache`` wrote
    it, and nothing truncated or edited it since) gives the entries of
    ``keys`` alone, read-only and from their own lines, if each key's line
    occurs once and passes the line rules. Any other call gives a dict of
    every entry from one loop that checks every line and names the first
    refused one with the first rule it breaks: a text rule if it misses
    ``_LINE``, else in order lowest terms, genus >= 0, index in 0..genus,
    sorted weights, psi exponent >= 0 and no conflicting duplicate; then,
    with ``keys``, a header on line 1 that does not match the body. That
    header is skipped, and line numbers count it. Evaluation trusts what
    loads, so entries it never writes (vanishing or undefined ones) are
    refused.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if keys is not None:
        memo = _hit(data, keys)
        if memo is not None:
            return MappingProxyType(memo)
    pairs: dict[tuple, tuple[int, int]] = {}  # (genus, lam, weights) -> (p, q)
    checked: dict[bytes, tuple[int, ...]] = {}  # weights text -> sorted weights
    lines = data.splitlines()
    headed = bool(lines) and _HEADER.fullmatch(lines[0])
    if headed:
        lines[0] = b""  # skipped as blank, so line numbers still count it
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            key, value = _entry(line, checked)
            if pairs.setdefault(key, value) != value:
                raise ValueError("conflicting duplicate entry")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if keys is not None and headed and _hit(data, ()) is None:  # stale header
        raise ValueError(f"{path}:1: header does not match the body")
    return {CycleKey(*key): Fraction(*value) for key, value in pairs.items()}
