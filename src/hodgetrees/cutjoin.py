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
finitely many steps. The coefficients depend on the weights alone, and one
``recursion_terms`` call at (2, 1), where no child vanishes, gives them for
every layer. So evaluation works on rows: a genus and weights, over indices
from a lowest one up to the genus. Joins and handle removals keep genus minus
index, a split lowers it by one, so a call at (g, i, a) fills its key's λ-tail
(g, i'', a), i'' = i..g, and on an empty memo exactly the states those reach.
Two loops, with no recursion and so no depth limit. The first takes rows in
decreasing (genus, number of weights), which every rewrite lowers, so each is
queued once and taken after every row that reaches it, with the lowest index
they need; it reads each row the memo holds whole. The second evaluates the
others children first, each index one sum across all child columns over the
row's one denominator, and adds the states the memo lacks; a row of one index
reads its children from the memo, as ``step_value`` does. A held state must
equal its value, so threads may share a memo; one per thread is the intended use.

A memo file holds one checked line per state (``save_cache``, ``load_cache``).
A command's query of some keys reads a verified hit through ``load_cache``
alone. Any other file goes through ``_read_miss``, which checks every line
but builds values only for the keys' weight totals, as no rewrite changes
the total, and ``_write_miss``, which writes the checked lines back as they
are and formats only the states the query added.
"""

from __future__ import annotations

import math
import os
import re
import zlib
from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush
from operator import mul
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, NamedTuple

from .exact_arith import (
    _INTEGER,
    _long_int,
    _multiset_joins,
    format_rational,
    parse_rational,
)

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

    ``cache`` maps keys to values. A key already present is returned as it is;
    any other call fills the key's λ-tail and the rows it reaches, as the module
    docstring says. A negative psi exponent that the index convention does not
    kill raises ``UndefinedExponentError``; only malformed queries have one.
    """
    key = canonical_key(*key)
    if not 0 <= key.lam <= key.genus:
        return _ZERO
    cache = {} if cache is None else cache
    if key in cache:
        return cache[key]
    if key.exponent < 0:
        _check_key(*key, False)  # raises UndefinedExponentError
    low = {key[::2]: key.lam}  # row (genus, weights) -> lowest index it needs
    heap = [(-key.genus, -len(key.weights), *key[::2])]
    order, rows = [], {}  # rows to evaluate; row -> (low, numerators, denominator)
    while heap:
        _, _, genus, weights = heappop(heap)
        lo = low[genus, weights]  # final: each row that reaches it was popped first
        if (genus, lo, weights) in cache:  # if held whole: read, not expanded
            values = [cache.get((genus, lam, weights)) for lam in range(lo, genus + 1)]
            if all(value is not None for value in values):
                common = math.lcm(*[v.denominator for v in values])
                numerators = [v.numerator * (common // v.denominator) for v in values]
                rows[genus, weights] = lo, numerators, common
                continue
        top = min(genus, 2 * genus + len(weights) - 3)  # last positive exponent
        order.append((genus, weights, lo))
        for dg, dl, children, _ in _transitions(weights) if lo <= top else ():
            first, child_genus = max(lo + dl, 0), genus + dg
            for child in children if first <= min(top + dl, child_genus) else ():
                if first < (lowest := low.get((child_genus, child), child_genus + 1)):
                    low[child_genus, child] = first
                    if lowest > child_genus:  # first reached: queued this once
                        heappush(heap, (-child_genus, -len(child), child_genus, child))
    for genus, weights, lo in reversed(order):  # children first
        values, numerators, denominator = _row(genus, weights, lo, genus, rows, cache)
        rows[genus, weights] = lo, numerators, denominator
        for lam, value in enumerate(values, lo):
            state = CycleKey(genus, lam, weights)
            previous = cache.setdefault(state, value)
            if previous is not value and previous != value:
                raise RuntimeError(f"memo cache rebound {state}: {previous} vs {value}")
    return cache[key]


# Weights -> (genus offset, index offset, child weights, integer coefficients)
# per family of children, kept for the life of the process. Entries depend on
# the weights alone, so threads may share it: racing writers store equal ones.
_TRANSITIONS: dict[tuple[int, ...], tuple[tuple, ...]] = {}


def _transitions(weights: tuple[int, ...]) -> tuple[tuple, ...]:
    """One step's children for every layer, from ``recursion_terms`` at (2, 1).

    There no child vanishes; coefficients become integers over 12*N*(2g + n - 1).
    """
    entries = _TRANSITIONS.get(weights)
    if entries is None:
        scale = 12 * sum(weights) * (len(weights) + 3)
        groups: dict[tuple, list] = {}
        for coefficient, child in recursion_terms(CycleKey(2, 1, weights)):
            p, q = coefficient.as_integer_ratio()
            assert p * scale % q == 0, f"{coefficient} at {weights}"
            groups.setdefault(child[:2], []).append((child.weights, p * scale // q))
        entries = _TRANSITIONS[weights] = tuple(
            (g - 2, lam - 1, *zip(*group)) for (g, lam), group in groups.items()
        )
    return entries


def _row(
    genus: int, weights: tuple, low: int, high: int, rows: dict, memo: Mapping
) -> tuple:
    """A row's values at indices low..high: ``Fraction``s, numerators, denominator.

    Each child's slice of its row in ``rows``, padded with zeros to low..high, is
    one column, a seed a unit column at the genus. One pass over the indices sums
    each across all columns, times their coefficients over the lcm of the
    denominators; one gcd reduces the sums. One index with no seed reads ``memo``.
    """
    top = min(high, 2 * genus + len(weights) - 3)
    scale = 12 * sum(weights) * (2 * genus + len(weights) - 1)
    if low == top == high:
        pairs = []
        for dg, dl, children, coefficients in _transitions(weights):
            valid = 0 <= low + dl <= genus + dg
            for child, c in zip(children, coefficients) if valid else ():
                n, d = memo[genus + dg, low + dl, child].as_integer_ratio()
                pairs.append((c * n, d))
        common = math.lcm(*[d for _, d in pairs])
        numerator = sum([n * (common // d) if d != common else n for n, d in pairs])
        value = Fraction(numerator, common * scale)
        return [value], [value.numerator], value.denominator
    terms, columns = [], []  # per child and seed: (coefficient, denominator), column
    if top < high:  # the seed: a unit column at index genus over its own denominator
        p, q = (weights[0] * weights[0] - 1, 24) if genus else (1, 1)
        terms.append((p * scale, q))
        columns.append([0] * (high - low) + [1])
    for dg, dl, children, coefficients in _transitions(weights) if low <= top else ():
        first, end = max(low + dl, 0), min(top + dl, genus + dg) + 1
        before, after = [0] * (first - dl - low), [0] * (high + dl + 1 - end)
        for child, c in zip(children, coefficients) if first < end else ():
            s, numerators, d = rows[genus + dg, child]
            terms.append((c, d))
            columns.append(before + numerators[first - s : end - s] + after)
    common = math.lcm(*[d for _, d in terms])
    factors = [c * (common // d) for c, d in terms]
    sums = [sum(map(mul, factors, c)) for c in zip(*columns)] or [0] * (high - low + 1)
    divisor = math.gcd(scale * common, *sums)
    sums, scale = [s // divisor for s in sums], scale * common // divisor
    return [Fraction(s, scale) for s in sums], sums, scale


def step_value(key: CycleKey, cache: Mapping[CycleKey, Fraction]) -> Fraction:
    """The value of ``key`` from one step over its children's values in ``cache``.

    It is ``_row``'s one-index step, as ``cycle_value`` takes it. Vanishing keys
    give 0, seeds their closed form. The first child missing from ``cache``
    raises ``KeyError``, a negative psi exponent ``UndefinedExponentError``.
    """
    genus, lam, weights = key
    if not 0 <= lam <= genus:
        return _ZERO
    _check_key(genus, lam, weights, False)
    return _row(genus, weights, lam, lam, {}, cache)[0][0]


def _check_key(genus: int, lam: int, weights: tuple, unsorted: bool) -> None:
    """Raise the first rule of ``load_cache`` that a key breaks, if any.

    In order: nonempty positive weights, genus >= 0, index in 0..genus, sorted
    weights (both weights rules only if ``unsorted``; ``_LINE`` admits only
    positive weights), psi exponent >= 0 (``UndefinedExponentError``).
    """
    if unsorted and not (weights and weights[0] > 0):
        raise ValueError("weights must be nonempty and positive")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if not 0 <= lam <= genus:
        raise ValueError(f"lambda {lam} outside 0..{genus}")
    if unsorted and list(weights) != sorted(weights):
        raise ValueError("weights are not sorted")
    if 2 * genus + len(weights) - 2 < lam:
        k = CycleKey(genus, lam, weights)
        raise UndefinedExponentError(f"undefined integrand exponent {k.exponent} for {k}")


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
    _write(path, "\n".join(_lines(sorted(cache), cache)).encode("ascii"))


def _lines(keys: Iterable[CycleKey], cache: Mapping) -> list[str]:
    """The memo line, newline excluded, of each of ``keys`` with its value in ``cache``.

    A key ``load_cache`` would refuse raises ``ValueError`` naming it.
    """
    texts: dict[tuple[int, ...], str] = {}  # weights -> text, each checked once
    lines = []
    for key in keys:
        genus, lam, weights = key
        text = texts.get(weights)
        try:
            _check_key(genus, lam, weights, text is None)
        except ValueError as exc:
            raise ValueError(f"memo entry {key} would not load: {exc}") from None
        if text is None:
            text = texts[weights] = ",".join(map(str, weights))
        lines.append(f"{genus}\t{lam}\t{text}\t{format_rational(cache[key])}")
    return lines


def _write(path: str | os.PathLike, text: bytes) -> None:
    """Write ``text``, memo lines joined by newlines, as ``save_cache`` does."""
    body = text + b"\n" if text else b""
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as handle:
            if body:
                handle.write(_header(body))
                handle.write(body)
        os.replace(temporary, path)
    except OSError as exc:  # name the memo, not the temporary file
        if exc.filename == temporary:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise
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
    None if a key's text is absent, occurs twice or heads a line breaking a rule.
    The text starts with its genus and index fields, so it is sought only from
    the first to the last line that they head.
    """
    memo = {}
    heads: dict[bytes, tuple[int, int]] = {}  # genus and index -> first, last at
    for genus, lam, weights in keys:
        try:
            head = f"\n{genus}\t{lam}\t".encode()
            if head not in heads:
                heads[head] = data.find(head), data.rfind(head)
            first, last = heads[head]
            text = head + ",".join(map(str, weights)).encode() + b"\t"
            stop = last + len(text)  # where a match at the last head ends
            at = data.find(text, first, stop) if first >= 0 else -1
            end = data.find(b"\n", at + 1)
            if at < 0 or end < 0 or data.find(text, end, stop) >= 0:
                return None
            key, value = _entry(data[at + 1 : end], {})  # keys differ in weights
        except ValueError:  # a broken rule, or a key past str()'s digit limit
            return None
        memo[CycleKey(*key)] = Fraction(*value)
    return memo


def _read(path: str | os.PathLike) -> tuple[bytes, bool]:
    """A memo file's bytes, and whether its header matches its body."""
    with open(path, "rb") as handle:
        data = handle.read()
    start = data.find(b"\n") + 1  # the body's first byte, after the header line
    return data, data[:start] == _header(data[start:])


def _scan(
    data: bytes, path: str | os.PathLike, stale: bool, totals: Collection[int] | None
) -> tuple[dict, dict]:
    """Each entry of memo bytes ``data`` by key: its line, and its (p, q) if
    its weight total is in ``totals`` (any, if None).

    Every line is checked by the rules ``load_cache`` lists, in its order, the
    header on line 1 last and only if ``stale`` (the caller found that it does
    not match the body). The first refused line raises ``ValueError`` with
    ``path``, its line number, which counts the header, and the rule.
    """
    lines: dict[tuple, bytes] = {}  # (genus, lam, weights) -> its checked line
    pairs: dict[tuple, tuple[int, int]] = {}  # (genus, lam, weights) -> (p, q)
    checked: dict[bytes, tuple[int, ...]] = {}  # weights text -> sorted weights
    split = data.splitlines()
    headed = bool(split) and _HEADER.fullmatch(split[0])
    if headed:
        split[0] = b""  # skipped as blank, so line numbers still count it
    for lineno, line in enumerate(split, start=1):
        if not line:
            continue
        try:
            key, value = _entry(line, checked)
            if lines.setdefault(key, line) != line:  # each entry has one text
                raise ValueError("conflicting duplicate entry")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if totals is None or sum(key[2]) in totals:
            pairs[key] = value
    if stale and headed:
        raise ValueError(f"{path}:1: header does not match the body")
    return lines, pairs


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
    data, verified = _read(path)
    if keys is not None and verified:
        memo = _hit(data, keys)
        if memo is not None:
            return MappingProxyType(memo)
    _, pairs = _scan(data, path, keys is not None and not verified, None)
    return {CycleKey(*key): Fraction(*value) for key, value in pairs.items()}


def _read_miss(
    path: str | os.PathLike, keys: Collection[CycleKey]
) -> tuple[dict, dict] | None:
    """A memo file for a query of ``keys``, unless it is a verified hit (None).

    Else its lines by key, each checked as ``load_cache(path, keys)`` checks
    it, and a memo of the entries whose weight total is one of the keys':
    evaluation keeps the weight total, so those are all the query can read.
    """
    data, verified = _read(path)
    if verified and _hit(data, keys) is not None:
        return None  # load_cache(path, keys) reads it
    totals = {sum(weights) for _, _, weights in keys}
    lines, pairs = _scan(data, path, not verified, totals)
    return lines, {CycleKey(*key): Fraction(*value) for key, value in pairs.items()}


def _write_miss(path: str | os.PathLike, lines: dict, memo: Mapping) -> None:
    """Write ``lines`` and the entries of ``memo`` they lack, sorted by key.

    A line that passed ``_scan`` is the text ``save_cache`` writes for its
    entry, so the file is ``save_cache``'s, and only the added entries are
    formatted.
    """
    added = [key for key in memo if key not in lines]
    lines.update(zip(added, [line.encode("ascii") for line in _lines(added, memo)]))
    _write(path, b"\n".join([lines[key] for key in sorted(lines)]))
