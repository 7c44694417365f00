"""Decorated rooted trees and their exact weighted sums.

A decorated tree for a genus g and a leaf count n is a rooted tree with
unordered children in which exactly n vertices are leaves, exactly g
vertices have one child, and exactly n - 1 vertices have two children.
Leaves carry a bijective labelling by 1..n, no one-child vertex sits
directly above a leaf, and every internal vertex carries a step label with:

* all step labels distinct, drawn from 1..2g+n-1;
* the label of a one-child vertex exceeds 1, and the label immediately
  below it is used by no vertex (the "skipped slot");
* labels strictly increase from the root towards the leaves;
* used labels plus skipped slots exactly fill 1..2g+n-1, which forces the
  root label to be 1 for a two-child root and 2 for a one-child root.

Such trees are generated from build histories: start with the n labelled
leaves as separate roots and walk a step counter from 2g+n-1 down to zero.
At each step either two roots are joined under a new two-child vertex
carrying the current counter (counter drops by one), or one root with at
least two leaves is capped by a one-child vertex carrying the counter
(counter drops by two, reserving the skipped slot). Each valid decorated
tree arises from exactly one history, so the walk is duplicate-free.

The weight of a tree divides, for every two-child vertex, its number of
leaf descendants by its step label, and for every one-child vertex with m
leaf descendants, (m**3 - m)/12 by its step label, all times an overall
1/n**(n+g-1). Weighted sums over all (g, n) trees are evaluated without
materializing trees, by aggregating histories over the multiset of root
leaf counts; the per-step factors depend only on those counts, so the
aggregation is an exact regrouping of the per-tree sum. The aggregate is
one forward pass over those states, in layers of equal step counter, with
integer sums: a state's partial weight is scaled by 12**(caps made) *
top!/step!, which clears every step denominator. It has no depth limit.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial
from operator import itemgetter
from typing import Iterator, NamedTuple, Union

from .cutjoin import _multiset_joins

__all__ = [
    "Leaf",
    "Unary",
    "Binary",
    "DecoratedTree",
    "canonical_encoding",
    "enumerate_trees",
    "iter_encoded_trees",
    "count_trees",
    "tree_sum",
    "tree_weight",
    "validate_tree",
    "weighted_encodings",
]


class Leaf(NamedTuple):
    label: int


class Unary(NamedTuple):
    step: int
    child: "DecoratedTree"


class Binary(NamedTuple):
    step: int
    first: "DecoratedTree"
    second: "DecoratedTree"


DecoratedTree = Union[Leaf, Unary, Binary]


def canonical_encoding(tree: DecoratedTree) -> str:
    """Deterministic text form; equal as unordered labelled trees iff equal text.

    Leaves render as ``L<label>``, one-child vertices as ``U<step>(child)``,
    two-child vertices as ``B<step>(x,y)`` with the children's encodings in
    lexicographic order, so sibling order in the value is irrelevant.
    """
    if isinstance(tree, Leaf):
        return f"L{tree.label}"
    if isinstance(tree, Unary):
        return f"U{tree.step}({canonical_encoding(tree.child)})"
    if isinstance(tree, Binary):
        a = canonical_encoding(tree.first)
        b = canonical_encoding(tree.second)
        if b < a:
            a, b = b, a
        return f"B{tree.step}({a},{b})"
    raise TypeError(f"not a decorated tree node: {tree!r}")


def _check_parameters(genus: int, leaves: int) -> None:
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if leaves < 1:
        raise ValueError("leaf count must be positive")


def iter_encoded_trees(genus: int, leaves: int) -> Iterator[tuple[str, DecoratedTree]]:
    """Yield (encoding, tree) for every (genus, leaves) decorated tree.

    One tree per build history, walked with an explicit stack and no depth
    limit; encodings come out of the walk itself, so none is re-traversed.
    """
    _check_parameters(genus, leaves)
    start = [(f"L{i}", Leaf(i), 1) for i in range(1, leaves + 1)]
    stack = [(start, 2 * genus + leaves - 1, genus)]
    # step == len(roots) - 1 + 2 * budget throughout: step 0 leaves one root
    # and no caps, so nothing more is pushed, and a cap owed means step >= 2.
    while stack:
        roots, step, budget = stack.pop()
        if step == 0:
            yield roots[0][0], roots[0][1]
        for i, (enc_i, tree_i, size_i) in enumerate(roots):
            for j in range(i + 1, len(roots)):
                enc_j, tree_j, size_j = roots[j]
                rest = roots.copy()  # roots are a multiset: their order is free
                del rest[j]
                if enc_i <= enc_j:
                    joined = f"B{step}({enc_i},{enc_j})", Binary(step, tree_i, tree_j)
                else:
                    joined = f"B{step}({enc_j},{enc_i})", Binary(step, tree_j, tree_i)
                rest[i] = (*joined, size_i + size_j)
                stack.append((rest, step - 1, budget))
            if budget > 0 and size_i >= 2:
                rest = roots.copy()
                rest[i] = (f"U{step}({enc_i})", Unary(step, tree_i), size_i)
                stack.append((rest, step - 2, budget - 1))


def enumerate_trees(genus: int, leaves: int) -> list[DecoratedTree]:
    """All (genus, leaves) decorated trees, sorted by canonical encoding."""
    found = sorted(iter_encoded_trees(genus, leaves), key=lambda pair: pair[0])
    return [t for _, t in found]


def weighted_encodings(genus: int, leaves: int) -> list[tuple[str, int, int]]:
    """(encoding, numerator, denominator) of each tree's weight, by encoding.

    The walk of ``iter_encoded_trees`` without tree objects: a root is its
    encoding and leaf count, and a history on the stack carries
    its weight's numerator and denominator, unreduced. No tree is validated.
    """
    _check_parameters(genus, leaves)
    rows: list[tuple[str, int, int]] = []
    start = [(f"L{i}", 1) for i in range(1, leaves + 1)]
    stack = [(start, 2 * genus + leaves - 1, genus, 1, leaves ** (leaves + genus - 1))]
    # step == len(roots) - 1 + 2 * budget throughout, so the last steps are
    # finished in place: at step 1 two roots and no caps are left (one join),
    # and at step 2 either three roots and no caps (two joins, three ways) or
    # one root of all the leaves and one cap, made only if it has two leaves.
    while stack:
        roots, step, budget, numer, denom = stack.pop()
        if step <= 2:
            if step == 0:
                rows.append((roots[0][0], numer, denom))
            elif step == 1:
                (enc_i, size_i), (enc_j, size_j) = roots
                if enc_j < enc_i:
                    enc_i, enc_j = enc_j, enc_i
                rows.append((f"B1({enc_i},{enc_j})", numer * (size_i + size_j), denom))
            elif budget:
                if leaves >= 2:
                    cap = leaves * leaves * leaves - leaves
                    rows.append((f"U2({roots[0][0]})", numer * cap, denom * 24))
            else:
                a, b, c = roots
                for (enc_i, size_i), (enc_j, size_j), (enc_k, _) in (
                    (a, b, c),
                    (a, c, b),
                    (b, c, a),
                ):
                    if enc_j < enc_i:
                        enc_i, enc_j = enc_j, enc_i
                    joined = f"B2({enc_i},{enc_j})"
                    if enc_k < joined:
                        joined = f"B1({enc_k},{joined})"
                    else:
                        joined = f"B1({joined},{enc_k})"
                    rows.append((joined, numer * (size_i + size_j) * leaves, denom * 2))
            continue
        for i, (enc_i, size_i) in enumerate(roots):
            for j in range(i + 1, len(roots)):
                enc_j, size_j = roots[j]
                size = size_i + size_j
                rest = roots.copy()  # roots are a multiset: their order is free
                del rest[j]
                if enc_i <= enc_j:
                    rest[i] = (f"B{step}({enc_i},{enc_j})", size)
                else:
                    rest[i] = (f"B{step}({enc_j},{enc_i})", size)
                stack.append((rest, step - 1, budget, numer * size, denom * step))
            if budget > 0 and size_i >= 2:
                rest = roots.copy()
                rest[i] = (f"U{step}({enc_i})", size_i)
                cap = size_i * size_i * size_i - size_i
                stack.append((rest, step - 2, budget - 1, numer * cap, denom * 12 * step))

    rows.sort(key=itemgetter(0))
    return rows


def _aggregate(genus: int, leaves: int) -> tuple[int, int]:
    """(number of histories, 12**genus * top! times their weight sum).

    One forward pass over the states (sorted root leaf counts, caps still
    owed), in layers of equal step counter: one join per surplus root plus
    two steps per cap. Each state carries its number of histories and its
    partial weight scaled by 12**(caps made) * top!/step!, an integer: a
    join of a + b leaves adds (a + b) times it per position pair to the
    layer one step below, and a cap of a root with m leaves adds
    (m**3 - m) * (step - 1) times it to the layer two steps below. A layer
    is dropped once expanded; the walk ends at ((leaves,), 0), step 0.
    """
    _check_parameters(genus, leaves)
    top = 2 * genus + leaves - 1
    layers = {top: {((1,) * leaves, genus): [1, 1]}}
    for step in range(top, 0, -1):
        joins = layers.setdefault(step - 1, {})
        for (sizes, caps), (histories, scaled) in layers.pop(step, {}).items():
            counts = Counter(sizes)
            for pairs, joined, merged in _multiset_joins(sizes, counts):
                below = joins.setdefault((merged, caps), [0, 0])
                below[0] += pairs * histories
                below[1] += pairs * joined * scaled
            eligible = len(sizes) - counts[1]  # roots with at least two leaves
            if caps and eligible:
                weight = sum(m * (a * a * a - a) for a, m in counts.items())
                capped = layers.setdefault(step - 2, {})
                below = capped.setdefault((sizes, caps - 1), [0, 0])
                below[0] += eligible * histories
                below[1] += weight * (step - 1) * scaled
    return tuple(layers.get(0, {}).get(((leaves,), 0), (0, 0)))


def count_trees(genus: int, leaves: int) -> int:
    """Number of (genus, leaves) decorated trees, i.e. of build histories."""
    return _aggregate(genus, leaves)[0]


def tree_sum(genus: int, leaves: int) -> Fraction:
    """Exact sum of tree weights over all (genus, leaves) decorated trees."""
    scaled = _aggregate(genus, leaves)[1]
    top = 2 * genus + leaves - 1
    return Fraction(scaled, 12**genus * factorial(top) * leaves ** (leaves + genus - 1))


def _inspect(tree: DecoratedTree) -> tuple[str | None, Fraction | None]:
    """One walk over the tree: (first violated rule or None, weight or None).

    The weight's integer numerator and denominator are multiplied up during
    the walk, but the ``Fraction`` is built only once every rule has passed,
    so a malformed step label of 0 is reported, never divided by.
    """
    labels: list[int] = []
    unary: list[int] = []
    binary: list[int] = []
    cap_on_leaf = descent_broken = False
    numer = denom = 1

    def visit(node: DecoratedTree, above: int | None) -> int:
        nonlocal cap_on_leaf, descent_broken, numer, denom
        if isinstance(node, Leaf):
            labels.append(node.label)
            return 1
        if not isinstance(node, (Unary, Binary)):
            raise TypeError(f"not a decorated tree node: {node!r}")
        step = node.step
        if above is not None and step <= above:
            descent_broken = True
        if isinstance(node, Unary):
            unary.append(step)
            cap_on_leaf = cap_on_leaf or isinstance(node.child, Leaf)
            m = visit(node.child, step)
            numer *= m * m * m - m
            denom *= 12 * step
            return m
        binary.append(step)
        m = visit(node.first, step) + visit(node.second, step)
        numer *= m
        denom *= step
        return m

    visit(tree, None)
    n = len(labels)
    g = len(unary)
    if sorted(labels) != list(range(1, n + 1)):
        return "leaf labels are not a bijection onto 1..n", None
    if cap_on_leaf:
        return "a one-child vertex sits directly above a leaf", None
    # Unneeded: these shapes always have n - 1 two-child vertices, and the fill
    # makes the root's least label 1 (two-child root) or 2 (one-child root).
    steps = unary + binary
    used = set(steps)
    if len(used) != len(steps):
        return "step labels are not distinct", None
    top = 2 * g + n - 1
    if not all(1 <= s <= top for s in steps):
        return f"step label outside 1..{top}", None
    if descent_broken:
        return "step labels do not increase from root to leaves", None
    for s in unary:
        if s < 2 or (s - 1) in used:
            return "a one-child vertex fails to reserve its skipped slot", None
    if used | {s - 1 for s in unary} != set(range(1, top + 1)):
        return f"used and skipped labels do not fill 1..{top}", None
    return None, Fraction(numer, denom * n ** (n + g - 1))


def validate_tree(tree: DecoratedTree) -> str | None:
    """Check every decoration rule; returns None or the first violated rule."""
    return _inspect(tree)[0]


def tree_weight(tree: DecoratedTree) -> Fraction:
    """Exact weight of one decorated tree; rejects malformed trees."""
    problem, weight = _inspect(tree)
    if problem is not None:
        raise ValueError(f"malformed decorated tree: {problem}")
    return weight
