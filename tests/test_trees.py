import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from hodgetrees.cutjoin import _multiset_joins, canonical_key, cycle_value
from hodgetrees.trees import (
    Binary,
    Leaf,
    Unary,
    canonical_encoding,
    count_trees,
    enumerate_trees,
    iter_encoded_trees,
    tree_sum,
    tree_weight,
    validate_tree,
    weighted_encodings,
)

UNIT_PAIR_TREE = Unary(2, Binary(3, Leaf(1), Leaf(2)))  # the unique (g=1, n=2) tree


class TestCounts:
    @pytest.mark.parametrize(
        "genus, leaves, expected",
        [(2, 1, 0), (2, 2, 1), (2, 3, 9), (0, 1, 1), (1, 2, 1), (1, 1, 0)],
    )
    def test_known_counts(self, genus, leaves, expected):
        assert len(enumerate_trees(genus, leaves)) == expected
        assert count_trees(genus, leaves) == expected

    def test_count_matches_enumeration(self):
        for genus in range(4):
            for leaves in range(1, 7):
                if 2 * genus + leaves - 1 > 7:
                    continue
                assert count_trees(genus, leaves) == len(
                    enumerate_trees(genus, leaves)
                )

    def test_genus_zero_closed_form(self):
        # the number of genus-zero decorated trees is n! (n-1)! / 2^(n-1)
        for n in range(1, 13):
            expected = math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1)
            assert count_trees(0, n) == expected

    def test_single_leaf_tree(self):
        assert enumerate_trees(0, 1) == [Leaf(1)]

    def test_iterator_matches_list(self):
        pairs = sorted(iter_encoded_trees(2, 3))
        assert [e for e, _ in pairs] == [canonical_encoding(t) for _, t in pairs]
        assert [t for _, t in pairs] == enumerate_trees(2, 3)

    def test_deep_walk(self):
        # 2000 steps deep, past the default recursion limit of 1000
        assert sys.getrecursionlimit() <= 1000
        (tree,) = enumerate_trees(1000, 2)
        assert tree.step == 2 and isinstance(tree, Unary)
        ((encoding, _),) = iter_encoded_trees(1000, 2)
        assert encoding == weighted_encodings(1000, 2)[0][0]

    @pytest.mark.parametrize("genus, leaves", [(-1, 2), (1, 0)])
    def test_rejects_bad_parameters(self, genus, leaves):
        with pytest.raises(ValueError):
            enumerate_trees(genus, leaves)


class TestEncoding:
    def test_unit_pair_tree(self):
        assert [canonical_encoding(t) for t in enumerate_trees(1, 2)] == [
            "U2(B3(L1,L2))"
        ]

    def test_single_leaf(self):
        assert canonical_encoding(Leaf(1)) == "L1"

    def test_child_order_insensitive(self):
        assert canonical_encoding(Binary(1, Leaf(2), Leaf(1))) == canonical_encoding(
            Binary(1, Leaf(1), Leaf(2))
        )

    def test_enumeration_sorted_and_distinct(self):
        encodings = [canonical_encoding(t) for t in enumerate_trees(2, 3)]
        assert encodings == sorted(encodings)
        assert len(set(encodings)) == 9

    def test_first_child_has_the_smaller_encoding(self):
        # enumerate_trees builds each two-child vertex in encoding order
        stack = enumerate_trees(1, 4) + enumerate_trees(0, 5)
        while stack:
            node = stack.pop()
            if isinstance(node, Unary):
                stack.append(node.child)
            elif isinstance(node, Binary):
                assert canonical_encoding(node.first) < canonical_encoding(node.second)
                stack.extend((node.first, node.second))

    def test_histories_collide_nowhere_small(self):
        for genus in range(4):
            for leaves in range(1, 7):
                if 2 * genus + leaves - 1 > 7:
                    continue
                seen = set()
                total = 0
                for encoding, _ in iter_encoded_trees(genus, leaves):
                    seen.add(encoding)
                    total += 1
                assert len(seen) == total == count_trees(genus, leaves)


class TestWeights:
    def test_unit_pair_tree_weight(self):
        assert tree_weight(UNIT_PAIR_TREE) == Fraction(1, 24)

    def test_unique_genus_two_pair_tree(self):
        (tree,) = enumerate_trees(2, 2)
        assert canonical_encoding(tree) == "U2(U4(B5(L1,L2)))"
        assert tree_weight(tree) == Fraction(1, 640)

    def test_genus_two_triple_weights(self):
        # three shapes, three labellings each; weights depend on shape only
        weights = sorted(
            (canonical_encoding(t), tree_weight(t)) for t in enumerate_trees(2, 3)
        )
        by_value = {}
        for _, w in weights:
            by_value[w] = by_value.get(w, 0) + 1
        assert by_value == {
            Fraction(1, 810): 3,
            Fraction(1, 2430): 3,
            Fraction(1, 4860): 3,
        }

    def test_single_leaf_weight(self):
        assert tree_weight(Leaf(1)) == 1

    def test_weights_positive(self):
        for genus, leaves in [(1, 3), (2, 3), (3, 2), (0, 5)]:
            for tree in enumerate_trees(genus, leaves):
                assert tree_weight(tree) > 0

    def test_malformed_tree_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            tree_weight(Unary(4, Leaf(1)))


class TestSums:
    @pytest.mark.parametrize(
        "genus, leaves, expected",
        [
            (2, 3, Fraction(1, 180)),
            (2, 2, Fraction(1, 640)),
            (1, 2, Fraction(1, 24)),
            (2, 1, Fraction(0)),
            (1, 1, Fraction(0)),
        ],
    )
    def test_known_sums(self, genus, leaves, expected):
        assert tree_sum(genus, leaves) == expected

    def test_genus_zero_sums_are_one(self):
        for n in range(1, 10):
            assert tree_sum(0, n) == 1

    def test_aggregation_matches_enumeration(self):
        # the aggregated sum must equal the literal sum of tree weights
        # wherever full enumeration is feasible
        for genus in range(4):
            for leaves in range(1, 8):
                if count_trees(genus, leaves) > 60000:
                    continue
                direct = sum(
                    (tree_weight(t) for t in enumerate_trees(genus, leaves)),
                    Fraction(0),
                )
                assert tree_sum(genus, leaves) == direct, (genus, leaves)


def reference_aggregate(sizes, budget, join_factor, cap_factor, memo):
    """Sum of per-step factor products over all histories from this state.

    The aggregate as it was before it became an integer recursion: factors
    are callables of the vertex's leaf count and the current step counter.
    """
    if len(sizes) == 1 and budget == 0:
        return 1
    state = (sizes, budget)
    hit = memo.get(state)
    if hit is not None:
        return hit
    step = len(sizes) - 1 + 2 * budget
    counts = Counter(sizes)
    total = 0
    for pairs, joined, merged in _multiset_joins(sizes, counts):
        below = reference_aggregate(merged, budget, join_factor, cap_factor, memo)
        total += pairs * join_factor(joined, step) * below
    if budget > 0:
        eligible = 0
        for a, multiplicity in counts.items():
            if a >= 2:
                eligible += multiplicity * cap_factor(a, step)
        if eligible:
            total += eligible * reference_aggregate(
                sizes, budget - 1, join_factor, cap_factor, memo
            )
    memo[state] = total
    return total


def reference_count(genus, leaves):
    return reference_aggregate((1,) * leaves, genus, lambda s, t: 1, lambda s, t: 1, {})


def reference_sum(genus, leaves):
    raw = reference_aggregate(
        (1,) * leaves,
        genus,
        lambda s, t: Fraction(s, t),
        lambda s, t: Fraction(s * s * s - s, 12 * t),
        {},
    )
    return Fraction(raw) / leaves ** (leaves + genus - 1)


AGGREGATE_CASES = [(g, n) for g in range(7) for n in range(1, 9)] + [(0, 20), (10, 10)]


class TestIntegerAggregate:
    @pytest.mark.parametrize("genus, leaves", AGGREGATE_CASES)
    def test_matches_fraction_reference(self, genus, leaves):
        assert count_trees(genus, leaves) == reference_count(genus, leaves)
        assert tree_sum(genus, leaves) == reference_sum(genus, leaves)

    @pytest.mark.parametrize("genus", [991, 1000])
    def test_deep_cap_chain(self, genus):
        # The one (g, 2) history joins the two leaves and then caps g times,
        # a chain of states deeper than Python's default recursion limit.
        assert count_trees(genus, 2) == 1
        assert tree_sum(genus, 2) == cycle_value(canonical_key(genus, genus, (1, 1)))


class TestWeightedEncodings:
    def test_matches_tree_objects(self):
        # Every (g, n) with 2g + n - 1 <= 8 and at most 20,000 trees, (g, 1)
        # with none among them. Histories end at step 2 in two shapes, both
        # finished in place: two joins over three roots, and a U2 cap on one.
        # In (4, 5) the third root can be B11(...), which sorts before B2(...).
        # tests/test_cli.py compares the printed listings up to 2g + n - 1 <= 9.
        cases = [
            (genus, leaves)
            for genus in range(5)
            for leaves in range(1, 10 - 2 * genus)
            if count_trees(genus, leaves) <= 20_000
        ]
        two_joins = caps = first_below_b2 = 0
        for genus, leaves in cases + [(4, 5)]:
            rows = weighted_encodings(genus, leaves)
            assert [(e, Fraction(p, q)) for e, p, q in rows] == [
                (canonical_encoding(t), tree_weight(t))
                for t in enumerate_trees(genus, leaves)
            ], (genus, leaves)
            two_joins += sum("B2(" in e for e, _, _ in rows)
            caps += sum(e.startswith("U2(") for e, _, _ in rows)
            first_below_b2 += sum(
                e.startswith("B1(B1") and ",B2(" in e for e, _, _ in rows
            )
        assert two_joins and caps and first_below_b2

    def test_unit_pair_tree(self):
        (row,) = weighted_encodings(1, 2)
        assert row[0] == "U2(B3(L1,L2))" and Fraction(row[1], row[2]) == Fraction(1, 24)

    def test_single_leaf_and_empty(self):
        assert weighted_encodings(0, 1) == [("L1", 1, 1)]
        assert weighted_encodings(2, 1) == []

    @pytest.mark.parametrize("genus, leaves", [(-1, 2), (1, 0)])
    def test_rejects_bad_parameters(self, genus, leaves):
        with pytest.raises(ValueError):
            weighted_encodings(genus, leaves)


class TestStructure:
    def _census(self, tree):
        leaves = unary = binary = 0
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                leaves += 1
            elif isinstance(node, Unary):
                unary += 1
                stack.append(node.child)
            else:
                binary += 1
                stack.extend((node.first, node.second))
        return leaves, unary, binary

    def test_vertex_counts(self):
        for genus, leaves in [(0, 4), (1, 3), (2, 3), (3, 2)]:
            for tree in enumerate_trees(genus, leaves):
                assert self._census(tree) == (leaves, genus, leaves - 1)

    def test_enumerated_trees_validate(self):
        for genus, leaves in [(0, 5), (1, 4), (2, 3), (3, 2), (0, 1)]:
            for tree in enumerate_trees(genus, leaves):
                assert validate_tree(tree) is None

    def test_root_steps(self):
        for genus, leaves in [(1, 3), (2, 3), (0, 4)]:
            for tree in enumerate_trees(genus, leaves):
                if isinstance(tree, Unary):
                    assert tree.step == 2
                elif isinstance(tree, Binary):
                    assert tree.step == 1

    def test_labels_fill_range(self):
        for tree in enumerate_trees(2, 3):
            used, skipped = set(), set()
            stack = [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, Unary):
                    used.add(node.step)
                    skipped.add(node.step - 1)
                    stack.append(node.child)
                elif isinstance(node, Binary):
                    used.add(node.step)
                    stack.extend((node.first, node.second))
            assert used | skipped == set(range(1, 7))
            assert used & skipped == set()


class TestValidation:
    def test_valid_tree(self):
        assert validate_tree(UNIT_PAIR_TREE) is None

    def test_root_step_relabelled(self):
        mutated = Unary(3, Binary(3, Leaf(1), Leaf(2)))
        assert validate_tree(mutated) == "step labels are not distinct"

    def test_cap_above_leaf(self):
        assert (
            validate_tree(Unary(4, Leaf(1)))
            == "a one-child vertex sits directly above a leaf"
        )

    def test_duplicate_leaf_labels(self):
        assert (
            validate_tree(Binary(1, Leaf(1), Leaf(1)))
            == "leaf labels are not a bijection onto 1..n"
        )

    def test_descent_violation(self):
        mutated = Unary(2, Binary(4, Binary(5, Leaf(1), Leaf(2)), Leaf(3)))
        # steps 2,4,5 for g=1, n=3: label 3 is missing and 4 claims the
        # skipped slot; completeness fails after the pointwise rules pass
        assert validate_tree(mutated) is not None

    def test_wrong_root_label(self):
        mutated = Binary(2, Leaf(1), Unary(4, Binary(5, Leaf(2), Leaf(3))))
        assert validate_tree(mutated) is not None


# One small malformed tree per rule of validate_tree, in the order it
# checks them. Each tree but the step-0 one also breaks the next rule, so
# the expected message pins the order. Integer labels that pass the earlier
# rules always fill 1..2g+n-1, so the fill case needs a label of 3/2. No
# rule counts two-child vertices or checks the root's label: TestAcceptedSet
# shows on every small tree that these rules accept exactly the walked ones.
RULE_BREAKERS = [
    (Unary(3, Leaf(2)), "leaf labels are not a bijection onto 1..n"),
    (
        Binary(1, Unary(1, Leaf(1)), Leaf(2)),
        "a one-child vertex sits directly above a leaf",
    ),
    (Unary(4, Binary(4, Leaf(1), Leaf(2))), "step labels are not distinct"),
    (Binary(3, Binary(2, Leaf(1), Leaf(2)), Leaf(3)), "step label outside 1..2"),
    # a weight computed before this rule would divide by the step label 0
    (Binary(0, Leaf(1), Leaf(2)), "step label outside 1..1"),
    (
        Unary(3, Binary(2, Leaf(1), Leaf(2))),
        "step labels do not increase from root to leaves",
    ),
    (
        Unary(1, Binary(3, Leaf(1), Leaf(2))),
        "a one-child vertex fails to reserve its skipped slot",
    ),
    (
        Binary(Fraction(3, 2), Binary(2, Leaf(1), Leaf(2)), Leaf(3)),
        "used and skipped labels do not fill 1..2",
    ),
]


class TestValidationRules:
    @pytest.mark.parametrize("tree, message", RULE_BREAKERS)
    def test_first_violated_rule(self, tree, message):
        assert validate_tree(tree) == message
        with pytest.raises(ValueError) as excinfo:
            tree_weight(tree)
        assert str(excinfo.value) == f"malformed decorated tree: {message}"

    def test_rejects_foreign_node(self):
        with pytest.raises(TypeError):
            validate_tree(Binary(1, Leaf(1), "L2"))


def _every_tree(labels, caps, top):
    """Each tree over leaf labels ``labels`` with ``caps`` one-child vertices.

    Step labels range over 1..top independently, decorated or not; the two
    children of a two-child vertex come in one order only.
    """
    if caps == 0 and len(labels) == 1:
        yield Leaf(labels[0])
    first, rest = labels[0], labels[1:]
    for step in range(1, top + 1):
        if caps:
            for child in _every_tree(labels, caps - 1, top):
                yield Unary(step, child)
        for k in range(len(rest)):  # the second child keeps at least one label
            for chosen in itertools.combinations(rest, k):
                other = tuple(x for x in rest if x not in chosen)
                for c in range(caps + 1):
                    for a in _every_tree((first, *chosen), c, top):
                        for b in _every_tree(other, caps - c, top):
                            yield Binary(step, a, b)


class TestAcceptedSet:
    # every (genus, leaves) with 2 * genus + leaves - 1 <= 4, and (2, 2)
    @pytest.mark.parametrize(
        "genus, leaves",
        [(g, n) for g in range(3) for n in range(1, 6 - 2 * g)] + [(2, 2)],
    )
    def test_validator_accepts_exactly_the_walked_trees(self, genus, leaves):
        top = 2 * genus + leaves - 1
        walked = {canonical_encoding(t) for t in enumerate_trees(genus, leaves)}
        accepted = set()
        for tree in _every_tree(tuple(range(1, leaves + 1)), genus, top):
            encoding = canonical_encoding(tree)
            valid = validate_tree(tree) is None
            assert valid == (encoding in walked), tree
            if valid:
                accepted.add(encoding)
        assert accepted == walked
