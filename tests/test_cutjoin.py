import hashlib
import heapq
import math
import random
import re
import zlib
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hodgetrees.cutjoin as cutjoin
import hodgetrees.hodge as hodge
from hodgetrees.cutjoin import (
    CycleKey,
    UndefinedExponentError,
    canonical_key,
    cycle_value,
    load_cache,
    recursion_terms,
    save_cache,
    step_value,
)
from hodgetrees.exact_arith import _INTEGER, format_rational, parse_rational
from hodgetrees.hodge import hodge_integral, hodge_table, integral_keys


def key(genus, lam, weights):
    return canonical_key(genus, lam, weights)


def value(genus, lam, weights, cache=None):
    return cycle_value(key(genus, lam, weights), cache)


class TestCanonicalKey:
    def test_sorts_weights(self):
        assert key(1, 1, (2, 1)) == CycleKey(1, 1, (1, 2))

    def test_idempotent(self):
        k = key(2, 1, (3, 1, 2))
        assert canonical_key(*k) == k

    def test_exponent(self):
        assert key(2, 1, (1, 1)).exponent == 3
        assert key(1, 1, (5,)).exponent == 0
        assert key(0, 0, (3,)).exponent == -1

    @pytest.mark.parametrize(
        "genus, lam, weights",
        [(1, 1, ()), (1, 1, (0,)), (1, 1, (-2, 3)), (-1, 0, (1,))],
    )
    def test_rejects_malformed(self, genus, lam, weights):
        with pytest.raises(ValueError):
            key(genus, lam, weights)


class TestSeedsAndConventions:
    @pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 7), (5, 5)])
    def test_genus_zero_pair(self, a, b):
        assert value(0, 0, (a, b)) == 1

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 10])
    def test_genus_one_single_weight(self, a):
        assert value(1, 1, (a,)) == Fraction(a * a - 1, 24)

    def test_index_above_genus_vanishes(self):
        assert value(1, 2, (1, 1)) == 0
        assert value(0, 1, (1, 1, 2)) == 0

    def test_negative_index_vanishes(self):
        assert value(2, -1, (1, 1)) == 0

    def test_undefined_exponent_raises(self):
        # genus 0 with a single weight is the only index shape that is
        # neither a seed nor killed by the index convention
        for weight in 5, 1:
            with pytest.raises(UndefinedExponentError) as info:
                value(0, 0, (weight,))
            assert type(info.value) is UndefinedExponentError

    def test_undefined_exponent_is_raised_without_a_step(self, monkeypatch):
        def step_value(*args):
            raise AssertionError("cycle_value took a step")

        monkeypatch.setattr(cutjoin, "step_value", step_value)
        with pytest.raises(UndefinedExponentError) as info:
            cutjoin.cycle_value((0, 0, (5,)))
        assert type(info.value) is UndefinedExponentError
        assert str(info.value) == (
            "undefined integrand exponent -1 for CycleKey(genus=0, lam=0, weights=(5,))"
        )


def seed_table(genus, lam, weights):
    """The seed closed forms as a table of index shapes: a value, or None."""
    if genus == 1 and lam == 1 and len(weights) == 1:
        return Fraction(weights[0] * weights[0] - 1, 24)
    if genus == 0 and lam == 0 and len(weights) == 2:
        return Fraction(1)
    return None


def partitions(total, largest=None):
    """Every sorted tuple of positive integers adding up to ``total``."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - part, part):
            yield rest + (part,)


class TestExponentRule:
    """The psi exponent classifies keys exactly as the seed table does."""

    KEYS = [
        CycleKey(genus, lam, weights)
        for genus in range(5)
        for lam in range(-1, genus + 2)
        for total in range(1, 7)
        for weights in partitions(total)
    ]

    def test_step_value_without_children(self):
        assert len({k.weights for k in self.KEYS}) == 1 + 2 + 3 + 5 + 7 + 11
        undefined = []
        for k in self.KEYS:
            if not 0 <= k.lam <= k.genus:
                assert step_value(k, {}) == 0, k
            elif seed_table(*k) is not None:
                assert step_value(k, {}) == seed_table(*k), k
            elif k.exponent <= 0:
                message = f"undefined integrand exponent {k.exponent} for {k}"
                match = re.escape(message)
                with pytest.raises(UndefinedExponentError, match=match) as info:
                    step_value(k, {})
                assert type(info.value) is UndefinedExponentError
                undefined.append(k)
            elif k.weights == (1,):
                assert step_value(k, {}) == 0, k  # a step with no children
            else:
                with pytest.raises(KeyError):
                    step_value(k, {})
        assert undefined == [CycleKey(0, 0, (a,)) for a in range(1, 7)]

    def test_memo_line_loads_exactly_where_evaluation_writes(self, tmp_path):
        path = tmp_path / "memo.tsv"
        for k in self.KEYS:
            cache = {}
            try:
                cycle_value(k, cache)
            except UndefinedExponentError:
                pass
            writes = k in cache
            seed_or_step = k.exponent > 0 or seed_table(*k) is not None
            assert writes == (0 <= k.lam <= k.genus and seed_or_step)
            weights = ",".join(map(str, k.weights))
            path.write_text(f"{k.genus}\t{k.lam}\t{weights}\t1\n")
            try:
                loads = load_cache(path) == {k: 1}
            except ValueError:
                loads = False
            assert loads == writes, k


class TestKnownValues:
    def test_genus_one_weight_three(self):
        assert value(1, 1, (3,)) == Fraction(1, 3)

    def test_genus_one_mixed_weights(self):
        assert value(1, 1, (1, 2)) == Fraction(1, 6)

    def test_genus_two_unit_pairs(self):
        assert value(2, 1, (1, 1)) == Fraction(1, 480)
        assert value(2, 1, (1, 1, 1)) == Fraction(1, 120)

    def test_genus_two_single_unit_weight(self):
        assert value(2, 1, (1,)) == 0

    def test_genus_one_index_zero(self):
        # all rewrite families vanish except the split, giving (a*a-1)/24 at a=2
        assert value(1, 0, (2,)) == Fraction(1, 8)

    @pytest.mark.parametrize("a", [2, 3, 4, 5])
    def test_index_zero_single_weight_matches_closed_form(self, a):
        assert value(1, 0, (a,)) == Fraction(a * a - 1, 24)

    def test_genus_one_weight_pairs_match_closed_form(self):
        # (a**2 + b**2 - 1)/24 at g = 1 for weights a + b = N, 40 <= N <= 60,
        # at both indices: 1,040 keys whose joins reach weights of 40 and more.
        cache = {}
        for lam in (0, 1):
            for total in range(40, 61):
                for a in range(1, total // 2 + 1):
                    b = total - a
                    expected = Fraction(a * a + b * b - 1, 24)
                    assert value(1, lam, (a, b), cache) == expected, (lam, a, b)


def sinh_product(genus, weights):
    """The z^(2g) coefficient of prod_i S(a_i z) / S(z), S(z) = sinh(z/2)/(z/2).

    Series in u = z^2 with ``Fraction`` coefficients up to u^genus: the u^j
    coefficient of S(a z) is a^(2j) / (4^j (2j + 1)!), and S's constant term 1
    makes the division a plain back substitution.
    """
    s = [Fraction(1, 4**j * math.factorial(2 * j + 1)) for j in range(genus + 1)]
    product = [Fraction(1)] + [Fraction(0)] * genus
    for a in weights:
        factor = [c * a ** (2 * j) for j, c in enumerate(s)]
        product = [
            sum(product[i] * factor[m - i] for i in range(m + 1))
            for m in range(genus + 1)
        ]
    quotient = []
    for m in range(genus + 1):
        below = sum(s[j] * quotient[m - j] for j in range(1, m + 1))
        quotient.append(product[m] - below)
    return quotient[genus]


class TestLambdaZeroProduct:
    """At index 0 a cycle value is ``sinh_product``: the one-part double Hurwitz
    formula of Goulden, Jackson and Vakil (Adv. Math. 2005)."""

    def test_small_totals(self):
        # Every genus up to 7 and partition of a total up to 9 that can expand.
        keys = [
            (genus, weights)
            for genus in range(8)
            for total in range(1, 10)
            for weights in partitions(total)
            if 2 * genus + len(weights) - 2 > 0
        ]
        assert len(keys) == 739
        cache = {}
        for genus, weights in keys:
            expected = sinh_product(genus, weights)
            assert value(genus, 0, weights, cache) == expected, (genus, weights)

    def test_genus_two_weight_pairs_of_total_forty_and_forty_one(self):
        # Joins that reach a weight of 40 and more, at genus 2.
        cache = {}
        for total in 40, 41:
            for a in range(1, 21):
                weights = (a, total - a)
                expected = sinh_product(2, weights)
                assert value(2, 0, weights, cache) == expected, weights
        assert sinh_product(2, (1, 39)) == Fraction(771147, 640)


class TestRecursionTerms:
    def test_join_and_handle(self):
        terms = dict(
            (child, coeff) for coeff, child in recursion_terms(key(1, 1, (1, 2)))
        )
        assert terms == {
            key(1, 1, (3,)): Fraction(3, 9),
            key(0, 0, (1, 2)): Fraction(1, 2) / 9,
        }

    def test_split_only(self):
        terms = recursion_terms(key(1, 0, (2,)))
        assert terms == [(Fraction(1, 2) / 4, key(0, 0, (1, 1)))]

    def test_join_only(self):
        terms = recursion_terms(key(2, 1, (1, 1)))
        assert terms == [(Fraction(2, 10), key(2, 1, (2,)))]

    def test_equal_children_merge(self):
        # both cuts of weight 3 give the same canonical child
        terms = dict((child, c) for c, child in recursion_terms(key(1, 0, (3,))))
        assert terms[key(0, 0, (1, 2))] == 2 * Fraction(1 * 2, 2) / (3 * 2)

    def test_rejects_seeds_and_bad_exponents(self):
        with pytest.raises(ValueError):
            recursion_terms(key(1, 1, (4,)))
        with pytest.raises(ValueError):
            recursion_terms(key(0, 0, (1, 2)))

    def test_top_index_has_no_split_children(self):
        # at index == genus the split family is annihilated, leaving the
        # two-term shape: joins at the same genus plus one handle child
        for k in [key(2, 2, (1, 1, 2)), key(3, 3, (2, 2)), key(1, 1, (1, 1, 1))]:
            for _, child in recursion_terms(k):
                assert (child.genus, child.lam) in {
                    (k.genus, k.lam),
                    (k.genus - 1, k.lam - 1),
                }


def _reference_terms(key):
    """The rewrite step as a loop over position pairs and ordered cuts."""
    genus, lam, weights = key
    n = len(weights)
    total = sum(weights)
    scale = Fraction(1, total * (2 * genus + n - 1))
    acc = {}

    def put(child, coefficient):
        if child.lam < 0 or child.genus < 0 or child.lam > child.genus:
            return
        assert sum(child.weights) == total
        acc[child] = acc.get(child, Fraction(0)) + coefficient

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


class TestAgainstPairLoop:
    @pytest.mark.parametrize("aux", [None, (2, 3), (9,), (4, 6)])
    def test_every_expanded_state(self, aux):
        cache = {}
        if aux is None:
            hodge_table(8, cache)
        else:
            for g in range(1, 6):
                for i in range(g + 1):
                    hodge_integral(g, i, aux, cache)
        expanded = [k for k in cache if k.exponent > 0]
        assert len(expanded) > 100
        for k in expanded:
            assert recursion_terms(k) == _reference_terms(k), k

    @pytest.mark.parametrize("k", [CycleKey(2, 3, (1, 1, 2)), CycleKey(3, -1, (2, 3))])
    def test_index_outside_genus_has_no_children(self, k):
        assert k.exponent > 0
        assert recursion_terms(k) == _reference_terms(k) == []

    def test_index_at_zero_and_at_genus(self):
        # Memo keys at the index ends, where the handle or a split child
        # leaves 0..genus and is dropped.
        keys = [
            CycleKey(g, lam, tuple(sorted(weights)))
            for g in range(4)
            for lam in sorted({0, g})
            for total in range(1, 7)
            for weights in partitions(total)
        ]
        expanded = [k for k in keys if k.exponent > 0]
        assert len(expanded) > 100
        for k in expanded:
            assert recursion_terms(k) == _reference_terms(k), k


def reference_evaluate(key, cache):
    """Evaluation with one ``recursion_terms`` call and its Fractions per state."""
    if key.lam < 0 or key.genus < 0 or key.lam > key.genus:
        return Fraction(0)
    stack = [(key, None)]
    while stack:
        top, terms = stack.pop()
        if top in cache:
            continue
        genus, lam, weights = top
        if terms is not None:
            value = sum((c * cache[child] for c, child in terms), Fraction(0))
        elif genus == 1 and lam == 1 and len(weights) == 1:
            value = Fraction(weights[0] * weights[0] - 1, 24)
        elif genus == 0 and lam == 0 and len(weights) == 2:
            value = Fraction(1)
        elif top.exponent > 0:
            terms = recursion_terms(top)
            stack.append((top, terms))
            stack.extend((child, None) for _, child in terms if child not in cache)
            continue
        else:
            raise UndefinedExponentError(top)
        cache[top] = value
    return cache[key]


def reference_cycle_value(key, cache=None):
    return reference_evaluate(canonical_key(*key), {} if cache is None else cache)


def reference_tail(key):
    """The memo ``reference_evaluate`` leaves for each key of ``key``'s λ-tail."""
    memo = {}
    if 0 <= key.lam <= key.genus:
        for lam in range(key.lam, key.genus + 1):
            reference_evaluate(CycleKey(key.genus, lam, key.weights), memo)
    return memo


def reference_rows(key, memo):
    """``cycle_value(key, memo)`` by the row rule, with ``recursion_terms``.

    A key in ``memo`` is returned as it is. Otherwise a row, a genus and
    weights, is needed from the lowest index at which a state of an expanded
    row has it as a child, the key's row from the key's index. Rows are taken
    in decreasing (genus, number of weights), after every row that reaches
    them. A row whose states from there up to its genus are all in ``memo`` is
    not expanded. Every state of every other row is evaluated, children first;
    a present one is kept.
    """
    if not 0 <= key.lam <= key.genus:
        return Fraction(0)
    if key in memo:
        return memo[key]
    low, taken, expanded = {(key.genus, key.weights): key.lam}, set(), []
    while len(taken) < len(low):
        row = max(low.keys() - taken, key=lambda row: (row[0], len(row[1]), row))
        taken.add(row)
        genus, weights = row
        states = [CycleKey(genus, lam, weights) for lam in range(low[row], genus + 1)]
        if all(state in memo for state in states):
            continue
        expanded.append(states)
        for state in states:
            for _, child in recursion_terms(state) if state.exponent > 0 else ():
                child_row = child.genus, child.weights
                low[child_row] = min(child.lam, low.get(child_row, child.lam))
    for states in reversed(expanded):
        for state in states:
            reference_evaluate(state, memo)
    return memo[key]


def assert_same_memos(fast, reference):
    assert fast == reference
    assert all(type(k) is CycleKey for k in fast)


class TestAgainstReferenceEvaluation:
    def test_table(self, monkeypatch):
        fast = {}
        rows = hodge_table(13, fast)
        reference = {}
        monkeypatch.setattr(hodge, "cycle_value", reference_cycle_value)
        assert hodge_table(13, reference) == rows
        assert len(fast) == 53_221
        assert_same_memos(fast, reference)

    @pytest.mark.parametrize("aux", [(2, 3), (9,), (4, 6)])
    def test_aux(self, aux, monkeypatch):
        queries = [(g, i) for g in range(1, 6) for i in range(g + 1)]
        fast = {}
        values = [hodge_integral(g, i, aux, fast) for g, i in queries]
        reference = {}
        monkeypatch.setattr(hodge, "cycle_value", reference_cycle_value)
        assert [hodge_integral(g, i, aux, reference) for g, i in queries] == values
        assert_same_memos(fast, reference)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=-1, max_value=7),
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=3),
    )
    @example(1, 1, [3], 0)  # seed
    @example(0, 0, [2, 5], 0)  # seed
    @example(0, 0, [5], 0)  # undefined
    @example(2, 3, [1, 1], 0)  # vanishes
    @example(6, 3, [6, 6, 6, 6], 2)
    @example(3, 1, [4, 1, 2], 0)  # unsorted
    @example(4, 0, [1, 2, 3], 2)
    def test_keys_from_empty_and_partial_memos(self, genus, lam, weights, keep):
        k = canonical_key(genus, lam, weights)
        try:
            expected = reference_evaluate(k, {})
        except UndefinedExponentError:
            with pytest.raises(UndefinedExponentError):
                cycle_value(k)
            return
        # keep = 0 starts from an empty memo, which gets the key's λ-tail;
        # otherwise from every keep-th entry of the tail, so some rows are held
        # whole, some in part. The fast side gets the plain, unsorted key:
        # cycle_value canonicalizes.
        tail = reference_tail(k)
        start = dict(sorted(tail.items())[::keep]) if keep else {}
        fast, reference = dict(start), dict(start)
        assert cycle_value((genus, lam, weights), fast) == expected
        assert reference_rows(k, reference) == expected
        assert_same_memos(fast, reference)
        if not keep:
            assert_same_memos(fast, tail)

    @pytest.mark.parametrize(
        "genus, lam, weights, keep",
        [(5, 3, (2, 2), 2), (4, 3, (1, 2, 3), 3), (4, 1, (6, 6, 6, 6), 2)],
    )
    def test_each_row_is_queued_once(self, genus, lam, weights, keep, monkeypatch):
        # From these partial memos a later parent needs a lower index of a row
        # already queued: its lowest index falls in place, and it is not queued
        # again. Taken in decreasing (genus, n), the row still comes after
        # every row that reaches it.
        k = CycleKey(genus, lam, weights)
        start = dict(sorted(reference_tail(k).items())[::keep])
        queued = []

        def push(heap, item):
            queued.append(item[2:])
            heapq.heappush(heap, item)

        monkeypatch.setattr(cutjoin, "heappush", push)
        fast, reference = dict(start), dict(start)
        assert cycle_value(k, fast) == reference_rows(k, reference)
        assert_same_memos(fast, reference)
        assert queued and len(set(queued)) == len(queued)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=5),
    )
    @example(8, 0, [1])
    @example(5, 5, [2, 2, 3])
    def test_an_empty_memo_gets_the_union_of_the_tail(self, genus, lam, weights):
        # What each key of the λ-tail reaches on its own, no state more or less.
        k = canonical_key(genus, min(lam, genus), weights)
        if k.exponent < 0:
            return
        fast = {}
        cycle_value(k, fast)
        union = {}
        for i in range(k.lam, k.genus + 1):
            alone = {}
            reference_evaluate(CycleKey(k.genus, i, k.weights), alone)
            union.update(alone)
        assert_same_memos(fast, union)

    def test_a_row_held_whole_is_read_and_one_held_in_part_is_checked(self):
        # In a row that is evaluated, a held state must equal its value.
        memo = {CycleKey(2, 1, (1, 1)): Fraction(1, 7)}
        with pytest.raises(RuntimeError, match="memo cache rebound"):
            cycle_value((2, 0, (1, 1)), memo)
        # A row held whole is read as it is, wrong values and all.
        memo = {CycleKey(1, 0, (2,)): Fraction(1, 7), CycleKey(1, 1, (2,)): 0}
        expected = reference_rows(CycleKey(1, 0, (1, 1)), dict(memo))
        assert cycle_value((1, 0, (1, 1)), memo) == expected

    @pytest.mark.parametrize(
        "genus, lam, weights",
        [
            (3, 1, (20, 20)),  # dozens of split children, three indices
            (2, 1, (200,)),  # a hundred split children, two indices
            (4, 2, (12, 12)),
            # Row (2, (5,)): handles from index 1, splits from 0. Row (1, (5,)):
            # splits at index 0 alone, the seed at 1.
            (3, 0, (5,)),
        ],
    )
    def test_rows_of_many_children_and_of_offset_families(self, genus, lam, weights):
        # Each child is a column padded to its row's indices, the seed a unit
        # column at the genus: a column one index off changes some value.
        k = CycleKey(genus, lam, weights)
        tail = {}
        expected = reference_rows(k, tail)
        for start in ({}, dict(sorted(tail.items())[::3])):
            fast, reference = dict(start), dict(start)
            assert cycle_value(k, fast) == expected
            assert reference_rows(k, reference) == expected
            assert_same_memos(fast, reference)
            assert fast.items() <= tail.items()

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_a_row_without_children_or_seed_is_exact_zeros(self, genus):
        # (g, i, (1,)) at g >= 2 has no join, no split, a zero handle coefficient
        # and no seed: no column at all, and its whole λ-tail is 0.
        for lam in range(genus + 1):
            k = CycleKey(genus, lam, (1,))
            zeros = {CycleKey(genus, i, (1,)): Fraction(0) for i in range(lam, genus + 1)}
            assert reference_tail(k) == zeros
            for start in ({}, {CycleKey(genus, genus, (1,)): Fraction(0)}):
                fast = dict(start)
                assert cycle_value(k, fast) == 0
                assert fast == {**start, **zeros}
                assert all(type(v) is Fraction for v in fast.values())

    @pytest.mark.parametrize(
        "layer", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (4, 4)]
    )
    def test_transitions_on_a_layer(self, layer):
        genus, lam = layer
        for total in range(1, 11):
            for weights in partitions(total):
                k = CycleKey(genus, lam, tuple(sorted(weights)))
                if k.exponent <= 0:
                    continue
                # Each coefficient read through step_value: that child at 1,
                # every other at 0. A child the step reads and the reference
                # lacks is missing from the memo, a KeyError.
                terms = _reference_terms(k)
                zeros = {child: Fraction(0) for _, child in terms}
                assert step_value(k, zeros) == 0, k
                for c, child in terms:
                    ones = {**zeros, child: Fraction(1)}
                    assert step_value(k, ones) == c, (k, child)


class TestMemoPinAndReach:
    def test_table_12_memo_bytes(self, tmp_path):
        cache = {}
        hodge_table(12, cache)
        path = tmp_path / "memo.tsv"
        save_cache(cache, path)
        header, body = path.read_bytes().split(b"\n", 1)
        assert header == (
            b"#hodgetrees-memo/1 entries=33839 bytes=1603536 crc32=d410c8fa"
        )
        assert body.count(b"\n") == 33_839
        assert len(body) == 1_603_536
        assert hashlib.sha256(body).hexdigest() == (
            "007271ec6c4224bd5a619063f2f37e4da8796fa1e8faa156d92b69dce3613718"
        )

    def test_every_complete_row_of_the_table_12_memo_alternates_to_zero(self):
        # For g >= 1 and any weights, the sum over the index of (-1)**index
        # times the value is 0. Every table entry with g >= 1 lies in such a row.
        cache = {}
        hodge_table(12, cache)
        rows = {}
        for k, v in cache.items():
            if k.genus >= 1:
                rows.setdefault((k.genus, k.weights), {})[k.lam] = v
        assert all(len(row) == genus + 1 for (genus, _), row in rows.items())
        assert len(rows) == 4_464
        assert sum(map(len, rows.values())) == 33_480
        for row, values in rows.items():
            assert sum((-1) ** lam * v for lam, v in values.items()) == 0, row

    def test_a_query_fills_its_lambda_tail(self):
        cache = {}
        hodge_integral(8, 0, cache=cache)
        assert len(cache) == 4_276
        assert all(CycleKey(8, lam, (1,) * 9) in cache for lam in range(9))
        cache = {}
        cycle_value((3000, 3000, (2,)), cache)
        assert len(cache) == 3_000

    def test_aux_nine_stays_at_total_nine_and_above(self, monkeypatch):
        monkeypatch.setattr(cutjoin, "_TRANSITIONS", {})
        cache = {}
        for g in range(1, 6):
            for i in range(g + 1):
                hodge_integral(g, i, (9,), cache)
        assert min(sum(k.weights) for k in cache) == 9
        assert min(sum(weights) for weights in cutjoin._TRANSITIONS) == 9
        assert len(cutjoin._TRANSITIONS) > 100


class TestExpansionInvariants:
    def test_weight_conservation_and_reachability(self):
        # Transitive expansion from every valid start with total <= 8 and
        # genus <= 4: each child conserves the total, and every key with
        # nonpositive exponent is one of the two seeds.
        seen = set()
        stack = []
        for total in range(1, 9):
            for weights in partitions(total):
                for genus in range(5):
                    for lam in range(genus + 1):
                        k = canonical_key(genus, lam, weights)
                        if k.exponent > 0:
                            stack.append(k)
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            for _, child in recursion_terms(k):
                assert sum(child.weights) == sum(k.weights)
                assert 0 <= child.lam <= child.genus
                if child.exponent > 0:
                    stack.append(child)
                else:
                    is_seed_one = (
                        child.genus == 1 and child.lam == 1 and len(child.weights) == 1
                    )
                    is_seed_zero = (
                        child.genus == 0 and child.lam == 0 and len(child.weights) == 2
                    )
                    assert is_seed_one or is_seed_zero, child

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
        st.randoms(),
    )
    def test_symmetry_under_permutation(self, weights, rng):
        shuffled = list(weights)
        rng.shuffle(shuffled)
        genus, lam = 2, 1
        assert value(genus, lam, tuple(weights)) == value(genus, lam, tuple(shuffled))

    def test_memo_determinism(self):
        keys = [key(3, 2, (1, 1, 2)), key(2, 1, (4,)), key(3, 3, (1, 1, 1))]
        first = {}
        one_by_one = [cycle_value(k, first) for k in keys]
        for order in (reversed(keys), keys):
            cache = {}
            values = {k: cycle_value(k, cache) for k in order}
            assert [values[k] for k in keys] == one_by_one

    def test_deep_chain_needs_no_recursion_limit(self):
        # At index == genus with the single weight 2 only the handle child
        # survives, coefficient 6 over 48g, so the chain is 1500 steps deep.
        assert cycle_value(canonical_key(1500, 1500, (2,))) == Fraction(
            1, 8**1500 * math.factorial(1500)
        )

    def test_cache_reuse_is_consistent(self):
        cache = {}
        before = value(2, 1, (1, 1, 1), cache)
        again = value(2, 1, (1, 1, 1), cache)
        assert before == again
        assert cache[key(2, 1, (1, 1, 1))] == before


class TestCachePersistence:
    def test_round_trip(self, tmp_path):
        cache = {}
        value(2, 1, (1, 1, 1), cache)
        path = tmp_path / "cycle-cache.tsv"
        save_cache(cache, path)
        assert load_cache(path) == cache
        # stable bytes on re-save
        text = path.read_text()
        save_cache(load_cache(path), path)
        assert path.read_text() == text

    def test_long_values_round_trip(self, tmp_path):
        # 20,000 and 20,001 digits, far past int()'s digit limit on text; the
        # numerator's low half is all zeros but its last digit.
        p, q = -(10**19999 + 1), 7**23666
        path = tmp_path / "memo.tsv"
        save_cache({key(1, 1, (2, 1)): Fraction(p, q)}, path)
        assert load_cache(path) == {key(1, 1, (2, 1)): Fraction(p, q)}
        header, body = path.read_text().split("\n", 1)
        assert len(body) == len("1\t1\t1,2\t-/\n") + 40_001
        assert header == "#hodgetrees-memo/1 entries=1 bytes=40012 crc32=3d15e217"
        tripled = f"{format_rational(3 * p)}/{format_rational(3 * q)}"
        path.write_text(f"1\t1\t1,2\t{tripled}\n")
        with pytest.raises(ValueError, match="not in lowest terms"):
            load_cache(path)

    def test_file_format(self, tmp_path):
        cache = {key(1, 1, (2, 1)): Fraction(1, 6)}
        path = tmp_path / "cache.tsv"
        save_cache(cache, path)
        assert path.read_text() == (
            "#hodgetrees-memo/1 entries=1 bytes=12 crc32=b311ff72\n1\t1\t1,2\t1/6\n"
        )
        save_cache({}, path)
        assert path.read_bytes() == b""

    @pytest.mark.parametrize(
        "entry, reason",
        [
            (CycleKey(-1, 0, (1,)), "genus must be nonnegative"),
            (CycleKey(1, 2, (3,)), "lambda 2 outside 0..1"),
            (CycleKey(2, -1, (1, 1)), "lambda -1 outside 0..2"),
            (CycleKey(1, 1, (2, 1)), "weights are not sorted"),
            (CycleKey(1, 1, (0, 2)), "weights must be nonempty and positive"),
            (CycleKey(1, 1, ()), "weights must be nonempty and positive"),
            (CycleKey(-1, 0, (0,)), "weights must be nonempty and positive"),
            (CycleKey(0, 0, (5,)), "undefined integrand exponent -1"),
        ],
    )
    def test_save_refuses_entries_the_load_refuses(self, tmp_path, entry, reason):
        path = tmp_path / "memo.tsv"
        good = {key(1, 1, (3,)): Fraction(1, 3)}
        save_cache(good, path)
        before = path.read_bytes()
        message = f"memo entry {entry} would not load: {reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}") as info:
            save_cache({**good, entry: Fraction(1, 2)}, path)
        assert type(info.value) is ValueError  # not UndefinedExponentError
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["memo.tsv"]
        genus, lam, weights = entry
        line = f"{genus}\t{lam}\t{','.join(map(str, weights))}\t1/2\n"
        path.write_text(line)
        match = f"^{re.escape(f'{path}:1: ')}"
        for keys in None, [entry]:
            with pytest.raises(ValueError, match=match) as info:
                load_cache(path, keys)
            assert type(info.value) is ValueError

    @pytest.mark.parametrize(
        "line",
        [
            "1\t1\t1,2",  # missing value field
            "1\t1\t1,2\t1/6\textra",
            "x\t1\t1,2\t1/6",
            "1\t1\t2,1\t1/6",  # weights not sorted
            "1\t1\t0,2\t1/6",  # nonpositive weight
            "1\t1\t1,2\t2/12",  # value not reduced
            "1\t1\t1,2\t0.5",
            "1\t1\t\t1/6",
            # key fields that int() takes but save_cache never writes
            "+1\t 1\t0_3\t1/3",
            "+1\t1\t3\t1/3",
            "1\t 1\t3\t1/3",
            "1\t1\t0_3\t1/3",
            "01\t1\t3\t1/3",
            "1\t-0\t3\t1/3",
            "1\t1\t03\t1/3",
            "1\t1\t1,+2\t1/6",
            "1\t1\t1, 2\t1/6",
            "1\t1\t1,2 \t1/6",
        ],
    )
    def test_rejects_malformed_lines(self, tmp_path, line):
        path = tmp_path / "bad.tsv"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: ')}"):
            load_cache(path)

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("1\t2\t3\t1/2", "lambda 2 outside 0..1"),
            ("2\t-1\t1,1\t0", "lambda -1 outside 0..2"),
            ("-1\t0\t1\t0", "genus must be nonnegative"),
            ("0\t0\t5\t7", "undefined integrand exponent -1"),
        ],
    )
    def test_rejects_entries_no_evaluation_writes(self, tmp_path, line, reason):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t1\t3\t1/3\n0\t0\t1,2\t1\n" + line + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {reason}')}"):
            load_cache(path)

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        import hodgetrees.cutjoin as cutjoin

        class FailsAfterFirstLine:
            def __init__(self, handle):
                self.handle = handle
                self.lines = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                if self.lines:
                    raise OSError("disk full")
                self.lines += 1
                return self.handle.write(text)

        old = {}
        value(2, 1, (1, 1, 1), old)
        path = tmp_path / "memo.tsv"
        save_cache(old, path)
        snapshot = path.read_bytes()
        new = dict(old)
        value(3, 1, (1, 1, 1, 1), new)

        def failing_open(*args, **kwargs):
            return FailsAfterFirstLine(open(*args, **kwargs))

        monkeypatch.setattr(cutjoin, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_cache(new, path)
        monkeypatch.undo()
        assert path.read_bytes() == snapshot
        assert load_cache(path) == old
        assert [p.name for p in tmp_path.iterdir()] == ["memo.tsv"]

    def test_failed_save_names_the_memo_not_its_temporary_file(self, tmp_path):
        memo = {key(1, 1, (3,)): Fraction(1, 3)}
        missing = tmp_path / "nodir" / "memo.tsv"
        with pytest.raises(FileNotFoundError) as info:
            save_cache(memo, missing)
        message = f"[Errno 2] No such file or directory: {str(missing)!r}"
        assert str(info.value) == message
        directory = tmp_path / "memo"
        directory.mkdir()
        with pytest.raises(IsADirectoryError) as info:  # from os.replace
            save_cache(memo, directory)
        assert str(info.value) == f"[Errno 21] Is a directory: {str(directory)!r}"
        assert [p.name for p in tmp_path.iterdir()] == ["memo"]
        assert list(directory.iterdir()) == []

    def test_keyed_load_equals_full_load(self, tmp_path):
        memo = {}
        hodge_table(4, memo)
        path = tmp_path / "memo.tsv"
        save_cache(memo, path)
        full = load_cache(path)
        assert full == memo
        every = sorted(full)
        rng = random.Random(19)
        key_sets = [[], every, every[:1], every[-1:]] + [
            rng.sample(every, size) for size in (1, 2, 5, 17, 100) for _ in range(4)
        ]
        for keys in key_sets:
            keyed = load_cache(path, keys)
            assert keyed == {k: full[k] for k in keys}
            assert type(keyed) is MappingProxyType and type(full) is dict
            assert all(type(k) is CycleKey for k in keyed)
            assert all(type(v) is Fraction for v in keyed.values())
            absent = key(4, 1, (1, 1, 1, 1, 1, 1, 9))
            assert absent not in full
            for at in 0, len(keys):  # one absent key: the whole memo
                assert load_cache(path, [*keys[:at], absent, *keys[at:]]) == full

    def test_keys_alone_only_under_a_matching_header(self, tmp_path):
        memo = {}
        hodge_table(4, memo)
        path = tmp_path / "memo.tsv"
        save_cache(memo, path)
        header, body = path.read_bytes().split(b"\n", 1)
        keys = integral_keys(4, 2)
        assert load_cache(path, keys) == {k: memo[k] for k in keys}
        path.write_bytes(body)  # no header: every entry, to be saved with one
        assert load_cache(path, keys) == memo == load_cache(path, [])
        assert type(load_cache(path, keys)) is dict
        path.write_bytes(header.replace(b"entries=", b"entries=1") + b"\n" + body)
        assert load_cache(path) == memo  # a stale header: keyless reads load
        for keys in keys, []:
            with pytest.raises(ValueError) as refused:
                load_cache(path, keys)
            assert str(refused.value) == f"{path}:1: header does not match the body"

    def test_rejects_conflicting_duplicates(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("1\t1\t1,2\t1/6\n1\t1\t1,2\t1/7\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_cache(path)


_REFERENCE_KEY_FIELDS = re.compile(
    rf"{_INTEGER}\t{_INTEGER}\t[1-9][0-9]*(?:,[1-9][0-9]*)*\t"
).match
_REFERENCE_HEADER = re.compile(
    rb"#hodgetrees-memo/1 entries=[0-9]+ bytes=[0-9]+ crc32=[0-9a-f]{8}"
).fullmatch


def reference_load_cache(path, keys=None):
    """``load_cache`` as one loop iteration per line, each applying every rule.

    A header on line 1 is skipped unread: this loop checks every line. The
    memo is the ``keys`` alone, read-only, if the file is ``with_header`` of
    its body and each key is given by exactly one line. Else, with ``keys``,
    a header that is not that one is refused as line 1; any other file gives
    a dict of every entry.
    """
    pairs = {}
    lines = Counter()  # key -> the lines that give it
    checked = {}  # weights text -> sorted weights
    with open(path, "rb") as handle:
        data = handle.read()
        for lineno, raw in enumerate(data.splitlines(), start=1):
            if not raw or lineno == 1 and _REFERENCE_HEADER(raw):
                continue
            try:
                line = raw.decode("ascii")
                fields = line.split("\t")
                if len(fields) != 4:
                    raise ValueError("expected 4 tab-separated fields")
                if not _REFERENCE_KEY_FIELDS(line):
                    raise ValueError("key fields must be canonical decimal integers")
                genus, lam, text = int(fields[0]), int(fields[1]), fields[2]
                weights = checked.get(text) or tuple(map(int, text.split(",")))
                value = parse_rational(fields[3]).as_integer_ratio()
                if genus < 0:
                    raise ValueError("genus must be nonnegative")
                if not 0 <= lam <= genus:
                    raise ValueError(f"lambda {lam} outside 0..{genus}")
                if text not in checked:  # each distinct weight list, once
                    if list(weights) != sorted(weights):
                        raise ValueError("weights are not sorted")
                    checked[text] = weights
                exponent = 2 * genus + len(weights) - 2 - lam
                if exponent < 0:
                    key = CycleKey(genus, lam, weights)
                    message = f"undefined integrand exponent {exponent} for {key}"
                    raise ValueError(message)
                if pairs.setdefault((genus, lam, weights), value) != value:
                    raise ValueError("conflicting duplicate entry")
                lines[genus, lam, weights] += 1
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    verified = data == with_header(data.split(b"\n", 1)[-1])
    if keys is not None and verified and all(lines[key] == 1 for key in keys):
        return MappingProxyType({CycleKey(*k): Fraction(*pairs[k]) for k in keys})
    first = (data.splitlines() or [b""])[0]
    if keys is not None and not verified and _REFERENCE_HEADER(first):
        raise ValueError(f"{path}:1: header does not match the body")
    return {CycleKey(*key): Fraction(*value) for key, value in pairs.items()}


def with_header(body):
    """A memo file's bytes: ``body`` under the header that matches it."""
    fields = body.count(b"\n"), len(body), zlib.crc32(body)
    return b"#hodgetrees-memo/1 entries=%d bytes=%d crc32=%08x\n" % fields + body


def load_outcome(load, path, keys=None):
    """The memo with its type and that of every key and value, or the error text."""
    try:
        memo = load(path, keys)
    except ValueError as exc:
        return "error", str(exc)
    return "memo", memo, type(memo), {(type(k), type(v)) for k, v in memo.items()}


# Every line test_rejects_malformed_lines, test_rejects_entries_no_evaluation_writes
# and the CLI's keyed-load tests refuse, one of each rule.
REFUSED_LINES = [
    b"1\t1\t1,2",
    b"1\t1\t1,2\t1/6\textra",
    b"x\t1\t1,2\t1/6",
    b"1\t1\t2,1\t1/6",
    b"1\t1\t0,2\t1/6",
    b"1\t1\t1,2\t2/12",
    b"1\t1\t1,2\t0.5",
    b"1\t1\t\t1/6",
    b"+1\t 1\t0_3\t1/3",
    b"+1\t1\t3\t1/3",
    b"1\t 1\t3\t1/3",
    b"1\t1\t0_3\t1/3",
    b"01\t1\t3\t1/3",
    b"1\t-0\t3\t1/3",
    b"1\t1\t03\t1/3",
    b"1\t1\t1,+2\t1/6",
    b"1\t1\t1, 2\t1/6",
    b"1\t1\t1,2 \t1/6",
    b"1\t2\t3\t1/2",
    b"2\t-1\t1,1\t0",
    b"-1\t0\t1\t0",
    b"0\t0\t5\t7",
    b"1\t1\t3\t\xc3\xa9",
    b"1\t1\t3\t1/1",
    b"1\t1\t3\t-2/1",
    b"1\t1\t1,1\t7",  # conflicts with the memo's 1/24
    b"1\t1\t" + b"1" * 5000 + b"\t1/3",  # past int()'s digit limit
    b"1" * 5000 + b"\t1\t3\t1/3",  # the genus alone past it
    b"1\t1\t1," + b"1" * 5000 + b"\t1/3",  # the second weight alone past it
    # Each of these breaks two rules, so the order of the checks shows.
    b"-1\t0\t1\t2/4",  # lowest terms before genus
    b"-1\t0\t2,1\t1/2",  # genus before sorted weights
    b"1\t2\t2,1\t1/2",  # lambda before sorted weights
    b"1\t1\t2,1\t2/4",  # lowest terms before sorted weights
    b"x\t1\t1,2\t2/4",  # the text rules before the value rules
    b"1" * 5000 + b"\t1\t3\t0.5",  # the key's digit limit before a malformed value
]


def seeded_g4_mutants(path):
    """Seeded edits of the headered g<=4 memo, which ``path`` is left holding.

    In order: 240 one-byte replacements, insertions and deletions, 40
    truncations and 40 appended lines, each refused or a copy of one.
    """
    memo = {}
    hodge_table(4, memo)
    save_cache(memo, path)
    data = path.read_bytes()
    body_lines = data.splitlines()[1:]
    rng = random.Random(24)
    mutants = []
    for _ in range(240):
        at = rng.randrange(len(data))
        byte = rng.choice([*b"0123456789/,-\t\n\rx#=", rng.randrange(256)])
        tail = data[at + 1 :] if rng.random() < 0.6 else data[at:]
        byte = bytes([byte]) if rng.random() < 0.8 else b""
        mutants.append(data[:at] + byte + tail)
    mutants += [data[: rng.randrange(len(data))] for _ in range(40)]
    for _ in range(40):
        extra = rng.choice([*REFUSED_LINES, *rng.sample(body_lines, 4)])
        mutants.append(data + extra + b"\n")
    return mutants


class TestAgainstReferenceLoad:
    """``load_cache`` gives what the per-line loop gives, on every file."""

    @pytest.fixture(scope="class")
    def lines(self, tmp_path_factory):
        """The body lines of the memo file that ``hodge_table(3)`` fills.

        Without its header line: files built from them take the strict loop.
        """
        memo = {}
        hodge_table(3, memo)
        path = tmp_path_factory.mktemp("memo") / "memo.tsv"
        save_cache(memo, path)
        return path.read_bytes().splitlines()[1:]

    @staticmethod
    def assert_same(path, hits):
        for keys in None, hits, [*hits, key(3, 1, (1, 9))]:
            got = load_outcome(load_cache, path, keys)
            expected = load_outcome(reference_load_cache, path, keys)
            assert got == expected, (keys, got[:2])

    @pytest.mark.parametrize("bad", REFUSED_LINES)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_refused_line(self, tmp_path, lines, bad, where):
        at = {"first": 0, "middle": len(lines) // 2, "last": len(lines)}[where]
        path = tmp_path / "memo.tsv"
        path.write_bytes(b"\n".join([*lines[:at], bad, *lines[at:]]) + b"\n")
        self.assert_same(path, integral_keys(3, 1))
        assert load_outcome(load_cache, path)[0] == "error"

    @pytest.mark.parametrize("earlier", REFUSED_LINES[::3])
    @pytest.mark.parametrize("later", REFUSED_LINES[1::4])
    def test_the_earlier_of_two_refused_lines_is_named(
        self, tmp_path, lines, earlier, later
    ):
        path = tmp_path / "memo.tsv"
        mixed = [*lines[:5], earlier, *lines[5:9], later, *lines[9:]]
        path.write_bytes(b"\n".join(mixed))
        self.assert_same(path, integral_keys(3, 1))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:6: "):
            load_cache(path)

    @pytest.mark.parametrize(
        "separator, tail",
        [
            (b"\n", b"\n"),
            (b"\r\n", b"\r\n"),
            (b"\n\n", b""),
            (b"\r", b"\n\n\n"),
            (b"\n\r\n", b""),
        ],
    )
    def test_line_endings_and_blank_lines(self, tmp_path, lines, separator, tail):
        path = tmp_path / "memo.tsv"
        for bad in [], [b"1\t2\t3\t1/2"], [b"\t"]:
            path.write_bytes(b"\n" + separator.join([*lines, *bad]) + tail)
            self.assert_same(path, integral_keys(3, 1))
        for text in b"", b"\n", b"\r\n\n":
            path.write_bytes(text)
            assert load_cache(path) == {} == load_cache(path, integral_keys(3, 1))

    def test_values_past_the_digit_limit(self, tmp_path, lines):
        p, q = -(10**19999 + 1), 7**23666
        path = tmp_path / "memo.tsv"
        def text(p, q=1):
            return format_rational(Fraction(p, q)).encode()

        for extra in (
            [b"1\t1\t1,2\t" + text(p, q)],
            [b"1\t1\t1,2\t" + text(10 * p, q)],
            [b"1\t1\t1,2\t" + text(3 * p) + b"/" + text(3 * q)],  # not in lowest terms
            [b"1\t1\t1,9\t" + text(p)],
        ):
            path.write_bytes(b"\n".join([*lines, *extra]))
            self.assert_same(path, [key(1, 1, (1, 2)), key(1, 1, (1, 9))])

    def test_duplicates(self, tmp_path, lines):
        path = tmp_path / "memo.tsv"
        for extra in (
            [lines[3]],
            [lines[3], lines[3]],
            [lines[3] + b"1"],
            [lines[-1], lines[3]],
        ):
            path.write_bytes(b"\n".join([*lines, *extra]))
            self.assert_same(path, integral_keys(3, 1))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 39),
                st.binary(max_size=12)
                | st.text("0123456789-+/,\t ", max_size=14).map(str.encode),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_mutated_memos(self, tmp_path_factory, lines, edits):
        mutated = list(lines[:40])
        for at, junk in edits:  # replace a line, or a tail of it
            cut = mutated[at].rfind(b"\t") if at % 2 else 0
            mutated[at] = mutated[at][: max(cut, 0)] + junk
        path = tmp_path_factory.mktemp("memo") / "memo.tsv"
        path.write_bytes(b"\n".join(mutated))
        self.assert_same(path, integral_keys(2, 1))

    @pytest.mark.parametrize(
        "bad, twice",
        [
            (b"3\t1\t1,1\t2/71680", False),  # a hit's own line, not in lowest terms
            (b"3\t1\t1,1\t1/1", False),
            (b"3\t1\t1,1\t1/x", False),
            (b"3\t1\t1,1\t\xc3\xa9", False),
            (b"3\t1\t1,1\t1/35840\textra", False),
            (b"1\t2\t3\t1/2", False),  # the lines of keys no evaluation writes
            (b"-1\t0\t1\t0", False),
            (b"1\t1\t2,1\t1/6", False),
            (b"0\t0\t5\t7", False),
            (b"3\t1\t1,1\t7", True),  # a hit's key on a second line, conflicting
            (b"3\t1\t1,1\t1/35840", True),  # and the same
        ],
    )
    def test_a_hit_checks_its_lines_under_a_rewritten_header(
        self, tmp_path, lines, bad, twice
    ):
        # A header rewritten to match an edited body passes its crc32, so the
        # lines a hit reads still go through every rule of the strict loop.
        genus, lam, weights = bad.split(b"\t")[:3]
        entry = CycleKey(int(genus), int(lam), tuple(map(int, weights.split(b","))))
        prefix = b"\t".join([genus, lam, weights, b""])
        kept = [line for line in lines if twice or not line.startswith(prefix)]
        path = tmp_path / "memo.tsv"
        path.write_bytes(with_header(b"".join(line + b"\n" for line in [*kept, bad])))
        hits = [entry, *integral_keys(3, 1)]
        self.assert_same(path, hits)
        assert cutjoin._hit(path.read_bytes(), hits) is None
        if bad != b"3\t1\t1,1\t1/35840":
            assert load_outcome(load_cache, path, hits)[0] == "error"

    def test_every_key_set_of_the_g6_memo_is_a_verified_hit(self, tmp_path):
        memo = {}
        hodge_table(6, memo)
        path = tmp_path / "memo.tsv"
        save_cache(memo, path)
        data = path.read_bytes()
        assert data == with_header(data.split(b"\n", 1)[1])
        key_sets = [integral_keys(g, i) for g in range(1, 7) for i in range(g + 1)]
        key_sets += [[k] for k in sorted(memo)]  # each w query
        for keys in key_sets:
            got = load_outcome(load_cache, path, keys)
            assert got == load_outcome(reference_load_cache, path, keys), keys
            assert got[1] == {k: memo[k] for k in keys}
            assert cutjoin._hit(data, keys) == got[1]  # read off its own lines

    def test_seeded_mutations_of_a_headered_g4_memo(self, tmp_path):
        path = tmp_path / "memo.tsv"
        hits = integral_keys(4, 2), [key(3, 1, (1, 1, 1))], [key(4, 4, (1,) * 5)]
        outcomes = set()
        for mutant in seeded_g4_mutants(path):
            path.write_bytes(mutant)
            for keys in None, *hits:
                got = load_outcome(load_cache, path, keys)
                assert got == load_outcome(reference_load_cache, path, keys), mutant
                outcomes.add(got[0])
        assert outcomes == {"memo", "error"}


def test_no_seeded_edit_of_a_headered_g4_memo_prints_a_wrong_value(capsys, tmp_path):
    # Each edit or truncation either answers with the unedited memo's value
    # or is refused with exit 2, an empty stdout and the file left as it was.
    from hodgetrees.cli import main

    path = tmp_path / "memo.tsv"
    mutants = seeded_g4_mutants(path)[:280]
    queries = {
        ("integral", "--g", "4", "--lambda", "2"): hodge_integral(4, 2),
        ("w", "--g", "3", "--lambda", "1", "--weights", "1,1,1"): value(3, 1, (1,) * 3),
    }
    codes = Counter()
    for mutant in mutants:
        for argv, expected in queries.items():
            path.write_bytes(mutant)
            code = main([*argv, "--cache", str(path)])
            out = capsys.readouterr().out
            if code == 0:
                assert out == f"{format_rational(expected)}\n", mutant
            else:
                assert (code, out) == (2, ""), mutant
                assert path.read_bytes() == mutant
            codes[code] += 1
    assert sorted(codes) == [0, 2]


@pytest.mark.parametrize("bad", REFUSED_LINES)
def test_a_miss_checks_the_lines_of_weight_totals_it_never_reads(
    capsys, tmp_path, bad
):
    # The query reads weight totals 20 to 22 alone, and no refused line has
    # one of them. Under a header that matches the body, the miss still
    # names the line as the whole-file load does, and writes nothing.
    from hodgetrees.cli import main

    memo = {}
    hodge_table(3, memo)
    path = tmp_path / "memo.tsv"
    save_cache(memo, path)
    lines = path.read_bytes().splitlines()[1:]
    body = b"".join(line + b"\n" for line in [*lines[:40], bad, *lines[40:]])
    path.write_bytes(cutjoin._header(body) + body)
    with pytest.raises(ValueError) as refused:
        load_cache(path)
    before = path.read_bytes()
    argv = ["integral", "--g", "2", "--lambda", "1", "--weights", "20"]
    assert main([*argv, "--cache", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {refused.value}\n")
    assert path.read_bytes() == before
