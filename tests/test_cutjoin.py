import hashlib
import math
import re
from fractions import Fraction

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
from hodgetrees.exact_arith import format_rational
from hodgetrees.hodge import hodge_integral, hodge_table


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
        with pytest.raises(UndefinedExponentError):
            value(0, 0, (5,))
        with pytest.raises(UndefinedExponentError):
            value(0, 0, (1,))


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
                with pytest.raises(UndefinedExponentError, match=re.escape(message)):
                    step_value(k, {})
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
    def test_keys_from_empty_and_partial_memos(self, genus, lam, weights, keep):
        k = canonical_key(genus, lam, weights)
        full = {}
        try:
            expected = reference_evaluate(k, full)
        except UndefinedExponentError:
            with pytest.raises(UndefinedExponentError):
                cycle_value(k)
            return
        # keep = 0 starts from an empty memo, otherwise from every keep-th
        # entry of the full one, so evaluation stops early on some branches.
        # The fast side gets the plain, unsorted key: cycle_value canonicalizes.
        start = dict(sorted(full.items())[::keep]) if keep else {}
        fast, reference = dict(start), dict(start)
        assert cycle_value((genus, lam, weights), fast) == expected
        assert reference_evaluate(k, reference) == expected
        assert_same_memos(fast, reference)

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
        data = path.read_bytes()
        assert data.count(b"\n") == 33_839
        assert len(data) == 1_603_536
        assert hashlib.sha256(data).hexdigest() == (
            "007271ec6c4224bd5a619063f2f37e4da8796fa1e8faa156d92b69dce3613718"
        )

    def test_aux_nine_stays_at_total_nine_and_above(self, monkeypatch):
        monkeypatch.setattr(cutjoin, "_TRANSITIONS", {})
        cache = {}
        for g in range(1, 6):
            for i in range(g + 1):
                hodge_integral(g, i, (9,), cache)
        assert min(sum(k.weights) for k in cache) == 9
        assert min(sum(weights) for weights in cutjoin._TRANSITIONS) == 9
        assert len(cutjoin._TRANSITIONS) > 100


def partitions(total, largest=None):
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


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
        assert len(path.read_text()) == len("1\t1\t1,2\t-/\n") + 40_001
        tripled = f"{format_rational(3 * p)}/{format_rational(3 * q)}"
        path.write_text(f"1\t1\t1,2\t{tripled}\n")
        with pytest.raises(ValueError, match="not in lowest terms"):
            load_cache(path)

    def test_file_format(self, tmp_path):
        cache = {key(1, 1, (2, 1)): Fraction(1, 6)}
        path = tmp_path / "cache.tsv"
        save_cache(cache, path)
        assert path.read_text() == "1\t1\t1,2\t1/6\n"

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

    def test_rejects_conflicting_duplicates(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("1\t1\t1,2\t1/6\n1\t1\t1,2\t1/7\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_cache(path)
