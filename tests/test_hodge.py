import math
from fractions import Fraction

import pytest

import hodgetrees.hodge as hodge
from hodgetrees.cutjoin import canonical_key, cycle_value
from hodgetrees.hodge import hodge_integral, hodge_table
from hodgetrees.oracle import gf_expand, oracle_integral


@pytest.fixture
def queried(monkeypatch):
    """The cycle keys ``hodge_integral`` reads, through the ``hodge`` global."""
    keys = []

    def recording(key, cache=None):
        keys.append(key)
        return cycle_value(key, cache)

    monkeypatch.setattr(hodge, "cycle_value", recording)
    return keys


def signed_combination(genus, lam, terms):
    """(-1)**g / g! times the sum of coefficient * cycle value over ``terms``."""
    total = sum(c * cycle_value(canonical_key(genus, lam, w)) for c, w in terms)
    return total * Fraction((-1) ** genus, math.factorial(genus))


class TestBinomialTerms:
    def test_genus_one_weight_two(self, queried):
        terms = [(1, (2,)), (-1, (1, 2))]
        assert hodge_integral(1, 1, (2,)) == signed_combination(1, 1, terms)
        assert queried == [canonical_key(1, 1, w) for _, w in terms]

    def test_genus_two_unit_weight(self, queried):
        terms = [(1, (1,)), (-2, (1, 1)), (1, (1, 1, 1))]
        assert hodge_integral(2, 1, (1,)) == signed_combination(2, 1, terms)
        assert queried == [canonical_key(2, 1, w) for _, w in terms]

    def test_genus_one_index_zero(self, queried):
        terms = [(1, (1,)), (-1, (1, 1))]
        assert hodge_integral(1, 0, (1,)) == signed_combination(1, 0, terms)
        assert queried == [canonical_key(1, 0, w) for _, w in terms]

    def test_term_count(self, queried):
        for g in range(1, 5):
            queried.clear()
            terms = [
                ((-1) ** j * math.comb(g, j), (1,) * (j + 1)) for j in range(g + 1)
            ]
            assert hodge_integral(g, g) == signed_combination(g, g, terms)
            assert len(queried) == g + 1


class TestIntegrals:
    @pytest.mark.parametrize(
        "genus, lam, expected",
        [
            (1, 1, Fraction(1, 24)),
            (1, 0, Fraction(1, 24)),
            (2, 1, Fraction(1, 480)),
            (2, 2, Fraction(7, 5760)),
            (2, 0, Fraction(1, 1152)),
        ],
    )
    def test_known_values(self, genus, lam, expected):
        assert hodge_integral(genus, lam) == expected

    def test_choice_independence_samples(self):
        for aux in [(1,), (2,), (3,), (1, 1), (2, 3)]:
            assert hodge_integral(2, 1, aux) == Fraction(1, 480)
        for aux in [(2,), (5,)]:
            assert hodge_integral(1, 1, aux) == Fraction(1, 24)

    def test_shared_cache(self):
        cache = {}
        assert hodge_integral(2, 1, cache=cache) == Fraction(1, 480)
        assert hodge_integral(2, 2, cache=cache) == Fraction(7, 5760)

    @pytest.mark.parametrize(
        "genus, lam", [(0, 0), (1, 2), (1, -1), (2, 3), (-1, 0)]
    )
    def test_rejects_out_of_range(self, genus, lam):
        with pytest.raises(ValueError):
            hodge_integral(genus, lam)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            hodge_integral(1, 1, ())
        with pytest.raises(ValueError):
            hodge_integral(1, 1, (0,))


class TestTable:
    def test_genus_one(self):
        assert hodge_table(1) == [
            (1, 0, Fraction(1, 24)),
            (1, 1, Fraction(1, 24)),
        ]

    def test_genus_two_rows(self):
        rows = {(g, i): v for g, i, v in hodge_table(2)}
        assert rows[(2, 1)] == Fraction(1, 480)
        assert rows[(2, 2)] == Fraction(7, 5760)
        assert len(rows) == 5

    def test_matches_oracle_to_genus_12(self):
        # Twice the genus range of the acceptance checks: 90 rows.
        expansion = gf_expand(12)
        rows = hodge_table(12)
        assert len(rows) == 90
        for g, i, value in rows:
            assert value == oracle_integral(g, i, expansion), (g, i)

    def test_all_positive(self):
        assert all(value > 0 for _, _, value in hodge_table(6))

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            hodge_table(0)
