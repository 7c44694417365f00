from fractions import Fraction

import pytest

from hodgetrees.cutjoin import canonical_key
from hodgetrees.hodge import binomial_terms, hodge_integral, hodge_table
from hodgetrees.oracle import gf_expand, oracle_integral


class TestBinomialTerms:
    def test_genus_one_weight_two(self):
        assert binomial_terms(1, 1, (2,)) == [
            (Fraction(1), canonical_key(1, 1, (2,))),
            (Fraction(-1), canonical_key(1, 1, (1, 2))),
        ]

    def test_genus_two_unit_weight(self):
        assert binomial_terms(2, 1, (1,)) == [
            (Fraction(1), canonical_key(2, 1, (1,))),
            (Fraction(-2), canonical_key(2, 1, (1, 1))),
            (Fraction(1), canonical_key(2, 1, (1, 1, 1))),
        ]

    def test_genus_one_index_zero(self):
        assert binomial_terms(1, 0, (1,)) == [
            (Fraction(1), canonical_key(1, 0, (1,))),
            (Fraction(-1), canonical_key(1, 0, (1, 1))),
        ]

    def test_term_count(self):
        for g in range(1, 5):
            assert len(binomial_terms(g, g)) == g + 1


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
