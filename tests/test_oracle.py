import math
from fractions import Fraction

import pytest

from hodgetrees.hodge import hodge_integral
from hodgetrees.oracle import (
    bernoulli_rhs,
    gf_expand,
    oracle_integral,
    sine_kernel,
)


class TestSineKernel:
    def test_low_coefficients(self):
        kernel = sine_kernel(8)
        assert kernel.coefficient(0) == 1
        assert kernel.coefficient(1) == 0
        assert kernel.coefficient(2) == Fraction(1, 24)

    def test_even(self):
        kernel = sine_kernel(18)
        for m in range(1, 18, 2):
            assert kernel.coefficient(m) == 0

    def test_log_quadratic_coefficient(self):
        assert sine_kernel(8).log().coefficient(2) == Fraction(1, 24)

    def test_times_reciprocal_is_one(self):
        from hodgetrees.exact_arith import TruncatedSeries

        kernel = sine_kernel(12)
        assert kernel * kernel.reciprocal() == TruncatedSeries([1], 12)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            sine_kernel(0)


def series_path_expansion(max_genus):
    """The kernel power as exp((k+1) * log(kernel)), from the package's series
    operations: the sine kernel, its logarithm and one product per power of k."""
    kernel = sine_kernel(2 * max_genus + 2)
    log_kernel = kernel.log()
    entries = [kernel]
    for j in range(1, max_genus + 1):
        entries.append(entries[-1] * log_kernel * Fraction(1, j))
    return tuple(entries)


class TestExpansion:
    def test_normalization(self):
        expansion = gf_expand(3)
        assert expansion.rows[0] == (1,) and expansion.dens[0] == 1

    def test_degree_and_order(self):
        expansion = gf_expand(4)
        assert expansion.max_genus == 4
        assert [len(row) for row in expansion.rows] == [1, 2, 3, 4, 5]

    def test_low_coefficients(self):
        expansion = gf_expand(2)
        assert expansion.rows[1:] == ((1, 1), (7, 12, 5))
        assert expansion.dens[1:] == (24, 5760)

    def test_rows_are_reduced(self):
        expansion = gf_expand(60)
        for g in range(61):
            assert expansion.dens[g] > 0
            assert math.gcd(expansion.dens[g], *expansion.rows[g]) == 1, g

    def test_truncation_stability(self):
        small, large = gf_expand(3), gf_expand(6)
        assert large.rows[:4] == small.rows and large.dens[:4] == small.dens

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError, match="^max genus must be at least 1$"):
            gf_expand(0)

    def test_equals_series_path_to_genus_60(self):
        # Every t**m * k**j coefficient of the series path: the row entry
        # when m = 2g and j <= g, and 0 everywhere else.
        expansion = gf_expand(60)
        reference = series_path_expansion(60)
        assert len(expansion.rows) == len(expansion.dens) == len(reference) == 61
        for j, series in enumerate(reference):
            assert series.order_bound == 122
            for m, want in enumerate(series.coefficients):
                g = m // 2
                if m % 2 == 0 and j <= g:
                    assert Fraction(expansion.rows[g][j], expansion.dens[g]) == want
                else:
                    assert want == 0, (m, j)

    @pytest.mark.parametrize("max_genus", range(1, 31))
    def test_constant_entry_is_the_sine_kernel(self, max_genus):
        # k**0 of the power is the kernel itself: the lambda_g integrals.
        expansion, kernel = gf_expand(max_genus), sine_kernel(2 * max_genus + 2)
        for g in range(1, max_genus + 1):
            assert oracle_integral(g, g, expansion) == kernel.coefficient(2 * g)

    @pytest.mark.parametrize("k_power", [-1, -4, 4, 5])
    def test_k_power_out_of_range(self, k_power):
        # The integral at genus 3 reads the k**(3 - lambda) entry of row 3;
        # k**-1 would read its last entry through negative indexing.
        with pytest.raises(ValueError, match=r"^lambda index must lie in 0\.\.genus$"):
            oracle_integral(3, 3 - k_power, gf_expand(3))


class TestOracleIntegral:
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
        assert oracle_integral(genus, lam, gf_expand(2)) == expected

    def test_agrees_with_recursion_pipeline(self):
        expansion = gf_expand(4)
        cache = {}
        for genus in range(1, 5):
            for lam in range(genus + 1):
                assert oracle_integral(genus, lam, expansion) == hodge_integral(
                    genus, lam, cache=cache
                )

    def test_rejects_out_of_range(self):
        expansion = gf_expand(2)
        with pytest.raises(ValueError, match=r"^genus must lie in 1\.\.2$"):
            oracle_integral(3, 1, expansion)
        with pytest.raises(ValueError, match=r"^genus must lie in 1\.\.2$"):
            oracle_integral(0, 0, expansion)
        with pytest.raises(ValueError, match=r"^lambda index must lie in 0\.\.genus$"):
            oracle_integral(2, 3, expansion)


class TestBernoulliForm:
    def test_genus_two(self):
        assert bernoulli_rhs(2) == Fraction(7, 2880)

    def test_genus_one(self):
        assert bernoulli_rhs(1) == Fraction(1, 24)

    def test_top_lambda_line(self):
        expansion = gf_expand(40)
        for genus in range(1, 41):
            assert bernoulli_rhs(genus) == math.factorial(genus) * oracle_integral(
                genus, genus, expansion
            )

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            bernoulli_rhs(0)
