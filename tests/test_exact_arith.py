import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgetrees.exact_arith import (
    TruncatedSeries,
    bernoulli,
    format_rational,
    parse_rational,
)
from hodgetrees.oracle import gf_expand


class TestRationals:
    def test_difference_of_tree_sums(self):
        # 1/180 - 2 * 1/640 reduces to 7/2880
        assert Fraction(1, 180) - 2 * Fraction(1, 640) == Fraction(7, 2880)

    def test_multiplicative_identity(self):
        for x in (Fraction(0), Fraction(-7, 3), Fraction(22, 7)):
            assert x * Fraction(1) == x

    def test_sum_reduces(self):
        assert Fraction(3, 24) + Fraction(1, 6) == Fraction(7, 24)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    @given(st.fractions())
    def test_stored_reduced_with_positive_denominator(self, x):
        assert x.denominator > 0
        assert math.gcd(abs(x.numerator), x.denominator) == 1


class TestRationalText:
    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(7, 2880), "7/2880"),
            (Fraction(-1, 30), "-1/30"),
            (Fraction(3), "3"),
            (Fraction(0), "0"),
            (Fraction(-4), "-4"),
        ],
    )
    def test_format(self, value, text):
        assert format_rational(value) == text
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text", ["2/4", "1/0", "1/-3", "-0", "+1", "01", " 1", "1 ", "3/1", "a/b", ""]
    )
    def test_parse_rejects_noncanonical(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(st.fractions())
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    def test_past_the_int_digit_limit(self):
        # 7**6000 has 5,071 digits, more than str() of an int gives by default.
        x = Fraction(-3, 7**6000)
        text = format_rational(x)
        assert text == f"-3/{Decimal(7**6000)}"
        assert parse_rational(text) == x

    @pytest.mark.parametrize(
        "value, text",
        [
            (5, "5"),
            (-12, "-12"),
            (0, "0"),
            (True, "1"),  # a bool prints as the integer it is, not as "True"
            (False, "0"),
        ],
    )
    def test_format_of_ints_and_bools(self, value, text):
        assert format_rational(value) == text

    def test_format_of_values_past_the_digit_limit(self):
        big = 7**6000
        assert format_rational(big) == str(Decimal(big))  # an int
        assert format_rational(Fraction(big, 2)) == f"{Decimal(big)}/2"
        assert format_rational(Fraction(-(10**4400))) == "-1" + "0" * 4400

    def test_pair_is_the_parsed_value(self):
        for text, pair in (
            ("0", (0, 1)),
            ("-7/2880", (-7, 2880)),
            ("3", (3, 1)),
            (f"1/{_BIG}", (1, 7**5210)),
            (f"-{_BIG_TWO}/{_BIG}", (-(2**14630), 7**5210)),
        ):
            assert parse_rational(text).as_integer_ratio() == pair
        for text in ("2/4", "1/1", "+1", ""):
            with pytest.raises(ValueError):
                parse_rational(text)


def reference_parse(text):
    """The parser before its fast path: regex, Decimal to Fraction, round trip."""
    if not re.fullmatch(r"(?:0|-?[1-9][0-9]*)(?:/[1-9][0-9]*)?", text):
        raise ValueError(f"not a canonical rational: {text!r}")
    p, _, q = text.partition("/")
    value = Fraction(int(Decimal(p)), int(Decimal(q or 1)))
    if format_rational(value) != text:
        raise ValueError(f"rational not in lowest terms: {text!r}")
    return value


def outcome(operation, *args):
    try:
        return "value", operation(*args)
    except ValueError as exc:
        return "error", str(exc)


# Each has 4,403 to 4,405 digits, past int()'s default limit on text.
_BIG = str(Decimal(7**5210))
_BIG_EVEN = str(Decimal(2 * 7**5209))
_BIG_TWO = str(Decimal(2**14630))


class TestParserEquivalence:
    """``parse_rational`` accepts exactly what the reference parser accepts."""

    @pytest.mark.parametrize(
        "text, accepted",
        [
            ("0", True), ("0/1", False), ("3/1", False), ("2/4", False),
            ("0/5", False), ("-0", False), ("01", False), ("1/0", False),
            ("+1", False), ("-7/2880", True),
            (_BIG, True), (f"1/{_BIG}", True), (f"-{_BIG_TWO}/{_BIG}", True),
            (f"{_BIG}/2", True), (f"{_BIG}/1", False), (f"7/{_BIG}", False),
            (f"-{_BIG_EVEN}/14", False), (f"0/{_BIG}", False),
            (f"{_BIG_TWO}/{_BIG_EVEN}", False),
        ],
    )
    def test_fixed_cases(self, text, accepted):
        result = outcome(parse_rational, text)
        assert result == outcome(reference_parse, text)
        assert (result[0] == "value") == accepted

    @settings(max_examples=2000)
    @given(st.text(alphabet="-/0123456789", max_size=12))
    def test_same_acceptance_and_values(self, text):
        assert outcome(parse_rational, text) == outcome(reference_parse, text)


def series(coeffs, bound):
    return TruncatedSeries([Fraction(c) for c in coeffs], bound)


def exp(s):
    """Formal exponential of a series with constant term 0.

    Kept out of the package, which never needs it: it is the independent
    check on ``TruncatedSeries.log`` in the round-trip tests below.
    """
    if s.coefficient(0) != 0:
        raise ValueError("series exponential requires constant term 0")
    n = s.order_bound
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    # m*e_m = sum_{k=1..m} k*s_k*e_{m-k}
    for m in range(1, n):
        out[m] = sum(k * s.coefficient(k) * out[m - k] for k in range(1, m + 1)) / m
    return TruncatedSeries(out, n)


class TestSeries:
    def test_product(self):
        assert series([1, 1], 3) * series([1, -1], 3) == series([1, 0, -1], 3)

    def test_operations_preserve_order_bound(self):
        a, b = series([1, 2, 3], 5), series([1, 1], 5)
        for result in (a * 2, a * b, b.reciprocal(), a.log()):
            assert result.order_bound == 5

    def test_geometric_reciprocal(self):
        assert series([1], 5) * series([1, -1], 5).reciprocal() == series(
            [1, 1, 1, 1, 1], 5
        )

    def test_reciprocal_round_trip(self):
        s = series([2, 5, -1, 7], 6)
        assert s * s.reciprocal() == series([1], 6)

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ValueError, match="mismatched order bounds"):
            series([1], 3) * series([1], 4)

    def test_zero_constant_term_not_invertible(self):
        with pytest.raises(ValueError, match="not invertible"):
            series([0, 1], 4).reciprocal()

    def test_scalar_operations(self):
        s = series([1, 2, 3], 3)
        assert s * 2 == series([2, 4, 6], 3)
        assert s * Fraction(1, 2) == series([Fraction(1, 2), 1, Fraction(3, 2)], 3)

    @pytest.mark.parametrize("value", [0.1, 1.0, Decimal("0.1"), "1/3", None])
    def test_inexact_coefficients_refused(self, value):
        with pytest.raises(TypeError, match="int or Fraction"):
            TruncatedSeries([1, value], 3)

    def test_coefficient_access_bounded(self):
        s = series([1, 2], 2)
        assert s.coefficient(1) == 2
        with pytest.raises(ValueError):
            s.coefficient(2)

    def test_log_of_one_is_zero(self):
        assert series([1], 6).log() == series([], 6)

    def test_exp_of_zero_is_one(self):
        assert exp(series([], 6)) == series([1], 6)

    def test_exp_of_t_has_factorial_coefficients(self):
        e = exp(series([0, 1], 8))
        for m in range(8):
            assert e.coefficient(m) == Fraction(1, math.factorial(m))

    def test_log_requires_unit_constant_term(self):
        with pytest.raises(ValueError, match="constant term 1"):
            series([2, 1], 3).log()

    def test_exp_requires_zero_constant_term(self):
        with pytest.raises(ValueError, match="constant term 0"):
            exp(series([1, 1], 3))

    def test_log_is_a_homomorphism(self):
        s = series([1, 1, 1], 8)
        assert (s * s).log() == s.log() * 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            min_size=0,
            max_size=11,
        )
    )
    def test_exp_log_round_trip(self, tail):
        s = TruncatedSeries([Fraction(1)] + tail, 12)
        assert exp(s.log()) == s

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            min_size=0,
            max_size=11,
        )
    )
    def test_log_exp_round_trip(self, tail):
        s = TruncatedSeries([Fraction(0)] + tail, 12)
        assert exp(s).log() == s


def reference_mul(left, right):
    """The product as nested loops: one Fraction multiply-add per nonzero pair."""
    if left.order_bound != right.order_bound:
        raise ValueError(
            f"mismatched order bounds: {left.order_bound} vs {right.order_bound}"
        )
    n = left.order_bound
    out = [Fraction(0)] * n
    for i, a in enumerate(left.coefficients):
        if not a:
            continue
        for j in range(n - i):
            b = right.coefficients[j]
            if b:
                out[i + j] += a * b
    return TruncatedSeries(out, n)


def reference_reciprocal(s):
    """The reciprocal as a triangular solve scaled by the inverse constant term."""
    lead = s.coefficients[0]
    if lead == 0:
        raise ValueError("series with zero constant term is not invertible")
    n = s.order_bound
    inv_lead = 1 / lead
    out = [Fraction(0)] * n
    out[0] = inv_lead
    for m in range(1, n):
        acc = Fraction(0)
        for k in range(1, m + 1):
            a = s.coefficients[k]
            if a:
                acc += a * out[m - k]
        out[m] = -inv_lead * acc
    return TruncatedSeries(out, n)


def reference_log(s):
    """The logarithm from l_m = a_m - sum_k (k/m) l_k a_(m-k), skipping zeros."""
    if s.coefficients[0] != 1:
        raise ValueError("series logarithm requires constant term 1")
    n = s.order_bound
    out = [Fraction(0)] * n
    for m in range(1, n):
        acc = s.coefficients[m]
        for k in range(1, m):
            if out[k] and s.coefficients[m - k]:
                acc -= Fraction(k, m) * out[k] * s.coefficients[m - k]
        out[m] = acc
    return TruncatedSeries(out, n)


def reference_expansion(max_genus):
    """``gf_expand`` built from the reference operations only."""
    n = 2 * max_genus + 2
    sinc = TruncatedSeries(
        [
            Fraction((-1) ** (m // 2), 4 ** (m // 2) * math.factorial(m + 1))
            if m % 2 == 0
            else 0
            for m in range(n)
        ],
        n,
    )
    kernel = reference_reciprocal(sinc)
    log_kernel = reference_log(kernel)
    entries = [kernel]
    for j in range(1, max_genus + 1):
        entries.append(reference_mul(entries[-1], log_kernel) * Fraction(1, j))
    return entries


# Zeros, signs, and denominators that share no factor with one another, so
# every sum mixes denominators and a term dropped or misplaced shows.
_COPRIME_DENOMINATORS = [1, 2, 3, 7**20, 10**9 + 7, 2**61 - 1, 2**89 - 1, 998244353]
coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.sampled_from(_COPRIME_DENOMINATORS),
    ),
)
bounds = st.integers(min_value=1, max_value=12)


def truncated(bound):
    return st.lists(coefficients, min_size=bound, max_size=bound).map(
        lambda c: TruncatedSeries(c, bound)
    )


series_pairs = bounds.flatmap(lambda n: st.tuples(truncated(n), truncated(n)))
single_series = bounds.flatmap(truncated)


class TestAgainstReference:
    """Multiply, reciprocal and log equal the reference loops, errors included."""

    @settings(max_examples=150, deadline=None)
    @given(series_pairs)
    def test_product(self, pair):
        left, right = pair
        product = left * right
        assert product == reference_mul(left, right)
        assert all(type(c) is Fraction for c in product.coefficients)

    @settings(max_examples=150, deadline=None)
    @given(single_series)
    def test_reciprocal(self, s):
        assert outcome(TruncatedSeries.reciprocal, s) == outcome(
            reference_reciprocal, s
        )

    @settings(max_examples=150, deadline=None)
    @given(single_series)
    def test_log(self, s):
        unit = TruncatedSeries((Fraction(1),) + s.coefficients[1:], s.order_bound)
        assert unit.log() == reference_log(unit)
        assert outcome(TruncatedSeries.log, s) == outcome(reference_log, s)

    @pytest.mark.parametrize(
        "operation, reference, args",
        [
            (TruncatedSeries.__mul__, reference_mul, (series([1], 3), series([1], 4))),
            (TruncatedSeries.__mul__, reference_mul, (series([2], 5), series([1], 2))),
            (TruncatedSeries.reciprocal, reference_reciprocal, (series([0, 1], 4),)),
            (TruncatedSeries.reciprocal, reference_reciprocal, (series([], 1),)),
            (TruncatedSeries.log, reference_log, (series([2, 1], 3),)),
            (TruncatedSeries.log, reference_log, (series([0, 1], 3),)),
            (TruncatedSeries.log, reference_log, (series([-1], 2),)),
        ],
    )
    def test_errors_unchanged(self, operation, reference, args):
        result = outcome(operation, *args)
        assert result[0] == "error"
        assert result == outcome(reference, *args)

    def test_kernel_expansion_to_genus_60(self):
        # Every t**m * k**j coefficient: the row entry when m = 2g and
        # j <= g, and 0 everywhere else.
        expansion = gf_expand(60)
        reference = reference_expansion(60)
        assert len(expansion.rows) == len(expansion.dens) == len(reference) == 61
        for j, series in enumerate(reference):
            assert series.order_bound == 122
            for m, want in enumerate(series.coefficients):
                g = m // 2
                if m % 2 == 0 and j <= g:
                    assert Fraction(expansion.rows[g][j], expansion.dens[g]) == want
                else:
                    assert want == 0, (m, j)


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)

    def test_index_four(self):
        assert bernoulli(4) == Fraction(-1, 30)

    def test_odd_indices_vanish(self):
        for m in range(3, 20, 2):
            assert bernoulli(m) == 0

    def test_defining_recurrence(self):
        for m in range(1, 21):
            total = sum(math.comb(m + 1, k) * bernoulli(k) for k in range(m + 1))
            assert total == 0, m

    def test_negative_index_rejected(self):
        message = "Bernoulli numbers are indexed by nonnegative integers"
        with pytest.raises(ValueError, match=f"^{message}$"):
            bernoulli(-1)

    def test_equals_fraction_recurrence_to_200(self):
        # The table as it was grown before the zigzag numbers: the defining
        # recurrence sum_{k=0..m} C(m+1, k) B_k = 0, in Fractions.
        table = [Fraction(1)]
        for m in range(1, 201):
            acc = sum(math.comb(m + 1, k) * b for k, b in enumerate(table) if b)
            table.append(-acc / (m + 1))
        assert [bernoulli(m) for m in range(201)] == table

    def test_against_series_expansion(self):
        # Independent route: B_m = m! * [t^m] t/(exp(t) - 1), here computed by
        # inverting the series (exp(t) - 1)/t with coefficients 1/(m+1)!.
        bound = 17
        denom = TruncatedSeries(
            [Fraction(1, math.factorial(m + 1)) for m in range(bound)], bound
        )
        expansion = denom.reciprocal()
        for m in range(bound):
            assert bernoulli(m) == math.factorial(m) * expansion.coefficient(m)
