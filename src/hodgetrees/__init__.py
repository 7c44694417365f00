"""Exact calculator for one-point Hodge integrals.

Three pipelines compute the same rationals and are cross-checked exactly:
a memoized cut-and-join recursion over ramification-cycle integrals, sums
over decorated rooted trees, and a closed-form expansion of the kernel
(t/2)/sin(t/2) raised to a symbolic power. Everything is arbitrary-precision
rational arithmetic; there is no floating point anywhere.
"""

from .exact_arith import TruncatedSeries, bernoulli, format_rational, parse_rational
from .cutjoin import (
    CycleKey,
    UndefinedExponentError,
    canonical_key,
    cycle_value,
    load_cache,
    recursion_terms,
    save_cache,
)
from .hodge import binomial_terms, hodge_integral, hodge_table
from .oracle import (
    KernelExpansion,
    bernoulli_rhs,
    gf_expand,
    oracle_integral,
    sine_kernel,
)
from .trees import (
    Binary,
    DecoratedTree,
    Leaf,
    Unary,
    canonical_encoding,
    count_trees,
    enumerate_trees,
    iter_encoded_trees,
    tree_sum,
    tree_weight,
    validate_tree,
)
from .verify import (
    CheckReport,
    DEFAULT_AUX_VECTORS,
    check_bernoulli_identity,
    check_choice_independence,
    check_genus0,
    check_oracle_agreement,
    check_tree_identity,
)

__version__ = "0.1.0"

__all__ = [
    "TruncatedSeries",
    "bernoulli",
    "format_rational",
    "parse_rational",
    "CycleKey",
    "UndefinedExponentError",
    "canonical_key",
    "cycle_value",
    "recursion_terms",
    "load_cache",
    "save_cache",
    "binomial_terms",
    "hodge_integral",
    "hodge_table",
    "KernelExpansion",
    "sine_kernel",
    "gf_expand",
    "oracle_integral",
    "bernoulli_rhs",
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
    "CheckReport",
    "DEFAULT_AUX_VECTORS",
    "check_tree_identity",
    "check_bernoulli_identity",
    "check_genus0",
    "check_oracle_agreement",
    "check_choice_independence",
    "__version__",
]
