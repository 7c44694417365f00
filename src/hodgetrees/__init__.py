"""Exact calculator for one-point Hodge integrals.

Three pipelines compute the same rationals and are cross-checked exactly:
a memoized cut-and-join recursion over ramification-cycle integrals, sums
over decorated rooted trees, and a closed-form expansion of the kernel
(t/2)/sin(t/2) raised to a symbolic power. Everything is arbitrary-precision
rational arithmetic; there is no floating point anywhere.

The package exports the names below; everything else is imported from the
module that defines it, such as ``hodgetrees.verify``.
"""

from .cutjoin import canonical_key, cycle_value
from .hodge import hodge_integral
from .oracle import gf_expand, oracle_integral
from .trees import enumerate_trees, tree_sum, tree_weight

__version__ = "0.1.0"

__all__ = [
    "canonical_key",
    "cycle_value",
    "hodge_integral",
    "tree_sum",
    "enumerate_trees",
    "tree_weight",
    "gf_expand",
    "oracle_integral",
    "__version__",
]
