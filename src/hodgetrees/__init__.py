"""Exact calculator for one-point Hodge integrals.

Three pipelines compute the same rationals and are cross-checked exactly:
a memoized cut-and-join recursion over ramification-cycle integrals, sums
over decorated rooted trees, and a closed-form expansion of the kernel
(t/2)/sin(t/2) raised to a symbolic power. Everything is arbitrary-precision
rational arithmetic; there is no floating point anywhere.

The package exports the names below; everything else is imported from the
module that defines it, such as ``hodgetrees.verify``. Each name imports
its module on first use (PEP 562), so ``hodgetrees.oracle`` loads alone.
"""

__version__ = "0.1.0"

# The exported names, by the module that defines each of them.
_EXPORTS = {
    "cutjoin": ("canonical_key", "cycle_value"),
    "hodge": ("hodge_integral",),
    "trees": ("tree_sum", "enumerate_trees", "tree_weight"),
    "oracle": ("gf_expand", "oracle_integral"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # no command reads these names

    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value
