"""One-shot exact consistency checks wiring the recursion, trees and oracle.

Every check compares reduced fractions for exact equality over an explicit
parameter range; there are no tolerances. A failing check reports the
lexicographically first counterexample with both sides rendered as text, so
failures are reproducible. Checks are independent and share no state beyond
per-call memo caches.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .cutjoin import (
    CycleKey,
    UndefinedExponentError,
    canonical_key,
    cycle_value,
    load_cache,
    step_value,
)
from .exact_arith import format_rational
from .hodge import hodge_integral
from .oracle import bernoulli_rhs, gf_expand, oracle_integral
from .trees import tree_sum

__all__ = [
    "CHECKS",
    "CheckReport",
    "check_tree_identity",
    "check_bernoulli_identity",
    "check_genus0",
    "check_oracle_agreement",
    "check_choice_independence",
    "check_memo",
    "DEFAULT_AUX_VECTORS",
]

DEFAULT_AUX_VECTORS: tuple[tuple[int, ...], ...] = ((1,), (2,), (3,), (1, 1), (2, 3))


class CheckReport(NamedTuple):
    check: str
    range_text: str
    passed: bool
    instances: int
    counterexample: dict[str, str] | None = None

    def render_text(self) -> str:
        if self.passed:
            return (
                f"PASS {self.check} range {self.range_text}"
                f" instances={self.instances}"
            )
        ce = self.counterexample or {}
        return (
            f"FAIL {self.check} range {self.range_text}"
            f" counterexample {ce.get('params', '?')}:"
            f" lhs={ce.get('lhs', '?')} rhs={ce.get('rhs', '?')}"
        )

    def to_json_obj(self) -> dict:
        obj: dict = {
            "check": self.check,
            "range": self.range_text,
            "status": "pass" if self.passed else "fail",
            "instances": self.instances,
        }
        if self.counterexample is not None:
            obj["counterexample"] = dict(self.counterexample)
        return obj


def _passed(check: str, range_text: str, instances: int) -> CheckReport:
    return CheckReport(check, range_text, True, instances)


def _failed(
    check: str,
    range_text: str,
    instances: int,
    params: str,
    lhs: Fraction,
    rhs: Fraction,
) -> CheckReport:
    return CheckReport(
        check,
        range_text,
        False,
        instances,
        {"params": params, "lhs": format_rational(lhs), "rhs": format_rational(rhs)},
    )


def check_tree_identity(max_genus: int = 3, max_leaves: int = 5) -> CheckReport:
    """Tree sums equal recursion values at all-unit weights.

    The pair (genus 0, one leaf) is skipped: the tree side is the single
    leaf with sum 1, but the recursion side would need a negative psi
    exponent and is undefined.
    """
    name = "tree-identity"
    range_text = f"g<={max_genus},n<={max_leaves}"
    cache: dict = {}
    instances = 0
    for g in range(max_genus + 1):
        for n in range(1, max_leaves + 1):
            if g == 0 and n == 1:
                continue
            lhs = tree_sum(g, n)
            rhs = cycle_value(canonical_key(g, g, (1,) * n), cache)
            instances += 1
            if lhs != rhs:
                return _failed(name, range_text, instances, f"g={g},n={n}", lhs, rhs)
    return _passed(name, range_text, instances)


def check_bernoulli_identity(max_genus: int = 3, max_extra: int = 3) -> CheckReport:
    """Alternating binomial combinations of tree sums hit the Bernoulli form."""
    name = "bernoulli"
    range_text = f"g<={max_genus},n<={max_extra}"
    instances = 0
    for g in range(1, max_genus + 1):
        rhs = bernoulli_rhs(g)
        for n in range(1, max_extra + 1):
            lhs = Fraction(0)
            for j in range(g + 1):
                lhs += (-1) ** j * math.comb(g, j) * tree_sum(g, n + g - j)
            instances += 1
            if lhs != rhs:
                return _failed(name, range_text, instances, f"g={g},n={n}", lhs, rhs)
    return _passed(name, range_text, instances)


def check_genus0(max_leaves: int = 9) -> CheckReport:
    """Genus-zero tree sums all equal 1."""
    name = "genus0"
    range_text = f"n<={max_leaves}"
    one = Fraction(1)
    for n in range(1, max_leaves + 1):
        lhs = tree_sum(0, n)
        if lhs != one:
            return _failed(name, range_text, n, f"n={n}", lhs, one)
    return _passed(name, range_text, max_leaves)


def check_oracle_agreement(max_genus: int = 6) -> CheckReport:
    """Recursion-pipeline integrals equal kernel-expansion coefficients."""
    name = "oracle"
    range_text = f"g<={max_genus}"
    expansion = gf_expand(max_genus)
    cache: dict = {}
    instances = 0
    for g in range(1, max_genus + 1):
        for i in range(g + 1):
            lhs = hodge_integral(g, i, cache=cache)
            rhs = oracle_integral(g, i, expansion)
            instances += 1
            if lhs != rhs:
                return _failed(name, range_text, instances, f"g={g},i={i}", lhs, rhs)
    return _passed(name, range_text, instances)


def check_choice_independence(
    max_genus: int = 3,
    aux_vectors: tuple[tuple[int, ...], ...] = DEFAULT_AUX_VECTORS,
) -> CheckReport:
    """The integral is the same rational for every auxiliary weight vector."""
    if not aux_vectors:
        raise ValueError("at least one auxiliary weight vector is required")
    name = "independence"
    aux_text = ";".join(",".join(str(w) for w in aux) for aux in aux_vectors)
    range_text = f"g<={max_genus},aux={aux_text}"
    cache: dict = {}
    instances = 0
    for g in range(1, max_genus + 1):
        for i in range(g + 1):
            reference = hodge_integral(g, i, aux_vectors[0], cache=cache)
            for aux in aux_vectors[1:]:
                value = hodge_integral(g, i, aux, cache=cache)
                instances += 1
                if value != reference:
                    params = f"g={g},i={i},aux=[{','.join(map(str, aux))}]"
                    return _failed(name, range_text, instances, params, value, reference)
    return _passed(name, range_text, instances)


def _key_text(key: CycleKey) -> str:
    weights = ",".join(map(str, key.weights))
    return f"g={key.genus},lambda={key.lam},weights=[{weights}]"


def check_memo(path: str) -> CheckReport:
    """Every entry of a memo file follows in one step from the file's values.

    Each entry is derived again from its children's values in the file, and
    seeds and vanishing entries from their closed forms. Entries go in order
    of increasing psi exponent, so the first wrong entry has children that
    all checked out: it is the one that is wrong, not a parent that read it.
    An entry whose children are not all in the file fails too. The file must
    load with ``load_cache``; this check is opt-in and not part of ``all``.
    """
    name = "memo"
    range_text = f"cache={path}"
    cache = load_cache(path)
    instances = 0
    for key in sorted(cache, key=lambda k: (k.exponent, k)):
        instances += 1
        stored = cache[key]
        try:
            derived = step_value(key, cache)
        except KeyError as missing:
            reason = f"missing child {_key_text(CycleKey(*missing.args[0]))}"
        except UndefinedExponentError:
            reason = "undefined"
        else:
            if derived == stored:
                continue
            reason = format_rational(derived)
        return CheckReport(
            name,
            range_text,
            False,
            instances,
            {"params": _key_text(key), "lhs": format_rational(stored), "rhs": reason},
        )
    return _passed(name, range_text, instances)


# Every check in run order: name -> (function, the parameter that takes a
# genus bound, the parameter that takes a leaf bound). Default ranges live
# only in the functions' signatures.
CHECKS: dict[str, tuple[Callable[..., CheckReport], str | None, str | None]] = {
    "tree-identity": (check_tree_identity, "max_genus", "max_leaves"),
    "bernoulli": (check_bernoulli_identity, "max_genus", "max_extra"),
    "genus0": (check_genus0, None, "max_leaves"),
    "oracle": (check_oracle_agreement, "max_genus", None),
    "independence": (check_choice_independence, "max_genus", None),
}
