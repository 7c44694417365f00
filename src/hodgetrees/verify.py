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

from .cutjoin import cycle_value, load_cache, step_value
from .exact_arith import format_rational
from .hodge import hodge_integral, hodge_table
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


def _report(check: str, range_text: str, cases) -> CheckReport:
    """Compare ``(params, lhs, rhs)`` cases in order until the first mismatch.

    ``instances`` counts the cases compared, the failing one included. Both
    sides are rationals, except that a right side given as text (a reason
    no value was derived) is a mismatch and is reported as it is. A check
    that compares no case is refused with ``ValueError``, not passed.
    """
    instances = 0
    for params, lhs, rhs in cases:
        instances += 1
        if lhs != rhs:
            counterexample = {
                "params": params,
                "lhs": format_rational(lhs),
                "rhs": rhs if isinstance(rhs, str) else format_rational(rhs),
            }
            return CheckReport(check, range_text, False, instances, counterexample)
    if not instances:
        raise ValueError(f"{check} range {range_text} has no instances to compare")
    return CheckReport(check, range_text, True, instances)


def check_tree_identity(max_genus: int = 3, max_leaves: int = 5) -> CheckReport:
    """Tree sums equal recursion values at all-unit weights.

    The pair (genus 0, one leaf) is skipped: the tree side is the single
    leaf with sum 1, but the recursion side would need a negative psi
    exponent and is undefined.
    """
    cache: dict = {}
    cases = (
        (
            f"g={g},n={n}",
            tree_sum(g, n),
            cycle_value((g, g, (1,) * n), cache),
        )
        for g in range(max_genus + 1)
        for n in range(1, max_leaves + 1)
        if (g, n) != (0, 1)
    )
    return _report("tree-identity", f"g<={max_genus},n<={max_leaves}", cases)


def check_bernoulli_identity(max_genus: int = 3, max_extra: int = 3) -> CheckReport:
    """Alternating binomial combinations of tree sums hit the Bernoulli form."""
    cases = (
        (
            f"g={g},n={n}",
            sum(
                (-1) ** j * math.comb(g, j) * tree_sum(g, n + g - j)
                for j in range(g + 1)
            ),
            bernoulli_rhs(g),
        )
        for g in range(1, max_genus + 1)
        for n in range(1, max_extra + 1)
    )
    return _report("bernoulli", f"g<={max_genus},n<={max_extra}", cases)


def check_genus0(max_leaves: int = 9) -> CheckReport:
    """Genus-zero tree sums all equal 1."""
    cases = ((f"n={n}", tree_sum(0, n), Fraction(1)) for n in range(1, max_leaves + 1))
    return _report("genus0", f"n<={max_leaves}", cases)


def check_oracle_agreement(max_genus: int = 6) -> CheckReport:
    """The rows ``hodge_table`` gives equal kernel-expansion coefficients."""
    expansion = gf_expand(max_genus)
    cases = (
        (f"g={g},i={i}", value, oracle_integral(g, i, expansion))
        for g, i, value in hodge_table(max_genus)
    )
    return _report("oracle", f"g<={max_genus}", cases)


def check_choice_independence(max_genus: int = 3) -> CheckReport:
    """The integral is the same rational for every auxiliary weight vector."""
    aux_text = ";".join(",".join(map(str, aux)) for aux in DEFAULT_AUX_VECTORS)
    cache: dict = {}

    def cases():
        for g in range(1, max_genus + 1):
            for i in range(g + 1):
                reference = hodge_integral(g, i, DEFAULT_AUX_VECTORS[0], cache=cache)
                for aux in DEFAULT_AUX_VECTORS[1:]:
                    params = f"g={g},i={i},aux=[{','.join(map(str, aux))}]"
                    yield params, hodge_integral(g, i, aux, cache=cache), reference

    return _report("independence", f"g<={max_genus},aux={aux_text}", cases())


def _key_text(key: tuple) -> str:
    genus, lam, weights = key
    return f"g={genus},lambda={lam},weights=[{','.join(map(str, weights))}]"


def check_memo(path: str) -> CheckReport:
    """Every entry of a memo file follows in one step from the file's values.

    Each entry is derived again from its children's values in the file, and
    seeds from their closed forms. Entries go in order of increasing psi
    exponent, so the first wrong entry has children that all checked out: it
    is the one that is wrong, not a parent that read it. An entry whose
    children are not all in the file fails too. The file must load with
    ``load_cache``; this check is opt-in and not part of ``all``.
    """
    cache = load_cache(path)

    def cases():
        for key in sorted(cache, key=lambda k: (k.exponent, k)):
            try:
                derived = step_value(key, cache)
            except KeyError as missing:
                derived = f"missing child {_key_text(missing.args[0])}"
            yield _key_text(key), cache[key], derived

    return _report("memo", f"cache={path}", cases())


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
