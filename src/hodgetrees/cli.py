"""Command-line interface.

Subcommands compute single integrals or cycle values, enumerate decorated
trees, print the integral table, print Bernoulli numbers, and run the exact
verification checks. Each subcommand's parser names its handler, and
``main`` calls it. The handlers of ``integral``, ``w``, ``trees sum`` and
``bernoulli`` return a value, which ``main`` prints in one place: as a
reduced fraction, or with ``--decimal D`` as a correctly rounded D-digit
approximation marked with a leading ``~``. The other handlers write their
own output and return the exit code. ``integral`` and ``w`` take
``--cache FILE``, a saved memo. A hit (FILE's header matches its body and
it holds every key the query reads) reads, checks and builds only those
entries, read-only, and writes nothing. A miss, or a file without a header,
checks every line and is written back with a matching header. A header
that does not match its body is refused; ``verify --check memo --cache
FILE`` names a wrong entry. A single check refuses a ``--max-g`` or
``--max-n`` it does not take. Only the handlers that use ``verify``,
``json`` or the tree pipeline import them.
Exit codes: 0 on success or all checks passing, 1 on a verification
failure, 2 on a usage error (refused input, such as ``trees enumerate`` past
``ENUMERATION_LIMIT`` trees, a ``--max-g`` of ``table`` or ``verify --check
oracle``/``all`` past ``TABLE_GENUS_LIMIT``, ``bernoulli --m`` past
``BERNOULLI_LIMIT``, or a file that cannot be read or written), 3 on an
internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from operator import ge, itemgetter

from .cutjoin import canonical_key, cycle_value, load_cache, save_cache
from .exact_arith import bernoulli, format_rational
from .hodge import hodge_integral, hodge_table, integral_keys

__all__ = ["main"]

# Tree functions, bound here on first use (PEP 562): integral, w and table never
# import the tree pipeline. bench/tracer.py wraps the last three, uncalled here.
_TREE_NAMES = ("count_trees", "tree_sum", "weighted_encodings")
_TREE_NAMES += ("canonical_encoding", "enumerate_trees", "tree_weight")


def __getattr__(name: str):
    if name not in _TREE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import trees
    for tree_name in _TREE_NAMES:  # a name bound already, as by a wrapper, stays
        globals().setdefault(tree_name, getattr(trees, tree_name))
    return globals()[name]


# trees enumerate holds every tree's encoding and weight, about 0.28 KB each.
# (0, 8), 1,587,600 trees, peaked at 447 MiB as text and as JSON (Python
# 3.11.7, written in blocks; the same as one write per row). This admits
# (0, 8) and refuses (2, 7) with 3,016,440 trees.
ENUMERATION_LIMIT = 2_000_000

# table keeps every recursion state in its memo, about 0.29 KiB each: --max-g 20,
# 809,634 states, peaked at 238 MiB in 21 s (Python 3.11.7). The count doubles
# about every two genera, so this refuses 22: some 1.6 million states, 0.5 GiB.
TABLE_GENUS_LIMIT = 20

# bernoulli's work grows about as m**3: --m 1,000, 2,000, 3,000 and 4,000 took
# 0.23, 0.97, 2.9 and 7.8 s in a fresh process (Python 3.11.7, 2 vCPU), so
# --m 100,000 would run for days. This admits 4,000 and refuses 4,001.
BERNOULLI_LIMIT = 4000

# trees enumerate writes its checked listing this many rows per write call:
# an unbuffered stdout makes one system call per write.
_BLOCK_ROWS = 4096

# Every check in run order: name -> (function in hodgetrees.verify, parameter
# of the genus bound, of the leaf bound). Defaults live in the signatures.
CHECKS: dict[str, tuple[str, str | None, str | None]] = {
    "tree-identity": ("check_tree_identity", "max_genus", "max_leaves"),
    "bernoulli": ("check_bernoulli_identity", "max_genus", "max_extra"),
    "genus0": ("check_genus0", None, "max_leaves"),
    "oracle": ("check_oracle_agreement", "max_genus", None),
    "independence": ("check_choice_independence", "max_genus", None),
}


def _integer(text: str, low: int | None = None, error: str = "") -> int:
    """The integer ``text`` canonically spells, if >= ``low``; else ``error`` or int's.

    int() alone also takes " 1", "0_1", "01" and "-0"; a value above 0 may keep
    the "+" sign that the CLI has always taken.
    """
    try:
        value = int(text)
    except ValueError:  # not an integer, or past int()'s digit limit
        value = None
    bare = text[1:] if value is not None and value > 0 and text[:1] == "+" else text
    if value is None or bare != str(value) or low is not None and value < low:
        raise argparse.ArgumentTypeError(error or f"invalid int value: {text!r}")
    return value


def _weights(text: str) -> tuple[int, ...]:
    error = f"malformed weight list: {text!r}"
    parts = tuple(_integer(piece, error=error) for piece in text.split(","))
    if any(w < 1 for w in parts):
        raise argparse.ArgumentTypeError("weights must be positive integers")
    return parts


def _nonnegative(text: str) -> int:
    return _integer(text, 0, "expected a nonnegative integer")


def _positive(text: str) -> int:
    return _integer(text, 1, "expected a positive integer")


def _value_text(value: Fraction, decimal_digits: int | None) -> str:
    if decimal_digits is None:
        return format_rational(value)
    with localcontext() as ctx:
        ctx.prec = decimal_digits
        approx = Decimal(value.numerator) / Decimal(value.denominator)
    return f"~{approx}"


def _with_cache(args, keys, compute) -> Fraction:
    """``compute`` of the ``--cache`` memo, saved unless it is a read-only hit."""
    if args.cache == "":
        raise ValueError("--cache needs a file name, not ''")
    exists = bool(args.cache) and os.path.exists(args.cache)
    cache = load_cache(args.cache, keys) if exists else {}
    value = compute(cache)
    if args.cache and type(cache) is dict:
        save_cache(cache, args.cache)
    return value


def _integral(args) -> Fraction:
    keys = integral_keys(args.g, args.lam, args.weights)
    return _with_cache(
        args, keys, lambda cache: hodge_integral(args.g, args.lam, args.weights, cache)
    )


def _cycle(args) -> Fraction:
    key = canonical_key(args.g, args.lam, args.weights)
    keys = [key] if 0 <= key.lam <= key.genus else []  # else the value is 0
    return _with_cache(args, keys, lambda cache: cycle_value(key, cache))


def _run_verify(args) -> int:
    import json

    from . import verify

    if args.check == "memo":
        if args.cache is None or args.max_g is not None or args.max_n is not None:
            raise ValueError("--check memo takes --cache FILE and no range")
        reports = [verify.check_memo(args.cache)]
    elif args.cache is not None:
        raise ValueError("--cache goes only with --check memo")
    else:
        names = CHECKS if args.check == "all" else (args.check,)
        if "oracle" in names and (args.max_g or 0) > TABLE_GENUS_LIMIT:
            raise ValueError(f"--max-g above the table limit of {TABLE_GENUS_LIMIT}")
        reports = []
        for name in names:
            function, *params = CHECKS[name]
            given = {}
            bounds = zip(params, ("--max-g", "--max-n"), (args.max_g, args.max_n))
            for param, flag, bound in bounds:
                if bound is not None and param:
                    given[param] = bound
                elif bound is not None and args.check != "all":
                    raise ValueError(f"--check {name} takes no {flag}")
            reports.append(getattr(verify, function)(**given))
    if args.format == "json":
        payload = [r.to_json_obj() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload))
    else:
        for report in reports:
            print(report.render_text())
    return 0 if all(r.passed for r in reports) else 1


def _weight_texts(rows, count: int, total: Fraction) -> dict[tuple[int, int], str]:
    """Text of each distinct weight, once the listing has checked out whole.

    No tree is validated on its own. The listing must have ``count`` rows,
    strictly increasing encodings (so no tree twice) and positive weights
    adding up exactly to ``total``; anything else is an internal error.
    """
    if len(rows) != count:
        raise RuntimeError(f"tree listing has {len(rows)} rows, expected {count}")
    encodings = [row[0] for row in rows]
    if any(map(ge, encodings, islice(encodings, 1, None))):
        raise RuntimeError("tree listing is not strictly increasing by encoding")
    weights = Counter(map(itemgetter(1, 2), rows))
    if any(numer <= 0 or denom <= 0 for numer, denom in weights):
        raise RuntimeError("tree listing has a weight that is not positive")
    listed = sum(k * Fraction(numer, denom) for (numer, denom), k in weights.items())
    if listed != total:
        raise RuntimeError(f"tree weights add up to {listed}, expected {total}")
    return {pair: format_rational(Fraction(*pair)) for pair in weights}


def _run_enumerate(args) -> int:
    count = __getattr__("count_trees")(args.g, args.n)  # binds each tree name
    if count > ENUMERATION_LIMIT:
        raise ValueError(
            f"g={args.g}, n={args.n} has {count} trees,"
            f" more than the enumeration limit of {ENUMERATION_LIMIT}"
        )
    rows = weighted_encodings(args.g, args.n)
    total = tree_sum(args.g, args.n)
    texts = _weight_texts(rows, count, total)
    if args.format == "json":
        # The bytes json.dumps gives, a block of rows at a time: encodings use
        # only LUB0-9(), and weights only -0-9/, which JSON strings hold as is.
        sys.stdout.write(
            f'{{"g": {args.g}, "n": {args.n}, "count": {count},'
            f' "sum": "{format_rational(total)}", "trees": ['
        )
        head, tail, sep = '{"encoding": "', '", "weight": "{}"}}', ", "
    else:
        print(f"count {count}")
        head, tail, sep = "", "\t{}\n", ""
    tails = {pair: tail.format(text) for pair, text in texts.items()}
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        text = sep.join([head + e + tails[p, q] for e, p, q in block])
        sys.stdout.write(sep + text if start else text)
    if args.format == "json":
        print("]}")
    return 0


def _bernoulli(args) -> Fraction:
    if args.m > BERNOULLI_LIMIT:
        raise ValueError(f"--m above the Bernoulli limit of {BERNOULLI_LIMIT}")
    return bernoulli(args.m)


def _run_table(args) -> int:
    if args.max_g > TABLE_GENUS_LIMIT:
        raise ValueError(f"--max-g above the table limit of {TABLE_GENUS_LIMIT}")
    columns = ("g", "i", "psi_power", "integral")
    rows = [
        (g, i, 3 * g - 2 - i, format_rational(value))
        for g, i, value in hodge_table(args.max_g)
    ]
    if args.format == "json":
        import json

        print(json.dumps([dict(zip(columns, row)) for row in rows]))
    else:
        for row in (columns, *rows):
            print(*row, sep="\t")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgetrees",
        description="Exact one-point Hodge integral calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_integral = sub.add_parser(
        "integral", help="integral of psi^(3g-2-i) lambda_i at genus g"
    )
    p_integral.set_defaults(handler=_integral)
    p_cycle = sub.add_parser(
        "w", help="cycle value for a genus, lambda index and weight list"
    )
    p_cycle.set_defaults(handler=_cycle)
    p_trees = sub.add_parser("trees", help="decorated tree enumeration and sums")
    trees_sub = p_trees.add_subparsers(dest="trees_command", required=True)
    p_enumerate = trees_sub.add_parser("enumerate", help="list trees with weights")
    p_enumerate.set_defaults(handler=_run_enumerate)
    p_sum = trees_sub.add_parser("sum", help="sum of tree weights")
    p_sum.set_defaults(handler=lambda args: __getattr__("tree_sum")(args.g, args.n))
    p_table = sub.add_parser("table", help="all integrals up to a genus bound")
    p_table.set_defaults(handler=_run_table)
    p_bernoulli = sub.add_parser("bernoulli", help="Bernoulli number B_m")
    p_bernoulli.set_defaults(handler=_bernoulli)
    p_verify = sub.add_parser("verify", help="run exact consistency checks")
    p_verify.set_defaults(handler=_run_verify)

    for p, g_type, weights in (
        (p_integral, _positive, {"default": (1,)}),
        (p_cycle, _nonnegative, {"required": True}),
    ):
        p.add_argument("--g", type=g_type, required=True)
        p.add_argument("--lambda", dest="lam", type=_integer, required=True)
        p.add_argument("--weights", type=_weights, **weights)
        p.add_argument("--cache", default=None)
    for p in p_enumerate, p_sum:
        p.add_argument("--g", type=_nonnegative, required=True)
        p.add_argument("--n", type=_positive, required=True)
    p_enumerate.add_argument("--format", choices=("text", "json"), default="text")
    p_table.add_argument("--max-g", dest="max_g", type=_positive, required=True)
    p_table.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_bernoulli.add_argument("--m", type=_nonnegative, required=True)
    for p in p_integral, p_cycle, p_sum, p_bernoulli:
        p.add_argument("--decimal", type=_positive, default=None)
    p_verify.add_argument("--check", choices=(*CHECKS, "all", "memo"), required=True)
    p_verify.add_argument("--max-g", dest="max_g", type=_positive, default=None)
    p_verify.add_argument("--max-n", dest="max_n", type=_positive, default=None)
    p_verify.add_argument("--cache", default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = args.handler(args)
        if "decimal" in args:  # the value commands, and only they, take --decimal
            print(_value_text(result, args.decimal))
            return 0
        return result
    except (ValueError, OSError) as exc:  # UndefinedExponentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
