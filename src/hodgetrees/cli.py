"""Command-line interface.

Subcommands compute single integrals or cycle values, enumerate decorated
trees, print the integral table, print Bernoulli numbers, and run the exact
verification checks. Values print as reduced fractions; pass ``--decimal D``
where supported for a correctly rounded D-digit approximation, marked with a
leading ``~``. ``integral`` and ``w`` take ``--cache FILE``, a saved memo;
FILE is written only when it did not exist or the command added entries.
``verify --check memo --cache FILE`` derives every entry of such a file
again from the file's own values.
Exit codes: 0 on success or all checks passing, 1 on a verification
failure, 2 on a usage error (refused input, including a ``trees enumerate``
input with more than ``ENUMERATION_LIMIT`` trees, or a file that cannot be
read or written), 3 on any other exception: an internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

from .cutjoin import canonical_key, cycle_value, load_cache, save_cache
from .exact_arith import bernoulli, format_rational
from .hodge import hodge_integral, hodge_table
from .trees import count_trees, tree_sum, weighted_encodings

# Not called here: bench/tracer.py wraps these names in this module.
from .trees import canonical_encoding, enumerate_trees, tree_weight  # noqa: F401
from .verify import CHECKS, check_memo

__all__ = ["main"]

# trees enumerate holds every tree's encoding and weight, about 0.28 KB each.
# (0, 8), 1,587,600 trees, peaked at 447 MiB as text and as JSON (Python
# 3.11.7, written in blocks; the same as one write per row). This admits
# (0, 8) and refuses (2, 7) with 3,016,440 trees.
ENUMERATION_LIMIT = 2_000_000

# trees enumerate writes its checked listing this many rows per write call:
# an unbuffered stdout makes one system call per write.
_BLOCK_ROWS = 4096


def _weights(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed weight list: {text!r}")
    if any(w < 1 for w in parts):
        raise argparse.ArgumentTypeError("weights must be positive integers")
    return parts


def _at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer")
    return value


def _nonnegative(text: str) -> int:
    return _at_least(text, 0, "nonnegative")


def _positive(text: str) -> int:
    return _at_least(text, 1, "positive")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgetrees",
        description="Exact one-point Hodge integral calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_integral = sub.add_parser(
        "integral", help="integral of psi^(3g-2-i) lambda_i at genus g"
    )
    p_integral.add_argument("--g", type=_positive, required=True)
    p_integral.add_argument("--lambda", dest="lam", type=int, required=True)
    p_integral.add_argument("--weights", type=_weights, default=(1,))
    p_integral.add_argument("--cache", default=None)
    p_integral.add_argument("--decimal", type=_positive, default=None)

    p_cycle = sub.add_parser(
        "w", help="cycle value for a genus, lambda index and weight list"
    )
    p_cycle.add_argument("--g", type=_nonnegative, required=True)
    p_cycle.add_argument("--lambda", dest="lam", type=int, required=True)
    p_cycle.add_argument("--weights", type=_weights, required=True)
    p_cycle.add_argument("--cache", default=None)
    p_cycle.add_argument("--decimal", type=_positive, default=None)

    p_trees = sub.add_parser("trees", help="decorated tree enumeration and sums")
    trees_sub = p_trees.add_subparsers(dest="trees_command", required=True)
    p_enumerate = trees_sub.add_parser("enumerate", help="list trees with weights")
    p_enumerate.add_argument("--g", type=_nonnegative, required=True)
    p_enumerate.add_argument("--n", type=_positive, required=True)
    p_enumerate.add_argument("--format", choices=("text", "json"), default="text")
    p_sum = trees_sub.add_parser("sum", help="sum of tree weights")
    p_sum.add_argument("--g", type=_nonnegative, required=True)
    p_sum.add_argument("--n", type=_positive, required=True)
    p_sum.add_argument("--decimal", type=_positive, default=None)

    p_table = sub.add_parser("table", help="all integrals up to a genus bound")
    p_table.add_argument("--max-g", dest="max_g", type=_positive, required=True)
    p_table.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p_bernoulli = sub.add_parser("bernoulli", help="Bernoulli number B_m")
    p_bernoulli.add_argument("--m", type=_nonnegative, required=True)
    p_bernoulli.add_argument("--decimal", type=_positive, default=None)

    p_verify = sub.add_parser("verify", help="run exact consistency checks")
    p_verify.add_argument(
        "--check", choices=(*CHECKS, "all", "memo"), required=True
    )
    p_verify.add_argument("--max-g", dest="max_g", type=_positive, default=None)
    p_verify.add_argument("--max-n", dest="max_n", type=_positive, default=None)
    p_verify.add_argument("--cache", default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _value_text(value: Fraction, decimal_digits: int | None) -> str:
    if decimal_digits is None:
        return format_rational(value)
    with localcontext() as ctx:
        ctx.prec = decimal_digits
        approx = Decimal(value.numerator) / Decimal(value.denominator)
    return f"~{approx}"


def _with_cache(args, compute) -> Fraction:
    exists = bool(args.cache) and os.path.exists(args.cache)
    cache = load_cache(args.cache) if exists else {}
    loaded = len(cache)  # the memo never rebinds a key, so size counts additions
    value = compute(cache)
    if args.cache and (len(cache) > loaded or not exists):
        save_cache(cache, args.cache)
    return value


def _run_verify(args) -> int:
    if args.check == "memo":
        if args.cache is None or args.max_g is not None or args.max_n is not None:
            raise ValueError("--check memo takes --cache FILE and no range")
        reports = [check_memo(args.cache)]
    elif args.cache is not None:
        raise ValueError("--cache goes only with --check memo")
    else:
        reports = []
        for name in CHECKS if args.check == "all" else (args.check,):
            check, genus_param, leaf_param = CHECKS[name]
            given = zip((genus_param, leaf_param), (args.max_g, args.max_n))
            reports.append(check(**{p: v for p, v in given if p and v is not None}))
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
    if any(a >= b for a, b in zip(encodings, encodings[1:])):
        raise RuntimeError("tree listing is not strictly increasing by encoding")
    weights = Counter((numer, denom) for _, numer, denom in rows)
    if any(numer <= 0 or denom <= 0 for numer, denom in weights):
        raise RuntimeError("tree listing has a weight that is not positive")
    listed = sum(k * Fraction(numer, denom) for (numer, denom), k in weights.items())
    if listed != total:
        raise RuntimeError(f"tree weights add up to {listed}, expected {total}")
    return {pair: format_rational(Fraction(*pair)) for pair in weights}


def _run_trees(args) -> int:
    if args.trees_command == "sum":
        print(_value_text(tree_sum(args.g, args.n), args.decimal))
        return 0
    count = count_trees(args.g, args.n)
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
        row, sep = '{{"encoding": "{}", "weight": "{}"}}'.format, ", "
    else:
        print(f"count {count}")
        row, sep = "{}\t{}\n".format, ""
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        text = sep.join(row(e, texts[p, q]) for e, p, q in block)
        sys.stdout.write(sep + text if start else text)
    if args.format == "json":
        print("]}")
    return 0


def _run_table(args) -> int:
    rows = hodge_table(args.max_g)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "g": g,
                        "i": i,
                        "psi_power": 3 * g - 2 - i,
                        "integral": format_rational(value),
                    }
                    for g, i, value in rows
                ]
            )
        )
    else:
        print("g\ti\tpsi_power\tintegral")
        for g, i, value in rows:
            print(f"{g}\t{i}\t{3 * g - 2 - i}\t{format_rational(value)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "integral":
            value = _with_cache(
                args,
                lambda cache: hodge_integral(args.g, args.lam, args.weights, cache),
            )
            print(_value_text(value, args.decimal))
            return 0
        if args.command == "w":
            value = _with_cache(
                args,
                lambda cache: cycle_value(
                    canonical_key(args.g, args.lam, args.weights), cache
                ),
            )
            print(_value_text(value, args.decimal))
            return 0
        if args.command == "trees":
            return _run_trees(args)
        if args.command == "table":
            return _run_table(args)
        if args.command == "bernoulli":
            print(_value_text(bernoulli(args.m), args.decimal))
            return 0
        if args.command == "verify":
            return _run_verify(args)
    except (ValueError, OSError) as exc:  # UndefinedExponentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable subcommand")


if __name__ == "__main__":
    sys.exit(main())
