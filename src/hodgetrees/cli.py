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
checks every line but builds only the entries of the keys' weight totals,
the only ones evaluation can read; it writes the old lines back as they
are, with the added entries formatted among them, under a matching header.
A header that does not match its body is refused; ``verify --check memo
--cache FILE`` names a wrong entry. A FILE that exists but is not a regular
file, such as a FIFO or a directory, is refused before any work. A single
check refuses a ``--max-g`` or ``--max-n`` it does not take. A command
imports only the modules it runs: the tree commands load no recursion code,
the value commands and ``table`` no tree code, and only the handlers that
use ``verify`` or ``json`` import them.
Exit codes: 0 on success or all checks passing, 1 on a verification
failure, 2 on a usage error (refused input, such as ``trees enumerate`` past
``ENUMERATION_LIMIT`` trees, a ``--max-g`` of ``table`` or ``verify --check
oracle``/``independence``/``all`` past ``TABLE_GENUS_LIMIT``, ``bernoulli
--m`` past ``BERNOULLI_LIMIT``, ``--decimal`` past ``DECIMAL_LIMIT``, a
``--cache`` that is not a regular file, or a file that cannot be read or
written), 3 on an internal error.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from operator import ge, itemgetter

from .exact_arith import _ARGUMENT, bernoulli, format_rational

__all__ = ["main"]

# Pipeline functions, bound here on first use (PEP 562) with the rest of their
# module's names: tree commands never import cutjoin or hodge, and integral, w
# and table never import trees. bench/tracer.py wraps save_cache and the last
# three tree names, uncalled here.
_TREE_NAMES = ("count_trees", "tree_sum", "weight_scale", "weighted_encodings")
_TREE_NAMES += ("canonical_encoding", "enumerate_trees", "tree_weight")
_MEMO_NAMES = ("canonical_key", "cycle_value", "load_cache", "save_cache")
_MEMO_NAMES += ("_read_miss", "_write_miss")
_LAZY_NAMES = {
    "cutjoin": _MEMO_NAMES,
    "hodge": ("hodge_integral", "hodge_table", "integral_keys"),
    "trees": _TREE_NAMES,
}
_HOMES = {name: module for module, names in _LAZY_NAMES.items() for name in names}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module 'hodgetrees.cli' has no attribute {name!r}")
    from importlib import import_module

    home = _HOMES[name]
    module = import_module(f".{home}", __package__)
    for lazy in _LAZY_NAMES[home]:  # a name bound already, as by a wrapper, stays
        globals().setdefault(lazy, getattr(module, lazy))
    return globals()[name]


# trees enumerate holds every tree's encoding and scaled weight, about 0.25 KB
# each. (0, 8), 1,587,600 trees, peaked at 374 MiB as text and as JSON (Python
# 3.11.7, written in blocks; the same as one write per row). This admits
# (0, 8) and refuses (2, 7) with 3,016,440 trees.
ENUMERATION_LIMIT = 2_000_000

# table keeps every recursion state in its memo, about 0.3 KiB each: --max-g 20,
# 809,634 states, peaked at 251 MiB in 9-12 s (Python 3.11.7, 2 vCPU). The count
# doubles about every two genera, so this refuses 22: some 1.6 million, 0.5 GiB.
TABLE_GENUS_LIMIT = 20

# bernoulli's work grows about as m**3: --m 1,000, 2,000, 3,000 and 4,000 took
# 0.23, 0.97, 2.9 and 7.8 s in a fresh process (Python 3.11.7, 2 vCPU), so
# --m 100,000 would run for days. This admits 4,000 and refuses 4,001.
BERNOULLI_LIMIT = 4000

# --decimal D costs about D times the value's length: 10**7 and 10**8 digits of w --g
# 3000 --lambda 3000 --weights 2 took 3.1 s at 47 MiB and 31 s at 255 MiB, as above.
DECIMAL_LIMIT = 10_000_000

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
    """The integer ``text`` spells, if ``_ARGUMENT`` matches it and it is >= ``low``.

    Else ``error``, or int's. int() alone also takes " 1", "0_1", "01" and "-0".
    """
    try:
        value = int(text) if _ARGUMENT.fullmatch(text) else None
    except ValueError:  # past int()'s digit limit
        value = None
    if value is None or low is not None and value < low:
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


def _memo_exists(path: str) -> bool:
    """Whether the ``--cache`` file exists; one that is not a regular file is refused.

    Opening a FIFO would block, and a save would replace a device node.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return False
    if not stat.S_ISREG(mode):
        raise ValueError(f"--cache {path!r} is not a regular file")
    return True


def _with_cache(args, keys, compute) -> Fraction:
    """``compute`` of the ``--cache`` memo, written back unless it is a verified hit."""
    if args.cache == "":
        raise ValueError("--cache needs a file name, not ''")
    if args.cache is None:
        return compute({})
    exists = _memo_exists(args.cache)
    read_miss = __getattr__("_read_miss")  # binds cutjoin's names
    miss = read_miss(args.cache, keys) if exists else ({}, {})
    if miss is None:  # read-only: a query that would add to it fails, unwritten
        return compute(load_cache(args.cache, keys))
    lines, memo = miss
    value = compute(memo)
    _write_miss(args.cache, lines, memo)
    return value


def _integral(args) -> Fraction:
    keys = __getattr__("integral_keys")(args.g, args.lam, args.weights)  # binds hodge
    return _with_cache(
        args, keys, lambda cache: hodge_integral(args.g, args.lam, args.weights, cache)
    )


def _cycle(args) -> Fraction:
    key = __getattr__("canonical_key")(args.g, args.lam, args.weights)  # binds cutjoin
    keys = [key] if 0 <= key.lam <= key.genus else []  # else the value is 0
    return _with_cache(args, keys, lambda cache: cycle_value(key, cache))


def _run_verify(args) -> int:
    import json

    from . import verify

    if args.check == "memo":
        if args.cache is None or args.max_g is not None or args.max_n is not None:
            raise ValueError("--check memo takes --cache FILE and no range")
        _memo_exists(args.cache)  # a missing one is load_cache's error
        reports = [verify.check_memo(args.cache)]
    elif args.cache is not None:
        raise ValueError("--cache goes only with --check memo")
    else:
        names = CHECKS if args.check == "all" else (args.check,)
        tabled = {"oracle", "independence"}.intersection(names)
        if tabled and (args.max_g or 0) > TABLE_GENUS_LIMIT:
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


def _weight_texts(rows, count: int, total: Fraction, scale: int) -> dict[int, str]:
    """Text of each distinct weight, once the listing has checked out whole.

    No tree is validated on its own. The listing must have ``count`` rows,
    strictly increasing encodings (so no tree twice) and positive scaled
    weights adding up exactly to ``total * scale``; anything else is an
    internal error. All of it is integer work until each distinct weight is
    formatted once, as its scaled value over ``scale``.
    """
    if len(rows) != count:
        raise RuntimeError(f"tree listing has {len(rows)} rows, expected {count}")
    encodings = list(map(itemgetter(0), rows))
    if any(map(ge, encodings, islice(encodings, 1, None))):
        raise RuntimeError("tree listing is not strictly increasing by encoding")
    weights = Counter(map(itemgetter(1), rows))
    if any(scaled <= 0 for scaled in weights):
        raise RuntimeError("tree listing has a weight that is not positive")
    listed = sum(k * scaled for scaled, k in weights.items())
    if listed != total * scale:
        listed = Fraction(listed, scale)
        raise RuntimeError(f"tree weights add up to {listed}, expected {total}")
    return {scaled: format_rational(Fraction(scaled, scale)) for scaled in weights}


def _run_enumerate(args) -> int:
    count = __getattr__("count_trees")(args.g, args.n)  # binds each tree name
    if count > ENUMERATION_LIMIT:
        raise ValueError(
            f"g={args.g}, n={args.n} has {count} trees,"
            f" more than the enumeration limit of {ENUMERATION_LIMIT}"
        )
    rows = weighted_encodings(args.g, args.n)
    total = tree_sum(args.g, args.n)
    texts = _weight_texts(rows, count, total, weight_scale(args.g, args.n))
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
    tails = {scaled: tail.format(text) for scaled, text in texts.items()}
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        text = sep.join([head + e + tails[w] for e, w in block])
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
        for g, i, value in __getattr__("hodge_table")(args.max_g)
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
        if "decimal" not in args:  # the value commands, and only they, take it
            return args.handler(args)
        if (args.decimal or 0) > DECIMAL_LIMIT:
            raise ValueError(f"--decimal above the digit limit of {DECIMAL_LIMIT}")
        print(_value_text(args.handler(args), args.decimal))
        return 0
    except (ValueError, OSError) as exc:  # UndefinedExponentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
