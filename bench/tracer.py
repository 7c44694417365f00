"""Child process of the benchmark: runs one job, optionally traced.

Usage:
    python3 bench/tracer.py [--spans PREFIX] cli ARG...
    python3 bench/tracer.py [--spans PREFIX] series N

``cli`` calls ``hodgetrees.cli.main(ARG...)``, the same code the
``hodgetrees`` command runs. ``series`` is the library job no command
exposes: expand the kernel power to genus N, print every one-point
integral with g <= N as ``g<TAB>i<TAB>value``, and check each top-lambda
entry against the Bernoulli closed form (exit 1 on a mismatch).

With ``--spans`` the process first replaces public functions with timing
wrappers at the names their callers look up (for example
``hodgetrees.hodge.cycle_value``, the name ``hodge_integral`` calls), so no
file of the package changes. Each wrapper records one span: name, start,
end and the enclosing span. Spans stay in memory and are written at exit to
``PREFIX.spans`` (native ``array('q')`` quadruples: name index, start ns,
end ns, parent index or -1) and ``PREFIX.json`` (span names and counters).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from array import array

from hodgetrees.exact_arith import format_rational
from hodgetrees.oracle import bernoulli_rhs, gf_expand, oracle_integral

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int) -> int:
        index = len(self.spans) // 4
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((name_id, _clock(), 0, parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[4 * index + 2] = _clock()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, func, after=None):
        """A wrapper recording one span per call; ``after`` sees (args, result)."""
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def wrap_iterator(self, name: str, func, item_counter: str):
        """Wrap a generator function so that each ``next()`` is one span."""
        name_id = self.name_id(name)
        tracer = self

        class TracedIterator:
            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                index = tracer.open(name_id)
                try:
                    item = next(self._inner)
                finally:
                    tracer.close(index)
                tracer.count(item_counter)
                return item

        def traced(*args, **kwargs):
            return TracedIterator(func(*args, **kwargs))

        return traced

    def write(self, prefix: str) -> None:
        with open(prefix + ".spans", "wb") as handle:
            self.spans.tofile(handle)
        with open(prefix + ".json", "w", encoding="ascii") as handle:
            json.dump({"names": self.names, "counters": self.counters}, handle)


def install(tracer: Tracer, job_module) -> None:
    """Wrap each layer's public functions where their callers bind them."""
    from hodgetrees import cli, cutjoin, exact_arith, hodge, oracle, trees

    for counter in (
        "cutjoin.states",
        "cutjoin.states_added",
        "cutjoin.recursion_terms.children",
        "cutjoin.cache_bytes",
        "trees.trees",
    ):
        tracer.counters[counter] = 0
    tracer.name_id("cli.main")  # opened by main() for cli jobs

    def patch(module, attr: str, span: str, after=None) -> None:
        setattr(module, attr, tracer.wrap(span, getattr(module, attr), after))

    def memo_growth(wrapped):
        # cycle_value(key, cache): count states the call added to the memo.
        def traced(key, cache=None):
            if cache is None:
                cache = {}
            before = len(cache)
            value = wrapped(key, cache)
            tracer.count("cutjoin.states_added", len(cache) - before)
            tracer.peak("cutjoin.states", len(cache))
            return value

        return traced

    for module in (hodge, cli):
        module.cycle_value = memo_growth(
            tracer.wrap("cutjoin.cycle_value", module.cycle_value)
        )
        patch(module, "hodge_integral", "hodge.hodge_integral")
    patch(
        cutjoin,
        "recursion_terms",
        "cutjoin.recursion_terms",
        after=lambda args, result: tracer.count(
            "cutjoin.recursion_terms.children", len(result)
        ),
    )
    patch(
        cli,
        "load_cache",
        "cutjoin.load_cache",
        after=lambda args, result: tracer.peak("cutjoin.states", len(result)),
    )
    patch(
        cli,
        "save_cache",
        "cutjoin.save_cache",
        after=lambda args, result: tracer.peak(
            "cutjoin.cache_bytes", os.path.getsize(args[1])
        ),
    )
    patch(cutjoin, "parse_rational", "exact_arith.parse_rational")
    for module in (cli, cutjoin, job_module):
        patch(module, "format_rational", "exact_arith.format_rational")

    trees.iter_encoded_trees = tracer.wrap_iterator(
        "trees.walk", trees.iter_encoded_trees, "trees.trees"
    )
    # enumerate_trees is the sort of the walked trees; the walk is its child.
    patch(cli, "enumerate_trees", "trees.sort")
    patch(cli, "tree_weight", "trees.tree_weight")
    patch(trees, "validate_tree", "trees.validate_tree")
    patch(cli, "canonical_encoding", "trees.canonical_encoding")
    patch(cli, "tree_sum", "trees.tree_sum")

    series = exact_arith.TruncatedSeries
    patch(series, "__mul__", "exact_arith.series_mul")
    patch(series, "reciprocal", "exact_arith.series_reciprocal")
    patch(series, "log", "exact_arith.series_log")
    patch(oracle, "bernoulli", "exact_arith.bernoulli")
    patch(oracle, "sine_kernel", "oracle.sine_kernel")
    for attr in ("gf_expand", "oracle_integral", "bernoulli_rhs"):
        patch(job_module, attr, "oracle." + attr)


def series_job(max_genus: int) -> int:
    """Print every integral with g <= max_genus; 1 if a top-lambda check fails.

    Names are looked up as module globals at call time, so wrappers that
    ``install`` put there are the ones called.
    """
    expansion = gf_expand(max_genus)
    failed = 0
    lines = []
    for g in range(1, max_genus + 1):
        for i in range(g + 1):
            value = oracle_integral(g, i, expansion)
            lines.append(f"{g}\t{i}\t{format_rational(value)}")
        if value * math.factorial(g) != bernoulli_rhs(g):
            print(f"error: top-lambda mismatch at g={g}", file=sys.stderr)
            failed += 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    job, args = argv[0], argv[1:]
    tracer = Tracer()
    if spans is not None:
        install(tracer, sys.modules[__name__])
    if job == "cli":
        from hodgetrees import cli

        index = tracer.open(tracer.name_id("cli.main"))
        try:
            code = cli.main(args)
        finally:
            tracer.close(index)
    elif job == "series":
        code = series_job(int(args[0]))
    else:
        print(f"error: unknown job {job!r}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    if spans is not None:
        tracer.write(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
