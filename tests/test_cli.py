import hashlib
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import hodgetrees
from hodgetrees.cli import _BLOCK_ROWS, main
from hodgetrees.cutjoin import (
    canonical_key,
    cycle_value,
    load_cache,
    save_cache,
    step_value,
)
from hodgetrees.exact_arith import format_rational
from hodgetrees.hodge import hodge_integral, hodge_table, integral_keys
from hodgetrees.trees import (
    canonical_encoding,
    count_trees,
    enumerate_trees,
    tree_sum,
    tree_weight,
    weighted_encodings,
)


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleValues:
    def test_integral(self, capsys):
        code, out, _ = run(capsys, "integral", "--g", "2", "--lambda", "1")
        assert code == 0 and out == "1/480\n"

    def test_integral_with_weights(self, capsys):
        code, out, _ = run(
            capsys, "integral", "--g", "2", "--lambda", "1", "--weights", "2,3"
        )
        assert code == 0 and out == "1/480\n"

    def test_cycle_value(self, capsys):
        code, out, _ = run(
            capsys, "w", "--g", "2", "--lambda", "1", "--weights", "1,1,1"
        )
        assert code == 0 and out == "1/120\n"

    def test_bernoulli(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "--m", "4")
        assert code == 0 and out == "-1/30\n"

    def test_bernoulli_limit_refused_before_any_value(self, capsys, monkeypatch):
        import hodgetrees.cli as cli

        asked = []
        monkeypatch.setattr(cli, "bernoulli", lambda m: asked.append(m) or Fraction(m))
        limit = cli.BERNOULLI_LIMIT
        assert 1000 <= limit <= 10_000
        assert run(capsys, "bernoulli", "--m", str(limit)) == (0, f"{limit}\n", "")
        for m in limit + 1, 100_000:
            code, out, err = run(capsys, "bernoulli", "--m", str(m))
            assert (code, out) == (2, "")
            assert err == f"error: --m above the Bernoulli limit of {limit}\n"
        assert asked == [limit]

    @pytest.mark.parametrize("g", [1200, 1300])
    def test_deep_cycle_value(self, capsys, tmp_path, g):
        # Only the handle child survives at each step, so the chain of
        # rewrites is g deep: beyond the default recursion limit. At g=1300
        # the denominator has 4,660 digits, more than str() of an int gives
        # by default. The second run reads the value from the memo file.
        argv = ("w", "--g", str(g), "--lambda", str(g), "--weights", "2")
        expected = f"1/{Decimal(8**g * math.factorial(g))}\n"
        for _ in range(2):
            code, out, _ = run(capsys, *argv, "--cache", str(tmp_path / "memo.tsv"))
            assert code == 0 and out == expected

    def test_deepest_cycle_value(self, capsys):
        # All 3,000 steps are of the partition (2,): its transitions are
        # built once and shifted onto 3,000 layers.
        argv = ("w", "--g", "3000", "--lambda", "3000", "--weights", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == f"1/{Decimal(8**3000 * math.factorial(3000))}\n"

    def test_decimal_flag(self, capsys):
        # The four value commands, all printed at the one site in main.
        for command, expected in [
            ("bernoulli --m 4 --decimal 8", "~-0.033333333\n"),
            ("integral --g 1 --lambda 1 --decimal 6", "~0.0416667\n"),
            ("w --g 2 --lambda 1 --weights 1,1,1 --decimal 5", "~0.0083333\n"),
            ("trees sum --g 2 --n 3 --decimal 5", "~0.0055556\n"),
        ]:
            code, out, _ = run(capsys, *command.split())
            assert code == 0 and out == expected, command


class TestTrees:
    def test_sum(self, capsys):
        code, out, _ = run(capsys, "trees", "sum", "--g", "2", "--n", "3")
        assert code == 0 and out == "1/180\n"

    def test_enumerate_empty(self, capsys):
        code, out, _ = run(capsys, "trees", "enumerate", "--g", "2", "--n", "1")
        assert code == 0 and out == "count 0\n"

    def test_enumerate_text(self, capsys):
        code, out, _ = run(capsys, "trees", "enumerate", "--g", "1", "--n", "2")
        assert code == 0 and out == "count 1\nU2(B3(L1,L2))\t1/24\n"

    def test_deep_sum_and_listing(self, capsys):
        # 1,000 caps above one join: no depth limit on either the sum or the
        # listing, and the one tree's weight is the top-lambda cycle value.
        argv = ("w", "--g", "1000", "--lambda", "1000", "--weights", "1,1")
        code, value, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, "trees", "sum", "--g", "1000", "--n", "2")
        assert code == 0 and out == value
        encoding = "B2001(L1,L2)"
        for step in range(2000, 0, -2):
            encoding = f"U{step}({encoding})"
        code, out, _ = run(capsys, "trees", "enumerate", "--g", "1000", "--n", "2")
        assert code == 0 and out == f"count 1\n{encoding}\t{value}"

    def test_enumerate_json(self, capsys):
        code, out, _ = run(
            capsys, "trees", "enumerate", "--g", "2", "--n", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["g"] == 2 and payload["n"] == 3
        assert payload["count"] == 9 and payload["sum"] == "1/180"
        encodings = [row["encoding"] for row in payload["trees"]]
        assert encodings == sorted(encodings) and len(encodings) == 9
        assert {row["weight"] for row in payload["trees"]} == {
            "1/810",
            "1/2430",
            "1/4860",
        }


def tree_object_listing(genus, leaves):
    """``trees enumerate`` text and JSON built from tree objects, one by one."""
    listed = enumerate_trees(genus, leaves)
    weights = [tree_weight(t) for t in listed]
    rows = [
        (canonical_encoding(t), format_rational(w)) for t, w in zip(listed, weights)
    ]
    payload = {
        "g": genus,
        "n": leaves,
        "count": len(rows),
        "sum": format_rational(sum(weights, Fraction(0))),
        "trees": [{"encoding": e, "weight": w} for e, w in rows],
    }
    text = f"count {len(rows)}\n" + "".join(f"{e}\t{w}\n" for e, w in rows)
    return text, json.dumps(payload) + "\n"


# Every (g, n) with 2g + n - 1 <= 9 and at most 100,000 trees: the four
# benchmark inputs (0, 7), (1, 6), (2, 5), (3, 4), and (2, 6) among them.
DIFFERENTIAL_CASES = [
    (g, n)
    for g in range(5)
    for n in range(1, 11 - 2 * g)
    if count_trees(g, n) <= 100_000
]


class TestEnumerationAgainstTreeObjects:
    @pytest.mark.parametrize("genus, leaves", DIFFERENTIAL_CASES)
    def test_same_bytes(self, capsys, genus, leaves):
        text, payload = tree_object_listing(genus, leaves)
        argv = ("trees", "enumerate", "--g", str(genus), "--n", str(leaves))
        assert run(capsys, *argv) == (0, text, "")
        assert run(capsys, *argv, "--format", "json") == (0, payload, "")


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestBlockWrites:
    def test_listing_written_in_blocks(self, monkeypatch):
        # An unbuffered stdout makes one system call per write: 18,900 rows
        # take a few block writes, plus the header and the closing line, and
        # blocks this large keep the whole listing to at most 10 writes.
        text, payload = tree_object_listing(1, 6)
        for fmt, expected in (("text", text), ("json", payload)):
            stdout = CountingStdout()
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["trees", "enumerate", "--g", "1", "--n", "6", "--format", fmt])
            monkeypatch.undo()
            assert code == 0 and stdout.getvalue() == expected, fmt
            assert stdout.writes <= math.ceil(18_900 / _BLOCK_ROWS) + 3 <= 10, fmt


def _drop_last(rows):
    return rows[:-1]


def _repeat_first(rows):
    return rows[:1] + rows


def _first_twice(rows):
    # same row count, but one tree listed twice and another missing
    return rows[:1] + rows[:1] + rows[2:]


def _last_pair_repeated(rows):
    # same row count, and only the last adjacent pair out of order
    return rows[:-2] + [rows[-1]] * 2


def _last_weight_negated(rows):
    (e, p, q) = rows[-1]
    return rows[:-1] + [(e, -p, q)]


def _one_weight_negated(rows):
    # same count, encodings and total: w0, w1 become -w0, w1 + 2 w0
    (e0, p0, q0), (e1, p1, q1) = rows[:2]
    return [(e0, -p0, q0), (e1, p1 * q0 + 2 * p0 * q1, q1 * q0)] + rows[2:]


def _one_weight_changed(rows):
    (e0, p0, q0) = rows[0]
    return [(e0, 2 * p0, q0)] + rows[1:]


class TestSelfCheckedEnumeration:
    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_drop_last, "tree listing has 8 rows, expected 9"),
            (_repeat_first, "tree listing has 10 rows, expected 9"),
            (_first_twice, "tree listing is not strictly increasing by encoding"),
            (_last_pair_repeated, "tree listing is not strictly increasing by encoding"),
            (_last_weight_negated, "tree listing has a weight that is not positive"),
            (_one_weight_negated, "tree listing has a weight that is not positive"),
            (_one_weight_changed, "tree weights add up to"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_corrupted_walk_exits_3(self, capsys, monkeypatch, tamper, message, fmt):
        import hodgetrees.cli as cli

        monkeypatch.setattr(
            cli, "weighted_encodings", lambda g, n: tamper(weighted_encodings(g, n))
        )
        argv = ("trees", "enumerate", "--g", "2", "--n", "3", "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith(f"error: internal: {message}")


class TestTable:
    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "table", "--max-g", "2")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "g\ti\tpsi_power\tintegral"
        assert lines[1] == "1\t0\t1\t1/24"
        assert lines[2] == "1\t1\t0\t1/24"
        assert "2\t1\t3\t1/480" in lines
        assert "2\t2\t2\t7/5760" in lines
        assert len(lines) == 6

    def test_genus_limit_refused_before_any_value(self, capsys, monkeypatch):
        import hodgetrees.cli as cli

        asked = []
        monkeypatch.setattr(cli, "hodge_table", lambda max_g: asked.append(max_g) or [])
        limit = cli.TABLE_GENUS_LIMIT
        assert limit >= 16
        header = "g\ti\tpsi_power\tintegral\n"
        assert run(capsys, "table", "--max-g", str(limit)) == (0, header, "")
        code, out, err = run(capsys, "table", "--max-g", str(limit + 1))
        assert (code, out) == (2, "")
        assert err == f"error: --max-g above the table limit of {limit}\n"
        assert asked == [limit]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--max-g", "2", "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert {(r["g"], r["i"]): r["integral"] for r in rows}[(2, 1)] == "1/480"
        assert all(r["psi_power"] == 3 * r["g"] - 2 - r["i"] for r in rows)


class TestVerify:
    def test_all_checks_take_only_given_bounds(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "all", "--max-n", "2", "--format", "json"
        )
        assert code == 0
        assert [(r["check"], r["range"]) for r in json.loads(out)] == [
            ("tree-identity", "g<=3,n<=2"),
            ("bernoulli", "g<=3,n<=2"),
            ("genus0", "n<=2"),
            ("oracle", "g<=6"),
            ("independence", "g<=3,aux=1;2;3;1,1;2,3"),
        ]
        code, out, _ = run(capsys, "verify", "--check", "oracle", "--max-g", "2")
        assert code == 0 and out.startswith("PASS oracle range g<=2 ")

    @pytest.mark.parametrize(
        "check, flag, bound",
        [
            ("genus0", "--max-g", "5"),
            ("oracle", "--max-n", "3"),
            ("independence", "--max-n", "1"),
        ],
    )
    def test_single_check_refuses_a_bound_it_does_not_take(
        self, capsys, check, flag, bound
    ):
        # --check all applies each bound only where it fits (test above).
        code, out, err = run(capsys, "verify", "--check", check, flag, bound)
        assert code == 2 and out == ""
        assert err == f"error: --check {check} takes no {flag}\n"

    @pytest.mark.parametrize("check", ["oracle", "all"])
    def test_genus_limit_refused_before_any_check(self, capsys, monkeypatch, check):
        import hodgetrees.cli as cli
        import hodgetrees.verify as verify

        ran = []

        def passed(**bounds):
            ran.append(bounds)
            return verify.CheckReport("stub", "", True, 1)

        for function, *_ in cli.CHECKS.values():
            monkeypatch.setattr(verify, function, passed)
        limit = cli.TABLE_GENUS_LIMIT
        argv = ("verify", "--check", check, "--max-g")
        code, out, err = run(capsys, *argv, str(limit + 1))
        assert (code, out, ran) == (2, "", [])
        assert err == f"error: --max-g above the table limit of {limit}\n"
        assert run(capsys, *argv, str(limit))[0] == 0
        assert {"max_genus": limit} in ran

    def test_single_check(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "genus0", "--max-n", "9"
        )
        assert code == 0
        assert out.startswith("PASS genus0")

    def test_all_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "all")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--check",
            "oracle",
            "--max-g",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "check": "oracle",
            "range": "g<=3",
            "status": "pass",
            "instances": 9,
        }


@pytest.fixture(scope="module")
def table_8_memo(tmp_path_factory):
    cache = {}
    hodge_table(8, cache)
    path = tmp_path_factory.mktemp("memo") / "memo.tsv"
    save_cache(cache, path)
    return path.read_text(encoding="ascii")


class TestMemoAudit:
    def audit(self, capsys, tmp_path, text, *extra):
        path = tmp_path / "memo.tsv"
        path.write_text(text, encoding="ascii")
        return run(capsys, "verify", "--check", "memo", "--cache", str(path), *extra)

    def test_table_memo_passes(self, capsys, tmp_path, table_8_memo):
        code, out, _ = self.audit(capsys, tmp_path, table_8_memo)
        path = tmp_path / "memo.tsv"
        assert code == 0 and out == f"PASS memo range cache={path} instances=4311\n"

    def test_cut_value_is_the_entry_named(self, capsys, tmp_path, table_8_memo):
        assert table_8_memo.count("\t91/5760\n") == 1
        text = table_8_memo.replace("\t91/5760\n", "\t91/576\n")
        code, out, _ = self.audit(capsys, tmp_path, text, "--format", "json")
        assert code == 1
        assert json.loads(out)["counterexample"] == {
            "params": "g=2,lambda=0,weights=[1,1,2]",
            "lhs": "91/576",
            "rhs": "91/5760",
        }

    def test_missing_child_fails(self, capsys, tmp_path, table_8_memo):
        lines = table_8_memo.splitlines(keepends=True)
        child = "1\t1\t1,1,2\t"
        text = "".join(line for line in lines if not line.startswith(child))
        code, out, _ = self.audit(capsys, tmp_path, text)
        assert code == 1
        assert out.startswith("FAIL memo range cache=")
        assert out.endswith(
            " counterexample g=1,lambda=1,weights=[1,1,1,1]: lhs=1/8"
            " rhs=missing child g=1,lambda=1,weights=[1,1,2]\n"
        )

    @pytest.mark.parametrize(
        "line, rhs",
        [
            ("1\t1\t3\t1/2\n", "1/3"),  # a seed against its closed form
            ("1\t2\t3\t1/2\n", "0"),  # vanishes, so evaluation never stores it
        ],
    )
    def test_entries_without_children(self, capsys, tmp_path, line, rhs):
        genus, lam, weights, lhs = line.split()
        key = canonical_key(int(genus), int(lam), tuple(map(int, weights.split(","))))
        assert step_value(key, {}) == Fraction(rhs)  # reads no child
        code, out, err = self.audit(capsys, tmp_path, line)
        if key.lam <= key.genus:
            assert code == 1 and out.endswith(f"lhs={lhs} rhs={rhs}\n")
        else:  # the load refuses it before the audit compares it with 0
            path = tmp_path / "memo.tsv"
            assert code == 2 and out == ""
            assert err.startswith(f"error: {path}:1: lambda {lam} outside 0..{genus}")

    @pytest.mark.parametrize(
        "line, reason",
        [("0\t0\t5\t1\n", "undefined integrand exponent -1")],
    )
    def test_entries_no_evaluation_writes_are_refused(
        self, capsys, tmp_path, line, reason
    ):
        code, out, err = self.audit(capsys, tmp_path, line)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {tmp_path / 'memo.tsv'}:1: {reason}")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--check", "memo"),
            ("--check", "memo", "--cache", "m.txt", "--max-g", "3"),
            ("--check", "oracle", "--cache", "m.txt"),
        ],
    )
    def test_cache_goes_with_memo_only(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_empty_memo_is_refused(self, capsys, tmp_path):
        # an empty memo compares nothing, so it cannot pass the audit
        code, out, err = self.audit(capsys, tmp_path, "")
        assert code == 2 and out == ""
        assert err == f"error: memo range cache={tmp_path / 'memo.tsv'} has no instances to compare\n"

    def test_unreadable_file_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = self.audit(capsys, tmp_path, "not a cache line\n")
        assert code == 2 and out == "" and err.startswith("error: ")


class TestDeterminismAndCache:
    def test_identical_runs_identical_bytes(self, capsys):
        first = run(capsys, "trees", "enumerate", "--g", "2", "--n", "3")
        second = run(capsys, "trees", "enumerate", "--g", "2", "--n", "3")
        assert first == second

    def test_cache_round_trip(self, capsys, tmp_path):
        path = tmp_path / "memo.tsv"
        code, out, _ = run(
            capsys, "integral", "--g", "2", "--lambda", "1", "--cache", str(path)
        )
        assert code == 0 and out == "1/480\n"
        snapshot = path.read_text()
        cache = load_cache(path)
        assert cache[canonical_key(2, 1, (1, 1))].denominator == 480
        code, out, _ = run(
            capsys, "integral", "--g", "2", "--lambda", "1", "--cache", str(path)
        )
        assert code == 0 and out == "1/480\n"
        assert path.read_text() == snapshot
        assert load_cache(path) == cache

    # Set on a cache file before a command: a rewrite would give a new mtime.
    OLD_MTIME_NS = 1_000_000_000_000_000_000

    def aged(self, path):
        os.utime(path, ns=(self.OLD_MTIME_NS, self.OLD_MTIME_NS))
        return path.read_bytes()

    def test_hit_leaves_file_untouched(self, capsys, tmp_path):
        path = tmp_path / "memo.tsv"
        run(capsys, "integral", "--g", "3", "--lambda", "1", "--cache", str(path))
        before = self.aged(path)
        for argv in (
            ("integral", "--g", "3", "--lambda", "1"),
            ("w", "--g", "2", "--lambda", "1", "--weights", "1,1,1"),
        ):
            code, out, _ = run(capsys, *argv, "--cache", str(path))
            assert code == 0 and out
            assert path.read_bytes() == before
            assert path.stat().st_mtime_ns == self.OLD_MTIME_NS

    def test_miss_rewrites_with_added_keys(self, capsys, tmp_path):
        path = tmp_path / "memo.tsv"
        run(capsys, "integral", "--g", "2", "--lambda", "1", "--cache", str(path))
        self.aged(path)
        old = load_cache(path)
        code, out, _ = run(
            capsys, "integral", "--g", "2", "--lambda", "1", "--weights", "9",
            "--cache", str(path),
        )
        assert code == 0 and out == "1/480\n"
        assert path.stat().st_mtime_ns != self.OLD_MTIME_NS
        new = load_cache(path)
        added = canonical_key(2, 1, (1, 9))
        assert added in new and added not in old
        assert {key: new[key] for key in old} == old

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("integral", "--g", "2", "--lambda", "1"), "1/480\n"),
            (("w", "--g", "1", "--lambda", "2", "--weights", "2"), "0\n"),
        ],
    )
    def test_missing_file_is_created(self, capsys, tmp_path, argv, expected):
        path = tmp_path / "memo.tsv"
        code, out, _ = run(capsys, *argv, "--cache", str(path))
        assert code == 0 and out == expected
        assert path.exists()
        if out == "0\n":  # a vanishing value adds no state: an empty memo
            assert path.read_bytes() == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ("integral", "--g", "1", "--lambda", "2"),
            ("w", "--g", "0", "--lambda", "0", "--weights", "3"),
        ],
    )
    def test_failed_query_writes_nothing(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing.tsv"
        code, _, err = run(capsys, *argv, "--cache", str(missing))
        assert code == 2 and err.startswith("error: ")
        assert not missing.exists()
        path = tmp_path / "memo.tsv"
        run(capsys, "integral", "--g", "1", "--lambda", "1", "--cache", str(path))
        before = self.aged(path)
        code, _, _ = run(capsys, *argv, "--cache", str(path))
        assert code == 2
        assert path.read_bytes() == before
        assert path.stat().st_mtime_ns == self.OLD_MTIME_NS
        assert os.listdir(tmp_path) == ["memo.tsv"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("integral", "--g", "2", "--lambda", "1"),
            ("w", "--g", "2", "--lambda", "1", "--weights", "1,1,1"),
        ],
    )
    def test_empty_cache_name_is_refused(self, capsys, tmp_path, monkeypatch, argv):
        # refused before any value is computed, not taken as "no cache"
        import hodgetrees.cli as cli

        def computed(*args):
            raise AssertionError("computed before refusing --cache ''")

        monkeypatch.setattr(cli, "hodge_integral", computed)
        monkeypatch.setattr(cli, "cycle_value", computed)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--cache", "")
        assert (code, out) == (2, "")
        assert err == "error: --cache needs a file name, not ''\n"
        assert os.listdir(tmp_path) == []

    def test_corrupt_cache_rejected(self, capsys, tmp_path):
        path = tmp_path / "memo.tsv"
        path.write_text("not a cache line\n")
        code, out, err = run(
            capsys, "w", "--g", "1", "--lambda", "1", "--weights", "2",
            "--cache", str(path),
        )
        assert code == 2 and out == "" and "error:" in err

    def test_entry_no_evaluation_writes_is_refused(self, capsys, tmp_path):
        # Without the file this query is undefined (exit 2); the entry must
        # not turn it into a value.
        path = tmp_path / "memo.tsv"
        path.write_text("0\t0\t5\t7\n")
        code, out, err = run(
            capsys, "w", "--g", "0", "--lambda", "0", "--weights", "5",
            "--cache", str(path),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}:1: undefined integrand exponent")

    def test_non_ascii_byte_is_refused_with_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1\t1\t3\t1/3\n\xc3\xa9\n")
        before = path.read_bytes()
        code, out, err = run(
            capsys, "w", "--g", "1", "--lambda", "1", "--weights", "3",
            "--cache", str(path),
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: {path}:2: 'ascii' codec can't decode byte 0xc3 in position 0:"
            " ordinal not in range(128)\n"
        )
        assert path.read_bytes() == before

    def test_non_canonical_key_field_is_refused(self, capsys, tmp_path):
        # int() reads "+1", " 1" and "0_3" as 1, 1 and 3: a seed's key.
        path = tmp_path / "odd.txt"
        path.write_text("+1\t 1\t0_3\t1/3\n")
        code, out, err = run(
            capsys, "w", "--g", "1", "--lambda", "1", "--weights", "3",
            "--cache", str(path),
        )
        assert code == 2 and out == ""
        assert err == f"error: {path}:1: key fields must be canonical decimal integers\n"

    def test_table_memo_still_loads(self, capsys, tmp_path, table_8_memo):
        path = tmp_path / "memo.tsv"
        path.write_text(table_8_memo, encoding="ascii")
        code, out, _ = run(
            capsys, "integral", "--g", "8", "--lambda", "3", "--cache", str(path)
        )
        assert code == 0 and out == f"{format_rational(hodge_integral(8, 3))}\n"
        assert path.read_text(encoding="ascii") == table_8_memo


HITS = [
    ("integral", "--g", "3", "--lambda", "1"),
    ("w", "--g", "2", "--lambda", "1", "--weights", "1,1,1"),
]


class TestKeyedLoad:
    """A hit builds only the entries it reads, and still checks every line."""

    def memo(self, capsys, tmp_path):
        """A memo written by ``integral --g 3 --lambda 1``; every HITS key is in it."""
        path = tmp_path / "memo.tsv"
        assert run(capsys, *HITS[0], "--cache", str(path)) == (0, "7/138240\n", "")
        keys = {*integral_keys(3, 1), canonical_key(2, 1, (1, 1, 1))}
        assert keys <= load_cache(path).keys()
        return path

    @staticmethod
    def record_loads(monkeypatch):
        """A copy of the memo each ``load_cache`` call of the CLI returns."""
        import hodgetrees.cli as cli

        loaded = []

        def recorded(*args):
            memo = load_cache(*args)
            loaded.append(dict(memo))  # as loaded, before the query adds to it
            return memo

        monkeypatch.setattr(cli, "load_cache", recorded)
        return loaded

    @pytest.mark.parametrize(
        "argv, reads",
        [
            (HITS[0], integral_keys(3, 1)),
            (HITS[1], [canonical_key(2, 1, (1, 1, 1))]),
            (("w", "--g", "2", "--lambda", "3", "--weights", "1,1,1"), []),
        ],
    )
    def test_hit_builds_only_its_own_entries(
        self, capsys, tmp_path, monkeypatch, argv, reads
    ):
        path = self.memo(capsys, tmp_path)
        before = path.read_bytes()
        loaded = self.record_loads(monkeypatch)
        code, out, _ = run(capsys, *argv, "--cache", str(path))
        assert code == 0 and out
        assert loaded == [{key: load_cache(path)[key] for key in reads}]
        assert path.read_bytes() == before

    def test_miss_loads_every_entry(self, capsys, tmp_path, monkeypatch):
        path = self.memo(capsys, tmp_path)
        full = load_cache(path)
        loaded = self.record_loads(monkeypatch)
        argv = ("integral", "--g", "3", "--lambda", "1", "--weights", "9")
        code, _, _ = run(capsys, *argv, "--cache", str(path))
        assert code == 0
        assert loaded == [full] and len(load_cache(path)) > len(full)

    @pytest.mark.parametrize("argv", HITS)
    @pytest.mark.parametrize(
        "line, message",
        [
            (b"1\t1\t1,2", "expected 4 tab-separated fields"),
            (b"+1\t1\t3\t1/3", "key fields must be canonical decimal integers"),
            (
                b"1\t1\t3\t\xc3\xa9",
                "'ascii' codec can't decode byte 0xc3 in position 6:"
                " ordinal not in range(128)",
            ),
            (b"1\t1\t3\t1/1", "rational not in lowest terms: '1/1'"),
            (b"1\t1\t3\t2/4", "rational not in lowest terms: '2/4'"),
            (b"1\t2\t3\t1/2", "lambda 2 outside 0..1"),
            (b"1\t1\t2,1\t1/6", "weights are not sorted"),
            (
                b"0\t0\t5\t7",
                "undefined integrand exponent -1 for CycleKey(genus=0, lam=0,"
                " weights=(5,))",
            ),
            (b"1\t1\t1,1\t7", "conflicting duplicate entry"),
        ],
    )
    def test_every_refusal_fires_on_a_hit(
        self, capsys, tmp_path, argv, line, message
    ):
        path = self.memo(capsys, tmp_path)
        assert b"\n1\t1\t1,1\t1/24\n" in path.read_bytes()  # what the duplicate conflicts with
        with open(path, "ab") as handle:
            handle.write(line + b"\n")
        before = path.read_bytes()
        lineno = before.count(b"\n")
        code, out, err = run(capsys, *argv, "--cache", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{lineno}: {message}\n"
        assert path.read_bytes() == before

    def test_a_header_less_memo_gets_its_header_from_its_first_hit(
        self, capsys, tmp_path, monkeypatch, table_8_memo
    ):
        saved = table_8_memo.encode("ascii")
        path = tmp_path / "memo.tsv"
        path.write_bytes(saved.split(b"\n", 1)[1])
        argv = ("integral", "--g", "8", "--lambda", "3", "--cache", str(path))
        expected = (0, f"{format_rational(hodge_integral(8, 3))}\n", "")
        loaded = self.record_loads(monkeypatch)
        assert run(capsys, *argv) == expected
        assert path.read_bytes() == saved  # save_cache's own bytes, header and all
        assert run(capsys, *argv) == expected
        full = load_cache(path)
        assert loaded == [full, {key: full[key] for key in integral_keys(8, 3)}]
        assert path.read_bytes() == saved

    def test_a_vanishing_query_writes_the_header(self, capsys, tmp_path):
        path = self.memo(capsys, tmp_path)
        saved = path.read_bytes()
        path.write_bytes(saved.split(b"\n", 1)[1])
        argv = ("w", "--g", "2", "--lambda", "3", "--weights", "1,1,1")
        assert run(capsys, *argv, "--cache", str(path)) == (0, "0\n", "")
        assert path.read_bytes() == saved

    def test_a_stale_header_over_an_edit_that_loads_is_refused(
        self, capsys, tmp_path
    ):
        path = self.memo(capsys, tmp_path)
        header, body = path.read_bytes().split(b"\n", 1)
        edited = body.replace(b"\n1\t1\t1,1\t1/24\n", b"\n1\t1\t1,1\t1/25\n")
        assert edited != body
        path.write_bytes(header + b"\n" + edited)
        code, out, err = run(capsys, *HITS[0], "--cache", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:1: header does not match the body\n"
        assert path.read_bytes() == header + b"\n" + edited

    def test_a_stale_header_leaves_keyless_reads_to_the_audit(self, capsys, tmp_path):
        path = tmp_path / "memo.tsv"
        run(capsys, "integral", "--g", "3", "--lambda", "1", "--cache", str(path))
        memo = load_cache(path)
        edited = path.read_bytes().replace(b"\t91/5760\n", b"\t91/576\n")
        assert edited.count(b"\t91/576\n") == 1
        path.write_bytes(edited)
        code, out, err = run(
            capsys, "w", "--g", "2", "--lambda", "0", "--weights", "1,1,2",
            "--cache", str(path),
        )
        assert (code, out) == (2, "")
        assert err == f"error: {path}:1: header does not match the body\n"
        assert path.read_bytes() == edited
        memo[canonical_key(2, 0, (1, 1, 2))] = Fraction(91, 576)
        assert load_cache(path) == memo  # keyless: every entry, the wrong one too
        code, out, _ = run(capsys, "verify", "--check", "memo", "--cache", str(path))
        assert code == 1
        assert out == (
            f"FAIL memo range cache={path} counterexample g=2,lambda=0,"
            "weights=[1,1,2]: lhs=91/576 rhs=91/5760\n"
        )

    def test_a_header_less_memo_of_just_the_query_gets_its_header(
        self, capsys, tmp_path
    ):
        path = tmp_path / "memo.tsv"
        path.write_bytes(b"1\t1\t3\t1/3\n")
        saved = tmp_path / "saved.tsv"
        save_cache({canonical_key(1, 1, (3,)): Fraction(1, 3)}, saved)
        argv = ("w", "--g", "1", "--lambda", "1", "--weights", "3")
        argv += ("--cache", str(path))
        assert run(capsys, *argv) == (0, "1/3\n", "")
        assert path.read_bytes() == saved.read_bytes()
        assert path.read_bytes().startswith(b"#hodgetrees-memo/1 entries=1 ")
        assert type(load_cache(path, [canonical_key(1, 1, (3,))])) is MappingProxyType
        mtime = 1_000_000_000_000_000_000
        os.utime(path, ns=(mtime, mtime))
        assert run(capsys, *argv) == (0, "1/3\n", "")
        assert path.read_bytes() == saved.read_bytes()
        assert path.stat().st_mtime_ns == mtime

    def test_a_header_less_memo_that_cannot_be_written_exits_2(
        self, capsys, tmp_path, monkeypatch
    ):
        path = self.memo(capsys, tmp_path)
        body = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(body)

        def refused(*args):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refused)
        code, out, err = run(capsys, *HITS[0], "--cache", str(path))
        assert (code, out) == (2, "")
        assert err == "error: [Errno 13] Permission denied\n"
        assert path.read_bytes() == body
        assert os.listdir(tmp_path) == ["memo.tsv"]

    def test_subset_memo_is_never_saved(self, capsys, tmp_path, monkeypatch):
        import hodgetrees.cli as cli

        path = self.memo(capsys, tmp_path)
        before = path.read_bytes()
        monkeypatch.setattr(
            cli, "integral_keys", lambda *args: integral_keys(*args)[:-1]
        )
        code, out, err = run(capsys, *HITS[0], "--cache", str(path))
        assert (code, out) == (3, "")
        # the read-only mapping's own error, before any write
        refusal = "'mappingproxy' object has no attribute 'setdefault'"
        assert err == f"error: internal: {refusal}\n"
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["memo.tsv"]


class TestImportsStayLazy:
    @staticmethod
    def new_modules(code, watched):
        """Which ``watched`` modules ``code`` imports, in a fresh interpreter."""
        src = os.path.dirname(os.path.dirname(hodgetrees.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        probe = (
            f"import sys; before = set(sys.modules); {code};"
            f" print(sorted(({set(watched)!r} & set(sys.modules)) - before),"
            " file=sys.stderr)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        return result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["integral", "--g", "2", "--lambda", "1"],
            ["w", "--g", "2", "--lambda", "1", "--weights", "1,1,1"],
            ["trees", "enumerate", "--g", "1", "--n", "3"],
            ["table", "--max-g", "3"],
        ],
    )
    def test_commands_skip_verify_oracle_and_json(self, argv):
        code = f"from hodgetrees.cli import main; main({argv!r})"
        watched = "hodgetrees.verify", "hodgetrees.oracle", "json"
        assert self.new_modules(code, watched) == "[]\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["integral", "--g", "2", "--lambda", "1"],
            ["w", "--g", "2", "--lambda", "1", "--weights", "1,1,1"],
            ["table", "--max-g", "3"],
        ],
    )
    def test_value_commands_skip_the_tree_pipeline(self, argv, tmp_path):
        runs = [argv]
        if argv[0] != "table":  # a miss writes the memo, then a hit reads it
            runs += [[*argv, "--cache", str(tmp_path / "memo.tsv")]] * 2
        for args in runs:
            code = f"from hodgetrees.cli import main; main({args!r})"
            assert self.new_modules(code, ["hodgetrees.trees"]) == "[]\n", args

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("trees enumerate --g 3 --n 4 --format json", None),
            ("trees enumerate --g 2 --n 3 --format json", None),
            ("trees sum --g 2 --n 3", hashlib.sha256(b"1/180\n").hexdigest()),
        ],
    )
    def test_tree_commands_print_their_golden_bytes(self, argv, digest):
        golden = json.loads((ROOT / "bench" / "golden.json").read_text())
        result = subprocess.run(
            [sys.executable, "-m", "hodgetrees", *argv.split()],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            check=True,
        )
        assert hashlib.sha256(result.stdout).hexdigest() == (digest or golden[argv])

    def test_every_name_the_tracer_wraps_here_resolves_before_a_command(self):
        names = [
            "canonical_encoding",
            "cycle_value",
            "enumerate_trees",
            "format_rational",
            "hodge_integral",
            "load_cache",
            "save_cache",
            "tree_sum",
            "tree_weight",
        ]
        probe = "\n".join(
            [
                "import sys",
                "import hodgetrees.cli as cli",
                f"resolved = [getattr(cli, name) for name in {names!r}]",
                f"sys.path.insert(0, {str(ROOT / 'bench')!r})",
                "import tracer",
                "before = dict(vars(cli))",
                "tracer.install(tracer.Tracer(), tracer)",
                "after = vars(cli).items()",
                "print(sorted(n for n, v in after if before.get(n) is not v))",
            ]
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout == f"{names}\n"

    def test_tree_commands_call_a_tree_sum_bound_before_them(self, capsys, monkeypatch):
        import hodgetrees.cli as cli

        for name in cli._TREE_NAMES:  # unbound, as before the first tree command
            monkeypatch.delitem(vars(cli), name, raising=False)
        calls = []

        def spy(genus, leaves):
            calls.append((genus, leaves))
            return tree_sum(genus, leaves)

        monkeypatch.setattr(cli, "tree_sum", spy)
        assert run(capsys, "trees", "sum", "--g", "2", "--n", "3") == (0, "1/180\n", "")
        code, out, _ = run(capsys, "trees", "enumerate", "--g", "2", "--n", "3")
        assert code == 0 and out.startswith("count ")
        assert calls == [(2, 3), (2, 3)]
        assert cli.tree_sum is spy

    def test_oracle_imports_no_other_pipeline(self):
        watched = "hodgetrees.cutjoin", "hodgetrees.hodge", "hodgetrees.trees"
        assert self.new_modules("import hodgetrees.oracle", watched) == "[]\n"

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from hodgetrees import *", namespace)
        assert set(hodgetrees.__all__) <= namespace.keys()
        assert namespace["cycle_value"] is cycle_value
        assert namespace["tree_sum"] is tree_sum
        with pytest.raises(AttributeError, match="has no attribute 'verify_all'"):
            hodgetrees.verify_all


class TestErrorPaths:
    def test_oversized_enumeration_refused(self, capsys, monkeypatch):
        import hodgetrees.cli as cli
        import hodgetrees.trees as trees

        def no_enumeration(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(cli, "enumerate_trees", no_enumeration)
        monkeypatch.setattr(cli, "weighted_encodings", no_enumeration)
        monkeypatch.setattr(trees, "iter_encoded_trees", no_enumeration)
        code, out, err = run(capsys, "trees", "enumerate", "--g", "0", "--n", "12")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "enumeration limit" in err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        import hodgetrees.cli as cli

        def rebound(*args):
            raise RuntimeError("memo cache rebound")

        monkeypatch.setattr(cli, "cycle_value", rebound)
        code, out, err = run(capsys, "w", "--g", "1", "--lambda", "1", "--weights", "2")
        assert code == 3 and out == ""
        assert err == "error: internal: memo cache rebound\n"

    @pytest.mark.parametrize(
        "error", [AssertionError, KeyError, MemoryError, ZeroDivisionError]
    )
    def test_other_internal_errors_exit_3(self, capsys, monkeypatch, error):
        import hodgetrees.cli as cli

        def failing(*args):
            raise error("memo cache rebound")

        monkeypatch.setattr(cli, "cycle_value", failing)
        code, out, err = run(capsys, "w", "--g", "1", "--lambda", "1", "--weights", "2")
        assert code == 3 and out == ""
        assert err.startswith("error: internal:")

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_malformed_weights(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["w", "--g", "1", "--lambda", "1", "--weights", "0,2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, phrase",
        [
            (("integral", "--g", "abc", "--lambda", "1"), "positive"),
            (("w", "--g", "two", "--lambda", "0", "--weights", "1"), "nonnegative"),
            (("trees", "sum", "--g", "1", "--n", "x"), "positive"),
            (("bernoulli", "--m", "1.5"), "nonnegative"),
            (("table", "--max-g", ""), "positive"),
            (("bernoulli", "--m", "4", "--decimal", "ten"), "positive"),
        ],
        ids=["integral-g", "w-g", "n", "m", "max-g", "decimal"],
    )
    def test_non_integer_argument(self, capsys, argv, phrase):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert f"expected a {phrase} integer" in err
        assert "_positive" not in err and "_nonnegative" not in err

    def test_signed_integer_argument(self, capsys):
        code, out, _ = run(capsys, "integral", "--g", "+2", "--lambda", "1")
        assert code == 0 and out == "1/480\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("w", "--g", "2", "--lambda", "1", "--weights", "1_1"),
                "malformed weight list: '1_1'",
            ),
            (
                ("w", "--g", "1", "--lambda", "1", "--weights", " 3"),
                "malformed weight list: ' 3'",
            ),
            (
                ("w", "--g", "3", "--lambda", "1", "--weights", "1,02"),
                "malformed weight list: '1,02'",
            ),
            (
                ("w", "--g", "1", "--lambda", "-0", "--weights", "3"),
                "invalid int value: '-0'",
            ),
            (("integral", "--g", "2", "--lambda", "+-1"), "invalid int value: '+-1'"),
            (("integral", "--g", "2", "--lambda", "1 "), "invalid int value: '1 '"),
            (
                ("integral", "--g", "0_2", "--lambda", "1"),
                "expected a positive integer",
            ),
            (("integral", "--g", "02", "--lambda", "1"), "expected a positive integer"),
            (
                ("w", "--g", "+0", "--lambda", "0", "--weights", "1,1"),
                "expected a nonnegative integer",
            ),
            (("bernoulli", "--m", "-0"), "expected a nonnegative integer"),
            (("trees", "sum", "--g", "1", "--n", "\t2"), "expected a positive integer"),
        ],
        ids=[
            "weights-underscore",
            "weights-space",
            "weights-leading-zero",
            "lambda-minus-zero",
            "lambda-two-signs",
            "lambda-space",
            "g-underscore",
            "g-leading-zero",
            "g-plus-zero",
            "m-minus-zero",
            "n-tab",
        ],
    )
    def test_only_canonical_integers(self, capsys, argv, message):
        # int() takes each of these; the memo file refuses such key fields.
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f": {message}\n")

    def test_out_of_range_lambda(self, capsys):
        code, _, err = run(capsys, "integral", "--g", "1", "--lambda", "2")
        assert code == 2 and "error:" in err

    def test_undefined_exponent(self, capsys):
        code, _, err = run(
            capsys, "w", "--g", "0", "--lambda", "0", "--weights", "3"
        )
        assert code == 2 and "undefined integrand exponent" in err

    def test_genus_zero_integral_rejected(self, capsys):
        # --g is validated at parse time for the integral subcommand
        with pytest.raises(SystemExit) as excinfo:
            main(["integral", "--g", "0", "--lambda", "0"])
        assert excinfo.value.code == 2


# --help of every parser, at 80 columns, as argparse in Python 3.11 prints it.
HELP_PAGES = {
    "": """\
usage: hodgetrees [-h] {integral,w,trees,table,bernoulli,verify} ...

Exact one-point Hodge integral calculator

positional arguments:
  {integral,w,trees,table,bernoulli,verify}
    integral            integral of psi^(3g-2-i) lambda_i at genus g
    w                   cycle value for a genus, lambda index and weight list
    trees               decorated tree enumeration and sums
    table               all integrals up to a genus bound
    bernoulli           Bernoulli number B_m
    verify              run exact consistency checks

options:
  -h, --help            show this help message and exit
""",
    "integral": """\
usage: hodgetrees integral [-h] --g G --lambda LAM [--weights WEIGHTS]
                           [--cache CACHE] [--decimal DECIMAL]

options:
  -h, --help         show this help message and exit
  --g G
  --lambda LAM
  --weights WEIGHTS
  --cache CACHE
  --decimal DECIMAL
""",
    "w": """\
usage: hodgetrees w [-h] --g G --lambda LAM --weights WEIGHTS [--cache CACHE]
                    [--decimal DECIMAL]

options:
  -h, --help         show this help message and exit
  --g G
  --lambda LAM
  --weights WEIGHTS
  --cache CACHE
  --decimal DECIMAL
""",
    "trees": """\
usage: hodgetrees trees [-h] {enumerate,sum} ...

positional arguments:
  {enumerate,sum}
    enumerate      list trees with weights
    sum            sum of tree weights

options:
  -h, --help       show this help message and exit
""",
    "trees enumerate": """\
usage: hodgetrees trees enumerate [-h] --g G --n N [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --g G
  --n N
  --format {text,json}
""",
    "trees sum": """\
usage: hodgetrees trees sum [-h] --g G --n N [--decimal DECIMAL]

options:
  -h, --help         show this help message and exit
  --g G
  --n N
  --decimal DECIMAL
""",
    "table": """\
usage: hodgetrees table [-h] --max-g MAX_G [--format {tsv,json}]

options:
  -h, --help           show this help message and exit
  --max-g MAX_G
  --format {tsv,json}
""",
    "bernoulli": """\
usage: hodgetrees bernoulli [-h] --m M [--decimal DECIMAL]

options:
  -h, --help         show this help message and exit
  --m M
  --decimal DECIMAL
""",
    "verify": """\
usage: hodgetrees verify [-h] --check
                         {tree-identity,bernoulli,genus0,oracle,independence,all,memo}
                         [--max-g MAX_G] [--max-n MAX_N] [--cache CACHE]
                         [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --check {tree-identity,bernoulli,genus0,oracle,independence,all,memo}
  --max-g MAX_G
  --max-n MAX_N
  --cache CACHE
  --format {text,json}
""",
}


class TestHelp:
    @pytest.mark.parametrize("command", HELP_PAGES)
    def test_help_bytes(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        with pytest.raises(SystemExit) as excinfo:
            main([*command.split(), "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr() == (HELP_PAGES[command], "")
