import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hodgetrees
import hodgetrees.cli as cli
import hodgetrees.verify as verify
from hodgetrees.oracle import gf_expand
from hodgetrees.verify import (
    CheckReport,
    check_bernoulli_identity,
    check_choice_independence,
    check_genus0,
    check_oracle_agreement,
    check_tree_identity,
)


class TestChecksPass:
    def test_tree_identity(self):
        report = check_tree_identity(3, 5)
        assert report.passed
        assert report.instances == 19  # 4*5 pairs minus the undefined (0, 1)

    def test_bernoulli(self):
        report = check_bernoulli_identity(3, 3)
        assert report.passed
        assert report.instances == 9

    def test_genus0(self):
        assert check_genus0(9).passed

    def test_oracle(self):
        report = check_oracle_agreement(6)
        assert report.passed
        assert report.instances == 27

    def test_independence(self):
        report = check_choice_independence(3)
        assert report.passed
        assert report.instances == 36

    @pytest.mark.parametrize(
        "check, args",
        [
            (check_choice_independence, (0,)),
            (check_bernoulli_identity, (0, 3)),
            (check_bernoulli_identity, (3, 0)),
            (check_genus0, (0,)),
            (check_tree_identity, (0, 1)),  # (0, 1) is skipped, nothing is left
            (check_tree_identity, (3, 0)),
        ],
    )
    def test_empty_range_is_refused(self, check, args):
        with pytest.raises(ValueError, match="has no instances to compare"):
            check(*args)


class TestFailureReporting:
    def test_first_counterexample_is_reported(self, monkeypatch):
        genuine = verify.tree_sum

        def corrupted(genus, leaves):
            value = genuine(genus, leaves)
            if (genus, leaves) in {(1, 3), (2, 2)}:
                return value + 1
            return value

        monkeypatch.setattr(verify, "tree_sum", corrupted)
        report = check_tree_identity(3, 5)
        assert not report.passed
        # (1, 3) precedes (2, 2) in the scan order
        assert report.counterexample["params"] == "g=1,n=3"
        assert report.counterexample["lhs"] == "13/12"
        assert report.counterexample["rhs"] == "1/12"

    def test_genus0_counterexample(self, monkeypatch):
        monkeypatch.setattr(verify, "tree_sum", lambda g, n: Fraction(n))
        report = check_genus0(5)
        assert not report.passed
        assert report.counterexample == {"params": "n=2", "lhs": "2", "rhs": "1"}


class TestRendering:
    def test_pass_text_and_json(self):
        report = CheckReport("genus0", "n<=9", True, 9)
        assert report.render_text() == "PASS genus0 range n<=9 instances=9"
        assert report.to_json_obj() == {
            "check": "genus0",
            "range": "n<=9",
            "status": "pass",
            "instances": 9,
        }

    def test_fail_text_and_json(self):
        report = CheckReport(
            "oracle",
            "g<=6",
            False,
            4,
            {"params": "g=2,i=1", "lhs": "1/480", "rhs": "1/481"},
        )
        text = report.render_text()
        assert text.startswith("FAIL oracle range g<=6")
        assert "g=2,i=1" in text and "1/480" in text and "1/481" in text
        obj = report.to_json_obj()
        assert obj["status"] == "fail" and obj["instances"] == 4
        assert obj["counterexample"]["rhs"] == "1/481"
        json.dumps(obj)  # serializable

    def test_reports_are_immutable(self):
        report = CheckReport("genus0", "n<=9", True, 9)
        with pytest.raises(AttributeError):
            report.passed = False
        with pytest.raises(AttributeError):
            gf_expand(2).rows = ()


def test_package_import_skips_dataclasses():
    # dataclasses imports inspect, a large share of the package's import
    # time, which every command pays; the records are NamedTuples instead.
    src = str(Path(hodgetrees.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    probe = (
        "import sys, hodgetrees.cli;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


def test_readme_default_ranges_match_signatures():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    # The table is kept by hand; the defaults live in the check signatures.
    row = re.compile(r"^\| `([a-z0-9-]+)` +\|[^|]*\|([^|]*)\|$", re.M)
    rows = row.findall(readme.read_text(encoding="utf-8"))
    table = {name: cell.strip() for name, cell in rows}
    assert table.pop("all") == ""
    assert list(table) == list(cli.CHECKS)
    for name, (function, genus_param, leaf_param) in cli.CHECKS.items():
        defaults = inspect.signature(getattr(verify, function)).parameters
        expected = ", ".join(
            f"{letter} <= {defaults[param].default}"
            for letter, param in (("g", genus_param), ("n", leaf_param))
            if param
        )
        assert table[name] == expected, name


def test_readme_library_block_runs_on_the_package_api():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    library = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    imported = re.search(r"from hodgetrees import \(([^)]*)\)", block).group(1)
    names = [name.strip() for name in imported.split(",") if name.strip()]
    assert hodgetrees.__all__ == names + ["__version__"]
