"""Workloads, reference checks and metric aggregation of the hodgetrees benchmark.

Every repeat of a workload runs its commands in fresh interpreters, as a
user of the ``hodgetrees`` command does, so module-level tables such as
the Bernoulli cache start empty each time. Each printed output is checked
against references built in set-up from an independent pipeline, and its
sha256 against the golden digests in ``golden.json``. Every check that
fails is named and counted; none is dropped.

``run_workload`` is the whole benchmark run for one workload; ``run.py``
is its command line. See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".bench_work"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hodgetrees.cutjoin import canonical_key, cycle_value, load_cache, save_cache  # noqa: E402
from hodgetrees.hodge import hodge_table  # noqa: E402
from hodgetrees.oracle import bernoulli_rhs, gf_expand, oracle_integral  # noqa: E402
from hodgetrees.trees import count_trees, tree_sum  # noqa: E402

SETUP_RUNS = 5  # set-up is repeated and its median reported
CHILD_TIMEOUT_S = 150.0
RUN_CAP_S = 140.0  # no repeat starts after this, so a run ends within 180 s
STARTUP_SAMPLES = 5
MAX_NAMED_FAILURES = 20
SETUP_STATE = "setup.pickle"

# The CPU speed a shared machine delivers can drift by a third within
# minutes, in CPU time as much as in wall time, which no median inside a
# short run removes. So a fixed job that uses only the standard library runs
# in a fresh interpreter before set-up, after set-up, and right after any
# command once CALIBRATE_AFTER_S of commands have run since the last
# calibration, and at the end of every repeat. Every time is scaled by
# CALIBRATION_REFERENCE_S over the mean of the two calibrations around it:
# times are seconds at the speed at which the job takes
# CALIBRATION_REFERENCE_S (its median where the benchmark was defined,
# 2 vCPUs of a 2.1 GHz Xeon, Python 3.11.7). No change to the package can
# move the job. Raw samples are in the report.
CALIBRATION_JOB = """
from fractions import Fraction
counts = {}
total = Fraction(0)
for k in range(1, 30000):
    key = (k % 97, k % 13, (k % 7,) * 3)
    counts[key] = counts.get(key, 0) + 1
    total += Fraction(k % 11 + 1, k % 17 + 2)
"""
CALIBRATION_REFERENCE_S = 0.25
CALIBRATE_AFTER_S = 1.0

# Workload sizes. "full" is what the benchmark measures; "smoke" is the
# tiny size its tests run.
SIZES = {
    "full": {
        "table-cold": {"max_genus": 10},
        "trees-enumerate": {"cases": ((0, 7), (1, 6), (2, 5), (3, 4))},
        "cli-cache-session": {
            "memo_genus": 8,
            "commands": 25,
            "misses": 5,
            "miss_genus": 2,
            "min_commands": 100,
        },
        "series-oracle": {"max_genus": 80},
    },
    "smoke": {
        "table-cold": {"max_genus": 3},
        "trees-enumerate": {"cases": ((0, 4), (1, 3), (2, 3))},
        "cli-cache-session": {
            "memo_genus": 3,
            "commands": 6,
            "misses": 2,
            "miss_genus": 2,
            "min_commands": 0,
        },
        "series-oracle": {"max_genus": 6},
    },
}

# series-oracle checks every entry up to this genus against the recursion.
SERIES_RECURSION_GENUS = 6

# Auxiliary weights for session misses. Their weight totals exceed any the
# memo holds, so each miss adds states (11 to 171 at g <= 2 on a g <= 8
# memo) at a cost close to that of a hit.
MISS_AUX_WEIGHTS = ("9", "10", "11", "12", "4,6")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_value(text: str) -> Fraction:
    """Parse a printed rational, insisting on the reduced ``p/q`` form."""
    value = Fraction(text)
    if str(value) != text:
        raise ValueError(f"not a reduced rational: {text!r}")
    return value


def load_golden() -> dict[str, str]:
    with open(GOLDEN, encoding="ascii") as handle:
        return json.load(handle)


class Checks:
    """Counts checks attempted and keeps the first few failures by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.max_denominator_bits = 0

    def expect(self, ok: bool, item) -> bool:
        """Count one check; ``item`` names it, as a string or a function making one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_NAMED_FAILURES:
                self.failures.append(item() if callable(item) else item)
        return ok

    def record_value(self, value: Fraction) -> None:
        """Track the largest denominator among checked outputs."""
        bits = value.denominator.bit_length()
        if bits > self.max_denominator_bits:
            self.max_denominator_bits = bits


@dataclass(frozen=True)
class Command:
    """One command a repeat runs; ``key`` names its golden digest."""

    job: str  # "cli" or "series", see tracer.py
    args: tuple[str, ...]
    key: str


@dataclass
class ChildResult:
    stdout: bytes
    stderr: bytes
    code: int
    seconds: float
    rss_mib: float


def run_child(argv: list[str], env: dict, workdir: Path) -> ChildResult:
    """Run one child to completion; its wall time and peak RSS come from wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        out_path.read_bytes(),
        err_path.read_bytes(),
        proc.returncode,
        seconds,
        usage.ru_maxrss / 1024.0,
    )


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The seed also fixes string hashing in every child interpreter.
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def child_argv(command: Command, spans: Path | None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(TRACER), "--spans", str(spans), command.job, *command.args]
    if command.job == "cli":
        return [sys.executable, "-m", "hodgetrees", *command.args]
    return [sys.executable, str(TRACER), command.job, *command.args]


def _expect_run(command: Command, result: ChildResult, golden: dict, checks: Checks) -> None:
    tail = result.stderr.decode("ascii", "replace").strip()[-200:]
    checks.expect(result.code == 0, f"{command.key}: exit code {result.code}: {tail}")
    digest = sha256(result.stdout)
    checks.expect(
        digest == golden.get(command.key),
        f"{command.key}: output sha256 {digest[:16]} differs from the golden digest",
    )


class Workload:
    """One benchmark workload: set-up, the commands of a repeat, the checks."""

    name = ""
    min_commands = 0
    # Latency is per request: one command of a command stream, else one
    # repeat of the workload's job.
    request_is_command = False

    def __init__(self, size: dict, seed: int, workdir: Path) -> None:
        self.size = size
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def values_per_repeat(self) -> int:
        raise NotImplementedError

    def begin_repeat(self) -> None:
        pass

    def check(self, command: Command, result: ChildResult, checks: Checks) -> None:
        raise NotImplementedError

    def end_repeat(self, checks: Checks, counts: dict) -> None:
        pass


class TableCold(Workload):
    """``hodgetrees table --max-g G`` with a cold memo, against the oracle."""

    name = "table-cold"

    def setup(self) -> None:
        top = self.size["max_genus"]
        expansion = gf_expand(top)
        self.reference = {
            (g, i): oracle_integral(g, i, expansion)
            for g in range(1, top + 1)
            for i in range(g + 1)
        }
        self.golden = load_golden()

    def commands(self) -> list[Command]:
        args = ("table", "--max-g", str(self.size["max_genus"]))
        return [Command("cli", args, " ".join(args))]

    def values_per_repeat(self) -> int:
        return len(self.reference)

    def check(self, command: Command, result: ChildResult, checks: Checks) -> None:
        _expect_run(command, result, self.golden, checks)
        rows: dict[tuple[int, int], Fraction] = {}
        try:
            lines = result.stdout.decode("ascii").splitlines()
            if lines[:1] != ["g\ti\tpsi_power\tintegral"]:
                raise ValueError("missing header line")
            for line in lines[1:]:
                g, i, psi, value = line.split("\t")
                if int(psi) != 3 * int(g) - 2 - int(i):
                    raise ValueError(f"wrong psi power in {line!r}")
                rows[int(g), int(i)] = parse_value(value)
        except (UnicodeDecodeError, ValueError) as exc:
            checks.expect(False, f"{command.key}: unreadable output: {exc}")
        checks.expect(
            len(rows) == len(self.reference),
            f"{command.key}: {len(rows)} rows, expected {len(self.reference)}",
        )
        for (g, i), expected in self.reference.items():
            got = rows.get((g, i))
            if got is not None:
                checks.record_value(got)
            checks.expect(
                got == expected,
                lambda: f"{command.key}: row g={g} i={i} is {got}, expected {expected}",
            )


class TreesEnumerate(Workload):
    """``hodgetrees trees enumerate --format json`` over a mix of (g, n)."""

    name = "trees-enumerate"

    def setup(self) -> None:
        self.cases = {}
        for g, n in self.size["cases"]:
            key = f"trees enumerate --g {g} --n {n} --format json"
            # (genus, leaves, tree count, tree sum, recursion value)
            self.cases[key] = (
                g,
                n,
                count_trees(g, n),
                tree_sum(g, n),
                cycle_value(canonical_key(g, g, (1,) * n)),
            )
        self.order = list(self.cases)
        random.Random(self.seed).shuffle(self.order)
        self.golden = load_golden()

    def commands(self) -> list[Command]:
        return [Command("cli", tuple(key.split()), key) for key in self.order]

    def values_per_repeat(self) -> int:
        return sum(case[2] for case in self.cases.values())

    def check(self, command: Command, result: ChildResult, checks: Checks) -> None:
        _expect_run(command, result, self.golden, checks)
        genus, leaves, count, total, cycle = self.cases[command.key]
        where = command.key
        checks.expect(
            total == cycle,
            f"{where}: reference tree_sum {total} differs from cycle_value {cycle}",
        )
        try:
            payload = json.loads(result.stdout)
            printed = (payload["g"], payload["n"], payload["count"])
            printed_sum = parse_value(payload["sum"])
            weights = [tree["weight"] for tree in payload["trees"]]
            encodings = [tree["encoding"] for tree in payload["trees"]]
        except (ValueError, KeyError, TypeError) as exc:
            checks.expect(False, f"{where}: unreadable output: {exc!r}")
            for _ in range(count):
                checks.expect(False, f"{where}: tree missing")
            return
        checks.expect(
            printed == (genus, leaves, count),
            f"{where}: output names (g, n, count) = {printed}, expected {(genus, leaves, count)}",
        )
        checks.expect(
            printed_sum == total, f"{where}: printed sum {printed_sum}, expected {total}"
        )
        numerators: dict[int, int] = defaultdict(int)
        for position in range(count):
            try:
                weight = parse_value(weights[position])
            except (IndexError, TypeError, ValueError) as exc:
                checks.expect(False, f"{where}: tree {position}: {exc!r}")
                continue
            numerators[weight.denominator] += weight.numerator
            checks.record_value(weight)
            checks.expect(
                weight > 0, lambda: f"{where}: tree {position} weight {weight} is not positive"
            )
        weight_sum = sum((Fraction(p, q) for q, p in numerators.items()), Fraction(0))
        checks.expect(
            weight_sum == total, f"{where}: weights sum to {weight_sum}, expected {total}"
        )
        checks.expect(
            len(encodings) == count
            and all(isinstance(e, str) for e in encodings)
            and all(a < b for a, b in zip(encodings, encodings[1:])),
            f"{where}: encodings are not distinct and sorted",
        )


class CliCacheSession(Workload):
    """A closed loop of ``integral``/``w --cache FILE`` commands on one memo file.

    Set-up builds the memo of every integral up to ``memo_genus`` and saves
    it. Each repeat restores that file and replays one seeded session: hits
    (``integral`` and ``w`` on keys the file holds) and a minority of misses
    (``integral`` with other auxiliary weights, which add states). Every
    command loads the file and writes it back.
    """

    name = "cli-cache-session"
    request_is_command = True

    def setup(self) -> None:
        top = self.size["memo_genus"]
        # Reference values by key; end_repeat extends it with added states.
        self.memo: dict = {}
        hodge_table(top, self.memo)
        self.pristine = self.workdir / "memo.pristine"
        self.live = self.workdir / "memo.txt"
        save_cache(self.memo, self.pristine)
        self.pristine_keys = frozenset(self.memo)
        expansion = gf_expand(top)
        integrals = {
            (g, i): oracle_integral(g, i, expansion)
            for g in range(1, top + 1)
            for i in range(g + 1)
        }
        hits, misses = [], []
        # Every command a seed can draw, by golden key, with its answer.
        self.expected: dict[str, Fraction] = {}
        for (g, i), value in integrals.items():
            args = ("integral", "--g", str(g), "--lambda", str(i))
            hits.append(args)
            self.expected[" ".join(args)] = value
            for m in range(1, g + 2):
                args = ("w", "--g", str(g), "--lambda", str(i), "--weights", ",".join("1" * m))
                hits.append(args)
                self.expected[" ".join(args)] = self.memo[canonical_key(g, i, (1,) * m)]
            if g <= self.size["miss_genus"]:
                for aux in MISS_AUX_WEIGHTS:
                    args = ("integral", "--g", str(g), "--lambda", str(i), "--weights", aux)
                    misses.append(args)
                    self.expected[" ".join(args)] = value
        rng = random.Random(self.seed)
        session = rng.sample(misses, self.size["misses"]) + rng.sample(
            hits, self.size["commands"] - self.size["misses"]
        )
        rng.shuffle(session)
        self.session = session
        self.golden = load_golden()

    def commands(self) -> list[Command]:
        return [
            Command("cli", args + ("--cache", str(self.live)), " ".join(args))
            for args in self.session
        ]

    def values_per_repeat(self) -> int:
        return len(self.session)

    @property
    def min_commands(self) -> int:
        return self.size["min_commands"]

    def begin_repeat(self) -> None:
        shutil.copyfile(self.pristine, self.live)

    def check(self, command: Command, result: ChildResult, checks: Checks) -> None:
        _expect_run(command, result, self.golden, checks)
        expected = self.expected[command.key]
        try:
            got = parse_value(result.stdout.decode("ascii").strip())
            checks.record_value(got)
        except (UnicodeDecodeError, ValueError) as exc:
            got = f"unreadable ({exc})"
        checks.expect(got == expected, f"{command.key}: printed {got}, expected {expected}")

    def end_repeat(self, checks: Checks, counts: dict) -> None:
        try:
            reloaded = load_cache(self.live)
        except (OSError, ValueError) as exc:
            checks.expect(False, f"memo file does not reload after the session: {exc}")
            return
        checks.expect(True, "memo file reloads")
        wrong = [
            key
            for key, value in sorted(reloaded.items())
            if value != cycle_value(key, self.memo)
        ]
        lost = len(self.pristine_keys - reloaded.keys())
        checks.expect(
            not wrong and not lost,
            f"memo file after the session: {len(wrong)} wrong entries"
            f" (first {wrong[:1]}), {lost} entries lost",
        )
        counts["cutjoin.states"] = len(reloaded)
        counts["cutjoin.cache_bytes"] = self.live.stat().st_size


class SeriesOracle(Workload):
    """``gf_expand(N)`` and every coefficient with g <= N, in a fresh interpreter."""

    name = "series-oracle"

    def setup(self) -> None:
        top = self.size["max_genus"]
        # Independent closed forms: the lambda_0 integral is 1/(24^g g!), and
        # g! times the lambda_g integral is the Bernoulli expression.
        self.lambda0 = {g: Fraction(1, 24**g * math.factorial(g)) for g in range(1, top + 1)}
        self.top_lambda = {
            g: bernoulli_rhs(g) / math.factorial(g) for g in range(1, top + 1)
        }
        # The recursion covers the entries in between, at small genus.
        self.recursion = {
            (g, i): value
            for g, i, value in hodge_table(min(top, SERIES_RECURSION_GENUS))
        }
        self.golden = load_golden()

    def commands(self) -> list[Command]:
        top = str(self.size["max_genus"])
        return [Command("series", (top,), f"series {top}")]

    def values_per_repeat(self) -> int:
        top = self.size["max_genus"]
        return top * (top + 3) // 2

    def check(self, command: Command, result: ChildResult, checks: Checks) -> None:
        _expect_run(command, result, self.golden, checks)
        values: dict[tuple[int, int], Fraction] = {}
        try:
            for line in result.stdout.decode("ascii").splitlines():
                g, i, value = line.split("\t")
                values[int(g), int(i)] = parse_value(value)
        except (UnicodeDecodeError, ValueError) as exc:
            checks.expect(False, f"{command.key}: unreadable output: {exc}")
        top = self.size["max_genus"]
        for g in range(1, top + 1):
            for i in range(g + 1):
                got = values.get((g, i))
                if got is not None:
                    checks.record_value(got)
                if i == 0:
                    ok, want = got == self.lambda0[g], self.lambda0[g]
                elif i == g:
                    ok, want = got == self.top_lambda[g], self.top_lambda[g]
                elif (g, i) in self.recursion:
                    ok, want = got == self.recursion[g, i], self.recursion[g, i]
                else:
                    ok, want = got is not None and got > 0, "a positive value"
                checks.expect(ok, lambda: f"{command.key}: g={g} i={i} is {got}, expected {want}")
        checks.expect(
            len(values) == self.values_per_repeat(),
            f"{command.key}: {len(values)} values, expected {self.values_per_repeat()}",
        )


WORKLOADS = {
    cls.name: cls for cls in (TableCold, TreesEnumerate, CliCacheSession, SeriesOracle)
}


# ---------------------------------------------------------------- tracing

# Counters the tracer keeps as a maximum over a repeat's processes; every
# other span count, counter and self time is summed over them.
PEAK_COUNTERS = ("cutjoin.states", "cutjoin.cache_bytes")


def layer_metrics(prefix: Path) -> dict[str, float]:
    """Self time and call count per span name, plus the tracer's counters."""
    with open(f"{prefix}.json", encoding="ascii") as handle:
        meta = json.load(handle)
    spans = array("q")
    with open(f"{prefix}.spans", "rb") as handle:
        spans.frombytes(handle.read())
    count = len(spans) // 4
    covered = [0] * count
    for index in range(count):
        parent = spans[4 * index + 3]
        if parent >= 0:
            covered[parent] += spans[4 * index + 2] - spans[4 * index + 1]
    self_ns = [0] * len(meta["names"])
    calls = [0] * len(meta["names"])
    for index in range(count):
        name = spans[4 * index]
        self_ns[name] += spans[4 * index + 2] - spans[4 * index + 1] - covered[index]
        calls[name] += 1
    metrics: dict[str, float] = dict(meta["counters"])
    for name, ns, n in zip(meta["names"], self_ns, calls):
        metrics[f"{name}.self_s"] = ns / 1e9
        metrics[f"{name}.calls"] = n
    return metrics


def merge_layer(total: dict[str, float], part: dict[str, float]) -> None:
    for name, value in part.items():
        if name in PEAK_COUNTERS:
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


def derived_layer(raw: dict[str, float]) -> dict[str, float]:
    """Add the ratios defined over the raw counters."""
    out = dict(raw)
    lookups = raw.get("cutjoin.recursion_terms.children", 0) + raw.get(
        "cutjoin.cycle_value.calls", 0
    )
    added = raw.get("cutjoin.states_added", 0)
    out["cutjoin.memo_hit_ratio"] = 1 - added / lookups if lookups else 0.0
    return out


def timed_setup(workload: Workload, env: dict) -> float:
    """Set the workload up in a fresh interpreter, as its repeats run.

    Module tables such as the Bernoulli cache start empty each time, so
    every sample costs what a first set-up costs. Returns the seconds the
    child took; its references come back pickled.
    """
    argv = [
        sys.executable,
        str(Path(__file__)),
        workload.name,
        json.dumps(workload.size),
        str(workload.seed),
        str(workload.workdir),
    ]
    result = run_child(argv, env, workload.workdir)
    if result.code != 0:
        raise RuntimeError(f"set-up of {workload.name} failed: {result.stderr.decode()}")
    with open(workload.workdir / SETUP_STATE, "rb") as handle:
        vars(workload).update(pickle.load(handle))
    return result.seconds


class Calibrator:
    """Runs the calibration job and scales the times between two of its runs."""

    def __init__(self, env: dict, workdir: Path) -> None:
        self.env = env
        self.workdir = workdir
        self.samples: list[float] = []
        self.scale()

    def scale(self) -> float:
        """Calibrate now; the factor for times since the previous calibration."""
        result = run_child([sys.executable, "-c", CALIBRATION_JOB], self.env, self.workdir)
        if result.code != 0:
            raise RuntimeError(f"calibration job failed: {result.stderr.decode()}")
        self.samples.append(result.seconds)
        return CALIBRATION_REFERENCE_S / statistics.mean(self.samples[-2:])


def startup_ms(env: dict, workdir: Path) -> float:
    """Median time for a fresh interpreter to import ``hodgetrees.cli``."""
    samples = [
        run_child([sys.executable, "-c", "import hodgetrees.cli"], env, workdir).seconds
        for _ in range(STARTUP_SAMPLES)
    ]
    return statistics.median(samples) * 1000.0


# ---------------------------------------------------------------- running


@dataclass
class Repeat:
    """One repeat's times, already scaled to the reference speed."""

    raw_wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    layer: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_s)


def run_repeat(
    workload: Workload,
    checks: Checks,
    env: dict,
    counts: dict,
    calibrator: Calibrator,
    traced: bool,
) -> Repeat:
    repeat = Repeat()
    workload.begin_repeat()
    commands = workload.commands()
    pending: list[tuple[Command, ChildResult, Path | None]] = []
    for position, command in enumerate(commands):
        spans = workload.workdir / f"spans{position}" if traced else None
        result = run_child(child_argv(command, spans), env, workload.workdir)
        repeat.raw_wall_s += result.seconds
        repeat.peak_rss_mib = max(repeat.peak_rss_mib, result.rss_mib)
        pending.append((command, result, spans))
        since = sum(done.seconds for _, done, _ in pending)
        if since < CALIBRATE_AFTER_S and position < len(commands) - 1:
            continue
        # Calibrate right after the commands, then check them.
        scale = calibrator.scale()
        for command, result, spans in pending:
            repeat.latencies_s.append(result.seconds * scale)
            workload.check(command, result, checks)
            if spans is None:
                continue
            try:
                layer = layer_metrics(spans)
            except (OSError, ValueError) as exc:
                checks.expect(False, f"{command.key}: no trace written: {exc}")
                continue
            for name in layer:
                if name.endswith("_s"):
                    layer[name] *= scale
            merge_layer(repeat.layer, layer)
        pending.clear()
    workload.end_repeat(checks, counts)
    return repeat


def _quantile(samples: list[float], fraction: float) -> float:
    """Linear-interpolation quantile, as ``statistics.quantiles(method='inclusive')``."""
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    tamper=None,
) -> tuple[dict, dict]:
    """Run one workload; returns (metrics by name, report).

    ``tamper``, if given, is called with the workload after each set-up, so
    a test can damage its inputs and see the checks catch it.
    """
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        env = child_env(seed)
        workload = WORKLOADS[name](SIZES[size][name], seed, workdir)
        # Compile the package's bytecode once, so no repeat pays for it.
        run_child([sys.executable, "-c", "import hodgetrees.cli"], env, workdir)
        calibrator = Calibrator(env, workdir)
        setup_s = []
        for _ in range(SETUP_RUNS):
            setup_s.append(timed_setup(workload, env))
            if tamper is not None:
                tamper(workload)
        setup_scale = calibrator.scale()
        checks = Checks()
        counts: dict = {}
        plain: list[Repeat] = []
        traced: list[Repeat] = []
        commands = 0
        begin = time.perf_counter()
        while True:
            plain.append(run_repeat(workload, checks, env, counts, calibrator, traced=False))
            commands += len(plain[-1].latencies_s)
            if trace:
                traced.append(run_repeat(workload, checks, env, counts, calibrator, traced=True))
            elapsed = time.perf_counter() - begin
            if time.perf_counter() - started > RUN_CAP_S:
                break
            if elapsed >= seconds and (trace or commands >= workload.min_commands):
                break
        counts["values"] = workload.values_per_repeat()
        counts["exact_arith.max_denominator_bits"] = checks.max_denominator_bits
        walls = [r.wall_s for r in plain]
        metrics: dict[str, float] = {}
        if not trace:
            if workload.request_is_command:
                latencies = [s for r in plain for s in r.latencies_s]
            else:
                latencies = walls
            wall = statistics.median(walls)
            metrics = {
                "setup_s": statistics.median(setup_s) * setup_scale,
                "wall_s": wall,
                "values_per_s": workload.values_per_repeat() / wall,
                "latency_p50_ms": _quantile(latencies, 0.5) * 1000.0,
                "latency_p90_ms": _quantile(latencies, 0.9) * 1000.0,
                "peak_rss_mib": statistics.median(r.peak_rss_mib for r in plain),
            }
        else:
            layers = [derived_layer(r.layer) for r in traced]
            for layer_name in sorted(set().union(*layers)):
                values = [layer.get(layer_name, 0) for layer in layers]
                if layer_name.endswith("_s"):
                    metrics[layer_name] = statistics.median(values)
                else:
                    metrics[layer_name] = values[0]
                    checks.expect(
                        len(set(values)) == 1,
                        f"count {layer_name} differs between traced repeats: {values}",
                    )
            metrics["exact_arith.max_denominator_bits"] = checks.max_denominator_bits
            metrics["cli.startup_ms"] = startup_ms(env, workdir) * calibrator.scale()
            metrics["trace.overhead"] = statistics.median(
                r.wall_s for r in traced
            ) / statistics.median(walls)
        report = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "size": size,
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "git_revision": _git_revision(),
            "source_sha256": _source_sha256(),
            "repeats": len(plain),
            "traced_repeats": len(traced),
            "commands_timed": commands,
            "calibration_reference_s": CALIBRATION_REFERENCE_S,
            "calibration_samples_s": calibrator.samples,
            "raw_setup_samples_s": setup_s,
            "raw_wall_samples_s": [r.raw_wall_s for r in plain],
            "counts": counts,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "error_rate": checks.failed / checks.attempted if checks.attempted else 1.0,
            "failures": checks.failures,
        }
        return metrics, report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_main(argv: list[str]) -> int:
    """Child side of ``timed_setup``: NAME SIZE_JSON SEED WORKDIR."""
    name, size, seed, workdir = argv
    workload = WORKLOADS[name](json.loads(size), int(seed), Path(workdir))
    workload.setup()
    with open(workload.workdir / SETUP_STATE, "wb") as handle:
        pickle.dump(vars(workload), handle)
    return 0


if __name__ == "__main__":
    sys.exit(_setup_main(sys.argv[1:]))
