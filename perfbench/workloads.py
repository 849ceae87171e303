"""The three benchmark workloads, their inputs and their correctness checks.

All three are closed loops with a single client in one process: each
operation starts after the previous one has finished.  The library is driven
from outside, through `ordertop.labcli.run_suite` and `ordertop.labcli.main`
only, and is imported from the checkout's `src` directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = Path(__file__).with_name("cli_pins.json")


def run_dir():
    """Scratch directory of this process inside the checkout."""
    return WORK / f"run-{os.getpid()}"


def import_labcli():
    """Import `ordertop.labcli` afresh from the checkout and return
    (module, seconds).  Earlier imports of the package are dropped first, so
    each call pays the whole import of `ordertop`."""
    if not (SRC / "ordertop" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ordertop package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ordertop" or m.startswith("ordertop.")]:
        del sys.modules[name]
    start = time.perf_counter()
    labcli = importlib.import_module("ordertop.labcli")
    elapsed = time.perf_counter() - start
    if not Path(labcli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"ordertop imported from {labcli.__file__}, not {SRC}")
    return labcli, elapsed


@dataclass
class Outcome:
    """What one timed pass of a workload produced."""

    wall_s: float
    attempted: int
    failed: int
    digest: str
    problems: list = field(default_factory=list)
    latencies_s: list | None = None
    hashes: dict = field(default_factory=dict)

    @property
    def correct(self):
        return not self.problems


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class Sweep:
    """`run_suite` over whole enumerations.  One operation is one suite
    instance; one repetition runs every suite once."""

    name: str
    suites: tuple  # (suite, n, pinned (instances, passes, failures))
    workers: int
    nominal_s: float  # one repetition at the commit that defined the benchmark

    def repetitions(self, seconds):
        return max(1, math.ceil(seconds / self.nominal_s))

    def prepare(self, labcli, seed, seconds):
        # the enumerations are fixed: the seed selects nothing here
        return [labcli.SuiteSpec(suite, n) for suite, n, _pin in self.suites]

    def warm_up(self, labcli):
        pass

    def run(self, labcli, specs, seconds):
        walls, reports = [], []
        for _ in range(self.repetitions(seconds)):
            start = time.perf_counter()
            rep = [labcli.run_suite(spec, workers=self.workers) for spec in specs]
            walls.append(time.perf_counter() - start)
            reports.append(rep)
        problems = []
        for rep in reports:
            for report, (suite, n, pin) in zip(rep, self.suites):
                got = (report.instances, report.passes, report.failures)
                if got != pin:
                    problems.append(
                        f"{suite} n={n}: (instances, passes, failures) = {got}, pinned {pin}"
                    )
        # the digest covers the results, not their timings
        digests = {
            _sha(json.dumps([
                [r.suite, r.n, r.instances, r.passes, r.failures,
                 r.counterexamples, r.determinism_hash] for r in rep
            ], sort_keys=True))
            for rep in reports
        }
        if len(digests) != 1:
            problems.append("repetitions of one sweep gave different results")
        return Outcome(
            wall_s=statistics.median(walls),
            attempted=sum(r.instances for rep in reports for r in rep),
            failed=sum(r.failures for rep in reports for r in rep),
            digest=min(digests),
            problems=problems,
            hashes={r.suite: r.determinism_hash for r in reports[0]},
        )

    def instances_per_repetition(self):
        return sum(pin[0] for _s, _n, pin in self.suites)


# ---------------------------------------------------------------- records

def order_rows(rng, n, free, density, merges=0):
    """Row masks of a random quasi-order on n points: `free` points are
    isolated, the others get a random acyclic relation of the given density
    (then transitive closure), and `merges` pairs become equivalent."""
    points = list(range(n))
    rng.shuffle(points)
    linked = points[free:]
    rows = [1 << x for x in range(n)]
    for i, a in enumerate(linked):
        for b in linked[i + 1:]:
            if rng.random() < density:
                rows[a] |= 1 << b
    for _ in range(merges):
        if len(linked) >= 2:
            a, b = rng.sample(linked, 2)
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = rows[x]
            for y in range(n):
                if rows[x] >> y & 1:
                    acc |= rows[y]
            if acc != rows[x]:
                rows[x] = acc
                changed = True
    return rows


def up_sets(rows):
    """Opens of the Alexandroff topology of the quasi-order, in increasing
    order: its up-sets, which are the unions of the principal up-sets."""
    opens = {0}
    for row in rows:
        opens |= {u | row for u in opens}
    return sorted(opens)


# points of a 6-bit mask, for the low and the high half of a 12-point mask
_LOW = [[x for x in range(6) if m >> x & 1] for m in range(64)]
_HIGH = [[x + 6 for x in points] for points in _LOW]


def _point_lists(masks):
    """Each mask (of at most 12 points) as the sorted list of its points."""
    return [_LOW[m & 63] + _HIGH[m >> 6] for m in masks]


def _matrix(n, rows):
    return [[rows[x] >> y & 1 for y in range(n)] for x in range(n)]


def qoset(n, free, density, merges=0):
    def make(rng):
        rows = order_rows(rng, n, free, density, merges)
        return {"kind": "qoset", "n": n, "leq": _matrix(n, rows)}
    return make


def topology(n, free, density, merges=0):
    def make(rng):
        opens = up_sets(order_rows(rng, n, free, density, merges))
        return {"kind": "topology", "n": n, "opens": _point_lists(opens)}
    return make


def space(n, order, opens):
    """Ordered space: a random quasi-order (`order` = free, density, merges)
    and the Alexandroff topology of an independent one (`opens`)."""
    def make(rng):
        rows = order_rows(rng, n, *order)
        ups = up_sets(order_rows(rng, n, *opens))
        return {"kind": "ordered_space", "n": n, "leq": _matrix(n, rows),
                "opens": _point_lists(ups)}
    return make


def c_ordered(n, free, density):
    """Interior relation of an Alexandroff T0 space: a partial order."""
    def make(rng):
        rows = order_rows(rng, n, free, density)
        return {"payload": {"kind": "relation", "n": n, "rel": _matrix(n, rows)}}
    return make


def payload(make):
    def wrapped(rng):
        return {"payload": make(rng)}
    return wrapped


@dataclass(frozen=True)
class Stratum:
    name: str
    argv: tuple
    make: object
    usage_error: bool = False  # documented to exit 2 with nothing on stdout


T0_CORE = ("convert", "--from", "t0-core-space", "--to")

# One call of every stratum per round.  Sizes are chosen so that a round costs
# about ROUND_NOMINAL_S and the slowest tenth of the calls comes from several
# strata rather than one.
STRATA = (
    Stratum("core-space", ("check", "--class", "core-space"), topology(9, 6, 0.4)),
    Stratum("core-space-qo", ("check", "--class", "core-space"), topology(8, 3, 0.3, 2)),
    Stratum("sober", ("check", "--class", "sober"), topology(7, 3, 0.3)),
    Stratum("d-space", ("check", "--class", "d-space"), topology(8, 4, 0.3)),
    Stratum("web-space", ("check", "--class", "web-space"), topology(8, 5, 0.4)),
    Stratum("up-stable", ("check", "--class", "up-stable"), space(8, (2, 0.3, 0), (5, 0.3, 0))),
    Stratum("sector-space", ("check", "--class", "sector-space"), space(7, (1, 0.4, 0), (3, 0.3, 0))),
    Stratum("fan-space", ("check", "--class", "fan-space"), space(7, (1, 0.4, 0), (3, 0.3, 0))),
    Stratum("semi-qospace", ("check", "--class", "semi-qospace"), space(8, (2, 0.3, 1), (4, 0.3, 0))),
    Stratum("upper-regular", ("check", "--class", "upper-regular"), space(8, (2, 0.3, 0), (4, 0.4, 0))),
    Stratum("scott", ("derive", "--op", "scott"), qoset(11, 2, 0.3, 1)),
    Stratum("lawson", ("derive", "--op", "lawson"), qoset(9, 3, 0.3)),
    Stratum("lawson-space", ("derive", "--op", "lawson"), space(8, (2, 0.3, 0), (4, 0.3, 0))),
    Stratum("patch-upsilon", ("derive", "--op", "patch:upsilon"), topology(9, 6, 1.0)),
    Stratum("patch-sigma", ("derive", "--op", "patch:sigma"), topology(8, 4, 0.3)),
    Stratum("patch-alpha", ("derive", "--op", "patch:alpha"), topology(8, 4, 0.3, 1)),
    Stratum("interior-relation", ("derive", "--op", "interior-relation"), topology(10, 8, 1.0)),
    Stratum("upper", ("derive", "--op", "upper"), space(9, (2, 0.3, 0), (6, 0.3, 0))),
    Stratum("lower", ("derive", "--op", "lower"), space(9, (2, 0.3, 0), (6, 0.3, 0))),
    Stratum("to-c-ordered-set", T0_CORE + ("c-ordered-set",), payload(topology(10, 8, 1.0))),
    Stratum("to-fan-space", T0_CORE + ("fan-ordered-space",), payload(topology(7, 3, 0.4))),
    Stratum("to-based-domain", T0_CORE + ("based-domain",), payload(topology(7, 3, 0.4))),
    Stratum("to-bsl", T0_CORE + ("based-supercontinuous-lattice",), payload(topology(6, 0, 0.6))),
    Stratum("from-c-ordered-set",
            ("convert", "--from", "c-ordered-set", "--to", "t0-core-space"), c_ordered(8, 3, 0.3)),
    Stratum("decode-large", ("derive", "--op", "interior-relation"), topology(12, 10, 1.0)),
    # usage errors the README documents as exit 2
    Stratum("lawson-on-topology", ("derive", "--op", "lawson"), topology(8, 4, 0.3), True),
    Stratum("upper-on-qoset", ("derive", "--op", "upper"), qoset(8, 2, 0.3), True),
    Stratum("to-bsl-too-large", T0_CORE + ("based-supercontinuous-lattice",),
            payload(topology(7, 4, 0.3)), True),
)

POOL_PER_STRATUM = 24  # records pinned per stratum; bounds the rounds of a run
ROUND_NOMINAL_S = 0.85  # one round at the commit that defined the benchmark
USAGE_ERROR_PIN = [2, _sha("")]


def record(stratum_index, k):
    """(argv prefix, record text) of pool entry k of a stratum; the same on
    every run and machine (string seeds hash with sha512)."""
    stratum = STRATA[stratum_index]
    rng = random.Random(f"ordertop-cli-records/{stratum.name}/{k}")
    text = json.dumps(stratum.make(rng), separators=(",", ":"))
    return list(stratum.argv), text


def input_sha(argv, text):
    return _sha(" ".join(argv) + "\n" + text)[:16]


def pool_key(stratum_index, k):
    return f"{STRATA[stratum_index].name}/{k}"


def selection(seed, rounds):
    """Pool entries for one run, round by round: each round has one distinct
    entry per stratum, in a seeded order."""
    if rounds > POOL_PER_STRATUM:
        raise ValueError(f"{rounds} rounds exceed the pool of {POOL_PER_STRATUM} per stratum")
    rng = random.Random(seed)
    picks = [rng.sample(range(POOL_PER_STRATUM), rounds) for _ in STRATA]
    calls = []
    for r in range(rounds):
        order = list(range(len(STRATA)))
        rng.shuffle(order)
        calls.extend((s, picks[s][r]) for s in order)
    return calls


def invoke(labcli, argv):
    """One in-process CLI call: (exit code, stdout) or the escaped exception."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = labcli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # the benchmark's boundary: count, do not crash
        return None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def load_pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class CliRecords:
    """A seeded stream of distinct `ordertop` CLI calls made in-process.  One
    operation is one call."""

    name: str = "cli-records"

    def rounds(self, seconds):
        return min(POOL_PER_STRATUM, max(1, math.ceil(seconds / ROUND_NOMINAL_S)))

    def prepare(self, labcli, seed, seconds):
        """Write the selected records to files and return the calls as
        (pool key, argv, usage_error, input digest)."""
        directory = run_dir()
        directory.mkdir(parents=True, exist_ok=True)
        calls = []
        for i, (s, k) in enumerate(selection(seed, self.rounds(seconds))):
            argv, text = record(s, k)
            path = directory / f"{i:04d}.json"
            path.write_text(text, encoding="utf-8")
            calls.append((pool_key(s, k), argv + ["--in", str(path)],
                          STRATA[s].usage_error, input_sha(argv, text)))
        return calls

    def warm_up(self, labcli):
        path = run_dir() / "warm-up.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"kind":"topology","n":2,"opens":[[],[1],[0,1]]}', encoding="utf-8")
        invoke(labcli, ["check", "--class", "t0", "--in", str(path)])

    def run(self, labcli, calls, seconds):
        pins = load_pins()["calls"]
        for key, _argv, _usage_error, digest in calls:
            if pins[key]["input"] != digest:
                raise RuntimeError(f"record {key} differs from the pinned input")
        latencies, lines, problems = [], [], []
        failed = 0
        clock = time.perf_counter
        start = clock()
        for key, argv, usage_error, _digest in calls:
            pin = [pins[key]["exit"], pins[key]["stdout"]]
            t0 = clock()
            code, out = invoke(labcli, argv)
            latencies.append(clock() - t0)
            if code is None:
                failed += 1
                lines.append(f"{key} raised")
                if not usage_error:
                    problems.append(f"{key}: {out}")
                continue
            got = [code, _sha(out)]
            lines.append(f"{key} {got[0]} {got[1]}")
            if got != pin:
                failed += 1
                problems.append(f"{key}: exit {got[0]} stdout {got[1][:12]}, pinned "
                                f"exit {pin[0]} stdout {pin[1][:12]}")
        wall = clock() - start
        return Outcome(
            wall_s=wall,
            attempted=len(calls),
            failed=failed,
            digest=_sha("\n".join(lines)),
            problems=problems,
            latencies_s=latencies,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            "sector-fan-n4",
            (("thm-4.6", 4, (77745, 77745, 0)), ("thm-5.3", 4, (77745, 77745, 0))),
            workers=2,
            nominal_s=10.0,
        ),
        Sweep(
            "lattice-laws-n6",
            (("lattice-laws", 6, (6815, 6815, 0)),),
            workers=1,
            nominal_s=35.0,
        ),
        CliRecords(),
    )
}
