"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks the self-time arithmetic on a synthetic span tree, that a seed always
yields the same cli-records calls and pins, that every pooled record still
generates the input it was pinned with, that one round of calls still gives
the pinned outputs, and that BENCHMARK.json names exactly the metrics the
benchmark reports.  run.py repeats the span arithmetic check on every run.
"""

from __future__ import annotations

import hashlib
import json
import sys

import spans
import workloads as wl

# The pinned selection digest is taken at this seed and number of rounds.
REFERENCE_SEED = 1
REFERENCE_ROUNDS = 12


class SelfCheckError(AssertionError):
    pass


def _expect(ok, message):
    if not ok:
        raise SelfCheckError(message)


def check_self_time():
    """Nested spans with overlapping and overhanging children."""
    tree = [
        ("root", -1, 0, 100),
        ("a", 0, 10, 40),
        ("a.x", 1, 15, 25),
        ("b", 0, 30, 60),   # overlaps a by 10
        ("c", 0, 90, 120),  # overhangs root by 20
        ("c.x", 4, 95, 105),
    ]
    got = spans.self_times(tree)
    # root: 100 minus the union [10, 60] and [90, 100]
    _expect(got == [40, 20, 10, 30, 20, 10], f"self times {got}")
    totals = spans.layer_totals(tree + [("a", 0, 70, 80)])
    _expect(totals["a"] == (2, 30), f"layer totals {totals['a']}")
    _expect(totals["root"] == (1, 30), f"layer totals {totals['root']}")


def selection_digest():
    """Digest of the calls (pool key, argv, input) the reference seed
    selects."""
    h = hashlib.sha256()
    for s, k in wl.selection(REFERENCE_SEED, REFERENCE_ROUNDS):
        argv, text = wl.record(s, k)
        h.update(f"{wl.pool_key(s, k)} {wl.input_sha(argv, text)}\n".encode())
    return h.hexdigest()


def check_selection(seed):
    pins = wl.load_pins()
    first = [(wl.pool_key(s, k), wl.record(s, k))
             for s, k in wl.selection(seed, REFERENCE_ROUNDS)]
    second = [(wl.pool_key(s, k), wl.record(s, k))
              for s, k in wl.selection(seed, REFERENCE_ROUNDS)]
    _expect(first == second, f"seed {seed} gave two different call lists")
    keys = [key for key, _ in first]
    _expect(len(set(keys)) == len(keys), f"seed {seed} repeats a call")
    for key, (argv, text) in first:
        _expect(pins["calls"][key]["input"] == wl.input_sha(argv, text),
                f"{key} no longer generates its pinned input")
    if seed == REFERENCE_SEED:
        _expect(selection_digest() == pins["selection_seed_1"],
                "the seed-1 selection differs from the pinned one")


def check_pool_inputs():
    calls = wl.load_pins()["calls"]
    for s in range(len(wl.STRATA)):
        for k in range(wl.POOL_PER_STRATUM):
            key = wl.pool_key(s, k)
            _expect(calls[key]["input"] == wl.input_sha(*wl.record(s, k)),
                    f"{key} no longer generates its pinned input")


def check_one_round():
    """Replay the first round of the reference seed's calls against the
    pins."""
    labcli, _ = wl.import_labcli()
    workload = wl.WORKLOADS["cli-records"]
    try:
        calls = workload.prepare(labcli, REFERENCE_SEED, wl.ROUND_NOMINAL_S)
        outcome = workload.run(labcli, calls, wl.ROUND_NOMINAL_S)
    finally:
        for path in wl.run_dir().glob("*.json"):
            path.unlink()
        wl.run_dir().rmdir()
    _expect(outcome.correct, f"pinned outputs differ: {outcome.problems}")
    return outcome


def check_benchmark_json():
    import run

    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    _expect({w["name"] for w in doc["workloads"]} == set(wl.WORKLOADS),
            "BENCHMARK.json workloads differ from the benchmark's")
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    _expect(declared == run.END_TO_END, "BENCHMARK.json end_to_end differs")
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    _expect(declared == run.per_layer_units(), "BENCHMARK.json per_layer differs")


def main():
    check_self_time()
    for seed in (REFERENCE_SEED, 2, 3):
        check_selection(seed)
    check_pool_inputs()
    outcome = check_one_round()
    check_benchmark_json()
    print(f"self-checks passed; one round: {outcome.attempted} calls, "
          f"{outcome.failed} failed as pinned usage errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
