"""ordertop benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sector-fan-n4 --seed 1 --seconds 15 --trace 0

With --trace 0 the run times the workload untraced and reports the end-to-end
metrics.  With --trace 1 it runs the workload untraced and then traced, checks
that both give the same output digest, writes the spans to
.perfbench_work/spans-<workload>-<seed>.tsv.gz and reports the per-layer
metrics.  Every metric is printed by name and unit; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 1 when an output does not match its pin.

See perfbench/NOTES.md for why each workload exists and which end-to-end
metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time

import selfcheck
import spans
import workloads as wl

# Set-up is repeated at least SETUP_REPEATS times and for at least SETUP_MIN_S
# in all, and reported as the median: one import takes only about 0.06 s, so
# a few samples would mostly measure the machine's jitter.
SETUP_REPEATS = 11
SETUP_MIN_S = 3.0

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_latency_p50_ms": "ms",
    "op_latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for module, attr in spans.SPANNED:
        units[f"{module}.{attr}.calls"] = "count"
        units[f"{module}.{attr}.self_s"] = "s"
    for module, cls, attr in spans.COUNTED:
        units[spans.counted_name(module, cls, attr) + ".calls"] = "count"
    units["labcli.encoded_per_instance"] = "ratio"
    units["labcli.import_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def peak_rss_mb():
    """Peak resident memory of this process, or of its largest child if a
    worker process ever outgrows it."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024


def setup(workload, seed, seconds):
    """Import ordertop and build the inputs repeatedly; return the last
    import, its inputs and the median set-up and import times."""
    totals, imports = [], []
    while len(totals) < SETUP_REPEATS or sum(totals) < SETUP_MIN_S:
        start = time.perf_counter()
        labcli, import_s = wl.import_labcli()
        inputs = workload.prepare(labcli, seed, seconds)
        totals.append(time.perf_counter() - start)
        imports.append(import_s)
        # the modules of the previous import hold reference cycles: free them
        # now, or repeated set-ups leave garbage that raises peak_rss_mb
        gc.collect()
    return labcli, inputs, statistics.median(totals), statistics.median(imports)


def end_to_end(workload, outcome, setup_s):
    if outcome.latencies_s is None:
        # a sweep returns all its instances at once: per-instance latency is
        # only observable as the mean, so p50 and p90 both report it
        per_rep = workload.instances_per_repetition()
        mean_ms = outcome.wall_s / per_rep * 1e3
        values = {
            "wall_s": outcome.wall_s,
            "ops_per_s": per_rep / outcome.wall_s,
            "op_latency_p50_ms": mean_ms,
            "op_latency_p90_ms": mean_ms,
        }
        base = f"mean of {per_rep} instances per repetition"
        notes = {"op_latency_p50_ms": base, "op_latency_p90_ms": base}
    else:
        deciles = statistics.quantiles(outcome.latencies_s, n=10, method="inclusive")
        values = {
            "wall_s": outcome.wall_s,
            "ops_per_s": outcome.attempted / outcome.wall_s,
            "op_latency_p50_ms": deciles[4] * 1e3,
            "op_latency_p90_ms": deciles[8] * 1e3,
        }
        base = f"{len(outcome.latencies_s)} calls"
        notes = {"op_latency_p50_ms": base, "op_latency_p90_ms": base}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb()
    return values, notes


def per_layer(recorder, untraced, traced, import_s):
    totals = spans.layer_totals(recorder.spans())
    values = {}
    for module, attr in spans.SPANNED:
        calls, self_ns = totals.get(f"{module}.{attr}", (0, 0))
        values[f"{module}.{attr}.calls"] = calls
        values[f"{module}.{attr}.self_s"] = self_ns / 1e9
    for module, cls, attr in spans.COUNTED:
        name = spans.counted_name(module, cls, attr)
        values[name + ".calls"] = recorder.count(name)
    values["labcli.encoded_per_instance"] = (
        values["finstruct.encode.calls"] / traced.attempted
    )
    values["labcli.import_s"] = import_s
    values["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    notes = {
        "labcli.encoded_per_instance": f"base {traced.attempted} operations",
        "trace.overhead_ratio": f"{traced.wall_s:.3f} s traced / {untraced.wall_s:.3f} s untraced",
    }
    return values, notes


def report(outcome, values, units, notes, problems):
    print(f"operations: {outcome.attempted} attempted, {outcome.failed} failed")
    ratio = outcome.failed / outcome.attempted
    print(f"  {'failed_ratio':34s} {ratio:.6f}  ({outcome.failed} of {outcome.attempted})")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:34s} {shown} {units[name]}{note}")
    for label, digest in sorted(outcome.hashes.items()):
        print(f"  determinism_hash {label}: {digest}")
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    selfcheck.check_self_time()
    try:
        try:
            labcli, inputs, setup_s, import_s = setup(workload, args.seed, args.seconds)
        except (FileNotFoundError, ImportError) as exc:
            print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
            return 2
        workload.warm_up(labcli)
        untraced = workload.run(labcli, inputs, args.seconds)
        problems = list(untraced.problems)
        if not args.trace:
            values, notes = end_to_end(workload, untraced, setup_s)
            return report(untraced, values, END_TO_END, notes, problems)

        with spans.Tracer() as recorder:
            traced = workload.run(labcli, inputs, args.seconds)
        problems += [f"traced: {p}" for p in traced.problems]
        if traced.digest != untraced.digest:
            problems.append(
                f"traced output digest {traced.digest[:16]} differs from "
                f"untraced {untraced.digest[:16]}"
            )
        wl.WORK.mkdir(exist_ok=True)
        recorder.write(wl.WORK / f"spans-{args.workload}-{args.seed}.tsv.gz")
        values, notes = per_layer(recorder, untraced, traced, import_s)
        return report(traced, values, per_layer_units(), notes, problems)
    finally:
        shutil.rmtree(wl.run_dir(), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
