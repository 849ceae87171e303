"""Record the benchmark of this checkout against a base revision.

    python3 bench/record.py --base HEAD~1 --out BENCH_6.json [--workdir DIR]

The base revision is exported with `git archive` into a temporary directory;
the change is the working tree of the checkout this script sits in.  The
benchmark command of `BENCHMARK.json` (`perfbench/run.py`) runs unchanged in
both, once per side in each of PAIRS pairs per workload, the side that
goes first alternating from pair to pair so that drift of the machine falls
on both.  Pair i uses seed i + 1 on both sides.  Then one `--trace 1` run per
side gives the per-layer spans.

The JSON written to `--out` holds, per workload: every run's metrics,
instance counts and `determinism_hash` lines; per end-to-end metric (peak RSS
among them) each side's values, median and quartiles and the fraction of
pairs the change wins; and the per-layer metrics of each traced run.
Standard library and git only.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# ten pairs: a gain is claimed only when the change wins nine of them
PAIRS = 10
HASH_LINE = re.compile(r"^\s*determinism_hash (\S+): ([0-9a-f]+)$", re.M)


def git(*args):
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev, dest):
    """Write the tree of `rev` to `dest`."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        if hasattr(tarfile, "data_filter"):
            fh.extractall(dest, filter="data")
        else:
            fh.extractall(dest)


def run_once(command, checkout, workload, seed, seconds, trace):
    """One benchmark process; its parsed result, or the error it gave."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    out = {"exit": proc.returncode, "elapsed_s": round(time.perf_counter() - start, 3)}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out["error"] = proc.stderr.strip()[-2000:]
        return out
    out.update(
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics={k: v["value"] for k, v in result["metrics"].items()},
        hashes=dict(HASH_LINE.findall(proc.stdout)),
    )
    if proc.stderr.strip():
        out["stderr"] = proc.stderr.strip()[-2000:]
    return out


def spread(values):
    if not values:
        return {"values": []}
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"values": values, "median": q2, "q1": q1, "q3": q3}


def summarize(runs, metrics):
    """Per end-to-end metric: both sides' spreads and the change's wins."""
    out = {}
    ok = [r for r in runs if "metrics" in r["base"] and "metrics" in r["change"]]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["base"]["metrics"][name] for r in ok]
        change = [r["change"]["metrics"][name] for r in ok]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "base": spread(base), "change": spread(change),
            "change_wins": wins, "pairs": len(ok),
            "win_fraction": wins / len(ok) if ok else None,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workdir", help="parent directory of the base export")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    record = {
        "base": {"rev": args.base, "sha": git("rev-parse", args.base)},
        "change": {"sha": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "command": spec["command"], "seconds": seconds, "pairs": PAIRS,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        base_root = Path(tmp) / "base"
        export(args.base, base_root)
        sides = {"base": base_root, "change": ROOT}
        for name in names:
            runs = []
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                run = {"pair": i, "seed": i + 1, "order": list(order)}
                for side in order:
                    run[side] = run_once(spec["command"], sides[side], name, i + 1, seconds, 0)
                    wall = run[side].get("metrics", {}).get("wall_s")
                    print(f"{name} pair {i} {side}: wall_s {wall}", file=sys.stderr)
                runs.append(run)
            traces = {side: run_once(spec["command"], root, name, 1, seconds, 1)
                      for side, root in sides.items()}
            hashes = {
                side: [json.loads(h) for h in sorted(
                    {json.dumps(r[side].get("hashes"), sort_keys=True) for r in runs})]
                for side in sides
            }
            record["workloads"][name] = {
                "end_to_end": summarize(runs, spec["end_to_end"]),
                "determinism_hash": {**hashes, "same": hashes["base"] == hashes["change"]},
                "runs": runs,
                "trace": traces,
            }
    record["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
