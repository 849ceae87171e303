"""Write `cli_pins.json`: for every pool entry of the cli-records workload,
the digest of its input and the exit code and stdout digest it must give.

    python3 perfbench/pin.py

Run it only on the commit whose outputs are the reference.  Regular calls are
pinned to what they print there.  Calls in a usage-error stratum are pinned
to the documented behaviour (exit 2, nothing on stdout) whatever they do
there; what they did is kept under "observed".
"""

from __future__ import annotations

import json

import selfcheck
import workloads as wl


def main():
    labcli, _ = wl.import_labcli()
    path = wl.run_dir() / "pin-input.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    calls, observed = {}, {}
    for s, stratum in enumerate(wl.STRATA):
        for k in range(wl.POOL_PER_STRATUM):
            argv, text = wl.record(s, k)
            key = wl.pool_key(s, k)
            path.write_text(text, encoding="utf-8")
            code, out = wl.invoke(labcli, argv + ["--in", str(path)])
            if stratum.usage_error:
                expect = wl.USAGE_ERROR_PIN
                observed[key] = out.split(":")[0] if code is None else f"exit {code}"
            elif code is None:
                raise RuntimeError(f"{key} raised {out}; drop or resize the stratum")
            else:
                expect = [code, wl._sha(out)]
            calls[key] = {"input": wl.input_sha(argv, text), "exit": expect[0],
                          "stdout": expect[1]}
    path.unlink()
    path.parent.rmdir()
    head = {
        "about": "cli-records pins; regenerate with python3 perfbench/pin.py",
        "selection_seed_1": selfcheck.selection_digest(),
        "observed_usage_errors": observed,
    }
    # one pool entry per line keeps the file reviewable
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in head.items()]
    entries = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in calls.items()]
    lines.append('"calls": {\n' + ",\n".join(entries) + "\n}")
    wl.PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
