#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Runs every workload twice untraced and twice traced (short runs: one
pass each) with the same seed, and checks that

* every run passes its own output checks (so on accel_dse both
  frontiers equal the golden one);
* every deterministic end-to-end value, and every deterministic
  per-layer count and ratio, is identical between the two runs;
* host_serve on a second seed still has 0 verdict mismatches.

Run from anywhere: python3 perfbench/selftest.py
Exits 0 when every check holds, 1 otherwise.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 7
SECOND_SEED = 8

DET_END_TO_END = ["sim_cycles", "sim_energy_uj", "paper_cycles_err", "serve_p99_cycles", "ok_rate"]
DET_PREFIXES = ["bench.", "dse.frontier_size", "serve.rlc_ratio", "serve.weighted_ops",
                "serve.queue_depth_max", "serve.utilization", "pete.ipc", "pete.stall_frac",
                "pete.load_use_frac", "pete.mult_stall_frac", "pete.mispredict_rate",
                "pete.cop2_stall_frac", "icache.", "monte.busy_frac", "billie.busy_frac",
                "cop.", "energy.static_frac", "sim."]


def run(workload, seed, trace):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload}: no output (exit {proc.returncode})\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1])


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in (x["name"] for x in manifest["workloads"]):
        for trace, keys in ((0, DET_END_TO_END), (1, None)):
            runs = [run(w, SEED, trace) for _ in range(2)]
            for code, r in runs:
                if code != 0 or not r["correct"] or r["failed"] != 0:
                    failures.append(f"{w} trace {trace}: run failed its checks")
            a, b = (r["metrics"] for _, r in runs)
            names = keys or [k for k in a if any(k.startswith(p) for p in DET_PREFIXES)]
            for k in names:
                if a[k]["value"] != b[k]["value"]:
                    failures.append(f"{w} trace {trace}: {k} {a[k]['value']} != {b[k]['value']}")
            print(f"{w} trace {trace}: {len(names)} deterministic values compared")
    code, r = run("host_serve", SECOND_SEED, 0)
    if code != 0 or r["failed"] != 0 or not r["correct"]:
        failures.append(f"host_serve seed {SECOND_SEED}: {r['failed']} mismatches")
    print(f"host_serve seed {SECOND_SEED}: {r['failed']} mismatches")
    for f in failures:
        print("FAILED:", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
