"""Determinism guard for the benchmark.

    python3 perfbench/guard.py

For each workload, runs the traced benchmark twice with seed SEED and once
with the held-out seed HELD_OUT.  The two same-seed runs must report
identical count metrics, identical corpus channel sizes and identical
verdict text (by digest); every run must pass its known-answer checks.
Exits 1 on any difference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEED, HELD_OUT = 7, 1009


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main():
    problems = []
    for name in workloads.WORKLOADS:
        seeds = (SEED, SEED, HELD_OUT)
        runs = [traced_run(name, s) for s in seeds]
        for (info, res), seed in zip(runs, seeds):
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} seed {seed}: {info['wrong']}")
        (info_a, res_a), (info_b, res_b) = runs[0], runs[1]
        counts = {k for k, v in res_a["metrics"].items() if v["unit"] == "count"}
        for k in sorted(counts):
            a, b = res_a["metrics"][k]["value"], res_b["metrics"][k]["value"]
            if a != b:
                problems.append(f"{name}: {k} {a} then {b}")
        for key in ("channels", "verdict_sha256"):
            if info_a[key] != info_b[key]:
                problems.append(f"{name}: {key} differs between runs")
        print(f"{name}: {len(counts)} counts, "
              f"{len(info_a['channels'])} corpora, verdict "
              f"{info_a['verdict_sha256'][:12]} repeated; held-out seed "
              f"{HELD_OUT} {'correct' if runs[2][1]['correct'] else 'WRONG'}",
              flush=True)
    for p in problems:
        print("guard:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
