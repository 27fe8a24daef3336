"""Regenerate perfbench/reference.json from the current source tree.

    python3 perfbench/make_reference.py

Runs one pass of every workload at each reference seed, checks it with the
package-independent checks, and stores each call's answers and CSV sha256.
Run it only when a change to the CSV bytes is intended and explained.
"""

from __future__ import annotations

import json
import os

import run
import workloads

REFERENCE_SEEDS = range(32)  # includes workloads.DEFAULT_SEED


def dump(ref: dict) -> str:
    """JSON with one line per workload and seed, so a changed answer is a one-line diff."""
    blocks = []
    for workload, seeds in ref.items():
        lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(recs)}" for seed, recs in seeds.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    env = run.child_env()
    threads = min(2, os.cpu_count() or 1)
    out: dict = {}
    for workload in workloads.WORKLOADS:
        out[workload] = {}
        for seed in REFERENCE_SEEDS:
            calls = workloads.calls_for(workload, seed, threads)
            spec = {"calls": calls, "work_dir": str(run.WORK), "trace": False, "seconds": 0.0,
                    "max_seconds": 0.0, "min_passes": 1, "dominant": [], "spans_file": ""}
            res = run.run_worker(spec, env, run.CHILD_TIMEOUT)
            _, failed, problems, records = run.check_passes(workload, seed, calls, res["passes"], {})
            if failed or problems:
                raise SystemExit(f"{workload} seed {seed} failed its checks: {problems}")
            out[workload][str(seed)] = [{"sha256": r["sha256"], "answers": r["answers"]} for r in records]
            print(f"{workload} seed {seed}: {[r['answers'] for r in records]}", flush=True)
    run.REFERENCE.write_text(dump(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
