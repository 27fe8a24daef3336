"""The qdensity benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all                   # every workload, one table

Run from the root of a source tree (the package under ``src/``).  The run
measures set-up time in fresh interpreters, then times passes over the
workload's CLI calls in one child process, checks every answer, and prints a
summary followed by one JSON line: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  Records and span files go to
``perfbench/_work/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "_work"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_STARTS = 5  # before and again after the passes, so two moments of machine load count
CHILD_TIMEOUT = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one process, and no threads beyond the --threads pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "git_sha": git_sha, "src_sha256": src.hexdigest()}


def measure_setup(env: dict, warm: bool) -> list[float]:
    """Cold starts of the CLI: fresh interpreter, import, argv parsed (--help)."""
    cmd = [sys.executable, "-m", "qdensity", "--help"]
    if warm:  # the first start writes the bytecode cache
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_worker(spec: dict, env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")], input=json.dumps(spec),
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_passes(workload: str, seed: int, calls: list, passes: list, reference: dict):
    """(attempted, failed, problems, answer records) over every pass of a run."""
    first = passes[0]["calls"]
    ref = reference.get(workload, {}).get(str(seed))
    records, bad_content = [], set()
    problems: list[str] = []
    for i, (argv, rec) in enumerate(zip(calls, first)):
        record = {"argv": argv, "sha256": rec["sha256"]}
        if rec["rc"] == 0 and rec["error"] is None:
            record["answers"] = workloads.answers(argv, rec["csv"])
            found = workloads.check_call(argv, rec["csv"], rec["stderr"])
            if ref is not None and (ref[i]["sha256"], ref[i]["answers"]) != (rec["sha256"], record["answers"]):
                found.append(f"differs from the reference: {ref[i]} vs {record}")
            if found:
                bad_content.add(i)
                problems += [f"call {i} ({argv[0]}): {p}" for p in found]
        records.append(record)
    attempted = failed = 0
    for k, p in enumerate(passes):
        for i, rec in enumerate(p["calls"]):
            attempted += 1
            why = None
            if rec["error"] is not None:
                why = f"exception:\n{rec['error']}"
            elif rec["rc"] != 0:
                why = f"exit code {rec['rc']}"
            elif rec["sha256"] != first[i]["sha256"]:
                why = "CSV bytes differ from the first pass"
            elif i in bad_content:
                why = "wrong answer"
            if why is not None:
                failed += 1
                if why != "wrong answer":
                    problems.append(f"pass {k} call {i} ({calls[i][0]}): {why}")
    return attempted, failed, problems, records


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest order statistic with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10  # 1-based rank of that sample
    return 100.0 * k / n, sorted(values)[k - 1]


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object and prints the summary lines."""
    WORK.mkdir(exist_ok=True)
    env = child_env()
    load_start = os.getloadavg()[0]
    machine = machine_record()
    setup = [] if trace else measure_setup(env, warm=True)
    threads = min(2, os.cpu_count() or 1)
    calls = workloads.calls_for(workload, seed, threads)
    spec = {
        "calls": calls,
        "work_dir": str(WORK),
        "trace": trace,
        "seconds": seconds,
        "max_seconds": 120.0,
        "min_passes": 4 if trace else 3,
        "dominant": workloads.DOMINANT[workload],
        "spans_file": f"spans-{workload}-seed{seed}.json",
    }
    res = run_worker(spec, env, CHILD_TIMEOUT - 10.0)
    if not trace:
        setup += measure_setup(env, warm=False)
    machine.update(python=res["python"], numpy=res["numpy"], load1_start=load_start,
                   load1_end=os.getloadavg()[0])
    attempted, failed, problems, records = check_passes(
        workload, seed, calls, res["passes"], load_reference())
    walls = [p["seconds"] for p in res["passes"] if not p["traced"]]
    wall = statistics.median(walls)
    print(f"{workload} seed={seed}: {len(res['passes'])} passes, {attempted} CLI calls, "
          f"{failed} failed (fail_ratio {failed / attempted:.4g})")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print(f"  machine: {json.dumps(machine)}")
    if trace:
        traced = statistics.median(p["seconds"] for p in res["passes"] if p["traced"])
        metrics = {**res["layer"], **res["probes"], "trace.overhead_ratio": traced / wall - 1.0}
        units = tracing.PER_LAYER_UNITS
        print(f"  spans written to {os.path.relpath(res['spans_file'], ROOT)}")
        print(f"  dominant share of harness.main ({', '.join(workloads.DOMINANT[workload])}): "
              f"{metrics['trace.dominant_share']:.3f}")
    else:
        metrics = {"wall_s": wall, "setup_s": statistics.median(setup), "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END_UNITS
        t = tail(walls)
        tail_text = (f"p{t[0]:.0f} {t[1]:.4f} s" if t else "no percentile with 10 samples beyond")
        print(f"  wall_s      {wall:.4f} s   median of {len(walls)} passes; {tail_text}")
        print(f"  setup_s     {metrics['setup_s']:.4f} s   median of {len(setup)} cold starts")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
        print(f"  fail_ratio  {failed / attempted:.4g} (failed/attempted CLI calls)")
    record = {
        "workload": workload, "seed": seed, "trace": trace, "machine": machine,
        "pass_seconds": [p["seconds"] for p in res["passes"]],
        "traced": [p["traced"] for p in res["passes"]],
        "setup_seconds": setup, "calls": records, "problems": problems, "metrics": metrics,
    }
    (WORK / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdensity" / "harness.py").is_file():
        print(f"error: no qdensity source under {ROOT / 'src'}; run from a source tree",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: bench(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if args.workload == "all":
        print(f"{'workload':8} {'wall_s (s)':>11} {'setup_s (s)':>12} {'peak_rss_mb (MB)':>17} "
              f"{'fail_ratio':>10}")
        for w, r in results.items():
            m = r["metrics"]
            cells = [f"{m[k]['value']:.4f}" if k in m else "-" for k in END_TO_END_UNITS]
            print(f"{w:8} {cells[0]:>11} {cells[1]:>12} {cells[2]:>17} {r['failed'] / r['attempted']:>10.4g}")
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
