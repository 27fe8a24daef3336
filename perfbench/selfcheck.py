"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks that the printed metric and workload names match BENCHMARK.json, that
the input generator is deterministic per seed, that the span arithmetic is
right on a synthetic trace, and that the benchmark refuses to run without a
source tree.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracing
import workloads
from tracing import Span, Tracer


def check_names() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(workloads.WHY.items())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for trace, names in expected.items():
        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "orbit", "--seed", "5",
             "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0, proc.stdout
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == names, set(printed) ^ set(names)
        assert list(printed) == list(names), "metric order differs from BENCHMARK.json"


def check_generator() -> None:
    assert workloads.inputs_for(1) == {"v0": (193, 103), "t": -30, "lemma_seed": 8196980753821780235}, \
        workloads.inputs_for(1)
    for seed in (0, 1, 7, 2**40 + 3):
        for w in workloads.WORKLOADS:
            assert workloads.calls_for(w, seed, 2) == workloads.calls_for(w, seed, 2)
    assert len({json.dumps(workloads.inputs_for(s)) for s in range(16)}) == 16
    assert workloads.dyadic_decimal(-21, 64) == "-0.328125"
    assert workloads.dyadic_decimal(8, 64) == "0.125000"


def check_span_arithmetic() -> None:
    tr = Tracer()
    # main [0, 10] on thread 1 with a pool [1, 9]: cells [1, 6] and [2, 9] on
    # threads 2 and 3, each holding one dominant span; write_csv [9.5, 10].
    tr.spans = [
        Span(1, "harness.main", 0.0, 10.0, 0, 1, 0),
        Span(2, "harness._map_cells", 1.0, 9.0, 1, 1, 0),
        Span(3, "harness.cell", 1.0, 6.0, 2, 2, 0),
        Span(4, "harness.cell", 2.0, 9.0, 2, 3, 0),
        Span(5, "solver.count_values_bruteforce", 1.5, 6.0, 3, 2, 0),
        Span(6, "solver.count_values_bruteforce", 2.0, 8.0, 4, 3, 0),
        Span(7, "harness.write_csv", 9.5, 10.0, 1, 1, 0),
    ]
    tr.counts = {2: {"threads": 2}, 5: {"T": 2}, 6: {"T": 3}, 7: {"rows": 4}}
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracing.self_time(tr.spans[0], [tr.spans[1], tr.spans[6]]) == 1.5
    assert tracing.self_time(tr.spans[1], tr.spans[2:4]) == 0.0
    assert tracing.ball_counts(1) == (7, 5)
    m = tracing.pass_metrics(tr, ("solver.count_values_bruteforce",))
    assert m["harness.main_s"] == 10.0
    assert m["harness.self_s"] == 1.5
    assert m["harness.pool_busy_ratio"] == (5.0 + 7.0) / (2 * 8.0)
    assert m["trace.dominant_share"] == 6.5 / 10.0
    assert m["solver.oracle_s"] == 4.5 + 6.0
    assert m["harness.csv_rows"] == 4
    assert set(m) == set(tracing.LAYER_UNITS)


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    for check in (check_generator, check_span_arithmetic, check_bare_directory, check_names):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
