"""One benchmark run in a fresh interpreter: import qdensity, time passes.

Reads a JSON spec on stdin and prints one JSON result on stdout.  A pass is
the workload's CLI calls in order, each made in process through
``qdensity.harness.main`` with its CSV written to a file in the work
directory.  With tracing on, untraced and traced passes alternate, so the
tracing overhead is measured under the same conditions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import timeit
import traceback
from fractions import Fraction
from time import perf_counter

import tracing


def run_call(main, argv: list[str], out_path: str) -> dict:
    if os.path.exists(out_path):
        os.remove(out_path)
    err = io.StringIO()
    rec: dict = {"rc": None, "error": None}
    start = perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rec["rc"] = main(argv + ["--out", out_path])
    except SystemExit as exc:  # argparse rejects its input this way
        rec["rc"] = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an escaping exception is a failed call, not a failed run
        rec["error"] = traceback.format_exc(limit=4)
    rec["seconds"] = perf_counter() - start
    rec["stderr"] = err.getvalue()
    data = b""
    if rec["rc"] == 0 and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            data = fh.read()
    rec["sha256"] = hashlib.sha256(data).hexdigest()
    rec["csv"] = data.decode("utf-8", "replace")
    return rec


def probes() -> dict[str, float]:
    """Unit costs of FixedReal operations and of one continued-fraction quotient."""
    from qdensity import diophantine
    from qdensity.fixed import parse_real

    out = {}
    bound = Fraction(3, 2)
    for F in (256, 512):
        x = parse_real("sqrt:2", F)
        stmts = {
            "mul": "x * x",
            "add": "x + x",
            "mul_int": "x.mul_int(123456789)",
            "certainly_le": "x.certainly_le(bound)",
            "round_nearest": "x.round_nearest()",
        }
        for op, stmt in stmts.items():
            number = 5000
            times = timeit.Timer(stmt, globals={"x": x, "bound": bound}).repeat(5, number)
            out[f"fixed.{op}_ns.F{F}"] = statistics.median(times) / number * 1e9
    x = parse_real("sqrt:2", 512)
    quotients = len(diophantine.continued_fraction(x, 1 << 20).quotients)
    times = timeit.Timer(lambda: diophantine.continued_fraction(x, 1 << 20)).repeat(5, 20)
    out["diophantine.cf_probe_quotient_us"] = statistics.median(times) / (20 * quotients) * 1e6
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    import numpy
    import qdensity
    from qdensity import harness

    calls = spec["calls"]
    work = spec["work_dir"]
    out_path = os.path.join(work, f"out-{os.getpid()}.csv")
    trace = spec["trace"]
    passes = []
    layer = []
    spans = None  # the first traced pass's spans; all passes together run to tens of MB
    started = perf_counter()
    while True:
        elapsed = perf_counter() - started
        if len(passes) >= spec["min_passes"]:
            typical = statistics.median(p["seconds"] for p in passes)
            if elapsed + typical > spec["seconds"] or elapsed > spec["max_seconds"]:
                break
        traced = trace and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        undo = tracer.install(qdensity) if traced else []
        recs = []
        try:
            for i, argv in enumerate(calls):
                if tracer is not None:
                    tracer.call = len(passes) * len(calls) + i
                recs.append(run_call(harness.main, argv, out_path))
        finally:
            tracing.restore(undo)
        if tracer is not None:
            layer.append(tracing.pass_metrics(tracer, tuple(spec["dominant"])))
            if spans is None:
                spans = [[s.sid, s.name, round(s.start, 7), round(s.end, 7), s.parent, s.thread, s.call]
                         for s in tracer.spans]
        if passes:  # later passes are checked through the first pass's digests
            for rec in recs:
                del rec["csv"], rec["stderr"]
        passes.append({"traced": traced, "seconds": sum(r["seconds"] for r in recs), "calls": recs})
    if os.path.exists(out_path):
        os.remove(out_path)

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if trace:
        result["layer"] = tracing.median_metrics(layer)
        result["probes"] = probes()
        spans_path = os.path.join(work, spec["spans_file"])
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(tracing.Span._fields), "spans": spans}, fh, separators=(",", ":"))
        result["spans_file"] = spans_path
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
