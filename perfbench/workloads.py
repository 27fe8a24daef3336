"""Workload definitions, the seeded input generator and the answer checks.

A workload is a fixed list of ``qdensity`` CLI calls.  Shifts and sizes are
constants, so the work in one pass does not depend on the seed; the seed only
picks the dyadic reference point ``v0`` of ``orbit``, the dyadic target ``t``
of ``solve`` and ``oracle``, and the ``--seed`` of ``lemmas``.

Every call's CSV is reduced to an answer record (the numbers a user reads) and
a sha256 of its bytes.  The checks here are independent of the package: they
recompute what they can with the standard library and numpy, and compare the
rest against the reference file.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import Decimal, localcontext
from fractions import Fraction

DEFAULT_SEED = 1
MIXED_SHIFT = "sqrt:2 sqrt:3 1/2"
SQRT2_SHIFT = "sqrt:2 0/1 0/1"

WHY = {
    "orbit": "count-orbit at F=256 and F=512: the pure-Python orbit-hit loop, "
             "which an orbit kernel would replace, is over 90% of a pass",
    "solve": "solve on two shifts plus solver-mode exponent: per-step FixedReal work, "
             "2F re-verification and the direction scan; the main user of fixed and isometries",
    "oracle": "oracle-count with a 2-thread pool, oracle-mode exponent and a general form: "
              "the numpy ball sweep an O(T^2) oracle would replace",
    "lemmas": "default 360-case verify-lemmas plus a long sum: weyl_sum and the sum-min "
              "bounds, the other user of weyl_sums",
}
WORKLOADS = tuple(WHY)

# Share of harness.main that the named spans should cover in a traced run.
DOMINANT = {
    "orbit": ("weyl_sums.count_orbit_hits",),
    "solve": ("solver.find_solutions", "solver.estimate_critical_exponent"),
    "oracle": ("solver.count_values_bruteforce",),
    "lemmas": ("weyl_sums.weyl_sum",),
}


def splitmix64(seed: int):
    """Version-independent 64-bit generator (Steele, Lea and Flood's SplitMix64)."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def dyadic_decimal(k: int, den: int) -> str:
    """k/den for a power-of-two den, written as the finite decimal it equals."""
    digits = den.bit_length() - 1
    scaled = abs(k) * 5**digits
    whole, frac = divmod(scaled, 10**digits)
    return f"{'-' if k < 0 else ''}{whole}.{frac:0{digits}d}"


def inputs_for(seed: int) -> dict:
    """The seeded inputs shared by all workloads."""
    draw = splitmix64(seed)
    return {
        "v0": (next(draw) % 1024, next(draw) % 1024),  # numerators over 1024
        "t": next(draw) % 97 - 48,                      # numerator over 64, |t| <= 3/4
        "lemma_seed": next(draw),
    }


def sampler(inp: dict, threads: int) -> list[list[str]]:
    """Small calls, about 40 ms together, that touch every layer.

    Every workload ends its pass with them, so that every per-layer metric is
    measured on every workload instead of reading a constant zero where the
    workload's own calls skip a layer.
    """
    t = f"{inp['t']}/64"
    v0 = f"{inp['v0'][0]}/1024 {inp['v0'][1]}/1024"
    orbit = ["count-orbit", "--xi", SQRT2_SHIFT, "--v0", v0, "--nu", "0.2"]
    return [
        orbit + ["--T", "1000,2000", "--threads", str(threads)],
        orbit + ["--T", "2000", "--precision", "512"],
        ["solve", "--xi", MIXED_SHIFT, f"--t={t}", "--T", "10000", "--nu", "0.1", "--q-max", "1000"],
        ["exponent", "--mode", "solver", "--xi", SQRT2_SHIFT, f"--t={t}", "--T", "100,10000"],
        ["oracle-count", "--xi", SQRT2_SHIFT, f"--t={t}", "--T", "10", "--delta", "0.25"],
        ["verify-lemmas", "--seed", str(inp["lemma_seed"]), "--n-list", "1", "--T-list", "100",
         "--betas", "2"],
    ]


def calls_for(workload: str, seed: int, threads: int) -> list[list[str]]:
    """The CLI argument lists of one pass, in order."""
    inp = inputs_for(seed)
    return _own_calls(workload, inp, threads) + sampler(inp, threads)


def _own_calls(workload: str, inp: dict, threads: int) -> list[list[str]]:
    t = f"{inp['t']}/64"
    if workload == "orbit":
        v0 = f"{inp['v0'][0]}/1024 {inp['v0'][1]}/1024"
        base = ["count-orbit", "--xi", SQRT2_SHIFT, "--v0", v0, "--nu", "0.2"]
        return [base + ["--T", "400000"], base + ["--T", "120000", "--precision", "512"]]
    if workload == "solve":
        return [
            ["solve", "--xi", SQRT2_SHIFT, f"--t={t}", "--T", "250000000", "--nu", "0.1"],
            ["solve", "--xi", MIXED_SHIFT, f"--t=dec:{dyadic_decimal(inp['t'], 64)}",
             "--T", "25000000", "--nu", "0.1"],
            ["exponent", "--mode", "solver", "--xi", SQRT2_SHIFT, f"--t={t}",
             "--T", "10000,1000000,100000000"],
        ]
    if workload == "oracle":
        return [
            ["oracle-count", "--xi", SQRT2_SHIFT, f"--t={t}", "--T", "80,100,120,140",
             "--delta", "0.25", "--threads", str(threads)],
            ["exponent", "--mode", "oracle", "--xi", MIXED_SHIFT, f"--t={t}",
             "--T", "20,40,80,160"],
            ["oracle-count", "--form", "1 1 -1 0 0 0", "--xi", MIXED_SHIFT, f"--t={t}",
             "--T", "120", "--delta", "0.25"],
        ]
    if workload == "lemmas":
        s = str(inp["lemma_seed"])
        return [
            ["verify-lemmas", "--seed", s],
            ["verify-lemmas", "--seed", s, "--n-list", "1,2", "--T-list", "12000",
             "--betas", "5", "--M", "5"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------


def read_rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text, newline="")))


def answers(argv: list[str], csv_text: str) -> dict:
    """The numbers a user reads from one call's CSV."""
    rows = read_rows(csv_text)
    sub = argv[0]
    if sub == "count-orbit":
        return {"n_phi": [r["n_phi"] for r in rows]}
    if sub == "solve":
        resid = min((float(r["residual"]) for r in rows), default=None)
        return {"count": len(rows), "min_residual": None if resid is None else repr(resid)}
    if sub == "oracle-count":
        return {"rows": [[r["T"], r["count"], r["min_residual"], r["v1"], r["v2"], r["v3"]]
                         for r in rows]}
    if sub == "exponent":
        return {"rows": [[r["T"], r["min_residual"], r["omega_hat"]] for r in rows]}
    if sub == "verify-lemmas":
        return {"rows": len(rows), "pass": sum(r["pass"] == "1" for r in rows)}
    raise ValueError(f"no answer record for {sub!r}")


# ----------------------------------------------------------------------
# independent checks
# ----------------------------------------------------------------------

_PREC = 60


def _opt(argv: list[str], name: str) -> str:
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    raise KeyError(name)


def _real(lit: str) -> Decimal:
    """The literals this benchmark passes, at 60 significant digits."""
    if lit.startswith("sqrt:"):
        return Decimal(int(lit[5:])).sqrt()
    if lit.startswith("dec:"):
        return Decimal(lit[4:])
    num, den = lit.split("/")
    return Decimal(int(num)) / Decimal(int(den))


def _form_value(gram, u) -> Decimal:
    total = Decimal(0)
    for i in range(3):
        for j in range(3):
            if gram[i][j]:
                total += gram[i][j] * u[i] * u[j]
    return total


_STANDARD = ((0, 0, -2), (0, 1, 0), (-2, 0, 0))


def _gram(argv: list[str]):
    try:
        entries = [Fraction(x) for x in _opt(argv, "--form").split()]
    except KeyError:
        return _STANDARD
    a11, a22, a33, a12, a13, a23 = (Decimal(f.numerator) / Decimal(f.denominator) for f in entries)
    return ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _meta(stderr: str) -> dict:
    out = {}
    for line in stderr.splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            out[key] = value
    return out


def _orbit_recount(v0_num: tuple[int, int], T: int, delta: float) -> tuple[int, int]:
    """(certain hits, ambiguous points) of the sqrt(2) orbit, from 64-bit phases.

    Wraparound uint64 arithmetic is exact mod 1 for alpha truncated to 64
    fractional bits; the truncation moves the phase at step m by less than
    (m^2 + 2m) * 2**-64, and points within that of the threshold are ambiguous.
    """
    import numpy as np

    a64 = math.isqrt(2 << 128) - (1 << 64)          # frac(sqrt 2) * 2**64, truncated
    m = np.arange(1, T + 1, dtype=np.uint64)
    A = np.uint64(a64)
    x = (m * A) * np.uint64(2)
    y = (m * m) * A
    vx = np.uint64(v0_num[0] << 54)                  # k/1024 as a 64-bit phase
    vy = np.uint64(v0_num[1] << 54)
    dx = (x - vx).view(np.int64).astype(np.float64) * 2.0**-64
    dy = (y - vy).view(np.int64).astype(np.float64) * 2.0**-64
    d = np.hypot(dx, dy)
    eps = 2.0 * (T * T + 2 * T) * 2.0**-64 + 1e-15
    certain = int(np.count_nonzero(d <= delta - eps))
    ambiguous = int(np.count_nonzero(np.abs(d - delta) < eps))
    return certain, ambiguous


def check_call(argv: list[str], csv_text: str, stderr: str) -> list[str]:
    """Problems found in one call's output without consulting the reference."""
    rows = read_rows(csv_text)
    sub = argv[0]
    problems: list[str] = []
    with localcontext() as ctx:
        ctx.prec = _PREC
        if sub == "count-orbit":
            v0 = tuple(int(p.split("/")[0]) for p in _opt(argv, "--v0").split())
            for r in rows:
                T, delta, n = int(r["T"]), float(r["delta"]), int(r["n_phi"])
                if not 0.5 <= float(r["ratio"]) <= 2.0:
                    problems.append(f"area-law ratio {r['ratio']} at T={T}")
                certain, ambiguous = _orbit_recount(v0, T, delta)
                if not certain <= n <= certain + ambiguous:
                    problems.append(f"n_phi={n} at T={T}, 64-bit recount {certain}+{ambiguous}")
        elif sub == "solve":
            problems += _check_solve(argv, rows, _meta(stderr))
        elif sub in ("oracle-count", "exponent"):
            problems += _check_oracle_like(argv, rows)
        elif sub == "verify-lemmas":
            for r in rows:
                if r["pass"] != "1" or float(r["s2"]) > float(r["differencing_bound"]) * (1 + 1e-6):
                    problems.append(f"lemma row failed: {r}")
    return problems


def _check_solve(argv, rows, meta) -> list[str]:
    if "transform" not in meta or "count" not in meta:
        return [f"missing header lines on stderr: {sorted(meta)}"]
    problems = []
    T = int(_opt(argv, "--T"))
    delta = float(T) ** -float(_opt(argv, "--nu"))
    cap = Decimal(32.0 * delta)
    xi = [_real(p) for p in _opt(argv, "--xi").split()]
    M = _matrix(meta["transform"])
    xi_t = [sum(xi[i] * M[i][j] for i in range(3)) for j in range(3)]
    t = _real(_opt(argv, "--t"))
    if int(meta["count"]) != len(rows):
        problems.append(f"header count {meta['count']} != {len(rows)} rows")
    if not rows:
        problems.append("solve found no solution")
    seen = set()
    m_max = int(math.sqrt(T))
    for r in rows:
        m, a, b = int(r["m"]), int(r["a"]), int(r["b"])
        v = (int(r["v1"]), int(r["v2"]), int(r["v3"]))
        if v != (0, a, b - m * a) or not 1 <= m <= m_max or v in seen:
            problems.append(f"inconsistent row {r}")
        seen.add(v)
        if v[0] ** 2 + v[1] ** 2 + v[2] ** 2 > T * T:
            problems.append(f"|v| > T for {v}")
        value = _form_value(_STANDARD, [v[i] + xi_t[i] for i in range(3)])
        resid = abs(value - t)
        if resid > cap or not _close(float(resid), float(r["residual"])):
            problems.append(f"residual of {v}: {resid} vs {r['residual']}")
    return problems


def _matrix(text: str):
    """Parse the printed transform, e.g. [[1, 0, 0], [0, 1, 0], [0, 0, 1]]."""
    inner = text.strip()[2:-2]
    return [[int(x) for x in row.split(",")] for row in inner.split("], [")]


def _check_oracle_like(argv, rows) -> list[str]:
    problems = []
    xi = [_real(p) for p in _opt(argv, "--xi").split()]
    t = _real(_opt(argv, "--t"))
    gram = _gram(argv)
    prev_min = math.inf
    prev_count = -1
    for r in rows:
        T = int(r["T"])
        min_res = float(r["min_residual"])
        if min_res > prev_min:
            problems.append(f"min residual grew at T={T}")
        prev_min = min_res
        if argv[0] == "exponent":
            if r["saturated"] == "1":
                continue
            if not _close(float(r["omega_hat"]), -math.log(min_res) / math.log(T), 1e-12):
                problems.append(f"omega_hat inconsistent at T={T}")
            continue
        count = int(r["count"])
        v = [int(r["v1"]), int(r["v2"]), int(r["v3"])]
        if count < prev_count:
            problems.append(f"count shrank at T={T}")
        prev_count = count
        if sum(c * c for c in v) > T * T:
            problems.append(f"argmin {v} outside the ball at T={T}")
        resid = abs(_form_value(gram, [v[i] + xi[i] for i in range(3)]) - t)
        if not _close(float(resid), min_res, 1e-12):
            problems.append(f"argmin residual {resid} vs {min_res} at T={T}")
        if min_res <= float(r["delta"]) and count < 1:
            problems.append(f"count 0 below a residual {min_res} at T={T}")
    return problems
