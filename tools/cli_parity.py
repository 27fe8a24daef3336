"""Compare the CLI output of the working tree with that of a git revision.

    python tools/cli_parity.py [REV]

Extracts ``src/`` of REV (default HEAD) with ``git archive`` into a temporary
directory and runs a fixed list of ``python -m qdensity`` calls once against
it and once against the working tree's ``src/``, each call in its own
subprocess and its own empty working directory, JOBS calls at a time.  For
every call it compares the stdout bytes, the stderr text and the exit code; a
call that outlives TIMEOUT_S seconds is killed and reads as exit code
``timeout``.  It prints a summary and every difference, and exits 1 if any
call differs.

The call list:
  - the examples in README.md, written to stdout instead of ``--out``
  - ``perfbench.workloads.calls_for`` for every workload and seeds 0-3
    (perfbench is only imported, never run or written to)
  - solve, solver-mode exponent, count-orbit, kappa and verify-lemmas configs
    drawn with a fixed seed; the count-orbit and verify-lemmas T grids cross
    multiples of the 4096-step block of the orbit scan and the Weyl sum, the
    kappa calls take an ``--alpha`` literal or an ``--xi`` shift with a
    ``--q-max`` next to a Fibonacci number up to 10^12 (the golden ratio's
    denominators, where the expansion length is tightest), and the
    verify-lemmas calls draw ``--precision`` 64-512, ``--n-list`` up to 100,
    ``--betas``, ``--M`` and ``--seed``
  - oracle-count and oracle-mode exponent calls at T 4-20 with a drawn
    ``--form``: definite, degenerate (rank one or two) or indefinite, so every
    form validation message and the oracle's answer on each accepted form
    are compared
  - oracle-count and oracle-mode exponent calls whose T grid reaches 64-120,
    so the disc sweep spans several blocks; the oracle-count grids are
    unsorted and may repeat a T, and every fourth call has a ``--cap`` below
    the largest T, so the refusal text is compared
  - ZERO_ALPHA_CALLS: zero-alpha solver-mode exponent calls with a huge
    ``--scan-c``, where every step has the same midpoint: ``--xi "0/1 1/2
    0/1" --t 0/1`` at T = 100 (``--scan-c`` 1e308 and 1e15), at T = 100000
    and on the grid 100000,200000 (``--scan-c 1e15``, norm cuts near step
    2T + 1), and ``--xi "surd:0,1,1<80 zeros>,2 sqrt:3 1/3" --t 0/1 --T
    100,10000 --scan-c 1e6``, an inexact alpha whose mantissa is 0, and
    ``--xi "0/1 2000001/2 0/1" --t 0/1 --T 999999 --scan-c 1e15``, whose
    fixed offset |a| = 10^6 exceeds T, so the scan is cut at 0 steps
  - one call per branch of the solver's lifted shift: solve and solver-mode
    exponent calls whose target has a radius (``1/3``, ``dec:``, ``sqrt:``)
    at precisions 64-256, and solver-mode exponent calls with a zero alpha
    and a nonzero target (refused) or a zero target (the shift as it is)
  - solver-mode exponent calls at T up to 10^12: ``sqrt:2 0/1 0/1`` with
    ``--t=0/1`` at 10^12, the grid 10^8, 10^10, 10^12 on
    ``surd:1,1,2,5 sqrt:7 1/3``, and ``sqrt:2 sqrt:3 1/2`` with
    ``--t=dec:0.7`` at 10^12, and ``+-5e307 0/1 0/1`` at T = 1.5e308, an
    alpha near float64 range
  - one verify-lemmas call per phase refusal at precision 64: the
    differencing bound, ``sum_min`` and the Weyl phase
  - verify-lemmas calls with 100-130 lanes (Weyl sums) per T, whose T grids
    cross the lane kernel's block edge and the 4096-step sum-min block, and
    ``verify-lemmas --n-list 1 --T-list 3 --betas 4097``, 8194 lanes, past
    the 8192 steps times lanes of one lane block, so a block is one step
  - verify-lemmas at precisions 1023-4096, past the float64 range of 2^F,
    and solve, solver-mode exponent and count-orbit at a T just inside
    float64 range, at the first T past it and at 10^309, where the scan
    length scan_c*sqrt(T) or T**-nu cannot be formed in float64
  - oracle-count and oracle-mode exponent calls whose threshold is attained
    exactly, so points land on it and take the oracle's certified test
  - solve and verify-lemmas calls with a ``--config`` file, whose text the
    call carries and writes into its working directory before the run: the
    same keys as a file and as flags, a flag overriding the file, and the
    file's refusals (an unknown key, a line without ``=``, a bad value, a
    repeated key, an empty ``n_list`` and a missing file)
  - direction overrides: solve with ``--a``/``--c`` for a coprime irrational
    pair ``(1, 1)``, the non-coprime ``(2, 4)``, ``--a 1`` alone and a
    rational combination; kappa with ``--xi`` and ``--a 1 --c 1``, with
    ``--a 1`` alone, and ``--alpha`` next to ``--xi``; and ``kappa --xi
    "sqrt:3 sqrt:2 1/3" --q-max 100000`` with and without ``--a 1 --c=-3``,
    the non-identity direction its scan picks
  - NEAR_INTEGER_CALLS: solve and kappa on ``--xi "sqrt:1000000000001 sqrt:2
    0"``, whose direction (1, 0) lies within 5e-7 of an integer and has no
    convergent with 2 <= q <= q_max, so the scan passes over it; and the
    same kappa call with ``--q-max 1``, refused before the scan
  - one call per input refusal: verify-lemmas with an empty ``--n-list`` or
    ``--T-list``, count-orbit with a ``--precision`` past 65536 (refused
    before any literal is parsed, so nothing is allocated), and solver-mode
    exponent with a nonpositive ``--scan-c``, and solve and count-orbit with
    ``--T 4 --nu 0.25``, whose nu lies in (0, 1/2) but whose delta
    4**-0.25 ~ 0.707 does not
  - one call per input path the calls above miss: bare integers and
    perfect-square roots (``--xi "3 sqrt:4 sqrt:0"``, ``--t=-2``); each
    literal refusal (``--t=``, ``surd:1,2,3``, ``sqrt:-2``, ``surd:1,1,0,2``,
    ``dec:1e5``, ``1/0``, ``abc``); a five-entry ``--form``; ``--precision
    63``; ``--delta nan``; ``--mode x``; ``--T ,`` and ``--T 3``; solve with
    ``--T 100,200``, ``--delta 0.7``, ``--nu 0.7``, neither delta nor nu,
    ``--scan-c 0`` and the nu warning (``--nu 0.2``); ``--xi "1 2"`` and
    ``--v0 1``; kappa without ``--alpha`` or ``--xi``; oracle-count without
    ``--delta`` and with ``--delta -1``; solve and solver-mode exponent
    whose scan is shorter than one step (``--T 4 --scan-c 0.1``)
  - solve, count-orbit and oracle-count calls given both delta and nu, as
    flags and as a config file plus a flag, and oracle-count given nu alone
  - count-orbit at ``--delta`` 1e-162, 1e-163 and 1e-300, with no hit and
    with every step a hit, where the area pi*T*delta^2 under its ratio is
    subnormal or underflows to 0
  - solver-mode exponent with a non-standard form, as ``--form`` and from a
    config file, and with the standard literal ``0 1 0 0 -2 0``
  - the README examples and one refused run with ``--out out.csv``, and a
    count-orbit run whose ``--out`` cannot be written: ``missing/out.csv``
    (no such directory) and ``.`` (a directory); the bytes of out.csv, when
    the run writes one, are appended to the stdout the call compares

Needs only the standard library and git; about three minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 30
JOBS = 2
SEEDS = range(4)
DRAW_SEED = 20240805
DRAWN_CALLS = 60   # of each of solve and solver-mode exponent
DRAWN_ORBIT_CALLS = 40
DRAWN_KAPPA_CALLS = 30
DRAWN_LEMMA_CALLS = 30
DRAWN_FORM_CALLS = 30
DRAWN_GRID_CALLS = 24

ZERO_ALPHA_CALLS = [
    ["exponent", "--mode", "solver", "--xi", xi, "--t", "0/1", "--T", T, "--scan-c", scan_c]
    for xi, T, scan_c in (("0/1 1/2 0/1", "100", "1e308"), ("0/1 1/2 0/1", "100", "1e15"),
                          ("0/1 1/2 0/1", "100000", "1e15"),
                          ("0/1 1/2 0/1", "100000,200000", "1e15"),
                          (f"surd:0,1,1{'0' * 80},2 sqrt:3 1/3", "100,10000", "1e6"),
                          ("0/1 2000001/2 0/1", "999999", "1e15"))
]

LIFT_CALLS = [
    [*head, "--xi", "sqrt:2 sqrt:3 1/2", f"--t={t}", "--precision", F, "--T", T, *rest]
    for t in ("1/3", "dec:0.7", "sqrt:3")
    for F in ("64", "128", "256")
    for head, T, rest in ((["solve"], "1000000", ["--delta", "0.2", "--q-max", "1000"]),
                          (["exponent", "--mode", "solver"], "100,10000,1000000", []))
] + [["exponent", "--mode", "solver", "--xi", "0/1 1/2 1/3", f"--t={t}", "--T", "100,10000"]
     for t in ("1/3", "0/1")]

# solver-mode exponent far along the orbit, where the residual filter drops
# nearly every step; a per-step walk takes about 6 s per 10^12 (2 vCPU)
REACH_CALLS = [
    ["exponent", "--mode", "solver", "--xi", xi, f"--t={t}", "--T", T]
    for xi, t, T in (("sqrt:2 0/1 0/1", "0/1", "1000000000000"),
                     ("surd:1,1,2,5 sqrt:7 1/3", "0/1", "100000000,10000000000,1000000000000"),
                     ("sqrt:2 sqrt:3 1/2", "dec:0.7", "1000000000000"))
] + [
    # an alpha near float64 range, where the filter bounds nothing
    ["exponent", "--mode", "solver", "--xi", f"{sign}5{'0' * 307} 0/1 0/1", "--t=0/1",
     "--T", "15" + "0" * 307]
    for sign in ("", "-")
]

PHASE_REFUSAL_CALLS = [
    ["verify-lemmas", "--precision", "64", *rest]
    for rest in (["--n-list", "1", "--T-list", "10000000000", "--betas", "1"],
                 ["--n-list", "1", "--T-list", "1048576", "--M", "32768"],
                 ["--n-list", "100", "--T-list", "20000"])
]

# verify-lemmas with 100 or more lanes per T (2 alphas x n_list x betas); a
# lane block holds 8192 // lanes steps, and each grid crosses that edge
LANE_CALLS = [
    ["verify-lemmas", "--n-list", n_list, "--betas", betas, "--T-list", grid, *rest]
    for n_list, betas, grid, rest in (
        ("1,3,50", "20", "67,68,69,137", []),                               # 120 lanes, 68 steps
        ("1,2,-3,0,7", "13", "62,63,64,4097", ["--precision", "96"]),       # 130 lanes, 63 steps
        ("2,50", "25", "80,81,82,163", ["--precision", "512", "--M", "3"]),  # 100 lanes, 81 steps
        ("1", "4097", "3", []),                                             # 8194 lanes, 1 step
    )
]

# precisions whose 2^F float64 cannot hold, and T at and past float64 range
# for the scan length scan_c*sqrt(T) and for T**-nu
BIG_T = str(2**1024 - 2**970)
WIDE_CALLS = [
    ["verify-lemmas", "--precision", F, "--n-list", "1", "--T-list", "100", "--betas", "1"]
    for F in ("1023", "1024", "2048", "4096")
] + [["verify-lemmas", "--precision", "2048", "--n-list", "1,3", "--T-list", "4097", "--betas", "2"]] + [
    [*head, "--xi", "sqrt:2 0/1 0/1", "--T", T, *rest]
    for T in (str(2**1024 - 2**970 - 1), BIG_T, "1" + "0" * 309)
    for head, rest in ((["solve"], ["--delta", "0.1"]), (["solve"], ["--nu", "0.1"]),
                       (["exponent", "--mode", "solver"], []), (["count-orbit"], ["--nu", "0.1"]))
]

INPUT_REFUSAL_CALLS = [
    ["verify-lemmas", "--n-list=", "--T-list", "100"],
    ["verify-lemmas", "--n-list", "1", "--T-list=,"],
] + [["count-orbit", "--xi", "sqrt:2 0 0", "--T", "4", "--delta", "0.1", "--precision", F]
     for F in ("65536", "65537", "100000000000000000000")
] + [["exponent", "--mode", "solver", "--xi", "sqrt:2 0/1 0/1", "--T", "4", f"--scan-c={c}"]
     for c in ("0", "-1")
] + [[sub, "--xi", "sqrt:2 0/1 0/1", "--T", "4", "--nu", "0.25"] for sub in ("solve", "count-orbit")]


# Q(v + xi) = v2^2 + v2 - 4*v1*v3 + 1/4 for xi = (0, 1/2, 0): every value is k + 1/4, so
# |Q - t| <= delta holds with equality on whole planes of points
EXACT_TIE_CALLS = [
    ["oracle-count", "--xi", "0 1/2 0", "--t", t, "--delta", "0.25", "--T", T, *rest]
    for t, T, rest in (("0", "12", []), ("1/2", "12", []), ("dec:0.5", "20,5,12", ["--precision", "64"]),
                       ("0", "12,6", ["--form=1 1 -1 0 0 0"]))
] + [["exponent", "--mode", "oracle", "--xi", "0 1/2 0", "--t", "1/4", "--T", "4,12", *rest]
     for rest in ([], ["--precision", "64"], ["--form=1 1 -1 0 0 0"])]

DIRECTION_XI = ["--xi", "sqrt:2 sqrt:3 1/2"]
SOLVE_HEAD = ["solve", *DIRECTION_XI, "--q-max", "1000"]
ORBIT_HEAD = ["count-orbit", "--xi", "sqrt:2 0 0", "--T", "100"]
INPUT_PATH_CALLS = [
    ["count-orbit", "--xi", "3 sqrt:4 sqrt:0", "--T", "100", "--delta", "0.1"],
] + [[*SOLVE_HEAD, f"--t={t}", "--T", "10000", "--delta", "0.2"]
     for t in ("-2", "", "surd:1,2,3", "sqrt:-2", "surd:1,1,0,2", "dec:1e5", "1/0", "abc")
] + [[*SOLVE_HEAD, "--T", T, *gap]
     for T, gap in (("100,200", ["--delta", "0.2"]), ("10000", ["--delta", "0.7"]), ("10000", ["--nu", "0.7"]),
                    ("10000", []), ("10000", ["--delta", "0.2", "--scan-c", "0"]), ("10000", ["--nu", "0.2"]))
] + [[*ORBIT_HEAD, *rest]
     for rest in (["--delta", "0.1", "--precision", "63"], ["--delta", "nan"], ["--delta", "0.1", "--v0", "1"])
] + [
    ["count-orbit", "--xi", "sqrt:2 0 0", "--T", ",", "--delta", "0.1"],
    ["count-orbit", "--xi", "sqrt:2 0 0", "--T", "3", "--delta", "0.1"],
    ["count-orbit", "--xi", "1 2", "--T", "100", "--delta", "0.1"],
    ["exponent", "--mode", "x", "--xi", "sqrt:2 0 0", "--T", "100"],
    ["oracle-count", "--form=1 1 -1 0 0", "--xi", "0 0 0", "--T", "4", "--delta", "0.1"],
    ["oracle-count", "--xi", "0 0 0", "--T", "4"],
    ["oracle-count", "--xi", "0 0 0", "--T", "4", "--delta", "-1"],
    ["kappa"],
] + [[*head, "--xi", "sqrt:2 0/1 0/1", "--T", "4", "--scan-c", "0.1", *rest]
     for head, rest in ((["solve"], ["--delta", "0.1"]), (["exponent", "--mode", "solver"], []))]
# delta and nu together are refused, and oracle-count refuses nu alone too
GAP_CALLS = [[*SOLVE_HEAD, "--T", "10000", "--delta", "0.1", "--nu", "0.7"],
             [*ORBIT_HEAD, "--delta", "0.1", "--nu", "5"],
             ["oracle-count", "--xi", "0 0 0", "--T", "4", "--delta", "0.1", "--nu", "5"],
             ["oracle-count", "--xi", "0 0 0", "--T", "4", "--nu", "0.1"]]
# the count-orbit ratio n_phi / (pi*T*delta^2) where the area is subnormal or 0
UNDERFLOW_CALLS = [["count-orbit", "--xi", xi, "--v0", "0 0", "--T", "5", "--delta", delta]
                   for xi in ("sqrt:2 0/1 0/1", "0 0 0") for delta in ("1e-162", "1e-163", "1e-300")]
# solver mode runs the standard form only
FORM_HEAD = ["exponent", "--mode", "solver", "--xi", "sqrt:2 0 0", "--T", "100,10000"]
SOLVER_FORM_CALLS = [[*FORM_HEAD, f"--form={form}"] for form in ("1 1 -1 0 0 0", "0 1 0 0 -2 0")]
DIRECTION_CALLS = [
    ["solve", *xi, "--T", "1000000", "--delta", "0.2", "--q-max", "1000", *pair]
    for xi, pair in ((DIRECTION_XI, ["--a", "1", "--c", "1"]), (DIRECTION_XI, ["--a", "2", "--c", "4"]),
                     (DIRECTION_XI, ["--a", "1"]), (["--xi", "1/2 sqrt:3 1/3"], ["--a", "1", "--c", "0"]))
] + [["kappa", *head, "--q-max", "1000"]
     for head in ([*DIRECTION_XI, "--a", "1", "--c", "1"], [*DIRECTION_XI, "--a", "1"],
                  ["--alpha", "sqrt:2", *DIRECTION_XI])
] + [["kappa", "--xi", "sqrt:3 sqrt:2 1/3", "--q-max", "100000", *pair] for pair in ([], ["--a", "1", "--c=-3"])]

NEAR_INTEGER_XI = ["--xi", "sqrt:1000000000001 sqrt:2 0"]
NEAR_INTEGER_CALLS = [["solve", *NEAR_INTEGER_XI, "--T", "10000", "--delta", "0.1"],
                      ["kappa", *NEAR_INTEGER_XI],
                      ["kappa", *NEAR_INTEGER_XI, "--q-max", "1"]]

SOLVE_KEYS = [("xi", "sqrt:2 sqrt:3 1/2"), ("t", "dec:0.7"), ("T", "1000000"), ("delta", "0.2"),
              ("q_max", "1000")]
LEMMA_KEYS = [("n_list", "1,3"), ("T_list", "100,5000"), ("betas", "2"), ("M", "2"), ("seed", "7"),
              ("precision", "96")]


def config_text(keys: list[tuple[str, str]]) -> str:
    return "# parity config\n\n" + "".join(f"{k} = {v}\n" for k, v in keys)


def flags(keys: list[tuple[str, str]]) -> list[str]:
    return [f"--{k.replace('_', '-')}={v}" for k, v in keys]


CONFIG = "run.cfg"
OUT = "out.csv"


def config_calls(head: list[str], keys: list[tuple[str, str]]) -> list[tuple[list[str], str | None]]:
    """(argv, text of CONFIG or None) for keys as flags, as a file, and as a file whose last
    key a flag overrides."""
    stale = keys[:-1] + [(keys[-1][0], "3")]
    return [(head + flags(keys), None),
            (head + ["--config", CONFIG], config_text(keys)),
            (head + ["--config", CONFIG] + flags(keys[-1:]), config_text(stale))]


CONFIG_CALLS = config_calls(["solve"], SOLVE_KEYS) + config_calls(["verify-lemmas"], LEMMA_KEYS) + [
    (["solve", "--config", CONFIG], config_text(SOLVE_KEYS) + "scan c = 2\n"),
    (["solve", "--config", CONFIG], config_text(SOLVE_KEYS) + "delta\n"),
    (["verify-lemmas", "--config", CONFIG], config_text(LEMMA_KEYS) + "betas = 0\n"),
    (["verify-lemmas", "--config", CONFIG], config_text([(k, "0" if k == "betas" else v) for k, v in LEMMA_KEYS])),
    (["verify-lemmas", "--config", CONFIG], config_text(LEMMA_KEYS[1:]) + "n_list =\n"),
    (["verify-lemmas", "--config", "missing.cfg"], None),
    ([*SOLVE_HEAD, "--T", "10000", "--config", CONFIG, "--delta", "0.1"], "nu = 0.7\n"),
    ([*ORBIT_HEAD, "--config", CONFIG, "--delta", "0.1"], "nu = 5\n"),
    ([*FORM_HEAD, "--config", CONFIG], "form = 1 1 -1 0 0 0\n"),
]


def readme_calls() -> list[list[str]]:
    """The `qdensity <subcommand> ...` example lines of README.md, without --out."""
    calls = []
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        for line in fh:
            if not re.match(r"qdensity [a-z]", line):
                continue
            argv = shlex.split(line)[1:]
            while "--out" in argv:
                i = argv.index("--out")
                del argv[i:i + 2]
            calls.append(argv)
    return calls


def out_calls() -> list[list[str]]:
    """The README examples and one refused run, each writing its CSV to OUT, and two runs
    whose --out cannot be written."""
    orbit = ["count-orbit", "--xi", "sqrt:2 0/1 0/1", "--v0", "0/1 0/1", "--T", "100", "--delta", "0.1"]
    return [argv + ["--out", OUT] for argv in readme_calls() + [["kappa"]]] + [
        orbit + ["--out", out] for out in ("missing/" + OUT, ".")]


def perfbench_calls() -> list[list[str]]:
    sys.dont_write_bytecode = True   # leave perfbench/ as it is
    sys.path.insert(0, ROOT)
    from perfbench import workloads

    return [argv for seed in SEEDS for w in workloads.WORKLOADS
            for argv in workloads.calls_for(w, seed, 2)]


def drawn_calls() -> list[list[str]]:
    """Random solve, exponent, count-orbit, kappa, verify-lemmas and oracle-count configs from a fixed seed."""
    rng = random.Random(DRAW_SEED)

    def real() -> str:
        kind = rng.randrange(5)
        if kind == 0:
            return f"sqrt:{rng.randrange(2, 10**6)}"
        if kind == 1:
            return "surd:{},{},{},{}".format(rng.randint(-50, 50), rng.randint(-50, 50),
                                             rng.randint(1, 50), rng.randint(2, 1000))
        if kind == 2:
            return f"{rng.randint(-300, 300)}/{1 << rng.randint(0, 10)}"
        if kind == 3:
            return f"dec:{rng.uniform(-3, 3):.{rng.randint(1, 12)}f}"
        return f"{rng.randint(-12, 12)}/{rng.randint(1, 12)}"

    def precision() -> list[str]:
        return ["--precision", rng.choice(["64", "256", "512"])]

    def common() -> list[str]:
        return ["--xi", " ".join(real() for _ in range(3)), f"--t={real()}", *precision(),
                "--scan-c", f"{rng.uniform(0.5, 5):.3g}"]

    def scannable() -> str:
        """A real() literal other than dec:, whose radius refuses orbits of a few thousand steps."""
        lit = real()
        while lit.startswith("dec:"):
            lit = real()
        return lit

    calls = []
    for _ in range(DRAWN_CALLS):
        T = rng.choice([10**4, 10**5, 10**6, 10**7, 10**8])
        gap = ["--nu", "0.1"] if rng.random() < 0.5 else ["--delta", f"{rng.uniform(0.01, 0.45):.3g}"]
        calls.append(["solve", *common(), "--T", str(T), *gap, "--q-max", "1000"])
    for _ in range(DRAWN_CALLS):
        grid = sorted(rng.sample([4, 100, 10**4, 10**5, 10**6, 10**7], rng.randint(1, 3)))
        calls.append(["exponent", "--mode", "solver", *common(), "--T", ",".join(map(str, grid))])
    block_edges = [4096 * j + d for j in (1, 2, 3) for d in (-1, 0, 1)]
    for _ in range(DRAWN_ORBIT_CALLS):
        v0 = " ".join(f"{rng.randint(-2048, 2048)}/1024" if rng.random() < 0.5 else real()
                      for _ in range(2))
        grid = sorted(rng.sample(block_edges + [10**5, 3 * 10**5], rng.randint(1, 3)))
        gap = (["--nu", f"{rng.uniform(0.1, 0.5):.3g}"] if rng.random() < 0.5
               else ["--delta", f"{rng.uniform(0.01, 0.45):.3g}"])
        calls.append(["count-orbit", "--xi", " ".join(scannable() for _ in range(3)), "--v0", v0,
                      *precision(), "--T", ",".join(map(str, grid)), *gap])
    fib = [1, 2]
    while fib[-1] <= 10**12:
        fib.append(fib[-1] + fib[-2])
    for i in range(DRAWN_KAPPA_CALLS):
        q_max = max(2, rng.choice(fib[:-1]) + rng.randint(-1, 1))
        alpha = (["--alpha", rng.choice(["surd:1,1,2,5", real()])] if i % 3 else
                 ["--xi", " ".join(real() for _ in range(3)), "--direction-bound", str(rng.randint(1, 3))])
        calls.append(["kappa", *alpha, *precision(), "--q-max", str(q_max)])
    for _ in range(DRAWN_LEMMA_CALLS):
        grid = sorted(rng.sample(block_edges + [2, 100], rng.randint(1, 3)))
        n_list = rng.sample(range(1, 101), rng.randint(1, 3))
        calls.append(["verify-lemmas", "--precision", rng.choice(["64", "96", "256", "512"]),
                      "--T-list", ",".join(map(str, grid)), "--n-list", ",".join(map(str, n_list)),
                      "--betas", str(rng.randint(1, 3)), "--M", str(rng.randint(1, 3)),
                      "--seed", str(rng.randrange(2**32))])
    for _ in range(DRAWN_FORM_CALLS):
        calls.append([*rng.choice([["oracle-count", "--delta", f"{rng.uniform(0.05, 1):.3g}"],
                                   ["exponent", "--mode", "oracle"]]),
                      f"--form={drawn_form(rng)}", "--xi", " ".join(real() for _ in range(3)),
                      f"--t={real()}", *precision(),
                      "--T", ",".join(map(str, sorted(rng.sample(range(4, 21), rng.randint(1, 3)))))])
    for i in range(DRAWN_GRID_CALLS):
        top = rng.randint(64, 120)
        grid = [top, *rng.sample(range(4, top), rng.randint(1, 3))]
        if i % 2:
            grid += rng.sample(grid, rng.randint(0, 1))
            rng.shuffle(grid)
            head = ["oracle-count", "--delta", f"{rng.uniform(0.01, 1):.3g}"]
        else:
            grid.sort()
            head = ["exponent", "--mode", "oracle"]
        form = ["--form=1 1 -1 0 0 0"] if rng.random() < 0.3 else []
        cap = ["--cap", str(rng.randint(4, top - 1))] if i % 4 == 3 else []
        calls.append([*head, *form, "--xi", " ".join(real() for _ in range(3)), f"--t={real()}",
                      *precision(), "--T", ",".join(map(str, grid)), *cap])
    return calls


def drawn_form(rng: random.Random) -> str:
    """'a11 a22 a33 a12 a13 a23' of a definite, a degenerate or an indefinite Gram."""
    def entry() -> str:
        return rng.choice(["1", "2", "3", "1/2", "5/3"])

    kind = rng.randrange(3)
    if kind == 0:     # definite: a diagonal of one sign
        sign = rng.choice(["", "-"])
        return " ".join([sign + entry() for _ in range(3)] + ["0"] * 3)
    if kind == 1:     # degenerate: u^T u of rank one, or a diagonal with a zero
        if rng.random() < 0.5:
            u = [rng.randint(-2, 2) for _ in range(3)]
            return " ".join(str(u[i] * u[j]) for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))
        diag = [entry(), "-" + entry(), "0"]
        rng.shuffle(diag)
        return " ".join(diag + ["0"] * 3)
    # indefinite on the diagonal; the off-diagonal entries may still change that
    diag = [entry(), entry(), "-" + entry()]
    rng.shuffle(diag)
    return " ".join(diag + [rng.choice(["0", "0", "1", "-1/2"]) for _ in range(3)])


def run(src: str, argv: list[str], config: str | None) -> tuple[str, bytes, str]:
    """(exit code, stdout bytes, stderr text) of one CLI call against src.

    A config text is written to CONFIG in the call's working directory first;
    the bytes of OUT, if the call writes it, are appended to stdout.
    """
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as cwd:
        if config is not None:
            with open(os.path.join(cwd, CONFIG), "w", encoding="utf-8") as fh:
                fh.write(config)
        try:
            proc = subprocess.run([sys.executable, "-m", "qdensity", *argv], cwd=cwd, env=env,
                                  capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return "timeout", exc.stdout or b"", (exc.stderr or b"").decode(errors="replace")
        stdout = proc.stdout
        out = os.path.join(cwd, OUT)
        if os.path.exists(out):
            with open(out, "rb") as fh:
                stdout += fh.read()
    # a traceback names the files of its own src/
    return str(proc.returncode), stdout, proc.stderr.decode(errors="replace").replace(src, "<src>")


def extract_src(rev: str, dest: str) -> str:
    archive = os.path.join(dest, "src.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", ROOT, "archive", rev, "src"], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)

    calls: list[tuple[list[str], str | None]] = []
    for call in ([(argv_, None) for argv_ in readme_calls() + perfbench_calls() + drawn_calls()
                  + ZERO_ALPHA_CALLS + LIFT_CALLS + REACH_CALLS + PHASE_REFUSAL_CALLS + LANE_CALLS
                  + WIDE_CALLS + INPUT_REFUSAL_CALLS
                  + EXACT_TIE_CALLS + DIRECTION_CALLS + NEAR_INTEGER_CALLS + INPUT_PATH_CALLS + GAP_CALLS
                  + UNDERFLOW_CALLS + SOLVER_FORM_CALLS + out_calls()]
                 + CONFIG_CALLS):
        if call not in calls:
            calls.append(call)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        old_src = extract_src(args.rev, tmp)
        new_src = os.path.join(ROOT, "src")
        jobs = [(src, *c) for c in calls for src in (old_src, new_src)]
        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(lambda job: run(*job), jobs))

    diffs = 0
    exits: dict[str, int] = {}
    for i, (call, config) in enumerate(calls):
        old, new = results[2 * i], results[2 * i + 1]
        exits[new[0]] = exits.get(new[0], 0) + 1
        if old == new:
            continue
        diffs += 1
        print(f"DIFF qdensity {shlex.join(call)}")
        if config is not None:
            print(f"  {CONFIG}: {config!r}")
        for side, (code, out, err) in (("rev", old), ("tree", new)):
            print(f"  {side}: exit {code}, stdout {out[:200]!r}, stderr {err[-300:]!r}")
    exit_list = ", ".join(f"{n} exit {c}" for c, n in sorted(exits.items()))
    print(f"{len(calls)} calls against {args.rev}: {len(calls) - diffs} identical, {diffs} differ "
          f"(working tree: {exit_list}); {time.perf_counter() - started:.0f} s")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
