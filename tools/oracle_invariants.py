"""Check the oracle against its signed-permutation and scaling invariants up to T = 2000.

    python tools/oracle_invariants.py

Runs the checks of ``TestOracleInvariants`` in ``tests/test_solver.py`` with
``count_values_grid`` on the grid T = 250, 500, 1000, 2000 (delta 1/8, the
standard form, F = 256) for two fixed shifts, far past the T <= 40 of the
tests:
  - a signed permutation P, (P v)_i = s_i * v_{perm[i]}, maps the ball and
    Z^3 onto themselves, so the form Q(P v) with the shift P^-1 xi has the
    same count and minimum at every T, and its argmin maps through P onto
    the argmin of Q, or onto a point with the same residual where the
    minimum is tied (the lexicographic tie-break does not commute with P);
  - scaling (Q, t, delta) by c = 2 and c = 3 keeps the count, keeps the
    argmin or moves it to a point whose certified residual overlaps it, and
    scales the minimum by c within 1e-12 relative (each rounding of the
    certified midpoint moves by a few ulps of 2^-256).

Prints one line per check with the counts at each T and ``ok`` or what
differs, and exits 1 if any check fails.  A failure is a fault in the oracle
(its E bound, its band or its ball clipping), to be reported with the
smallest T that shows it; the comparisons are not to be loosened.  Fourteen
sweeps of the disc at T = 2000 take about 50 s on 2 vCPU; the swaps that
make every chord quadratic take the longest.  Imports the package from
``src/``; needs numpy.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from qdensity import (  # noqa: E402
    ShiftVector,
    TernaryForm,
    count_values_grid,
    evaluate_shifted,
    parse_real,
    standard_form,
)

F = 256
GRID = (250, 500, 1000, 2000)
DELTA = 0.125
SHIFTS = [("sqrt:2 sqrt:3 1/2", "dec:0.7"), ("surd:1,1,2,5 0/1 0/1", "dec:0.7")]
# (perm, sign): swap v2 and v3 (every chord quadratic), swap v1 and v2,
# negate v3, and a signed 3-cycle
PERMUTATIONS = [((0, 2, 1), (1, 1, 1)), ((1, 0, 2), (1, 1, 1)), ((0, 1, 2), (1, 1, -1)),
                ((1, 2, 0), (-1, 1, -1))]
SCALES = (2, 3)


def residual(form, xi, t, v):
    return abs(evaluate_shifted(form, xi, v) - t)


def residual_key(form, xi, t, v):
    """The oracle's key for v: the exact residual, or its certified midpoint."""
    r = residual(form, xi, t, v)
    return r.exact if r.exact is not None else r.midpoint()


def permuted(form, xi, perm, sign):
    """Q(P v) and P^-1 xi, so that Q(P v + xi) = Q'(v + xi') on the same ball."""
    gram = [[0] * 3 for _ in range(3)]
    comps: list = [None] * 3
    for i in range(3):
        comps[perm[i]] = xi.components()[i] if sign[i] > 0 else -xi.components()[i]
        for j in range(3):
            gram[perm[i]][perm[j]] = sign[i] * sign[j] * form.gram[i][j]
    return TernaryForm.from_rows(gram), ShiftVector(*comps)


def sweep(form, xi, t, delta):
    return count_values_grid(form, xi, t, GRID, delta, cap=max(GRID))


def check_permutation(form, xi, t, base, perm, sign) -> list[str]:
    moved, xi_p = permuted(form, xi, perm, sign)
    faults = []
    for T, res, res_p in zip(GRID, base, sweep(moved, xi_p, t, DELTA)):
        if (res_p.count, res_p.min_residual) != (res.count, res.min_residual):
            faults.append(f"T={T}: count {res.count} vs {res_p.count}, "
                          f"min {res.min_residual!r} vs {res_p.min_residual!r}")
            continue
        mapped = tuple(sign[i] * res_p.argmin[perm[i]] for i in range(3))
        if mapped != res.argmin and (residual_key(form, xi, t, mapped)
                                     != residual_key(form, xi, t, res.argmin)):
            faults.append(f"T={T}: argmin {res.argmin} vs mapped {mapped}")
    return faults


def check_scaling(form, xi, t, base, c) -> list[str]:
    scaled = TernaryForm.from_rows([[c * g for g in row] for row in form.gram])
    faults = []
    for T, res, res_c in zip(GRID, base, sweep(scaled, xi, t.mul_int(c), c * DELTA)):
        if res_c.count != res.count:
            faults.append(f"T={T}: count {res.count} vs {res_c.count}")
        if res_c.argmin != res.argmin and not (residual(form, xi, t, res.argmin)
                                               - residual(form, xi, t, res_c.argmin)).contains_zero():
            faults.append(f"T={T}: argmin {res.argmin} vs {res_c.argmin}, residuals apart")
        want = c * res.min_residual
        if abs(res_c.min_residual - want) > max(1e-12 * abs(want), 1e-15):
            faults.append(f"T={T}: min {res_c.min_residual!r} vs {c} * {res.min_residual!r}")
    return faults


def main() -> int:
    form = standard_form()
    failed = 0
    started = time.perf_counter()
    for xi_text, t_text in SHIFTS:
        xi = ShiftVector(*(parse_real(lit, F) for lit in xi_text.split()))
        t = parse_real(t_text, F)
        base = sweep(form, xi, t, DELTA)
        counts = " ".join(f"T={T}:{res.count}" for T, res in zip(GRID, base))
        checks = ([(f"permutation {perm} sign {sign}",
                    lambda p=perm, s=sign: check_permutation(form, xi, t, base, p, s))
                   for perm, sign in PERMUTATIONS]
                  + [(f"scaling c={c}", lambda c=c: check_scaling(form, xi, t, base, c))
                     for c in SCALES])
        for name, check in checks:
            faults = check()
            failed += bool(faults)
            print(f"xi=({xi_text}) t={t_text} delta={DELTA} {name}: {counts} "
                  + ("ok" if not faults else "FAIL " + "; ".join(faults)), flush=True)
    print(f"{failed} failed, {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
