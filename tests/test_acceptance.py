"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here, not tuned at runtime.
"""

import math
import time
from fractions import Fraction

import pytest

from qdensity import (
    FixedReal,
    PrecisionExhausted,
    ShiftVector,
    SL2Matrix,
    TorusPoint2,
    as_fixed,
    count_orbit_hits,
    count_values_grid,
    dirichlet_approx,
    estimate_critical_exponent,
    estimate_kappa,
    evaluate_shifted,
    find_solutions,
    iota,
    parse_real,
    phi,
    standard_form,
    sum_min,
    sum_min_explicit_bound,
    unipotent,
)
from qdensity.harness import Lcg64, main

STD = standard_form()


def report(num, label, started):
    print(f"ACCEPTANCE {num}: PASS - {label} ({time.perf_counter() - started:.2f}s)")


def _random_sl2(rng, bound=100):
    while True:
        a = rng.next_u64() % (2 * bound + 1) - bound
        c = rng.next_u64() % (2 * bound + 1) - bound
        if (a, c) == (0, 0) or math.gcd(abs(a), abs(c)) != 1:
            continue
        old_r, r, old_s, s, old_t, t = a, c, 1, 0, 0, 1
        while r != 0:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            old_s, old_t = -old_s, -old_t
        d, b = old_s, -old_t
        if max(abs(b), abs(d)) <= bound:
            return SL2Matrix(a, b, c, d)


def test_criterion_1_exact_algebra():
    started = time.perf_counter()
    rng = Lcg64(20250808)
    for _ in range(100):
        g, h = _random_sl2(rng), _random_sl2(rng)
        assert iota(g @ h).rows == (iota(g) @ iota(h)).rows

    for m in range(-1000, 1001):
        assert unipotent(m).inverse().rows == unipotent(-m).rows

    for _ in range(1000):
        m1 = rng.next_u64() % 2001 - 1000
        m2 = rng.next_u64() % 2001 - 1000
        assert (unipotent(m1) @ unipotent(m2)).rows == unipotent(m1 + m2).rows

    for _ in range(1000):
        M = iota(_random_sl2(rng))
        v = tuple(int(rng.next_u64() % 101) - 50 for _ in range(3))
        assert STD.evaluate_exact(M.apply_int(v)) == STD.evaluate_exact(v)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, "exact algebra of the embedding and the unipotent subgroup", started)


def test_criterion_2_differencing_bound_suite(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "lemmas.csv"
    assert main(["verify-lemmas", "--out", str(out)]) == 0
    import csv

    rows = list(csv.DictReader(open(out, newline="")))
    assert len(rows) == 360
    for r in rows:
        assert float(r["s2"]) <= float(r["differencing_bound"]) * (1 + 1e-6)
        assert r["pass"] == "1"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(2, "default 360-case exponential-sum bound suite", started)


def test_criterion_3_explicit_sum_bound():
    started = time.perf_counter()
    sqrt2 = FixedReal.sqrt_int(2)
    golden = parse_real("surd:1,1,2,5")
    cases = 0
    for alpha in (sqrt2, golden):
        for M in (1, 5):
            for T in (100, 1000, 10000):
                assert sum_min(alpha, M, T) <= sum_min_explicit_bound(alpha, M, T)
                cases += 1
    assert cases == 12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, "explicit reciprocal-norm sum bound on all 12 cases", started)


def test_criterion_4_diophantine_certificates():
    started = time.perf_counter()
    sqrt2 = FixedReal.sqrt_int(2)
    golden = parse_real("surd:1,1,2,5")
    est_g = estimate_kappa(golden, 10**6)
    est_s = estimate_kappa(sqrt2, 10**6)
    assert est_g.kappa_hat <= 1.05
    assert est_s.kappa_hat <= 1.1
    for alpha, est in ((sqrt2, est_s), (golden, est_g)):
        C = est.c_hat ** (1.0 / est.kappa_hat)
        for i in range(20):
            T = round(10 ** (1 + 4 * i / 19))
            conv = dirichlet_approx(alpha, T)
            assert conv.dist.hi() <= Fraction(1, T)
            assert conv.q >= C * T ** (1.0 / est.kappa_hat) - 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, "badness-exponent certificates and best-approximation growth", started)


def test_criterion_5_torus_equidistribution():
    started = time.perf_counter()
    sqrt2 = FixedReal.sqrt_int(2)
    zero = FixedReal.zero()
    targets = (
        TorusPoint2.from_values(0, 0),
        TorusPoint2.from_values(Fraction(3, 10), Fraction(7, 10)),
    )
    for v0 in targets:
        for T in (10**4, 10**5, 10**6):
            delta = float(T) ** -0.2
            n = count_orbit_hits(sqrt2, zero, zero, v0, T, delta)
            ratio = n / (math.pi * T * delta * delta)
            assert 0.5 <= ratio <= 2.0, (T, ratio)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(5, "orbit hit counts match the area law within a factor 2", started)


def test_criterion_6_solver_oracle_agreement():
    started = time.perf_counter()
    xi = ShiftVector.from_values(FixedReal.sqrt_int(2), 0, 0)
    T, delta = 50, 0.3
    for t in (0, Fraction(1, 3)):
        rep = find_solutions(xi, t, T, delta, scan_c=2.0, bound_C=32.0)
        thr = 32.0 * delta
        oracle = count_values_grid(STD, xi, t, (T,), thr)[0]
        assert oracle.count >= rep.count >= 1
        t_fix = as_fixed(t)
        for s in rep.solutions:
            assert s.v[0] ** 2 + s.v[1] ** 2 + s.v[2] ** 2 <= T * T
            resid = abs(evaluate_shifted(STD, xi, s.v) - t_fix)
            assert resid.certainly_le(Fraction(thr))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(6, "every constructed solution lies in the enumerated set", started)


def test_criterion_7_scale_of_solution_count():
    started = time.perf_counter()
    xi = ShiftVector.from_values(FixedReal.sqrt_int(2), 0, 0)
    T = 10**8
    delta = float(T) ** -0.1
    rep = find_solutions(xi, 0, T, delta, scan_c=1.0, bound_C=32.0)
    reference = math.pi * delta * delta * math.sqrt(T)
    assert reference / 4 <= rep.count <= reference * 4
    assert rep.count >= 100
    vs = [s.v for s in rep.solutions]
    assert len(vs) == len(set(vs))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(7, f"certified solution count {rep.count} at the sqrt(T) delta^2 scale", started)


def test_criterion_8_exponent_floor():
    started = time.perf_counter()
    sqrt2 = FixedReal.sqrt_int(2)
    sqrt3 = FixedReal.sqrt_int(3)
    shifts = (
        ShiftVector.from_values(sqrt2, 0, 0),
        ShiftVector.from_values(sqrt2, sqrt3, Fraction(1, 2)),
    )
    for xi in shifts:
        for t in (0, math.pi):
            rows = estimate_critical_exponent(xi, t, (20, 40, 80, 160), mode="oracle")
            for r in rows:
                assert r.saturated or r.omega_hat >= 0.125, (t, r.T, r.omega_hat)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(8, "decay exponent floor 1/8 on every grid point", started)


def test_criterion_8_exponent_floor_large_T():
    started = time.perf_counter()
    sqrt2 = FixedReal.sqrt_int(2)
    sqrt3 = FixedReal.sqrt_int(3)
    shifts = (
        ShiftVector.from_values(sqrt2, 0, 0),
        ShiftVector.from_values(sqrt2, sqrt3, Fraction(1, 2)),
    )
    for xi in shifts:
        for t in (0, math.pi):
            rows = estimate_critical_exponent(xi, t, (200, 300), mode="oracle")
            for r in rows:
                assert r.saturated or r.omega_hat >= 0.125, (t, r.T, r.omega_hat)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(8, "decay exponent floor 1/8 at T = 200 and 300", started)


def test_criterion_9_precision_tripwire():
    started = time.perf_counter()
    z64 = FixedReal.zero(64)
    with pytest.raises(PrecisionExhausted):
        phi(FixedReal.sqrt_int(2, 64), z64, z64, 10**6)
    p256 = phi(FixedReal.sqrt_int(2, 256), FixedReal.zero(256), FixedReal.zero(256), 10**6)
    p512 = phi(FixedReal.sqrt_int(2, 512), FixedReal.zero(512), FixedReal.zero(512), 10**6)
    tol = Fraction(1, 10**20)
    assert abs(p256.x.midpoint() - p512.x.midpoint()) <= tol
    assert abs(p256.y.midpoint() - p512.y.midpoint()) <= tol
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(9, "64-bit run refuses, 256-bit run matches 512-bit to 1e-20", started)


def test_criterion_10_thread_determinism(tmp_path):
    started = time.perf_counter()
    jobs = [
        ["count-orbit", "--xi", "sqrt:2 0/1 0/1", "--v0", "0/1 0/1",
         "--T", "10000,20000", "--nu", "0.2"],
        ["verify-lemmas", "--T-list", "100,1000", "--betas", "5"],
        ["oracle-count", "--xi", "sqrt:2 0/1 0/1", "--t", "0/1", "--T", "10,20", "--delta", "0.25"],
    ]
    for j, args in enumerate(jobs):
        a = tmp_path / f"a{j}.csv"
        b = tmp_path / f"b{j}.csv"
        assert main(args + ["--threads", "1", "--out", str(a)]) == 0
        assert main(args + ["--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    report(10, "byte-identical CSV across thread counts", started)
