import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdensity import (
    FixedReal,
    PrecisionExhausted,
    ShiftVector,
    TorusPoint2,
    ValidationError,
    apply,
    as_fixed,
    count_orbit_hits,
    parse_real,
    phi,
    sum_min,
    sum_min_explicit_bound,
    torus_dist,
    unipotent,
    weyl_differencing_bound,
    weyl_sum,
)
from qdensity.harness import Lcg64

# frozen from 45-digit evaluations
TWO_SQRT2_MOD1 = 0.8284271247461900976033774484194
SQRT2_MOD1 = 0.4142135623730950488016887242097


class TestPhi:
    def test_rational_quarter(self):
        q = as_fixed(Fraction(1, 4))
        z = FixedReal.zero()
        p = phi(q, z, z, 2)
        assert p.x.exact == 0 and p.y.exact == 0

    def test_m_zero_returns_shift(self):
        b, c = as_fixed(Fraction(2, 7)), as_fixed(Fraction(9, 7))
        p = phi(FixedReal.zero(), b, c, 0)
        assert p.x.exact == Fraction(2, 7)
        assert p.y.exact == Fraction(2, 7)

    def test_sqrt2_step_one(self, sqrt2, zero):
        p = phi(sqrt2, zero, zero, 1)
        assert p.x.to_float() == pytest.approx(TWO_SQRT2_MOD1, abs=1e-15)
        assert p.y.to_float() == pytest.approx(SQRT2_MOD1, abs=1e-15)

    def test_precision_guard(self, zero):
        rough = FixedReal.sqrt_int(2, 64)
        z64 = FixedReal.zero(64)
        with pytest.raises(PrecisionExhausted):
            phi(rough, z64, z64, 10**6)

    def test_matches_unipotent_action(self, sqrt2, zero):
        xi = ShiftVector(sqrt2, zero, zero)
        for m in (1, 3, 10, 101):
            w = apply(xi, unipotent(m))
            p = phi(sqrt2, zero, zero, m)
            assert w.beta.frac_part().mant == p.x.mant
            assert w.gamma.frac_part().mant == p.y.mant


class TestTorusDist:
    def test_identity(self):
        u = TorusPoint2.from_values(Fraction(1, 3), Fraction(2, 3))
        assert torus_dist(u, u) == 0.0

    def test_wraparound(self):
        u = TorusPoint2.from_values(Fraction(9, 10), 0)
        v = TorusPoint2.from_values(Fraction(1, 10), 0)
        assert torus_dist(u, v) == pytest.approx(0.2)

    def test_double_wrap(self):
        u = TorusPoint2.from_values(Fraction(9, 10), Fraction(9, 10))
        v = TorusPoint2.from_values(Fraction(1, 10), Fraction(1, 10))
        assert torus_dist(u, v) == pytest.approx(math.sqrt(0.08))

    coords = st.fractions(min_value=0, max_value=1, max_denominator=997)

    @given(ax=coords, ay=coords, bx=coords, by=coords, cx=coords, cy=coords)
    @settings(max_examples=120, deadline=None)
    def test_metric_properties(self, ax, ay, bx, by, cx, cy):
        u = TorusPoint2.from_values(ax, ay)
        v = TorusPoint2.from_values(bx, by)
        w = TorusPoint2.from_values(cx, cy)
        duv, dvu = torus_dist(u, v), torus_dist(v, u)
        assert duv == pytest.approx(dvu, abs=1e-12)
        assert duv <= torus_dist(u, w) + torus_dist(w, v) + 1e-12
        if (ax - bx) % 1 == 0 and (ay - by) % 1 == 0:
            assert duv <= 1e-12


class TestOrbitCounting:
    def test_constant_orbit_all_hit(self, zero):
        v0 = TorusPoint2.from_values(0, 0)
        assert count_orbit_hits(zero, zero, zero, v0, 37, 0.1) == 37

    def test_constant_orbit_far_target(self, zero):
        v0 = TorusPoint2.from_values(Fraction(1, 2), Fraction(1, 2))
        assert count_orbit_hits(zero, zero, zero, v0, 37, 0.1) == 0

    def test_boundary_tie_is_hit(self, zero):
        # distance exactly 1/4 from the reference point
        v0 = TorusPoint2.from_values(Fraction(3, 20), Fraction(1, 5))
        assert count_orbit_hits(zero, zero, zero, v0, 5, 0.25) == 5
        assert count_orbit_hits(zero, zero, zero, v0, 5, 0.2499999999) == 0

    def test_sqrt2_against_independent_scan(self, sqrt2, zero):
        T, delta = 1000, 0.05
        v0 = TorusPoint2.from_values(0, 0)
        got, hits = count_orbit_hits(sqrt2, zero, zero, v0, T, delta, return_hits=True)
        assert 1 <= got <= 30
        # independent high-precision scan
        mpmath.mp.dps = 60
        s2 = mpmath.sqrt(2)
        expected = []
        for m in range(1, T + 1):
            x = mpmath.frac(2 * s2 * m)
            y = mpmath.frac(s2 * m * m)
            dx = min(x, 1 - x)
            dy = min(y, 1 - y)
            if mpmath.sqrt(dx * dx + dy * dy) <= delta:
                expected.append(m)
        assert hits == expected
        assert got == len(expected)

    def test_per_step_radius_near_boundary(self, zero):
        # alpha = 0 +- 2**-50 keeps the midpoint orbit at distance 1/4 while its
        # radius (m^2 + 2m) * 2**-50 grows; the threshold sits 2**-30 outside
        # 1/4, so the per-m margin certifies m <= 1023 and not m = 1024
        alpha = FixedReal(0, 1 << 206, 256)
        quarter = as_fixed(Fraction(1, 4))
        v0 = TorusPoint2.from_values(0, 0)
        thr, tol = 0.25 + 2.0**-30, Fraction(1, 1 << 20)
        assert count_orbit_hits(alpha, zero, quarter, v0, 1023, thr, tol=tol) == 1023
        with pytest.raises(PrecisionExhausted, match="ambiguous at m=1024"):
            count_orbit_hits(alpha, zero, quarter, v0, 1024, thr, tol=tol)

    def test_monotone_in_delta(self, sqrt2, zero):
        v0 = TorusPoint2.from_values(Fraction(1, 3), Fraction(1, 7))
        counts = [
            count_orbit_hits(sqrt2, zero, zero, v0, 500, d)
            for d in (0.02, 0.05, 0.1, 0.2, 0.4)
        ]
        assert counts == sorted(counts)

    def test_validation(self, sqrt2, zero):
        v0 = TorusPoint2.from_values(0, 0)
        with pytest.raises(ValidationError):
            count_orbit_hits(sqrt2, zero, zero, v0, 0, 0.1)
        with pytest.raises(ValidationError):
            count_orbit_hits(sqrt2, zero, zero, v0, 10, 0.5)
        with pytest.raises(ValidationError):
            count_orbit_hits(sqrt2, zero, zero, v0, 10, 0.0)


class TestWeylSum:
    def test_zero_alpha_beta_gives_length(self, zero):
        s = weyl_sum(5, zero, zero, 17)
        assert s.re == pytest.approx(17.0) and s.im == pytest.approx(0.0)

    def test_half_beta_cancels(self, zero):
        s = weyl_sum(0, zero, as_fixed(Fraction(1, 2)), 2)
        assert abs(s.re) < 1e-12 and abs(s.im) < 1e-12

    def test_magnitude_never_exceeds_length(self, sqrt2, golden, zero):
        for alpha in (sqrt2, golden):
            for n in (1, 3):
                s = weyl_sum(n, alpha, zero, 500)
                assert s.magnitude() <= 500.0

    def test_zero_frequency_sums_to_length(self, sqrt2, golden, zero):
        for alpha in (sqrt2, golden):
            s = weyl_sum(0, alpha, zero, 123)
            assert s.re == pytest.approx(123.0) and s.im == pytest.approx(0.0)

    def test_cancellation_at_scale(self, sqrt2, zero):
        s = weyl_sum(1, sqrt2, zero, 10**4)
        # quadratic phases cancel down to a few sqrt(T)
        assert s.magnitude() < 10**4 / 10
        assert s.magnitude() ** 2 <= weyl_differencing_bound(1, sqrt2, 10**4) * (1 + 1e-6)

    def test_against_independent_sum(self, sqrt2):
        beta = as_fixed(Fraction(3, 7))
        s = weyl_sum(2, sqrt2, beta, 300)
        mpmath.mp.dps = 50
        a = mpmath.sqrt(2)
        b = mpmath.mpf(3) / 7
        acc = mpmath.mpc(0)
        for m in range(1, 301):
            acc += mpmath.expjpi(2 * mpmath.frac(2 * a * m * m + b * m))
        assert s.re == pytest.approx(float(acc.real), abs=1e-9)
        assert s.im == pytest.approx(float(acc.imag), abs=1e-9)


class TestDifferencingBound:
    def test_zero_alpha_saturates(self, zero):
        assert weyl_differencing_bound(1, zero, 5) == pytest.approx(5 + 2 * 25)

    def test_dominates_square_on_beta_grid(self, sqrt2):
        bound = weyl_differencing_bound(1, sqrt2, 100)
        for j in range(100):
            beta = as_fixed(Fraction(j, 100))
            s = weyl_sum(1, sqrt2, beta, 100)
            assert s.magnitude() ** 2 <= bound * (1 + 1e-6)

    def test_dominates_random_beta_golden(self, golden):
        bound = weyl_differencing_bound(3, golden, 1000)
        rng = Lcg64(99)
        for _ in range(20):
            beta = rng.next_unit(golden.F)
            s = weyl_sum(3, golden, beta, 1000)
            assert s.magnitude() ** 2 <= bound * (1 + 1e-6)


class TestSumMin:
    def test_zero_alpha(self, zero):
        assert sum_min(zero, 2, 4) == pytest.approx(2 * 4 * 4)

    def test_exact_half(self):
        assert sum_min(as_fixed(Fraction(1, 2)), 1, 4) == pytest.approx(12.0)

    def test_empty_range(self, sqrt2):
        assert sum_min(sqrt2, 0, 10) == 0.0

    def test_sqrt2_below_explicit_bound(self, sqrt2):
        val = sum_min(sqrt2, 1, 1000)
        bound = sum_min_explicit_bound(sqrt2, 1, 1000)
        assert val <= bound

    def test_explicit_bound_sqrt2_value(self, sqrt2):
        from qdensity import dirichlet_approx

        assert dirichlet_approx(sqrt2, 1000).q == 985
        assert sum_min_explicit_bound(sqrt2, 1, 1000) == pytest.approx(114584.9981692979, rel=1e-12)

    def test_explicit_bound_golden_value(self, golden):
        from qdensity import dirichlet_approx

        assert dirichlet_approx(golden, 10).q == 8
        assert sum_min_explicit_bound(golden, 1, 10) == pytest.approx(418.4136148790473, rel=1e-12)

    def test_explicit_bound_degenerate_m(self, sqrt2):
        assert sum_min_explicit_bound(sqrt2, 0, 10) >= 0.0

    def test_rejects_tiny_T(self, sqrt2):
        with pytest.raises(ValidationError):
            sum_min_explicit_bound(sqrt2, 1, 1)
