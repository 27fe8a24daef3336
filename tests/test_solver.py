import contextlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdensity.solver as solver_mod
from qdensity import (
    AlphaZero,
    CapExceeded,
    FixedReal,
    PrecisionExhausted,
    ShiftVector,
    TorusPoint2,
    ValidationError,
    as_fixed,
    count_orbit_hits,
    count_values_bruteforce,
    estimate_critical_exponent,
    evaluate_shifted,
    find_solutions,
    nearest_offset,
    parse_real,
    standard_form,
    target_lift,
    unipotent,
)
from qdensity.forms import TernaryForm

STD = standard_form()

# frozen from a 45-digit evaluation of ||(2 sqrt2 - 3, sqrt2 - 1)||
MISS_AT_ONE = 0.4483415291679651181143935253888


def exact_residuals(xi_vals, t, T, gram=STD.gram):
    """(v, |Q(v + xi) - t|) over the ball ||v|| <= T in reversed loop order, exactly.

    xi_vals and t are exact Fractions, so every residual is exact.
    """
    u0 = [Fraction(x) for x in xi_vals]
    t = Fraction(t)
    for v3 in range(T, -T - 1, -1):
        for v2 in range(T, -T - 1, -1):
            for v1 in range(T, -T - 1, -1):
                if v1 * v1 + v2 * v2 + v3 * v3 > T * T:
                    continue
                u = (v1 + u0[0], v2 + u0[1], v3 + u0[2])
                val = sum(gram[i][j] * u[i] * u[j] for i in range(3) for j in range(3))
                yield (v1, v2, v3), abs(val - t)


def oracle_recount(xi_vals, t, T, delta, gram=STD.gram):
    """Independent exact count of |Q(v + xi) - t| <= delta (closed comparison)."""
    delta = Fraction(delta)
    return sum(1 for _, r in exact_residuals(xi_vals, t, T, gram) if r <= delta)


def oracle_min(xi_vals, t, T, gram=STD.gram):
    """Independent exact minimum residual and its lexicographically least argmin."""
    r, v = min((r, v) for v, r in exact_residuals(xi_vals, t, T, gram))
    return r, v


# exact ties at T = 4 whose least argmin has the larger float64 residual:
# across v1 slices under the standard form, and within one slice under a
# general form
SYM_FORM = "1 -1 -1 1 1 0"
TIES = [
    ("0 1 0 0 -2 0", (Fraction(380254189, 1 << 29), 0, Fraction(380254189, 1 << 29)),
     Fraction(33, 16), [(-1, 0, 1), (0, -2, 0), (0, 2, 0), (1, 0, -1)]),
    (SYM_FORM, (Fraction(86025915, 1 << 28), Fraction(119373215, 1 << 29),
                Fraction(119373215, 1 << 29)),
     Fraction(-21, 8), [(3, -2, 0), (3, 0, -2)]),
]


def offset_reference(xi, m, eta):
    """Nearest offset through FixedReal arithmetic: (a, b) and the gap mantissas."""
    d2 = xi.alpha.mul_int(2 * m) + xi.beta - eta.y
    d3 = xi.alpha.mul_int(m * m) + xi.beta.mul_int(m) + xi.gamma - eta.z
    a = -d2.round_nearest()
    b = -d3.round_nearest()
    return a, b, d2.add_int(a).mant, d3.add_int(b).mant


@contextlib.contextmanager
def offset_steps():
    """Record the steps m that find_solutions computes an offset for."""
    steps = []

    def recording(xi, m, eta):
        steps.append(m)
        return offset_reference(xi, m, eta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "_offset_at", recording)
        yield steps


# sqrt:, surd: and rational literals, both signs
literals = st.one_of(
    st.integers(2, 10**6).map(lambda d: f"sqrt:{d}"),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50), st.integers(2, 1000))
    .map(lambda p: "surd:{},{},{},{}".format(*p)),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6).map(
        lambda f: f"{f.numerator}/{f.denominator}"),
)


def shift_and_lift(lits, t_lit, F):
    xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
    t = parse_real(t_lit, F)
    assume(not xi.alpha.contains_zero() or t.exact == 0)
    return xi, target_lift(xi.alpha, t)


class TestTargetLift:
    def test_zero_target(self, sqrt2):
        eta = target_lift(sqrt2, 0)
        assert eta.y.exact == 0 and eta.z.exact == 0

    def test_quarter_alpha(self):
        eta = target_lift(as_fixed(Fraction(1, 4)), 1)
        assert eta.z.exact == -1

    def test_irrational_target(self, sqrt2):
        t = -(sqrt2.mul_int(4))
        eta = target_lift(sqrt2, t)
        assert eta.z.to_float() == pytest.approx(1.0, abs=1e-30)

    def test_alpha_zero_rejected(self, zero):
        with pytest.raises(AlphaZero):
            target_lift(zero, 1)

    def test_alpha_zero_with_zero_target_degenerates(self, zero):
        eta = target_lift(zero, 0)
        assert eta.y.exact == 0 and eta.z.exact == 0


class TestNearestOffset:
    def test_zero_everything(self, zero):
        xi = ShiftVector.from_values(0, 0, 0)
        u, miss = nearest_offset(xi, 4, target_lift(zero, 0))
        assert u == (0, 0, 0) and miss == 0.0

    def test_half_integer_gap(self, zero):
        xi = ShiftVector.from_values(0, Fraction(2, 5), Fraction(-3, 10))
        u, miss = nearest_offset(xi, 0, target_lift(zero, 0))
        assert u == (0, 0, 0)
        assert miss == pytest.approx(0.5)

    def test_sqrt2_step_one(self, sqrt2):
        xi = ShiftVector.from_values(sqrt2, 0, 0)
        u, miss = nearest_offset(xi, 1, target_lift(sqrt2, 0))
        assert u == (0, -3, -1)
        assert miss == pytest.approx(MISS_AT_ONE, abs=1e-12)


class TestOffsetDifferential:
    @given(lits=st.tuples(literals, literals, literals), t_lit=literals,
           m=st.integers(0, 10**6), F=st.sampled_from([64, 256]))
    @settings(max_examples=150, deadline=None)
    def test_integer_offset_matches_fixedreal(self, lits, t_lit, m, F):
        xi, eta = shift_and_lift(lits, t_lit, F)
        assert solver_mod._offset_at(xi, m, eta) == offset_reference(xi, m, eta)

    @given(lits=st.tuples(literals, literals, literals), t_lit=literals,
           T=st.integers(4, 10**6), delta=st.floats(0.01, 0.49),
           scan_c=st.sampled_from([0.5, 1.0, 2.0]), F=st.sampled_from([64, 256]))
    @settings(max_examples=80, deadline=None)
    def test_scan_steps_are_orbit_hits(self, lits, t_lit, T, delta, scan_c, F):
        # the steps find_solutions offsets are exactly the certified orbit hits
        # around the lift, before the norm and residual filters
        xi, eta = shift_and_lift(lits, t_lit, F)
        m_max = int(scan_c * math.sqrt(T))
        assume(scan_c * delta < 0.5 and m_max >= 1)
        v0 = TorusPoint2.from_values(eta.y, eta.z, F)
        try:
            _, hits = count_orbit_hits(xi.alpha, xi.beta, xi.gamma, v0, m_max,
                                       scan_c * delta, return_hits=True)
            with offset_steps() as steps:
                find_solutions(xi, eta.t, T, delta, scan_c)
        except PrecisionExhausted:
            assume(False)
        assert steps == hits


class TestFindSolutions:
    def test_ambiguous_steps_are_dropped(self):
        # the orbit of TestOrbitCounting.test_per_step_radius_near_boundary:
        # steps 1..1023 are certain hits, 1024..1100 ambiguous
        xi = ShiftVector(FixedReal(0, 1 << 206, 256), as_fixed(0), as_fixed(Fraction(1, 4)))
        with offset_steps() as steps:
            rep = find_solutions(xi, 0, 1100**2, 0.25 + 2.0**-30, tol=Fraction(1, 1 << 20))
        assert steps == list(range(1, 1024))
        assert [s.v for s in rep.solutions] == [(0, 0, 0)]

    def test_exact_boundary_tie(self):
        # the orbit sits at distance exactly 1/4 from the lift at every step
        xi = ShiftVector.from_values(0, 0, Fraction(1, 4))
        assert find_solutions(xi, 0, 100, 0.25).count == 1
        assert find_solutions(xi, 0, 100, 0.2499999).count == 0

    def test_degenerate_rational_shift(self):
        xi = ShiftVector.from_values(0, 0, 0)
        rep = find_solutions(xi, 0, 100, 0.1)
        assert rep.count >= 1
        assert rep.solutions[0].v == (0, 0, 0)
        assert rep.solutions[0].residual == 0.0

    def test_sqrt2_run_certified(self, xi_sqrt2):
        rep = find_solutions(xi_sqrt2, 0, 10**4, 0.2, 1.0, 32.0)
        assert rep.count >= 1
        # re-verify each row at doubled precision from fresh constructors
        xi_hi = ShiftVector.from_values(FixedReal.sqrt_int(2, 512), 0, 0, F=512)
        t_fix = as_fixed(0, 512)
        for s in rep.solutions:
            assert s.v[0] == 0
            assert s.v[0] ** 2 + s.v[1] ** 2 + s.v[2] ** 2 <= 10**8
            r = abs(evaluate_shifted(STD, xi_hi, s.v) - t_fix)
            assert r.certainly_le(Fraction(32.0 * 0.2))
            assert s.residual <= 32.0 * 0.2

    def test_offset_pullback_identity(self, xi_sqrt2):
        # v = u * M_m^{-1} exactly, and the first coordinate vanishes
        rep = find_solutions(xi_sqrt2, 0, 10**4, 0.2, 1.0, 32.0)
        for s in rep.solutions:
            Minv = unipotent(s.m).inverse()
            assert Minv.apply_int(s.u) == s.v

    def test_shift_invariance_identity_exact(self):
        # Q(xi*M_m + u) equals Q((u*M_m^{-1}) + xi) for exact rational shifts
        from qdensity import apply

        xi = ShiftVector.from_values(Fraction(2, 7), Fraction(-1, 3), Fraction(5, 11))
        for m in (1, 2, 9):
            M = unipotent(m)
            w = apply(xi, M)
            for u in ((0, 1, -2), (0, -4, 3), (0, 0, 0)):
                shifted = tuple(w.components()[i].exact + u[i] for i in range(3))
                lhs = STD.evaluate_exact(shifted)
                v = M.inverse().apply_int(u)
                rhs = evaluate_shifted(STD, xi, v).exact
                assert lhs == rhs

    def test_distinct_offsets_distinct_solutions(self, xi_sqrt2):
        rep = find_solutions(xi_sqrt2, 0, 10**6, 0.25, 1.0, 32.0)
        vs = [s.v for s in rep.solutions]
        assert len(vs) == len(set(vs))
        us = [s.u for s in rep.solutions]
        assert len(us) == len(set(us))

    def test_monotone_in_delta_and_T(self, xi_sqrt2):
        base = find_solutions(xi_sqrt2, 0, 10**4, 0.1).count
        assert find_solutions(xi_sqrt2, 0, 10**4, 0.2).count >= base
        assert find_solutions(xi_sqrt2, 0, 4 * 10**4, 0.1).count >= base

    def test_report_round_trips_through_json(self, xi_sqrt2):
        import json

        rep = find_solutions(xi_sqrt2, 0, 10**4, 0.2)
        blob = json.dumps(rep.to_dict())
        back = json.loads(blob)
        assert back["count"] == rep.count
        assert back["solutions"][0]["v"] == list(rep.solutions[0].v)

    def test_validation(self, xi_sqrt2):
        with pytest.raises(ValidationError):
            find_solutions(xi_sqrt2, 0, 3, 0.1)
        with pytest.raises(ValidationError):
            find_solutions(xi_sqrt2, 0, 100, 0.6)
        with pytest.raises(ValidationError):
            find_solutions(xi_sqrt2, 0, 100, 0.1, scan_c=0.0)
        with pytest.raises(ValidationError):
            find_solutions(xi_sqrt2, 0, 100, 0.1, bound_C=0.5)


class TestOracle:
    def test_origin_shift_small_ball(self):
        xi = ShiftVector.from_values(0, 0, 0)
        res = count_values_bruteforce(STD, xi, 0, 2, 0.5)
        assert res.count == oracle_recount((0, 0, 0), 0, 2, Fraction(1, 2))
        assert res.min_residual == 0.0

    def test_reversed_order_recount_matches(self):
        xi = ShiftVector.from_values(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7))
        t, T, delta = Fraction(1, 2), 6, 0.25
        res = count_values_bruteforce(STD, xi, t, T, delta)
        assert res.count == oracle_recount((Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)), t, T, Fraction(delta))

    def test_trivial_zero_at_origin(self, xi_sqrt2):
        res = count_values_bruteforce(STD, xi_sqrt2, 0, 1, 0.01)
        assert res.count >= 1
        assert res.min_residual == 0.0

    def test_saturation_counts_ball(self):
        xi = ShiftVector.from_values(0, 0, 0)
        res = count_values_bruteforce(STD, xi, 0, 3, 10**6)
        pts = sum(
            1
            for v1 in range(-3, 4)
            for v2 in range(-3, 4)
            for v3 in range(-3, 4)
            if v1 * v1 + v2 * v2 + v3 * v3 <= 9
        )
        assert res.count == pts

    def test_argmin_is_lexicographically_least(self, xi_sqrt2):
        res = count_values_bruteforce(STD, xi_sqrt2, 0, 2, 0.1)
        # every v on the v2 = v3 = 0 line is an exact zero; least is (-2, 0, 0)
        assert res.min_residual == 0.0
        assert res.argmin == (-2, 0, 0)

    def test_cap_enforced(self, xi_sqrt2):
        with pytest.raises(CapExceeded):
            count_values_bruteforce(STD, xi_sqrt2, 0, 301, 0.1)

    @pytest.mark.parametrize("form_lit", ["0 1 0 0 -2 0", SYM_FORM])
    @pytest.mark.parametrize("xi_vals, t", [
        ((Fraction(1, 4), 0, Fraction(1, 2)), 0),
        ((Fraction(3, 8), Fraction(5, 16), Fraction(-7, 32)), Fraction(5, 8)),
        *((xi_vals, t) for _, xi_vals, t, _ in TIES),
    ])
    @pytest.mark.parametrize("T", [0, 1, 4, 8])
    def test_min_and_argmin_match_exact_enumeration(self, form_lit, xi_vals, t, T):
        form = TernaryForm.from_string(form_lit)
        res = count_values_bruteforce(form, ShiftVector.from_values(*xi_vals), t, T, 0.0)
        r, v = oracle_min(xi_vals, t, T, form.gram)
        assert (res.min_residual, res.argmin) == (float(r), v)

    @pytest.mark.parametrize("form_lit, xi_vals, t, ties", TIES)
    def test_exact_tie_takes_least_argmin(self, form_lit, xi_vals, t, ties):
        form = TernaryForm.from_string(form_lit)
        res = count_values_bruteforce(form, ShiftVector.from_values(*xi_vals), t, 4, 0.0)
        r, _ = oracle_min(xi_vals, t, 4, form.gram)
        assert sorted(v for v, rv in exact_residuals(xi_vals, t, 4, form.gram) if rv == r) == ties
        assert res.argmin == ties[0]

    def test_solver_dominated_by_oracle(self, xi_sqrt2):
        for t in (0, Fraction(1, 3)):
            rep = find_solutions(xi_sqrt2, t, 50, 0.3, scan_c=2.0, bound_C=32.0)
            thr = 32.0 * 0.3
            oracle = count_values_bruteforce(STD, xi_sqrt2, t, 50, thr)
            assert oracle.count >= rep.count >= 1
            t_fix = as_fixed(t)
            for s in rep.solutions:
                assert s.v[0] ** 2 + s.v[1] ** 2 + s.v[2] ** 2 <= 50 * 50
                r = abs(evaluate_shifted(STD, xi_sqrt2, s.v) - t_fix)
                assert r.certainly_le(Fraction(thr))


class TestExponent:
    def test_rational_shift_saturates(self):
        xi = ShiftVector.from_values(0, 0, 0)
        rows = estimate_critical_exponent(xi, 0, (5, 10), mode="oracle")
        assert all(r.saturated and r.omega_hat == math.inf for r in rows)

    def test_oracle_floor_small_grid(self, xi_sqrt2):
        rows = estimate_critical_exponent(xi_sqrt2, math.pi, (20, 40), mode="oracle")
        assert all((r.saturated or r.omega_hat >= 0.125) for r in rows)
        assert all(r.min_residual >= 0 for r in rows)

    def test_solver_mode_runs_large(self, xi_sqrt2):
        rows = estimate_critical_exponent(xi_sqrt2, math.pi, (10**6, 10**8), mode="solver")
        assert len(rows) == 2
        assert all(r.min_residual > 0 for r in rows)

    def test_solver_mode_refuses_where_find_solutions_does(self):
        xi = ShiftVector.from_values(parse_real("sqrt:2", 64), 0, 0, F=64)
        t = Fraction(1, 3)
        with pytest.raises(PrecisionExhausted):
            find_solutions(xi, t, 100, 0.2)
        with pytest.raises(PrecisionExhausted):
            estimate_critical_exponent(xi, t, (100,), mode="solver")

    def test_monotone_grid_required(self, xi_sqrt2):
        with pytest.raises(ValidationError):
            estimate_critical_exponent(xi_sqrt2, 0, (40, 20), mode="oracle")
        with pytest.raises(ValidationError):
            estimate_critical_exponent(xi_sqrt2, 0, (), mode="oracle")

    def test_bad_mode(self, xi_sqrt2):
        with pytest.raises(ValidationError):
            estimate_critical_exponent(xi_sqrt2, 0, (20,), mode="magic")
