import contextlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qdensity.solver as solver_mod
from qdensity import (
    FixedReal,
    PrecisionExhausted,
    ShiftVector,
    TorusPoint2,
    ValidationError,
    as_fixed,
    count_orbit_hits,
    count_values_grid,
    estimate_critical_exponent,
    evaluate_shifted,
    find_solutions,
    lifted_shift,
    parse_real,
    standard_form,
    unipotent,
)
from qdensity.fixed import _round_shift
from qdensity.forms import TernaryForm
from qdensity.weyl_sums import _BLOCK_STEPS, REDUCTION_TOL, _orbit_blocks, _orbit_radius, _scan_orbit
from test_weyl_sums import scan_orbit_reference

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


def scaled_residual(xi_vals, t, gram=STD.gram):
    """(K, r) with r(v) = K * |Q(v + xi) - t| an integer at every integer v.

    With u = v + xi = w / L, g = h / M and K = L^2 * M * den(t), every
    residual times K is the integer |den(t) * sum h_ij w_i w_j - t*K|.
    """
    xi_vals = [Fraction(x) for x in xi_vals]
    t = Fraction(t)
    L = math.lcm(*(x.denominator for x in xi_vals))
    M = math.lcm(*(g.denominator for row in gram for g in row))
    K = L * L * M * t.denominator
    h = [[int(g * M) for g in row] for row in gram]
    p = [int(x * L) for x in xi_vals]
    tK = int(t * K)

    def r(v):
        w = (L * v[0] + p[0], L * v[1] + p[1], L * v[2] + p[2])
        S = sum(h[i][j] * w[i] * w[j] for i in range(3) for j in range(3))
        return abs(S * t.denominator - tK)

    return K, r


def exact_answer(xi_vals, t, T, delta, gram=STD.gram):
    """Independent exact (count, minimum residual, least argmin) over the ball."""
    K, resid = scaled_residual(xi_vals, t, gram)
    delta = Fraction(delta)
    count, best = 0, None
    for v1 in range(-T, T + 1):
        for v2 in range(-T, T + 1):
            room = T * T - v1 * v1 - v2 * v2
            if room < 0:
                continue
            R = math.isqrt(room)
            for v3 in range(-R, R + 1):
                r = resid((v1, v2, v3))
                count += r <= delta * K
                if best is None or (r, (v1, v2, v3)) < best:
                    best = (r, (v1, v2, v3))
    return count, Fraction(best[0], K), best[1]


def bruteforce_reference(form, xi, t, T, delta):
    """The O(T^3) float64 sweep of the whole ball that the oracle replaced.

    Points within a heuristic guard band of delta or of the minimum are
    resolved in certified fixed point; the minimum is keyed on the exact
    residual when it is known and on the certified midpoint otherwise.
    """
    g = [[float(x) for x in row] for row in form.gram]
    ax, bx, cx = (xi.alpha.to_float(), xi.beta.to_float(), xi.gamma.to_float())
    t_fix = as_fixed(t, xi.precision)
    tf = t_fix.to_float()
    delta_fr = Fraction(delta)
    scale = sum(abs(x) for row in g for x in row) * (T + abs(ax) + abs(bx) + abs(cx) + 1) ** 2
    band = 1e-11 * (scale + abs(tf) + 1.0)

    rng = np.arange(-T, T + 1, dtype=np.float64)
    u2c = (rng + bx)[:, None]
    u3r = (rng + cx)[None, :]
    base23 = g[1][1] * u2c * u2c + g[2][2] * u3r * u3r + 2.0 * g[1][2] * u2c * u3r
    ball23 = (rng * rng)[:, None] + (rng * rng)[None, :]

    def exact_resid(v):
        return abs(evaluate_shifted(form, xi, v) - t_fix)

    count = 0
    resid_rows = []
    for v1 in range(-T, T + 1):
        u1 = v1 + ax
        val = base23 + g[0][0] * u1 * u1 + 2.0 * g[0][1] * u1 * u2c + 2.0 * g[0][2] * u1 * u3r
        resid = np.where(ball23 <= T * T - v1 * v1, np.abs(val - tf), np.inf)
        count += int(np.count_nonzero(resid <= delta - band))
        for i2, i3 in np.argwhere((resid > delta - band) & (resid <= delta + band)):
            if not exact_resid((v1, int(i2) - T, int(i3) - T)).certainly_gt(delta_fr):
                count += 1
        resid_rows.append((v1, resid))
    gmin = min(float(resid.min()) for _, resid in resid_rows)
    mids = {}
    for v1, resid in resid_rows:
        for i2, i3 in np.argwhere(resid <= gmin + band):
            v = (v1, int(i2) - T, int(i3) - T)
            res = exact_resid(v)
            mids[v] = res.exact if res.exact is not None else res.midpoint()
    true_min = min(mids.values())
    return count, float(true_min), min(v for v, r in mids.items() if r == true_min)


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


def lift_reference(xi, t):
    """z = -t/(4*alpha) through FixedReal arithmetic: the orbit of xi is scanned around (0, z).

    A zero t lifts to z = 0 whatever alpha is.
    """
    t = as_fixed(t, xi.precision)
    if t.exact == 0:
        return FixedReal.zero(xi.precision)
    return -(t / xi.alpha.mul_int(4))


def offset_reference(xi, t, m):
    """Nearest offset of the orbit of xi around (0, z) through FixedReal arithmetic.

    Returns (a, b) and the gap mantissas.
    """
    d2 = xi.alpha.mul_int(2 * m) + xi.beta
    d3 = xi.alpha.mul_int(m * m) + xi.beta.mul_int(m) + xi.gamma - lift_reference(xi, t)
    a = -d2.round_nearest()
    b = -d3.round_nearest()
    return a, b, d2.add_int(a).mant, d3.add_int(b).mant


def scan_length_reference(xi, t, T, scan_c):
    """The scan cut and its radius refusal for the orbit of xi around (0, z), z = lift_reference."""
    F = xi.precision
    z = lift_reference(xi, t)
    A, B = xi.alpha.mant, xi.beta.mant
    reach = (2 * T + 1) << (F - 1)
    if A:
        cut = (reach + abs(B)) // (2 * abs(A)) + 1
    elif abs(_round_shift(B, F)) > T:
        # the offset a = -round(beta) of every step fails the norm filter
        cut = 0
    else:
        G = abs(B - (_round_shift(B, F) << F))
        cut = (reach + abs(xi.gamma.mant - z.mant)) // (G or 1 << (F - 1)) + 1
    m_max = scan_c * math.sqrt(T)
    m_max = cut if m_max >= cut else int(m_max)
    E = _orbit_radius(xi.alpha, xi.beta, xi.gamma, m_max) + z.err
    if Fraction(E, 1 << F) > REDUCTION_TOL:
        raise PrecisionExhausted("orbit radius at the end of the scan exceeds the tolerance")
    return m_max


@contextlib.contextmanager
def offset_steps():
    """Record the steps m that the solver computes an offset for."""
    steps = []
    offset_at = solver_mod._offset_at

    def recording(xi_t, m):
        steps.append(m)
        return offset_at(xi_t, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "_offset_at", recording)
        yield steps


def exponent_reference(xi, t, T_grid, scan_c=1.0, midpoints=None):
    """Solver-mode estimate_critical_exponent through a form evaluation at every step.

    Appends the least midpoint of each T to ``midpoints`` when it is given.
    """
    grid = [int(x) for x in T_grid]
    t = as_fixed(t, xi.precision)
    xi_t = lifted_shift(xi, t)
    rows = []
    for T in grid:
        best = None
        m_max = solver_mod._scan_length(xi_t, T, scan_c)
        for m in range(1, m_max + 1):
            a, b, _, _ = solver_mod._offset_at(xi_t, m)
            v = (0, a, b - m * a)
            if a * a + v[2] * v[2] > T * T:
                continue
            r = abs(evaluate_shifted(STD, xi, v) - t)
            if best is None or r.midpoint() < best.midpoint():
                best = r
        if best is None:
            raise ValidationError(f"no step survived the norm filter at T={T}")
        if midpoints is not None:
            midpoints.append(best.midpoint())
        min_resid = best.to_float()
        if best.exact == 0 or min_resid == 0.0:
            rows.append(solver_mod.ExponentRow(T, 0.0, math.inf, True))
        else:
            rows.append(solver_mod.ExponentRow(T, min_resid, -math.log(min_resid) / math.log(T), False))
    return rows


def outcome(fn, *args, **kwargs):
    """The value of fn(*args, **kwargs), or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


# sqrt:, surd: and rational literals, both signs
literals = st.one_of(
    st.integers(2, 10**6).map(lambda d: f"sqrt:{d}"),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50), st.integers(2, 1000))
    .map(lambda p: "surd:{},{},{},{}".format(*p)),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6).map(
        lambda f: f"{f.numerator}/{f.denominator}"),
)


def shift_and_target(lits, t_lit, F):
    """The shift and target of the literals, where the target can be lifted."""
    xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
    t = parse_real(t_lit, F)
    assume(not xi.alpha.contains_zero() or t.exact == 0)
    return xi, t


# the literal kinds of the CLI: square roots, surds, decimals and rationals
lift_literals = st.one_of(
    literals,
    st.integers(1, 12).flatmap(lambda places: st.decimals(-3, 3, places=places)).map(
        lambda d: f"dec:{d:f}"),
)


# dyadic rationals, whose mantissas are exact
dyadics = st.tuples(st.integers(-3000, 3000), st.integers(0, 12)).map(lambda p: f"{p[0]}/{1 << p[1]}")
# small denominators, whose orbit residuals repeat, so that many steps tie
small_fractions = st.tuples(st.integers(-40, 40), st.integers(1, 12)).map(lambda p: f"{p[0]}/{p[1]}")


class TestTargetLift:
    """lifted_shift moves the target into gamma."""

    def test_zero_target(self, xi_mixed):
        assert lifted_shift(xi_mixed, 0) is xi_mixed

    def test_quarter_alpha(self):
        xi = ShiftVector.from_values(Fraction(1, 4), Fraction(1, 3), Fraction(1, 5))
        xi_t = lifted_shift(xi, 1)
        assert xi_t.alpha is xi.alpha and xi_t.beta is xi.beta
        assert xi_t.gamma.exact == Fraction(6, 5)

    def test_irrational_target(self, sqrt2):
        xi = ShiftVector.from_values(sqrt2, 0, Fraction(1, 2))
        t = -(sqrt2.mul_int(4))
        xi_t = lifted_shift(xi, t)
        assert xi_t.gamma.exact is None
        assert xi_t.gamma.to_float() == pytest.approx(-0.5, abs=1e-30)
        # the lifted gamma carries the radius of t/(4*alpha)
        assert xi_t.gamma.err == xi.gamma.err + (t / sqrt2.mul_int(4)).err > 0

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValidationError, match="^leading coordinate indistinguishable from zero$"):
            lifted_shift(ShiftVector.from_values(0, Fraction(1, 2), 0), 1)
        # an alpha whose interval holds zero counts as zero
        with pytest.raises(ValidationError, match="^leading coordinate indistinguishable from zero$"):
            lifted_shift(ShiftVector(FixedReal(1, 2, 256), as_fixed(0), as_fixed(0)), Fraction(1, 3))

    def test_alpha_zero_with_zero_target_degenerates(self):
        for alpha in (as_fixed(0), FixedReal(1, 2, 256)):
            xi = ShiftVector(alpha, as_fixed(Fraction(1, 2)), as_fixed(Fraction(1, 3)))
            assert lifted_shift(xi, 0) is xi
            assert lifted_shift(xi, as_fixed(0)) is xi

    @given(lits=st.tuples(lift_literals, lift_literals, lift_literals), t_lit=lift_literals,
           F=st.sampled_from([64, 256, 512]))
    @settings(max_examples=80, deadline=None)
    def test_lift_encloses_the_target(self, lits, t_lit, F):
        # 4*alpha times the target's share in the lifted gamma contains t
        xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
        assume(not xi.alpha.contains_zero())
        t = parse_real(t_lit, F)
        xi_t = lifted_shift(xi, t)
        assert (xi.alpha.mul_int(4) * (xi_t.gamma - xi.gamma) - t).contains_zero()


class TestNearestOffset:
    """_offset_at: the nearest offset (a, b) of a step and its gap mantissas (gx, gy)."""

    @staticmethod
    def miss(xi_t, m) -> float:
        _, _, gx, gy = solver_mod._offset_at(xi_t, m)
        S = 1 << xi_t.precision
        return math.hypot(gx / S, gy / S)

    def test_zero_everything(self):
        xi = ShiftVector.from_values(0, 0, 0)
        assert solver_mod._offset_at(lifted_shift(xi, 0), 4) == (0, 0, 0, 0)

    def test_half_integer_gap(self):
        xi = ShiftVector.from_values(0, Fraction(2, 5), Fraction(-3, 10))
        a, b, gx, gy = solver_mod._offset_at(lifted_shift(xi, 0), 0)
        assert (a, b) == (0, 0)
        assert (gx, gy) == (xi.beta.mant, xi.gamma.mant)
        assert self.miss(xi, 0) == pytest.approx(0.5)

    def test_sqrt2_step_one(self, sqrt2):
        xi = ShiftVector.from_values(sqrt2, 0, 0)
        assert solver_mod._offset_at(lifted_shift(xi, 0), 1)[:2] == (-3, -1)
        assert self.miss(lifted_shift(xi, 0), 1) == pytest.approx(MISS_AT_ONE, abs=1e-12)

    def test_target_moves_the_offset(self):
        # alpha = 1/4, t = 1: the lifted gamma is gamma + 1, so b moves by -1
        xi = ShiftVector.from_values(Fraction(1, 4), 0, Fraction(1, 8))
        eighth = 1 << (xi.precision - 3)
        assert solver_mod._offset_at(xi, 2) == (-1, -1, 0, eighth)
        assert solver_mod._offset_at(lifted_shift(xi, 1), 2) == (-1, -2, 0, eighth)


class TestOffsetDifferential:
    """The scan of the lifted shift against the orbit of xi around (0, -t/(4*alpha))."""

    @given(lits=st.tuples(literals, literals, literals), t_lit=literals,
           m=st.integers(0, 10**6), F=st.sampled_from([64, 256]))
    @settings(max_examples=150, deadline=None)
    def test_integer_offset_matches_fixedreal(self, lits, t_lit, m, F):
        xi, t = shift_and_target(lits, t_lit, F)
        assert solver_mod._offset_at(lifted_shift(xi, t), m) == offset_reference(xi, t, m)

    @given(lits=st.tuples(st.one_of(literals, st.just("0/1")), literals, literals),
           t_lit=st.one_of(literals, st.just("0/1")),
           T=st.integers(4, 10**12), scan_c=st.sampled_from([0.5, 1.0, 5.0, 1e15, 1e308]),
           F=st.sampled_from([64, 256]))
    @settings(max_examples=150, deadline=None)
    def test_scan_length_matches_reference(self, lits, t_lit, T, scan_c, F):
        xi, t = shift_and_target(lits, t_lit, F)
        assert (outcome(solver_mod._scan_length, lifted_shift(xi, t), T, scan_c)
                == outcome(scan_length_reference, xi, t, T, scan_c))

    @given(lits=st.tuples(literals, literals, literals), t_lit=literals,
           T=st.integers(4, 10**6), delta=st.floats(0.01, 0.49),
           scan_c=st.sampled_from([0.5, 1.0, 2.0]), F=st.sampled_from([64, 256]))
    @settings(max_examples=80, deadline=None)
    def test_scan_steps_are_orbit_hits(self, lits, t_lit, T, delta, scan_c, F):
        # the steps find_solutions offsets are exactly the certified orbit hits
        # around the lift up to the norm cut, before the norm and residual
        # filters; the hits past the cut are ones the norm filter drops
        xi, t = shift_and_target(lits, t_lit, F)
        m_max = int(scan_c * math.sqrt(T))
        assume(scan_c * delta < 0.5 and m_max >= 1)
        v0 = TorusPoint2.from_values(0, lift_reference(xi, t), F)
        try:
            # refuses unless every step is decided
            count_orbit_hits(xi.alpha, xi.beta, xi.gamma, v0, m_max, scan_c * delta)
            with offset_steps() as steps:
                find_solutions(xi, t, T, delta, scan_c)
        except PrecisionExhausted:
            assume(False)
        hits = [m for m, certain in _scan_orbit(xi.alpha, xi.beta, xi.gamma, v0.x, v0.y, m_max,
                                                scan_c * delta) if certain]
        xi_t = lifted_shift(xi, t)
        cut = solver_mod._scan_length(xi_t, T, scan_c)
        assert steps == [m for m in hits if m <= cut]
        assert all(abs(solver_mod._offset_at(xi_t, m)[0]) > T for m in hits if m > cut)


# steps next to the first block boundaries of the orbit walk, and anywhere up to 10^6
block_steps = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(-2, 2)).map(lambda p: p[0] * _BLOCK_STEPS + p[1]),
    st.integers(1, 10**6),
)
class TestGapIdentity:
    """Solver-mode exponent reads each step's residual off the gap of _offset_at."""

    @given(lits=st.tuples(st.one_of(lift_literals, st.just("0/1")), lift_literals, lift_literals),
           t_lit=st.one_of(lift_literals, st.just("0/1")), m=block_steps,
           F=st.sampled_from([64, 256, 512]))
    @settings(max_examples=150, deadline=None)
    def test_mantissa_identity(self, lits, t_lit, m, F):
        xi, t = shift_and_target(lits, t_lit, F)
        xi_t = lifted_shift(xi, t)
        A, B, C_t = xi_t.alpha.mant, xi_t.beta.mant, xi_t.gamma.mant
        a, b, gx, gy = solver_mod._offset_at(xi_t, m)
        M2 = (a << F) + B
        M3_t = ((b - m * a) << F) + C_t
        assert M2 * M2 - 4 * A * M3_t == gx * gx - 4 * A * gy
        # so the R of the mantissas is the gap's, moved by the lift constant,
        # and the midpoint of the form evaluation lies within _window_slack of it
        lift = 4 * A * (C_t - xi.gamma.mant) - (t.mant << F)
        M3 = ((b - m * a) << F) + xi.gamma.mant
        R = abs(gx * gx - 4 * A * gy + lift)
        assert R == abs(M2 * M2 - 4 * A * M3 - (t.mant << F))
        r = abs(evaluate_shifted(STD, xi, (0, a, b - m * a)) - t)
        assert abs((r.mant << F) - R) <= solver_mod._window_slack(xi, M2, M3)

    @given(lits=st.tuples(st.one_of(literals, small_fractions, st.just("0/1")),
                          st.one_of(literals, small_fractions), st.one_of(literals, small_fractions)),
           t_lit=st.one_of(lift_literals, small_fractions, st.just("0/1")),
           F=st.sampled_from([64, 256, 512]))
    @settings(max_examples=20, deadline=None)
    # gy = 1/2 exactly at m = 1, where the fold gives -1/2 and _offset_at +1/2
    @example(lits=("1/4", "1/4", "0/1"), t_lit="0/1", F=64)
    def test_residual_floors_are_certified(self, lits, t_lit, F):
        # every step of a walk across a block boundary, exact ties at the wrap included
        xi, t = shift_and_target(lits, t_lit, F)
        xi_t = lifted_shift(xi, t)
        A, B, C_t = xi_t.alpha.mant, xi_t.beta.mant, xi_t.gamma.mant
        lift = 4 * A * (C_t - xi.gamma.mant) - (t.mant << F)
        alpha_f, lift_f = solver_mod._mant_to_float(A, F), solver_mod._mant_to_float(lift, 2 * F)
        err = Fraction(solver_mod._floor_error(alpha_f, lift_f))
        scale = Fraction(1, 1 << 2 * F)
        for m0, _, _, _, *words in _orbit_blocks(A, B, C_t, 0, 0, F, _BLOCK_STEPS + 2):
            floors = solver_mod._residual_floors(alpha_f, lift_f, *words)
            for j, floor in enumerate(floors.tolist()):
                _, _, gx, gy = solver_mod._offset_at(xi_t, m0 + j)
                if floor > -math.inf:
                    assert Fraction(floor) - err <= abs(gx * gx - 4 * A * gy + lift) * scale

    @given(bound=st.integers(0, 1 << 1100), F=st.sampled_from([64, 256, 512]),
           alpha=st.floats(-1e6, 1e6), lift=st.floats(-1e3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_floor_cut_covers_its_rounding(self, bound, F, alpha, lift):
        err = solver_mod._floor_error(alpha, lift)
        cut = solver_mod._floor_cut(bound, F, err)
        assert cut == math.inf or Fraction(cut) >= Fraction(bound, 1 << 2 * F) + Fraction(err)


class TestFindSolutions:
    def test_ambiguous_steps_are_dropped(self):
        # the orbit of TestOrbitCounting.test_per_step_radius_near_boundary:
        # steps 1..1023 are certain hits, 1024..1100 ambiguous
        xi = ShiftVector(FixedReal(0, 1 << (256 - 90), 256), as_fixed(0),
                         as_fixed(Fraction(1, 4) - Fraction(1, 1 << 70)))
        with offset_steps() as steps:
            rep = find_solutions(xi, 0, 1100**2, 0.25)
        assert steps == list(range(1, 1024))
        assert [s.v for s in rep.solutions] == [(0, 0, 0)]

    def test_threshold_past_the_torus_matches_reference_scan(self, xi_mixed):
        # scan_c*delta = 0.75 >= 1/sqrt(2): every step is a certain hit, the
        # block filter drops none, and the scan crosses a block edge
        T, delta, scan_c = 10**7, 0.3, 2.5
        xi_t = lifted_shift(xi_mixed, Fraction(1, 3))
        assert solver_mod._scan_length(xi_t, T, scan_c) > _BLOCK_STEPS
        rep = find_solutions(xi_mixed, Fraction(1, 3), T, delta, scan_c)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_scan_orbit", scan_orbit_reference)
            ref = find_solutions(xi_mixed, Fraction(1, 3), T, delta, scan_c)
        assert rep.count > 0
        assert (rep.solutions, rep.count) == (ref.solutions, ref.count)

    def test_exact_boundary_tie(self):
        # the orbit sits at distance exactly 1/4 from the lift at every step
        xi = ShiftVector.from_values(0, 0, Fraction(1, 4))
        assert find_solutions(xi, 0, 100, 0.25).count == 1
        assert find_solutions(xi, 0, 100, 0.2499999).count == 0

    def test_scan_shorter_than_one_step(self, xi_sqrt2):
        # scan_c*sqrt(T) < 1: no step is scanned
        assert find_solutions(xi_sqrt2, 0, 4, 0.1, scan_c=0.1).count == 0

    def test_huge_scan_c_stops_at_the_norm_cut(self, xi_sqrt2):
        cut = solver_mod._scan_length(xi_sqrt2, 100, 1e15)
        assert cut < 100
        # every step from the cut on fails the norm filter |a| <= T
        assert all(abs(solver_mod._offset_at(xi_sqrt2, m)[0]) > 100 for m in range(cut, 5 * cut))
        started = time.perf_counter()
        rep = find_solutions(xi_sqrt2, 0, 100, 0.1, scan_c=1e15)
        assert time.perf_counter() - started < 1.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_scan_length", lambda xi_t, T, scan_c: 5 * cut)
            again = find_solutions(xi_sqrt2, 0, 100, 0.1, scan_c=1e15)
            assert (again.solutions, again.count) == (rep.solutions, rep.count)

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
        res = count_values_grid(STD, xi, 0, (2,), 0.5)[0]
        assert res.count == oracle_recount((0, 0, 0), 0, 2, Fraction(1, 2))
        assert res.min_residual == 0.0

    def test_reversed_order_recount_matches(self):
        xi = ShiftVector.from_values(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7))
        t, T, delta = Fraction(1, 2), 6, 0.25
        res = count_values_grid(STD, xi, t, (T,), delta)[0]
        assert res.count == oracle_recount((Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)), t, T, Fraction(delta))

    def test_trivial_zero_at_origin(self, xi_sqrt2):
        res = count_values_grid(STD, xi_sqrt2, 0, (1,), 0.01)[0]
        assert res.count >= 1
        assert res.min_residual == 0.0

    def test_saturation_counts_ball(self):
        xi = ShiftVector.from_values(0, 0, 0)
        res = count_values_grid(STD, xi, 0, (3,), 10**6)[0]
        pts = sum(
            1
            for v1 in range(-3, 4)
            for v2 in range(-3, 4)
            for v3 in range(-3, 4)
            if v1 * v1 + v2 * v2 + v3 * v3 <= 9
        )
        assert res.count == pts

    def test_argmin_is_lexicographically_least(self, xi_sqrt2):
        res = count_values_grid(STD, xi_sqrt2, 0, (2,), 0.1)[0]
        # every v on the v2 = v3 = 0 line is an exact zero; least is (-2, 0, 0)
        assert res.min_residual == 0.0
        assert res.argmin == (-2, 0, 0)

    def test_cap_enforced(self, xi_sqrt2):
        with pytest.raises(ValidationError, match="^T=301 exceeds the enumeration cap 300$"):
            count_values_grid(STD, xi_sqrt2, 0, (301,), 0.1)

    @pytest.mark.parametrize("form_lit", ["0 1 0 0 -2 0", SYM_FORM])
    @pytest.mark.parametrize("xi_vals, t", [
        ((Fraction(1, 4), 0, Fraction(1, 2)), 0),
        ((Fraction(3, 8), Fraction(5, 16), Fraction(-7, 32)), Fraction(5, 8)),
        *((xi_vals, t) for _, xi_vals, t, _ in TIES),
    ])
    @pytest.mark.parametrize("T", [0, 1, 4, 8])
    def test_min_and_argmin_match_exact_enumeration(self, form_lit, xi_vals, t, T):
        form = TernaryForm.from_string(form_lit)
        res = count_values_grid(form, ShiftVector.from_values(*xi_vals), t, (T,), 0.0)[0]
        r, v = oracle_min(xi_vals, t, T, form.gram)
        assert (res.min_residual, res.argmin) == (float(r), v)

    @pytest.mark.parametrize("form_lit, xi_vals, t, ties", TIES)
    def test_exact_tie_takes_least_argmin(self, form_lit, xi_vals, t, ties):
        form = TernaryForm.from_string(form_lit)
        res = count_values_grid(form, ShiftVector.from_values(*xi_vals), t, (4,), 0.0)[0]
        r, _ = oracle_min(xi_vals, t, 4, form.gram)
        assert sorted(v for v, rv in exact_residuals(xi_vals, t, 4, form.gram) if rv == r) == ties
        assert res.argmin == ties[0]

    def test_solver_dominated_by_oracle(self, xi_sqrt2):
        for t in (0, Fraction(1, 3)):
            rep = find_solutions(xi_sqrt2, t, 50, 0.3, scan_c=2.0, bound_C=32.0)
            thr = 32.0 * 0.3
            oracle = count_values_grid(STD, xi_sqrt2, t, (50,), thr)[0]
            assert oracle.count >= rep.count >= 1
            t_fix = as_fixed(t)
            for s in rep.solutions:
                assert s.v[0] ** 2 + s.v[1] ** 2 + s.v[2] ** 2 <= 50 * 50
                r = abs(evaluate_shifted(STD, xi_sqrt2, s.v) - t_fix)
                assert r.certainly_le(Fraction(thr))


# the standard form, a general form, A != 0 with two intervals per chord, and
# two forms with a33 = 0 whose chords are constant where g13*u1 + g23*u2 = 0
ORACLE_FORMS = ["0 1 0 0 -2 0", SYM_FORM, "1 1 -1 0 0 0", "1 -1 0 0 0 1", "1 1 0 0 1 -1"]

# denominators 2-12, and integers, which give u1 = 0 or u2 = 0 chords
rationals = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.tuples(st.integers(-30, 30), st.integers(2, 12)).map(lambda p: Fraction(*p)),
)


@contextlib.contextmanager
def exact_evaluations():
    """Record the points the oracle evaluates in certified fixed point."""
    points = []

    def recording(form, xi, v):
        points.append(tuple(v))
        return evaluate_shifted(form, xi, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "evaluate_shifted", recording)
        yield points


class TestOracleDifferential:
    @given(data=st.data(), form_lit=st.sampled_from(ORACLE_FORMS),
           xi_vals=st.tuples(rationals, rationals, rationals), T=st.integers(0, 10),
           mode=st.sampled_from(["zero", "tie", "quarter", "saturate"]))
    @settings(max_examples=120, deadline=None)
    def test_rational_shift_matches_exact_enumeration(self, data, form_lit, xi_vals, T, mode):
        form = TernaryForm.from_string(form_lit)
        v = data.draw(st.tuples(*[st.integers(-T, T)] * 3).filter(
            lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= T * T))
        q = form.evaluate_exact([v[i] + xi_vals[i] for i in range(3)])
        t = data.draw(rationals)
        delta = {"zero": 0.0, "tie": 0.5, "quarter": 0.25, "saturate": 1e6}[mode]
        if mode == "zero":
            t = q
        elif mode == "tie":
            # |Q(v + xi) - t| = delta exactly at v
            t = q + data.draw(st.sampled_from([-delta, delta]))
        res = count_values_grid(form, ShiftVector.from_values(*xi_vals), t, (T,), delta)[0]
        count, r, w = exact_answer(xi_vals, t, T, delta, form.gram)
        assert (res.count, res.min_residual, res.argmin) == (count, float(r), w)

    @given(lits=st.tuples(literals, literals, literals), t_lit=literals,
           form_lit=st.sampled_from(ORACLE_FORMS), T=st.integers(0, 16),
           delta=st.sampled_from([0.0, 0.25, 5.0]), F=st.sampled_from([64, 256]))
    @settings(max_examples=60, deadline=None)
    # an exact rational residual whose float differs by one ulp from that of
    # its certified midpoint
    @example(lits=("-273/1163", "-63/85", "-543/4589"), t_lit="139/290",
             form_lit="1 1 0 0 1 -1", T=0, delta=0.0, F=64)
    def test_irrational_shift_matches_ball_sweep(self, lits, t_lit, form_lit, T, delta, F):
        form = TernaryForm.from_string(form_lit)
        xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
        t = parse_real(t_lit, F)
        res = count_values_grid(form, xi, t, (T,), delta)[0]
        assert (res.count, res.min_residual, res.argmin) == bruteforce_reference(form, xi, t, T, delta)

    @pytest.mark.parametrize("form_lit", ORACLE_FORMS)
    def test_exact_work_stays_near_endpoints_and_minimum(self, form_lit, xi_mixed):
        # 38k chords and 5.6M points, of which a handful are evaluated exactly
        form = TernaryForm.from_string(form_lit)
        with exact_evaluations() as points:
            res = count_values_grid(form, xi_mixed, Fraction(-21, 64), (110,), 0.25)[0]
        assert res.argmin in points
        assert len(points) <= 20
        # a grid sweep sets every ball's running bound from the centre rows
        # on, so its inner balls add only a few points more
        grid = (40, 80, 110)
        with exact_evaluations() as points:
            answers = count_values_grid(form, xi_mixed, Fraction(-21, 64), grid, 0.25)
        assert all(res.argmin in points for res in answers)
        assert len(points) <= 20 * len(grid)

    def test_constant_chords_match_exact_enumeration(self):
        # standard form, alpha = 0: each v1 = 0 chord has Q = u2^2 for every v3,
        # and the chord v2 = -1 is a zero of Q - 4/9 along its 19 points
        xi_vals = (0, Fraction(1, 3), Fraction(1, 2))
        t = Fraction(4, 9)
        res = count_values_grid(STD, ShiftVector.from_values(*xi_vals), t, (10,), 0.0)[0]
        assert (res.count, res.min_residual, res.argmin) == (23, 0.0, (-2, -7, -6))
        count, r, w = exact_answer(xi_vals, t, 10, 0, STD.gram)
        assert (res.count, res.min_residual, res.argmin) == (count, float(r), w)

    @given(data=st.data(), T=st.integers(1, 10), at_rim=st.booleans(),
           mode=st.sampled_from(["zero", "1e-6", "1e-9"]))
    @settings(max_examples=100, deadline=None)
    def test_near_integer_shift_small_delta(self, data, T, at_rim, mode):
        # xi = -v + (small fractions): u = v + xi is tiny at v while the
        # float64 shift is near an integer as large as T, so the rounding of
        # the shift itself, not of u, bounds the float64 error there; at the
        # rim (R = 0) nothing else in the bound covers it
        ball = [(a, b, c) for a in range(-T, T + 1) for b in range(-T, T + 1)
                for c in range(-T, T + 1) if a * a + b * b + c * c <= T * T]
        rim = [p for p in ball if p[0] ** 2 + p[1] ** 2 == T * T]
        v = data.draw(st.sampled_from(rim if at_rim else ball))
        small = st.tuples(st.integers(-3, 3), st.integers(2, 1000)).map(lambda p: Fraction(*p))
        xi_vals = tuple(data.draw(small) - v[i] for i in range(3))
        form = TernaryForm.from_string(data.draw(st.sampled_from(ORACLE_FORMS)))
        q = form.evaluate_exact([v[i] + xi_vals[i] for i in range(3)])
        if mode == "zero":
            t, delta = q, 0.0
        else:
            # |Q(v + xi) - t| = 10^-k exactly, just above the float64 delta
            t, delta = q + data.draw(st.sampled_from([-1, 1])) * Fraction(mode), float(mode)
        res = count_values_grid(form, ShiftVector.from_values(*xi_vals), t, (T,), delta)[0]
        count, r, w = exact_answer(xi_vals, t, T, delta, form.gram)
        assert (res.count, res.min_residual, res.argmin) == (count, float(r), w)

    @given(data=st.data(), form_lit=st.sampled_from(ORACLE_FORMS),
           xi_vals=st.tuples(rationals, rationals, rationals), T=st.integers(0, 10),
           delta=st.sampled_from([0.0, 0.25, 5.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_answer_holds_for_any_valid_bound(self, data, form_lit, xi_vals, T, delta, seed):
        # E + w bounds the distance from C + c to the certified values whenever
        # |c| <= w, so the oracle must give the exact answer for any such
        # chord polynomials; the chord of the argmin gets w = 1 and is pushed
        # away from zero, so its band reaches the argmin only through the
        # margin of its own bound, not the one that set the running minimum
        form = TernaryForm.from_string(form_lit)
        t = data.draw(rationals)
        count, r, w = exact_answer(xi_vals, t, T, delta, form.gram)
        rng = np.random.default_rng(seed)
        chord_polynomials = solver_mod._chord_polynomials

        def loosened(*args):
            A, chord = chord_polynomials(*args)

            def moved(v1, v2, R):
                B, C, E = chord(v1, v2, R)
                on = (v1 == w[0]) & (v2 == w[1])
                away = np.where((A * w[2] + B) * w[2] + C < 0, -1.0, 1.0)
                width = np.where(on, 1.0, 1e-3 * rng.random(len(C)))
                push = np.where(on, 0.8 * away, rng.uniform(-0.8, 0.8, len(C)))
                return B, C + push * width, E + width

            return A, moved

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_chord_polynomials", loosened)
            res = count_values_grid(form, ShiftVector.from_values(*xi_vals), t, (T,), delta)[0]
        assert (res.count, res.min_residual, res.argmin) == (count, float(r), w)

    @pytest.mark.parametrize("form_lit, xi_vals, t, delta, expected", [
        # exact zero that the rounded midpoint reported as 8.6e-78
        ("1 1 -1 0 0 0", (0, Fraction(2, 9), Fraction(2, 9)), Fraction(-19, 3), 0.0, 0),
        # exact tie whose least argmin (-2, -3, -3) lost to (1, 1, 0) by midpoint
        ("0 1 0 0 -2 0", (Fraction(8, 9), Fraction(1, 3), Fraction(2, 3)), Fraction(-10, 3), 0.25,
         Fraction(2, 27)),
    ])
    def test_non_dyadic_minimum_is_decided_exactly(self, form_lit, xi_vals, t, delta, expected):
        form = TernaryForm.from_string(form_lit)
        res = count_values_grid(form, ShiftVector.from_values(*xi_vals), t, (5,), delta)[0]
        count, r, w = exact_answer(xi_vals, t, 5, delta, form.gram)
        assert r == expected
        assert (res.count, res.min_residual, res.argmin) == (count, float(r), w)


def answer(res):
    return res.count, repr(res.min_residual), res.argmin


# unsorted grids with repeats and T = 0, whose largest T spans several blocks
# of the disc sweep (a block holds 4096 // (2T + 1) rows)
@st.composite
def grids(draw):
    grid = [draw(st.integers(64, 90)),
            *draw(st.lists(st.one_of(st.integers(0, 10), st.integers(30, 90)), max_size=4))]
    grid += grid[:draw(st.integers(0, 2))]
    return draw(st.permutations(grid))


class TestOracleGrid:
    @given(form_lit=st.sampled_from(ORACLE_FORMS), xi_vals=st.tuples(rationals, rationals, rationals),
           t=rationals, grid=grids(), delta=st.sampled_from([0.0, 0.25, 5.0]))
    @settings(max_examples=30, deadline=None)
    @example(form_lit="1 1 -1 0 0 0", xi_vals=(Fraction(1, 3), Fraction(-1, 2), 0), t=Fraction(1, 4),
             grid=[64, 0, 5, 64, 0], delta=0.25)
    def test_rational_shift_matches_one_cell_calls(self, form_lit, xi_vals, t, grid, delta):
        form = TernaryForm.from_string(form_lit)
        xi = ShiftVector.from_values(*xi_vals)
        answers = count_values_grid(form, xi, t, grid, delta)
        assert len(answers) == len(grid)
        for T, res in zip(grid, answers):
            assert answer(res) == answer(count_values_grid(form, xi, t, (T,), delta)[0])
            if T <= 10:
                count, r, w = exact_answer(xi_vals, t, T, delta, form.gram)
                assert (res.count, res.min_residual, res.argmin) == (count, float(r), w)

    @given(lits=st.tuples(literals, literals, literals), t_lit=literals,
           form_lit=st.sampled_from(ORACLE_FORMS), grid=grids(),
           delta=st.sampled_from([0.0, 0.01, 0.25, 5.0]), F=st.sampled_from([64, 256]))
    @settings(max_examples=20, deadline=None)
    def test_irrational_shift_matches_one_cell_calls(self, lits, t_lit, form_lit, grid, delta, F):
        form = TernaryForm.from_string(form_lit)
        xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
        t = parse_real(t_lit, F)
        answers = count_values_grid(form, xi, t, grid, delta)
        assert [answer(res) for res in answers] == [
            answer(count_values_grid(form, xi, t, (T,), delta)[0]) for T in grid]

    def test_each_resolved_point_is_evaluated_once(self):
        # every value is an integer plus 1/4, so |Q - t| = delta holds exactly on whole
        # planes: each resolved point is both unsure and a candidate for the minimum
        xi_vals = (0, Fraction(1, 2), 0)
        with exact_evaluations() as points:
            res = count_values_grid(STD, ShiftVector.from_values(*xi_vals), 0, (12,), 0.25)[0]
        assert len(points) == len(set(points)) == 126
        count, r, w = exact_answer(xi_vals, 0, 12, 0.25)
        assert (res.count, res.min_residual, res.argmin) == (count, float(r), w)

    def test_cap_refuses_the_first_T_over_it_in_grid_order(self, xi_sqrt2):
        with pytest.raises(ValidationError, match="^T=400 exceeds the enumeration cap 300$"):
            count_values_grid(STD, xi_sqrt2, 0, (5, 400, 301), 0.1)
        with pytest.raises(ValidationError, match="T must be >= 0"):
            count_values_grid(STD, xi_sqrt2, 0, (5, -1, 400), 0.1)
        assert count_values_grid(STD, xi_sqrt2, 0, (), 0.1) == []

    @pytest.mark.parametrize("grid", [(), (5,), (5, 6)])
    @pytest.mark.parametrize("delta", [-1.0, math.nan])
    def test_delta_refused_for_every_grid(self, xi_sqrt2, grid, delta):
        with pytest.raises(ValidationError, match="^delta must be >= 0$"):
            count_values_grid(STD, xi_sqrt2, 0, grid, delta)


# signed permutations P, (P v)_i = s_i * v_{perm[i]}; there are 48
signed_permutations = st.tuples(st.permutations(range(3)), st.tuples(*[st.sampled_from([1, -1])] * 3))


def residual_key(form, xi, t, v):
    """The oracle's key for v: the exact residual, or its certified midpoint."""
    r = abs(evaluate_shifted(form, xi, v) - t)
    return r.exact if r.exact is not None else r.midpoint()


class TestOracleInvariants:
    """Facts about Q and the ball, checked at T up to 40, past the references' T <= 16."""

    @given(P=signed_permutations, form_lit=st.sampled_from(ORACLE_FORMS),
           lits=st.tuples(literals, literals, literals), t_lit=literals, T=st.integers(16, 40),
           delta=st.sampled_from([0.0, 0.01, 0.25, 5.0]), F=st.sampled_from([64, 256]))
    @settings(max_examples=60, deadline=None)
    @example(P=((2, 1, 0), (1, 1, -1)), form_lit="0 1 0 0 -2 0", lits=("sqrt:2", "sqrt:3", "1/2"),
             t_lit="7/10", T=40, delta=0.1, F=256)
    def test_signed_permutation(self, P, form_lit, lits, t_lit, T, delta, F):
        # Q'(v) = Q(P v) and xi' = P^-1 xi give Q'(v + xi') = Q(P v + xi) on the same ball
        perm, sign = P
        form = TernaryForm.from_string(form_lit)
        xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
        t = parse_real(t_lit, F)
        gram = [[0] * 3 for _ in range(3)]
        comps: list = [None] * 3
        for i in range(3):
            comps[perm[i]] = xi.components()[i] if sign[i] > 0 else -xi.components()[i]
            for j in range(3):
                gram[perm[i]][perm[j]] = sign[i] * sign[j] * form.gram[i][j]
        moved = TernaryForm.from_rows(gram)
        res = count_values_grid(form, xi, t, (T,), delta)[0]
        res_p = count_values_grid(moved, ShiftVector(*comps), t, (T,), delta)[0]
        assert (res_p.count, res_p.min_residual) == (res.count, res.min_residual)
        mapped = tuple(sign[i] * res_p.argmin[perm[i]] for i in range(3))
        # the lexicographic tie-break does not commute with P: a tied minimum
        # is compared at the mapped point
        if mapped != res.argmin:
            assert residual_key(form, xi, t, mapped) == residual_key(form, xi, t, res.argmin)

    @given(c=st.sampled_from([2, 4, 8, 3]), form_lit=st.sampled_from(ORACLE_FORMS),
           lits=st.tuples(literals, literals, literals), t_lit=literals, T=st.integers(16, 40),
           delta=st.sampled_from([0.0, 0.03125, 0.25, 5.0]), F=st.sampled_from([64, 256]))
    @settings(max_examples=60, deadline=None)
    # tied minima whose midpoints scaling reorders: v -> v - 2*v1*(1, 1, 1) is an
    # isometry of SYM_FORM that fixes this shift mod Z^3; and with a rational
    # shift, the exact Q at (1, -1, -1) and (-1, 1, 1) is rounded term by term
    # to mantissas an ulp apart, which an inexact t keeps in the midpoint
    @example(c=3, form_lit=SYM_FORM, lits=("0", "sqrt:2", "1/129"), t_lit="sqrt:2", T=15, delta=0.0, F=64)
    @example(c=8, form_lit="1 1 0 0 1 -1", lits=("38/97", "0", "0"), t_lit="surd:-44,-41,20,614", T=2,
             delta=0.25, F=256)
    def test_scaling(self, c, form_lit, lits, t_lit, T, delta, F):
        # |c*Q - c*t| <= c*delta picks the same points; the deltas are dyadic, so c*delta is exact
        form = TernaryForm.from_string(form_lit)
        xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
        t = parse_real(t_lit, F)
        scaled = TernaryForm.from_rows([[c * g for g in row] for row in form.gram])
        res = count_values_grid(form, xi, t, (T,), delta)[0]
        res_c = count_values_grid(scaled, xi, t.mul_int(c), (T,), c * delta)[0]
        assert res_c.count == res.count
        # a tie between inexact residuals goes to the least midpoint, which
        # scaling can move by an ulp: there the two residuals must overlap
        if res_c.argmin != res.argmin:
            r, r_c = (abs(evaluate_shifted(form, xi, v) - t) for v in (res.argmin, res_c.argmin))
            assert (r - r_c).contains_zero()
        # a non-dyadic c, and any c on an inexact value, moves each rounding
        # of the certified midpoint by a few ulps of 2^-F
        assert res_c.min_residual == pytest.approx(c * res.min_residual, rel=1e-12, abs=1e-15)


def keep_every_chord(A, B, C, E, R, bound):
    """A chord filter that drops nothing: the oracle's path without the filter."""
    return np.ones(len(C), dtype=bool)


class SmallBlocks:
    """Rerun a class's tests with a few chords per block of the disc sweep.

    A block then holds one or two rows, so the balls of the references span
    many blocks and the chord filter, which starts at the second block, runs
    on them.
    """

    @pytest.fixture(autouse=True, scope="class")
    def small_blocks(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_BLOCK_SLICES", 8)
            yield


class Unfiltered:
    """Rerun a class's tests with the chord filter keeping every chord."""

    @pytest.fixture(autouse=True, scope="class")
    def unfiltered(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_near_chords", keep_every_chord)
            yield


def rerun(mode, cls):
    """A subclass of cls whose tests run under the mode's fixture, named cls + mode.

    Each @given test is wrapped afresh, with the strategies, settings and
    examples of the original, as Hypothesis runs one wrapped test from one
    class only.
    """
    fresh = {name: given(**test.hypothesis._given_kwargs)(test.hypothesis.inner_test)
             for name, test in vars(cls).items() if hasattr(test, "hypothesis")}
    return type(cls.__name__ + mode.__name__, (mode, cls), fresh)


TestOracleDifferentialSmallBlocks = rerun(SmallBlocks, TestOracleDifferential)
TestOracleDifferentialUnfiltered = rerun(Unfiltered, TestOracleDifferential)
TestOracleGridSmallBlocks = rerun(SmallBlocks, TestOracleGrid)
TestOracleGridUnfiltered = rerun(Unfiltered, TestOracleGrid)
TestOracleInvariantsSmallBlocks = rerun(SmallBlocks, TestOracleInvariants)
TestOracleInvariantsUnfiltered = rerun(Unfiltered, TestOracleInvariants)


class TestChordFilter:
    @given(data=st.data(), form_lit=st.sampled_from(ORACLE_FORMS),
           xi_vals=st.tuples(rationals, rationals, rationals), T=st.integers(1, 10),
           delta=st.sampled_from([0.0, 0.25, 5.0]), width=st.sampled_from([0.0, 1e-3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_dropped_chords_hold_no_hit_and_no_candidate(self, data, form_lit, xi_vals, T, delta,
                                                         width, seed):
        # every chord the filter drops has all its residuals above the bound
        # it was given, max(delta, mu) or more; the chord polynomials may be
        # loosened as in test_answer_holds_for_any_valid_bound, C moved by up
        # to 0.8 w and E grown by w, which a filter without its margin of E
        # on each side of the band misses
        form = TernaryForm.from_string(form_lit)
        t = data.draw(rationals)
        rng = np.random.default_rng(seed)
        chord_polynomials, near_chords = solver_mod._chord_polynomials, solver_mod._near_chords
        blocks, dropped = [], []

        def loosened(*args):
            A, chord = chord_polynomials(*args)

            def moved(v1, v2, R):
                B, C, E = chord(v1, v2, R)
                blocks.append((v1, v2, R))
                w = width * rng.random(len(C))
                return B, C + rng.uniform(-0.8, 0.8, len(C)) * w, E + w

            return A, moved

        def recording(A, B, C, E, R, bound):
            keep = near_chords(A, B, C, E, R, bound)
            v1, v2, R = blocks[-1]
            dropped.extend((int(v1[i]), int(v2[i]), int(R[i]), bound) for i in np.flatnonzero(~keep))
            return keep

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_BLOCK_SLICES", 8)
            mp.setattr(solver_mod, "_chord_polynomials", loosened)
            mp.setattr(solver_mod, "_near_chords", recording)
            count_values_grid(form, ShiftVector.from_values(*xi_vals), t, (T,), delta)
        K, resid = scaled_residual(xi_vals, t, form.gram)
        for v1, v2, R, bound in dropped:
            assert bound >= delta
            assert all(resid((v1, v2, n)) > Fraction(bound) * K for n in range(-R, R + 1))

    @pytest.mark.parametrize("form_lit", ["0 1 0 0 -2 0", "1 1 -1 0 0 0"])
    def test_few_chords_reach_the_general_path(self, form_lit, xi_mixed):
        # 38k chords at T = 110: the first block's 18 rows, 4.0k chords or
        # 10.5%, take the general path, and past them the 73 (standard form)
        # or 88 chords of 34k that the filter keeps, near a hit or the minimum
        T = 110
        near_chords = solver_mod._near_chords
        seen, kept = [0], [0]

        def counting(*args):
            keep = near_chords(*args)
            seen[0] += len(keep)
            kept[0] += int(keep.sum())
            return keep

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_near_chords", counting)
            count_values_grid(TernaryForm.from_string(form_lit), xi_mixed, Fraction(-21, 64), (T,), 0.25)
        chords = sum(2 * math.isqrt(T * T - v1 * v1) + 1 for v1 in range(-T, T + 1))
        assert kept[0] < 0.005 * seen[0]
        assert chords - seen[0] + kept[0] < 0.11 * chords


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

    @pytest.mark.parametrize("scan_c", [0.0, -1.0])
    def test_solver_mode_refuses_nonpositive_scan_c(self, xi_sqrt2, scan_c):
        with pytest.raises(ValidationError, match="^scan_c must be positive$"):
            estimate_critical_exponent(xi_sqrt2, 0, (4, 100), mode="solver", scan_c=scan_c)
        # oracle mode does not read scan_c
        assert estimate_critical_exponent(xi_sqrt2, 0, (4,), mode="oracle", scan_c=scan_c)

    def test_solver_mode_refuses_another_form(self, xi_sqrt2):
        other = TernaryForm.from_string("1 1 -1 0 0 0")
        with pytest.raises(ValidationError, match="^solver mode takes the standard form only; "):
            estimate_critical_exponent(xi_sqrt2, 0, (100,), mode="solver", form=other)
        # the standard form given explicitly runs as the default does
        standard = TernaryForm.from_string("0 1 0 0 -2 0")
        assert (estimate_critical_exponent(xi_sqrt2, 0, (100,), mode="solver", form=standard)
                == estimate_critical_exponent(xi_sqrt2, 0, (100,), mode="solver"))

    def test_solver_mode_huge_scan_c_stops_at_the_norm_cut(self, xi_sqrt2):
        started = time.perf_counter()
        rows = estimate_critical_exponent(xi_sqrt2, Fraction(1, 3), (100, 10000), mode="solver",
                                          scan_c=1e15)
        assert time.perf_counter() - started < 1.0
        cut = solver_mod._scan_length
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_scan_length", lambda *args: 3 * cut(*args))
            assert estimate_critical_exponent(xi_sqrt2, Fraction(1, 3), (100, 10000), mode="solver",
                                              scan_c=1e15) == rows

    def test_monotone_grid_required(self, xi_sqrt2):
        with pytest.raises(ValidationError):
            estimate_critical_exponent(xi_sqrt2, 0, (40, 20), mode="oracle")
        with pytest.raises(ValidationError):
            estimate_critical_exponent(xi_sqrt2, 0, (), mode="oracle")

    @pytest.mark.parametrize("mode", ["oracle", "solver"])
    @pytest.mark.parametrize("grid", [(0, 5), (1, 5)])
    def test_grid_below_two_refused(self, sqrt2, sqrt3, mode, grid):
        # log(T) is 0 at T = 1 and undefined at T = 0
        xi = ShiftVector.from_values(sqrt2, sqrt3, 0)
        with pytest.raises(ValidationError, match="^T grid entries must be >= 2$"):
            estimate_critical_exponent(xi, 0, grid, mode=mode)

    def test_bad_mode(self, xi_sqrt2):
        with pytest.raises(ValidationError):
            estimate_critical_exponent(xi_sqrt2, 0, (20,), mode="magic")

    def test_solver_mode_evaluates_the_form_once_per_T(self, xi_sqrt2):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return evaluate_shifted(*args, **kwargs)

        grid = (100, 10**4, 10**6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "evaluate_shifted", counting)
            rows = estimate_critical_exponent(xi_sqrt2, Fraction(1, 3), grid, mode="solver")
        assert len(calls) == len(grid)
        assert rows == exponent_reference(xi_sqrt2, Fraction(1, 3), grid)

    @pytest.mark.parametrize("lits, scan_c", [
        (("0/1", "1/2", "0/1"), 1e15),
        # an inexact alpha whose mantissa is 0 at F = 256
        (("surd:0,1,1" + "0" * 80 + ",2", "sqrt:3", "1/3"), 1e6),
    ])
    def test_fixed_midpoint_evaluates_the_form_once_per_T(self, lits, scan_c):
        # with a zero alpha mantissa every step has the same midpoint, so the
        # first step that passes the norm filter decides the row
        xi = ShiftVector(*(parse_real(lit, 256) for lit in lits))
        grid = (100, 10**4)
        calls = []

        def counting(*args):
            calls.append(args[2])
            return evaluate_shifted(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "evaluate_shifted", counting)
            rows = estimate_critical_exponent(xi, 0, grid, mode="solver", scan_c=scan_c)
        assert len(calls) == len(grid)
        assert rows == exponent_reference(xi, 0, grid, scan_c)

    @pytest.mark.parametrize("lits, F", [
        (("0/1", "2000001/2", "0/1"), 256), (("0/1", "-1000001", "1/3"), 256),
        ((f"surd:0,1,1{'0' * 80},2", "1000001/1", "0/1"), 256),
        # a radius of 2 ulps, which a scan to step 2T + 1 refuses
        (("dec:0." + "0" * 21 + "1", "2000001/2", "0/1"), 64),
    ])
    def test_zero_alpha_offset_past_T_scans_no_step(self, lits, F):
        # with a zero alpha mantissa every step has a = -round(beta), and
        # |a| = 10^6 + (0 or 1) > T fails the norm filter, so the scan is cut at 0 steps
        xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
        assert solver_mod._scan_length(xi, 999999, 1e15) == 0
        # at T = 10^6 + 1 the offset passes, and the scan runs to its cut or
        # refuses the radius there
        assert outcome(solver_mod._scan_length, xi, 1000001, 1e15) != 0
        with offset_steps() as steps:
            with pytest.raises(ValidationError, match="^no step survived the norm filter at T=999999$"):
                estimate_critical_exponent(xi, 0, [999999], mode="solver", scan_c=1e15)
            assert find_solutions(xi, 0, 999999, 0.3, scan_c=1e15).count == 0
        assert steps == []

    @pytest.mark.parametrize("lits", [("0/1", "1/2", "0/1"), ("0/1", "1/3", "1/5"),
                                      ("0/1", "1/1", "1/2"), ("0/1", "-5/2", "7/3")])
    @pytest.mark.parametrize("scan_c", [1e15, 1e308])
    def test_zero_alpha_huge_scan_c_ends(self, lits, scan_c):
        # with alpha = 0 the offset a is the same at every step, and v3 grows
        # like m*G for the gap G of a, or repeats with period 2 when G = 0;
        # with t = 0 every step has the same midpoint, so the exponent stops
        # at the first step that passes the norm filter
        xi = ShiftVector(*(parse_real(lit) for lit in lits))
        grid = (4, 100, 10**4)
        started = time.perf_counter()
        rows = estimate_critical_exponent(xi, 0, grid, mode="solver", scan_c=scan_c)
        rep = find_solutions(xi, 0, 100, 0.3, scan_c=scan_c)
        assert time.perf_counter() - started < 5.0
        cut = solver_mod._scan_length
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_scan_length", lambda *args: 3 * cut(*args))
            assert estimate_critical_exponent(xi, 0, grid, mode="solver", scan_c=scan_c) == rows
            again = find_solutions(xi, 0, 100, 0.3, scan_c=scan_c)
            assert (again.solutions, again.count) == (rep.solutions, rep.count)


class TestExponentDifferential:
    @given(lits=st.tuples(st.one_of(literals, dyadics, small_fractions, st.just("0/1")),
                          st.one_of(literals, dyadics, small_fractions),
                          st.one_of(literals, dyadics, small_fractions)),
           t_lit=st.one_of(literals, dyadics, small_fractions, st.just("0/1")),
           grid=st.lists(st.sampled_from([4, 10, 100, 1000, 10**4, 10**5]), min_size=1, max_size=3,
                         unique=True).map(sorted),
           scan_c=st.floats(0.5, 5), F=st.sampled_from([64, 256, 512]))
    @settings(max_examples=150, deadline=None)
    # an inexact alpha whose mantissa is 0 at F = 256
    @example(lits=("surd:0,1,1" + "0" * 80 + ",2", "sqrt:3", "1/3"), t_lit="0/1",
             grid=[100, 10**4], scan_c=5.0, F=256)
    def test_solver_mode_matches_per_step_reference(self, lits, t_lit, grid, scan_c, F):
        xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
        t = parse_real(t_lit, F)
        got = outcome(estimate_critical_exponent, xi, t, grid, mode="solver", scan_c=scan_c)
        assert got == outcome(exponent_reference, xi, t, grid, scan_c)

    @pytest.mark.parametrize("lits, t_lit, grid, scan_c, F", [
        # m_max = 4100 crosses the first block boundary of the walk
        (("sqrt:2", "sqrt:3", "1/2"), "dec:0.7", (10**6,), 4.1, 256),
        (("sqrt:2", "0/1", "0/1"), "1/3", (10**6,), 4.1, 512),
        # T = 10^8 on each shift class: sqrt:, surd:, a dec: target and a zero alpha
        (("sqrt:2", "0/1", "0/1"), "0/1", (10**8,), 1.0, 256),
        (("surd:1,1,2,5", "sqrt:7", "1/3"), "sqrt:3", (10**8,), 1.0, 256),
        (("sqrt:2", "sqrt:3", "1/2"), "dec:0.7", (10**8,), 1.0, 512),
        (("0/1", "sqrt:3", "1/2"), "0/1", (10**8,), 1.0, 256),
        # scan_c*sqrt(T) < 1: no step is scanned
        (("sqrt:2", "0/1", "0/1"), "0/1", (4,), 0.1, 256),
        # an alpha near float64 range bounds nothing, so the steps up to the
        # norm cut take the per-step path (here gy = 0, and a floor computed
        # anyway would be 4*alpha * 0 = inf * 0); for |alpha| = 5e307 the float
        # 4*alpha overflows while 3*|alpha| does not
        (("7" + "0" * 307, "0/1", "0/1"), "1/3", (17 * 10**307,), 1.0, 256),
        (("7" + "0" * 307, "sqrt:3", "1/2"), "1/3", (17 * 10**307,), 1.0, 256),
        (("5" + "0" * 307, "0/1", "0/1"), "0/1", (15 * 10**307,), 1.0, 256),
        (("-5" + "0" * 307, "0/1", "0/1"), "0/1", (15 * 10**307,), 1.0, 256),
    ])
    def test_fixed_scans_match_per_step_reference(self, lits, t_lit, grid, scan_c, F):
        xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
        t = parse_real(t_lit, F)
        got = outcome(estimate_critical_exponent, xi, t, grid, mode="solver", scan_c=scan_c)
        assert got == outcome(exponent_reference, xi, t, grid, scan_c)

    def test_few_steps_reach_the_offset(self, xi_sqrt2):
        # the residual filter leaves under 1% of the 10^4 steps to the per-step path
        with offset_steps() as steps:
            rows = estimate_critical_exponent(xi_sqrt2, 0, (10**8,), mode="solver")
        assert len(steps) < 100
        assert rows == exponent_reference(xi_sqrt2, 0, (10**8,))

    def test_saturated_rows_match(self):
        # exact zeros with non-dyadic and dyadic data
        for lits, t in ((("1/3", "1/2", "0/1"), "1/4"), (("1/2", "0/1", "1/2"), "-1/1")):
            xi = ShiftVector(*(parse_real(lit) for lit in lits))
            rows = estimate_critical_exponent(xi, parse_real(t), (10, 100), mode="solver")
            assert all(r.saturated for r in rows)
            assert rows == exponent_reference(xi, parse_real(t), (10, 100))

    @pytest.mark.parametrize("lits, t_lit, F, scan_c, grid", [
        (("1/3", "1/3", "1/7"), "1/7", 128, 1.0, (100, 10**4, 10**6)),
        (("2/7", "3/5", "1/3"), "1/3", 128, 5.0, (100, 10**4, 10**6)),
        # refused: at F = 64 the radius of a non-dyadic input is the whole tolerance
        (("1/3", "1/3", "1/7"), "1/7", 64, 1.0, (100, 10**4, 10**6)),
        (("2/7", "3/5", "1/3"), "1/3", 64, 5.0, (100,)),
        # tied exact residuals whose form evaluations differ in the last ulp
        (("-19/10", "-28/5", "-21/8"), "21/8", 128, 4.049255080109809, (10**4,)),
        (("35/12", "30/9", "-33/5"), "-16/4", 96, 2.844849526576636, (10**4,)),
        (("-13/12", "21/9", "-17/1"), "28/6", 128, 3.402789249467379, (100,)),
        (("28/5", "1/10", "26/2"), "16/4", 128, 2.6671988706743917, (100,)),
        # an exact alpha whose mantissa is 0 at F = 256 does not fix the
        # midpoint: -4*alpha*x3 is rounded from its exact value, which grows with v3
        (("1/1" + "0" * 80, "sqrt:3", "1/3"), "0/1", 256, 5.0, (100, 10**4)),
    ])
    def test_small_denominators_pick_the_least_midpoint(self, lits, t_lit, F, scan_c, grid):
        xi = ShiftVector(*(parse_real(lit, F) for lit in lits))
        t = parse_real(t_lit, F)
        want = []
        expected = outcome(exponent_reference, xi, t, grid, scan_c, want)
        got_rows, got = [], []
        for T in grid:
            seen = []

            def recording(*args, **kwargs):
                q = evaluate_shifted(*args, **kwargs)
                seen.append(abs(q - t).midpoint())
                return q

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver_mod, "evaluate_shifted", recording)
                rows = outcome(estimate_critical_exponent, xi, t, (T,), mode="solver", scan_c=scan_c)
            if not isinstance(rows, list):
                got_rows = rows
                break
            got_rows += rows
            got.append(min(seen))
        assert got_rows == expected
        assert got == want
