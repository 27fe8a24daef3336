import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
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
    unipotent,
    weyl_differencing_bound,
    weyl_sum_lanes,
)
from qdensity import weyl_sums
from qdensity.harness import Lcg64
from qdensity.weyl_sums import (
    _BLOCK_STEPS,
    _LANE_ELEMENTS,
    PHASE_TOL,
    TWO_PI,
    WeylSumResult,
    _orbit_radius,
    _phase_limbs,
    _phase_to_float,
    _scan_orbit,
    _sum_min_kernel,
    _weyl_phases,
)

# frozen from 45-digit evaluations
TWO_SQRT2_MOD1 = 0.8284271247461900976033774484194
SQRT2_MOD1 = 0.4142135623730950488016887242097


def scan_orbit_reference(alpha, beta, gamma, vx, vy, T, thr):
    """Per-step bigint reference for weyl_sums._scan_orbit: the same yields, no block filter."""
    F = alpha.F
    S = 1 << F
    H = S >> 1
    mask = S - 1
    A, B, C = alpha.mant, beta.mant, gamma.mant
    ev = max(vx.err, vy.err)
    # the reference radius only shifts the comparison, so it joins the margins
    E = _orbit_radius(alpha, beta, gamma, T) + ev

    thr_sq = Fraction(thr) ** 2
    # dist^2 <= thr^2  <=>  (gx^2 + gy^2) * den <= num for the folded ulp differences gx, gy
    scaled = thr_sq * S * S
    num, den = scaled.numerator, scaled.denominator
    # margin covers |true^2 - mid^2| for both coordinates at radius E; the
    # integer gx^2 + gy^2 is certainly in at <= hit_lim, certainly out above miss_lim
    margin = 2 * E * S + 2 * E * E
    hit_lim = num // den - margin
    miss_lim = num // den + margin

    exacts = (alpha.exact, beta.exact, gamma.exact, vx.exact, vy.exact)
    all_exact = all(e is not None for e in exacts)

    def exact_hit(m: int) -> bool:
        ae, be, ce, vxe, vye = exacts
        rx = (2 * ae * m + be - vxe) % 1
        ry = (ae * m * m + be * m + ce - vye) % 1
        rx = min(rx, 1 - rx)
        ry = min(ry, 1 - ry)
        return rx * rx + ry * ry <= thr_sq

    # exact integer recurrences on unreduced mantissas, offset by H so that
    # (x & mask) - H is the difference to the reference folded into [-1/2, 1/2)
    x = 2 * A + B + H - vx.mant     # 2*alpha*m + beta at m = 1
    y = A + B + C + H - vy.mant     # alpha*m^2 + beta*m + gamma at m = 1
    dy = 3 * A + B                  # second coordinate first difference
    step = 2 * A                    # first coordinate step = second difference
    for m in range(1, T + 1):
        gx = (x & mask) - H
        gy = (y & mask) - H
        base = gx * gx + gy * gy
        if base <= hit_lim:
            yield m, True
        elif base <= miss_lim:
            # near the boundary: redo the margin with the per-m radius
            Em = _orbit_radius(alpha, beta, gamma, m) + ev
            gm = 2 * Em * (abs(gx) + abs(gy)) + 2 * Em * Em
            if (base + gm) * den <= num:
                yield m, True
            elif (base - gm) * den <= num:
                if not all_exact:
                    yield m, False
                elif exact_hit(m):
                    yield m, True
        x += step
        y += dy
        dy += step


def phase_float_reference(x, F):
    """The top 53 bits of x in [0, 2^F) as a float in [0, 1), written apart from weyl_sums._phase_to_float."""
    return math.ldexp(float(x >> (F - 53)), -53) if F > 53 else math.ldexp(float(x), -F)


def weyl_sum_reference(n, alpha, beta, T):
    """Per-term bigint reference for one lane of weyl_sums.weyl_sum_lanes: the same floats in the same order, no blocks."""
    if T < 1:
        raise ValidationError("sum length T must be >= 1")
    F = alpha.F
    if beta.F != F:
        raise ValidationError("sum coefficients must share one precision")
    mask = (1 << F) - 1
    PA = n * alpha.mant
    ea = abs(n) * alpha.err
    PB = beta.mant
    eb = beta.err
    if Fraction(ea * T * T + eb * T, 1 << F) > PHASE_TOL:
        raise PrecisionExhausted("phase radius at m=T exceeds the phase tolerance")

    re = im = 0.0
    cre = cim = 0.0  # Kahan compensation
    # exact recurrences on unreduced mantissas, folded mod 2^F by one & per term
    x = PA + PB                 # phase at m = 1
    d = 3 * PA + PB
    dd = 2 * PA
    cos, sin = math.cos, math.sin
    for _ in range(T):
        ang = TWO_PI * phase_float_reference(x & mask, F)
        t = cos(ang) - cre
        s = re + t
        cre = (s - re) - t
        re = s
        t = sin(ang) - cim
        s = im + t
        cim = (s - im) - t
        im = s
        x += d
        d += dd
    return WeylSumResult(re, im)


def sum_min_kernel_reference(step_mant, step_err, count, T_cap, F):
    """Per-term bigint reference for weyl_sums._sum_min_kernel: the same terms in the same order, no blocks.

    Below F = 1024 a term is fS / float(ar); above, where float(2^F) overflows,
    it is 1 / (ar / S), the correctly rounded quotient of 2^F by float(ar).
    """
    E = step_err * count
    if Fraction(E, 1 << F) > PHASE_TOL:
        raise PrecisionExhausted("linear phase radius exceeds the phase tolerance")
    S = 1 << F
    H = S >> 1
    mask = S - 1
    total = 0.0
    comp = 0.0
    # unreduced m*step offset by H, so (w & mask) - H is its fold into [-1/2, 1/2)
    w = H
    for m in range(1, count + 1):
        w += step_mant
        r = (w & mask) - H
        ar = -r if r < 0 else r
        if ar <= E and E:
            raise PrecisionExhausted(f"circle norm at m={m} is below the certified radius")
        if ar * T_cap <= S:
            term = float(T_cap)
        else:
            term = float(S) / float(ar) if F < 1024 else 1 / (ar / S)
        t = term - comp
        s = total + t
        comp = (s - total) - t
        total = s
    return total


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

    def test_radius_past_float_range_refuses(self):
        # 2^1136 is past float64 range: the refusal compares integers, it formats no radius
        z64 = FixedReal.zero(64)
        with pytest.raises(PrecisionExhausted, match="orbit radius at m=1 exceeds"):
            phi(FixedReal(0, 1 << 1200, 64), z64, z64, 1)

    def test_matches_unipotent_action(self, sqrt2, zero):
        xi = ShiftVector(sqrt2, zero, zero)
        for m in (1, 3, 10, 101):
            w = apply(xi, unipotent(m))
            p = phi(sqrt2, zero, zero, m)
            assert w.beta.frac_part().mant == p.x.mant
            assert w.gamma.frac_part().mant == p.y.mant


class TestTorusDist:
    """The torus distance of the orbit scan, read off the constant orbit (0, g).

    With alpha = beta = 0 every step sits at (0, g), so count_orbit_hits
    returns all T steps or none, by the distance from (0, g) to v0.
    """

    T = 5

    def hits(self, g, vx, vy, delta) -> bool:
        z = FixedReal.zero()
        count = count_orbit_hits(z, z, as_fixed(g), TorusPoint2.from_values(vx, vy), self.T, delta)
        assert count in (0, self.T)
        return count == self.T

    def test_identity(self):
        assert self.hits(Fraction(2, 3), 0, Fraction(2, 3), 1e-12)
        assert self.hits(Fraction(2, 3), 5, Fraction(-1, 3), 1e-12)

    def test_wraparound(self):
        # (0, 1/10) and (0, 9/10) are 0.2 apart across the edge; the comparison is closed
        assert self.hits(Fraction(1, 10), 0, Fraction(9, 10), 0.2)
        assert not self.hits(Fraction(1, 10), 0, Fraction(9, 10), 0.19999)

    def test_double_wrap(self):
        # both coordinates 0.2 apart across the edge: distance sqrt(0.08) = 0.28284...
        assert self.hits(Fraction(1, 10), Fraction(4, 5), Fraction(9, 10), 0.2829)
        assert not self.hits(Fraction(1, 10), Fraction(4, 5), Fraction(9, 10), 0.2828)

    coords = st.fractions(min_value=0, max_value=1, max_denominator=997)

    @given(g=coords, ax=coords, ay=coords, kx=st.integers(-3, 3), ky=st.integers(-3, 3),
           delta=st.floats(0.001, 0.49))
    @settings(max_examples=120, deadline=None)
    def test_metric_properties(self, g, ax, ay, kx, ky, delta):
        """Hit exactly when the folded Fraction distance is at most delta, the same under
        integer translation of v0 and under negating both points."""
        def fold(f):
            f %= 1
            return min(f, 1 - f)

        hit = fold(ax) ** 2 + fold(ay - g) ** 2 <= Fraction(delta) ** 2
        assert self.hits(g, ax, ay, delta) == hit
        assert self.hits(g, ax + kx, ay + ky, delta) == hit
        assert self.hits(-g, -ax, -ay, delta) == hit


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
        # count_orbit_hits refuses unless every step is decided, so the
        # certain steps of the scan are all its hits
        got = count_orbit_hits(sqrt2, zero, zero, v0, T, delta)
        hits = [m for m, certain in _scan_orbit(sqrt2, zero, zero, v0.x, v0.y, T, delta) if certain]
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
        # alpha = 0 +- 2**-90 keeps the midpoint orbit at distance 1/4 - 2**-70
        # from the origin while its radius (m^2 + 2m) * 2**-90 grows; with the
        # threshold 1/4 the per-m margin certifies m^2 + 2m <= 2**20, i.e.
        # m <= 1023 and not m = 1024, and every radius stays below 2**-64
        alpha = FixedReal(0, 1 << (256 - 90), 256)
        gamma = as_fixed(Fraction(1, 4) - Fraction(1, 1 << 70))
        v0 = TorusPoint2.from_values(0, 0)
        assert 1023**2 + 2 * 1023 == (1 << 20) - 1
        assert count_orbit_hits(alpha, zero, gamma, v0, 1023, 0.25) == 1023
        with pytest.raises(PrecisionExhausted, match="ambiguous at m=1024; raise"):
            count_orbit_hits(alpha, zero, gamma, v0, 1024, 0.25)
        # alpha = 0 +- 2**-95 certifies m <= 5791, so the first ambiguous step
        # lies in the second block of the scan
        alpha = FixedReal(0, 1 << (256 - 95), 256)
        assert _BLOCK_STEPS < 5792 <= 2 * _BLOCK_STEPS
        assert count_orbit_hits(alpha, zero, gamma, v0, 5791, 0.25) == 5791
        with pytest.raises(PrecisionExhausted, match="ambiguous at m=5792; raise"):
            count_orbit_hits(alpha, zero, gamma, v0, 3 * _BLOCK_STEPS, 0.25)

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


# every literal kind of parse_real: surd, rational, dec: and dyadic
real_literals = st.one_of(
    st.integers(2, 10**6).map(lambda d: f"sqrt:{d}"),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50), st.integers(2, 1000))
    .map(lambda p: "surd:{},{},{},{}".format(*p)),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6).map(
        lambda f: f"{f.numerator}/{f.denominator}"),
    st.tuples(st.floats(-3, 3), st.integers(1, 12)).map(lambda p: f"dec:{p[0]:.{p[1]}f}"),
    st.tuples(st.integers(-3000, 3000), st.integers(0, 12)).map(lambda p: f"{p[0]}/{1 << p[1]}"),
)
# one step, the edges of the first block, and a partial fourth block
scan_lengths = st.sampled_from([1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1,
                                3 * _BLOCK_STEPS + 5])


class TestScanOrbitDifferential:
    # F = 32 is below the CLI's minimum, where the filter widens values instead of truncating
    @given(lits=st.lists(real_literals, min_size=5, max_size=5),
           F=st.sampled_from([32, 64, 256, 512]), T=scan_lengths,
           thr=st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.001, 0.99)))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, lits, F, T, thr):
        # the reference point (the last two literals) is not reduced mod 1
        args = [parse_real(lit, F) for lit in lits]
        assert list(_scan_orbit(*args, T, thr)) == list(scan_orbit_reference(*args, T, thr))

    @given(coeffs=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=40),
                           min_size=3, max_size=3),
           F=st.sampled_from([64, 256, 512]), T=scan_lengths, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_ties_match_reference(self, coeffs, F, T, data):
        # the reference point sits exactly 1/4 from the orbit point of a drawn
        # step, shifted by integers: that step, and every later one the
        # rational orbit repeats it at, is a tie the exact test decides
        a, b, c = coeffs
        m = data.draw(st.integers(1, T))
        vx = 2 * a * m + b + Fraction(3, 20) + 2
        vy = a * m * m + b * m + c + Fraction(1, 5) - 1
        args = [as_fixed(v, F) for v in (a, b, c, vx, vy)]
        for thr in (0.25, 0.2499999999):
            got = list(_scan_orbit(*args, T, thr))
            assert got == list(scan_orbit_reference(*args, T, thr))
            assert ((m, True) in got) == (thr == 0.25)


class TestWeylSum:
    def test_zero_alpha_beta_gives_length(self, zero):
        (s,) = weyl_sum_lanes([(5, zero, zero)], 17)
        assert s.re == pytest.approx(17.0) and s.im == pytest.approx(0.0)

    def test_half_beta_cancels(self, zero):
        (s,) = weyl_sum_lanes([(0, zero, as_fixed(Fraction(1, 2)))], 2)
        assert abs(s.re) < 1e-12 and abs(s.im) < 1e-12

    def test_mixed_precisions_refused(self, sqrt2):
        beta = FixedReal.zero(128)
        with pytest.raises(ValidationError, match="^sum coefficients must share one precision$"):
            weyl_sum_lanes([(1, sqrt2, beta)], 10)
        with pytest.raises(ValidationError, match="^sum coefficients must share one precision$"):
            weyl_sum_lanes([(1, FixedReal.sqrt_int(2, 128), FixedReal.zero())], 10)

    def test_magnitude_never_exceeds_length(self, sqrt2, golden, zero):
        for alpha in (sqrt2, golden):
            for n in (1, 3):
                (s,) = weyl_sum_lanes([(n, alpha, zero)], 500)
                assert s.magnitude() <= 500.0

    def test_zero_frequency_sums_to_length(self, sqrt2, golden, zero):
        for alpha in (sqrt2, golden):
            (s,) = weyl_sum_lanes([(0, alpha, zero)], 123)
            assert s.re == pytest.approx(123.0) and s.im == pytest.approx(0.0)

    def test_cancellation_at_scale(self, sqrt2, zero):
        (s,) = weyl_sum_lanes([(1, sqrt2, zero)], 10**4)
        # quadratic phases cancel down to a few sqrt(T)
        assert s.magnitude() < 10**4 / 10
        assert s.magnitude() ** 2 <= weyl_differencing_bound(1, sqrt2, 10**4) * (1 + 1e-6)

    def test_against_independent_sum(self, sqrt2):
        beta = as_fixed(Fraction(3, 7))
        (s,) = weyl_sum_lanes([(2, sqrt2, beta)], 300)
        mpmath.mp.dps = 50
        a = mpmath.sqrt(2)
        b = mpmath.mpf(3) / 7
        acc = mpmath.mpc(0)
        for m in range(1, 301):
            acc += mpmath.expjpi(2 * mpmath.frac(2 * a * m * m + b * m))
        assert s.re == pytest.approx(float(acc.real), abs=1e-9)
        assert s.im == pytest.approx(float(acc.imag), abs=1e-9)


def one_lane(n, alpha, beta, T):
    """weyl_sum_lanes of the one lane (n, alpha, beta)."""
    return weyl_sum_lanes([(n, alpha, beta)], T)[0]


def weyl_outcome(fn, n, alpha, beta, T):
    """The bits of (re, im), or the type and message of the refusal."""
    try:
        res = fn(n, alpha, beta, T)
    except (PrecisionExhausted, ValidationError) as exc:
        return type(exc), str(exc)
    return res.re.hex(), res.im.hex()


def fixed_reals(F):
    """parse_real literals, and raw mantissas whose radius is zero or up to F bits."""
    radii = st.one_of(st.just(0), st.integers(0, F).flatmap(lambda b: st.integers(1, 1 << b)))
    raw = st.builds(lambda mant, err: FixedReal(mant, err, F),
                    st.integers(-(1 << (F + 2)), 1 << (F + 2)), radii)
    return st.one_of(real_literals.map(lambda lit: parse_real(lit, F)), raw)


# a single term, the edges of the first block and one term into the third
weyl_lengths = st.one_of(
    st.sampled_from([1, 2, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 1]),
    st.integers(1, 3 * _BLOCK_STEPS))


def reference_phases(PA, PB, m0, cnt, F):
    mask = (1 << F) - 1
    return [phase_float_reference((PA * m * m + PB * m) & mask, F) for m in range(m0, m0 + cnt)]


class TestWeylSumDifferential:
    # F = 32 and 64 are below the 96 bits the kernel keeps, where it widens values
    @given(F=st.sampled_from([32, 64, 96, 128, 256, 512]), data=st.data(), T=weyl_lengths,
           n=st.one_of(st.sampled_from([0, 1, -2, 50]), st.integers(-100, 100)))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, F, data, T, n):
        alpha, beta = data.draw(fixed_reals(F)), data.draw(fixed_reals(F))
        assert (weyl_outcome(one_lane, n, alpha, beta, T)
                == weyl_outcome(weyl_sum_reference, n, alpha, beta, T))

    @given(F=st.sampled_from([96, 128, 256, 512, 2048]), top=st.integers(0, (1 << 53) - 1),
           slack=st.integers(0, 4), data=st.data(),
           T=st.sampled_from([_BLOCK_STEPS, 2 * _BLOCK_STEPS + 7]))
    @settings(max_examples=25, deadline=None)
    def test_forced_fallback_matches_reference(self, F, top, slack, data, T):
        # alpha = 0 and beta's bits 54..96 all ones, or within 4 of that, keep
        # most phases just below a carry into their top 53 bits, where only the
        # bigint phase decides them
        bits = (top << 43) | ((1 << 43) - 1 - slack)
        mant = (bits << (F - 96)) | data.draw(st.integers(0, (1 << (F - 96)) - 1))
        alpha, beta = FixedReal(0, 0, F), FixedReal(mant, 0, F)
        with mock.patch.object(weyl_sums, "_phase_to_float", wraps=_phase_to_float) as exact:
            got = weyl_outcome(one_lane, 1, alpha, beta, T)
        assert got == weyl_outcome(weyl_sum_reference, 1, alpha, beta, T)
        assert exact.call_count > T // 2

    @given(F=st.sampled_from([128, 256, 512]), half_k=st.integers(1, _BLOCK_STEPS // 2 - 1),
           top=st.integers(0, (1 << 53) - 1))
    @settings(max_examples=60, deadline=None)
    def test_phase_on_the_carry_bound(self, F, half_k, top):
        # With s = F - 96, PA = 2^(s-1) - 1 and beta's low s bits at 2^(s-1),
        # the bits below the top 96 are 2^s - 1 in the phase at m = 1, 2^s - 3
        # in the first difference and 2^s - 2 in the second, whose top 96 bits
        # are 0.  Cutting them leaves the phase at offset k short by e in
        # [k + tri, k + tri + 1) units of 2^-96.  beta's bits 54..96 put the 43
        # bits below the top 53 of the cut phase at exactly 2^43 - (k + tri),
        # so the true phase carries into its top 53 bits: the first assert.
        s, k = F - 96, 2 * half_k
        tri = k * (k - 1) // 2
        below = -(2 * k + tri) * pow(k + 1, -1, 1 << 43) % (1 << 43)
        PA = (1 << (s - 1)) - 1
        PB = (((top << 43) | below) << s) | (1 << (s - 1))
        m = k + 1
        assert ((PA * m * m + PB * m) >> s) % (1 << 43) == 0
        assert _weyl_phases([PA], [PB], 1, m, F)[:, 0].tolist() == reference_phases(PA, PB, 1, m, F)

    @given(F=st.sampled_from([64, 128, 256, 1024, 2048]), data=st.data(),
           m0=st.one_of(st.just(1), st.integers(1, 10**12)), cnt=st.integers(1, _BLOCK_STEPS))
    @settings(max_examples=60, deadline=None)
    def test_block_phases_match_per_term(self, F, data, m0, cnt):
        # a quadratic lane next to a PA = 0 lane, the linear phase the sum-min kernel walks
        PA, PB, PB0 = (data.draw(st.integers(-(1 << (F + 8)), 1 << (F + 8))) for _ in range(3))
        ph = _weyl_phases([PA, 0], [PB, PB0], m0, cnt, F)
        assert ph[:, 0].tolist() == reference_phases(PA, PB, m0, cnt, F)
        assert ph[:, 1].tolist() == reference_phases(0, PB0, m0, cnt, F)

    @given(F=st.sampled_from([32, 64, 96, 128, 256, 1024]), data=st.data(),
           m0=st.integers(1, 10**12), cnt=st.integers(1, _BLOCK_STEPS))
    @settings(max_examples=40, deadline=None)
    def test_phase_limbs_truncation_bound(self, F, data, m0, cnt):
        # the limbs are short of the top 96 bits of the phase by at most k + tri at
        # offset k, and by at most k when PA = 0: the sum-min kernel's +-2 slack
        mants = st.integers(-(1 << (F + 8)), 1 << (F + 8))
        PA, PB = [0, data.draw(mants)], [data.draw(mants), data.draw(mants)]
        hi, lo = _phase_limbs(PA, PB, m0, cnt, F)
        for i in range(2):
            for k in range(cnt):
                m = m0 + k
                # floor of the phase mod 1 in units of 2^-96
                short = (((PA[i] * m * m + PB[i] * m) % (1 << F) << 96 >> F)
                         - (int(hi[k, i]) << 32) - (int(lo[k, i]) & 0xFFFFFFFF)) % (1 << 96)
                assert short <= k + (k * (k - 1) // 2 if PA[i] else 0)


def lane_set(F, L, seed):
    """L lanes (n, alpha, beta) at precision F: literals, raw mantissas and betas next to a 53-bit carry.

    n ranges over 0, small and large values.  A near-carry lane has alpha = 0
    and beta's bits 54..96 within 4 of all ones, so most of its phases m*beta
    sit just below a carry into their top 53 bits, where only the bigint phase
    decides them.  In one set in ten, one lane's beta carries a radius past
    the phase tolerance, so the whole call is refused.
    """
    rng = random.Random(seed)
    lits = ["sqrt:2", "surd:1,1,2,5", "1/3", "dec:0.7", "-3/8", "sqrt:7"]
    refused = rng.randrange(L) if rng.random() < 0.1 else None
    lanes = []
    for i in range(L):
        n = rng.choice([0, 1, -2, 50, rng.randint(-100, 100)])
        kind = rng.randrange(3) if F >= 96 else rng.randrange(2)
        if i == refused:
            alpha, beta = parse_real("sqrt:2", F), FixedReal(rng.getrandbits(F), 1 << (F - 20), F)
        elif kind == 0:
            alpha, beta = (parse_real(rng.choice(lits), F) for _ in range(2))
        elif kind == 1:
            alpha, beta = (FixedReal(rng.randint(-(1 << (F + 2)), 1 << (F + 2)), rng.choice([0, 0, 1]), F)
                           for _ in range(2))
        else:
            bits = (rng.getrandbits(53) << 43) | ((1 << 43) - 1 - rng.randint(0, 4))
            alpha = FixedReal(0, 0, F)
            beta = FixedReal((bits << (F - 96)) | rng.getrandbits(F - 96), 0, F)
        lanes.append((n, alpha, beta))
    return lanes


def lanes_outcome_reference(lanes, T):
    """Per-lane weyl_outcome of weyl_sum_reference, or the first lane's refusal."""
    out = []
    for n, alpha, beta in lanes:
        o = weyl_outcome(weyl_sum_reference, n, alpha, beta, T)
        if isinstance(o[0], type):
            return o
        out.append(o)
    return out


class TestWeylLanes:
    @given(F=st.sampled_from([64, 96, 256, 512]),
           L=st.one_of(st.integers(1, 130), st.sampled_from([1, 2, 4, 5, 129])),
           seed=st.integers(0, 2**32), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, F, L, seed, data):
        # a block holds min(_BLOCK_STEPS, _LANE_ELEMENTS // L) steps: T covers one
        # step, both sides of the first block edge and one step into the third block
        steps = min(_BLOCK_STEPS, _LANE_ELEMENTS // L)
        T = data.draw(st.sampled_from([1, steps - 1, steps, steps + 1, 2 * steps + 1])
                      .filter(lambda t: t >= 1))
        lanes = lane_set(F, L, seed)
        try:
            got = [(s.re.hex(), s.im.hex()) for s in weyl_sum_lanes(lanes, T)]
        except (PrecisionExhausted, ValidationError) as exc:
            got = type(exc), str(exc)
        assert got == lanes_outcome_reference(lanes, T)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_more_lanes_than_a_block_holds(self, seed):
        # past _LANE_ELEMENTS lanes a block is one step over every lane; the
        # lanes a reference sum refuses at the largest T are dropped, so the
        # sums run, and the whole set checks the refusal in lane order
        full = lane_set(256, 9300, seed)
        lanes = [lane for lane in full if not isinstance(weyl_outcome(weyl_sum_reference, *lane, 5)[0], type)]
        assert len(lanes) > _LANE_ELEMENTS
        for T in (1, 2, 5):
            got = [(s.re.hex(), s.im.hex()) for s in weyl_sum_lanes(lanes, T)]
            assert got == lanes_outcome_reference(lanes, T)
        with pytest.raises(PrecisionExhausted) as refused:
            weyl_sum_lanes(full, 5)
        assert (type(refused.value), str(refused.value)) == lanes_outcome_reference(full, 5)

    def test_lanes_refuse_another_precision_and_empty_lanes_sum_nothing(self, sqrt2):
        other = FixedReal.sqrt_int(2, 128)
        with pytest.raises(ValidationError, match="^sum coefficients must share one precision$"):
            weyl_sum_lanes([(1, sqrt2, sqrt2), (1, other, other)], 10)
        assert weyl_sum_lanes([], 10) == []

    def test_numpy_trig_matches_libm_on_block_angles(self):
        # The lane kernel takes cos and sin of its angles from numpy, and the
        # sums keep the bits of a per-term loop only while those equal libm's
        # math.cos and math.sin; a numpy build whose float64 trig differs fails
        # here.  10^5 angles of one block of 100 lanes far along the orbit.
        rng = random.Random(11)
        F = 256
        PA, PB = ([rng.randint(-(1 << (F + 8)), 1 << (F + 8)) for _ in range(100)] for _ in range(2))
        ang = TWO_PI * _weyl_phases(PA, PB, rng.randint(1, 10**12), 1000, F)
        assert ang.size == 10**5
        flat = ang.ravel().tolist()
        for fn, libm in ((np.cos, math.cos), (np.sin, math.sin)):
            ref = np.array(list(map(libm, flat))).reshape(ang.shape)
            assert (fn(ang).view(np.uint64) == ref.view(np.uint64)).all()


class TestDifferencingBound:
    def test_zero_alpha_saturates(self, zero):
        assert weyl_differencing_bound(1, zero, 5) == pytest.approx(5 + 2 * 25)

    def test_dominates_square_on_beta_grid(self, sqrt2):
        bound = weyl_differencing_bound(1, sqrt2, 100)
        for j in range(100):
            beta = as_fixed(Fraction(j, 100))
            (s,) = weyl_sum_lanes([(1, sqrt2, beta)], 100)
            assert s.magnitude() ** 2 <= bound * (1 + 1e-6)

    def test_dominates_random_beta_golden(self, golden):
        bound = weyl_differencing_bound(3, golden, 1000)
        rng = Lcg64(99)
        for _ in range(20):
            beta = rng.next_unit(golden.F)
            (s,) = weyl_sum_lanes([(3, golden, beta)], 1000)
            assert s.magnitude() ** 2 <= bound * (1 + 1e-6)

    @pytest.mark.parametrize("F", [64, 256])
    def test_linear_phase_refusal_boundary(self, F):
        # E = 2*n*T*err ulps meets the phase tolerance 2^-30 exactly at err = 2^(F-41)
        # for n = 1, T = 1024; one ulp more of alpha refuses
        root = FixedReal.sqrt_int(2, F)
        at_tol = FixedReal(root.mant, 1 << (F - 41), F, None)
        assert (weyl_differencing_bound(1, at_tol, 1024)
                == weyl_differencing_bound(1, FixedReal(root.mant, 1, F, None), 1024))
        with pytest.raises(PrecisionExhausted) as exc:
            weyl_differencing_bound(1, FixedReal(root.mant, (1 << (F - 41)) + 1, F, None), 1024)
        assert str(exc.value) == "linear phase radius exceeds the phase tolerance"


class TestSumMin:
    def test_zero_alpha(self, zero):
        assert sum_min(zero, 2, 4) == pytest.approx(2 * 4 * 4)

    def test_exact_half(self):
        assert sum_min(as_fixed(Fraction(1, 2)), 1, 4) == pytest.approx(12.0)

    def test_empty_range(self, sqrt2):
        assert sum_min(sqrt2, 0, 10) == 0.0

    def test_exact_integer_step_saturates(self):
        # m*(1/4) for m = 1..8: circle norms 1/4, 1/2, 1/4, 0, ...; the zero norms take T_cap = 8
        assert sum_min(as_fixed(Fraction(1, 4)), 1, 8) == 36.0

    def test_norm_below_radius_refuses(self):
        # 3 * round(2^256 / 3) = 2^256 - 1: at m = 3 the norm is one ulp, within the radius 3
        third = as_fixed(Fraction(1, 3))
        assert third.err == 1
        with pytest.raises(PrecisionExhausted) as exc:
            sum_min(third, 1, 3)
        assert str(exc.value) == "circle norm at m=3 is below the certified radius"

    @pytest.mark.parametrize("F", [64, 256])
    @pytest.mark.parametrize("M, T", [(1, 1), (2, 512)])
    def test_linear_phase_refusal_boundary(self, F, M, T):
        # E = M*T*err ulps meets the phase tolerance 2^-30 exactly at err = 2^(F-30) / (M*T);
        # one ulp more of alpha refuses
        root = FixedReal.sqrt_int(2, F)
        err = (1 << (F - 30)) // (M * T)
        assert sum_min(FixedReal(root.mant, err, F, None), M, T) == sum_min(root, M, T)
        with pytest.raises(PrecisionExhausted) as exc:
            sum_min(FixedReal(root.mant, err + 1, F, None), M, T)
        assert str(exc.value) == "linear phase radius exceeds the phase tolerance"

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


def sum_min_outcome(fn, *args):
    """The bits of the sum, or the type and message of the refusal."""
    try:
        return fn(*args).hex()
    except (PrecisionExhausted, ValidationError) as exc:
        return type(exc), str(exc)


# one term, both sides of the first block edge and one term into the third block
sum_min_lengths = st.one_of(st.sampled_from([1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1,
                                             2 * _BLOCK_STEPS + 1]),
                            st.integers(1, 3 * _BLOCK_STEPS))
sum_min_precisions = st.sampled_from([64, 96, 128, 256, 512, 1023, 1024, 2048])


class TestSumMinKernelDifferential:
    def check(self, step, err, count, T_cap, F):
        assert (sum_min_outcome(_sum_min_kernel, step, err, count, T_cap, F)
                == sum_min_outcome(sum_min_kernel_reference, step, err, count, T_cap, F))

    @given(F=sum_min_precisions, count=sum_min_lengths, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, F, count, data):
        step = data.draw(st.integers(-(1 << (F + 2)), 1 << (F + 2)))
        err = data.draw(st.one_of(st.just(0), st.integers(1, 4), st.just((1 << (F - 30)) // count + 1)))
        T_cap = data.draw(st.one_of(st.just(count), st.integers(1, count + 10)))
        self.check(step, err, count, T_cap, F)

    @given(F=sum_min_precisions, nudge=st.integers(-4, 4), word_nudge=st.integers(-4, 4),
           wrap=st.integers(-2, 2), sign=st.sampled_from([1, -1]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_term_next_to_a_rounding_tie(self, F, nudge, word_nudge, wrap, sign, data):
        # count = 1, so the sum is the term's own bits: a fold at a float64
        # rounding midpoint, moved by a few units of itself and of the 2^(F-64) word
        p = data.draw(st.integers(max(F - 40, 53), F - 2))
        ar = ((2 * data.draw(st.integers(1 << 52, (1 << 53) - 1)) + 1) << (p - 53))
        ar += nudge + (word_nudge << max(F - 64, 0))
        self.check(sign * ar + wrap * (1 << F), 0, 1, 1 << 60, F)

    @pytest.mark.parametrize("F", [64, 96, 256, 2048])
    def test_one_term_next_to_the_cap_and_the_radius(self, F):
        # count = 1 again; the fold sweeps a few units of itself and of the
        # word across the cap ar*T_cap = 2^F and across the radius ar = E
        S = 1 << F
        nudges = [n + (w << max(F - 64, 0)) for n in range(-3, 4) for w in range(-3, 4)]
        for T_cap in (3, 4096, 10**6 + 3, (1 << 40) + 1):
            for d in nudges:
                self.check(S // T_cap + d, 0, 1, T_cap, F)
        for err in (1, 1 << 20, 1 << (F - 31)):
            for d in nudges:
                self.check(err + d, err, 1, 1 << 60, F)

    @given(F=sum_min_precisions, j=st.integers(0, 13), p=st.integers(-(1 << 20), 1 << 20),
           count=sum_min_lengths)
    @settings(max_examples=25, deadline=None)
    def test_rational_steps_hitting_integers(self, F, j, p, count):
        # p / 2^j exactly: every multiple of 2^j / gcd folds to zero and takes the cap
        self.check(p << (F - j), 0, count, count, F)

    @given(F=sum_min_precisions, c=st.integers(1, 4), d=st.integers(-8, 8), shift=st.sampled_from([12, 24]))
    @settings(max_examples=25, deadline=None)
    def test_folds_near_two_to_the_minus_12(self, F, c, d, shift):
        # folds m*c*2^-shift (+ d ulps) pass 2^-12, the fold below which the
        # word carries too few bits to round, inside the first two blocks
        self.check(c * (1 << (F - shift)) + d, 0, 2 * _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 1, F)

    @given(F=sum_min_precisions, j=st.integers(1, 12), p=st.integers(0, 1 << 11), d=st.integers(-1, 1),
           count=st.integers(1 << 12, 3 * _BLOCK_STEPS))
    @settings(max_examples=25, deadline=None)
    def test_cap_tie(self, F, j, p, d, count):
        # T_cap = 2^j and the step (2p + 1) / 2^j: where m*(2p + 1) = +-1 mod 2^j
        # the fold is 2^-j, so ar*T_cap == 2^F exactly, and the cap (<=) holds;
        # d moves the step one ulp either way
        S = 1 << F
        step = (2 * p + 1) * (S >> j) + d
        if d == 0:
            m = pow(2 * p + 1, -1, 1 << j) if j > 1 else 1
            r = (m * step) % S
            assert min(r, S - r) << j == S and m <= count
        self.check(step, 0, count, 1 << j, F)

    @pytest.mark.parametrize("F", [64, 256, 1024, 2048])
    @pytest.mark.parametrize("q", [3, 5000])
    def test_circle_norm_refusal(self, F, q):
        # round(2^F / q) with radius 1: at m = q the fold is below the radius
        # m*1 <= count, after a clean first block when q = 5000
        step = FixedReal.from_fraction(Fraction(1, q), F)
        assert step.err == 1
        out = sum_min_outcome(_sum_min_kernel, step.mant, 1, 3 * _BLOCK_STEPS, 3 * _BLOCK_STEPS, F)
        assert out == (PrecisionExhausted, f"circle norm at m={q} is below the certified radius")
        self.check(step.mant, 1, 3 * _BLOCK_STEPS, 3 * _BLOCK_STEPS, F)

    @pytest.mark.parametrize("F", [64, 1024, 2048])
    def test_phase_radius_refusal(self, F):
        # count*err meets the phase tolerance 2^-30 at err = 2^(F-30) / count; one more refuses
        count = 2 * _BLOCK_STEPS
        err = (1 << (F - 30)) // count
        step = FixedReal.sqrt_int(2, F).mant
        assert sum_min_outcome(_sum_min_kernel, step, err + 1, count, count, F) == (
            PrecisionExhausted, "linear phase radius exceeds the phase tolerance")
        self.check(step, err, count, count, F)
        self.check(step, err + 1, count, count, F)
