import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdensity import diophantine, isometries
from qdensity import (
    FixedReal,
    PrecisionExhausted,
    ShiftVector,
    ValidationError,
    continued_fraction,
    convergents,
    diophantine_direction,
    dirichlet_approx,
    estimate_kappa,
    parse_real,
)
from qdensity.diophantine import CFExpansion
from qdensity.harness import _direction_matrix


def continued_fraction_reference(alpha: FixedReal, n_terms: int) -> CFExpansion:
    """The Gauss map x -> 1/(x - floor(x)) on Fraction endpoints, one quotient at a time.

    An exact value expands by the map on itself; an inexact one runs it on the
    dyadic interval endpoints and stops where they disagree, where q_next^2 *
    err > 1/4, or where the interval touches an integer.
    """
    if alpha.exact is not None:
        qs: list[int] = []
        x = alpha.exact
        a = math.floor(x)
        qs.append(a)
        r = x - a
        while r != 0 and len(qs) < n_terms:
            x = 1 / r
            a = math.floor(x)
            qs.append(a)
            r = x - a
        return CFExpansion(qs, rational=(r == 0), exhausted=False)

    S = 1 << alpha.F
    err0 = Fraction(alpha.err, S)
    lo = Fraction(alpha.mant - alpha.err, S)
    hi = Fraction(alpha.mant + alpha.err, S)
    qs = []
    q_prev, q_cur = 1, 0
    while len(qs) < n_terms:
        a = math.floor(lo)
        if math.floor(hi) != a:
            return CFExpansion(qs, exhausted=True)
        q_next = a * q_cur + q_prev
        if len(qs) > 0 and q_next * q_next * err0 > Fraction(1, 4):
            return CFExpansion(qs, exhausted=True)
        qs.append(a)
        q_prev, q_cur = q_cur, q_next
        lo_f, hi_f = lo - a, hi - a
        if lo_f == 0:
            return CFExpansion(qs, exhausted=True)
        lo, hi = 1 / hi_f, 1 / lo_f
    return CFExpansion(qs)


_PRECISIONS = st.sampled_from([64, 256, 512])
_N_TERMS = st.sampled_from([1, 2, 5, 1 << 20])


@st.composite
def _intervals(draw):
    """Inexact dyadic intervals (mant +- err) / 2^F.

    Some touch or straddle an integer, some have an endpoint on a short dyadic
    (which reaches an integer a few steps later) and some are wider than half
    an integer cell.
    """
    F = draw(_PRECISIONS)
    S = 1 << F
    err = draw(st.one_of(st.just(0), st.just(1), st.integers(0, S),
                         st.integers(0, 64).map(lambda b: 1 << b)))
    kind = draw(st.sampled_from(["random", "integer", "short", "wide"]))
    if kind == "random":
        return FixedReal(draw(st.integers(-16 * S, 16 * S)), err, F)
    if kind == "wide":
        k = draw(st.integers(-16, 16))
        return FixedReal(k * S + S // 2, draw(st.integers(S // 4 - 2, S // 2)), F)
    if kind == "integer":
        # an endpoint on, or the interval across, the integer k
        point = draw(st.integers(-16, 16)) * S
    else:
        point = draw(st.integers(-64, 64)) << (F - draw(st.integers(0, 6)))
    return FixedReal(point + draw(st.sampled_from([-err, err, 0])) + draw(st.integers(-1, 1)), err, F)


@st.composite
def _exact_values(draw):
    """Exact rationals: negative, integer, non-dyadic (err = 1) and 40-digit."""
    F = draw(_PRECISIONS)
    kind = draw(st.sampled_from(["small", "integer", "forty", "dec"]))
    if kind == "small":
        fr = draw(st.fractions(min_value=-100, max_value=100, max_denominator=10**6))
    elif kind == "integer":
        fr = Fraction(draw(st.integers(-10**6, 10**6)))
    elif kind == "forty":
        fr = Fraction(draw(st.integers(-10**40, 10**40)), draw(st.integers(1, 10**40)))
    else:
        digits = draw(st.integers(0, 20))
        value = draw(st.integers(-10**(digits + 2), 10**(digits + 2)))
        sign = "-" if value < 0 else ""
        whole, frac = divmod(abs(value), 10**digits)
        return parse_real(f"dec:{sign}{whole}.{frac:0{digits}d}" if digits else f"dec:{sign}{whole}", F)
    return FixedReal.from_fraction(fr, F)


class TestContinuedFraction:
    def test_one_third_terminates(self):
        cf = continued_fraction(parse_real("1/3"), 10)
        assert cf.quotients == [0, 3]
        assert cf.rational and not cf.exhausted

    def test_sqrt2_periodic(self, sqrt2):
        cf = continued_fraction(sqrt2, 41)
        assert cf.quotients[0] == 1
        assert all(a == 2 for a in cf.quotients[1:41])
        assert not cf.rational and not cf.exhausted

    def test_golden_all_ones(self, golden):
        cf = continued_fraction(golden, 40)
        assert cf.quotients == [1] * 40

    def test_low_precision_exhausts_not_lies(self):
        rough = FixedReal.sqrt_int(2, 64)
        cf = continued_fraction(rough, 500)
        assert cf.exhausted
        # whatever prefix came out is correct
        assert cf.quotients[0] == 1 and all(a == 2 for a in cf.quotients[1:])

    def test_negative_value(self):
        cf = continued_fraction(parse_real("-7/3"), 10)
        # -7/3 = -3 + 2/3 = [-3; 1, 2]
        assert cf.quotients == [-3, 1, 2] and cf.rational


class TestEuclidAgainstGaussMap:
    """continued_fraction is Euclid on integer endpoint pairs; the reference is the Fraction Gauss map."""

    @staticmethod
    def _same(alpha, n_terms):
        got = continued_fraction(alpha, n_terms)
        ref = continued_fraction_reference(alpha, n_terms)
        assert (got.quotients, got.rational, got.exhausted) == (ref.quotients, ref.rational, ref.exhausted)

    @given(alpha=_intervals(), n_terms=_N_TERMS)
    @settings(max_examples=300, deadline=None)
    # the q_next^2 * err > 1/4 guard, not the floor test, ends these expansions
    @example(alpha=FixedReal(-13588365945905638694, 1 << 18, 64), n_terms=1 << 20)
    @example(alpha=FixedReal(19335487138732723491, 1 << 38, 64), n_terms=1 << 20)
    @example(alpha=FixedReal(8518073683768219023, 1 << 4, 64), n_terms=1 << 20)
    # the upper endpoint 1/2 reaches the integer 2 after one step
    @example(alpha=FixedReal((1 << 63) - (1 << 40), 1 << 40, 64), n_terms=1 << 20)
    # [1.125, 1.875]: the guard does not apply to the first quotient
    @example(alpha=FixedReal(3 << 63, 3 << 61, 64), n_terms=1 << 20)
    def test_intervals(self, alpha, n_terms):
        self._same(alpha, n_terms)

    @given(alpha=_exact_values(), n_terms=_N_TERMS)
    @settings(max_examples=300, deadline=None)
    def test_exact_values(self, alpha, n_terms):
        self._same(alpha, n_terms)

    @pytest.mark.parametrize("F", [64, 256, 512])
    @pytest.mark.parametrize("lit", ["sqrt:2", "sqrt:999983", "surd:1,1,2,5", "surd:-7,3,11,13",
                                     "dec:-2.71828", "-7/3", "1/3", "5", "0"])
    def test_literals(self, lit, F):
        for n_terms in (1, 2, 5, 1 << 20):
            self._same(parse_real(lit, F), n_terms)


class TestConvergents:
    def test_sqrt2_table(self, sqrt2):
        conv = convergents(continued_fraction(sqrt2, 8), sqrt2)
        assert [(c.p, c.q) for c in conv[:5]] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]

    def test_golden_fibonacci(self, golden):
        conv = convergents(continued_fraction(golden, 8), golden)
        assert [(c.p, c.q) for c in conv[:5]] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]

    def test_one_third(self):
        third = parse_real("1/3")
        conv = convergents(continued_fraction(third, 8), third)
        assert [(c.p, c.q) for c in conv] == [(0, 1), (1, 3)]
        assert conv[-1].dist.exact == 0

    def test_distances_strictly_decrease(self, sqrt2, golden):
        for alpha in (sqrt2, golden):
            conv = convergents(continued_fraction(alpha, 20), alpha)
            dists = [c.dist.midpoint() for c in conv]
            assert all(b < a for a, b in zip(dists, dists[1:]))
            qs = [c.q for c in conv]
            assert all(b >= a for a, b in zip(qs, qs[1:]))
            assert all(b > a for a, b in zip(qs[1:], qs[2:]))

    @given(alpha=st.one_of(
        st.fractions(min_value=0, max_value=100, max_denominator=10**9).map(FixedReal.from_fraction),
        # interval alphas: a mantissa and a radius
        st.sampled_from([64, 256]).flatmap(lambda F: st.builds(
            FixedReal, st.integers(0, 100 << F), st.integers(1, 1 << (F // 2)), st.just(F)))))
    @settings(max_examples=120, deadline=None)
    def test_determinant_identity(self, alpha):
        conv = convergents(continued_fraction(alpha, 64), alpha)
        for k, b in enumerate(conv):
            assert b.q >= 1 and math.gcd(b.p, b.q) == 1
            if k:
                a = conv[k - 1]
                assert b.p * a.q - a.p * b.q == (-1) ** (k - 1)

    def test_best_approximation_small_scale(self, sqrt2, golden):
        # each convergent beats every smaller denominator, checked brute force
        for alpha in (sqrt2, golden):
            conv = [c for c in estimate_kappa(alpha, 10**4).convergents if c.q >= 2]
            for c in conv:
                dist_c = c.dist.midpoint()
                for q in range(1, c.q):
                    f = alpha.mul_int(q).midpoint() % 1
                    assert min(f, 1 - f) >= dist_c


class TestDirichlet:
    def test_sqrt2_at_ten(self, sqrt2):
        c = dirichlet_approx(sqrt2, 10)
        assert (c.p, c.q) == (7, 5)
        assert abs(math.sqrt(2) - 7 / 5) <= 1 / (10 * 5)

    def test_sqrt2_at_one(self, sqrt2):
        assert (lambda c: (c.p, c.q))(dirichlet_approx(sqrt2, 1)) == (1, 1)

    def test_golden_at_hundred(self, golden):
        c = dirichlet_approx(golden, 100)
        assert (c.p, c.q) == (144, 89)

    def test_inequality_on_grid(self, sqrt2, golden):
        for alpha in (sqrt2, golden):
            for T in (1, 2, 7, 19, 100, 1234, 99991):
                c = dirichlet_approx(alpha, T)
                assert 1 <= c.q <= T
                # |alpha - p/q| <= 1/(T q), certified via the interval bound
                assert c.dist.hi() <= Fraction(1, T)

    def test_rational_input_hits_exact(self):
        half = parse_real("1/2")
        c = dirichlet_approx(half, 100)
        assert (c.p, c.q) == (1, 2) and c.dist.exact == 0

    def test_bad_range(self, sqrt2):
        with pytest.raises(ValidationError):
            dirichlet_approx(sqrt2, 0)


class TestExpansionSizing:
    """One sized expansion answers like the long reference expansion, filtered to q <= q_max.

    The golden ratio is the tight case: its denominators are the Fibonacci numbers.
    """

    def test_golden_f512_every_q_max(self, monkeypatch):
        alpha = parse_real("surd:1,1,2,5", 512)
        ref_cf = continued_fraction_reference(alpha, 1 << 20)
        ref_conv = convergents(ref_cf, alpha)
        q_range = range(2, 3001)
        with monkeypatch.context() as m:
            m.setattr(diophantine, "_expand_until", lambda a, stop_q: (ref_cf, ref_conv))
            expected = [estimate_kappa(alpha, q) for q in q_range]

        def key(c):
            return c.p, c.q, c.dist.mant, c.dist.err, c.dist.exact

        for q, est in zip(q_range, expected):
            within = [key(c) for c in ref_conv if c.q <= q]
            got = estimate_kappa(alpha, q)
            assert [key(c) for c in got.convergents] == within
            assert key(dirichlet_approx(alpha, q)) == within[-1]
            assert got == est

    def test_sizing_bound_on_fibonacci(self):
        # 3*bits/2 + 3 quotients pass stop_q when it sits on or just below a
        # Fibonacci denominator; F=512 certifies all 200 quotients
        alpha = parse_real("surd:1,1,2,5", 512)
        for c in convergents(continued_fraction(alpha, 200), alpha)[2:]:
            for stop_q in (c.q - 1, c.q):
                cf, conv = diophantine._expand_until(alpha, stop_q)
                assert conv[-1].q > stop_q and not cf.exhausted


class TestKappaEstimate:
    def test_golden_certificate(self, golden):
        est = estimate_kappa(golden, 10**6)
        assert 1.0 <= est.kappa_hat <= 1.05
        assert est.c_hat > 0 and est.q_max == 10**6
        for c in est.convergents:
            assert c.dist.to_float() >= est.c_hat / c.q**est.kappa_hat

    def test_sqrt2_certificate(self, sqrt2):
        est = estimate_kappa(sqrt2, 10**6)
        assert 1.0 <= est.kappa_hat <= 1.1
        for c in est.convergents:
            assert c.dist.to_float() >= est.c_hat / c.q**est.kappa_hat

    def test_quadratic_surds_report_near_one(self):
        for d in (3, 5, 7, 11):
            alpha = FixedReal.sqrt_int(d)
            assert estimate_kappa(alpha, 10**4).kappa_hat <= 1.1

    def test_rational_detected(self):
        with pytest.raises(ValidationError, match="^value is rational; badness exponent undefined$"):
            estimate_kappa(parse_real("1/2"), 100)
        with pytest.raises(ValidationError, match="^value is rational; badness exponent undefined$"):
            estimate_kappa(parse_real("dec:0.5"), 100)

    def test_denominator_growth_consequence(self, sqrt2, golden):
        # q from the best approximation grows like T^(1/kappa) with the
        # certified constant
        for alpha in (sqrt2, golden):
            est = estimate_kappa(alpha, 10**6)
            C = est.c_hat ** (1.0 / est.kappa_hat)
            for i in range(20):
                T = round(10 ** (1 + 4 * i / 19))
                q = dirichlet_approx(alpha, T).q
                assert q >= C * T ** (1.0 / est.kappa_hat) - 1e-9

    def test_local_exponents_recorded(self, golden):
        est = estimate_kappa(golden, 10**4)
        assert all(q >= 2 for q, _ in est.per_convergent)
        assert all(k > 1.0 for _, k in est.per_convergent)


def alpha_tilde(xi: ShiftVector, choice) -> FixedReal:
    """The leading coordinate of xi after the CLI's isometry for the chosen direction."""
    return isometries.apply(xi, _direction_matrix(choice.a, choice.c)).alpha


class TestDirectionScan:
    def test_alpha_slot(self, sqrt2):
        xi = ShiftVector.from_values(sqrt2, 0, 0)
        choice = diophantine_direction(xi, 1, 10_000)
        assert (choice.a, choice.c) == (1, 0)
        assert abs(alpha_tilde(xi, choice).to_float() - math.sqrt(2)) < 1e-15

    def test_gamma_slot(self, sqrt3):
        choice = diophantine_direction(ShiftVector.from_values(0, 0, sqrt3), 1, 10_000)
        assert (choice.a, choice.c) == (0, 1)

    def test_all_rational(self):
        xi = ShiftVector.from_values(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
        with pytest.raises(ValidationError, match="^every direction produced a rational combination$"):
            diophantine_direction(xi, 3, 10_000)

    def test_combination_formula(self, sqrt2, sqrt3):
        xi = ShiftVector.from_values(sqrt2, sqrt3, Fraction(1, 2))
        choice = diophantine_direction(xi, 2, 10_000)
        a, c = choice.a, choice.c
        expected = a * a * math.sqrt(2) + a * c * math.sqrt(3) + c * c * 0.5
        assert alpha_tilde(xi, choice).to_float() == pytest.approx(expected, rel=1e-12)
        # the scan fitted its estimate on the value the CLI's isometry produces
        assert estimate_kappa(alpha_tilde(xi, choice), 10_000) == choice.estimate

    def test_bad_bound(self, sqrt2):
        with pytest.raises(ValidationError):
            diophantine_direction(ShiftVector.from_values(sqrt2, 0, 0), 0, 10_000)

    def test_near_integer_direction_is_skipped(self):
        # sqrt(10^12 + 1) lies within 5e-7 of 10^6: direction (1, 0) has no
        # convergent with 2 <= q <= 10^6, so the scan passes over it
        xi = ShiftVector(parse_real("sqrt:1000000000001"), parse_real("sqrt:2"), parse_real("0"))
        with pytest.raises(ValidationError, match="^no convergent with 2 <= q <= q_max$"):
            estimate_kappa(xi.alpha, 10**6)
        choice = diophantine_direction(xi, 3, 10**6)
        assert (choice.a, choice.c) == (1, -3)
        assert estimate_kappa(alpha_tilde(xi, choice), 10**6) == choice.estimate
        # q_max is checked before any direction, whether or not one is irrational
        for shift in (xi, ShiftVector.from_values(Fraction(1, 2), Fraction(1, 3), 0)):
            with pytest.raises(ValidationError, match="^q_max must be >= 2$"):
                diophantine_direction(shift, 3, 1)

    def test_no_direction_left(self):
        # both directions of bound 1 with an irrational combination are near integers
        xi = ShiftVector(parse_real("sqrt:1000000000001"), parse_real("0"), parse_real("0"))
        with pytest.raises(ValidationError, match="^no direction is left: each combination is rational"):
            diophantine_direction(xi, 1, 10**6)

    def test_precision_exhausted_ends_the_scan(self):
        # at F = 64 the expansion of every irrational direction stops short of q_max
        xi = ShiftVector(*(parse_real(lit, 64) for lit in ("sqrt:2", "sqrt:3", "1/2")))
        with pytest.raises(PrecisionExhausted):
            diophantine_direction(xi, 3, 10**12)
