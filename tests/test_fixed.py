import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdensity import (
    DEFAULT_PRECISION,
    FixedReal,
    PrecisionExhausted,
    ShiftVector,
    TorusPoint2,
    ValidationError,
    as_fixed,
    count_orbit_hits,
    parse_real,
    phi,
    weyl_sum_lanes,
)
from qdensity.fixed import _round_div, _round_shift, exceeds

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)


def noisy(fr: Fraction, extra_ulps: int, F: int = DEFAULT_PRECISION) -> FixedReal:
    """A deliberately inexact enclosure of fr with at least extra_ulps of slack."""
    base = FixedReal.from_fraction(fr, F)
    return FixedReal(base.mant, base.err + extra_ulps, F, None)


class TestConstructors:
    def test_fraction_roundtrip_exact(self):
        x = FixedReal.from_fraction(Fraction(3, 8))
        assert x.err == 0 and x.exact == Fraction(3, 8)

    def test_fraction_nondyadic_one_ulp(self):
        x = FixedReal.from_fraction(Fraction(1, 3))
        assert x.err == 1 and x.exact == Fraction(1, 3)
        assert abs(x.midpoint() - Fraction(1, 3)) <= x.err_fraction()

    def test_sqrt_two_squares_back(self, sqrt2):
        sq = sqrt2 * sqrt2
        assert sq.lo() <= 2 <= sq.hi()
        assert abs(sq.to_float() - 2.0) < 1e-60

    def test_sqrt_perfect_square_exact(self):
        x = FixedReal.sqrt_int(49)
        assert x.exact == 7 and x.err == 0

    def test_sqrt_negative_rejected(self):
        with pytest.raises(ValidationError):
            FixedReal.sqrt_int(-1)

    def test_surd_golden_value(self, golden):
        assert abs(golden.to_float() - (1 + math.sqrt(5)) / 2) < 1e-15
        assert golden.exact is None

    def test_decimal_carries_half_ulp(self):
        x = FixedReal.from_decimal("0.25")
        assert x.exact == Fraction(1, 4)
        # half an ulp of the hundredths digit
        assert abs(x.err_fraction() - Fraction(1, 200)) <= Fraction(2, 1 << DEFAULT_PRECISION)

    def test_float_is_exact_dyadic(self):
        x = FixedReal.from_fraction(0.3)
        assert x.exact == Fraction(0.3)
        assert x.err == 0


class TestParseGrammar:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3/4", Fraction(3, 4)),
            ("-7/2", Fraction(-7, 2)),
            ("5", Fraction(5)),
            ("dec:1.5", Fraction(3, 2)),
        ],
    )
    def test_rational_paths(self, text, value):
        assert parse_real(text).exact == value

    def test_sqrt_and_surd(self):
        r = parse_real("sqrt:3")
        assert abs(r.to_float() - math.sqrt(3)) < 1e-15
        s = parse_real("surd:1,1,2,5")
        assert abs(s.to_float() - 1.618033988749895) < 1e-15

    @pytest.mark.parametrize("bad", ["", "sqrt:x", "surd:1,2,3", "5/0", "dec:abc", "nope:1"])
    def test_rejects_junk(self, bad):
        with pytest.raises(ValidationError):
            parse_real(bad)


class TestIntervalSoundness:
    @given(a=rationals, b=rationals)
    @settings(max_examples=150, deadline=None)
    def test_add_sub_mul_contain_truth(self, a, b):
        xa, xb = noisy(a, 3), noisy(b, 5)
        for op, true in (
            (xa + xb, a + b),
            (xa - xb, a - b),
            (xa * xb, a * b),
        ):
            assert op.lo() <= true <= op.hi()

    @given(a=rationals, b=rationals, slack=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           F=st.sampled_from([64, DEFAULT_PRECISION]))
    @settings(max_examples=200, deadline=None)
    def test_sub_matches_sum_with_negation(self, a, b, slack, F):
        # the formula __sub__ replaced: self + (-other), one more FixedReal
        def sub_reference(x, y):
            return x + x._coerce(y).__neg__()

        x = noisy(a, slack[0], F) if slack[0] else FixedReal.from_fraction(a, F)
        y = noisy(b, slack[1], F) if slack[1] else FixedReal.from_fraction(b, F)
        got, want = x - y, sub_reference(x, y)
        assert (got.mant, got.err, got.F, got.exact) == (want.mant, want.err, want.F, want.exact)
        back = y - x
        want = sub_reference(x._coerce(y), x)
        assert (back.mant, back.err, back.exact) == (want.mant, want.err, want.exact)
        # the operators lift nothing: a plain number on either side is refused
        for plain in (round(b), b, float(b)):
            for combine in (lambda u, w: u + w, lambda u, w: u - w, lambda u, w: u * w):
                for left, right in ((x, plain), (plain, x)):
                    with pytest.raises(TypeError):
                        combine(left, right)

    @given(a=rationals, b=rationals)
    @settings(max_examples=100, deadline=None)
    def test_division_contains_truth(self, a, b):
        if abs(b) < Fraction(1, 100):
            b += 1
        xa, xb = noisy(a, 3), noisy(b, 5)
        quot = xa / xb
        assert quot.lo() <= a / b <= quot.hi()

    def test_division_by_zero_interval_refuses(self):
        x = FixedReal.from_fraction(1)
        tiny = noisy(Fraction(0), 10)
        with pytest.raises(PrecisionExhausted):
            x / tiny

    @given(a=rationals, k=st.integers(min_value=-500, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_int_scaling(self, a, k):
        x = noisy(a, 2)
        y = x.mul_int(k)
        assert y.lo() <= a * k <= y.hi()
        z = x.add_int(k)
        assert z.lo() <= a + k <= z.hi()


class TestIntegerComparisons:
    """certainly_le, certainly_gt and exceeds agree with their Fraction forms."""

    @given(data=st.data(), F=st.sampled_from([64, 512]))
    @settings(max_examples=400, deadline=None)
    def test_match_fraction_forms(self, data, F):
        x = data.draw(st.one_of(
            st.builds(lambda m, e: FixedReal(m, e, F, None),
                      st.integers(-(1000 << F), 1000 << F), st.integers(0, 1 << (F + 4))),
            rationals.map(lambda a: FixedReal.from_fraction(a, F)),
            st.tuples(rationals, st.integers(1, 1 << 40)).map(lambda t: noisy(*t, F)),
        ))
        edge = st.sampled_from([x.lo(), x.hi(), x.midpoint()])
        bound = data.draw(st.one_of(
            st.integers(-1000, 1000), rationals, edge,
            edge.map(float), st.floats(-1000, 1000, allow_nan=False),
        ))
        assert x.certainly_le(bound) == (x.hi() <= Fraction(bound))
        assert x.certainly_gt(bound) == (x.lo() > Fraction(bound))
        # orbit-sized radii, and tolerances at the radius and one ulp either side
        ulps = data.draw(st.integers(0, 1 << (F + 80)) | st.just(x.err))
        tol = data.draw(st.one_of(st.integers(-1, 2), rationals, st.floats(0, 1e30),
                                  st.integers(-1, 1).map(lambda d: Fraction(ulps + d, 1 << F))))
        assert exceeds(ulps, F, tol) == (Fraction(ulps, 1 << F) > Fraction(tol))

    def test_float_bound_compares_exactly(self):
        # x rounds to the float 0.1 but lies above it
        x = FixedReal.from_fraction(Fraction(0.1) + Fraction(1, 10**30), 512)
        assert float(x.exact) == 0.1
        assert x.certainly_gt(0.1) and not x.certainly_le(0.1)
        y = FixedReal(x.mant, 1, 512, None)
        assert y.certainly_gt(0.1) and not y.certainly_le(0.1)


class TestReduction:
    @given(a=rationals)
    @settings(max_examples=100, deadline=None)
    def test_frac_part_matches_exact_mod_one(self, a):
        x = FixedReal.from_fraction(a)
        f = x.frac_part()
        assert 0 <= f.midpoint() < 1
        # same point on the circle
        assert (f.exact - a) % 1 == 0

    def test_tolerance_refusal(self):
        # phi reduces mod 1 and refuses a radius past 2^-64; at m = 0 its y is gamma,
        # and noisy adds its slack to the one-ulp radius of 1/3
        z = FixedReal.zero()
        x = noisy(Fraction(1, 3), (1 << 192) - 1)
        assert x.err == 1 << (DEFAULT_PRECISION - 64)
        assert phi(z, z, x, 0).y.err == x.err
        with pytest.raises(PrecisionExhausted, match="orbit radius at m=0 exceeds"):
            phi(z, z, noisy(Fraction(1, 3), 1 << 192), 0)

    @given(n=st.integers(-(1 << 1100), 1 << 1100) | st.integers(-8, 8).map(lambda j: (2 * j + 1) << 200),
           k=st.integers(-3, 600) | st.just(201))
    @settings(max_examples=300, deadline=None)
    def test_round_shift_matches_round_div(self, n, k):
        assert _round_shift(n, k) == (_round_div(n, 1 << k) if k > 0 else n << -k)

    def test_round_nearest_ties_even(self):
        assert FixedReal.from_fraction(Fraction(3, 2)).round_nearest() == 2
        assert FixedReal.from_fraction(Fraction(5, 2)).round_nearest() == 2
        assert FixedReal.from_fraction(Fraction(-3, 2)).round_nearest() == -2
        assert FixedReal.from_fraction(Fraction(-1, 2)).round_nearest() == 0


class TestPrecisionChange:
    def test_mixed_precision_rejected(self):
        a = FixedReal.from_fraction(1, 128)
        b = FixedReal.from_fraction(1, 256)
        with pytest.raises(ValidationError, match="^mixed precisions 256 and 128$"):
            a + b

    @pytest.mark.parametrize("combine", [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / b,
        lambda a, b: as_fixed(b, a.F),
        lambda a, b: ShiftVector(a, a, b),
        lambda a, b: weyl_sum_lanes([(1, a, b)], 10),
        lambda a, b: count_orbit_hits(a, a, a, TorusPoint2(b, b), 10, 0.1),
    ], ids=["add", "sub", "mul", "div", "as_fixed", "ShiftVector", "weyl_sum", "count_orbit_hits_v0"])
    def test_every_entry_point_refuses_another_precision(self, combine):
        # one precision per computation: operands at another one are refused, never converted
        with pytest.raises(ValidationError):
            combine(FixedReal.sqrt_int(2, 256), FixedReal.sqrt_int(3, 128))

    def test_point_intervals_know_their_rational(self):
        x = FixedReal.sqrt_int(2).mul_int(0)
        assert x.exact == 0


def test_repr_saturates_a_radius_past_float_range():
    assert "inf" in repr(FixedReal(0, 1 << 1200, 64))
    assert repr(FixedReal.from_fraction(Fraction(1, 3), 64)) == "FixedReal(0.33333333333333331 ± 5.42e-20, F=64)"


def test_as_fixed_coercions(sqrt2):
    assert as_fixed(3).exact == 3
    assert as_fixed(Fraction(1, 7)).exact == Fraction(1, 7)
    assert as_fixed(0.5).exact == Fraction(1, 2)
    assert parse_real("sqrt:2").mant == sqrt2.mant
    assert as_fixed(sqrt2, sqrt2.F) is sqrt2
    # literals have one parser, parse_real
    for value in (object(), "sqrt:2"):
        with pytest.raises(TypeError):
            as_fixed(value)
