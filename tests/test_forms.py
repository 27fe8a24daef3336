import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdensity.solver as solver_mod
from qdensity import (
    FixedReal,
    PrecisionExhausted,
    ShiftVector,
    TernaryForm,
    ValidationError,
    evaluate_shifted,
    find_isotropic_vector,
    iota,
    parse_real,
    standard_form,
    unipotent,
    verify_equivalence,
    SL2Matrix,
    as_fixed,
)
from qdensity.fixed import DEFAULT_PRECISION, _ceil_div, _round_div, exceeds
from qdensity.forms import _det3, _signature
from test_solver import ORACLE_FORMS

STD = standard_form()
STD_TEXT = "0 1 0 0 -2 0"   # a11 a22 a33 a12 a13 a23
# non-integer Gram entries, so every off-diagonal term rounds its scaling
FRACTION_FORM = "1/3 -2/5 1 1/2 -1/7 3"


def mul_fraction(x, fr):
    """x * fr for a rational fr: the exact product when x is exact, else one more ulp."""
    fr = Fraction(fr)
    if x.exact is not None:
        return FixedReal.from_fraction(x.exact * fr, x.F)
    p, q = fr.numerator, fr.denominator
    mant = _round_div(x.mant * p, q)
    err = _ceil_div(x.err * abs(p), q) + 1
    return FixedReal(mant, err, x.F, None)


def evaluate_at(form, v, F=DEFAULT_PRECISION):
    """Q(v) for a triple of FixedReals at F and ints: evaluate_shifted at the zero vector."""
    return evaluate_shifted(form, ShiftVector.from_values(*v, F=F), (0, 0, 0))


def evaluate_reference(form, v, F):
    """Q(v) through FixedReal products and sums, term by term."""
    x = [as_fixed(c, F) for c in v]
    g = form.gram
    total = FixedReal.zero(F)
    for i in range(3):
        if g[i][i] != 0:
            total = total + mul_fraction(x[i] * x[i], g[i][i])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if g[i][j] != 0:
            total = total + mul_fraction(x[i] * x[j], 2 * g[i][j])
    return total


def evaluate_shifted_reference(form, xi, v):
    """Q(v + xi) for an integer triple v, through add_int and evaluate_reference."""
    shifted = tuple(c.add_int(k) for c, k in zip(xi.components(), v))
    return evaluate_reference(form, shifted, F=xi.precision)


def _dec(n: int, k: int) -> str:
    digits = str(abs(n)).rjust(k + 1, "0")
    return f"dec:{'-' if n < 0 else ''}{digits[:len(digits) - k]}.{digits[len(digits) - k:]}"


# sqrt, surd, dec:, dyadic and non-dyadic rational literals
LITERALS = st.one_of(
    st.integers(2, 10**6).map("sqrt:{}".format),
    st.tuples(st.integers(-99, 99), st.integers(-99, 99),
              st.integers(1, 99) | st.integers(-99, -1), st.integers(2, 10**4)).map(
        lambda t: "surd:%d,%d,%d,%d" % t),
    st.tuples(st.integers(-10**6, 10**6), st.integers(0, 8)).map(lambda t: _dec(*t)),
    st.tuples(st.integers(-999, 999), st.integers(0, 40)).map(lambda t: f"{t[0]}/{1 << t[1]}"),
    st.tuples(st.integers(-999, 999), st.integers(1, 499), st.integers(0, 4)).map(
        lambda t: f"{t[0]}/{(2 * t[1] + 1) << t[2]}"),
)


def operands(F):
    """Literals at F, and raw FixedReals with random radii, inexact unless the radius is 0."""
    raw = st.builds(
        lambda m, e: FixedReal(m, e, F, None),
        st.integers(-(1 << (F + 40)), 1 << (F + 40)),
        st.integers(0, 4) | st.integers(0, 1 << (F + 10)),
    )
    return LITERALS.map(lambda s: parse_real(s, F)) | raw


def _outcome(fn, *args, **kwargs):
    try:
        r = fn(*args, **kwargs)
    except PrecisionExhausted as exc:
        return type(exc), str(exc)
    return r.mant, r.err, r.F, r.exact


def signature_reference(g):
    """(positives, negatives, zeros) via rational congruence diagonalization."""
    a = [[Fraction(x) for x in row] for row in g]
    n = 3
    pos = neg = zero = 0
    for step in range(n):
        # find a usable pivot on the diagonal
        piv = next((j for j in range(step, n) if a[j][j] != 0), None)
        if piv is None:
            piv_off = next(
                ((i, j) for i in range(step, n) for j in range(i + 1, n) if a[i][j] != 0),
                None,
            )
            if piv_off is None:
                zero += n - step
                break
            i, j = piv_off
            # v_i += v_j turns the zero diagonal entry into 2*a[i][j]
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            piv = i
        if piv != step:
            a[piv], a[step] = a[step], a[piv]
            for row in a:
                row[piv], row[step] = row[step], row[piv]
        d = a[step][step]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(step + 1, n):
            f = a[step][j] / d
            if f == 0:
                continue
            for k in range(n):
                a[j][k] -= f * a[step][k]
            for k in range(n):
                a[k][j] -= f * a[k][step]
    return pos, neg, zero


# Gram entries weighted toward 0, so ranks 0 to 3 and zero diagonals occur
_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from([Fraction(k) for k in range(-3, 4)] + [Fraction(1, 2), Fraction(-1, 3)]),
)


def _symmetric(a11, a22, a33, a12, a13, a23):
    return ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))


class TestSignature:
    @settings(max_examples=400, deadline=None)
    @given(entries=st.tuples(*[_ENTRY] * 6))
    @example(entries=(1, -1, 0, 0, 0, 0))   # diag(1, -1, 0): an interior zero coefficient
    @example(entries=(0, 0, 0, 0, 0, 0))
    @example(entries=(0, 1, 0, 0, -2, 0))   # the standard form
    @example(entries=(0, 0, 0, 1, 0, 0))    # zero diagonal, rank two
    @example(entries=(1, 1, 1, 1, 1, 1))    # rank one
    def test_descartes_matches_elimination(self, entries):
        g = _symmetric(*(Fraction(x) for x in entries))
        assert _signature(g) == signature_reference(g)

    @pytest.mark.parametrize("entries,sig", [
        ((1, -1, 0, 0, 0, 0), (1, 1, 1)),
        ((0, 0, 0, 0, 0, 0), (0, 0, 3)),
        ((0, 1, 0, 0, -2, 0), (2, 1, 0)),
        ((-1, -1, -1, 0, 0, 0), (0, 3, 0)),
        ((1, 1, 0, 1, 0, 0), (1, 0, 2)),
    ])
    def test_known_signatures(self, entries, sig):
        assert _signature(_symmetric(*(Fraction(x) for x in entries))) == sig

# high-precision reference, frozen from a 45-digit evaluation
MINUS_FOUR_SQRT2 = -5.656854249492380195206754896838792314278687


class TestStandardForm:
    @pytest.mark.parametrize(
        "v,expected", [((1, 2, 1), 0), ((0, 1, 0), 1), ((1, 0, -1), 4)]
    )
    def test_known_values(self, v, expected):
        assert STD.evaluate_exact(v) == expected

    def test_gram_layout(self):
        assert STD.gram == (
            (Fraction(0), Fraction(0), Fraction(-2)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(-2), Fraction(0), Fraction(0)),
        )

    def test_signature_and_determinant(self):
        assert _signature(STD.gram) == (2, 1, 0)
        assert _det3(STD.gram) == -4

    def test_string_roundtrip(self):
        assert TernaryForm.from_string(STD_TEXT).gram == STD.gram


class TestEvaluate:
    def test_zero_vector(self):
        assert evaluate_at(STD, (0, 0, 0)).exact == 0

    def test_ones(self):
        assert evaluate_at(STD, (1, 1, 1)).exact == -3

    def test_sqrt2_direction(self, sqrt2):
        val = evaluate_at(STD, (sqrt2, 0, 1))
        assert val.to_float() == pytest.approx(MINUS_FOUR_SQRT2, abs=1e-12)
        hi_ref = -4 * mpmath.mpf(2) ** 0.5
        assert val.lo() <= Fraction(str(mpmath.nstr(hi_ref, 30))) <= val.hi() or abs(
            val.to_float() - float(hi_ref)
        ) < 1e-12

    def test_tolerance_refusal(self, sqrt2):
        rough = FixedReal(sqrt2.mant, sqrt2.err + (1 << 250), sqrt2.F, None)
        val = evaluate_at(STD, (rough, 0, 1))
        assert exceeds(val.err, val.F, Fraction(1, 1 << 128))
        assert not exceeds(val.err, val.F, 1)


class TestEvaluateShifted:
    def test_zero_shift_reduces_to_plain(self):
        xi = ShiftVector.from_values(0, 0, 0)
        for v in ((1, 2, 1), (3, -1, 2), (0, 5, -5)):
            assert evaluate_shifted(STD, xi, v).exact == STD.evaluate_exact(v)

    def test_beta_direction_ignores_alpha(self, sqrt2):
        xi = ShiftVector.from_values(sqrt2, 0, 0)
        assert evaluate_shifted(STD, xi, (0, 1, 0)).to_float() == pytest.approx(1.0)

    def test_gamma_unit(self, sqrt2):
        xi = ShiftVector.from_values(sqrt2, 0, 0)
        val = evaluate_shifted(STD, xi, (0, 0, 1))
        assert val.to_float() == pytest.approx(MINUS_FOUR_SQRT2, abs=1e-12)

    def test_rejects_non_integer_vector(self, sqrt2):
        xi = ShiftVector.from_values(sqrt2, 0, 0)
        with pytest.raises(ValidationError):
            evaluate_shifted(STD, xi, (0.5, 0, 0))


FORMS = st.sampled_from([STD_TEXT, *ORACLE_FORMS, FRACTION_FORM]).map(TernaryForm.from_string)
SMALL_OR_HUGE = st.integers(-3, 3) | st.integers(-10**12, 10**12)


class TestEvaluateDifferential:
    """The integer kernel makes the roundings of FixedReal products and sums, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), F=st.sampled_from([64, 256, 512]), form=FORMS)
    def test_evaluate_matches_reference(self, data, F, form):
        x = [data.draw(operands(F) | SMALL_OR_HUGE) for _ in range(3)]
        assert _outcome(evaluate_at, form, x, F) == _outcome(evaluate_reference, form, x, F)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), F=st.sampled_from([64, 256, 512]), form=FORMS,
           v=st.tuples(SMALL_OR_HUGE, SMALL_OR_HUGE, SMALL_OR_HUGE))
    def test_evaluate_shifted_matches_reference(self, data, F, form, v):
        xi = ShiftVector(*(data.draw(operands(F)) for _ in range(3)))
        assert _outcome(evaluate_shifted, form, xi, v) == _outcome(evaluate_shifted_reference, form, xi, v)

    @pytest.mark.parametrize("F", [64, 256, 512])
    def test_product_ties_round_to_even(self, F):
        # mantissa products of 3/2 ulp and 5/2 ulps, where a floor would round down
        x = [FixedReal(3 << (F - 1), 1, F, None), FixedReal(5 << (F - 1), 1, F, None),
             FixedReal(1, 1, F, None)]
        for form in (STD, TernaryForm.from_string(FRACTION_FORM)):
            assert _outcome(evaluate_at, form, x, F) == _outcome(evaluate_reference, form, x, F)

    def test_gram_coefficients_are_cached_per_form(self):
        form = TernaryForm.from_string(FRACTION_FORM)
        assert form._coefficients is form._coefficients
        assert form._coefficients == ((0, 0, 1, 3), (1, 1, -2, 5), (2, 2, 1, 1),
                                      (0, 1, 1, 1), (0, 2, -2, 7), (1, 2, 6, 1))
        assert STD._coefficients == ((1, 1, 1, 1), (0, 2, -4, 1))


class TestMidpointWindow:
    """The midpoint that evaluate_shifted rounds lies within solver._window_slack of R."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), F=st.sampled_from([64, 256, 512]),
           lits=st.tuples(LITERALS, LITERALS, LITERALS, LITERALS),
           a=SMALL_OR_HUGE, v3=SMALL_OR_HUGE)
    def test_window_holds_the_rounded_midpoint(self, data, F, lits, a, v3):
        xi = ShiftVector(*(parse_real(lit, F) for lit in lits[:3]))
        t = parse_real(lits[3], F)
        v = (0, a, v3)
        # R, in units of 2^-2F, is the residual of the mantissas alone
        M2 = (a << F) + xi.beta.mant
        M3 = (v3 << F) + xi.gamma.mant
        R = abs(M2 * M2 - 4 * xi.alpha.mant * M3 - (t.mant << F))
        r = abs(evaluate_shifted(STD, xi, v) - t)
        assert abs((r.mant << F) - R) <= solver_mod._window_slack(xi, M2, M3)


class TestIsotropicSearch:
    def test_standard_box_one(self):
        assert find_isotropic_vector(STD, 1) == (0, 0, 1)

    def test_definite_form_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            TernaryForm.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_degenerate_probe_unvalidated(self):
        # rank-two probe used only for the search path
        g = TernaryForm(_symmetric(*(Fraction(x) for x in (1, 0, -2, 0, 0, 0))))
        assert find_isotropic_vector(g, 10) == (0, 1, 0)

    def test_result_is_primitive_zero(self):
        for B in (1, 2, 3):
            w = find_isotropic_vector(STD, B)
            assert STD.evaluate_exact(w) == 0
            assert math.gcd(math.gcd(abs(w[0]), abs(w[1])), abs(w[2])) == 1

    def test_anisotropic_box_returns_none(self):
        # x^2 + y^2 - 3 z^2 has no small nontrivial zero
        g = TernaryForm.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -3]])
        assert find_isotropic_vector(g, 3) is None


class TestEquivalence:
    def test_identity(self):
        assert verify_equivalence(STD, 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_unipotent_is_isometry(self):
        assert verify_equivalence(STD, 1, unipotent(2).rows)

    def test_wrong_scale(self):
        assert not verify_equivalence(STD, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_doubling_matrix(self):
        assert verify_equivalence(STD, 4, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])

    def test_zero_scale_rejected(self):
        with pytest.raises(ValidationError):
            verify_equivalence(STD, 0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_certified_pairs_satisfy_identity(self):
        # (m, M) passing the verifier satisfy m*Q'(v) = Q(vM) on a grid
        cases = [
            (STD, 1, unipotent(3)),
            (STD, 1, iota(SL2Matrix(2, 1, 1, 1))),
            (STD, 4, None),  # doubling handled separately below
        ]
        for form, m, M in cases[:2]:
            assert verify_equivalence(form, m, M.rows)
            for v1 in range(-6, 7, 3):
                for v2 in range(-6, 7, 3):
                    for v3 in range(-6, 7, 3):
                        vM = M.apply_int((v1, v2, v3))
                        assert m * form.evaluate_exact((v1, v2, v3)) == STD.evaluate_exact(vM)
        two = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        assert verify_equivalence(STD, 4, two)
        for v in ((1, 2, 3), (-5, 0, 7)):
            doubled = tuple(2 * c for c in v)
            assert 4 * STD.evaluate_exact(v) == STD.evaluate_exact(doubled)


def test_shift_vector_requires_single_precision(sqrt2):
    with pytest.raises(ValidationError):
        ShiftVector(sqrt2, FixedReal.zero(128), FixedReal.zero(256))
