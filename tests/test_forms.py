import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdensity import (
    FixedReal,
    ShiftVector,
    TernaryForm,
    ValidationError,
    evaluate,
    evaluate_shifted,
    find_isotropic_vector,
    iota,
    standard_form,
    unipotent,
    verify_equivalence,
    SL2Matrix,
)
from qdensity.forms import _signature

STD = standard_form()


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
        assert STD.signature() == (2, 1, 0)
        assert STD.determinant() != 0

    def test_string_roundtrip(self):
        text = STD.to_string()
        assert TernaryForm.from_string(text).gram == STD.gram
        assert text == "0 1 0 0 -2 0"


class TestEvaluate:
    def test_zero_vector(self):
        assert evaluate(STD, (0, 0, 0)).exact == 0

    def test_ones(self):
        assert evaluate(STD, (1, 1, 1)).exact == -3

    def test_sqrt2_direction(self, sqrt2):
        val = evaluate(STD, (sqrt2, 0, 1))
        assert val.to_float() == pytest.approx(MINUS_FOUR_SQRT2, abs=1e-12)
        hi_ref = -4 * mpmath.mpf(2) ** 0.5
        assert val.lo() <= Fraction(str(mpmath.nstr(hi_ref, 30))) <= val.hi() or abs(
            val.to_float() - float(hi_ref)
        ) < 1e-12

    def test_tolerance_refusal(self, sqrt2):
        rough = FixedReal(sqrt2.mant, sqrt2.err + (1 << 250), sqrt2.F, None)
        with pytest.raises(Exception):
            evaluate(STD, (rough, 0, 1), tol=Fraction(1, 1 << 128))


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
