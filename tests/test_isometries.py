import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdensity import (
    SL2Matrix,
    SOQMatrix,
    ShiftVector,
    ValidationError,
    apply,
    iota,
    standard_form,
    unipotent,
)
from qdensity.harness import Lcg64

STD = standard_form()
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def random_sl2(rng: Lcg64, bound: int = 100) -> SL2Matrix:
    """Random element with entries bounded by `bound`, via extended gcd."""
    while True:
        a = rng.next_u64() % (2 * bound + 1) - bound
        c = rng.next_u64() % (2 * bound + 1) - bound
        if a == 0 and c == 0:
            continue
        if math.gcd(abs(a), abs(c)) != 1:
            continue
        # solve a*d - b*c = 1
        g, x, y = _xgcd(a, c)
        d, b = x, -y
        if max(abs(b), abs(d)) <= bound:
            return SL2Matrix(a, b, c, d)


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def adjugate_inverse(M: SOQMatrix) -> SOQMatrix:
    """Adjugate transpose; the determinant is one, so this is the exact inverse."""
    r = M.rows
    cof = [
        [
            r[1][1] * r[2][2] - r[1][2] * r[2][1],
            -(r[1][0] * r[2][2] - r[1][2] * r[2][0]),
            r[1][0] * r[2][1] - r[1][1] * r[2][0],
        ],
        [
            -(r[0][1] * r[2][2] - r[0][2] * r[2][1]),
            r[0][0] * r[2][2] - r[0][2] * r[2][0],
            -(r[0][0] * r[2][1] - r[0][1] * r[2][0]),
        ],
        [
            r[0][1] * r[1][2] - r[0][2] * r[1][1],
            -(r[0][0] * r[1][2] - r[0][2] * r[1][0]),
            r[0][0] * r[1][1] - r[0][1] * r[1][0],
        ],
    ]
    return SOQMatrix(tuple(tuple(cof[j][i] for j in range(3)) for i in range(3)))


@st.composite
def _sl2(draw, bound=10**6):
    """SL2 element with |a|, |c| <= bound, completed by the extended gcd."""
    a = draw(st.integers(-bound, bound))
    c = draw(st.integers(-bound, bound))
    if math.gcd(a, c) != 1:
        c = 1
    _, x, y = _xgcd(a, c)
    return SL2Matrix(a, -y, c, x)


_SOQ = st.one_of(
    _sl2().map(iota),
    st.integers(-10**30, 10**30).map(unipotent),
)


class TestInverse:
    @settings(max_examples=300, deadline=None)
    @given(M=_SOQ, N=_SOQ)
    def test_matches_adjugate(self, M, N):
        for X in (M, N, M @ N):
            inv = X.inverse()
            assert inv.rows == adjugate_inverse(X).rows
            assert (X @ inv).rows == IDENTITY

    def test_known_elements(self):
        for g in (SL2Matrix(0, -1, 1, 0), SL2Matrix(2, 1, 1, 1), SL2Matrix(-3, 2, 1, -1)):
            M = iota(g)
            assert M.inverse().rows == iota(g.inverse()).rows == adjugate_inverse(M).rows


class TestEmbedding:
    def test_identity(self):
        assert iota(SL2Matrix(1, 0, 0, 1)).rows == IDENTITY

    def test_shear_squared(self):
        assert iota(SL2Matrix(1, 2, 0, 1)).rows == ((1, 4, 4), (0, 1, 2), (0, 0, 1))

    def test_rotation(self):
        assert iota(SL2Matrix(0, -1, 1, 0)).rows == ((0, 0, 1), (0, -1, 0), (1, 0, 0))

    def test_homomorphism_on_seeded_pairs(self):
        rng = Lcg64(12345)
        for _ in range(100):
            g, h = random_sl2(rng), random_sl2(rng)
            assert iota(g @ h).rows == (iota(g) @ iota(h)).rows

    def test_form_preserved_on_integer_grid(self):
        rng = Lcg64(777)
        for _ in range(50):
            M = iota(random_sl2(rng))
            for _ in range(20):
                v = tuple(int(rng.next_u64() % 101) - 50 for _ in range(3))
                assert STD.evaluate_exact(M.apply_int(v)) == STD.evaluate_exact(v)


class TestUnipotent:
    @pytest.mark.parametrize(
        "m,rows",
        [
            (0, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            (1, ((1, 2, 1), (0, 1, 1), (0, 0, 1))),
            (-3, ((1, -6, 9), (0, 1, -3), (0, 0, 1))),
        ],
    )
    def test_matrix_shape(self, m, rows):
        assert unipotent(m).rows == rows

    def test_group_law(self):
        for m1, m2 in ((5, 7), (0, 9), (-4, 4)):
            assert (unipotent(m1) @ unipotent(m2)).rows == unipotent(m1 + m2).rows
        assert (unipotent(-4) @ unipotent(4)).rows == IDENTITY

    def test_inverse_is_negation(self):
        for m in (-17, -1, 2, 1000):
            assert unipotent(m).inverse().rows == unipotent(-m).rows

    def test_huge_parameter_stays_exact(self):
        m = 10**12
        M = unipotent(m)
        assert M.rows[0][2] == m * m
        assert M.inverse().rows == unipotent(-m).rows


class TestSOQInvariants:
    def test_non_isometry_rejected(self):
        with pytest.raises(ValidationError):
            SOQMatrix(((2, 0, 0), (0, 2, 0), (0, 0, 2)))

    def test_wrong_determinant_rejected(self):
        # preserves nothing and det != 1
        with pytest.raises(ValidationError):
            SOQMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 2)))

    def test_unit_determinant_non_isometry_rejected(self):
        with pytest.raises(ValidationError, match="does not preserve the standard form"):
            SOQMatrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)))

    def test_sl2_determinant_enforced(self):
        with pytest.raises(ValidationError):
            SL2Matrix(1, 1, 1, 1)


class TestAction:
    def test_identity_fixes(self, sqrt2):
        xi = ShiftVector.from_values(sqrt2, 3, -2)
        out = apply(xi, SOQMatrix(IDENTITY))
        assert out.alpha.mant == xi.alpha.mant
        assert out.gamma.mant == xi.gamma.mant

    def test_rotation_moves_first_to_last(self):
        xi = ShiftVector.from_values(1, 0, 0)
        out = apply(xi, iota(SL2Matrix(0, -1, 1, 0)))
        assert [c.exact for c in out.components()] == [0, 0, 1]

    def test_orbit_affine_lift(self, sqrt2, zero):
        xi = ShiftVector(sqrt2, zero, zero)
        for m in (1, 2, 5, 13):
            w = apply(xi, unipotent(m))
            assert w.alpha.mant == sqrt2.mant
            # (alpha, 2 alpha m + beta, alpha m^2 + beta m + gamma)
            assert w.beta.mant == sqrt2.mul_int(2 * m).mant
            assert w.gamma.mant == sqrt2.mul_int(m * m).mant

    def test_printable(self):
        assert str(unipotent(2)) == "SOQMatrix(rows=((1, 4, 4), (0, 1, 2), (0, 0, 1)))"
