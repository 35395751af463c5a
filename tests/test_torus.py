from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropitheta.exactlinalg import Matrix, dot
from tropitheta.errors import (
    NonIntegerLambda, NotPolarization, NotSymmetric, SingularEmbedding,
)
from tropitheta.torus import (
    build_torus, ell_point, polarization_type, validate_datum,
)

from oracles import (
    datum_from_Q, diagonal_matrix, gamma_eval, lattice_coords, lattice_point,
    pairing_with_point, rep_class_coords,
)


def elliptic(varpi=12, d=2, ell=None):
    torus = build_torus(Matrix.from_rows([[varpi]]))
    return validate_datum(torus, Matrix.from_rows([[d]]),
                          [0] if ell is None else ell)


def unimodular_2x2():
    # a handful of unimodular W for invariance tests
    return [Matrix.from_rows(w) for w in
            ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [-1, 0]],
             [[2, 1], [1, 1]], [[1, -2], [0, 1]])]


class TestBuildTorus:
    def test_circle(self):
        t = build_torus(Matrix.from_rows([[12]]))
        assert t.n == 1
        assert lattice_point(t, (1,)) == (12,)
        assert lattice_coords(t, (6,)) == (Fraction(1, 2),)

    def test_standard_square(self):
        t = build_torus(Matrix.identity(2))
        assert lattice_point(t, (1, 2)) == (1, 2)

    def test_singular_rejected(self):
        with pytest.raises(SingularEmbedding):
            build_torus(Matrix.from_rows([[1, 0], [0, 0]]))
        # singular with no zero entry, and the zero 1 x 1 period
        with pytest.raises(SingularEmbedding):
            build_torus(Matrix.from_rows([[1, 2], [2, 4]]))
        with pytest.raises(SingularEmbedding):
            build_torus(Matrix.from_rows([[0]]))


class TestValidateDatum:
    def test_elliptic_type_three(self):
        d = elliptic(d=3)
        assert d.G == Matrix.from_rows([[36]])
        assert d.polarized

    def test_indefinite_is_valid_but_not_polarized(self):
        t = build_torus(Matrix.identity(2))
        d = validate_datum(t, Matrix.from_rows([[0, 1], [1, 0]]), (0, 0))
        assert not d.polarized
        with pytest.raises(NotPolarization):
            polarization_type(d)

    def test_asymmetric_gram_rejected(self):
        t = build_torus(Matrix.from_rows([[1, Fraction(1, 2)], [0, 1]]))
        with pytest.raises(NotSymmetric):
            validate_datum(t, Matrix.identity(2), (0, 0))

    def test_non_integral_lambda_rejected(self):
        t = build_torus(Matrix.identity(1))
        with pytest.raises(NonIntegerLambda):
            validate_datum(t, Matrix.from_rows([[Fraction(1, 2)]]), (0,))


class TestDatumFromQ:
    def test_elliptic_gram(self):
        t = build_torus(Matrix.from_rows([[12]]))
        d = datum_from_Q(t, Matrix.from_rows([[24]]), (0,))
        assert d.L == Matrix.from_rows([[2]])

    def test_zero_form(self):
        t = build_torus(Matrix.from_rows([[12]]))
        d = datum_from_Q(t, Matrix.from_rows([[0]]), (0,))
        assert d.L == Matrix.from_rows([[0]])

    def test_non_integral_rejected(self):
        t = build_torus(Matrix.from_rows([[12]]))
        with pytest.raises(NonIntegerLambda):
            datum_from_Q(t, Matrix.from_rows([[5]]), (0,))

    def test_round_trip(self):
        t = build_torus(Matrix.from_rows([[2, 1], [1, 3]]).transpose())
        d0 = validate_datum(
            build_torus(Matrix.identity(2)),
            Matrix.from_rows([[2, 1], [1, 2]]), (0, 1))
        d1 = datum_from_Q(build_torus(Matrix.identity(2)), d0.G, d0.ellVec)
        assert d1.L == d0.L


class TestPolarizationType:
    def test_elliptic_three(self):
        info = polarization_type(elliptic(d=3))
        assert info.type == (3,)
        assert info.reps == ((0,), (1,), (2,))
        assert info.D == 3

    def test_principal(self):
        t = build_torus(Matrix.identity(2))
        info = polarization_type(validate_datum(t, Matrix.identity(2), (0, 0)))
        assert info.type == (1, 1)
        assert info.reps == ((0, 0),)

    def test_diagonal_two_four(self):
        t = build_torus(Matrix.identity(2))
        d = validate_datum(t, Matrix.from_rows([[2, 0], [0, 4]]), (0, 0))
        info = polarization_type(d)
        assert info.type == (2, 4)
        assert info.D == 8

    def test_reps_distinct_mod_lambda(self):
        # non-diagonal L so the U^-1 pullback actually matters
        t = build_torus(Matrix.identity(2))
        d = validate_datum(t, Matrix.from_rows([[2, 1], [1, 2]]), (0, 0))
        info = polarization_type(d)
        assert info.type == (1, 3)
        seen = set()
        for b1 in info.reps:
            for b2 in info.reps:
                if b1 < b2:
                    assert rep_class_coords(d, b1, b2) is None
            seen.add(b1)
        assert len(seen) == info.D

    def test_transform_recovers_type(self):
        t = build_torus(Matrix.identity(2))
        d = validate_datum(t, Matrix.from_rows([[2, 1], [1, 2]]), (0, 0))
        info = polarization_type(d)
        assert info.U * d.L * info.V == diagonal_matrix(info.type)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(range(5)), st.sampled_from(range(5)))
    def test_type_invariant_under_lattice_basis_change(self, i, j):
        base = Matrix.from_rows([[4, 1], [1, 4]])
        W1, W2 = unimodular_2x2()[i], unimodular_2x2()[j]
        W = W1 * W2
        t0 = build_torus(Matrix.identity(2))
        d0 = validate_datum(t0, base, (0, 0))
        # changing the M'-basis by W transforms Pmat -> Pmat.W, L -> L.W
        t1 = build_torus(Matrix.identity(2) * W)
        d1 = validate_datum(t1, base * W, (0, 0))
        assert polarization_type(d0).type == polarization_type(d1).type


class TestGammaEll:
    def test_gamma_at_zero(self):
        assert gamma_eval(elliptic(), (0,)) == 0

    def test_gamma_example(self):
        d = elliptic(d=3)  # G = 36, ell = 0
        assert gamma_eval(d, (1,)) == 18

    def test_cocycle_identity(self):
        t = build_torus(Matrix.identity(2))
        d = validate_datum(t, Matrix.from_rows([[2, 1], [1, 2]]), (1, 2))
        for a in [(0, 0), (1, 0), (2, -1), (-3, 5)]:
            for b in [(1, 1), (0, -2), (4, 3)]:
                lhs = (gamma_eval(d, tuple(x + y for x, y in zip(a, b)))
                       - gamma_eval(d, a) - gamma_eval(d, b))
                assert lhs == dot(b, d.G.matvec(a))

    def test_ell_point_zero(self):
        assert ell_point(elliptic()) == (0,)

    def test_ell_point_scalar(self):
        d = elliptic(d=3, ell=(18,))
        assert ell_point(d) == (Fraction(1, 2),)

    def test_ell_point_2d(self):
        t = build_torus(Matrix.identity(2))
        d = validate_datum(t, Matrix.from_rows([[2, 1], [1, 2]]), (1, 1))
        assert ell_point(d) == (Fraction(1, 3), Fraction(1, 3))

    def test_ell_point_needs_polarization(self):
        t = build_torus(Matrix.identity(2))
        d = validate_datum(t, Matrix.from_rows([[0, 1], [1, 0]]), (0, 0))
        with pytest.raises(NotPolarization):
            ell_point(d)


class TestPairingIntegrality:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
    def test_pairing_with_integral_points_is_integral(self, entries):
        # Q(f'_i, e_j^v) = L_ji must be an integer for every valid datum
        a, b, c, p = entries
        G = Matrix.from_rows([[2 * a, b], [b, 2 * c]])
        t = build_torus(Matrix.identity(2))
        d = datum_from_Q(t, G, (0, 0))
        assert d.L.is_integral()
        for w in [(1, 0), (0, 1), (3, -2)]:
            val = pairing_with_point(d, w, (p, 1 - p))
            assert val.denominator == 1
