from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropitheta.exactlinalg import (
    LDLT, Matrix, SmithDecomposition, det, dot, gram_norm, integer_vector,
    invariant_factors, inverse, is_positive_definite, is_unimodular_map,
    ldlt, snf, solve,
)
from tropitheta.errors import NotSymmetric, SingularMatrix, SingularPivot
from tropitheta.theta import _prepared, lattice_argmin

from oracles import (
    minor_gcd_invariant_factors, sylvester_is_positive_definite,
)


def int_matrix_strategy(max_dim=4, bound=9):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                min_size=m, max_size=m)))


def symmetric_matrix_strategy(max_dim=4, bound=9):
    def build(n):
        return st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n, max_size=n).map(
                lambda rows: [[rows[i][j] + rows[j][i] for j in range(n)]
                              for i in range(n)])
    return st.integers(1, max_dim).flatmap(build)


class TestMatrix:
    def test_construction_and_indexing(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m[0, 1] == 2
        assert m.row(1) == (3, 4)
        assert m.col(0) == (1, 3)
        assert m.transpose() == Matrix.from_rows([[1, 3], [2, 4]])

    def test_entries_become_fractions(self):
        m = Matrix.from_rows([[1, Fraction(1, 2)]])
        assert all(isinstance(e, Fraction) for e in m.entries)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, [1, 2, 3])

    def test_immutable(self):
        m = Matrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_product(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[0, 1], [1, 0]])
        assert a * b == Matrix.from_rows([[2, 1], [4, 3]])
        assert a * 2 == Matrix.from_rows([[2, 4], [6, 8]])
        assert 2 * a == a * 2

    def test_matvec_and_dot(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert a.matvec((1, 1)) == (3, 7)
        assert dot((1, 2), (3, 4)) == 11

    def test_gram_norm(self):
        g = Matrix.from_rows([[2, 1], [1, 2]])
        assert gram_norm(g, (1, -1)) == 2

    def test_equal_matrices_hash_equal_and_share_one_prepared_entry(self):
        ints = Matrix.from_rows([[1009, 1], [1, 17]])
        fracs = Matrix.from_rows([[Fraction(2018, 2), Fraction(3, 3)],
                                  [Fraction(1), Fraction(17)]])
        assert ints == fracs and ints is not fracs
        assert hash(ints) == hash(fracs)
        before = _prepared.cache_info()
        lattice_argmin(ints, (0, 0))
        lattice_argmin(fracs, (1, 0))
        after = _prepared.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits - before.hits >= 1
        assert _prepared(ints) is _prepared(fracs)

    def test_hash_is_computed_once(self, monkeypatch):
        m = Matrix.from_rows([[Fraction(1, 3), 2], [5, Fraction(7, 2)]])
        first = hash(m)
        calls = []
        original = Fraction.__hash__

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        assert hash(m) == first
        assert calls == []

    def test_integer_vector_cast(self):
        assert integer_vector((Fraction(2, 1), 3)) == (2, 3)
        with pytest.raises(ValueError):
            integer_vector((Fraction(1, 2),))


class TestSolve:
    def test_det_and_inverse(self):
        m = Matrix.from_rows([[2, 1], [1, 2]])
        assert det(m) == 3
        assert m * inverse(m) == Matrix.identity(2)

    def test_solve(self):
        m = Matrix.from_rows([[2, 1], [1, 2]])
        x = solve(m, (1, 0))
        assert m.matvec(x) == (1, 0)

    def test_singular_rejected(self):
        m = Matrix.from_rows([[1, 2], [2, 4]])
        assert det(m) == 0
        with pytest.raises(SingularMatrix):
            solve(m, (1, 0))
        with pytest.raises(SingularMatrix):
            inverse(m)


class TestSmithNormalForm:
    def test_already_diagonal(self):
        d = snf(Matrix.diagonal([2, 4])).D
        assert d == Matrix.diagonal([2, 4])

    def test_identity(self):
        assert snf(Matrix.identity(3)).D == Matrix.identity(3)

    def test_two_one_one_two(self):
        # gcd of entries is 1, |det| = 3
        res = snf(Matrix.from_rows([[2, 1], [1, 2]]))
        assert res.D == Matrix.diagonal([1, 3])

    def test_transform_identity_holds(self):
        a = Matrix.from_rows([[6, 4], [2, 8]])
        u, d, v = snf(a)
        assert u * a * v == d
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)

    def test_zero_matrix(self):
        res = snf(Matrix.zeros(2, 3))
        assert res.D == Matrix.zeros(2, 3)

    def test_rank_deficient(self):
        a = Matrix.from_rows([[1, 2], [2, 4]])
        assert invariant_factors(a) == (1,)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            snf(Matrix.from_rows([[Fraction(1, 2)]]))

    @settings(max_examples=150, deadline=None)
    @given(int_matrix_strategy())
    def test_matches_minor_gcd_oracle(self, rows):
        a = Matrix.from_rows(rows)
        u, d, v = snf(a)
        assert u * a * v == d
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        diag = [int(d[i, i]) for i in range(min(d.rows, d.cols))]
        # off-diagonal zero, nonnegative diagonal, divisibility chain
        assert all(d[i, j] == 0 for i in range(d.rows)
                   for j in range(d.cols) if i != j)
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x != 0]
        assert all(nz[i] % nz[i - 1] == 0 for i in range(1, len(nz)))
        assert diag[len(nz):] == [0] * (len(diag) - len(nz))
        assert invariant_factors(a) == minor_gcd_invariant_factors(rows)


class TestUnimodularMap:
    def test_identity_with_padding_row(self):
        a = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
        assert is_unimodular_map(a)

    def test_torsion_detected(self):
        assert not is_unimodular_map(Matrix.from_rows([[2, 0], [0, 1]]))

    def test_three_by_two(self):
        a = Matrix.from_rows([[1, 1], [-2, -1], [1, 0]])
        assert is_unimodular_map(a)

    def test_wide_matrix_is_never_unimodular(self):
        assert not is_unimodular_map(Matrix.from_rows([[1, 0]]))

    def test_empty_tall_matrix(self):
        # 0 x n has rank 0 < n
        assert not is_unimodular_map(Matrix.zeros(0, 2))

    @settings(max_examples=150, deadline=None)
    @given(int_matrix_strategy(max_dim=3, bound=3))
    def test_matches_minor_gcd_oracle(self, rows):
        a = Matrix.from_rows(rows)
        expected = (a.rows >= a.cols
                    and minor_gcd_invariant_factors(rows) == (1,) * a.cols)
        assert is_unimodular_map(a) == expected


class TestLDLT:
    def test_diagonal(self):
        res = ldlt(Matrix.diagonal([2, 3]))
        assert res.L == Matrix.identity(2)
        assert res.D == (2, 3)
        assert res.definite

    def test_two_one_one_two(self):
        res = ldlt(Matrix.from_rows([[2, 1], [1, 2]]))
        assert res.D == (2, Fraction(3, 2))
        assert res.definite

    def test_indefinite_detected(self):
        res = ldlt(Matrix.from_rows([[1, 2], [2, 1]]))
        assert res.D == (1, -3)
        assert not res.definite

    def test_zero_pivot_with_nonzero_column(self):
        with pytest.raises(SingularPivot):
            ldlt(Matrix.from_rows([[0, 1], [1, 0]]))
        assert not is_positive_definite(Matrix.from_rows([[0, 1], [1, 0]]))

    def test_zero_pivot_with_zero_column_continues(self):
        res = ldlt(Matrix.from_rows([[0, 0], [0, 2]]))
        assert res.D == (0, 2)
        assert not res.definite

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            ldlt(Matrix.from_rows([[1, 2], [0, 1]]))

    @settings(max_examples=200, deadline=None)
    @given(symmetric_matrix_strategy())
    def test_reassembly_and_sylvester(self, rows):
        g = Matrix.from_rows(rows)
        try:
            res = ldlt(g)
        except SingularPivot:
            assert not sylvester_is_positive_definite(rows)
            return
        n = g.rows
        assert res.L * Matrix.diagonal(res.D) * res.L.transpose() == g
        assert all(res.L[i, j] == 0 for i in range(n) for j in range(i + 1, n))
        assert all(res.L[i, i] == 1 for i in range(n))
        assert res.definite == sylvester_is_positive_definite(rows)
