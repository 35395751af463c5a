"""Exact integer and rational linear algebra.

Everything in this module is exact: entries are `fractions.Fraction` (plain
ints are accepted and widened), no floating point is used anywhere, and all
comparisons are decidable.  The operations provided are the ones the rest of
the package needs: determinants and solves over the rationals, Smith normal
form with recorded unimodular row/column transforms, invariant factors from
the same integer elimination without transforms, unimodularity tests for
integer maps, and a rational LDL^T factorization that doubles as the
positive-definiteness test.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import NotSymmetric, SingularMatrix, SingularPivot


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """Immutable dense matrix with exact rational entries, row-major."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows, cols, entries):
        entries = tuple(_frac(e) for e in entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def diagonal(cls, diag):
        diag = list(diag)
        n = len(diag)
        return cls(n, n, [
            _frac(diag[i]) if i == j else Fraction(0)
            for i in range(n) for j in range(n)
        ])

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return Matrix(self.cols, self.rows, [
            self.entries[i * self.cols + j]
            for j in range(self.cols) for i in range(self.rows)
        ])

    @property
    def is_square(self):
        return self.rows == self.cols

    def is_symmetric(self):
        return self.is_square and all(
            self[i, j] == self[j, i]
            for i in range(self.rows) for j in range(i))

    def is_integral(self):
        return all(e.denominator == 1 for e in self.entries)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c):
        c = _frac(c)
        return Matrix(self.rows, self.cols, [c * a for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[k] * other.entries[k * other.cols + j]
                                for k in range(self.cols)), Fraction(0)))
        return Matrix(self.rows, other.cols, out)

    __rmul__ = scale

    def matvec(self, v):
        v = to_vector(v)
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(
            sum((self.entries[i * self.cols + k] * v[k]
                 for k in range(self.cols)), Fraction(0))
            for i in range(self.rows))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        if not hasattr(self, "_hash"):
            object.__setattr__(self, "_hash",
                               hash((self.rows, self.cols, self.entries)))
        return self._hash

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols,
                                       [str(e) for e in self.entries])


# -- vectors are plain tuples of Fraction -----------------------------------

def to_vector(v):
    return tuple(_frac(x) for x in v)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum((_frac(a) * _frac(b) for a, b in zip(u, v)), Fraction(0))


def vec_add(u, v):
    return tuple(_frac(a) + _frac(b) for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(_frac(a) - _frac(b) for a, b in zip(u, v))


def vec_scale(c, v):
    c = _frac(c)
    return tuple(c * _frac(x) for x in v)


def is_integer_vector(v):
    return all(_frac(x).denominator == 1 for x in v)


# -- Gaussian elimination over Q --------------------------------------------

def det(M):
    if not M.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    a = M.to_lists()
    result = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            result = -result
        result *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return result


def solve(M, v):
    """Solve M x = v exactly; raises SingularMatrix if M is not invertible."""
    if not M.is_square:
        raise ValueError("solve needs a square matrix")
    n = M.rows
    a = M.to_lists()
    b = list(to_vector(v))
    if len(b) != n:
        raise ValueError("length mismatch")
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrix("matrix is singular")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            b[k], b[pivot_row] = b[pivot_row], b[k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
                b[i] -= f * b[k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = b[i] - sum((a[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        x[i] = s / a[i][i]
    return tuple(x)


def inverse(M):
    if not M.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    cols = [solve(M, [Fraction(int(i == j)) for i in range(n)])
            for j in range(n)]
    return Matrix(n, n, [cols[j][i] for i in range(n) for j in range(n)])


# -- Smith normal form -------------------------------------------------------

class SmithDecomposition(NamedTuple):
    U: Matrix
    D: Matrix
    V: Matrix


def _smith(A, U, Vt):
    """The Smith form D of the integer matrix A, as a list of integer rows.
    U holds one row per row of A and Vt one per column: each row operation
    is repeated on the rows of U and each column operation on the rows of
    Vt, so identity rows come out as the transforms U and V^T of
    U.A.V = D, while empty rows record nothing.  Pivots are chosen by
    minimal nonzero absolute value."""
    if not A.is_integral():
        raise ValueError("Smith form needs integer entries")
    m, n = A.rows, A.cols
    M = [[int(e) for e in A.row(i)] for i in range(m)]

    def row_sub(i, k, q):
        # row_i -= q * row_k
        M[i] = [a - q * b for a, b in zip(M[i], M[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_sub(j, k, q):
        # col_j -= q * col_k
        for row in M:
            row[j] -= q * row[k]
        Vt[j] = [a - q * b for a, b in zip(Vt[j], Vt[k])]

    def min_pivot(t):
        # a minimal-|.| nonzero entry of the trailing block, or None
        nonzero = [(abs(M[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if M[i][j]]
        return min(nonzero)[1:] if nonzero else None

    for t in range(min(m, n)):
        pivot = min_pivot(t)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            M[t], M[pi] = M[pi], M[t]
            U[t], U[pi] = U[pi], U[t]
            for row in M:
                row[t], row[pj] = row[pj], row[t]
            Vt[t], Vt[pj] = Vt[pj], Vt[t]
            if M[t][t] < 0:
                M[t] = [-x for x in M[t]]
                U[t] = [-x for x in U[t]]
            p = M[t][t]
            dirty = False
            for i in range(t + 1, m):
                if M[i][t]:
                    row_sub(i, t, M[i][t] // p)
                    dirty = dirty or M[i][t] != 0
            for j in range(t + 1, n):
                if M[t][j]:
                    col_sub(j, t, M[t][j] // p)
                    dirty = dirty or M[t][j] != 0
            if not dirty:
                # pivot divides its row and column; enforce block divisibility
                bad = next((i for i in range(t + 1, m)
                            for j in range(t + 1, n) if M[i][j] % p), None)
                if bad is None:
                    break
                row_sub(t, bad, -1)  # pull the offending row up, redo
            pivot = min_pivot(t)
    return M


def snf(A):
    """Smith normal form U*A*V = D with U, V unimodular.

    Works for any integer matrix, including non-square and rank deficient
    ones; the diagonal of D is nonnegative and satisfies d_i | d_{i+1}.
    """
    m, n = A.rows, A.cols
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    Vt = [[int(i == j) for j in range(n)] for i in range(n)]
    D = _smith(A, U, Vt)
    return SmithDecomposition(Matrix.from_rows(U), Matrix.from_rows(D),
                              Matrix.from_rows(Vt).transpose())


def invariant_factors(A):
    """Nonzero diagonal entries of the Smith form, in divisibility order
    (the zero entries trail them).  The elimination records no transforms
    and builds no Matrix."""
    D = _smith(A, [[] for _ in range(A.rows)], [[] for _ in range(A.cols)])
    return tuple(D[i][i] for i in range(min(A.rows, A.cols)) if D[i][i])


def is_unimodular_map(A):
    """True iff the h x n integer matrix A has rank n and Z^h / A.Z^n is
    torsion free, i.e. all n invariant factors are 1.  For h < n the rank
    condition already fails, so the answer is False."""
    if A.rows < A.cols:
        return False
    facs = invariant_factors(A)
    return len(facs) == A.cols and all(d == 1 for d in facs)


# -- rational LDL^T ----------------------------------------------------------

class LDLT(NamedTuple):
    L: Matrix         # unit lower triangular
    D: tuple          # pivots, as Fractions
    definite: bool    # all pivots positive


def ldlt(G):
    """Exact LDL^T factorization of a symmetric rational matrix.

    Returns (L, D, definite) with G = L.diag(D).L^T and definite true iff
    all pivots are positive, which by Sylvester's criterion is equivalent to
    positive definiteness.  A zero pivot above nonzero column entries means
    no LDL^T exists; that raises SingularPivot (such G is never positive
    definite, a leading principal minor vanishes).
    """
    if not isinstance(G, Matrix) or not G.is_square or not G.is_symmetric():
        raise NotSymmetric("ldlt needs a symmetric matrix")
    n = G.rows
    S = G.to_lists()
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = []
    for k in range(n):
        p = S[k][k]
        if p == 0:
            if any(S[i][k] != 0 for i in range(k + 1, n)):
                raise SingularPivot("zero pivot with nonzero column at %d" % k)
            d.append(Fraction(0))
            continue
        d.append(p)
        for i in range(k + 1, n):
            f = S[i][k] / p
            L[i][k] = f
            if f:
                for j in range(k, n):
                    S[i][j] -= f * S[k][j]
    return LDLT(Matrix.from_rows(L), tuple(d), all(x > 0 for x in d))


def is_positive_definite(G):
    try:
        return ldlt(G).definite
    except SingularPivot:
        return False


def gram_norm(G, v):
    """v^T G v, exact."""
    return dot(v, G.matvec(v))


def integer_vector(v):
    """Cast an exactly integral rational vector to a tuple of ints."""
    v = to_vector(v)
    if not is_integer_vector(v):
        raise ValueError("vector is not integral: %r" % (v,))
    return tuple(int(x) for x in v)


def content(v):
    """gcd of an integer vector, 0 for the zero vector."""
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return g
