"""Exact integer and rational linear algebra.

Everything in this module is exact: entries are `fractions.Fraction` (plain
ints are accepted and widened), no floating point is used anywhere, and all
comparisons are decidable.  The operations provided are the ones the rest of
the package needs.  One rational Gaussian elimination serves determinants,
solves, inverses (one elimination beside the identity) and the LDL^T
factorization that doubles as the positive-definiteness test.  The integer
Smith elimination gives the Smith normal form with recorded unimodular
row/column transforms.  Unimodularity needs no Smith form: it is a gcd
of 1 of the maximal minors (Newman, 1972).
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod
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

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

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

def _eliminate(M, extra=None):
    """Gaussian elimination of the square matrix M beside the n rows of
    right-hand columns in extra.  Rows are swapped only at a zero pivot,
    and a column that is zero from the diagonal down keeps the pivot 0.
    Returns (a, swaps): the reduced rows, holding each multiplier in place
    of the entry it eliminated, and the columns where rows were swapped."""
    if not M.is_square:
        raise ValueError("elimination needs a square matrix")
    n = M.rows
    a = [list(M.row(i)) + (list(extra[i]) if extra else []) for i in range(n)]
    swaps = []
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if i is None:
                continue
            a[k], a[i] = a[i], a[k]
            swaps.append(k)
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                a[i][k] = f
                for j in range(k + 1, len(a[i])):
                    a[i][j] -= f * a[k][j]
    return a, swaps


def _back_substitute(a):
    # the solution X of U X = C, row by row, for the upper triangle U of an
    # elimination and its right-hand columns C
    n = len(a)
    if any(a[k][k] == 0 for k in range(n)):
        raise SingularMatrix("matrix is singular")
    X = [None] * n
    for i in range(n - 1, -1, -1):
        X[i] = [(a[i][c] - sum((a[i][j] * X[j][c - n]
                                for j in range(i + 1, n)), Fraction(0)))
                / a[i][i] for c in range(n, len(a[i]))]
    return X


def det(M):
    a, swaps = _eliminate(M)
    return prod((a[k][k] for k in range(M.rows)),
                start=Fraction((-1) ** len(swaps)))


def solve(M, v):
    """Solve M x = v exactly; raises SingularMatrix if M is not invertible."""
    v = to_vector(v)
    if len(v) != M.rows:
        raise ValueError("length mismatch")
    a, _ = _eliminate(M, [[x] for x in v])
    return tuple(x for x, in _back_substitute(a))


def inverse(M):
    """M^-1 from one elimination of M beside the identity."""
    a, _ = _eliminate(M, Matrix.identity(M.rows).to_lists())
    return Matrix(M.rows, M.rows, [x for row in _back_substitute(a)
                                   for x in row])


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


def is_unimodular_rows(rows, n):
    """True iff the h x n integer matrix A of these rows has rank n and
    Z^h / A.Z^n is torsion free, i.e. all n invariant factors are 1: their
    product is the gcd of the n x n minors, so stop at a gcd of 1."""
    g = 0
    return any((g := gcd(g, _int_det(m))) == 1 for m in combinations(rows, n))


def _int_det(rows):
    # Laplace expansion along the first row: n! terms, for the small n here
    return sum((-1) ** j * c * _int_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, c in enumerate(rows[0]) if c) if rows else 1


# -- rational LDL^T ----------------------------------------------------------

class LDLT(NamedTuple):
    L: Matrix         # unit lower triangular
    D: tuple          # pivots, as Fractions
    definite: bool    # all pivots positive


def ldlt(G):
    """Exact LDL^T factorization of a symmetric rational matrix.

    Returns (L, D, definite) with G = L.diag(D).L^T and definite true iff
    all pivots are positive, which by Sylvester's criterion is equivalent to
    positive definiteness.  L and D are the multipliers and pivots of the
    one elimination.  A zero pivot above nonzero column entries, where the
    elimination swaps rows, means no LDL^T exists; that raises
    SingularPivot (such G is never positive definite, a leading principal
    minor vanishes).
    """
    if not isinstance(G, Matrix) or not G.is_symmetric():
        raise NotSymmetric("ldlt needs a symmetric matrix")
    a, swaps = _eliminate(G)
    if swaps:
        raise SingularPivot("zero pivot with nonzero column at %d" % swaps[0])
    n = G.rows
    L = Matrix(n, n, [a[i][j] if j < i else int(i == j)
                      for i in range(n) for j in range(n)])
    d = tuple(a[k][k] for k in range(n))
    return LDLT(L, d, all(x > 0 for x in d))


def is_positive_definite(G):
    try:
        return ldlt(G).definite
    except SingularPivot:
        return False


def integer_vector(v):
    """Cast an exactly integral rational vector to a tuple of ints."""
    v = to_vector(v)
    if not is_integer_vector(v):
        raise ValueError("vector is not integral: %r" % (v,))
    return tuple(int(x) for x in v)


def content(v):
    """gcd of an integer vector, 0 for the zero vector."""
    return gcd(*(int(x) for x in v))
