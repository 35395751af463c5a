"""Real tori with integral structure and tropical descent data.

Coordinate conventions, used consistently across the package:

  * points x of N_R are rational vectors in the dual basis e_1^v .. e_n^v
    of the integral structure N (written x-hat);
  * points of the period lattice M' are integer vectors in the basis
    f'_1 .. f'_n, and Pmat column j holds the e^v-coordinates of f'_j,
    so the point of u' with f'-coordinates w is Pmat.w;
  * points of M are integer vectors in the basis e_1 .. e_n, and the
    pairing of m in M with x in N_R is the dot product m . x-hat.

A descent datum is (lambda, gamma) with lambda: M' -> M linear and gamma
quasi-quadratic; in coordinates lambda is an integer matrix L with
lambda(f'_j) = sum_i L_ij e_i, and gamma is determined by the Gram matrix
G = L^T.Pmat together with a linear part ell via

    gamma(a) = (1/2) a^T G a - ell . a                 (a in f'-coordinates)

which satisfies the cocycle identity gamma(a+b) - gamma(a) - gamma(b) =
b^T G a exactly.  Symmetry of G encodes the symmetry of <lambda(.), .>,
and the datum is a polarization when G is positive definite.
"""

import functools
import itertools

from .errors import (
    NonIntegerLambda, NotPolarization, NotSymmetric, SingularEmbedding,
    SingularMatrix,
)
from .exactlinalg import inverse, is_positive_definite, snf, solve, to_vector


class TorusPresentation:
    """The torus N_R / M', presented by the period matrix Pmat."""

    __slots__ = ("n", "Pmat", "Pinv")

    def __init__(self, Pmat):
        if not Pmat.is_square:
            raise SingularEmbedding("period matrix must be square")
        try:
            Pinv = inverse(Pmat)
        except SingularMatrix:
            raise SingularEmbedding("period matrix is singular")
        object.__setattr__(self, "n", Pmat.rows)
        object.__setattr__(self, "Pmat", Pmat)
        object.__setattr__(self, "Pinv", Pinv)

    def __setattr__(self, name, value):
        raise AttributeError("TorusPresentation is immutable")

    def __repr__(self):
        return "TorusPresentation(%r)" % (self.Pmat,)


def build_torus(Pmat):
    return TorusPresentation(Pmat)


class TropicalDescentDatum:
    """A descent pair (lambda, gamma) on a presented torus, stored as
    (L, ellVec) with the Gram matrix G = L^T.Pmat derived and cached.

    `polarized` records whether G is positive definite; evaluation of
    theta functions requires it, the data model does not.  `LT` is L^T, and
    `memo` holds what depends on the datum alone: the values of the
    functions decorated with per_datum.
    """

    __slots__ = ("torus", "L", "LT", "ellVec", "G", "polarized", "memo")

    def __init__(self, torus, L, ellVec):
        if L.rows != torus.n or L.cols != torus.n:
            raise ValueError("lambda matrix has wrong shape")
        if not L.is_integral():
            raise NonIntegerLambda("lambda matrix must be integral")
        ellVec = to_vector(ellVec)
        if len(ellVec) != torus.n:
            raise ValueError("ell vector has wrong length")
        LT = L.transpose()
        G = LT * torus.Pmat
        if not G.is_symmetric():
            raise NotSymmetric("L^T.Pmat is not symmetric")
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "LT", LT)
        object.__setattr__(self, "ellVec", ellVec)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "polarized", is_positive_definite(G))
        object.__setattr__(self, "memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("TropicalDescentDatum is immutable")

    @property
    def n(self):
        return self.torus.n

    def __repr__(self):
        return "TropicalDescentDatum(L=%r, ell=%r)" % (self.L, self.ellVec)


def validate_datum(torus, L, ellVec):
    return TropicalDescentDatum(torus, L, ellVec)


def per_datum(fn):
    """fn(datum, *args), computed once per datum and arguments: the value
    is kept in datum.memo under fn and the (hashable) arguments."""
    @functools.wraps(fn)
    def memoized(datum, *args):
        key = (fn, *args)
        try:
            return datum.memo[key]
        except KeyError:
            value = datum.memo[key] = fn(datum, *args)
            return value
    return memoized


class PolarizationInfo:
    """Smith data of a polarization: the type (d_1 .. d_n), the unimodular
    transforms with U.L.V = diag(type) and U^-1, and a complete system of
    representatives of M / lambda(M') in e-coordinates."""

    __slots__ = ("type", "U", "V", "Uinv", "D", "reps")

    def __init__(self, type_, U, V, Uinv, reps):
        object.__setattr__(self, "type", tuple(int(d) for d in type_))
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "Uinv", Uinv)
        D = 1
        for d in self.type:
            D *= d
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "reps", tuple(tuple(int(c) for c in r)
                                               for r in reps))

    def __setattr__(self, name, value):
        raise AttributeError("PolarizationInfo is immutable")

    def __repr__(self):
        return "PolarizationInfo(type=%r, D=%d)" % (self.type, self.D)


@per_datum
def polarization_type(datum):
    """Type and representatives of a polarization.

    U.L.V = diag(d_1 .. d_n) gives lambda(M') = L.Z^n = U^-1.diag(d).Z^n,
    so multiplication by U identifies M / lambda(M') with Z^n / diag(d).Z^n
    and the box vectors 0 <= l_i < d_i pull back along U^-1 to a complete
    system of representatives.
    """
    if not datum.polarized:
        raise NotPolarization("datum is not a polarization")
    U, D, V = snf(datum.L)
    type_ = [int(D[i, i]) for i in range(datum.n)]
    Uinv = inverse(U)
    reps = [tuple(int(c) for c in Uinv.matvec(box))
            for box in itertools.product(*[range(d) for d in type_])]
    return PolarizationInfo(type_, U, V, Uinv, reps)


@per_datum
def ell_point(datum):
    """The unique r (f'-coordinates) with ell(.) = Q(., r): solves G.r = ell."""
    if not datum.polarized:
        raise NotPolarization("ell_point needs a polarization")
    return solve(datum.G, datum.ellVec)
