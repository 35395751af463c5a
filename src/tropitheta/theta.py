"""Exact evaluation of tropical theta functions.

For a polarized descent datum (see torus.py for coordinates) and b in M,
the theta function in the (lambda, gamma) convention is

    theta_b(x) = min_{a in Z^n} { (L.a + b).x + gamma(a) + b.(Pmat.a) }

Substituting gamma(a) = (1/2) a^T G a - ell.a turns the minimand into the
lattice quadratic

    (1/2) a^T G a + h.a + b.x,     h = L^T.x + Pmat^T.b - ell,

so evaluation is a closest-vector computation for the Gram matrix G.  The
alternative (Q, ell) convention adds the constant (1/2) Q(lb - r, lb - r)
with lb = lambda^-1(b) and r the ell point; with that shift theta_b depends
only on the class of b modulo lambda(M'), whereas the (lambda, gamma)
normalization depends on the chosen representative.

Every lattice minimization of the package is one exact Fincke-Pohst walk
over the LDL^T of G, scaled to integers and prepared once per Gram matrix
(a bounded cache keyed by the immutable Matrix value), with two leaf
policies: _nearest keeps the points of every class of Z^n mod d nearest a
rational center, and _ball every point under a fixed bound around the
origin, the lattice ball of the Voronoi cut lines.  Every decision is an
integer comparison, so ties are found exactly and no floating point is
involved.

lattice_argmin is the one-class call around -G^-1.h.  The theta map needs
all D = |det L| functions theta_b at a point.  With y = a + L^-1.b, and
since G.L^-1 = Pmat^T, the (Q, ell) minimand is

    (1/2) y^T G y + (L^T.x - ell).y + (1/2) r^T G r,     r = G^-1.ell,

over the coset y in L^-1.b + Z^n: half the squared G-distance from the
center G^-1.ell - Pmat^-1.x to the coset, plus a term that does not
depend on b.  So coset_argmins is one call per point, in coordinates
where the cosets are the classes mod the type.  It takes the datum alone:
the type and the walk's constants are derived from it once and kept in
its memo.

At its minimizer a, theta_b is affine: slope b + L.a and offset
(1/2) z^T G z with z = a + L^-1.b - r, kept as integers over one
denominator E of the datum (affine_piece).  The coset walk and the
pieces share one r and one L^-1, and the shift between the conventions
is the offset at a = 0.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple

from .errors import NotPolarization, SingularPivot
from .exactlinalg import dot, inverse, ldlt, to_vector, vec_add, vec_sub
from .torus import ell_point, per_datum, polarization_type

LAMBDA_GAMMA = "lambda_gamma"
Q_ELL = "q_ell"
INF = None  # +infinity: a surjective_lift target, the valuation of zero


class ArgminResult(NamedTuple):
    minimizers: tuple   # all integer minimizers, sorted
    value: Fraction     # the attained minimum
    tie: bool           # more than one minimizer


class CosetArgmins(NamedTuple):
    minimizers: tuple   # per class, its sorted nearest points
    norms: tuple        # per class, K times their squared distance
    K: int              # the common denominator of the norms


@lru_cache(maxsize=128)
def _prepared(G):
    """Integer-scaled data of the Gram matrix G, computed once per value
    of G: (n, m, k, cols, e, Ginv, g).  For the LDL^T factorization,
    cols[i] lists the pairs (j, m.L[j, i]) of the nonzero entries below the
    diagonal in column i, and e = k.D are the pivots; Ginv = g.G^-1, row by
    row.  Raises NotPolarization unless G is positive definite."""
    try:
        fac = ldlt(G)
    except SingularPivot:
        raise NotPolarization("G is not positive definite")
    if not fac.definite:
        raise NotPolarization("G is not positive definite")
    n = G.rows
    below = [[(j, fac.L[j, i]) for j in range(i + 1, n) if fac.L[j, i]]
             for i in range(n)]
    m = lcm(*(x.denominator for col in below for _, x in col))
    k = lcm(*(d.denominator for d in fac.D))
    Ginv = inverse(G).entries
    g = lcm(*(x.denominator for x in Ginv))
    return (n, m, k,
            tuple(tuple((j, int(x * m)) for j, x in col) for col in below),
            tuple(int(d * k) for d in fac.D),
            tuple(tuple(int(x * g) for x in Ginv[i * n:(i + 1) * n])
                  for i in range(n)),
            g)


def lattice_argmin(G, h):
    """All integer minimizers of (1/2) a^T G a + h.a for positive definite G.

    They are the integer points nearest ahat = -G^-1.h = p/q (one product
    with the prepared G^-1): the one-class call of _nearest around ahat.
    With B/K their squared G-distance from ahat, the value there is
    (B/K + h.ahat)/2.
    """
    n, _, _, _, _, Ginv, g = _prepared(G)
    h = to_vector(h)
    if len(h) != n:
        raise ValueError("length mismatch")
    if n == 0:
        return ArgminResult(((),), Fraction(0), False)
    hn, hd = _center(h)
    p = [-sum(map(mul, row, hn)) for row in Ginv]
    q = g * hd
    (found,), (best,), K = _nearest(G, p, q)
    value = Fraction(best * hd * q + sum(map(mul, hn, p)) * K, 2 * K * hd * q)
    return ArgminResult(tuple(found), value, len(found) > 1)


def _center(c):
    # the rational vector c as integers p over one common denominator q
    q = lcm(*(x.denominator for x in c))
    return [x.numerator * (q // x.denominator) for x in c], q


def _homogeneous(x):
    # the rational point x as (X_1, .., X_n, W): W > 0 and gcd 1
    p, q = _center(to_vector(x))
    return (*p, q)


def _nearest(G, p, q, d=None):
    """The points of every class of Z^n mod d nearest the center p/q.

    G is positive definite, p and q > 0 are integers, and d holds the
    moduli (None: the one class Z^n).  Returns (found, norms, K), the shape
    of CosetArgmins, per class in box order (box, 0 <= box < d, in the
    order of itertools.product): the sorted points of the class nearest
    p/q in the G-norm, and K times their squared distance.

    With p/q reduced to lowest terms and L = Lam/m, D = e/k the LDL^T of G,

        (a - p/q)^T G (a - p/q) = sum_i e_i W_i^2 / K,   K = k q^2 m^2,

    where W_i = q m a_i - C_i and C_i = m p_i - sum_{j>i} Lam_ji u_j with
    u_j = q a_j - p_j are integers.  _walk runs the levels from i = n-1
    down to 0 against a bound B in units of 1/K; with
    r = isqrt((B - partial) // e_i), level i admits exactly the a_i with
    |W_i| <= r, the closed-form range

        -((r - C_i) // (q m)) <= a_i <= (C_i + r) // (q m),

    so all decisions are integer comparisons.  Each class starts at its
    componentwise rounding (a_i = box_i mod d_i nearest p_i/q), B is the
    largest best norm of any class, and pruning is non-strict, so every
    tie survives.
    """
    n, m, k, cols, e, _, _ = _prepared(G)
    g = gcd(q, *p)
    p = [pi // g for pi in p]
    q //= g
    # u = q.a - p at the start of every class; the norm of a start never
    # exceeds the bound, so the walk re-finds it and no class stays empty
    if d is None:
        starts = [tuple([q * ((2 * pi + q) // (2 * q)) - pi for pi in p])]
    else:
        starts = itertools.product(*[
            [q * (b + di * ((2 * (pi - q * b) + q * di) // (2 * q * di))) - pi
             for b in range(di)] for pi, di in zip(p, d)])
    best = []
    for u in starts:
        norm = 0
        for i in range(n):
            w = m * u[i]
            for j, lji in cols[i]:
                w += lji * u[j]
            norm += e[i] * w * w
        best.append(norm)
    found = [[] for _ in best]
    bound = max(best)
    many = len(best) > 1

    def keep(a, norm):
        nonlocal bound
        c = 0
        if many:
            for ai, di in zip(a, d):
                c = c * di + ai % di
        old = best[c]
        if norm > old:
            return bound
        if norm < old:
            best[c] = norm
            found[c].clear()
            if old == bound:
                bound = max(best)
        found[c].append(a)
        return bound
    _walk(cols, e, m, p, q, bound, keep)
    for points in found:
        points.sort()
    return found, best, k * (q * m) ** 2


def _walk(cols, e, m, p, q, bound, leaf):
    # The Fincke-Pohst walk over every integer a with
    # sum_i e_i W_i^2 <= bound around the center p/q (see _nearest).  At
    # each such a, in lexicographic order from the last coordinate,
    # leaf(a, norm) returns the bound for the rest of the walk.
    n = len(e)
    qm = q * m
    a = [0] * n
    u = [0] * n

    def descend(i, partial):
        nonlocal bound
        c = m * p[i]
        for j, lji in cols[i]:
            c -= lji * u[j]
        ei = e[i]
        r = isqrt((bound - partial) // ei)
        for ai in range(-((r - c) // qm), (c + r) // qm + 1):
            w = qm * ai - c
            npart = partial + ei * w * w
            if npart > bound:
                if w > 0:
                    break
                continue
            a[i] = ai
            if i:
                u[i] = q * ai - p[i]
                descend(i - 1, npart)
            else:
                bound = leaf(tuple(a), npart)

    descend(n - 1, 0)


def _ball(G, bound):
    # the integer v with v^T G v <= bound for positive definite G: the walk
    # around the origin (p = 0, q = 1, so K = k m^2) under a fixed bound
    n, m, k, cols, e, _, _ = _prepared(G)
    limit = floor(Fraction(bound) * k * m * m)
    out = []

    def keep(v, norm):
        out.append(v)
        return limit
    if limit >= 0:
        _walk(cols, e, m, [0] * n, 1, limit, keep)
    return out


@per_datum
def _lambda_inverse(datum):
    return inverse(datum.L)


@per_datum
def _coset_data(datum):
    # Constants of the coset walk: with U.L.V = diag(d) from the
    # polarization type, G'' = U^-T.Pmat.L^-1.U^-1, d, the rows of V, and
    # the center t*(x) = (c0 - C.x)/den with C = den.U.L.Pmat^-1 and
    # c0 = den.U.L.r integral, r = G^-1.ell the ell point.
    info = polarization_type(datum)
    U, V, Uinv = info.U, info.V, info.Uinv
    G2 = Uinv.transpose() * datum.torus.Pmat * _lambda_inverse(datum) * Uinv
    UL = U * datum.L
    n = datum.n
    ints, den = _center((UL * datum.torus.Pinv).entries
                        + UL.matvec(ell_point(datum)))
    return (G2, info.type,
            tuple(tuple(int(V[i, j]) for j in range(n)) for i in range(n)),
            tuple(tuple(ints[i:i + n]) for i in range(0, n * n, n)),
            tuple(ints[n * n:]), den)


def coset_argmins(datum, x):
    """The minimizers of every theta_b at x, and phi~ there, from one
    call of _nearest: per representative, in the order of the reps of
    polarization_type(datum), so phi~ = (norms[k] - norms[0]) / (2 K).

    In t = U.(L.a + b), with U.L.V = diag(d) from the type, the cosets are the
    classes mod d (reps[k] = U^-1.box_k), the Gram matrix
    G'' = U^-T.Pmat.L^-1.U^-1 is congruent to G, the center is
    t*(x) = U.L.(G^-1.ell - Pmat^-1.x), and a = V.((t - box)/d).
    """
    return _coset_argmins(datum, _homogeneous(x))


def _coset_argmins(datum, v):
    # coset_argmins at the point v = (X_1, .., X_n, W), that is X / W, W > 0
    G2, d, V, C, c0, den = _coset_data(datum)
    if len(v) != len(d) + 1:
        raise ValueError("length mismatch")
    *xn, xd = v
    p = [ci * xd - sum(map(mul, row, xn)) for row, ci in zip(C, c0)]
    found, norms, K = _nearest(G2, p, den * xd, d)
    # 0 <= box < d, so (t - box)/d is the floor quotient t // d
    minimizers = []
    for ts in found:
        mins = []
        for t in ts:
            s = [ti // di for ti, di in zip(t, d)]
            mins.append(tuple([sum(map(mul, row, s)) for row in V]))
        mins.sort()
        minimizers.append(tuple(mins))
    return CosetArgmins(tuple(minimizers), tuple(norms), K)


class ThetaFunction:
    """theta_b for a fixed representative b (e-coordinates) and convention.

    In the (lambda, gamma) convention the function depends on the chosen
    representative b, not only on its class mod lambda(M'); the (Q, ell)
    convention shifts by a constant that makes it class-invariant.
    """

    __slots__ = ("datum", "b", "convention")

    def __init__(self, datum, b, convention=LAMBDA_GAMMA):
        if not datum.polarized:
            raise NotPolarization("theta needs a polarized datum")
        if convention not in (LAMBDA_GAMMA, Q_ELL):
            raise ValueError("unknown convention %r" % (convention,))
        b = tuple(int(c) for c in b)
        if len(b) != datum.n:
            raise ValueError("b has wrong length")
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "convention", convention)

    def __setattr__(self, name, value):
        raise AttributeError("ThetaFunction is immutable")

    def __repr__(self):
        return "ThetaFunction(b=%r, %s)" % (self.b, self.convention)


def affine_piece(datum, b, a):
    """(slope, offset) of theta_b, in the class-invariant convention, where
    a is its minimizer: theta_b(x) = (b + L.a).x + (1/2) a^T G a
    + (Pmat^T.b - ell).a + q_ell(b), the slope b + L.a a tuple of ints."""
    slope, offset = _piece(datum, b, a)
    return slope, Fraction(offset, _offsets(datum)[0])


@per_datum
def _offsets(datum):
    # As G = Pmat^T.L, theta_b's offset at a is (1/2) z^T G z with
    # z = a + L^-1.b - r, r = G^-1.ell; with a delta that clears z for
    # every b and G = Gn/g, that is (delta z)^T Gn (delta z) / E over
    # E = 2 g delta^2.  Returns (E, delta, Gn, L, delta L^-1, delta r)
    r, Linv = ell_point(datum), _lambda_inverse(datum)
    delta = lcm(*(x.denominator for x in Linv.entries + r))
    g = lcm(*(x.denominator for x in datum.G.entries))
    return (2 * g * delta * delta, delta,
            [[int(g * c) for c in row] for row in datum.G.to_lists()],
            [[int(c) for c in row] for row in datum.L.to_lists()],
            [[int(delta * c) for c in row] for row in Linv.to_lists()],
            [int(delta * c) for c in r])


@per_datum
def _piece(datum, b, a):
    # theta_b's affine piece at the minimizer a in integers: the slope
    # b + L.a and E times the offset
    _, delta, Gn, L, Li, dr = _offsets(datum)
    z = [delta * x + sum(map(mul, r, b)) - c for x, r, c in zip(a, Li, dr)]
    return (tuple(bi + sum(map(mul, row, a)) for bi, row in zip(b, L)),
            sum(zi * sum(map(mul, row, z)) for zi, row in zip(z, Gn)))


@per_datum
def q_ell_constant(datum, b):
    """(1/2) Q(lambda^-1(b) - r, lambda^-1(b) - r), the shift between the
    two conventions: the offset of theta_b's affine piece at a = 0."""
    return affine_piece(datum, b, (0,) * datum.n)[1]


@per_datum
def _h_constant(datum, b):
    # Pmat^T.b - ell, the part of h that depends on the representative b
    # but not on x
    return vec_sub(datum.torus.Pmat.transpose().matvec(b), datum.ellVec)


def theta_h_vector(datum, b, x):
    """The linear part h = L^T.x + Pmat^T.b - ell of the minimand."""
    return vec_add(datum.LT.matvec(x), _h_constant(datum, b))


def theta_argmin(theta, x):
    """ArgminResult of the defining minimization of theta at x (the
    minimizing lattice coordinates a, shared by both conventions)."""
    return lattice_argmin(theta.datum.G, theta_h_vector(theta.datum, theta.b, x))


def theta_eval(theta, x):
    """Exact value of theta at x (e^v-coordinates)."""
    x = to_vector(x)
    res = theta_argmin(theta, x)
    value = res.value + dot([Fraction(int(c)) for c in theta.b], x)
    if theta.convention == Q_ELL:
        value += q_ell_constant(theta.datum, theta.b)
    return value
