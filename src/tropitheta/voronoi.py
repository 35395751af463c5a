"""Exact Voronoi geometry for a lattice with a rational Gram matrix.

Everything happens in lattice coordinates: the lattice is Z^n and the
inner product of u and v is u^T G v for a symmetric positive definite
rational G, so relevant vectors, cell membership, closest points and
polyhedral decompositions are all decided by rational comparisons.

The decomposition machinery refines the Voronoi cell until every
full-dimensional piece can be translated back into the cell by each
member of a whole basis of a d-scaled sublattice.  Those bases feed the
per-piece certificates: the basis turns into integer shift vectors whose
shared-argmin property is verified exactly, and whose rows assemble into a
unimodular matrix.  Every minimization asks theta's walk for the lattice
points of each class mod d nearest a rational center: one walk mod 2 for
the relevant vectors and for the half periods, one class otherwise.  Each
containment is decided in integers, over integer-homogeneous vertices.

The module owns the package's one convex-polytope kernel, for intervals
and polygons alike: a one-pass split along a line (a point, for n = 1) and
one hull order.  Every cell is built with it, the pieces of the Voronoi
cell here and the linearity cells of the theta map in embedding.  It is
integer-homogeneous: a point is (X_1, .., X_n, W), the rational point X / W
with W > 0 and gcd 1, so equal points are equal tuples, and a line is an
integer pair (a, c), the points with a.X = c.W.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import (
    CertificateFailed, DimensionUnsupported, InternalInvariantViolated,
    NotPolarization, PreconditionViolated,
)
from .exactlinalg import (
    Matrix, _int_det, det, dot, integer_vector, inverse, is_unimodular_rows,
    snf, solve, to_vector, vec_add, vec_scale,
)
from .theta import _ball, _center, _homogeneous, _nearest
from .torus import per_datum, polarization_type

MOD2_CLASS_BUDGET = 2 ** 12  # n = 12: a 9 s walk on one Xeon core, 4x per n


def relevant_vectors(G):
    """The Voronoi-relevant vectors of Z^n under the Gram Matrix G, sorted.

    v is relevant exactly when +-v are the only minimal-norm vectors of
    the coset v + 2Z^n (Voronoi's criterion), so one walk finds the
    shortest vectors of every class mod 2, and each nonzero class
    contributes its pair precisely when its minimum is a two-way tie.
    Raises NotPolarization unless G is symmetric (checked here) and
    positive definite (by the walk), PreconditionViolated past the budget.
    """
    if not G.is_symmetric():
        raise NotPolarization("Gram matrix must be symmetric")
    if 2 ** G.rows > MOD2_CLASS_BUDGET:
        raise PreconditionViolated("2^%d classes mod 2 exceed the budget of "
                                   "%d" % (G.rows, MOD2_CLASS_BUDGET))
    out = []
    classes, _, _ = _nearest(G, [0] * G.rows, 1, (2,) * G.rows)
    for vs in classes[1:]:
        if len(vs) == 2:
            if vs[0] != tuple(-c for c in vs[1]):
                raise InternalInvariantViolated("coset minima not a +- pair")
            out.extend(vs)
    return sorted(out)


class VoronoiCell:
    """H-representation of the Voronoi cell of Z^n around the origin.

    The cell is { x : (G v) . x <= v^T G v / 2 for every relevant v };
    halfspaces stores the pairs (a, c) = (G v, v . a / 2) in the order of
    the sorted relevant vectors.
    """

    __slots__ = ("G", "relevant", "halfspaces")

    def __init__(self, G):
        rel = tuple(relevant_vectors(G))
        hs = []
        for v in rel:
            a = G.matvec(v)
            hs.append((a, dot(v, a) / 2))
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "relevant", rel)
        object.__setattr__(self, "halfspaces", tuple(hs))

    def __setattr__(self, name, value):
        raise AttributeError("VoronoiCell is immutable")

    def contains(self, x):
        x = to_vector(x)
        return all(dot(a, x) <= c for a, c in self.halfspaces)

    def __repr__(self):
        return "VoronoiCell(n=%d, facets=%d)" % (self.G.rows,
                                                 len(self.relevant))


def _half_periods(cell, x):
    # n independent half-lattice vectors q with q + x in the cell, for x in
    # the cell: per class t in {0, 1/2}^n the candidate x + t reduced into
    # the cell, minus x, is -z/2 for the point z of the class 2t mod 2
    # nearest 2x, so one walk mod 2 gives them all; the classes come in the
    # order of product((0, 1/2)), the least z gives the least nearest point
    # (z + 2t)/2, and a greedy scan keeps each z that makes a maximal minor
    # of the chosen ones nonzero
    n = cell.G.rows
    chosen = []
    classes, _, _ = _nearest(cell.G, *_center([2 * c for c in x]), (2,) * n)
    for zs in classes:
        rows = chosen + [zs[0]]
        if any(_int_det([[r[j] for j in cols] for r in rows])
               for cols in combinations(range(n), len(rows))):
            chosen = rows
            if len(chosen) == n:
                return [tuple(Fraction(-c, 2) for c in z) for z in chosen]
    raise InternalInvariantViolated("no independent half-period system")


def basis_in_simplex(qs, r):
    """A basis of (1/r) Z^n inside the simplex spanned by 0 and q_1 .. q_n.

    Recursive construction: the first n-1 vectors are treated inside the
    saturation of their span, the recursive basis is extended by a
    completion vector, the coefficients of q_n in the extended basis are
    normalized into (0, w_n] by an integer shear, and the averaged vectors
    q^(j)/(n-1) together with (sum_j (1-h_j) q^(j) + q^(n))/(n-1) stay in
    the simplex while remaining a basis.  A final scaling by (n-1)!/r <= 1
    moves the result into the requested lattice.
    """
    qs = [integer_vector(q) for q in qs]
    n = len(qs)
    if n == 0 or any(len(q) != n for q in qs):
        raise PreconditionViolated("need n integer vectors of length n")
    cols = Matrix.from_rows([[q[i] for q in qs] for i in range(n)])
    if det(cols) == 0:
        raise PreconditionViolated("input vectors are dependent")
    r = Fraction(r)
    if r < factorial(n - 1):
        raise PreconditionViolated("scale must be at least (n-1)!")
    scale = Fraction(factorial(n - 1)) / r
    return [tuple(scale * c for c in p) for p in _simplex_basis(qs)]


def _simplex_basis(qs):
    # basis of (1/(n-1)!) Z^n inside the simplex of 0 and the q's
    n = len(qs)
    if n == 1:
        return [(Fraction(1 if qs[0][0] > 0 else -1),)]
    span = Matrix.from_rows([[q[i] for q in qs[:-1]] for i in range(n)])
    U, _, _ = snf(span)
    Uinv = inverse(U)
    sat = [tuple(Uinv[i, j] for i in range(n)) for j in range(n - 1)]
    comp = tuple(Uinv[i, n - 1] for i in range(n))
    coords = []
    for q in qs[:-1]:
        full = U.matvec(q)
        if full[n - 1] != 0:
            raise InternalInvariantViolated("saturation misses an input")
        coords.append(tuple(int(c) for c in full[:n - 1]))
    sub = _simplex_basis(coords)
    lifted = [tuple(sum(p[i] * sat[i][k] for i in range(n - 1))
                    for k in range(n)) for p in sub]
    last = tuple(Fraction(c, factorial(n - 2)) for c in comp)
    ext = Matrix.from_rows([[lifted[j][k] for j in range(n - 1)] + [last[k]]
                            for k in range(n)])
    w = [int(c) for c in integer_vector(solve(ext, qs[-1]))]
    if w[-1] == 0:
        raise InternalInvariantViolated("last input lies in the hyperplane")
    if w[-1] < 0:
        last = tuple(-c for c in last)
        w[-1] = -w[-1]
    wn = w[-1]
    shears = [((w[j] - 1) % wn + 1 - w[j]) // wn for j in range(n - 1)]
    out = [tuple(c / (n - 1) for c in q) for q in lifted]
    tail = list(last)
    for j in range(n - 1):
        tail = vec_add(tail, vec_scale(1 - shears[j], lifted[j]))
    out.append(tuple(c / (n - 1) for c in tail))
    return out


# -- convex polytopes: intervals [lo, hi], counterclockwise polygons --------


def _rational(p):
    return tuple(Fraction(c, p[-1]) for c in p[:-1])


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points):
    # convex hull: the two end points of 1-D points; in the plane Andrew's
    # monotone chain, counterclockwise from the least point in lexicographic
    # order, collinear points dropped; in integers over the lcm of the W
    pts = set(points)
    m = lcm(*(p[-1] for p in pts))
    pts = sorted((tuple(c * (m // p[-1]) for c in p[:-1]), p) for p in pts)
    if len(pts) <= 2 or len(pts[0][0]) == 1:
        return [p for _, p in pts[:1] + pts[1:][-1:]]

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2][0], out[-1][0], p[0]) <= 0:
                out.pop()
            out.append(p)
        return out
    return [p for _, p in chain(pts)[:-1] + chain(reversed(pts))[:-1]]


def _split_polygon(poly, a, c):
    # The parts [low, high] of a convex polygon or an interval on the sides
    # a.X <= c.W and a.X >= c.W, or [poly] when one side has no interior,
    # in one walk over the signs s = a.X - c.W: s <= 0 puts a vertex in the
    # low part, s >= 0 in the high part, and a strict sign change along an
    # edge puts the crossing point in both.  The walk is cyclic; the upper
    # end of an interval is its own successor.  The input being
    # nondegenerate, a part is full-dimensional exactly when some vertex
    # lies strictly on its side.
    s = [sum(map(mul, a, p)) - c * p[-1] for p in poly]
    if min(s) >= 0 or max(s) <= 0:
        return [poly]
    low, high = [], []
    e = 1 if len(poly) == 2 else 0
    for p, q, sp, sq in zip(poly, poly[1:] + [poly[e]], s, s[1:] + [s[e]]):
        if sp <= 0:
            low.append(p)
        if sp >= 0:
            high.append(p)
        if sp < 0 < sq or sq < 0 < sp:
            # s_p.Q - s_q.P is on the line; one gcd makes it canonical
            x = [sp * qi - sq * pi for pi, qi in zip(p, q)]
            g = gcd(*x) if x[-1] > 0 else -gcd(*x)
            x = tuple(xi // g for xi in x)
            low.append(x)
            high.append(x)
    return [low, high]


def _cell_polytope(cell):
    hs = cell.halfspaces
    n = cell.G.rows
    if n == 1:
        hi = min(c / a[0] for a, c in hs if a[0] > 0)
        lo = max(c / a[0] for a, c in hs if a[0] < 0)
        return [(lo,), (hi,)]
    if n != 2:
        raise DimensionUnsupported("cell vertices implemented for n <= 2")
    pts = set()
    for (a1, c1), (a2, c2) in combinations(hs, 2):
        dt = a1[0] * a2[1] - a1[1] * a2[0]
        if dt == 0:
            continue
        x = ((c1 * a2[1] - c2 * a1[1]) / dt, (a1[0] * c2 - a2[0] * c1) / dt)
        if cell.contains(x):
            pts.add(x)
    # counterclockwise from the first vertex at or past the centroid's +x ray
    hull = _hull(map(_homogeneous, pts))
    cx, cy = _rational(_mean(hull))
    hull = [_rational(p) for p in hull]
    below = [y < cy or (y == cy and x < cx) for x, y in hull]
    k = next(i for i in range(len(hull)) if below[i - 1] and not below[i])
    return hull[k:] + hull[:k]


def _cut_lines(cell):
    # The cell is cut by the facet lines of every lattice translate p + cell
    # that can meet a half-lattice translate s + cell, s in (1/2) Z^n.  They
    # meet only when (p - s)^T G (p - s) <= B, with B = n tr G bounding the
    # squared diameter, and relative to s + cell each such facet line is a
    # facet line of the cell moved by t = p - s.  Those shifts t are exactly
    # the t in (1/2) Z^n with t^T G t <= B: every p - s is one, and every
    # such t arises from s = -t, p = 0.  So one enumeration of the integer
    # vectors 2t with (2t)^T G (2t) <= 4B, the Fincke-Pohst walk of theta
    # over the ball of G around the origin, gives every cut line: for a
    # facet A.x = C in integers, 2A.x = 2C + 2t.A over one signed gcd.
    G = cell.G
    n = G.rows
    bound = n * sum(G[i, i] for i in range(n))  # diam(cell)^2 <= n tr G
    hs = [(A, C, 1 if next(x for x in A if x) > 0 else -1, 2 * gcd(*A))
          for a, c in cell.halfspaces for *A, C, _ in [_homogeneous((*a, c))]]
    lines = set()
    for s2 in _ball(G, 4 * bound):
        for A, C, s, gA in hs:
            c = 2 * C + sum(map(mul, s2, A))
            g = s * gcd(gA, c)
            lines.add((tuple(2 * x // g for x in A), c // g))
    return lines


def _split_cell(cell):
    # refine the cell along its integer cut lines in sorted order, each piece
    # split in place (a 1-D line has a > 0: intervals stay left to right)
    polys = [[_homogeneous(v) for v in _cell_polytope(cell)]]
    for a, c in sorted(_cut_lines(cell)):
        polys = [part for p in polys for part in _split_polygon(p, a, c)]
    return polys


def _mean(pts):
    # the barycenter of integer-homogeneous points, over k lcm(W) (unreduced)
    m = lcm(*(p[-1] for p in pts))
    return (*(sum(p[i] * (m // p[-1]) for p in pts)
              for i in range(len(pts[0]) - 1)), len(pts) * m)


class Piece(NamedTuple):
    vertices: tuple       # polytope vertices, lattice coordinates
    half_periods: tuple   # independent half-lattice shifts staying in the cell
    basis: tuple          # basis of the d-scaled lattice, basis[j] + piece in the cell


class GoodDecomposition(NamedTuple):
    cell: VoronoiCell
    pieces: tuple


def good_decomposition(G, d):
    """Refine the Voronoi cell so each piece carries a d-scaled basis.

    d must be a divisibility chain d_1 | d_2 | ... with d_1 >= 2 (n-1)!.
    Each full-dimensional piece sigma of the returned decomposition comes
    with a basis of the lattice Z p_1/d_1 + ... + Z p_n/d_n (coordinates
    with respect to p_i, so entries in (1/d_i) Z) whose members translate
    sigma back into the cell, each containment decided in integers through
    the halfspaces at the piece's vertices.  Only n <= 2 is implemented.
    """
    n = G.rows
    if n > 2:
        raise DimensionUnsupported("decompositions implemented for n <= 2")
    d = [int(x) for x in d]
    if len(d) != n or any(x <= 0 for x in d):
        raise PreconditionViolated("type must be %d positive integers" % n)
    if any(d[i + 1] % d[i] for i in range(n - 1)):
        raise PreconditionViolated("type must be a divisibility chain")
    if d[0] < 2 * factorial(n - 1):
        raise PreconditionViolated("d_1 must be at least 2 (n-1)!")
    cell = VoronoiCell(G)
    hs = [_homogeneous((*a, c))[:-1] for a, c in cell.halfspaces]
    delta = [x // d[0] for x in d]
    pieces, bases = [], {}
    for poly in _split_cell(cell):
        # q + X/W lies in the cell for every vertex X/W exactly when
        # m A.q <= m C - max m A.X/W in every A.x <= C, m the lcm of the W
        m = lcm(*(p[-1] for p in poly))
        room = [(A, m * C - max(sum(map(mul, A, p)) * (m // p[-1])
                                for p in poly)) for *A, C in hs]
        qs = tuple(_half_periods(cell, _rational(_mean(poly))))
        if not all(_fits(room, m, q) for q in qs):
            raise InternalInvariantViolated("half period escapes the cell")
        if qs not in bases:
            coords = [tuple(2 * delta[i] * q[i] for i in range(n)) for q in qs]
            scaled = basis_in_simplex(coords, Fraction(d[0], 2))
            bases[qs] = tuple(tuple(p[i] / (2 * delta[i]) for i in range(n))
                              for p in scaled)
        if not all(_fits(room, m, p) for p in bases[qs]):
            raise InternalInvariantViolated("basis vector escapes the cell")
        pieces.append(Piece(tuple(map(_rational, poly)), qs, bases[qs]))
    return GoodDecomposition(cell, tuple(pieces))


def _fits(room, m, q):
    # q = Q/w translates the piece into the cell: m A.Q <= R w in every room
    *Q, w = _homogeneous(q)
    return all(m * sum(map(mul, A, Q)) <= R * w for A, R in room)


class CellCertificate(NamedTuple):
    ells: tuple    # integer shift vectors, the zero vector first
    atilde: tuple  # shared lattice argmin over the translated piece


@per_datum
def adapted_gram(datum):
    """Gram matrix of the polarization in the basis adapted to the
    invariant factors: V^T G V for the Smith transform V of its type."""
    V = polarization_type(datum).V
    return V.transpose() * datum.G * V


def cell_certificate(datum, piece, translate, atilde=None):
    """Certify the shared-argmin data of one decomposition piece.

    The piece's basis vectors p^(j) turn into integer shifts l^(j) with
    p^(j)_i = l^(j)_i / d_i (and l^(0) = 0); the candidate common argmin
    is atilde = -translate.  atilde must minimize
    (1/2) (a + l^(j)/d + y)^T G (a + l^(j)/d + y) over integer a at every
    vertex of the translated piece for every j.  The minimizer region of a
    fixed atilde is an intersection of halfspaces linear in y, so the
    vertex checks certify the whole piece.  The rows l^(1) .. l^(n) must
    form a unimodular matrix.  Raises CertificateFailed otherwise, naming
    the violating shift and point.
    """
    Ga = adapted_gram(datum)
    n = Ga.rows
    d = polarization_type(datum).type
    translate = integer_vector(translate)
    ells = [tuple([0] * n)]
    for p in piece.basis:
        try:
            ells.append(integer_vector([d[i] * p[i] for i in range(n)]))
        except ValueError:
            raise PreconditionViolated("piece basis is not adapted to the type")
    if atilde is None:
        atilde = tuple(-c for c in translate)
    else:
        atilde = integer_vector(atilde)
    samples = [_homogeneous(v) for v in piece.vertices]
    samples.append(_mean(samples))
    m = lcm(*d)
    for j, ell in enumerate(ells):
        for *X, W in samples:
            # the minimizers are the lattice points nearest
            # -(translate + X/W + l/d), over the denominator m W
            (points,), _, _ = _nearest(Ga, [
                -(t * W + x) * m - e * (m // di) * W
                for t, x, e, di in zip(translate, X, ell, d)], m * W)
            if atilde not in points:
                raise CertificateFailed("shared argmin fails for shift %d at "
                                        "%s" % (j, _rational((*X, W))))
    if not is_unimodular_rows(ells[1:], n):
        raise CertificateFailed("certificate rows are not unimodular")
    return CellCertificate(tuple(ells), atilde)


def certified_cells(datum, translates=None):
    """Full pipeline: polarization type, adapted Gram matrix, good
    decomposition, one certificate per piece and translate.  Returns
    (decomposition, certificates)."""
    Ga = adapted_gram(datum)
    dec = good_decomposition(Ga, polarization_type(datum).type)
    if translates is None:
        translates = [tuple([0] * Ga.rows)]
    certs = [cell_certificate(datum, piece, c)
             for piece in dec.pieces for c in translates]
    return dec, certs
