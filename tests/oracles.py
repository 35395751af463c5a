"""Independent oracles and test-only helpers used by the test suite.

The oracles are deliberately written from first principles, without
importing the package under test: naive minor expansions, exhaustive box
enumeration (around a center, and over the box of an ellipsoid), exact
rounding and square-root floors, Sylvester minors, the two-pass polygon
clipping and centroid ordering that the polygon kernel replaced, and the
generic-Fraction one-pass split and hull that its integer-homogeneous
form replaced.  Slow but obviously correct at the sizes the tests use.  The
last section holds small helpers that only tests call; they compose
package functions.  Nine of them are paths that a faster one replaced:
the per-representative thetas (the coset walk), the per-class relevant
vectors and per-point half periods (the walk mod 2 of voronoi), the
all-pairs exact injectivity loop (the box sweep of embedding), the
Fraction affine pieces (the integer pieces over one denominator per datum
of theta), the Fraction containments of the good decomposition and its
certificates (the integer ones of voronoi), the per-part lattice
minimum at each sample of a Fourier datum (one coset walk per sample in
nalift), the per-part Fraction value of that walk (the one integer
minimum over the parts of nalift) and the closed-form Fourier
coefficients (the cocycle step of nalift).  The invariant factors without transforms (the Smith elimination
of exactlinalg with empty transform rows) sit with the first-principles
oracles; voronoi's rank test, their last library caller, reads integer
minors now.  The rest were public functions of the package that no library
code, demo or benchmark layer calls, moved here with their bodies: the
paper's identity checks (quasi-periodicity, min-plus combinations,
translation of a datum, the sublattice identity), unimodularity of a
Matrix, the datum constructions from a Gram matrix and in adapted bases,
gamma, closest points and half-period systems of a Voronoi cell, the
leading coefficient, scale and sum of Fourier data (the composition
oracle of the one-pass surjective lift), and the JSON writers and readers
that only round-trip tests use, and the Gram norm v^T G v, which the one
product G v of each Voronoi halfspace replaced.  The same holds for the
methods that only tests called, now functions of their object: the
lattice point and coordinates of a torus, the pairing of a datum with a
point, the zero and diagonal matrices, a column of a Matrix, and the
boundary test of a Voronoi cell.
"""

import functools
import itertools
from fractions import Fraction
from math import ceil, floor, gcd, isqrt, lcm
from operator import mul

from tropitheta.embedding import InjectivityVerdict, _collision_pair
from tropitheta.errors import (
    CertificateFailed, DivisionByZero, NonIntegerLambda, NotPolarization,
    NotSymmetric, PreconditionViolated, SchemaError, WindowInsufficient,
)
from tropitheta.exactlinalg import (
    Matrix, _smith, det, dot, integer_vector, inverse, is_integer_vector,
    is_unimodular_rows, solve, to_vector, vec_add, vec_scale, vec_sub,
)
from tropitheta.jsonio import (
    rows_to_json, scalar_from_json, scalar_to_json, vector_to_json,
)
from tropitheta.nalift import (
    FourierData, LiftWindow, _class_of, _part_coeffs, c_extend, t_pair,
    to_scalar, vs_add, vs_mul, vs_val,
)
from tropitheta.theta import (
    INF, Q_ELL, ArgminResult, ThetaFunction, _center, _coset_argmins,
    _h_constant, _nearest, _offsets, _piece, lattice_argmin, q_ell_constant,
    theta_eval, theta_h_vector,
)
from tropitheta.torus import (
    TropicalDescentDatum, build_torus, polarization_type, validate_datum,
)
from tropitheta.voronoi import (
    CellCertificate, Piece, VoronoiCell, _half_periods, _rational,
    _split_cell, adapted_gram, basis_in_simplex,
)


def det_expansion(rows):
    """Determinant by Laplace expansion along the first row.  Exact for
    integer or Fraction entries; fine for sizes up to 5 or so."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_expansion(minor)
    return total


def minor_gcd_invariant_factors(rows):
    """Invariant factors of an integer matrix from gcds of k x k minors:
    d_k = g_k / g_{k-1} where g_k is the gcd of all k x k minors."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    gs = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for ris in itertools.combinations(range(m), k):
            for cjs in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in cjs] for i in ris]
                g = gcd(g, abs(det_expansion(sub)))
        if g == 0:
            break
        gs.append(g)
    return tuple(gs[k] // gs[k - 1] for k in range(1, len(gs)))


def invariant_factors(A):
    """Nonzero diagonal entries of the Smith form of the integer Matrix A,
    in divisibility order (the zero entries trail them).  The elimination
    records no transforms and builds no Matrix."""
    D = _smith(A, [[] for _ in range(A.rows)], [[] for _ in range(A.cols)])
    return tuple(D[i][i] for i in range(min(A.rows, A.cols)) if D[i][i])


def sylvester_is_positive_definite(rows):
    """Sylvester criterion: all leading principal minors positive."""
    n = len(rows)
    for k in range(1, n + 1):
        sub = [row[:k] for row in rows[:k]]
        if det_expansion(sub) <= 0:
            return False
    return True


def quadratic_value(G_rows, h, a):
    """(1/2) a^T G a + h.a as an exact Fraction."""
    n = len(h)
    acc = Fraction(0)
    for i in range(n):
        for j in range(n):
            acc += Fraction(G_rows[i][j]) * a[i] * a[j]
    acc = acc / 2
    for i in range(n):
        acc += Fraction(h[i]) * a[i]
    return acc


def box_argmin(G_rows, h, radius, center=None):
    """Exhaustive minimization of (1/2) a^T G a + h.a over the integer box
    center_i - radius .. center_i + radius.  Returns (value, sorted list of
    minimizers).  No certification; callers must pick an adequate radius."""
    n = len(h)
    if center is None:
        center = [0] * n
    best = None
    argmins = []
    ranges = [range(center[i] - radius, center[i] + radius + 1) for i in range(n)]
    for a in itertools.product(*ranges):
        v = quadratic_value(G_rows, h, a)
        if best is None or v < best:
            best = v
            argmins = [a]
        elif v == best:
            argmins.append(a)
    return best, sorted(argmins)


def certified_box_argmin(G_rows, h, radius):
    """box_argmin over the box of the given radius around the rounded
    continuous minimizer ahat = -G^-1.h (Cramer's rule), certified to hold
    every minimizer by the component bound (a_i - ahat_i)^2 <= (G^-1)_ii R^2
    (Cauchy-Schwarz in the G inner product), with R^2 the G-distance of the
    best box point to ahat.  Returns (value, sorted minimizers), or None
    when the bound does not fit inside the box."""
    n = len(h)
    D = Fraction(det_expansion(G_rows))

    def with_column(i, col):
        return [[col[r] if c == i else G_rows[r][c] for c in range(n)]
                for r in range(n)]

    def without(i):
        return [[G_rows[r][c] for c in range(n) if c != i]
                for r in range(n) if r != i]

    minus_h = [-Fraction(x) for x in h]
    ahat = [det_expansion(with_column(i, minus_h)) / D for i in range(n)]
    center = [floor(t + Fraction(1, 2)) for t in ahat]
    value, mins = box_argmin(G_rows, h, radius, center)
    R2 = gram_norm(G_rows, [mins[0][i] - ahat[i] for i in range(n)])
    for i in range(n):
        if det_expansion(without(i)) / D * R2 > (
                radius - abs(ahat[i] - center[i])) ** 2:
            return None
    return value, mins


def round_half_up(t):
    """Nearest integer, halves rounded up: floor(t + 1/2)."""
    t = Fraction(t) + Fraction(1, 2)
    return t.numerator // t.denominator


def floor_plus_sqrt(c, r):
    """floor(c + sqrt(r)) for rationals c and r >= 0, exact.

    With c = cn/cd (cd > 0), c + sqrt(r) = (cn + sqrt(r.cd^2))/cd, and
    floor((cn + y)/cd) = floor((cn + floor(y))/cd) for integers cn, cd."""
    if r < 0:
        raise ValueError("negative radicand")
    cd = c.denominator
    return (c.numerator
            + isqrt(r.numerator * cd * cd // r.denominator)) // cd


def ellipsoid_box_scan(G_rows, bound):
    """The integer v with v^T G v <= bound (G positive definite), sorted,
    by scanning the box |v_i| <= sqrt((G^-1)_ii max(bound, 0)) point by
    point, with (G^-1)_ii = det G_ii / det G from minor expansions: the box
    scan that the Fincke-Pohst ball enumeration replaced."""
    n = len(G_rows)
    D = Fraction(det_expansion(G_rows))
    bound = Fraction(bound)
    ranges = []
    for i in range(n):
        minor = [[G_rows[r][c] for c in range(n) if c != i]
                 for r in range(n) if r != i]
        k = floor_plus_sqrt(Fraction(0),
                            det_expansion(minor) / D * max(bound, 0))
        ranges.append(range(-k, k + 1))
    return sorted(v for v in itertools.product(*ranges)
                  if gram_norm(G_rows, v) <= bound)


def gram_norm(G, v):
    """v^T G v, exact, for a Matrix or a list of rows G."""
    rows = G.to_lists() if isinstance(G, Matrix) else G
    n = len(v)
    return sum(Fraction(rows[i][j]) * v[i] * v[j]
               for i in range(n) for j in range(n))


def _integer_line(a, c):
    # a.x = c scaled to coprime integers, first nonzero normal entry > 0
    nums = [Fraction(x) for x in a] + [Fraction(c)]
    den = 1
    for x in nums:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in nums]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    if next(x for x in ints[:-1] if x != 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints[:-1]), ints[-1]


def nested_cut_lines(G_rows, halfspaces):
    """Cut lines of a Voronoi cell by the nested translate scan.

    With B = n tr G: for every s in (1/2) Z^n with (2s)^T G (2s) <= 4B,
    every integer p with (p - s)^T G (p - s) <= B, and every facet
    a.x <= c of the cell, the line a.x = c + (p - s).a as coprime integers.
    Both scans run over boxes that hold their ellipsoids, since
    v^T G v <= R forces v_i^2 <= R (G^-1)_ii, and (G^-1)_ii is a ratio of
    minors; points outside the ellipsoids are dropped exactly."""
    n = len(G_rows)
    G = [[Fraction(x) for x in row] for row in G_rows]
    bound = n * sum(G[i][i] for i in range(n))
    detG = Fraction(det_expansion(G))
    ginv = [Fraction(det_expansion([[G[r][c] for c in range(n) if c != i]
                                    for r in range(n) if r != i])) / detG
            for i in range(n)]

    def box(center, R):
        rngs = []
        for i in range(n):
            r = isqrt(ceil(R * ginv[i])) + 1
            rngs.append(range(floor(center[i]) - r, ceil(center[i]) + r + 1))
        return itertools.product(*rngs)

    lines = set()
    for s2 in box([0] * n, 4 * bound):
        if gram_norm(G, s2) > 4 * bound:
            continue
        s = [Fraction(x, 2) for x in s2]
        for p in box(s, bound):
            t = [p[i] - s[i] for i in range(n)]
            if gram_norm(G, t) > bound:
                continue
            for a, c in halfspaces:
                lines.add(_integer_line(
                    a, Fraction(c) + sum(t[i] * a[i] for i in range(n))))
    return lines


def closest_points_brute(G_rows, target, radius):
    """All lattice points within the box |p_i| <= radius minimizing the
    G-distance to target (a rational vector).  Returns (min squared distance,
    sorted minimizers)."""
    n = len(target)
    target = [Fraction(t) for t in target]
    best = None
    argmins = []
    for p in itertools.product(range(-radius, radius + 1), repeat=n):
        d = [p[i] - target[i] for i in range(n)]
        v = gram_norm(G_rows, d)
        if best is None or v < best:
            best = v
            argmins = [p]
        elif v == best:
            argmins.append(p)
    return best, sorted(argmins)


def relevant_vectors_brute(G_rows, radius=6):
    """Voronoi-relevant vectors of the lattice Z^n under the G inner product,
    by the midpoint characterization: v is relevant iff the closest lattice
    points to v/2 are exactly {0, v}.  Enumerates candidates in a box."""
    n = len(G_rows)
    out = []
    for v in itertools.product(range(-radius, radius + 1), repeat=n):
        if all(x == 0 for x in v):
            continue
        mid = [Fraction(x, 2) for x in v]
        _, closest = closest_points_brute(G_rows, mid, 2 * radius)
        if sorted(closest) == sorted([tuple([0] * n), v]):
            out.append(v)
    return sorted(out)


def series_add(d1, d2):
    """Add two finitely supported series given as {exponent: coefficient}
    dicts; zero coefficients are dropped."""
    out = dict(d1)
    for g, a in d2.items():
        s = out.get(g, 0) + a
        if s == 0:
            out.pop(g, None)
        else:
            out[g] = s
    return out


def series_mul(d1, d2):
    out = {}
    for g1, a1 in d1.items():
        for g2, a2 in d2.items():
            g = g1 + g2
            s = out.get(g, 0) + a1 * a2
            if s == 0:
                out.pop(g, None)
            else:
                out[g] = s
    return out


def series_pow(d, k):
    """k-th power of a series dict; negative k needs a monomial base."""
    if k < 0:
        (g, a), = d.items()
        d = {-g: Fraction(1, 1) / a}
        k = -k
    out = {Fraction(0): Fraction(1)}
    for _ in range(k):
        out = series_mul(out, d)
    return out


def pairing_brute(T_dicts, w, u):
    """t(w, u) = prod_{ij} T[i][j]^(u_i * w_j) as a series dict."""
    out = {Fraction(0): Fraction(1)}
    for i in range(len(u)):
        for j in range(len(w)):
            out = series_mul(out, series_pow(T_dicts[i][j], u[i] * w[j]))
    return out


def c_extend_recursive(cB_dicts, T_dicts, L_rows, a):
    """Extend c from basis values by walking a one basis step at a time
    through the cocycle c(w + e_k) = c(w) * c(e_k) * t(e_k, L.w), without
    using any closed form.  Monomial data only (steps need inverses)."""
    n = len(a)
    def lam(w):
        return [sum(L_rows[i][j] * w[j] for j in range(n)) for i in range(n)]
    def t_basis(k, u):
        # t(e_k, u) = prod_i T[i][k]^(u_i)
        out = {Fraction(0): Fraction(1)}
        for i in range(n):
            out = series_mul(out, series_pow(T_dicts[i][k], u[i]))
        return out
    c = {Fraction(0): Fraction(1)}
    w = [0] * n
    for k in range(n):
        while w[k] < a[k]:
            c = series_mul(series_mul(c, cB_dicts[k]), t_basis(k, lam(w)))
            w[k] += 1
        while w[k] > a[k]:
            w[k] -= 1
            step = series_mul(cB_dicts[k], t_basis(k, lam(w)))
            c = series_mul(c, series_pow(step, -1))
    return c


def fourier_minimum_dot(coeffs, v):
    """min over the support of <u, v> + val(coeff_u), one generic rational
    dot product per coefficient; coeffs maps integer tuples u to nonzero
    valued scalars (val = the first exponent of their sorted terms)."""
    if not coeffs:
        return None
    return min(dot([Fraction(c) for c in u], v) + g.terms[0][0]
               for u, g in coeffs.items())


# -- convex polygons ----------------------------------------------------------

def polygon_area2(poly):
    """Twice the signed area of a polygon (shoelace formula); positive for
    counterclockwise vertex order."""
    acc = Fraction(0)
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        acc += x1 * y2 - x2 * y1
    return acc


def clip_polygon(poly, a, c):
    """The part of a convex polygon with a.x <= c, by one Sutherland-Hodgman
    pass, vertices kept in cyclic order and repeated points dropped."""
    out = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        fp = Fraction(a[0]) * p[0] + Fraction(a[1]) * p[1] - c
        fq = Fraction(a[0]) * q[0] + Fraction(a[1]) * q[1] - c
        if fp <= 0:
            out.append(tuple(p))
            if fq > 0:
                t = fp / (fp - fq)
                out.append(tuple(p[k] + t * (q[k] - p[k]) for k in range(2)))
        elif fq < 0:
            t = fp / (fp - fq)
            out.append(tuple(p[k] + t * (q[k] - p[k]) for k in range(2)))
    dedup = []
    for v in out:
        if not dedup or v != dedup[-1]:
            dedup.append(v)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def clip_split(poly, a, c):
    """The parts of a convex polygon on either side of a.x = c with
    positive area: one clip per side, then a shoelace filter."""
    parts = (clip_polygon(poly, a, c),
             clip_polygon(poly, [-x for x in a], -c))
    return [p for p in parts if len(p) >= 3 and polygon_area2(p) != 0]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_fractions(points):
    """The convex hull of rational points: the two end points of 1-D
    points; in the plane Andrew's monotone chain, counterclockwise from the
    least point in lexicographic order, collinear points dropped."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    if len(pts[0]) == 1:
        return [pts[0], pts[-1]]

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out
    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def split_polygon_fractions(poly, a, c):
    """The parts [low, high] of a convex polygon or an interval of rational
    points on the sides a.x <= c and a.x >= c, or [poly] when one side has
    no interior, in one cyclic walk over the signs a.p - c."""
    if len(poly[0]) == 1:
        lo, hi = poly
        t = (Fraction(c) / a[0],)
        if not lo < t < hi:
            return [poly]
        return [[lo, t], [t, hi]] if a[0] > 0 else [[t, hi], [lo, t]]
    s = [a[0] * p[0] + a[1] * p[1] - c for p in poly]
    if min(s) >= 0 or max(s) <= 0:
        return [poly]
    low, high = [], []
    for p, q, sp, sq in zip(poly, poly[1:] + poly[:1], s, s[1:] + s[:1]):
        if sp <= 0:
            low.append(p)
        if sp >= 0:
            high.append(p)
        if sp < 0 < sq or sq < 0 < sp:
            t = Fraction(sp, sp - sq)
            x = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            low.append(x)
            high.append(x)
    return [low, high]


def polygon_vertices(halfspaces):
    """Vertices of the bounded polygon { x : a.x <= c for (a, c) in
    halfspaces }: every intersection point of two boundary lines that
    satisfies all the halfspaces, by Cramer's rule."""
    pts = set()
    for (a1, c1), (a2, c2) in itertools.combinations(halfspaces, 2):
        dt = Fraction(a1[0] * a2[1] - a1[1] * a2[0])
        if dt == 0:
            continue
        x = ((c1 * a2[1] - c2 * a1[1]) / dt, (a1[0] * c2 - a2[0] * c1) / dt)
        if all(a[0] * x[0] + a[1] * x[1] <= c for a, c in halfspaces):
            pts.add(x)
    return pts


def centroid_ccw(points):
    """Counterclockwise order around the centroid of the points, starting
    at the first point at or past the centroid's +x ray: points are ranked
    by half-plane (upper half with the +x ray first) and then by the sign
    of their cross product."""
    pts = sorted(points)
    m = len(pts)
    cx = sum(p[0] for p in pts) / m
    cy = sum(p[1] for p in pts) / m

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return [tuple(p) for p in sorted(pts, key=functools.cmp_to_key(cmp))]


# -- test-only helpers over the package ---------------------------------------

def in_cell(G, x):
    """Exact membership of a rational point in the Voronoi cell."""
    return VoronoiCell(G).contains(x)


def on_boundary(cell, x):
    """x lies in the VoronoiCell cell and on one of its facet lines."""
    x = to_vector(x)
    return cell.contains(x) and any(dot(a, x) == c
                                    for a, c in cell.halfspaces)


def zero_matrix(rows, cols):
    """The rows x cols Matrix of zeros, also with no rows or no columns."""
    return Matrix(rows, cols, [0] * (rows * cols))


def diagonal_matrix(diag):
    """The square Matrix with the entries of diag on its diagonal."""
    n = len(diag)
    return Matrix(n, n, [diag[i] if i == j else 0
                         for i in range(n) for j in range(n)])


def col(M, j):
    """Column j of the Matrix M, as a tuple."""
    return tuple(M[i, j] for i in range(M.rows))


def lattice_point(torus, w):
    """e^v-coordinates of the M'-point with f'-coordinates w: Pmat.w."""
    return torus.Pmat.matvec(w)


def lattice_coords(torus, x):
    """f'-coordinates of a point given in e^v-coordinates: Pmat^-1.x."""
    return torus.Pinv.matvec(x)


def pairing_with_point(datum, w, x):
    """Q(u', x) = <lambda(u'), x> = (L.w) . x-hat for u' with
    f'-coordinates w and x in e^v-coordinates."""
    return dot(datum.L.matvec(w), x)


def cell_matrices(pam):
    """The per-cell matrices of slope differences, as Matrix objects built
    from the integer rows of the cell map (n columns, also for 0 rows)."""
    n = len(pam.reps[0])
    return [Matrix(len(cm.A), n, [e for row in cm.A for e in row])
            for cm in pam.cells]


def injective_all_pairs(pam, varpi):
    """Exact injectivity for n = 1 of the cell map pam of period varpi by
    solving every pair of cells i <= j in order: the quadratic loop that
    the box sweep of embedding replaced."""
    cells = pam.cells
    for i in range(len(cells)):
        for j in range(i, len(cells)):
            w = _collision_pair(cells[i], cells[j], varpi)
            if w is not None:
                return InjectivityVerdict("refuted", w)
    return InjectivityVerdict("certified", None)


def affine_piece_fractions(datum, b, a):
    """(slope, offset) of theta_b at its minimizer a in generic Fractions:
    b + L.a and (1/2) a^T G a + (Pmat^T.b - ell).a + q_ell(b)."""
    offset = (dot(a, datum.G.matvec(a)) / 2 + dot(_h_constant(datum, b), a)
              + q_ell_constant(datum, b))
    return tuple(int(bi + c) for bi, c in zip(b, datum.L.matvec(a))), offset


def per_representative_thetas(datum, x):
    """The minimizer sets of every theta_b at x and phi~(x), one
    lattice_argmin per representative: h = L^T.x + Pmat^T.b - ell, and
    theta_b(x) = value + b.x + q_ell(b) in the (Q, ell) convention."""
    lx = datum.LT.matvec(x)
    reps = polarization_type(datum).reps
    res = [lattice_argmin(datum.G, vec_add(lx, _h_constant(datum, b)))
           for b in reps]
    thetas = [r.value + dot(b, x) + q_ell_constant(datum, b)
              for r, b in zip(res, reps)]
    return (tuple(r.minimizers for r in res),
            tuple(t - thetas[0] for t in thetas[1:]))


def relevant_vectors_per_class(G):
    """The Voronoi-relevant vectors of Z^n under G, one lattice_argmin per
    nonzero class cls mod 2 on 4G, since
    (cls + 2a)^T G (cls + 2a) - cls^T G cls = 2 ((1/2) a^T 4G a + 2(G cls).a);
    a class contributes its pair when its minimum is a two-way tie."""
    n = G.rows
    out = []
    for cls in itertools.product((0, 1), repeat=n):
        if not any(cls):
            continue
        res = lattice_argmin(G.scale(4), vec_scale(2, G.matvec(cls)))
        vs = [tuple(cls[i] + 2 * a[i] for i in range(n))
              for a in res.minimizers]
        if len(vs) == 2:
            assert vs[0] == tuple(-c for c in vs[1])
            out.extend(vs)
    return sorted(out)


def half_periods_per_point(G, x):
    """The greedy half-period system of voronoi at x, one lattice_argmin
    per t in {0, 1/2}^n: q = t - p for the least lattice point p nearest
    x + t, kept when it raises the rank of the doubled candidates."""
    n = G.rows
    chosen = []
    for t in itertools.product((Fraction(0), Fraction(1, 2)), repeat=n):
        y = vec_add(x, t)
        p = lattice_argmin(G, vec_scale(-1, G.matvec(y))).minimizers[0]
        q = tuple(vec_sub(t, p))
        doubled = Matrix.from_rows([[2 * c for c in r] for r in chosen + [q]])
        if len(invariant_factors(doubled)) > len(chosen):
            chosen.append(q)
            if len(chosen) == n:
                return chosen
    raise AssertionError("no independent half-period system")


def decomposition_fractions(datum, translates):
    """(pieces, certificates) of voronoi.certified_cells with every
    containment in generic Fractions: per piece the room c - max_y a.y of
    each halfspace (a, c), a translation q fits when a.q is within every
    room, the half periods come from one lattice_argmin per class, each
    piece computes its own basis, and each certificate walks around the
    rational sample points.  A failed certificate raises CertificateFailed
    with the package's message."""
    G = adapted_gram(datum)
    d = polarization_type(datum).type
    n = G.rows
    cell = VoronoiCell(G)
    delta = [x // d[0] for x in d]

    def fits(room, q):
        return all(dot(a, q) <= r for a, r in room)

    def barycenter(pts):
        return tuple(sum(p[i] for p in pts) / len(pts) for i in range(n))
    pieces = []
    for poly in _split_cell(cell):
        poly = [_rational(v) for v in poly]
        room = [(a, c - max(dot(a, y) for y in poly))
                for a, c in cell.halfspaces]
        qs = half_periods_per_point(G, barycenter(poly))
        assert all(fits(room, q) for q in qs)
        coords = [tuple(2 * delta[i] * q[i] for i in range(n)) for q in qs]
        basis = [tuple(p[i] / (2 * delta[i]) for i in range(n))
                 for p in basis_in_simplex(coords, Fraction(d[0], 2))]
        assert all(fits(room, p) for p in basis)
        pieces.append(Piece(tuple(poly), tuple(qs), tuple(basis)))
    certs = []
    for piece in pieces:
        for t in translates:
            ells = [(0,) * n] + [integer_vector([d[i] * p[i]
                                                 for i in range(n)])
                                 for p in piece.basis]
            atilde = tuple(-c for c in t)
            samples = list(piece.vertices) + [barycenter(piece.vertices)]
            for j, ell in enumerate(ells):
                for y in samples:
                    c = [-t[i] - y[i] - Fraction(ell[i], d[i])
                         for i in range(n)]
                    if atilde not in closest_point(G, c).minimizers:
                        raise CertificateFailed(
                            "shared argmin fails for shift %d at %s"
                            % (j, tuple(y)))
            if not is_unimodular_rows(ells[1:], n):
                raise CertificateFailed("certificate rows are not unimodular")
            certs.append(CellCertificate(tuple(ells), atilde))
    return pieces, certs


def tropicalize_per_part(fd, trop, v):
    """(stored minimum, certified minimum of the parts) of a Fourier datum
    at v, one lattice_argmin per part: the minimum of
    (1/2) a^T G a + h.a with h = L^T.v + Pmat^T.b - ell, whose minimizers
    must lie in the part's window, plus val(mult) + b.v."""
    v = to_vector(v)
    if not fd.coeffs:
        return INF, INF
    certified = []
    for b, mult, radius in fd.window.parts:
        if radius < 0:
            raise PreconditionViolated("window radius must be nonnegative")
        res = lattice_argmin(trop.G, theta_h_vector(trop, b, v))
        if any(abs(c) > radius for a in res.minimizers for c in a):
            raise WindowInsufficient("window radius %d misses the valuation "
                                     "minimum at %r" % (radius, tuple(v)))
        certified.append(mult.terms[0][0] + dot(b, v) + res.value)
    return fourier_minimum_dot(fd.coeffs, v), min(certified, default=INF)


def part_coeffs_closed_form(datum, b, multiplier, radius):
    """multiplier * c(a) * t(a, b) at u = b + L.a over the window
    |a_i| <= radius in the product order of a, each coefficient from
    scratch by the closed forms c_extend and t_pair."""
    n = datum.n
    out = {}
    for a in itertools.product(range(-radius, radius + 1), repeat=n):
        La = datum.L.matvec(a)
        u = tuple(int(b[i]) + int(La[i]) for i in range(n))
        g = vs_mul(multiplier, vs_mul(c_extend(datum, a), t_pair(datum, a, b)))
        if g:
            out[u] = g
    return out


def window_minimum(trop, b, v, radius, walk=None):
    """b.v plus the lattice minimum of part b's valuation growth at v,
    certified inside the window |a_i| <= radius: for b = reps[k] + L.c,
    class k's minimizers in walk (the coset walk at v, made if None) less c,
    and theta_b's integer piece at one of them, slope.v + (off - off_0)/E,
    one Fraction per part."""
    if radius < 0:
        raise PreconditionViolated("window radius must be nonnegative")
    vn, vd = _center(to_vector(v))
    walk = walk or _coset_argmins(trop, (*vn, vd)).minimizers
    k, c = _class_of(trop, b)
    mins = [tuple(x - y for x, y in zip(a, c)) for a in walk[k]]
    if any(abs(x) > radius for a in mins for x in a):
        raise WindowInsufficient("window radius %d misses the valuation "
                                 "minimum at %r" % (radius, tuple(v)))
    slope, off = _piece(trop, b, mins[0])
    off0, E = _piece(trop, b, (0,) * trop.n)[1], _offsets(trop)[0]
    return Fraction(sum(map(mul, slope, vn)) * E + (off - off0) * vd, E * vd)


def tropicalize_window_minima(fd, trop, samples):
    """Per sample, lazily: (stored minimum, certified minimum) of a Fourier
    datum, the certified one the least val(multiplier) + window_minimum
    over the parts, from one coset walk per sample."""
    vals = [(u, vs_val(g)) for u, g in fd.coeffs.items()]
    wden = lcm(*(w.denominator for _, w in vals))
    vals = [(u, w.numerator * (wden // w.denominator)) for u, w in vals]
    for v in map(to_vector, samples):
        if not vals:
            yield INF, INF
            continue
        vn, vd = _center(v)
        den = lcm(vd, wden)
        vnum = [c * (den // vd) for c in vn]
        finite = Fraction(min(sum(map(mul, u, vnum)) + w * (den // wden)
                              for u, w in vals), den)
        walk = fd.window.parts and _coset_argmins(trop, (*vn, vd)).minimizers
        yield finite, min((vs_val(mult) + window_minimum(trop, b, v, r, walk)
                           for b, mult, r in fd.window.parts), default=INF)


def rep_class_coords(datum, b1, b2):
    """f'-coordinates of the difference b1 - b2 pulled back through lambda,
    or None when b1 and b2 differ by something outside lambda(M').  Used to
    decide equality of classes in M / lambda(M')."""
    diff = [Fraction(int(p) - int(q)) for p, q in zip(b1, b2)]
    if det(datum.L) == 0:
        raise NotPolarization("lambda is singular")
    a = solve(datum.L, diff)
    if all(c.denominator == 1 for c in a):
        return tuple(int(c) for c in a)
    return None


def gamma_rational_check(comb):
    """True when every finite coefficient of a min-plus combination is an
    exact rational.  Together with rational input data this makes every
    affine piece of the combination rational (integer slopes, rational
    offsets).  Symbolic or floating coefficients fail the check."""
    finite = comb.finite_terms()
    if not finite:
        raise PreconditionViolated("no finite coefficient")
    return all(isinstance(c, Fraction) for c, _ in finite)


def concavity_check(theta, x, y, t):
    """theta(t.x + (1-t).y) >= t.theta(x) + (1-t).theta(y), exact."""
    t = Fraction(t)
    mid = vec_add(vec_scale(t, to_vector(x)),
                  vec_scale(1 - t, to_vector(y)))
    return theta_eval(theta, mid) >= (t * theta_eval(theta, x)
                                      + (1 - t) * theta_eval(theta, y))


def is_unimodular_map(A):
    """True iff the h x n integer matrix A has rank n and Z^h / A.Z^n is
    torsion free, i.e. all n invariant factors are 1."""
    e = integer_vector(A.entries)
    return is_unimodular_rows([e[i * A.cols:(i + 1) * A.cols]
                               for i in range(A.rows)], A.cols)


def datum_from_Q(torus, G, ellVec):
    """Build the datum from a Gram matrix on the f'-basis.  Recovers
    L = Pmat^-T.G and requires it to be integral, which is exactly the
    integrality condition Q(M' x N) in Z."""
    if not G.is_symmetric():
        raise NotSymmetric("Gram matrix must be symmetric")
    L = torus.Pinv.transpose() * G
    if not L.is_integral():
        raise NonIntegerLambda("Q does not come from an integral lambda")
    return TropicalDescentDatum(torus, L, ellVec)


def adapted_datum(datum):
    """The same datum rewritten in bases adapted to the invariant factors.

    With U.L.V = diag(type), the new period basis is f'.V and the new
    M-basis is e.U^-1, so the polarization matrix becomes diag(type), the
    period matrix U^-T.Pmat.V, the Gram matrix V^T.G.V, and ell (values on
    the period basis) transforms by V^T.  M-points b move to U.b and
    e^v-coordinates to U^-T.x.
    """
    info = polarization_type(datum)
    Ut = inverse(info.U).transpose()
    return validate_datum(build_torus(Ut * datum.torus.Pmat * info.V),
                          info.U * datum.L * info.V,
                          info.V.transpose().matvec(datum.ellVec))


def gamma_eval(datum, a):
    """gamma(a) = (1/2) a^T G a - ell . a for a in f'-coordinates."""
    a = to_vector(a)
    return gram_norm(datum.G.to_lists(), a) / 2 - dot(datum.ellVec, a)


def quasi_periodicity_check(theta, x, w):
    """Check theta(x + u') = theta(x) - Q(x, u') - (1/2) Q(u', u') + ell(u')
    exactly, for the period u' with f'-coordinates w.  The identity is
    convention independent."""
    datum = theta.datum
    x = to_vector(x)
    w = [Fraction(int(c)) for c in w]
    lhs = theta_eval(theta, vec_add(x, lattice_point(datum.torus, w)))
    rhs = (theta_eval(theta, x)
           - pairing_with_point(datum, w, x)
           - gram_norm(datum.G.to_lists(), w) / 2
           + dot(datum.ellVec, w))
    return lhs == rhs


class ThetaCombination:
    """A min-plus combination min_b { c_b + theta_b }.

    Coefficients are exact rationals or INF (= None); at least one finite
    coefficient is required for evaluation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        fixed = []
        for c, theta in terms:
            if c is not INF and isinstance(c, (int, Fraction)):
                c = Fraction(c)
            fixed.append((c, theta))
        object.__setattr__(self, "terms", tuple(fixed))

    def __setattr__(self, name, value):
        raise AttributeError("ThetaCombination is immutable")

    def finite_terms(self):
        return [(c, th) for (c, th) in self.terms if c is not INF]


def min_plus_eval(comb, x):
    """min over the finite terms of c_b + theta_b(x)."""
    finite = comb.finite_terms()
    if not finite:
        raise PreconditionViolated("no finite coefficient")
    return min(c + theta_eval(th, x) for c, th in finite)


def translate_datum(datum, v):
    """Pull a datum back along translation by the point with f'-coordinates
    v: ell' = ell - G.v.  Returns (datum', constant) with
    constant = (1/2) v^T G v.

    The exact translation identity, in the (Q, ell) convention, is

        theta_b^{(Q,ell)}(x + Pmat.v) =
            theta_b^{(Q,ell')}(x) + ell.v - constant ;

    when v = G^-1.ell (the translation that kills ell) the correction
    ell.v equals 2*constant, so the identity collapses to
    theta^{(Q,ell')}(x) + constant = theta^{(Q,ell)}(x + Pmat.v).
    """
    v = to_vector(v)
    new_ell = vec_sub(datum.ellVec, datum.G.matvec(v))
    return (TropicalDescentDatum(datum.torus, datum.L, new_ell),
            gram_norm(datum.G.to_lists(), v) / 2)


def _snf_adapted_type(datum):
    # diagonal positive L with the divisibility chain, else None
    L = datum.L
    n = datum.n
    if any(L[i, j] != 0 for i in range(n) for j in range(n) if i != j):
        return None
    d = [int(L[i, i]) for i in range(n)]
    if any(x <= 0 for x in d):
        return None
    if any(d[i + 1] % d[i] for i in range(n - 1)):
        return None
    return d


def sublattice_identity_check(datum, x):
    """Check  min_{b in B1} theta_b(x) = (1/d1^2) theta_0(d1.x)  exactly,
    where B1 = { (delta_1 b_1, ..., delta_n b_n) : 0 <= b_i < d1 } with
    delta_i = d_i / d1.  Requires ell = 0 and SNF-adapted bases, i.e. L
    already diagonal with the divisibility chain; thetas in the (Q, ell)
    convention with ell = 0."""
    if not datum.polarized:
        raise NotPolarization("not a polarization")
    if any(c != 0 for c in datum.ellVec):
        raise PreconditionViolated("identity needs ell = 0")
    d = _snf_adapted_type(datum)
    if d is None:
        raise PreconditionViolated("identity needs an SNF-adapted basis")
    d1 = d[0]
    deltas = [di // d1 for di in d]
    x = to_vector(x)
    lhs = min(
        theta_eval(ThetaFunction(datum, [deltas[i] * box[i]
                                         for i in range(datum.n)], Q_ELL), x)
        for box in itertools.product(range(d1), repeat=datum.n))
    theta0 = ThetaFunction(datum, (0,) * datum.n, Q_ELL)
    rhs = theta_eval(theta0, vec_scale(d1, x)) / (d1 * d1)
    return lhs == rhs


def closest_point(G, x):
    """Closest lattice points to a rational point, with squared distance.

    The walk of the one class Z^n around x gives both.
    """
    if len(x) != G.rows:
        raise ValueError("length mismatch")
    (points,), (norm,), K = _nearest(G, *_center(to_vector(x)))
    return ArgminResult(tuple(points), Fraction(norm, K), len(points) > 1)


def half_period_system(G, x):
    """n independent half-lattice vectors q with q + x still in the cell.

    One candidate per two-torsion class t in {0, 1/2}^n: x + t is reduced
    into the cell by subtracting a closest lattice point and the candidate
    is the difference to x.  The lattice point nearest x + t is
    (z + 2t)/2 for the point z of the class 2t mod 2 nearest 2x, so one
    walk mod 2 gives every candidate, -z/2.  A greedy scan keeps each that
    raises the rank, read off the Smith form of the doubled candidates
    (integer, since each lies in (1/2) Z^n).  Not reaching rank n would
    contradict the construction and raises InternalInvariantViolated.
    """
    x = to_vector(x)
    cell = VoronoiCell(G)
    if not cell.contains(x):
        raise PreconditionViolated("base point must lie in the Voronoi cell")
    return _half_periods(cell, x)


def vs_leading(s):
    if not s.terms:
        raise DivisionByZero("the zero scalar has no leading coefficient")
    return s.terms[0][1]


def fourier_scale(fd, scalar):
    """Multiply a Fourier datum by a nonzero valued scalar."""
    scalar = to_scalar(scalar)
    if not scalar:
        raise PreconditionViolated("scaling by zero loses the support")
    parts = tuple((b, vs_mul(mult, scalar), radius)
                  for b, mult, radius in fd.window.parts)
    coeffs = {u: vs_mul(g, scalar) for u, g in fd.coeffs.items()}
    return FourierData(coeffs, LiftWindow(fd.window.datum, parts))


def fourier_sum(fd1, fd2):
    """Sum of two Fourier data over the same descent datum.  Parts on the
    same coset representative merge by adding multipliers; parts whose
    representatives are congruent modulo L but not equal are rejected
    (their supports overlap with shifted indexing)."""
    if fd1.window.datum is not fd2.window.datum:
        raise PreconditionViolated("summands live over different data")
    datum = fd1.window.datum
    merged = {}
    for b, mult, radius in fd1.window.parts + fd2.window.parts:
        if b in merged:
            old_mult, old_radius = merged[b]
            merged[b] = (vs_add(old_mult, mult), min(old_radius, radius))
        else:
            merged[b] = (mult, radius)
    reps = sorted(merged)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            diff = [reps[i][k] - reps[j][k] for k in range(datum.n)]
            if is_integer_vector(solve(datum.L, diff)):
                raise PreconditionViolated(
                    "representatives %r and %r generate the same coset"
                    % (reps[i], reps[j]))
    parts = tuple((b, merged[b][0], merged[b][1])
                  for b in reps if merged[b][0])
    coeffs = {}
    for b, mult, radius in parts:
        coeffs.update(_part_coeffs(datum, b, mult, radius))
    return FourierData(coeffs, LiftWindow(datum, parts))


def matrix_to_json(m):
    return rows_to_json(m.to_lists(), m.cols)


def datum_to_json(datum):
    return {"Pmat": matrix_to_json(datum.torus.Pmat),
            "L": matrix_to_json(datum.L),
            "ell": vector_to_json(datum.ellVec)}


def na_datum_to_json(datum):
    return {"Pmat": matrix_to_json(datum.torus.Pmat),
            "L": matrix_to_json(datum.L),
            "Tmat": [[scalar_to_json(x) for x in row] for row in datum.Tmat],
            "cBasis": [scalar_to_json(c) for c in datum.cBasis]}


def _ukey_parse(key):
    try:
        return tuple(int(c) for c in str(key).split(","))
    except ValueError as exc:
        raise SchemaError("bad coefficient key %r" % (key,)) from exc


def fourier_from_json(obj, datum):
    """Rebuild Fourier data over an already parsed descent datum."""
    if not isinstance(obj, dict) or "coefficients" not in obj \
            or "window" not in obj:
        raise SchemaError("fourier data needs coefficients and window")
    coeffs = {_ukey_parse(k): scalar_from_json(v)
              for k, v in obj["coefficients"].items()}
    try:
        parts = tuple((tuple(int(c) for c in p["b"]),
                       scalar_from_json(p["multiplier"]), int(p["radius"]))
                      for p in obj["window"]["parts"])
    except (TypeError, KeyError, ValueError) as exc:
        raise SchemaError("bad window description") from exc
    return FourierData(coeffs, LiftWindow(datum, parts))
