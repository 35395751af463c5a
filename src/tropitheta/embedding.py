"""The theta-function map to tropical projective space.

phi sends a point x to the tuple of theta values over the class
representatives of the polarization; everything is studied through the
normalized map phi~ = (theta_b - theta_b0)_{b != b0}, which is piecewise
affine with integer slope differences.  Cells of linearity are computed
exactly for n <= 2 by probing minimizer sets at polytope vertices and
splitting along bisectors; unimodularity and injectivity of the result
are certified (n = 1) or sampled on a grid.  Each affine piece of theta_b
is computed once per datum, L^T.x once per point, and a caller builds the
cell map once and passes it to the checks that read it.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd
from typing import NamedTuple

from .errors import (DimensionUnsupported, InternalInvariantViolated,
                     NotPolarization, PreconditionViolated)
from .exactlinalg import (Matrix, content, dot, gram_norm, integer_vector,
                          is_unimodular_map, vec_add, vec_scale, vec_sub)
from .theta import lattice_argmin, q_ell_constant, theta_h_vector
from .voronoi import _clip, _polygon_area2


def _h0(datum, b):
    # Pmat^T.b - ell, which theta_h_vector caches on the datum
    return (datum.memo.get(("h0", b))
            or theta_h_vector(datum, b, (0,) * datum.n))


def _piece(datum, b, a):
    """(slope, offset) of theta_b, in the class-invariant convention, where
    a is its minimizer: theta_b(x) = (b + L.a).x + (1/2) a^T G a
    + (Pmat^T.b - ell).a + q_ell(b).  Computed once per datum, b and a."""
    key = ("piece", b, a)
    if key not in datum.memo:
        offset = (gram_norm(datum.G, a) / 2 + dot(_h0(datum, b), a)
                  + q_ell_constant(datum, b))
        datum.memo[key] = (vec_add(b, datum.L.matvec(a)), offset)
    return datum.memo[key]


def phi_eval(datum, info, x):
    """phi~ at x: (theta_b(x) - theta_b0(x)) over the nonzero class
    representatives, in the class-invariant convention.  L^T.x is formed
    once for all representatives."""
    lx = datum.LT.matvec(x)
    thetas = [lattice_argmin(datum.G, vec_add(lx, _h0(datum, b))).value
              + dot(b, x) + q_ell_constant(datum, b) for b in info.reps]
    return tuple(t - thetas[0] for t in thetas[1:])


class Cell(NamedTuple):
    vertices: tuple     # e^v-coordinates; counterclockwise for n = 2
    halfspaces: tuple   # (normal, offset) pairs meaning normal.x <= offset
    dim: int


class CellMap(NamedTuple):
    cell: Cell
    argmins: tuple      # per representative, the constant minimizer
    A: Matrix           # (D-1) x n integer slope differences
    offset: tuple       # phi~ = A.x + offset on the cell


class PiecewiseAffineMap(NamedTuple):
    reps: tuple
    cells: tuple        # CellMap entries, sorted by first vertex


class InjectivityVerdict(NamedTuple):
    status: str         # "certified" | "refuted" | "sampled-ok"
    witness: tuple      # (x, y) with phi(x) = phi(y), x - y not a period


class FaithfulReport(NamedTuple):
    unimodular: bool
    cell_verdicts: tuple
    injective: InjectivityVerdict
    faithful: bool


def fundamental_domain(torus):
    """Closure of Pmat.[0,1)^n as a vertex list (n <= 2)."""
    P = torus.Pmat
    if P.rows == 1:
        return sorted([(Fraction(0),), tuple(P.matvec((1,)))])
    if P.rows == 2:
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        return _hull([tuple(P.matvec(c)) for c in corners])
    raise DimensionUnsupported("exact domains implemented for n <= 2")


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points):
    # convex hull, counterclockwise, collinear points dropped
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out
    lower = chain(pts)
    upper = chain(reversed(pts))
    return lower[:-1] + upper[:-1]


def _bisector(datum, b, a1, a2):
    # the line where the affine pieces of a1 and a2 for theta_b agree;
    # val(a1) <= val(a2) is the side normal.x <= c
    s1, o1 = _piece(datum, b, a1)
    s2, o2 = _piece(datum, b, a2)
    return vec_sub(s1, s2), o2 - o1


def _split_piece(piece, normal, c, n):
    if n == 1:
        lo, hi = piece[0][0], piece[-1][0]
        t = c / normal[0]
        if not lo < t < hi:
            raise InternalInvariantViolated("bisector misses the piece")
        return [[(lo,), (t,)], [(t,), (hi,)]]
    lo = _clip(piece, normal, c)
    hi = _clip(piece, vec_scale(-1, normal), -c)
    out = [p for p in (lo, hi) if len(p) >= 3 and _polygon_area2(p) != 0]
    if len(out) != 2:
        raise InternalInvariantViolated("bisector fails to split the piece")
    return out


def _incomparable(sets):
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] - sets[j] and sets[j] - sets[i]:
                return i, j
    raise InternalInvariantViolated("no separating pair in a mixed piece")


def _refine_pieces(datum, reps, domain, n):
    """Split the domain until every piece has, for each representative, a
    minimizer shared by all its vertices.  Minimizer regions are convex,
    so vertex agreement makes the piece argmin-constant; disagreement
    yields two vertices strictly separated by an exact bisector.  A vertex
    record holds L^T.v and the minimizer sets, filled as pieces ask."""
    h0 = [_h0(datum, b) for b in reps]
    records = {}

    def argmins(rec, k):
        lv, sets = rec
        if sets[k] is None:
            h = vec_add(lv, h0[k])
            sets[k] = frozenset(lattice_argmin(datum.G, h).minimizers)
        return sets[k]

    queue = [[tuple(Fraction(c) for c in v) for v in domain]]
    done = []
    rounds = 0
    while queue:
        rounds += 1
        if rounds > 200000:
            raise InternalInvariantViolated("cell refinement does not settle")
        piece = queue.pop()
        recs = [records.get(v) or records.setdefault(
            v, (datum.LT.matvec(v), [None] * len(reps))) for v in piece]
        profile = []
        cut = None
        for k, b in enumerate(reps):
            sets = [argmins(rec, k) for rec in recs]
            common = frozenset.intersection(*sets)
            if common:
                if len(common) > 1:
                    raise InternalInvariantViolated("tie across a full piece")
                profile.append(next(iter(common)))
                continue
            iu, iw = _incomparable(sets)
            a1 = min(sets[iu] - sets[iw])
            a2 = min(sets[iw] - sets[iu])
            cut = _bisector(datum, b, a1, a2)
            break
        if cut is None:
            done.append((tuple(piece), tuple(profile)))
        else:
            queue.extend(_split_piece(piece, cut[0], cut[1], n))
    return done


def _merge_pieces(done, n):
    # pieces with the same minimizer profile partition one convex region
    groups = {}
    for piece, profile in done:
        groups.setdefault(profile, []).extend(piece)
    cells = []
    for profile, pts in groups.items():
        if n == 1:
            xs = sorted(p[0] for p in pts)
            verts = ((xs[0],), (xs[-1],))
        else:
            verts = tuple(_hull(pts))
        cells.append((verts, profile))
    cells.sort(key=lambda t: t[0])
    return cells


def _halfspaces(verts, n):
    if n == 1:
        lo, hi = verts[0][0], verts[-1][0]
        return (((Fraction(-1),), -lo), ((Fraction(1),), hi))
    out = []
    m = len(verts)
    for i in range(m):
        p, q = verts[i], verts[(i + 1) % m]
        normal = (q[1] - p[1], p[0] - q[0])
        out.append((normal, dot(normal, p)))
    return tuple(out)


def _profile_map(datum, reps, profile, n):
    # phi~ on the region of a minimizer profile: differences of the pieces
    pieces = [_piece(datum, b, a) for b, a in zip(reps, profile)]
    (s0, o0), rest = pieces[0], pieces[1:]
    rows = [integer_vector(vec_sub(s, s0)) for s, _ in rest]
    A = Matrix.from_rows(rows) if rows else Matrix(0, n, [])
    return A, tuple(o - o0 for _, o in rest)


def _cell_map(datum, reps, verts, profile, n):
    A, offset = _profile_map(datum, reps, profile, n)
    return CellMap(Cell(tuple(verts), _halfspaces(verts, n), n),
                   tuple(profile), A, offset)


def linearity_cells(datum, info, domain=None):
    """Exact cells of linearity of phi~ over a bounded convex domain
    (default: the closed fundamental parallelotope), n <= 2.

    On each cell, phi~ equals A.x + offset exactly; the minimizers behind
    the affine pieces are recorded per cell.  Not cached: pass it on as pam."""
    if not datum.polarized:
        raise NotPolarization("the theta map needs a polarized datum")
    n = datum.n
    if n > 2:
        raise DimensionUnsupported("exact cells implemented for n <= 2")
    if domain is None:
        domain = fundamental_domain(datum.torus)
    dom = [tuple(Fraction(c) for c in v) for v in domain]
    if n == 1:
        dom = sorted(dom)
        if len(dom) != 2 or dom[0] == dom[1]:
            raise PreconditionViolated("domain must be a nondegenerate interval")
    else:
        dom = _hull(dom)
        if len(dom) < 3:
            raise PreconditionViolated("domain must be a full polygon")
    done = _refine_pieces(datum, info.reps, dom, n)
    merged = _merge_pieces(done, n)
    cells = tuple(_cell_map(datum, info.reps, verts, profile, n)
                  for verts, profile in merged)
    return PiecewiseAffineMap(tuple(info.reps), cells)


def cell_matrices(pam):
    """The per-cell matrices of slope differences."""
    return [cm.A for cm in pam.cells]


def check_unimodular(pam):
    """Per-cell unimodularity of the slope-difference matrices, plus the
    conjunction.  Each distinct matrix is tested once."""
    verdict = {A: is_unimodular_map(A) for A in set(cm.A for cm in pam.cells)}
    verdicts = tuple(verdict[cm.A] for cm in pam.cells)
    return all(verdicts), verdicts


def _is_period_multiple(diff, varpi):
    return (diff / varpi).denominator == 1


def _solve_two_unknowns(rows):
    """Solution set of a stack of equations a x + b y = c: one of
    ("none",), ("plane",), ("point", (x, y)), ("line", p0, direction)."""
    r1 = None
    r2 = None
    for r in rows:
        if r[0] == 0 and r[1] == 0:
            if r[2] != 0:
                return ("none",)
            continue
        if r1 is None:
            r1 = r
        elif r2 is None and r[0] * r1[1] != r[1] * r1[0]:
            r2 = r
    if r1 is None:
        return ("plane",)
    if r2 is None:
        for r in rows:
            if r[0] == 0 and r[1] == 0:
                continue
            t = r[0] / r1[0] if r1[0] != 0 else r[1] / r1[1]
            if r[2] != t * r1[2]:
                return ("none",)
        a, b, c = r1
        p0 = (c / a, Fraction(0)) if a != 0 else (Fraction(0), c / b)
        return ("line", p0, (-b, a))
    dt = r1[0] * r2[1] - r1[1] * r2[0]
    x = (r1[2] * r2[1] - r2[2] * r1[1]) / dt
    y = (r1[0] * r2[2] - r2[0] * r1[2]) / dt
    for r in rows:
        if r[0] * x + r[1] * y != r[2]:
            return ("none",)
    return ("point", (x, y))


def _segment_witness(p0, direction, trange, varpi):
    # a point of { p0 + t direction : t in trange } whose coordinates
    # differ by something other than a period, if one exists
    const = p0[0] - p0[1]
    slope = direction[0] - direction[1]
    tlo, thi = trange
    if slope == 0:
        if _is_period_multiple(const, varpi):
            return None
        t = (tlo + thi) / 2
        return (p0[0] + t * direction[0], p0[1] + t * direction[1])
    d1, d2 = sorted((const + slope * tlo, const + slope * thi))
    bad = []
    for k in range(ceil(d1 / varpi), floor(d2 / varpi) + 1):
        t = (k * varpi - const) / slope
        if tlo <= t <= thi:
            bad.append(t)
    knots = sorted({tlo, thi, *bad})
    for a, b in zip(knots, knots[1:]):
        if a < b:
            t = (a + b) / 2
            return (p0[0] + t * direction[0], p0[1] + t * direction[1])
    if not bad:
        t = tlo
        return (p0[0] + t * direction[0], p0[1] + t * direction[1])
    return None


def _collision_pair(ci, cj, varpi):
    """A pair (x, y) in ci x cj with phi~(x) = phi~(y) and x - y not a
    period, or None."""
    xlo, xhi = ci.cell.vertices[0][0], ci.cell.vertices[-1][0]
    ylo, yhi = cj.cell.vertices[0][0], cj.cell.vertices[-1][0]
    rows = [(ci.A[k, 0], -cj.A[k, 0], cj.offset[k] - ci.offset[k])
            for k in range(ci.A.rows)]
    sol = _solve_two_unknowns(rows)
    if sol[0] == "none":
        return None
    if sol[0] == "point":
        x, y = sol[1]
        if xlo <= x <= xhi and ylo <= y <= yhi \
                and not _is_period_multiple(x - y, varpi):
            return (x,), (y,)
        return None
    if sol[0] == "line":
        p0, direction = sol[1], sol[2]
        # { t : p0 + t direction in ci x cj }; the direction is never zero,
        # so at least one of the two cell constraints bounds t
        tlo = thi = None
        for c0, d, lo, hi in ((p0[0], direction[0], xlo, xhi),
                              (p0[1], direction[1], ylo, yhi)):
            if d == 0:
                if not lo <= c0 <= hi:
                    return None
                continue
            t1, t2 = sorted(((lo - c0) / d, (hi - c0) / d))
            tlo = t1 if tlo is None else max(tlo, t1)
            thi = t2 if thi is None else min(thi, t2)
        if tlo > thi:
            return None
        w = _segment_witness(p0, direction, (tlo, thi), varpi)
        return ((w[0],), (w[1],)) if w is not None else None
    x = (xlo + xhi) / 2
    for y in ((ylo + yhi) / 2, (3 * ylo + yhi) / 4, (ylo + 3 * yhi) / 4):
        if not _is_period_multiple(x - y, varpi):
            return (x,), (y,)
    return None


def _injective_exact_1d(datum, info, pam):
    pam = pam or linearity_cells(datum, info)
    varpi = abs(datum.torus.Pmat[0, 0])
    cells = pam.cells
    for i in range(len(cells)):
        for j in range(i, len(cells)):
            w = _collision_pair(cells[i], cells[j], varpi)
            if w is not None:
                return InjectivityVerdict("refuted", w)
    return InjectivityVerdict("certified", None)


def _injective_grid(datum, info, resolution):
    # grid points inside the fundamental parallelotope never differ by a
    # period, so exact collisions are genuine
    P = datum.torus.Pmat
    seen = {}
    for idx in product(range(resolution), repeat=datum.n):
        u = tuple(Fraction(i, resolution) for i in idx)
        x = tuple(P.matvec(u))
        key = phi_eval(datum, info, x)
        if key in seen:
            return InjectivityVerdict("refuted", (seen[key], x))
        seen[key] = x
    return InjectivityVerdict("sampled-ok", None)


def check_injective(datum, info, mode="exact", resolution=20, pam=None):
    """Injectivity of the theta map on the torus: "exact" (n = 1)
    certifies or refutes with a witness by comparing affine pieces over
    all cell pairs of pam (computed here when not given); "grid" samples
    and can only refute or report sampled-ok."""
    if not datum.polarized:
        raise NotPolarization("the theta map needs a polarized datum")
    if mode == "exact":
        if datum.n != 1:
            raise DimensionUnsupported("exact injectivity implemented for n = 1")
        return _injective_exact_1d(datum, info, pam)
    if mode == "grid":
        return _injective_grid(datum, info, resolution)
    raise ValueError("unknown mode %r" % (mode,))


class ImageComplex(NamedTuple):
    breakpoints: tuple       # slope changes strictly inside the period
    parameters: tuple        # vertex parameters; 0 included when the slope
                             # changes across the wrap
    vertices: tuple          # phi~ at the vertex parameters
    directions: tuple        # primitive integer edge directions
    lattice_lengths: tuple   # edge lengths in lattice units


def _lattice_length(edge):
    den = 1
    for c in edge:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in edge]
    g = content(ints)
    if g == 0:
        return tuple(0 for _ in edge), Fraction(0)
    return tuple(x // g for x in ints), Fraction(g, den)


def image_complex_1d(datum, info, pam=None):
    """The image polygon of phi~ over one period (n = 1): vertices in
    parameter order, primitive edge directions, and lattice lengths.  pam
    is the cell map of the datum, computed here when not given."""
    if datum.n != 1:
        raise DimensionUnsupported("image complexes implemented for n = 1")
    pam = pam or linearity_cells(datum, info)
    cells = pam.cells
    breaks = tuple(cells[k].cell.vertices[-1][0]
                   for k in range(len(cells) - 1)
                   if (cells[k].A, cells[k].offset)
                   != (cells[k + 1].A, cells[k + 1].offset))
    params = list(breaks)
    if cells[0].A != cells[-1].A:
        params = [cells[0].cell.vertices[0][0]] + params
    vertices = tuple(phi_eval(datum, info, (p,)) for p in params)
    directions = []
    lengths = []
    m = len(vertices)
    if m >= 2:
        for k in range(m):
            edge = vec_sub(vertices[(k + 1) % m], vertices[k])
            prim, ln = _lattice_length(edge)
            directions.append(prim)
            lengths.append(ln)
    return ImageComplex(tuple(breaks), tuple(params), vertices,
                        tuple(directions), tuple(lengths))


def _sampled_unimodular(datum, info, resolution):
    P = datum.torus.Pmat
    profiles = set()
    for idx in product(range(resolution), repeat=datum.n):
        u = tuple(Fraction(i, resolution) for i in idx)
        lx = datum.LT.matvec(P.matvec(u))
        mins = [lattice_argmin(datum.G, vec_add(lx, _h0(datum, b))).minimizers
                for b in info.reps]
        # a point with a tie sits on a wall; its mixed profile need not
        # come from any single cell, so only unique minimizers count
        if any(len(m) != 1 for m in mins):
            continue
        profiles.add(tuple(m[0] for m in mins))
    if not profiles:
        return False, ()
    verdicts = tuple(
        is_unimodular_map(_profile_map(datum, info.reps, prof, datum.n)[0])
        for prof in sorted(profiles))
    return all(verdicts), verdicts


def faithful_certificate(datum, info, resolution=20, pam=None):
    """Unimodularity and injectivity combined: both certified for n = 1,
    cells exact with sampled injectivity for n = 2, both sampled above.
    pam, the cell map for n <= 2, is computed here when not given."""
    if datum.n <= 2:
        pam = pam or linearity_cells(datum, info)
        unimodular, verdicts = check_unimodular(pam)
        if datum.n == 1:
            inj = check_injective(datum, info, mode="exact", pam=pam)
        else:
            inj = check_injective(datum, info, mode="grid",
                                  resolution=resolution)
    else:
        unimodular, verdicts = _sampled_unimodular(datum, info,
                                                   min(resolution, 6))
        inj = check_injective(datum, info, mode="grid",
                              resolution=min(resolution, 6))
    faithful = bool(unimodular) and inj.status != "refuted"
    return FaithfulReport(unimodular, verdicts, inj, faithful)
