"""The theta-function map to tropical projective space.

phi sends a point x to the tuple of theta values over the class
representatives of the polarization; everything is studied through the
normalized map phi~ = (theta_b - theta_b0)_{b != b0}, which is piecewise
affine with integer slope differences.  Cells of linearity are computed
exactly for n <= 2 by probing minimizer sets at polytope vertices and
splitting along bisectors, in the integers of the one convex-polytope kernel
of voronoi: a vertex is (X_1, .., X_n, W) and a bisector a line a.X = c.W,
as each affine piece of theta_b is an integer slope and an integer offset
over one denominator E of the datum (theta._piece).  A cell map keeps its
slopes as integer rows and builds Fractions for its offsets and, once per
distinct vertex, its vertices.  Unimodularity (by minors) and injectivity
are certified (n = 1) or sampled on a grid, both from one pass over the
grid for n >= 3; the exact check solves only the cell pairs whose image
boxes overlap, found by a sweep, and not neighbours with independent
slopes.  The minimizers of every theta_b at a point come from one coset
walk of theta.  Every function takes the datum alone: the
polarization type and the cell map are derived from it once and kept in
its memo, so each check that reads the map reads the one that
linearity_cells built.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm
from operator import mul, sub
from typing import NamedTuple

from .errors import (DimensionUnsupported, InternalInvariantViolated,
                     NotPolarization, PreconditionViolated)
from .exactlinalg import content, is_unimodular_rows, vec_add, vec_sub
from .theta import (
    _coset_argmins, _homogeneous, _offsets, _piece, coset_argmins,
)
from .torus import per_datum, polarization_type
from .voronoi import _hull, _rational, _split_polygon


def phi_eval(datum, x):
    """phi~ at x: (theta_b(x) - theta_b0(x)) over the nonzero class
    representatives, in the class-invariant convention, from one coset
    walk.  theta_b(x) is half the squared distance norms[b]/K from the
    walk's center to the coset of b plus a term shared by every b, so the
    differences are (norms[b] - norms[b0]) / (2 K)."""
    res = coset_argmins(datum, x)
    return tuple(Fraction(n - res.norms[0], 2 * res.K) for n in res.norms[1:])


class CellMap(NamedTuple):
    vertices: tuple     # e^v-coordinates: [lo, hi] for n = 1, else
                        # counterclockwise
    argmins: tuple      # per representative, the constant minimizer
    A: tuple            # (D-1) integer rows of n slope differences
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
    if P.rows > 2:
        raise DimensionUnsupported("exact domains implemented for n <= 2")
    return [_rational(p) for p in _hull(
        _homogeneous(P.matvec(c)) for c in product((0, 1), repeat=P.rows))]


def _bisector(datum, b, a1, a2):
    # the integer line where the affine pieces of a1 and a2 for theta_b
    # agree; val(a1) <= val(a2) is the side normal.X <= c.W
    E = _offsets(datum)[0]
    (s1, o1), (s2, o2) = _piece(datum, b, a1), _piece(datum, b, a2)
    return tuple(E * (x - y) for x, y in zip(s1, s2)), o2 - o1


def _incomparable(sets):
    # one minimizer from each side of the first incomparable pair of sets
    for u, w in combinations(sets, 2):
        if u - w and w - u:
            return min(u - w), min(w - u)
    raise InternalInvariantViolated("no separating pair in a mixed piece")


def _refine_pieces(datum, domain):
    """Split the domain until every piece has, for each representative, a
    minimizer shared by all its vertices.  Minimizer regions are convex,
    so vertex agreement makes the piece argmin-constant; disagreement
    yields two vertices strictly separated by an exact bisector.  A vertex
    record holds the minimizer sets of every representative, from one
    coset walk per distinct vertex, keyed by and handed to the walk as the
    integer points (X_1, .., X_n, W) of the polytope kernel."""
    reps = polarization_type(datum).reps
    records = {}
    queue = [list(domain)]
    done = []
    rounds = 0
    while queue:
        rounds += 1
        if rounds > 200000:
            raise InternalInvariantViolated("cell refinement does not settle")
        piece = queue.pop()
        recs = []
        for v in piece:
            rec = records.get(v)
            if rec is None:
                rec = records[v] = tuple(
                    map(frozenset, _coset_argmins(datum, v).minimizers))
            recs.append(rec)
        profile = []
        for k, b in enumerate(reps):
            sets = [rec[k] for rec in recs]
            common = frozenset.intersection(*sets)
            if not common:
                parts = _split_polygon(
                    piece, *_bisector(datum, b, *_incomparable(sets)))
                if len(parts) != 2:
                    raise InternalInvariantViolated(
                        "bisector fails to split the piece")
                queue.extend(parts)
                break
            if len(common) > 1:
                raise InternalInvariantViolated("tie across a full piece")
            profile.append(next(iter(common)))
        else:
            done.append((tuple(piece), tuple(profile)))
    return done


def _merge_pieces(done):
    # one profile's pieces tile a convex cell; cells sort in integers over W
    groups = {}
    for piece, profile in done:
        groups.setdefault(profile, []).extend(piece)
    hulls = [(_hull(pts), profile) for profile, pts in groups.items()]
    W = lcm(*(p[-1] for hull, _ in hulls for p in hull))
    hulls.sort(key=lambda h: ([[c * (W // p[-1]) for c in p[:-1]]
                               for p in h[0]], h[1]))
    rational = {p: _rational(p) for hull, _ in hulls for p in hull}
    return [(tuple(map(rational.get, hull)), profile)
            for hull, profile in hulls]


def _profile_map(datum, reps, profile):
    # phi~ on the region of a minimizer profile: differences of the pieces
    (s0, o0), *rest = [_piece(datum, b, a) for b, a in zip(reps, profile)]
    E = _offsets(datum)[0]
    return (tuple(tuple(map(sub, s, s0)) for s, _ in rest),
            tuple(Fraction(o - o0, E) for _, o in rest))


def linearity_cells(datum, domain=None):
    """Exact cells of linearity of phi~ over a bounded convex domain
    (default: the closed fundamental parallelotope), n <= 2.

    On each cell, phi~ equals A.x + offset exactly; the minimizers behind
    the affine pieces are recorded per cell.  Computed once per datum and
    domain hull, so that a repeated call costs one lookup."""
    if not datum.polarized:
        raise NotPolarization("the theta map needs a polarized datum")
    n = datum.n
    if n > 2:
        raise DimensionUnsupported("exact cells implemented for n <= 2")
    dom = None
    if domain is not None:
        dom = tuple(_hull(_homogeneous(v) for v in domain))
        if len(dom) <= n:
            raise PreconditionViolated(
                "domain must be a full-dimensional polytope")
    return _cell_map(datum, dom)


@per_datum
def _cell_map(datum, dom):
    # the cell map over the hull dom, None for the fundamental domain
    if dom is None:
        dom = _hull(_homogeneous(v) for v in fundamental_domain(datum.torus))
    reps = polarization_type(datum).reps
    merged = _merge_pieces(_refine_pieces(datum, dom))
    return PiecewiseAffineMap(reps, tuple(
        CellMap(verts, tuple(profile), *_profile_map(datum, reps, profile))
        for verts, profile in merged))


def check_unimodular(pam):
    """Per-cell unimodularity of the slope-difference matrices, plus the
    conjunction.  Each distinct matrix is tested once."""
    n = len(pam.reps[0])
    verdict = {A: is_unimodular_rows(A, n) for A in {cm.A for cm in pam.cells}}
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
            t = Fraction(r[0], r1[0]) if r1[0] != 0 else Fraction(r[1], r1[1])
            if r[2] != t * r1[2]:
                return ("none",)
        a, b, c = r1
        p0 = (Fraction(c, a), 0) if a != 0 else (0, Fraction(c, b))
        return ("line", p0, (-b, a))
    dt = r1[0] * r2[1] - r1[1] * r2[0]
    x = Fraction(r1[2] * r2[1] - r2[2] * r1[1], dt)
    y = Fraction(r1[0] * r2[2] - r2[0] * r1[2], dt)
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
    (xlo,), (xhi,) = ci.vertices
    (ylo,), (yhi,) = cj.vertices
    rows = [(a, -c, oj - oi) for (a,), (c,), oi, oj
            in zip(ci.A, cj.A, ci.offset, cj.offset)]
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


def _image_boxes(cells):
    # the componentwise hull of phi~ = A.x + offset (A one column) at the
    # ends of each cell holds its image; phi~ is continuous, so a shared
    # end is evaluated once
    values = {}
    boxes = []
    for cm in cells:
        ends = []
        for (x,) in cm.vertices:
            v = values.get(x)
            if v is None:
                v = values[x] = tuple(a * x + o for (a,), o
                                      in zip(cm.A, cm.offset))
            ends.append(v)
        boxes.append((tuple(map(min, *ends)), tuple(map(max, *ends))))
    return boxes


def _injective_exact_1d(pam, varpi):
    """phi~(x) = phi~(y) puts the image boxes of the cells of x and y in
    contact, so only pairs of overlapping closed boxes, found by a sweep
    along the first coordinate, are solved.  On the diagonal a nonzero A
    forces x = y, so only constant cells are solved there.  Cells meeting
    at an end, e = e' or e + varpi = e', collide where A_i (x - e) =
    A_j (y - e'): for independent columns only at x = e, y = e', which are
    a period apart, so they are skipped.  Pairs are solved in (i, j) order:
    the first witness is that of the full loop."""
    cells = pam.cells
    boxes = _image_boxes(cells)
    order = sorted(range(len(cells)), key=lambda k: boxes[k][0][:1])
    pairs = [(i, i) for i, cm in enumerate(cells) if not any(map(any, cm.A))]
    for p, i in enumerate(order):
        lo, hi = boxes[i]
        for j in order[p + 1:]:
            lo2, hi2 = boxes[j]
            if lo2[:1] > hi[:1]:
                break
            if all(a <= d and c <= b
                   for a, b, c, d in zip(lo[1:], hi[1:], lo2[1:], hi2[1:])):
                pairs.append((min(i, j), max(i, j)))
    for i, j in sorted(pairs):
        (lo, hi), (lo2, hi2) = cells[i].vertices, cells[j].vertices
        # u, w are independent iff a minor through u's first nonzero is not 0
        u, w = [a for a, in cells[i].A], [a for a, in cells[j].A]
        k = next((k for k, c in enumerate(u) if c), 0)
        if (hi == lo2 or hi2[0] - lo[0] == varpi) \
                and any(u[k] * b != c * w[k] for b, c in zip(w, u)):
            continue
        w = _collision_pair(cells[i], cells[j], varpi)
        if w is not None:
            return InjectivityVerdict("refuted", w)
    return InjectivityVerdict("certified", None)


def _grid_pass(datum, resolution):
    # One coset walk per grid point: the sampled injectivity verdict, from
    # the first collision of phi~, and the set of minimizer profiles of the
    # points without ties.  Grid points inside the fundamental parallelotope
    # never differ by a period, so exact collisions are genuine;
    # phi~ = (norms - norms_0)/(2 K) is keyed as integers in lowest terms.
    # A point with a tie sits on a wall, and its mixed profile need not
    # come from any single cell.
    if resolution < 1:
        raise PreconditionViolated("the grid resolution must be at least 1")
    seen = {}
    witness = None
    profiles = set()
    for v in _grid(datum.torus.Pmat, resolution):
        res = _coset_argmins(datum, v)
        if all(len(m) == 1 for m in res.minimizers):
            profiles.add(tuple(m[0] for m in res.minimizers))
        if witness is None:
            key = [nk - res.norms[0] for nk in res.norms[1:]] + [2 * res.K]
            key = tuple(c // gcd(*key) for c in key)
            if key in seen:
                witness = (_rational(seen[key]), _rational(v))
            seen[key] = v
    if witness is None:
        return InjectivityVerdict("sampled-ok", None), profiles
    return InjectivityVerdict("refuted", witness), profiles


def _grid(P, resolution):
    # the points P.(i / resolution), 0 <= i_k < resolution, in the order of
    # product, as (X_1, .., X_n, W)
    *num, den = _homogeneous(P.entries)
    rows = [num[i:i + P.rows] for i in range(0, len(num), P.rows)]
    for idx in product(range(resolution), repeat=P.rows):
        yield (*(sum(map(mul, row, idx)) for row in rows), den * resolution)


def check_injective(datum, mode="exact", resolution=20):
    """Injectivity of the theta map on the torus: "exact" (n = 1)
    certifies or refutes with a witness by comparing the affine pieces of
    the cell pairs of the datum's cell map whose image boxes overlap;
    "grid" samples and can only refute or report sampled-ok."""
    if not datum.polarized:
        raise NotPolarization("the theta map needs a polarized datum")
    if mode == "exact":
        if datum.n != 1:
            raise DimensionUnsupported("exact injectivity implemented for n = 1")
        return _injective_exact_1d(linearity_cells(datum),
                                   abs(datum.torus.Pmat[0, 0]))
    if mode == "grid":
        return _grid_pass(datum, resolution)[0]
    raise ValueError("unknown mode %r" % (mode,))


class ImageComplex(NamedTuple):
    breakpoints: tuple       # slope changes strictly inside the period
    parameters: tuple        # vertex parameters; 0 included when the slope
                             # changes across the wrap
    vertices: tuple          # phi~ at the vertex parameters
    directions: tuple        # primitive integer edge directions
    lattice_lengths: tuple   # edge lengths in lattice units


def _lattice_length(edge):
    *ints, den = _homogeneous(edge)
    g = content(ints)
    if g == 0:
        return tuple(0 for _ in edge), Fraction(0)
    return tuple(x // g for x in ints), Fraction(g, den)


def image_complex_1d(datum):
    """The image polygon of phi~ over one period (n = 1): vertices in
    parameter order, primitive edge directions, and lattice lengths, read
    off the datum's cell map."""
    if datum.n != 1:
        raise DimensionUnsupported("image complexes implemented for n = 1")
    cells = linearity_cells(datum).cells
    # phi~ = A.x + offset holds on each closed cell, so each vertex is read
    # off a cell that its parameter bounds
    ends = [(cm, cm.vertices[-1]) for cm, nxt in zip(cells, cells[1:])
            if (cm.A, cm.offset) != (nxt.A, nxt.offset)]
    breaks = tuple(x for _, (x,) in ends)
    if cells[0].A != cells[-1].A:
        ends.insert(0, (cells[0], cells[0].vertices[0]))
    params = tuple(x for _, (x,) in ends)
    vertices = tuple(vec_add((sum(map(mul, row, p)) for row in cm.A),
                             cm.offset) for cm, p in ends)
    directions = []
    lengths = []
    m = len(vertices)
    if m >= 2:
        for k in range(m):
            edge = vec_sub(vertices[(k + 1) % m], vertices[k])
            prim, ln = _lattice_length(edge)
            directions.append(prim)
            lengths.append(ln)
    return ImageComplex(breaks, params, vertices,
                        tuple(directions), tuple(lengths))


def faithful_certificate(datum, resolution=20, mode=None):
    """Unimodularity and injectivity combined: both certified for n = 1,
    cells exact with sampled injectivity for n = 2, both sampled above.
    For n <= 2, mode ("exact" or "grid", as in check_injective) forces the
    injectivity check, and None chooses it by dimension; above, mode is
    ignored."""
    if datum.n <= 2:
        unimodular, verdicts = check_unimodular(linearity_cells(datum))
        if mode is None:
            mode = "exact" if datum.n == 1 else "grid"
        inj = check_injective(datum, mode=mode, resolution=resolution)
    else:
        # one walk of the grid samples both checks
        inj, profiles = _grid_pass(datum, min(resolution, 6))
        reps = polarization_type(datum).reps
        verdicts = tuple(
            is_unimodular_rows(_profile_map(datum, reps, prof)[0], datum.n)
            for prof in sorted(profiles))
        unimodular = bool(verdicts) and all(verdicts)
    faithful = bool(unimodular) and inj.status != "refuted"
    return FaithfulReport(unimodular, verdicts, inj, faithful)
