from fractions import Fraction
from itertools import product
from math import ceil, factorial, floor, gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropitheta.errors import (
    CertificateFailed, DimensionUnsupported, NotPolarization,
    PreconditionViolated,
)
from tropitheta.exactlinalg import (
    Matrix, det, integer_vector, inverse, solve, vec_add,
)
from tropitheta.theta import ThetaFunction, lattice_argmin, theta_argmin, theta_eval, Q_ELL
from tropitheta.theta import _homogeneous
from tropitheta.torus import build_torus, polarization_type, validate_datum
from tropitheta.voronoi import (
    Piece, VoronoiCell, adapted_gram, basis_in_simplex, cell_certificate,
    certified_cells, good_decomposition, relevant_vectors,
)
from tropitheta.voronoi import (
    _cell_polytope, _cross, _cut_lines, _rational,
)
from tropitheta import voronoi

from oracles import (
    adapted_datum, centroid_ccw, clip_split, closest_point,
    closest_points_brute, decomposition_fractions, diagonal_matrix,
    gram_norm, half_period_system,
    hull_fractions, in_cell, is_unimodular_map, lattice_point,
    nested_cut_lines, on_boundary, polygon_area2, polygon_vertices,
    relevant_vectors_brute, split_polygon_fractions,
)

I2 = Matrix.identity(2)
HEX = Matrix.from_rows([[2, 1], [1, 2]])


def frac_vec(*xs):
    return tuple(Fraction(x) for x in xs)


def assert_canonical(p):
    # a kernel point (X_1, .., X_n, W): W > 0 and the gcd of all of it is 1
    assert all(isinstance(c, int) for c in p)
    assert p[-1] > 0 and gcd(*p) == 1


def _split_polygon(poly, a, c):
    """The integer kernel's split on rational points and a rational line:
    points go in as (X, W), the line is scaled by the lcm of its
    denominators (a positive factor, so the sides keep their names), and
    every point that comes out is checked canonical and made rational."""
    m = lcm(*(Fraction(x).denominator for x in (*a, c)))
    parts = voronoi._split_polygon([_homogeneous(p) for p in poly],
                                   tuple(int(x * m) for x in a), int(c * m))
    for part in parts:
        for p in part:
            assert_canonical(p)
    return [[_rational(p) for p in part] for part in parts]


def _hull(points):
    """The integer kernel's hull on rational points, the same way."""
    hull = voronoi._hull(_homogeneous(p) for p in points)
    for p in hull:
        assert_canonical(p)
    return [_rational(p) for p in hull]


def oracle_boxes_fit(G, radius):
    """Exact sufficient condition that relevant_vectors_brute(G, radius)
    sees everything it needs: relevant vectors have norm at most n tr G
    (twice the covering radius bound), so the candidate box is adequate
    once (G^-1)_ii n tr G <= radius^2, and the closest points to any
    candidate midpoint v/2 satisfy
    |p_i| <= |v_i|/2 + ((G^-1)_ii (v/2)^T G (v/2))^(1/2), which stays
    inside the inner box |p_i| <= 2 radius once
    (G^-1)_ii max_box v^T G v <= 9 radius^2 (box maximum over corners)."""
    n = G.rows
    tr = sum(G[i, i] for i in range(n))
    Ginv = inverse(G)
    corners = [[s * radius for s in signs] for signs in _signs(n)]
    maxbox = max(gram_norm(G, s) for s in corners)
    return all(Ginv[i, i] * n * tr <= radius * radius
               and Ginv[i, i] * maxbox <= 9 * radius * radius
               for i in range(n))


def _signs(n):
    out = [[]]
    for _ in range(n):
        out = [s + [e] for s in out for e in (-1, 1)]
    return out


def _basis_gram_rows(a, b, c, d):
    return [[a * a + c * c, a * b + c * d], [a * b + c * d, b * b + d * d]]


# the bases (a, b, c, d) in [-2, 2]^4 that are nonsingular and whose Gram
# matrices the radius-3 oracle can decide, drawn from directly rather than
# filtered, since most of the box fails one of the two conditions
FITTING_BASES_2D = [
    basis for basis in product(range(-2, 3), repeat=4)
    if basis[0] * basis[3] != basis[1] * basis[2]
    and oracle_boxes_fit(Matrix.from_rows(_basis_gram_rows(*basis)), 3)]


class TestRelevantVectors:
    def test_square_lattice(self):
        assert relevant_vectors(I2) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_hexagonal_lattice(self):
        rel = relevant_vectors(HEX)
        assert rel == [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]
        assert rel == relevant_vectors_brute([[2, 1], [1, 2]], radius=2)

    def test_one_dimensional(self):
        assert relevant_vectors(Matrix.from_rows([[1]])) == [(-1,), (1,)]
        assert relevant_vectors(Matrix.from_rows([[24]])) == [(-1,), (1,)]

    def test_rejects_non_polarizations(self):
        with pytest.raises(NotPolarization):
            relevant_vectors(Matrix.from_rows([[1, 2], [2, 1]]))
        with pytest.raises(NotPolarization):
            relevant_vectors(Matrix.from_rows([[0]]))
        with pytest.raises(NotPolarization):
            relevant_vectors(Matrix.from_rows([[1, 1], [0, 1]]))
        with pytest.raises(NotPolarization):
            relevant_vectors(Matrix.from_rows([[1, 0]]))
        with pytest.raises(NotPolarization):
            VoronoiCell(Matrix.from_rows([[1, 1], [0, 1]]))
        with pytest.raises(NotPolarization):
            VoronoiCell(Matrix.from_rows([[2, 1], [1, -3]]))

    def test_negation_closure_and_no_zero(self):
        for G in (I2, HEX, Matrix.from_rows([[3, 1], [1, 5]])):
            rel = relevant_vectors(G)
            assert (0,) * G.rows not in rel
            assert sorted(tuple(-c for c in v) for v in rel) == rel

    @given(st.sampled_from(FITTING_BASES_2D))
    @settings(max_examples=25, deadline=None)
    def test_brute_force_agreement_2d(self, basis):
        rows = _basis_gram_rows(*basis)
        G = Matrix.from_rows(rows)
        assert relevant_vectors(G) == relevant_vectors_brute(rows, radius=3)

    def test_classical_3d_lattices(self):
        # cubic, face-centered and body-centered Gram matrices carry 6, 12
        # and 14 relevant vectors; each one is rechecked by the midpoint
        # characterization (closest points to v/2 are exactly {0, v})
        cases = [
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 6),
            ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], 12),
            ([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]], 14),
        ]
        for rows, count in cases:
            G = Matrix.from_rows(rows)
            rel = relevant_vectors(G)
            assert len(rel) == count
            assert sorted(tuple(-c for c in v) for v in rel) == rel
            Ginv = inverse(G)
            for v in rel:
                # the box |p_i| <= 3 suffices for this midpoint: any
                # closest point obeys |p_i - v_i/2|^2 <= (G^-1)_ii |v/2|^2
                for i in range(3):
                    room = Fraction(3) - Fraction(abs(v[i]), 2)
                    assert Ginv[i, i] * gram_norm(G, v) / 4 <= room * room
                mid = [Fraction(x, 2) for x in v]
                _, mins = closest_points_brute(rows, mid, radius=3)
                assert mins == sorted([(0, 0, 0), v])


class TestCellMembership:
    def test_origin(self):
        assert in_cell(I2, frac_vec(0, 0))
        res = closest_point(I2, frac_vec(0, 0))
        assert res.minimizers == ((0, 0),) and res.value == 0 and not res.tie

    def test_square_boundary_tie(self):
        x = frac_vec(Fraction(1, 2), Fraction(1, 2))
        assert in_cell(I2, x)
        assert on_boundary(VoronoiCell(I2), x)
        res = closest_point(I2, x)
        assert res.minimizers == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert res.value == Fraction(1, 2) and res.tie

    def test_one_dim_outside(self):
        G = Matrix.from_rows([[1]])
        x = frac_vec(Fraction(7, 10))
        assert not in_cell(G, x)
        res = closest_point(G, x)
        assert res.minimizers == ((1,),) and res.value == Fraction(9, 100)

    def test_halfspace_data(self):
        cell = VoronoiCell(HEX)
        assert len(cell.halfspaces) == len(cell.relevant) == 6
        for v, (a, c) in zip(cell.relevant, cell.halfspaces):
            assert a == tuple(HEX.matvec(v))
            assert c == Fraction(gram_norm(HEX, v), 2)

    @given(st.integers(-1, 1), st.integers(-3, 3), st.integers(-8, 8),
           st.integers(-8, 8))
    @settings(max_examples=40, deadline=None)
    def test_closest_matches_brute_force(self, b, c, xn, yn):
        # targets sit in [-2, 2]^2 and the diagonal dominates, so closest
        # points stay well inside the brute-force box |p_i| <= 6
        rows = [[2 + b * b, b], [b, 2 + c * c]]
        G = Matrix.from_rows(rows)
        x = (Fraction(xn, 4), Fraction(yn, 4))
        res = closest_point(G, x)
        best, mins = closest_points_brute(rows, x, radius=6)
        assert res.value == best
        assert list(res.minimizers) == mins

    def test_tiling_of_a_box(self):
        # every grid point is covered by some translate of the cell, and
        # multiple covers pin the point to the boundary of each cover
        for G in (I2, HEX):
            cell = VoronoiCell(G)
            quarters = [Fraction(k, 4) for k in range(-4, 5)]
            for x0 in quarters:
                for x1 in quarters:
                    covers = []
                    for p0 in range(-3, 4):
                        for p1 in range(-3, 4):
                            y = (x0 - p0, x1 - p1)
                            if cell.contains(y):
                                covers.append(y)
                    assert covers
                    if len(covers) > 1:
                        assert all(on_boundary(cell, y) for y in covers)


class TestHalfPeriodSystem:
    def check_postconditions(self, G, x, qs):
        cell = VoronoiCell(G)
        assert len(qs) == G.rows
        for q in qs:
            assert all((2 * c).denominator == 1 for c in q)
            assert cell.contains(vec_add(q, x))
        assert det(Matrix.from_rows([list(q) for q in qs])) != 0

    def test_square_at_origin(self):
        qs = half_period_system(I2, frac_vec(0, 0))
        assert qs == [frac_vec(0, Fraction(1, 2)), frac_vec(Fraction(1, 2), 0)]
        self.check_postconditions(I2, frac_vec(0, 0), qs)

    def test_one_dim_at_boundary(self):
        G = Matrix.from_rows([[1]])
        x = frac_vec(Fraction(1, 2))
        qs = half_period_system(G, x)
        assert qs == [frac_vec(Fraction(-1, 2))]
        self.check_postconditions(G, x, qs)

    def test_requires_cell_point(self):
        with pytest.raises(PreconditionViolated):
            half_period_system(Matrix.from_rows([[1]]),
                               frac_vec(Fraction(7, 10)))

    @given(st.integers(-2, 2), st.integers(1, 3), st.integers(1, 3),
           st.integers(-12, 12), st.integers(-12, 12))
    @settings(max_examples=50, deadline=None)
    def test_random_cell_points(self, b, u, v, xn, yn):
        G = Matrix.from_rows([[u + b * b, b], [b, v + b * b]])
        raw = (Fraction(xn, 5), Fraction(yn, 5))
        p = closest_point(G, raw).minimizers[0]
        x = (raw[0] - p[0], raw[1] - p[1])
        qs = half_period_system(G, x)
        self.check_postconditions(G, x, qs)


class TestBasisInSimplex:
    def in_simplex(self, qs, p):
        # barycentric coordinates with respect to {0, q_1 .. q_n}
        cols = Matrix.from_rows([[q[i] for q in qs] for i in range(len(qs))])
        t = solve(cols, p)
        return all(c >= 0 for c in t) and sum(t) <= 1

    def is_scaled_basis(self, ps, r):
        cols = [integer_vector([Fraction(r) * c for c in p]) for p in ps]
        M = Matrix.from_rows([[col[i] for col in cols]
                              for i in range(len(ps))])
        return is_unimodular_map(M)

    def test_base_case(self):
        assert basis_in_simplex([(5,)], 1) == [(Fraction(1),)]
        assert basis_in_simplex([(-3,)], 1) == [(Fraction(-1),)]
        assert basis_in_simplex([(5,)], Fraction(5, 2)) == [(Fraction(2, 5),)]

    def test_standard_square(self):
        ps = basis_in_simplex([(1, 0), (0, 1)], 1)
        assert ps == [frac_vec(1, 0), frac_vec(0, 1)]

    def test_skew_half_scale(self):
        qs = [(2, 1), (1, 3)]
        ps = basis_in_simplex(qs, 2)
        assert ps == [frac_vec(1, Fraction(1, 2)),
                      frac_vec(Fraction(1, 2), Fraction(1, 2))]
        assert self.is_scaled_basis(ps, 2)
        assert all(self.in_simplex(qs, p) for p in ps)

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionViolated):
            basis_in_simplex([(1, 0), (2, 0)], 1)
        with pytest.raises(PreconditionViolated):
            basis_in_simplex([(1, 0), (0, 1)], Fraction(1, 2))
        with pytest.raises(PreconditionViolated):
            basis_in_simplex([(1, 2, 0), (0, 1, 1), (1, 0, 1)],
                             factorial(2) - Fraction(1, 7))

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_instances(self, n, data):
        entry = st.integers(-4, 4)
        qs = [tuple(data.draw(entry) for _ in range(n)) for _ in range(n)]
        assume(det(Matrix.from_rows([[q[i] for q in qs]
                                     for i in range(n)])) != 0)
        r = factorial(n - 1) * (1 + Fraction(data.draw(st.integers(0, 4)), 2))
        ps = basis_in_simplex(qs, r)
        assert self.is_scaled_basis(ps, r)
        assert all(self.in_simplex(qs, p) for p in ps)


class TestGoodDecomposition:
    def test_one_dimensional(self):
        gd = good_decomposition(Matrix.from_rows([[1]]), (2,))
        spans = sorted((p.vertices[0][0], p.vertices[-1][0])
                       for p in gd.pieces)
        assert spans == [(Fraction(-1, 2), Fraction(0)),
                         (Fraction(0), Fraction(1, 2))]
        for p in gd.pieces:
            assert len(p.basis) == 1
            assert (2 * p.basis[0][0]).denominator == 1
            for v in p.vertices:
                assert gd.cell.contains(vec_add(p.basis[0], v))

    def check_pieces(self, gd, d):
        n = gd.cell.G.rows
        total = Fraction(0)
        for piece in gd.pieces:
            total += abs(polygon_area2(piece.vertices))
            rows = [integer_vector([d[i] * b[i] for i in range(n)])
                    for b in piece.basis]
            assert is_unimodular_map(Matrix.from_rows([list(r) for r in rows]))
            for b in piece.basis + piece.half_periods:
                for v in piece.vertices:
                    assert gd.cell.contains(vec_add(b, v))
        # covolume in lattice coordinates is 1 and the pieces sit inside
        # the cell, so matching total area means an exact partition
        assert total == 2

    def test_square_lattice(self):
        gd = good_decomposition(I2, (2, 2))
        self.check_pieces(gd, (2, 2))

    def test_hexagonal_lattice_with_chain(self):
        gd = good_decomposition(HEX, (2, 4))
        self.check_pieces(gd, (2, 4))

    def test_rejects_bad_type(self):
        with pytest.raises(PreconditionViolated):
            good_decomposition(I2, (1, 3))
        with pytest.raises(PreconditionViolated):
            good_decomposition(I2, (2, 3))
        with pytest.raises(DimensionUnsupported):
            good_decomposition(Matrix.identity(3), (2, 2, 2))
        with pytest.raises(NotPolarization):
            good_decomposition(Matrix.from_rows([[1, 2], [2, 1]]), (2, 2))


@st.composite
def skewed_data(draw):
    """A polarized datum with n = 1 or 2, a nonzero ell and, for n = 2, a
    non-diagonal L = U.diag(d).V of a type with d_1 >= 2, with
    Pmat = W.L for a symmetric positive definite W (so G = L^T W L)."""
    n = draw(st.integers(1, 2))
    ell = [draw(st.fractions(-3, 3, max_denominator=4)) for _ in range(n)]
    assume(any(ell))
    if n == 1:
        L = Matrix.from_rows([[draw(st.integers(2, 4))]])
        W = Matrix.from_rows([[draw(small_entries)]])
    else:
        s, t = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
        assume(s or t)
        d1 = draw(st.integers(2, 3))
        d2 = d1 * draw(st.integers(1, 2))
        L = (Matrix.from_rows([[1, s], [0, 1]])
             * diagonal_matrix([d1, d2]) * Matrix.from_rows([[1, 0], [t, 1]]))
        a, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        b = draw(st.sampled_from((0, Fraction(1, 2), Fraction(-1, 2), 1)))
        assume(b * b < a * c)
        W = Matrix.from_rows([[a, b], [b, c]])
    return validate_datum(build_torus(W * L), L, ell)


class TestIntegerContainment:
    @given(datum=skewed_data(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_the_fraction_containments(self, datum, data):
        # pieces, bases and certificates equal those of the Fraction
        # room and fits, per-piece bases and rational walk centers, or
        # both fail with the same message
        translates = data.draw(st.lists(
            st.tuples(*[st.integers(-1, 1)] * datum.n),
            min_size=1, max_size=2))
        try:
            want = decomposition_fractions(datum, translates)
        except CertificateFailed as exc:
            with pytest.raises(CertificateFailed) as got:
                certified_cells(datum, translates)
            assert str(got.value) == str(exc)
            return
        dec, certs = certified_cells(datum, translates)
        assert (list(dec.pieces), certs) == want

    @pytest.mark.parametrize("P, L, pieces, systems", [
        ([["0", "12"], ["-12", "6"]], [[0, 3], [-6, 3]], 48, 8),
        ([[2, 1], [1, 2]], [[2, 0], [0, 2]], 24, 8),
    ], ids=["panel-48", "hex"])
    def test_one_basis_per_half_period_system(self, monkeypatch, P, L,
                                              pieces, systems):
        calls = []
        basis = voronoi.basis_in_simplex

        def counted(qs, r):
            calls.append(tuple(qs))
            return basis(qs, r)
        monkeypatch.setattr(voronoi, "basis_in_simplex", counted)
        datum = validate_datum(build_torus(Matrix.from_rows(P)),
                               Matrix.from_rows(L), [0, 0])
        dec, _ = certified_cells(datum)
        assert len(dec.pieces) == pieces
        assert len(calls) == len({p.half_periods for p in dec.pieces}) \
            == systems


class TestCellTheta:
    def test_theta_vanishes_exactly_on_cell(self):
        # with ell = 0 the zero theta function vanishes at x exactly when
        # the period coordinates of x lie in the Voronoi cell of the Gram
        # lattice
        datum = validate_datum(build_torus(I2), HEX, [0, 0])
        theta = ThetaFunction(datum, (0, 0), Q_ELL)
        cell = VoronoiCell(HEX)
        for a in range(-4, 5):
            for b in range(-4, 5):
                w = (Fraction(a, 3), Fraction(b, 3))
                x = lattice_point(datum.torus, w)
                assert (theta_eval(theta, x) == 0) == cell.contains(w)


class TestCellCertificate:
    def elliptic(self):
        return validate_datum(build_torus(Matrix.from_rows([[12]])),
                              Matrix.from_rows([[2]]), [0])

    def square2(self):
        return validate_datum(build_torus(I2), diagonal_matrix([2, 2]),
                              [0, 0])

    def test_elliptic_certificates(self):
        datum = self.elliptic()
        dec, certs = certified_cells(
            datum, translates=[(0,), (1,), (-3,)])
        assert len(dec.pieces) == 2 and len(certs) == 6
        for cert in certs:
            assert cert.ells[0] == (0,)
            assert is_unimodular_map(
                Matrix.from_rows([list(e) for e in cert.ells[1:]]))
        assert {c.atilde for c in certs} == {(0,), (-1,), (3,)}

    def test_square_certificates(self):
        datum = self.square2()
        dec, certs = certified_cells(
            datum, translates=[(0, 0), (2, -1)])
        assert len(certs) == 2 * len(dec.pieces)
        for cert in certs:
            assert cert.ells[0] == (0, 0)
            assert is_unimodular_map(
                Matrix.from_rows([list(e) for e in cert.ells[1:]]))
            assert cert.atilde in ((0, 0), (-2, 1))

    def test_the_adapted_gram_is_built_once(self):
        datum = self.square2()
        Ga = adapted_gram(datum)
        assert adapted_gram(datum) is Ga
        V = polarization_type(datum).V
        assert Ga == V.transpose() * datum.G * V

    def test_tampered_argmin_fails(self):
        datum = self.elliptic()
        dec, _ = certified_cells(datum)
        with pytest.raises(CertificateFailed):
            cell_certificate(datum, dec.pieces[0], (0,), atilde=(1,))
        with pytest.raises(CertificateFailed):
            cell_certificate(datum, dec.pieces[1], (0,), atilde=(-1,))

    def test_mismatched_basis_rejected(self):
        datum = self.elliptic()
        bad = Piece(((Fraction(0),), (Fraction(1, 4),)),
                    ((Fraction(1, 2),),), ((Fraction(1, 3),),))
        with pytest.raises(PreconditionViolated):
            cell_certificate(datum, bad, (0,))

    def test_certificate_matches_theta_argmin(self):
        # the certificate objective and the theta minimization in the
        # adapted bases share the linear term h = G (y + l/d), hence the
        # same minimizer sets
        datum = self.square2()
        dec, certs = certified_cells(datum)
        ad = adapted_datum(datum)
        Ga = adapted_gram(datum)
        d = polarization_type(datum).type
        for piece, cert in zip(dec.pieces, certs):
            for ell in cert.ells:
                theta = ThetaFunction(ad, ell)
                for y in piece.vertices:
                    t = [y[i] + Fraction(ell[i], d[i]) for i in range(len(d))]
                    direct = lattice_argmin(Ga, Ga.matvec(t))
                    x = lattice_point(ad.torus, y)
                    assert theta_argmin(theta, x).minimizers == direct.minimizers


small_entries = st.fractions(min_value=Fraction(1, 3), max_value=2,
                             max_denominator=3)


@st.composite
def small_grams(draw):
    # positive definite 1 x 1 and 2 x 2 Gram matrices with small rational
    # entries; det >= ac/4 keeps the scanned ellipsoids small
    if draw(st.booleans()):
        return Matrix.from_rows([[draw(small_entries)]])
    a, c = draw(small_entries), draw(small_entries)
    b = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    assume(4 * b * b <= 3 * a * c)
    return Matrix.from_rows([[a, b], [b, c]])


class TestCutLines:
    @settings(max_examples=25, deadline=None)
    @given(small_grams())
    def test_one_half_lattice_ball_matches_the_nested_scan(self, G):
        cell = VoronoiCell(G)
        assert _cut_lines(cell) == nested_cut_lines(G.to_lists(),
                                                    cell.halfspaces)

    def test_square_lattice_lines(self):
        # x_i = k/2 for |k| <= 5: the facets x_i = +-1/2 moved by
        # t in (1/2) Z^2 with |t|^2 <= 2 tr I = 4, as coprime integers
        lines = _cut_lines(VoronoiCell(I2))
        assert lines == {((2 * e[0], 2 * e[1]), k) if k % 2 else (e, k // 2)
                         for e in ((1, 0), (0, 1)) for k in range(-5, 6)}


class TestSplitPolygon:
    SQUARE = [frac_vec(0, 0), frac_vec(1, 0), frac_vec(1, 1), frac_vec(0, 1)]

    def test_crossing_line_gives_two_parts(self):
        half = Fraction(1, 2)
        parts = _split_polygon(self.SQUARE, (2, 0), 1)
        assert parts == [
            [frac_vec(0, 0), (half, 0), (half, 1), frac_vec(0, 1)],
            [(half, 0), frac_vec(1, 0), frac_vec(1, 1), (half, 1)]]
        assert [polygon_area2(p) for p in parts] == [1, 1]

    def test_integer_vertices_give_exact_crossings(self):
        parts = _split_polygon([(0, 0), (1, 0), (1, 1), (0, 1)], (2, 1), 1)
        assert parts[0] == [(0, 0), (Fraction(1, 2), 0), (0, 1)]
        assert all(isinstance(c, (int, Fraction))
                   for part in parts for v in part for c in v)

    @pytest.mark.parametrize("a, c", [((1, 0), 1), ((1, 0), 0),
                                      ((0, -1), 0), ((1, 1), 2)])
    def test_edge_aligned_line_keeps_the_polygon(self, a, c):
        # a side or a vertex on the line: the other side has no area
        assert _split_polygon(self.SQUARE, a, c) == [self.SQUARE]

    @pytest.mark.parametrize("a, c", [((1, 0), 2), ((1, 0), -1),
                                      ((1, 1), -3)])
    def test_missing_line_keeps_the_polygon(self, a, c):
        assert _split_polygon(self.SQUARE, a, c) == [self.SQUARE]


class TestIntervalKernel:
    # the same kernel on 1-D points: intervals are [low end, high end]
    INTERVAL = [frac_vec(1), frac_vec(4)]

    def test_hull_keeps_the_end_points(self):
        pts = [(Fraction(3),), (Fraction(-2),), (Fraction(7, 2),),
               (Fraction(0),), (Fraction(-2),)]
        assert _hull(pts) == [frac_vec(-2), frac_vec("7/2")]

    def test_hull_of_one_point(self):
        assert _hull([frac_vec(5), frac_vec(5)]) == [frac_vec(5)]

    def test_positive_normal_puts_the_left_part_first(self):
        # 2x <= 5 is the side x <= 5/2
        assert _split_polygon(self.INTERVAL, (2,), 5) == [
            [frac_vec(1), frac_vec("5/2")], [frac_vec("5/2"), frac_vec(4)]]

    def test_negative_normal_puts_the_right_part_first(self):
        # -2x <= -5 is the side x >= 5/2
        assert _split_polygon(self.INTERVAL, (-2,), -5) == [
            [frac_vec("5/2"), frac_vec(4)], [frac_vec(1), frac_vec("5/2")]]

    @pytest.mark.parametrize("a, c", [((1,), 1), ((1,), 4), ((-3,), -12),
                                      ((1,), 0), ((1,), 9), ((-1,), 2)])
    def test_cut_at_an_end_or_outside_keeps_the_interval(self, a, c):
        assert _split_polygon(self.INTERVAL, a, c) == [self.INTERVAL]


coords = st.fractions(min_value=-4, max_value=4, max_denominator=4)
normals =st.tuples(st.one_of(st.integers(-3, 3), coords),
                    st.one_of(st.integers(-3, 3), coords)).filter(any)


@st.composite
def convex_polygons(draw):
    # the hull of a few rational points, with positive area
    pts = draw(st.lists(st.tuples(coords, coords), min_size=3, max_size=8))
    poly = _hull(pts)
    assume(len(poly) >= 3)
    return poly


def dot2(a, x):
    return a[0] * x[0] + a[1] * x[1]


class TestPolygonKernelAgainstTheClipOracle:
    @settings(max_examples=100, deadline=None)
    @given(convex_polygons(), normals, st.integers(1, 5))
    def test_crossing_lines(self, poly, a, k):
        # a.x = c with c strictly between the extreme values of a.x
        vals = sorted(dot2(a, p) for p in poly)
        assume(vals[0] < vals[-1])
        c = vals[0] + Fraction(k, 6) * (vals[-1] - vals[0])
        parts = _split_polygon(poly, a, c)
        assert len(parts) == 2
        assert parts == clip_split(poly, a, c)

    @settings(max_examples=50, deadline=None)
    @given(convex_polygons(), normals, st.data())
    def test_lines_through_a_vertex(self, poly, a, data):
        p = data.draw(st.sampled_from(poly))
        assert _split_polygon(poly, a, dot2(a, p)) == clip_split(
            poly, a, dot2(a, p))

    @settings(max_examples=50, deadline=None)
    @given(convex_polygons(), st.data(), st.sampled_from([1, -1]))
    def test_lines_along_an_edge(self, poly, data, sign):
        k = data.draw(st.integers(0, len(poly) - 1))
        p, q = poly[k], poly[(k + 1) % len(poly)]
        a = (sign * (q[1] - p[1]), sign * (p[0] - q[0]))
        assert _split_polygon(poly, a, dot2(a, p)) == [poly]
        assert clip_split(poly, a, dot2(a, p)) == [poly]

    @settings(max_examples=50, deadline=None)
    @given(convex_polygons(), normals, st.integers(1, 3), st.booleans())
    def test_missing_lines(self, poly, a, gap, above):
        vals = [dot2(a, p) for p in poly]
        c = max(vals) + gap if above else min(vals) - gap
        assert _split_polygon(poly, a, c) == [poly]
        assert clip_split(poly, a, c) == [poly]

    @settings(max_examples=100, deadline=None)
    @given(convex_polygons(), st.integers(-10 ** 6, 10 ** 6),
           st.integers(-10 ** 6, 10 ** 6), st.data())
    def test_integer_lines_with_large_coefficients(self, poly, a0, a1, data):
        # a.x = c for an integer line across, through or beside the polygon:
        # the integer kernel, the Fraction kernel it replaced and the clip
        # oracle agree, and every point of the kernel is canonical
        a = (a0, a1)
        assume(any(a))
        vals = [dot2(a, p) for p in poly]
        c = data.draw(st.one_of(
            st.integers(floor(min(vals)) - 1, ceil(max(vals)) + 1),
            st.sampled_from([v for v in vals if v.denominator == 1] or [0])))
        assert _split_polygon(poly, a, c) == split_polygon_fractions(
            poly, a, c) == clip_split(poly, a, c)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=10))
    def test_hull_matches_the_fraction_hull(self, pts):
        assert _hull(pts) == hull_fractions(pts)
        assert _hull([p[:1] for p in pts]) == hull_fractions(
            [p[:1] for p in pts])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(coords, coords), min_size=3, max_size=10))
    def test_hull_is_strictly_convex_and_holds_every_point(self, pts):
        hull = _hull(pts)
        assume(len(hull) >= 3)
        m = len(hull)
        assert hull[0] == min(pts)
        for i in range(m):
            p, q = hull[i], hull[(i + 1) % m]
            assert _cross(p, q, hull[(i + 2) % m]) > 0
            assert all(_cross(p, q, x) >= 0 for x in pts)
        assert polygon_area2(hull) > 0


@st.composite
def grams_2d(draw):
    # positive definite 2 x 2 Gram matrices with small rational entries
    entry = st.fractions(min_value=Fraction(1, 4), max_value=4,
                         max_denominator=4)
    a, c = draw(entry), draw(entry)
    b = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    assume(b * b < a * c)
    return Matrix.from_rows([[a, b], [b, c]])


class TestCellPolytopeOrder:
    @settings(max_examples=60, deadline=None)
    @given(grams_2d())
    def test_matches_the_centroid_order(self, G):
        # the vertex order of every decomposition piece in voronoi.json
        # starts from this order
        cell = VoronoiCell(G)
        assert _cell_polytope(cell) == centroid_ccw(
            polygon_vertices(cell.halfspaces))

    @pytest.mark.parametrize("G", [I2, HEX])
    def test_fixed_lattices(self, G):
        cell = VoronoiCell(G)
        assert _cell_polytope(cell) == centroid_ccw(
            polygon_vertices(cell.halfspaces))
