from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropitheta.exactlinalg import (
    Matrix, det, is_integer_vector, solve, vec_sub,
)
from tropitheta.errors import (
    DimensionUnsupported, NotPolarization, PreconditionViolated,
)
from tropitheta.embedding import (
    cell_matrices, check_injective, check_unimodular, faithful_certificate,
    fundamental_domain, image_complex_1d, linearity_cells, phi_eval,
)
from tropitheta.theta import Q_ELL, ThetaFunction, theta_eval, translate_datum
from tropitheta.torus import build_torus, polarization_type, validate_datum
from tropitheta.voronoi import _polygon_area2


def circle_datum(varpi=12, d=2, ell=None):
    torus = build_torus(Matrix.from_rows([[varpi]]))
    return validate_datum(torus, Matrix.from_rows([[d]]),
                          [0] if ell is None else ell)


def plane_datum(L_rows, ell=(0, 0), Pmat_rows=None):
    P = (Matrix.identity(2) if Pmat_rows is None
         else Matrix.from_rows(Pmat_rows))
    return validate_datum(build_torus(P), Matrix.from_rows(L_rows), ell)


def with_type(datum):
    return datum, polarization_type(datum)


def cell_interval(cm):
    return (cm.cell.vertices[0][0], cm.cell.vertices[-1][0])


def row_tuples(m):
    return tuple(tuple(m[r, c] for c in range(m.cols)) for r in range(m.rows))


def assert_affine_on_cell(datum, info, cm, samples):
    for x in samples:
        want = tuple(
            sum(cm.A[r, c] * x[c] for c in range(cm.A.cols)) + cm.offset[r]
            for r in range(cm.A.rows))
        assert phi_eval(datum, info, x) == want


def interior_samples_1d(cm, k=5):
    lo, hi = cell_interval(cm)
    return [(lo + (hi - lo) * Fraction(j, k + 1),) for j in range(1, k + 1)]


class TestPhiEval:
    def test_normalization_subtracts_base_theta(self):
        datum, info = with_type(circle_datum(d=3))
        x = (Fraction(5, 2),)
        b0 = info.reps[0]
        vals = [theta_eval(ThetaFunction(datum, b, Q_ELL), x)
                for b in info.reps]
        base = theta_eval(ThetaFunction(datum, b0, Q_ELL), x)
        assert phi_eval(datum, info, x) == tuple(v - base for v in vals[1:])

    def test_circle_values(self):
        d2, i2 = with_type(circle_datum(d=2))
        assert phi_eval(d2, i2, (0,)) == (Fraction(3),)
        d3, i3 = with_type(circle_datum(d=3))
        assert phi_eval(d3, i3, (2,)) == (Fraction(4), Fraction(0))
        assert phi_eval(d3, i3, (0,)) == (Fraction(2), Fraction(2))

    def test_coordinate_count_is_type_minus_one(self):
        for d in (2, 3, 4):
            datum, info = with_type(circle_datum(d=d))
            assert len(phi_eval(datum, info, (1,))) == d - 1
        datum, info = with_type(plane_datum([[3, 0], [0, 3]]))
        assert len(phi_eval(datum, info, (0, 0))) == 8

    def test_periodic_on_the_circle(self):
        datum, info = with_type(circle_datum(d=3))
        for x in (Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(7)):
            assert (phi_eval(datum, info, (x + 12,))
                    == phi_eval(datum, info, (x,)))

    def test_periodic_on_the_plane(self):
        datum, info = with_type(plane_datum([[3, 0], [0, 3]]))
        x = (Fraction(1, 3), Fraction(2, 7))
        v = phi_eval(datum, info, x)
        assert phi_eval(datum, info, (x[0] + 1, x[1])) == v
        assert phi_eval(datum, info, (x[0], x[1] + 1)) == v


class TestFundamentalDomain:
    def test_interval(self):
        datum = circle_datum(d=2)
        assert fundamental_domain(datum.torus) == [(0,), (12,)]

    def test_unit_square(self):
        datum = plane_datum([[3, 0], [0, 3]])
        dom = fundamental_domain(datum.torus)
        assert set(dom) == {(0, 0), (1, 0), (1, 1), (0, 1)}
        assert _polygon_area2(dom) == 2

    def test_sheared_parallelogram(self):
        datum = plane_datum([[2, 1], [0, 3]], Pmat_rows=[[2, 1], [0, 3]])
        dom = fundamental_domain(datum.torus)
        assert set(dom) == {(0, 0), (2, 0), (3, 3), (1, 3)}
        assert _polygon_area2(dom) == 2 * 6

    def test_three_dimensions_unsupported(self):
        torus = build_torus(Matrix.identity(3))
        with pytest.raises(DimensionUnsupported):
            fundamental_domain(torus)


class TestCircleCells:
    # full tables over one period, checked against hand computation
    def test_d2(self):
        datum, info = with_type(circle_datum(d=2))
        pam = linearity_cells(datum, info)
        assert [cell_interval(c) for c in pam.cells] == [(0, 6), (6, 12)]
        assert [row_tuples(c.A) for c in pam.cells] == [((-1,),), ((1,),)]
        assert [c.offset for c in pam.cells] == [(3,), (-9,)]

    def test_d3(self):
        datum, info = with_type(circle_datum(d=3))
        pam = linearity_cells(datum, info)
        assert ([cell_interval(c) for c in pam.cells]
                == [(0, 2), (2, 6), (6, 10), (10, 12)])
        assert ([row_tuples(c.A) for c in pam.cells]
                == [((1,), (-1,)), ((-2,), (-1,)),
                    ((1,), (2,)), ((1,), (-1,))])
        assert ([c.offset for c in pam.cells]
                == [(2, 2), (8, 2), (-10, -16), (-10, 14)])

    def test_d4(self):
        datum, info = with_type(circle_datum(d=4))
        pam = linearity_cells(datum, info)
        assert ([cell_interval(c) for c in pam.cells]
                == [(0, 3), (3, 6), (6, 9), (9, 12)])
        assert ([row_tuples(c.A) for c in pam.cells]
                == [((1,), (-2,), (-1,)), ((-3,), (-2,), (-1,)),
                    ((1,), (2,), (3,)), ((1,), (2,), (-1,))])
        h = Fraction(1, 2)
        assert ([c.offset for c in pam.cells]
                == [(3 * h, 6, 3 * h), (27 * h, 6, 3 * h),
                    (-21 * h, -18, -45 * h), (-21 * h, -18, 27 * h)])

    def test_cell_matrices_accessor(self):
        datum, info = with_type(circle_datum(d=3))
        pam = linearity_cells(datum, info)
        mats = cell_matrices(pam)
        assert mats == [c.A for c in pam.cells]
        assert row_tuples(mats[1]) == ((-2,), (-1,))

    def test_interior_samples_match_the_affine_formula(self):
        for d in (2, 3, 4):
            datum, info = with_type(circle_datum(d=d))
            pam = linearity_cells(datum, info)
            for cm in pam.cells:
                assert_affine_on_cell(datum, info, cm,
                                      interior_samples_1d(cm))

    def test_cells_tile_the_period(self):
        for d in (2, 3, 4, 5):
            datum, info = with_type(circle_datum(d=d))
            pam = linearity_cells(datum, info)
            ivs = [cell_interval(c) for c in pam.cells]
            assert ivs[0][0] == 0 and ivs[-1][1] == 12
            for left, right in zip(ivs, ivs[1:]):
                assert left[1] == right[0]
            assert all(lo < hi for lo, hi in ivs)

    def test_restricted_domain(self):
        datum, info = with_type(circle_datum(d=3))
        pam = linearity_cells(datum, info, domain=[(0,), (4,)])
        assert [cell_interval(c) for c in pam.cells] == [(0, 2), (2, 4)]
        assert row_tuples(pam.cells[1].A) == ((-2,), (-1,))

    @settings(max_examples=15, deadline=None)
    @given(d=st.integers(2, 6),
           num=st.integers(-8, 8), den=st.integers(1, 5))
    def test_random_circle_data_tile_and_agree(self, d, num, den):
        ell = [Fraction(num, den)]
        datum, info = with_type(circle_datum(d=d, ell=ell))
        pam = linearity_cells(datum, info)
        ivs = [cell_interval(c) for c in pam.cells]
        assert ivs[0][0] == 0 and ivs[-1][1] == 12
        for left, right in zip(ivs, ivs[1:]):
            assert left[1] == right[0]
        for cm in pam.cells:
            lo, hi = cell_interval(cm)
            assert_affine_on_cell(datum, info, cm, [((lo + hi) / 2,)])


class TestPlaneCells:
    def test_diag_three(self):
        datum, info = with_type(plane_datum([[3, 0], [0, 3]]))
        pam = linearity_cells(datum, info)
        assert len(pam.cells) == 16
        assert sum(abs(_polygon_area2(c.cell.vertices))
                   for c in pam.cells) == 2
        for cm in pam.cells:
            assert cm.cell.dim == 2
            assert len(cm.cell.vertices) >= 3
            bary = tuple(sum(v[i] for v in cm.cell.vertices)
                         / len(cm.cell.vertices) for i in range(2))
            assert_affine_on_cell(datum, info, cm,
                                  list(cm.cell.vertices) + [bary])

    def test_halfspaces_contain_their_cell(self):
        datum, info = with_type(plane_datum([[3, 0], [0, 3]]))
        pam = linearity_cells(datum, info)
        for cm in pam.cells:
            bary = tuple(sum(v[i] for v in cm.cell.vertices)
                         / len(cm.cell.vertices) for i in range(2))
            for normal, offset in cm.cell.halfspaces:
                for v in cm.cell.vertices:
                    assert sum(a * b for a, b in zip(normal, v)) <= offset
                assert sum(a * b for a, b in zip(normal, bary)) < offset

    def test_sheared_datum_with_offsets(self):
        h = Fraction(1, 3)
        W = [[1, h], [h, 1]]
        L = [[3, 1], [0, 3]]
        P = Matrix.from_rows(W) * Matrix.from_rows(L)
        datum = validate_datum(build_torus(P), Matrix.from_rows(L),
                               [Fraction(1, 2), Fraction(-1, 3)])
        info = polarization_type(datum)
        assert info.type == (1, 9)
        pam = linearity_cells(datum, info)
        assert (sum(abs(_polygon_area2(c.cell.vertices)) for c in pam.cells)
                == 2 * det(P))
        assert check_unimodular(pam)[0]
        for cm in pam.cells:
            assert_affine_on_cell(datum, info, cm, list(cm.cell.vertices))

    def test_not_polarized_rejected(self):
        t = build_torus(Matrix.identity(2))
        bad = validate_datum(t, Matrix.from_rows([[0, 1], [1, 0]]), (0, 0))
        _, info = with_type(plane_datum([[3, 0], [0, 3]]))
        with pytest.raises(NotPolarization):
            linearity_cells(bad, info)

    def test_three_dimensions_unsupported(self):
        L = Matrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        datum = validate_datum(build_torus(Matrix.identity(3)), L, [0, 0, 0])
        info = polarization_type(datum)
        with pytest.raises(DimensionUnsupported):
            linearity_cells(datum, info)

    def test_degenerate_domains_rejected(self):
        datum, info = with_type(circle_datum(d=2))
        with pytest.raises(PreconditionViolated):
            linearity_cells(datum, info, domain=[(3,), (3,)])
        datum2, info2 = with_type(plane_datum([[3, 0], [0, 3]]))
        with pytest.raises(PreconditionViolated):
            linearity_cells(datum2, info2,
                            domain=[(0, 0), (1, 1), (2, 2)])


class TestUnimodularity:
    def test_circle_tables(self):
        for d, expect in [(2, (True, True)),
                          (3, (True, True, True, True)),
                          (4, (True, True, True, True))]:
            datum, info = with_type(circle_datum(d=d))
            ok, verdicts = check_unimodular(linearity_cells(datum, info))
            assert ok and verdicts == expect

    def test_single_theta_has_no_rows(self):
        datum, info = with_type(circle_datum(varpi=5, d=1))
        pam = linearity_cells(datum, info)
        assert pam.cells[0].A.rows == 0 and pam.cells[0].A.cols == 1
        ok, verdicts = check_unimodular(pam)
        assert not ok and not any(verdicts)

    def test_principal_plane_fails(self):
        datum, info = with_type(plane_datum([[1, 0], [0, 1]]))
        assert not check_unimodular(linearity_cells(datum, info))[0]

    def test_diag_three_all_cells(self):
        datum, info = with_type(plane_datum([[3, 0], [0, 3]]))
        ok, verdicts = check_unimodular(linearity_cells(datum, info))
        assert ok and len(verdicts) == 16 and all(verdicts)

    def test_unimodular_maps_separate_representatives(self):
        # when every cell matrix has a unimodular row subset the
        # representatives must be pairwise distinct modulo L
        for datum, info in (with_type(circle_datum(d=3)),
                            with_type(plane_datum([[3, 0], [0, 3]]))):
            assert check_unimodular(linearity_cells(datum, info))[0]
            reps = info.reps
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    diff = vec_sub(reps[i], reps[j])
                    assert not is_integer_vector(solve(datum.L, diff))


class TestInjectivity:
    def test_d2_refuted_with_mirror_witness(self):
        datum, info = with_type(circle_datum(d=2))
        verdict = check_injective(datum, info, mode="exact")
        assert verdict.status == "refuted"
        assert verdict.witness == ((3,), (9,))
        x, y = verdict.witness
        assert phi_eval(datum, info, x) == phi_eval(datum, info, y)
        assert (Fraction(x[0] - y[0], 12)).denominator != 1

    def test_d3_and_d4_certified(self):
        for d in (3, 4):
            datum, info = with_type(circle_datum(d=d))
            verdict = check_injective(datum, info, mode="exact")
            assert verdict.status == "certified"
            assert verdict.witness is None

    @pytest.mark.parametrize("varpi", [12, 10 ** 13, 10 ** 18])
    def test_verdict_is_scale_invariant(self, varpi):
        # the verdict depends on the degree alone; large periods once
        # pushed the collision line out of a fixed parameter window and
        # certified degree 2
        for d, status in ((2, "refuted"), (3, "certified")):
            datum, info = with_type(circle_datum(varpi=varpi, d=d))
            verdict = check_injective(datum, info, mode="exact")
            assert verdict.status == status
            if status == "refuted":
                x, y = verdict.witness
                assert phi_eval(datum, info, x) == phi_eval(datum, info, y)
                assert (Fraction(x[0] - y[0]) / varpi).denominator != 1

    def test_grid_refutes_d2(self):
        datum, info = with_type(circle_datum(d=2))
        verdict = check_injective(datum, info, mode="grid", resolution=20)
        assert verdict.status == "refuted"
        x, y = verdict.witness
        assert phi_eval(datum, info, x) == phi_eval(datum, info, y)
        assert (Fraction(x[0] - y[0], 12)).denominator != 1

    def test_grid_cannot_certify(self):
        datum, info = with_type(circle_datum(d=3))
        verdict = check_injective(datum, info, mode="grid", resolution=10)
        assert verdict.status == "sampled-ok"

    def test_grid_refutes_the_plane_involution(self):
        # type (2, 2): phi is invariant under x -> -x
        datum, info = with_type(plane_datum([[2, 0], [0, 2]]))
        verdict = check_injective(datum, info, mode="grid", resolution=8)
        assert verdict.status == "refuted"
        x, y = verdict.witness
        assert phi_eval(datum, info, x) == phi_eval(datum, info, y)

    def test_exact_mode_needs_the_circle(self):
        datum, info = with_type(plane_datum([[3, 0], [0, 3]]))
        with pytest.raises(DimensionUnsupported):
            check_injective(datum, info, mode="exact")

    def test_unknown_mode(self):
        datum, info = with_type(circle_datum(d=2))
        with pytest.raises(ValueError):
            check_injective(datum, info, mode="annealing")

    def test_not_polarized_rejected(self):
        t = build_torus(Matrix.identity(2))
        bad = validate_datum(t, Matrix.from_rows([[0, 1], [1, 0]]), (0, 0))
        _, info = with_type(plane_datum([[3, 0], [0, 3]]))
        with pytest.raises(NotPolarization):
            check_injective(bad, info, mode="grid")


class TestImageComplex:
    def test_d2_degenerate_segment(self):
        datum, info = with_type(circle_datum(d=2))
        img = image_complex_1d(datum, info)
        assert img.breakpoints == (6,)
        assert img.parameters == (0, 6)
        assert img.vertices == ((3,), (-3,))
        assert img.directions == ((-1,), (1,))
        assert img.lattice_lengths == (6, 6)

    def test_d3_triangle(self):
        datum, info = with_type(circle_datum(d=3))
        img = image_complex_1d(datum, info)
        assert img.breakpoints == (2, 6, 10)
        assert img.parameters == (2, 6, 10)
        assert img.vertices == ((4, 0), (-4, -4), (0, 4))
        assert img.directions == ((-2, -1), (1, 2), (1, -1))
        assert img.lattice_lengths == (4, 4, 4)

    def test_d4_quadrangle(self):
        datum, info = with_type(circle_datum(d=4))
        img = image_complex_1d(datum, info)
        h = Fraction(1, 2)
        assert img.breakpoints == (3, 6, 9)
        assert img.parameters == (0, 3, 6, 9)
        assert img.vertices == ((3 * h, 6, 3 * h), (9 * h, 0, -3 * h),
                                (-9 * h, -6, -9 * h), (-3 * h, 0, 9 * h))
        assert img.directions == ((1, -2, -1), (-3, -2, -1),
                                  (1, 2, 3), (1, 2, -1))
        assert img.lattice_lengths == (3, 3, 3, 3)

    def test_total_lattice_length_is_the_period(self):
        for d in (2, 3, 4):
            datum, info = with_type(circle_datum(d=d))
            img = image_complex_1d(datum, info)
            assert sum(img.lattice_lengths) == 12

    def test_edges_close_up(self):
        from math import gcd
        for d in (2, 3, 4):
            datum, info = with_type(circle_datum(d=d))
            img = image_complex_1d(datum, info)
            m = len(img.vertices)
            for k in range(m):
                prim, ln = img.directions[k], img.lattice_lengths[k]
                assert gcd(*[abs(int(c)) for c in prim] + [0]) == 1
                step = tuple(c * ln for c in prim)
                nxt = img.vertices[(k + 1) % m]
                assert tuple(a + s for a, s in zip(img.vertices[k], step)) \
                    == nxt
            for i in range(d - 1):
                assert sum(img.directions[k][i] * img.lattice_lengths[k]
                           for k in range(m)) == 0

    def test_vertices_match_the_map(self):
        datum, info = with_type(circle_datum(d=4))
        img = image_complex_1d(datum, info)
        for p, v in zip(img.parameters, img.vertices):
            assert phi_eval(datum, info, (p,)) == v

    def test_plane_unsupported(self):
        datum, info = with_type(plane_datum([[3, 0], [0, 3]]))
        with pytest.raises(DimensionUnsupported):
            image_complex_1d(datum, info)


class TestFaithfulCertificate:
    def test_circle_verdicts(self):
        expect = {2: (True, "refuted", False),
                  3: (True, "certified", True),
                  4: (True, "certified", True)}
        for d, (uni, status, faith) in expect.items():
            datum, info = with_type(circle_datum(d=d))
            rep = faithful_certificate(datum, info)
            assert (rep.unimodular, rep.injective.status, rep.faithful) \
                == (uni, status, faith)

    def test_single_theta_not_faithful(self):
        datum, info = with_type(circle_datum(varpi=5, d=1))
        rep = faithful_certificate(datum, info, resolution=4)
        assert not rep.unimodular and not rep.faithful

    def test_diag_three_plane(self):
        datum, info = with_type(plane_datum([[3, 0], [0, 3]]))
        rep = faithful_certificate(datum, info, resolution=8)
        assert rep.unimodular
        assert rep.injective.status == "sampled-ok"
        assert rep.faithful

    def test_sampled_three_dimensions(self):
        for dd, faith, status in [(2, False, "refuted"),
                                  (3, True, "sampled-ok")]:
            L = Matrix.from_rows([[dd, 0, 0], [0, dd, 0], [0, 0, dd]])
            datum = validate_datum(build_torus(Matrix.identity(3)), L,
                                   [0, 0, 0])
            info = polarization_type(datum)
            rep = faithful_certificate(datum, info, resolution=4)
            assert rep.unimodular
            assert rep.injective.status == status
            assert rep.faithful is faith

    def test_translation_preserves_the_verdict(self):
        # replacing ell by ell - G.v translates phi, so the report
        # must not change
        datum, info = with_type(circle_datum(d=2))
        moved = translate_datum(datum, [Fraction(1, 4)])[0]
        r0 = faithful_certificate(datum, info)
        r1 = faithful_certificate(moved, polarization_type(moved))
        assert ((r0.unimodular, r0.injective.status, r0.faithful)
                == (r1.unimodular, r1.injective.status, r1.faithful))
        x, y = r1.injective.witness
        assert phi_eval(moved, polarization_type(moved), x) \
            == phi_eval(moved, polarization_type(moved), y)

    def test_translation_preserves_the_verdict_plane(self):
        datum, info = with_type(plane_datum([[3, 0], [0, 3]]))
        moved = translate_datum(datum,
                                [Fraction(1, 3), Fraction(1, 5)])[0]
        r0 = faithful_certificate(datum, info, resolution=8)
        r1 = faithful_certificate(moved, polarization_type(moved),
                                  resolution=8)
        assert ((r0.unimodular, r0.injective.status, r0.faithful)
                == (r1.unimodular, r1.injective.status, r1.faithful))


PLANE_LAMBDAS = ([[1, 1], [-1, 1]], [[2, 1], [1, 2]], [[1, 2], [1, -1]],
                 [[2, 1], [0, 2]])


@st.composite
def skewed_data(draw):
    """Circle or plane data with ell != 0; plane data have a non-diagonal
    L and Pmat = W.L with W symmetric positive definite, so that G is
    L^T.W.L."""
    def ell(n):
        head = Fraction(draw(st.integers(-6, 6).filter(bool)),
                        draw(st.integers(1, 4)))
        return [head] + [Fraction(draw(st.integers(-6, 6)),
                                  draw(st.integers(1, 4)))
                         for _ in range(n - 1)]
    if draw(st.booleans()):
        varpi = Fraction(draw(st.integers(3, 15)), draw(st.integers(1, 2)))
        return circle_datum(varpi, draw(st.integers(2, 5)), ell(1))
    L = Matrix.from_rows(draw(st.sampled_from(PLANE_LAMBDAS)))
    h = Fraction(draw(st.integers(-2, 2)), 5)
    P = Matrix.from_rows([[1, h], [h, 1]]) * L
    return validate_datum(build_torus(P), L, ell(2))


def interior_points(cm):
    # the centroid and the points a quarter of the way from it to each
    # vertex: all strictly inside a full-dimensional cell
    verts = cm.cell.vertices
    n = len(verts[0])
    center = tuple(sum(v[i] for v in verts) / len(verts) for i in range(n))
    return [center] + [tuple((3 * c + p) / 4 for c, p in zip(center, v))
                       for v in verts]


class TestFastPathsAgainstTheSlowPath:
    """phi_eval, the cached affine pieces and a passed cell map against
    per-representative theta_eval and recomputed cell maps."""

    @settings(max_examples=25, deadline=None)
    @given(datum=skewed_data(),
           nums=st.lists(st.integers(-40, 40), min_size=2, max_size=2),
           den=st.integers(1, 7))
    def test_phi_eval_is_a_difference_of_thetas(self, datum, nums, den):
        info = polarization_type(datum)
        x = tuple(Fraction(c, den) for c in nums[:datum.n])
        thetas = [theta_eval(ThetaFunction(datum, b, Q_ELL), x)
                  for b in info.reps]
        assert phi_eval(datum, info, x) == tuple(t - thetas[0]
                                                 for t in thetas[1:])

    @settings(max_examples=25, deadline=None)
    @given(datum=skewed_data())
    def test_cells_are_affine_and_a_passed_map_changes_nothing(self, datum):
        info = polarization_type(datum)
        pam = linearity_cells(datum, info)
        for cm in pam.cells:
            assert_affine_on_cell(datum, info, cm, interior_points(cm))
        assert linearity_cells(datum, info) == pam
        assert (faithful_certificate(datum, info, resolution=4, pam=pam)
                == faithful_certificate(datum, info, resolution=4))
        if datum.n == 1:
            assert image_complex_1d(datum, info, pam) \
                == image_complex_1d(datum, info)
            assert check_injective(datum, info, pam=pam) \
                == check_injective(datum, info)
