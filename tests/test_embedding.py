import inspect
import json
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from tropitheta.exactlinalg import (
    Matrix, det, is_integer_vector, solve, vec_sub,
)
from tropitheta.errors import (
    DimensionUnsupported, NotPolarization, PreconditionViolated,
)
from tropitheta import (
    cli, embedding, exactlinalg, nalift, theta, torus, voronoi,
)
from tropitheta.embedding import (
    CellMap, PiecewiseAffineMap, check_injective, check_unimodular,
    faithful_certificate, fundamental_domain, image_complex_1d,
    linearity_cells, phi_eval,
)
from tropitheta.theta import Q_ELL, ThetaFunction, affine_piece, theta_eval
from tropitheta.torus import build_torus, polarization_type, validate_datum

from oracles import (
    affine_piece_fractions, cell_matrices, injective_all_pairs,
    invariant_factors, polygon_area2, translate_datum,
)


def circle_datum(varpi=12, d=2, ell=None):
    torus = build_torus(Matrix.from_rows([[varpi]]))
    return validate_datum(torus, Matrix.from_rows([[d]]),
                          [0] if ell is None else ell)


def plane_datum(L_rows, ell=(0, 0), Pmat_rows=None):
    P = (Matrix.identity(2) if Pmat_rows is None
         else Matrix.from_rows(Pmat_rows))
    return validate_datum(build_torus(P), Matrix.from_rows(L_rows), ell)


def cell_interval(cm):
    return (cm.vertices[0][0], cm.vertices[-1][0])


def row_tuples(m):
    return tuple(tuple(m[r, c] for c in range(m.cols)) for r in range(m.rows))


def assert_affine_on_cell(datum, cm, samples):
    A = Matrix(len(cm.A), datum.n, [e for row in cm.A for e in row])
    for x in samples:
        want = tuple(
            sum(A[r, c] * x[c] for c in range(A.cols)) + cm.offset[r]
            for r in range(A.rows))
        assert phi_eval(datum, x) == want


def interior_samples_1d(cm, k=5):
    lo, hi = cell_interval(cm)
    return [(lo + (hi - lo) * Fraction(j, k + 1),) for j in range(1, k + 1)]


class TestPhiEval:
    def test_normalization_subtracts_base_theta(self):
        datum = circle_datum(d=3)
        x = (Fraction(5, 2),)
        reps = polarization_type(datum).reps
        b0 = reps[0]
        vals = [theta_eval(ThetaFunction(datum, b, Q_ELL), x)
                for b in reps]
        base = theta_eval(ThetaFunction(datum, b0, Q_ELL), x)
        assert phi_eval(datum, x) == tuple(v - base for v in vals[1:])

    def test_circle_values(self):
        d2 = circle_datum(d=2)
        assert phi_eval(d2, (0,)) == (Fraction(3),)
        d3 = circle_datum(d=3)
        assert phi_eval(d3, (2,)) == (Fraction(4), Fraction(0))
        assert phi_eval(d3, (0,)) == (Fraction(2), Fraction(2))

    def test_coordinate_count_is_type_minus_one(self):
        for d in (2, 3, 4):
            datum = circle_datum(d=d)
            assert len(phi_eval(datum, (1,))) == d - 1
        datum = plane_datum([[3, 0], [0, 3]])
        assert len(phi_eval(datum, (0, 0))) == 8

    def test_periodic_on_the_circle(self):
        datum = circle_datum(d=3)
        for x in (Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(7)):
            assert (phi_eval(datum, (x + 12,))
                    == phi_eval(datum, (x,)))

    def test_periodic_on_the_plane(self):
        datum = plane_datum([[3, 0], [0, 3]])
        x = (Fraction(1, 3), Fraction(2, 7))
        v = phi_eval(datum, x)
        assert phi_eval(datum, (x[0] + 1, x[1])) == v
        assert phi_eval(datum, (x[0], x[1] + 1)) == v


class TestFundamentalDomain:
    def test_interval(self):
        datum = circle_datum(d=2)
        assert fundamental_domain(datum.torus) == [(0,), (12,)]

    def test_unit_square(self):
        datum = plane_datum([[3, 0], [0, 3]])
        dom = fundamental_domain(datum.torus)
        assert set(dom) == {(0, 0), (1, 0), (1, 1), (0, 1)}
        assert polygon_area2(dom) == 2

    def test_sheared_parallelogram(self):
        datum = plane_datum([[2, 1], [0, 3]], Pmat_rows=[[2, 1], [0, 3]])
        dom = fundamental_domain(datum.torus)
        assert set(dom) == {(0, 0), (2, 0), (3, 3), (1, 3)}
        assert polygon_area2(dom) == 2 * 6

    def test_three_dimensions_unsupported(self):
        torus = build_torus(Matrix.identity(3))
        with pytest.raises(DimensionUnsupported):
            fundamental_domain(torus)


class TestCircleCells:
    # full tables over one period, checked against hand computation
    def test_d2(self):
        datum = circle_datum(d=2)
        pam = linearity_cells(datum)
        assert [cell_interval(c) for c in pam.cells] == [(0, 6), (6, 12)]
        assert [c.A for c in pam.cells] == [((-1,),), ((1,),)]
        assert [c.offset for c in pam.cells] == [(3,), (-9,)]

    def test_d3(self):
        datum = circle_datum(d=3)
        pam = linearity_cells(datum)
        assert ([cell_interval(c) for c in pam.cells]
                == [(0, 2), (2, 6), (6, 10), (10, 12)])
        assert ([c.A for c in pam.cells]
                == [((1,), (-1,)), ((-2,), (-1,)),
                    ((1,), (2,)), ((1,), (-1,))])
        assert ([c.offset for c in pam.cells]
                == [(2, 2), (8, 2), (-10, -16), (-10, 14)])

    def test_d4(self):
        datum = circle_datum(d=4)
        pam = linearity_cells(datum)
        assert ([cell_interval(c) for c in pam.cells]
                == [(0, 3), (3, 6), (6, 9), (9, 12)])
        assert ([c.A for c in pam.cells]
                == [((1,), (-2,), (-1,)), ((-3,), (-2,), (-1,)),
                    ((1,), (2,), (3,)), ((1,), (2,), (-1,))])
        h = Fraction(1, 2)
        assert ([c.offset for c in pam.cells]
                == [(3 * h, 6, 3 * h), (27 * h, 6, 3 * h),
                    (-21 * h, -18, -45 * h), (-21 * h, -18, 27 * h)])

    def test_cell_matrices_accessor(self):
        datum = circle_datum(d=3)
        pam = linearity_cells(datum)
        mats = cell_matrices(pam)
        assert [row_tuples(m) for m in mats] == [c.A for c in pam.cells]
        assert row_tuples(mats[1]) == ((-2,), (-1,))
        # the cell map's rows are plain ints, not Fractions
        assert {type(e) for c in pam.cells for row in c.A for e in row} \
            == {int}

    def test_interior_samples_match_the_affine_formula(self):
        for d in (2, 3, 4):
            datum = circle_datum(d=d)
            pam = linearity_cells(datum)
            for cm in pam.cells:
                assert_affine_on_cell(datum, cm,
                                      interior_samples_1d(cm))

    def test_cells_tile_the_period(self):
        for d in (2, 3, 4, 5):
            datum = circle_datum(d=d)
            pam = linearity_cells(datum)
            ivs = [cell_interval(c) for c in pam.cells]
            assert ivs[0][0] == 0 and ivs[-1][1] == 12
            for left, right in zip(ivs, ivs[1:]):
                assert left[1] == right[0]
            assert all(lo < hi for lo, hi in ivs)

    def test_restricted_domain(self):
        datum = circle_datum(d=3)
        pam = linearity_cells(datum, domain=[(0,), (4,)])
        assert [cell_interval(c) for c in pam.cells] == [(0, 2), (2, 4)]
        assert pam.cells[1].A == ((-2,), (-1,))

    @settings(max_examples=15, deadline=None)
    @given(d=st.integers(2, 6),
           num=st.integers(-8, 8), den=st.integers(1, 5))
    def test_random_circle_data_tile_and_agree(self, d, num, den):
        ell = [Fraction(num, den)]
        datum = circle_datum(d=d, ell=ell)
        pam = linearity_cells(datum)
        ivs = [cell_interval(c) for c in pam.cells]
        assert ivs[0][0] == 0 and ivs[-1][1] == 12
        for left, right in zip(ivs, ivs[1:]):
            assert left[1] == right[0]
        for cm in pam.cells:
            lo, hi = cell_interval(cm)
            assert_affine_on_cell(datum, cm, [((lo + hi) / 2,)])


class TestPlaneCells:
    def test_diag_three(self):
        datum = plane_datum([[3, 0], [0, 3]])
        pam = linearity_cells(datum)
        assert len(pam.cells) == 16
        assert sum(abs(polygon_area2(c.vertices))
                   for c in pam.cells) == 2
        for cm in pam.cells:
            assert len(cm.vertices[0]) == 2
            assert len(cm.vertices) >= 3
            bary = tuple(sum(v[i] for v in cm.vertices)
                         / len(cm.vertices) for i in range(2))
            assert_affine_on_cell(datum, cm,
                                  list(cm.vertices) + [bary])

    def test_sheared_datum_with_offsets(self):
        h = Fraction(1, 3)
        W = [[1, h], [h, 1]]
        L = [[3, 1], [0, 3]]
        P = Matrix.from_rows(W) * Matrix.from_rows(L)
        datum = validate_datum(build_torus(P), Matrix.from_rows(L),
                               [Fraction(1, 2), Fraction(-1, 3)])
        assert polarization_type(datum).type == (1, 9)
        pam = linearity_cells(datum)
        assert (sum(abs(polygon_area2(c.vertices)) for c in pam.cells)
                == 2 * det(P))
        assert check_unimodular(pam)[0]
        for cm in pam.cells:
            assert_affine_on_cell(datum, cm, list(cm.vertices))

    def test_not_polarized_rejected(self):
        t = build_torus(Matrix.identity(2))
        bad = validate_datum(t, Matrix.from_rows([[0, 1], [1, 0]]), (0, 0))
        with pytest.raises(NotPolarization):
            linearity_cells(bad)

    def test_three_dimensions_unsupported(self):
        L = Matrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        datum = validate_datum(build_torus(Matrix.identity(3)), L, [0, 0, 0])
        with pytest.raises(DimensionUnsupported):
            linearity_cells(datum)

    def test_degenerate_domains_rejected(self):
        datum = circle_datum(d=2)
        with pytest.raises(PreconditionViolated):
            linearity_cells(datum, domain=[(3,), (3,)])
        datum2 = plane_datum([[3, 0], [0, 3]])
        with pytest.raises(PreconditionViolated):
            linearity_cells(datum2, domain=[(0, 0), (1, 1), (2, 2)])


class TestUnimodularity:
    def test_circle_tables(self):
        for d, expect in [(2, (True, True)),
                          (3, (True, True, True, True)),
                          (4, (True, True, True, True))]:
            datum = circle_datum(d=d)
            ok, verdicts = check_unimodular(linearity_cells(datum))
            assert ok and verdicts == expect

    def test_single_theta_has_no_rows(self):
        datum = circle_datum(varpi=5, d=1)
        pam = linearity_cells(datum)
        assert pam.cells[0].A == () and len(pam.cells[0].vertices[0]) == 1
        ok, verdicts = check_unimodular(pam)
        assert not ok and not any(verdicts)

    def test_principal_plane_fails(self):
        datum = plane_datum([[1, 0], [0, 1]])
        assert not check_unimodular(linearity_cells(datum))[0]

    def test_diag_three_all_cells(self):
        datum = plane_datum([[3, 0], [0, 3]])
        ok, verdicts = check_unimodular(linearity_cells(datum))
        assert ok and len(verdicts) == 16 and all(verdicts)

    def test_unimodular_maps_separate_representatives(self):
        # when every cell matrix has a unimodular row subset the
        # representatives must be pairwise distinct modulo L
        for datum in (circle_datum(d=3), plane_datum([[3, 0], [0, 3]])):
            assert check_unimodular(linearity_cells(datum))[0]
            reps = polarization_type(datum).reps
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    diff = vec_sub(reps[i], reps[j])
                    assert not is_integer_vector(solve(datum.L, diff))


class TestInjectivity:
    def test_d2_refuted_with_mirror_witness(self):
        datum = circle_datum(d=2)
        verdict = check_injective(datum, mode="exact")
        assert verdict.status == "refuted"
        assert verdict.witness == ((3,), (9,))
        x, y = verdict.witness
        assert phi_eval(datum, x) == phi_eval(datum, y)
        assert (Fraction(x[0] - y[0], 12)).denominator != 1

    def test_d3_and_d4_certified(self):
        for d in (3, 4):
            datum = circle_datum(d=d)
            verdict = check_injective(datum, mode="exact")
            assert verdict.status == "certified"
            assert verdict.witness is None

    @pytest.mark.parametrize("varpi", [12, 10 ** 13, 10 ** 18])
    def test_verdict_is_scale_invariant(self, varpi):
        # the verdict depends on the degree alone; large periods once
        # pushed the collision line out of a fixed parameter window and
        # certified degree 2
        for d, status in ((2, "refuted"), (3, "certified")):
            datum = circle_datum(varpi=varpi, d=d)
            verdict = check_injective(datum, mode="exact")
            assert verdict.status == status
            if status == "refuted":
                x, y = verdict.witness
                assert phi_eval(datum, x) == phi_eval(datum, y)
                assert (Fraction(x[0] - y[0]) / varpi).denominator != 1

    def test_grid_refutes_d2(self):
        datum = circle_datum(d=2)
        verdict = check_injective(datum, mode="grid", resolution=20)
        assert verdict.status == "refuted"
        x, y = verdict.witness
        assert phi_eval(datum, x) == phi_eval(datum, y)
        assert (Fraction(x[0] - y[0], 12)).denominator != 1

    def test_grid_cannot_certify(self):
        datum = circle_datum(d=3)
        verdict = check_injective(datum, mode="grid", resolution=10)
        assert verdict.status == "sampled-ok"

    def test_grid_refutes_the_plane_involution(self):
        # type (2, 2): phi is invariant under x -> -x
        datum = plane_datum([[2, 0], [0, 2]])
        verdict = check_injective(datum, mode="grid", resolution=8)
        assert verdict.status == "refuted"
        x, y = verdict.witness
        assert phi_eval(datum, x) == phi_eval(datum, y)

    def test_exact_mode_needs_the_circle(self):
        datum = plane_datum([[3, 0], [0, 3]])
        with pytest.raises(DimensionUnsupported):
            check_injective(datum, mode="exact")

    def test_unknown_mode(self):
        datum = circle_datum(d=2)
        with pytest.raises(ValueError):
            check_injective(datum, mode="annealing")

    def test_not_polarized_rejected(self):
        t = build_torus(Matrix.identity(2))
        bad = validate_datum(t, Matrix.from_rows([[0, 1], [1, 0]]), (0, 0))
        with pytest.raises(NotPolarization):
            check_injective(bad, mode="grid")


class TestIntegerCellMap:
    """The cell map stays in integers from the refinement to the
    unimodularity verdicts."""

    # acceptance-test-04's first draw: type (3, 6), D = 18, 42 cells
    PLANE_4 = ([[6, -3], [-6, 6]], (0, 0), [[6, 0], [-18, 21]])

    def test_no_matrix_or_smith_form_per_cell(self, monkeypatch):
        # the per-datum constants (the type, theta's coset data, the
        # offsets) are built by a first map on a small domain; after it the
        # refinement, the cell maps and check_unimodular build no Matrix
        # and run no Smith elimination
        want = check_unimodular(linearity_cells(plane_datum(*self.PLANE_4)))
        datum = plane_datum(*self.PLANE_4)
        linearity_cells(datum, domain=[(0, 0), (1, 0), (0, 1)])

        def refuse(*args):
            raise AssertionError("a Matrix or a Smith form per cell")
        monkeypatch.setattr(exactlinalg, "_smith", refuse)
        monkeypatch.setattr(Matrix, "__init__", refuse)
        pam = linearity_cells(datum)
        assert check_unimodular(pam) == want
        assert want[0] and len(pam.cells) == 42
        assert {type(e) for cm in pam.cells for row in cm.A for e in row} \
            == {int}
        assert all(len(cm.A) == 17 and all(len(row) == 2 for row in cm.A)
                   for cm in pam.cells)

    @pytest.mark.parametrize("argv, payload, count", [
        # Pmat^-1, the LDL^T of G, U^-1, L^-1, r = G^-1.ell, and the LDL^T
        # and inverse of the coset walk's Gram matrix
        (["certify", "--resolution", "8"], {"datum": {
            "Pmat": {"rows": 2, "cols": 2, "entries": ["8", "16", "-16", "0"]},
            "L": {"rows": 2, "cols": 2, "entries": ["3", "6", "-3", "0"]},
            "ell": ["0", "0"]}}, 7),
        # the LDL^T and inverse of G, by the walk
        (["voronoi"], {"G": {"rows": 3, "cols": 3, "entries": [
            "4", "1", "-1", "1", "3", "1/2", "-1", "1/2", "5"]}}, 2)],
        ids=["certify-plane", "voronoi-gram"])
    def test_eliminations_per_job(self, monkeypatch, tmp_path, argv,
                                  payload, count):
        # each constant of the datum or the Gram matrix is derived once:
        # one rational elimination apiece
        calls = []
        eliminate = exactlinalg._eliminate

        def counted(M, extra=None):
            calls.append(M)
            return eliminate(M, extra)
        monkeypatch.setattr(exactlinalg, "_eliminate", counted)
        theta._prepared.cache_clear()
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
        assert cli.main(argv[:1] + ["--input", str(path)] + argv[1:]
                        + ["--output", str(tmp_path / "out")]) == 0
        assert len(calls) == count

    def test_two_unknowns_stay_exact_on_integer_slopes(self):
        # integer slope entries with a Fraction offset: every quotient is a
        # Fraction, never a float, so (1, 2, 1/3) is found on the line of
        # (3, 6, 1)
        solve_two = embedding._solve_two_unknowns
        sol = solve_two([(3, 6, 1), (1, 2, Fraction(1, 3))])
        assert sol == ("line", (Fraction(1, 3), 0), (-6, 3))
        assert type(sol[1][0]) is Fraction
        sol = solve_two([(1, 1, 1), (1, -1, 0)])
        assert sol == ("point", (Fraction(1, 2), Fraction(1, 2)))
        assert all(type(c) is Fraction for c in sol[1])


class TestInjectivitySweep:
    """The box sweep of exact injectivity against the all-pairs loop."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 30),
           varpi=st.builds(Fraction, st.integers(3, 15), st.integers(1, 2)),
           sign=st.sampled_from((1, -1)),
           ell=st.builds(Fraction, st.integers(-6, 6).filter(bool),
                         st.integers(1, 4)))
    def test_same_verdict_and_witness_as_all_pairs(self, d, varpi, sign, ell):
        # L takes the sign of the period, so the datum is polarized; d <= 2
        # is refuted, and at d = 1 phi~ has no coordinates and every cell
        # has A = 0, so the diagonal is solved too
        datum = circle_datum(sign * varpi, sign * d, [ell])
        verdict = check_injective(datum)
        assert verdict == injective_all_pairs(linearity_cells(datum), varpi)
        assert verdict.status == ("refuted" if d <= 2 else "certified")

    def test_boxes_that_only_touch_are_solved(self):
        # phi~ = x on [0, 1] and x - 1 on [2, 3]: the images [0, 1] and
        # [1, 2] share one value, and 1 - 2 is not a period of 12
        pam = PiecewiseAffineMap(((0,), (1,), (2,)), tuple(
            CellMap(((Fraction(lo),), (Fraction(lo + 1),)), (),
                    ((1,), (0,)), (Fraction(off), Fraction(0)))
            for lo, off in ((0, 0), (2, -1))))
        verdict = embedding._injective_exact_1d(pam, 12)
        assert verdict == injective_all_pairs(pam, 12)
        assert verdict.witness == ((1,), (2,))

    def test_solves_at_most_two_pairs_per_cell(self, monkeypatch):
        # at these degrees only neighbours overlap, and those with
        # independent slope columns are skipped: what is solved is exactly
        # the parallel neighbours, none at d = 64 (the quadratic loop
        # solves 2080 pairs there)
        calls = []
        solve_pair = embedding._collision_pair

        def counted(*args):
            calls.append(args)
            return solve_pair(*args)

        monkeypatch.setattr(embedding, "_collision_pair", counted)
        for d, parallel in ((3, 1), (5, 1), (64, 0)):
            datum = circle_datum(d=d)
            calls.clear()
            assert check_injective(datum).status == "certified"
            assert len(calls) == parallel_neighbours(datum) == parallel


def parallel_neighbours(datum):
    # the pairs of cells i, i + 1 and of the first and last cell whose
    # slope columns have rank below 2
    cells = linearity_cells(datum).cells
    pairs = [(i, i + 1) for i in range(len(cells) - 1)]
    pairs.append((0, len(cells) - 1))
    return sum(len(invariant_factors(Matrix.from_rows(
        [[u, w] for (u,), (w,) in zip(cells[i].A, cells[j].A)])))
        < 2 for i, j in pairs)


class TestImageComplex:
    def test_d2_degenerate_segment(self):
        datum = circle_datum(d=2)
        img = image_complex_1d(datum)
        assert img.breakpoints == (6,)
        assert img.parameters == (0, 6)
        assert img.vertices == ((3,), (-3,))
        assert img.directions == ((-1,), (1,))
        assert img.lattice_lengths == (6, 6)

    def test_d3_triangle(self):
        datum = circle_datum(d=3)
        img = image_complex_1d(datum)
        assert img.breakpoints == (2, 6, 10)
        assert img.parameters == (2, 6, 10)
        assert img.vertices == ((4, 0), (-4, -4), (0, 4))
        assert img.directions == ((-2, -1), (1, 2), (1, -1))
        assert img.lattice_lengths == (4, 4, 4)

    def test_d4_quadrangle(self):
        datum = circle_datum(d=4)
        img = image_complex_1d(datum)
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
            datum = circle_datum(d=d)
            img = image_complex_1d(datum)
            assert sum(img.lattice_lengths) == 12

    def test_edges_close_up(self):
        from math import gcd
        for d in (2, 3, 4):
            datum = circle_datum(d=d)
            img = image_complex_1d(datum)
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
        datum = circle_datum(d=4)
        img = image_complex_1d(datum)
        for p, v in zip(img.parameters, img.vertices):
            assert phi_eval(datum, (p,)) == v

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 9),
           ell=st.fractions(min_value=-7, max_value=7,
                            max_denominator=5).filter(bool),
           varpi=st.fractions(min_value=1, max_value=30, max_denominator=4),
           flip=st.booleans())
    def test_vertices_read_off_the_cells_match_phi_eval(self, d, ell, varpi,
                                                         flip):
        # a negative period with a negative lambda is still polarized; its
        # domain [varpi, 0] is ordered by the hull
        sign = -1 if flip else 1
        datum = circle_datum(varpi=sign * varpi,
                                             d=sign * d, ell=[ell])
        img = image_complex_1d(datum)
        assert img.vertices == tuple(phi_eval(datum, (p,))
                                     for p in img.parameters)

    def test_plane_unsupported(self):
        datum = plane_datum([[3, 0], [0, 3]])
        with pytest.raises(DimensionUnsupported):
            image_complex_1d(datum)


class TestFaithfulCertificate:
    def test_circle_verdicts(self):
        expect = {2: (True, "refuted", False),
                  3: (True, "certified", True),
                  4: (True, "certified", True)}
        for d, (uni, status, faith) in expect.items():
            datum = circle_datum(d=d)
            rep = faithful_certificate(datum)
            assert (rep.unimodular, rep.injective.status, rep.faithful) \
                == (uni, status, faith)

    def test_single_theta_not_faithful(self):
        datum = circle_datum(varpi=5, d=1)
        rep = faithful_certificate(datum, resolution=4)
        assert not rep.unimodular and not rep.faithful

    def test_diag_three_plane(self):
        datum = plane_datum([[3, 0], [0, 3]])
        rep = faithful_certificate(datum, resolution=8)
        assert rep.unimodular
        assert rep.injective.status == "sampled-ok"
        assert rep.faithful

    def test_sampled_three_dimensions(self):
        for dd, faith, status in [(2, False, "refuted"),
                                  (3, True, "sampled-ok")]:
            L = Matrix.from_rows([[dd, 0, 0], [0, dd, 0], [0, 0, dd]])
            datum = validate_datum(build_torus(Matrix.identity(3)), L,
                                   [0, 0, 0])
            rep = faithful_certificate(datum, resolution=4)
            assert rep.unimodular
            assert rep.injective.status == status
            assert rep.faithful is faith

    @pytest.mark.parametrize("resolution", [0, -3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_empty_grid_is_rejected(self, n, resolution):
        # a grid of no points samples nothing and must not report
        # sampled-ok; n = 3 samples both halves on a grid
        L = Matrix.from_rows([[2 if i == j else 0 for j in range(n)]
                              for i in range(n)])
        datum = validate_datum(
            build_torus(Matrix.identity(n)), L, [0] * n)
        with pytest.raises(PreconditionViolated):
            faithful_certificate(datum, resolution=resolution)
        with pytest.raises(PreconditionViolated):
            check_injective(datum, mode="grid", resolution=resolution)

    def test_mode_forces_the_injectivity_check(self):
        datum = circle_datum(d=3)
        assert faithful_certificate(datum, resolution=8, mode="grid") \
            .injective.status == "sampled-ok"
        assert faithful_certificate(datum, mode="exact") \
            .injective.status == "certified"
        plane = plane_datum([[3, 0], [0, 3]])
        with pytest.raises(DimensionUnsupported):
            faithful_certificate(plane, mode="exact")
        # above n = 2 both halves are sampled whatever the mode
        L = Matrix.from_rows([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
        space = validate_datum(build_torus(Matrix.identity(3)), L, [0, 0, 0])
        assert faithful_certificate(space, resolution=4, mode="exact") \
            == faithful_certificate(space, resolution=4)

    def test_one_grid_walk_above_the_plane(self, monkeypatch):
        # n = 3 samples unimodularity and injectivity on one pass over the
        # 6^3 grid: one coset walk per point
        calls = []
        walk = embedding._coset_argmins

        def counted(datum, v):
            calls.append(v)
            return walk(datum, v)
        monkeypatch.setattr(embedding, "_coset_argmins", counted)
        P = Matrix.from_rows([[4, 1, 0], [1, 5, 1], [0, 1, 6]])
        L = Matrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        datum = validate_datum(build_torus(P), L, [Fraction(1, 3), 0,
                                                   Fraction(-1, 2)])
        rep = faithful_certificate(datum)
        assert len(calls) == len(set(calls)) == 216
        assert rep.faithful and rep.injective.status == "sampled-ok"

    def test_translation_preserves_the_verdict(self):
        # replacing ell by ell - G.v translates phi, so the report
        # must not change
        datum = circle_datum(d=2)
        moved = translate_datum(datum, [Fraction(1, 4)])[0]
        r0 = faithful_certificate(datum)
        r1 = faithful_certificate(moved)
        assert ((r0.unimodular, r0.injective.status, r0.faithful)
                == (r1.unimodular, r1.injective.status, r1.faithful))
        x, y = r1.injective.witness
        assert phi_eval(moved, x) == phi_eval(moved, y)

    def test_translation_preserves_the_verdict_plane(self):
        datum = plane_datum([[3, 0], [0, 3]])
        moved = translate_datum(datum,
                                [Fraction(1, 3), Fraction(1, 5)])[0]
        r0 = faithful_certificate(datum, resolution=8)
        r1 = faithful_certificate(moved, resolution=8)
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
    verts = cm.vertices
    n = len(verts[0])
    center = tuple(sum(v[i] for v in verts) / len(verts) for i in range(n))
    return [center] + [tuple((3 * c + p) / 4 for c, p in zip(center, v))
                       for v in verts]


class TestFastPathsAgainstTheSlowPath:
    """phi_eval, the cached affine pieces and the memoized cell map against
    per-representative theta_eval and the map of a fresh datum."""

    @settings(max_examples=25, deadline=None)
    @given(datum=skewed_data(),
           nums=st.lists(st.integers(-40, 40), min_size=2, max_size=2),
           den=st.integers(1, 7))
    def test_phi_eval_is_a_difference_of_thetas(self, datum, nums, den):
        x = tuple(Fraction(c, den) for c in nums[:datum.n])
        thetas = [theta_eval(ThetaFunction(datum, b, Q_ELL), x)
                  for b in polarization_type(datum).reps]
        assert phi_eval(datum, x) == tuple(t - thetas[0]
                                           for t in thetas[1:])

    @settings(max_examples=25, deadline=None)
    @given(datum=skewed_data(), data=st.data())
    def test_integer_pieces_and_bisectors(self, datum, data):
        # the integer pieces against the Fraction ones, and the integer
        # bisector line N.x = c on the side where the first piece is lower
        vec = st.lists(st.integers(-4, 4), min_size=datum.n,
                       max_size=datum.n).map(tuple)
        a1, a2 = data.draw(vec), data.draw(vec)
        x = tuple(Fraction(data.draw(st.integers(-40, 40)), 7)
                  for _ in range(datum.n))
        for b in polarization_type(datum).reps:
            (s1, o1), (s2, o2) = (affine_piece(datum, b, a) for a in (a1, a2))
            assert (s1, o1) == affine_piece_fractions(datum, b, a1)
            assert (s2, o2) == affine_piece_fractions(datum, b, a2)
            normal, c = embedding._bisector(datum, b, a1, a2)
            assert all(isinstance(v, int) for v in (*normal, c))
            side = sum(map(mul, normal, x)) - c
            gap = sum(map(mul, vec_sub(s1, s2), x)) + o1 - o2
            assert (side > 0) - (side < 0) == (gap > 0) - (gap < 0)

    @pytest.mark.parametrize("rows", [[["3/2", 1], [-2, "5/3"]],
                                      [[6, 0], [-18, 21]], [["7/2"]]])
    def test_integer_grid_points(self, rows):
        # the grid of the injectivity and unimodularity samples against
        # P.(i / resolution) in Fractions, in the order of product
        P = Matrix.from_rows(rows)
        want = [tuple(P.matvec([Fraction(i, 3) for i in idx]))
                for idx in product(range(3), repeat=P.rows)]
        got = list(embedding._grid(P, 3))
        assert [tuple(Fraction(c, v[-1]) for c in v[:-1]) for v in got] \
            == want

    @settings(max_examples=25, deadline=None)
    @given(datum=skewed_data())
    def test_cells_are_affine_and_the_map_memoized(self, datum):
        # the checks that read the memoized map agree with those on a
        # fresh copy of the datum, which builds its own
        pam = linearity_cells(datum)
        for cm in pam.cells:
            assert_affine_on_cell(datum, cm, interior_points(cm))
        fresh = validate_datum(datum.torus, datum.L, datum.ellVec)
        assert linearity_cells(fresh) == pam
        assert (faithful_certificate(datum, resolution=4)
                == faithful_certificate(fresh, resolution=4))
        if datum.n == 1:
            assert image_complex_1d(datum) == image_complex_1d(fresh)
            assert check_injective(datum) == check_injective(fresh)
        assert linearity_cells(datum) is pam


class TestPerDatumMemos:
    """The polarization type and the cell maps are functions of the datum:
    each is built once and read from the datum's memo after, and no
    function takes them as a parameter."""

    DATA = [lambda: circle_datum(d=5), lambda: plane_datum([[3, 0], [0, 3]])]

    def count(self, monkeypatch, name):
        calls = []
        original = getattr(embedding, name)

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(embedding, name, counted)
        return calls

    def test_the_type_is_built_once(self):
        datum = plane_datum([[3, 0], [0, 3]])
        assert polarization_type(datum) is polarization_type(datum)

    @pytest.mark.parametrize("make", DATA, ids=["circle", "plane"])
    def test_a_second_call_walks_nothing(self, make, monkeypatch):
        datum = make()
        walks = self.count(monkeypatch, "_coset_argmins")
        pam = linearity_cells(datum)
        assert walks
        walks.clear()
        assert linearity_cells(datum) is pam
        assert walks == []

    def test_a_restricted_domain_gets_its_own_map(self):
        datum = circle_datum(d=3)
        pam = linearity_cells(datum)
        part = linearity_cells(datum, domain=[(0,), (4,)])
        assert [cell_interval(c) for c in part.cells] == [(0, 2), (2, 4)]
        assert linearity_cells(datum) is pam
        assert len(pam.cells) == 4
        # the key is the domain's hull, whatever order or extra points
        assert linearity_cells(datum, domain=[(4,), (1,), (0,)]) is part

    @pytest.mark.parametrize("make", DATA, ids=["circle", "plane"])
    def test_the_checks_build_no_second_map(self, make, monkeypatch):
        datum = make()
        refinements = self.count(monkeypatch, "_refine_pieces")
        pam = linearity_cells(datum)
        faithful_certificate(datum, resolution=4)
        if datum.n == 1:
            image_complex_1d(datum)
            check_injective(datum)
        assert len(refinements) == 1
        assert linearity_cells(datum) is pam

    def test_no_function_takes_a_type_or_a_cell_map(self):
        # a type or a cell map of another datum cannot be handed in; only
        # check_unimodular and the n = 1 sweep take a map, as their subject
        allowed = {"check_unimodular", "_injective_exact_1d"}
        for module in (torus, theta, embedding, voronoi, nalift, cli):
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) \
                        and fn.__module__ == module.__name__:
                    params = set(inspect.signature(fn).parameters)
                    assert "info" not in params, name
                    assert "pam" not in params or name in allowed, name
