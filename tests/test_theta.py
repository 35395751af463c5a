from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropitheta.exactlinalg import (
    Matrix, dot, inverse, solve, vec_add, vec_scale, vec_sub,
)
from tropitheta.errors import NotPolarization, PreconditionViolated
from tropitheta.theta import _ball
from tropitheta.theta import (
    INF, LAMBDA_GAMMA, Q_ELL, ThetaFunction, lattice_argmin, theta_eval,
)
from tropitheta.torus import build_torus, validate_datum

from oracles import (
    ThetaCombination, box_argmin, certified_box_argmin, concavity_check,
    diagonal_matrix, ellipsoid_box_scan, floor_plus_sqrt,
    gamma_rational_check, gram_norm, lattice_point, min_plus_eval,
    quasi_periodicity_check, round_half_up, sublattice_identity_check,
    translate_datum,
)


def circle_datum(varpi=12, d=2, ell=None):
    torus = build_torus(Matrix.from_rows([[varpi]]))
    return validate_datum(torus, Matrix.from_rows([[d]]),
                          [0] if ell is None else ell)


def theta_table_d3(b, x):
    """Piecewise formulas of the three theta functions for the d=3 circle,
    varpi=12, transcribed independently of the engine."""
    x = Fraction(x)
    assert 0 <= x < 12
    if b == 0:
        return Fraction(0) if x <= 6 else -3 * x + 18
    if b == 1:
        return x + 2 if x <= 2 else -2 * x + 8
    if b == 2:
        return -x + 2 if x <= 10 else -4 * x + 32
    raise ValueError(b)


def pd2_datum(a, b, c, ell=(0, 0)):
    torus = build_torus(Matrix.identity(2))
    return validate_datum(torus, Matrix.from_rows([[a, b], [b, c]]), ell)


def assert_matches_box_oracle(G, h):
    """lattice_argmin(G, h) against exhaustive box enumeration, the box
    centered on the rounded continuous minimizer and sized by the certified
    component bound (G^-1)_ii * R^2."""
    n = G.rows
    ahat = solve(G, [-t for t in h])
    center = [round_half_up(t) for t in ahat]
    R2 = gram_norm(G, vec_sub(center, ahat))
    Ginv = inverse(G)
    radius = 1
    for i in range(n):
        radius = max(radius, 1 + floor_plus_sqrt(
            abs(ahat[i] - center[i]), Ginv[i, i] * R2))
    res = lattice_argmin(G, h)
    value, mins = box_argmin(G.to_lists(), h, radius, center)
    assert res.value == value
    assert list(res.minimizers) == mins
    assert res.tie == (len(mins) > 1)


class TestExactRounding:
    def test_round_half_up(self):
        assert round_half_up(Fraction(1, 2)) == 1
        assert round_half_up(Fraction(-1, 2)) == 0
        assert round_half_up(Fraction(7, 3)) == 2
        assert round_half_up(Fraction(-7, 3)) == -2

    def test_floor_plus_sqrt(self):
        assert floor_plus_sqrt(Fraction(0), Fraction(2)) == 1
        assert floor_plus_sqrt(Fraction(1, 2), Fraction(9, 4)) == 2
        assert floor_plus_sqrt(Fraction(-5, 2), Fraction(4)) == -1

    @pytest.mark.parametrize("c, r, floor_plus, ceil_minus", [
        (Fraction(0), Fraction(0), 0, 0),
        (Fraction(7, 3), Fraction(0), 2, 3),
        (Fraction(-7, 3), Fraction(0), -3, -2),
        (Fraction(-3), Fraction(0), -3, -3),
        (Fraction(0), Fraction(9), 3, -3),
        (Fraction(1, 2), Fraction(25, 4), 3, -2),
        (Fraction(-1, 2), Fraction(25, 4), 2, -3),
        (Fraction(-5, 3), Fraction(4, 9), -1, -2),
        (Fraction(-5, 3), Fraction(1, 9), -2, -2),
        (Fraction(-4), Fraction(2), -3, -5),
    ])
    def test_closed_forms_at_edges(self, c, r, floor_plus, ceil_minus):
        # r = 0, perfect squares that land on an integer, negative c;
        # ceil(c - sqrt(r)) = -floor(-c + sqrt(r)) checks it at -c
        assert floor_plus_sqrt(c, r) == floor_plus
        assert -floor_plus_sqrt(-c, r) == ceil_minus

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=-50, max_value=50),
           st.one_of(st.fractions(min_value=0, max_value=2500),
                     st.fractions(min_value=-50, max_value=50).map(
                         lambda x: x * x)))
    def test_floor_plus_sqrt_is_exact(self, c, r):
        k = floor_plus_sqrt(c, r)
        # k <= c + sqrt(r) < k + 1, checked by squaring
        d = Fraction(k) - c
        assert d <= 0 or d * d <= r
        d1 = Fraction(k + 1) - c
        assert d1 > 0 and d1 * d1 > r


class TestLatticeArgmin:
    def test_trivial(self):
        res = lattice_argmin(Matrix.from_rows([[2]]), (0,))
        assert res.minimizers == ((0,),)
        assert res.value == 0
        assert not res.tie

    def test_tie(self):
        res = lattice_argmin(Matrix.from_rows([[2]]), (1,))
        assert res.minimizers == ((-1,), (0,))
        assert res.value == 0
        assert res.tie

    def test_2d_value_fixed_by_oracle(self):
        G = [[2, 1], [1, 2]]
        h = (-2, -2)
        value, mins = box_argmin(G, h, 5)
        res = lattice_argmin(Matrix.from_rows(G), h)
        assert res.value == value
        assert list(res.minimizers) == mins

    def test_not_pd_rejected(self):
        with pytest.raises(NotPolarization):
            lattice_argmin(Matrix.from_rows([[0, 1], [1, 0]]), (0, 0))
        with pytest.raises(NotPolarization):
            lattice_argmin(Matrix.from_rows([[-2]]), (0,))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_matches_brute_force(self, n, data):
        # random PD Gram via B^T B + I, random small rational h
        rows = data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            min_size=n, max_size=n))
        B = Matrix.from_rows(rows)
        G = B.transpose() * B + diagonal_matrix([1] * n)
        num = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        den = data.draw(st.integers(1, 2))
        h = tuple(Fraction(x, den) for x in num)
        assert_matches_box_oracle(G, h)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_matches_box_oracle_on_rational_gram(self, n, data):
        # non-integral PD Gram B^T B / s + I; h either random or
        # -G.(half-integer vector), which puts ahat on a half-integer point
        # where ties are common
        rows = data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            min_size=n, max_size=n))
        B = Matrix.from_rows(rows)
        s = data.draw(st.integers(2, 5))
        G = (B.transpose() * B).scale(Fraction(1, s)) + Matrix.identity(n)
        if data.draw(st.booleans()):
            num = data.draw(st.lists(st.integers(-9, 9), min_size=n,
                                     max_size=n))
            den = data.draw(st.integers(1, 6))
            h = tuple(Fraction(x, den) for x in num)
        else:
            halves = data.draw(st.lists(st.integers(-7, 7), min_size=n,
                                        max_size=n))
            h = vec_scale(-1, G.matvec([Fraction(x, 2) for x in halves]))
        assert_matches_box_oracle(G, h)

    def test_tie_at_half_integer_center(self):
        # ahat = (1/2, 1/2) for the identity: all four corners tie
        res = lattice_argmin(Matrix.identity(2), (Fraction(-1, 2),) * 2)
        assert res.minimizers == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert res.value == 0
        assert res.tie

    def test_interleaved_gram_matrices(self):
        # alternate Gram matrices of equal and of different size, each
        # rebuilt every time, so an answer prepared for another G shows
        grams = [
            [[1, 0], [0, 10]],
            [[10, 0], [0, 1]],
            [[Fraction(5, 2), 1], [1, Fraction(3, 2)]],
            [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
        ]
        for rows in grams * 3:
            n = len(rows)
            for h in [(Fraction(-7, 3),) * n, tuple(range(n))]:
                assert_matches_box_oracle(Matrix.from_rows(rows), h)


class TestBruteForceArgmin:
    def test_certified_trivial(self):
        assert certified_box_argmin([[2]], (0,), 3) == (0, [(0,)])

    def test_certified_tie_at_boundary_bound(self):
        _, mins = certified_box_argmin([[1000, 0], [0, 1]],
                                       (0, Fraction(1, 2)), 1)
        assert mins == [(0, -1), (0, 0)]

    def test_window_insufficient(self):
        # nearly singular Gram: the certified bound (G^-1)_11 R^2 = 5/2
        # exceeds (1 - 1/2)^2, so radius 1 cannot certify; radius 3 can,
        # and reveals a three-way tie the small box also contained
        G = [[2, 3], [3, 5]]
        h = (-1, Fraction(-3, 2))
        assert certified_box_argmin(G, h, 1) is None
        value, mins = certified_box_argmin(G, h, 3)
        assert mins == [(-1, 1), (0, 0), (1, 0), (2, -1)]
        assert value == 0

    def test_agrees_with_lattice_argmin(self):
        for G_rows, h in [
            ([[2, 1], [1, 2]], (-2, -2)),
            ([[3]], (Fraction(3, 2),)),
            ([[4, 1], [1, 4]], (0, Fraction(1, 2))),
        ]:
            res = lattice_argmin(Matrix.from_rows(G_rows), h)
            value, mins = certified_box_argmin(G_rows, h, 6)
            assert res == (tuple(mins), value, len(mins) > 1)


@st.composite
def pd_rational_grams(draw):
    # A^T A + diag(s) with small rational A and s >= 1/2, n = 1..3: positive
    # definite, with (G^-1)_ii <= 2 keeping the scanned boxes small
    n = draw(st.integers(1, 3))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    A = [[draw(small) for _ in range(n)] for _ in range(n)]
    s = [draw(st.fractions(min_value=Fraction(1, 2), max_value=3,
                           max_denominator=4)) for _ in range(n)]
    return [[sum(A[k][i] * A[k][j] for k in range(n))
             + (s[i] if i == j else 0) for j in range(n)] for i in range(n)]


class TestBallEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(pd_rational_grams(),
           st.fractions(min_value=0, max_value=10, max_denominator=5))
    def test_matches_the_box_scan(self, rows, bound):
        G = Matrix.from_rows(rows)
        assert sorted(_ball(G, bound)) == ellipsoid_box_scan(rows, bound)

    @settings(max_examples=30, deadline=None)
    @given(pd_rational_grams())
    def test_below_the_shortest_vector_only_the_origin(self, rows):
        # each unit vector e_i has norm G_ii, so the scan up to min G_ii
        # holds a shortest nonzero vector
        n = len(rows)
        G = Matrix.from_rows(rows)
        shortest = min(gram_norm(G, v) for v in ellipsoid_box_scan(
            rows, min(rows[i][i] for i in range(n))) if any(v))
        assert _ball(G, shortest / 2) == [(0,) * n]
        assert ellipsoid_box_scan(rows, shortest / 2) == [(0,) * n]
        assert len(_ball(G, shortest)) >= 3

    @settings(max_examples=30, deadline=None)
    @given(pd_rational_grams(),
           st.fractions(min_value=-5, max_value=0, max_denominator=5).filter(
               lambda x: x < 0))
    def test_negative_bound_is_empty(self, rows, bound):
        assert _ball(Matrix.from_rows(rows), bound) == []
        assert ellipsoid_box_scan(rows, bound) == []


class TestThetaEval:
    def test_printed_table_d3(self):
        datum = circle_datum(d=3)
        for b in (0, 1, 2):
            theta = ThetaFunction(datum, (b,), Q_ELL)
            for k in range(24):
                x = Fraction(k, 2)
                assert theta_eval(theta, (x,)) == theta_table_d3(b, x)

    def test_spot_values_d3(self):
        datum = circle_datum(d=3)
        vals = [theta_eval(ThetaFunction(datum, (b,), Q_ELL), (3,))
                for b in (0, 1, 2)]
        assert vals == [0, 2, -1]

    def test_theta_zero_at_origin(self):
        datum = circle_datum(d=3)
        assert theta_eval(ThetaFunction(datum, (0,), LAMBDA_GAMMA), (0,)) == 0

    def test_conventions_differ_by_constant(self):
        datum = circle_datum(d=3, ell=(6,))
        tl = ThetaFunction(datum, (1,), LAMBDA_GAMMA)
        tq = ThetaFunction(datum, (1,), Q_ELL)
        diffs = {theta_eval(tq, (x,)) - theta_eval(tl, (x,))
                 for x in (0, 1, Fraction(7, 2), 9)}
        assert len(diffs) == 1

    def test_q_ell_invariant_under_representative_change(self):
        datum = pd2_datum(2, 1, 2)
        for w in ((1, 0), (0, 1), (2, -1)):
            b = (1, 1)
            shifted = tuple(b[i] + int(datum.L.matvec(w)[i]) for i in range(2))
            t0 = ThetaFunction(datum, b, Q_ELL)
            t1 = ThetaFunction(datum, shifted, Q_ELL)
            for x in ((0, 0), (Fraction(1, 3), Fraction(-2, 5)), (1, 7)):
                assert theta_eval(t0, x) == theta_eval(t1, x)

    def test_requires_polarization(self):
        t = build_torus(Matrix.identity(2))
        datum = validate_datum(t, Matrix.from_rows([[0, 1], [1, 0]]), (0, 0))
        with pytest.raises(NotPolarization):
            ThetaFunction(datum, (0, 0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-20, 20), st.integers(1, 5), st.integers(0, 2))
    def test_matches_direct_minimum(self, num, den, b):
        # direct evaluation of the defining minimum over a wide window
        datum = circle_datum(d=3)
        x = Fraction(num, den)
        direct = min((3 * a + b) * x + Fraction(12 * (3 * a + b) ** 2, 6)
                     for a in range(-12, 13))
        theta = ThetaFunction(datum, (b,), Q_ELL)
        assert theta_eval(theta, (x,)) == direct


class TestQuasiPeriodicity:
    def test_zero_shift(self):
        datum = circle_datum(d=3)
        theta = ThetaFunction(datum, (1,), LAMBDA_GAMMA)
        assert quasi_periodicity_check(theta, (Fraction(5, 3),), (0,))

    def test_printed_shift_d4(self):
        # one full period: theta0(x+12) = theta0(x) - Q(x,u') - Q(u',u')/2
        # with Q = 4/12: shift at x=1 is -4 - 24
        datum = circle_datum(d=4)
        theta = ThetaFunction(datum, (0,), Q_ELL)
        lhs = theta_eval(theta, (13,))
        rhs = theta_eval(theta, (1,)) - 4 - 24
        assert lhs == rhs
        assert quasi_periodicity_check(theta, (1,), (1,))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_2d(self, data):
        rows = data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=2, max_size=2),
            min_size=2, max_size=2))
        B = Matrix.from_rows(rows)
        L = B.transpose() * B + diagonal_matrix([1, 1])
        ell = data.draw(st.lists(st.integers(-4, 4), min_size=2, max_size=2))
        datum = pd2_datum(int(L[0, 0]), int(L[0, 1]), int(L[1, 1]),
                          tuple(ell))
        b = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=2,
                                     max_size=2)))
        conv = data.draw(st.sampled_from([LAMBDA_GAMMA, Q_ELL]))
        theta = ThetaFunction(datum, b, conv)
        x = tuple(Fraction(data.draw(st.integers(-8, 8)),
                           data.draw(st.integers(1, 3))) for _ in range(2))
        w = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=2,
                                     max_size=2)))
        assert quasi_periodicity_check(theta, x, w)


class TestMinPlusAndRationality:
    def test_single_term(self):
        datum = circle_datum(d=3)
        comb = ThetaCombination([(0, ThetaFunction(datum, (1,), Q_ELL))])
        assert min_plus_eval(comb, (3,)) == 2

    def test_infinite_branches_ignored(self):
        datum = circle_datum(d=3)
        comb = ThetaCombination([
            (INF, ThetaFunction(datum, (0,), Q_ELL)),
            (Fraction(1, 2), ThetaFunction(datum, (2,), Q_ELL)),
        ])
        assert min_plus_eval(comb, (3,)) == Fraction(-1, 2)

    def test_table_values_at_six(self):
        datum = circle_datum(d=3)
        comb = ThetaCombination([
            (0, ThetaFunction(datum, (b,), Q_ELL)) for b in (0, 1, 2)])
        # theta values at x=6 are 0, -4, -4
        assert min_plus_eval(comb, (6,)) == -4

    def test_empty_finite_set_rejected(self):
        datum = circle_datum(d=3)
        comb = ThetaCombination([(INF, ThetaFunction(datum, (0,), Q_ELL))])
        with pytest.raises(PreconditionViolated):
            min_plus_eval(comb, (0,))
        with pytest.raises(PreconditionViolated):
            gamma_rational_check(comb)

    def test_rationality(self):
        datum = circle_datum(d=3)
        comb = ThetaCombination([
            (0, ThetaFunction(datum, (0,), Q_ELL)),
            (Fraction(1, 2), ThetaFunction(datum, (1,), Q_ELL)),
            (INF, ThetaFunction(datum, (2,), Q_ELL)),
        ])
        assert gamma_rational_check(comb)

    def test_float_coefficient_fails_rationality(self):
        datum = circle_datum(d=3)
        comb = ThetaCombination([(0.5, ThetaFunction(datum, (0,), Q_ELL))])
        assert not gamma_rational_check(comb)


class TestTranslateDatum:
    def test_zero_translation(self):
        datum = circle_datum(d=3)
        moved, const = translate_datum(datum, (0,))
        assert moved.ellVec == datum.ellVec
        assert const == 0

    def test_scalar_example(self):
        datum = circle_datum(d=3, ell=(6,))  # G = 36
        moved, const = translate_datum(datum, (Fraction(1, 6),))
        assert moved.ellVec == (0,)
        assert const == Fraction(1, 2)

    def test_identity_at_canonical_translation(self):
        # v = G^-1.ell kills ell and theta'(x) + const = theta(x + Pmat.v)
        datum = circle_datum(d=3, ell=(6,))
        v = (Fraction(1, 6),)
        moved, const = translate_datum(datum, v)
        t_old = ThetaFunction(datum, (1,), Q_ELL)
        t_new = ThetaFunction(moved, (1,), Q_ELL)
        shift = lattice_point(datum.torus, v)
        for x in ((0,), (Fraction(5, 2),), (-7,)):
            assert (theta_eval(t_new, x) + const
                    == theta_eval(t_old, vec_add(x, shift)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-6, 6), st.integers(1, 4), st.integers(-5, 5),
           st.integers(-9, 9), st.integers(1, 3), st.integers(0, 2))
    def test_general_identity(self, vnum, vden, ell0, xnum, xden, b):
        # theta(x + Pmat.v) = theta'(x) + ell.v - const, Q_ELL convention
        datum = circle_datum(d=3, ell=(ell0,))
        v = (Fraction(vnum, vden),)
        moved, const = translate_datum(datum, v)
        t_old = ThetaFunction(datum, (b,), Q_ELL)
        t_new = ThetaFunction(moved, (b,), Q_ELL)
        x = (Fraction(xnum, xden),)
        lhs = theta_eval(t_old, vec_add(x, lattice_point(datum.torus, v)))
        rhs = theta_eval(t_new, x) + dot(datum.ellVec, v) - const
        assert lhs == rhs


class TestSublatticeIdentity:
    def test_d2_circle_on_samples(self):
        datum = circle_datum(d=2)
        for x in (1, 3, 5, Fraction(7, 3), 0):
            assert sublattice_identity_check(datum, (x,))

    def test_diag22_grid(self):
        t = build_torus(Matrix.identity(2))
        datum = validate_datum(t, Matrix.from_rows([[2, 0], [0, 2]]), (0, 0))
        for i in range(5):
            for j in range(5):
                x = (Fraction(i, 5), Fraction(j, 5))
                assert sublattice_identity_check(datum, x)

    def test_requires_zero_ell(self):
        datum = circle_datum(d=2, ell=(1,))
        with pytest.raises(PreconditionViolated):
            sublattice_identity_check(datum, (0,))

    def test_requires_adapted_basis(self):
        datum = pd2_datum(2, 1, 2)
        with pytest.raises(PreconditionViolated):
            sublattice_identity_check(datum, (0, 0))


class TestConcavity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(-10, 10), st.integers(-10, 10),
           st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
           st.integers(0, 3))
    def test_concave_on_circle(self, xa, xb, t, b):
        datum = circle_datum(d=4)
        theta = ThetaFunction(datum, (b,), Q_ELL)
        assert concavity_check(theta, (Fraction(xa, 3),), (Fraction(xb, 3),), t)
