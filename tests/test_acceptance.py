"""End-to-end acceptance checks, one test per criterion, all exact.

Every comparison is over the rationals with tolerance zero.  Randomized
criteria use fixed seeds so the run is reproducible.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from oracles import (
    ThetaCombination, box_argmin, is_unimodular_map, min_plus_eval,
    on_boundary, quasi_periodicity_check, sublattice_identity_check,
)

from tropitheta.embedding import (
    check_injective, check_unimodular, faithful_certificate,
    image_complex_1d, linearity_cells, phi_eval,
)
from tropitheta.errors import RootUnavailable
from tropitheta.exactlinalg import Matrix, det, is_positive_definite, solve
from tropitheta.nalift import (
    build_na_datum, c_trop, divide_datum, fourier_lift, monomial,
    surjective_lift, tropicalize_fourier, vs_mul,
)
from tropitheta.theta import (
    INF, LAMBDA_GAMMA, Q_ELL, ThetaFunction, lattice_argmin, theta_eval,
)
from tropitheta.torus import build_torus, polarization_type, validate_datum
from tropitheta.voronoi import VoronoiCell, adapted_gram, certified_cells


def elliptic(d, varpi=12, ell=0):
    torus = build_torus(Matrix.from_rows([[varpi]]))
    return validate_datum(torus, Matrix.from_rows([[d]]), [ell])


def plane(Pmat_rows, L_rows, ell=(0, 0)):
    torus = build_torus(Matrix.from_rows(Pmat_rows))
    return validate_datum(torus, Matrix.from_rows(L_rows), ell)


def na_elliptic(d=3, varpi=12, cexp=None):
    if cexp is None:
        cexp = Fraction(varpi * d, 2)
    torus = build_torus(Matrix.from_rows([[varpi]]))
    return build_na_datum(torus, Matrix.from_rows([[d]]),
                          [[monomial(varpi)]], [monomial(cexp)])


def unimodular2(rng):
    a = rng.choice([-1, 0, 1])
    b = rng.choice([-1, 0, 1])
    return (Matrix.from_rows([[1, a], [0, 1]])
            * Matrix.from_rows([[1, 0], [b, 1]]))


def random_plane_datum(rng):
    """A random polarized plane datum with first invariant factor 3."""
    while True:
        m = rng.choice([1, 2])
        L = (unimodular2(rng) * Matrix.from_rows([[3, 0], [0, 3 * m]])
             * unimodular2(rng))
        w11 = Fraction(rng.randint(2, 5), rng.randint(1, 2))
        w22 = Fraction(rng.randint(2, 5), rng.randint(1, 2))
        w12 = Fraction(rng.randint(-1, 1), rng.randint(1, 3))
        if w11 * w22 - w12 * w12 <= 0:
            continue
        W = Matrix.from_rows([[w11, w12], [w12, w22]])
        return validate_datum(build_torus(W * L), L, [0, 0])


def test_01_degree_two_elliptic_pieces_and_refutation():
    datum = elliptic(2)
    theta0 = ThetaFunction(datum, (0,), Q_ELL)
    theta1 = ThetaFunction(datum, (1,), Q_ELL)
    for i in range(13):
        x = Fraction(i)
        want0 = Fraction(0) if x <= 6 else -2 * x + 12
        assert theta_eval(theta0, (x,)) == want0
        assert theta_eval(theta1, (x,)) == -x + 3
    pam = linearity_cells(datum)
    intervals = [(cm.vertices[0][0], cm.vertices[-1][0])
                 for cm in pam.cells]
    assert intervals == [(0, 6), (6, 12)]
    slopes = [cm.A[0][0] for cm in pam.cells]
    assert slopes == [-1, 1]
    unimodular, verdicts = check_unimodular(pam)
    assert unimodular is True and verdicts == (True, True)
    inj = check_injective(datum, mode="exact")
    assert inj.status == "refuted"
    w1, w2 = inj.witness
    assert w1 != w2
    assert phi_eval(datum, w1) == phi_eval(datum, w2)
    # the witness pair realizes x -> varpi - x
    assert (w1[0] + w2[0]) % 12 == 0


def test_02_degree_three_elliptic_faithful_triangle():
    datum = elliptic(3)
    img = image_complex_1d(datum)
    assert img.breakpoints == (2, 6, 10)
    assert img.vertices == ((4, 0), (-4, -4), (0, 4))
    assert img.lattice_lengths == (4, 4, 4)
    assert all(l == Fraction(12, 3) for l in img.lattice_lengths)
    report = faithful_certificate(datum)
    assert report.unimodular is True
    assert report.injective.status == "certified"
    assert report.faithful is True


def test_03_degree_four_elliptic_faithful_quadrangle():
    datum = elliptic(4)
    img = image_complex_1d(datum)
    assert img.breakpoints == (3, 6, 9)
    assert len(img.vertices) == 4
    assert img.lattice_lengths == (3, 3, 3, 3)
    assert all(l == Fraction(12, 4) for l in img.lattice_lengths)
    report = faithful_certificate(datum)
    assert report.faithful is True


def test_04_random_plane_data_unimodular_and_grid_injective():
    rng = random.Random(7)
    for _ in range(10):
        datum = random_plane_datum(rng)
        assert polarization_type(datum).type[0] == 3
        pam = linearity_cells(datum)
        unimodular, verdicts = check_unimodular(pam)
        assert unimodular is True and all(verdicts)
        inj = check_injective(datum, mode="grid", resolution=20)
        assert inj.status == "sampled-ok"


def test_05_lattice_argmin_matches_brute_force():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 3)
        B = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)]
                              for _ in range(n)])
        G = B.transpose() * B + Matrix.identity(n) * rng.randint(1, 2)
        assert is_positive_definite(G)
        h = [Fraction(rng.randint(-16, 16), rng.randint(1, 4))
             for _ in range(n)]
        res = lattice_argmin(G, h)
        center = [int(c) for c in res.minimizers[0]]
        spread = max(abs(int(a[i]) - center[i])
                     for a in res.minimizers for i in range(n))
        value, mins = box_argmin(
            [[G[i, j] for j in range(n)] for i in range(n)],
            h, spread + 2, center)
        assert value == res.value
        assert sorted(tuple(int(c) for c in a)
                      for a in res.minimizers) == mins


def test_06_quasi_periodicity_exact_on_random_data():
    rng = random.Random(13)
    for k in range(100):
        if k % 2 == 0:
            varpi = Fraction(rng.randint(3, 20), rng.randint(1, 3))
            d = rng.randint(1, 4)
            ell = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            datum = elliptic(d, varpi, ell)
        else:
            datum = random_plane_datum(rng)
        b = tuple(rng.randint(-4, 4) for _ in range(datum.n))
        convention = Q_ELL if rng.random() < Fraction(1, 2) else LAMBDA_GAMMA
        theta = ThetaFunction(datum, b, convention)
        x = tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 5))
                  for _ in range(datum.n))
        w = tuple(rng.randint(-3, 3) for _ in range(datum.n))
        assert quasi_periodicity_check(theta, x, w) is True


def test_07_sublattice_identity_on_grids():
    datum = elliptic(2)
    for i in range(25):
        assert sublattice_identity_check(datum, (Fraction(12 * i, 25),))
    datum2 = plane([[6, 0], [0, 8]], [[2, 0], [0, 2]])
    for i in range(5):
        for j in range(5):
            x = (Fraction(6 * i, 5), Fraction(8 * j, 5))
            assert sublattice_identity_check(datum2, x)


def test_08_base_theta_vanishes_on_voronoi_cell():
    G_rows = [[2, 1], [1, 2]]
    datum = plane(G_rows, [[1, 0], [0, 1]])
    assert [[datum.G[i, j] for j in range(2)] for i in range(2)] == G_rows
    theta0 = ThetaFunction(datum, (0, 0), Q_ELL)
    cell = VoronoiCell(datum.G)
    points = []
    for i in range(-6, 7):
        for j in range(-6, 7):
            x = (Fraction(i, 7), Fraction(j, 7))
            if cell.contains(x):
                points.append(x)
    assert len(points) >= 20
    for x in points[:20]:
        assert theta_eval(theta0, x) == 0


def test_09_relevant_vectors_and_exact_tiling():
    square = VoronoiCell(Matrix.identity(2))
    assert len(square.relevant) == 4
    hexagonal = VoronoiCell(Matrix.from_rows([[2, 1], [1, 2]]))
    assert len(hexagonal.relevant) == 6
    box = [Fraction(i, 4) for i in range(-6, 7)]
    shifts = [(u, v) for u in range(-3, 4) for v in range(-3, 4)]
    for cell in (square, hexagonal):
        for x0 in box:
            for x1 in box:
                hits = [s for s in shifts
                        if cell.contains((x0 - s[0], x1 - s[1]))]
                assert len(hits) >= 1
                interior = [s for s in hits
                            if not on_boundary(cell, (x0 - s[0],
                                                      x1 - s[1]))]
                # interiors of distinct translates never overlap
                assert len(interior) <= 1
                if interior:
                    assert len(hits) == 1


def test_10_simplex_basis_random():
    from tropitheta.voronoi import basis_in_simplex
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 4)
        while True:
            qs = [tuple(rng.randint(-4, 4) for _ in range(n))
                  for _ in range(n)]
            cols = Matrix.from_rows([[q[i] for q in qs] for i in range(n)])
            if det(cols) != 0:
                break
        r = Fraction(factorial(n - 1) * rng.randint(2, 8),
                     rng.choice([1, 2]))
        basis = basis_in_simplex(qs, r)
        scaled = Matrix.from_rows([[r * basis[j][i] for j in range(n)]
                                   for i in range(n)])
        assert all(scaled[i, j].denominator == 1
                   for i in range(n) for j in range(n))
        assert abs(det(scaled)) == 1
        for p in basis:
            lam = solve(cols, p)
            assert all(c >= 0 for c in lam)
            assert sum(lam) <= 1


def test_11_certified_decompositions():
    for datum in (elliptic(2), plane([[4, 2], [2, 4]], [[2, 0], [0, 2]])):
        dec, certs = certified_cells(datum)
        assert len(certs) == len(dec.pieces) >= 1
        Ga = adapted_gram(datum)
        d = polarization_type(datum).type
        n = Ga.rows
        for piece, cert in zip(dec.pieces, certs):
            assert len(cert.ells) == n + 1
            assert cert.ells[0] == tuple([0] * n)
            rows = Matrix.from_rows([list(e) for e in cert.ells[1:]])
            assert is_unimodular_map(rows)
            # independent shared-argmin recheck at every vertex
            translate = tuple(-c for c in cert.atilde)
            for ell in cert.ells:
                frac = [Fraction(ell[i], d[i]) for i in range(n)]
                for y in piece.vertices:
                    t = [translate[i] + y[i] + frac[i] for i in range(n)]
                    res = lattice_argmin(Ga, Ga.matvec(t))
                    assert cert.atilde in res.minimizers


def test_12_tropicalization_bridge_elliptic():
    nad = na_elliptic(d=3, varpi=12)
    trop = c_trop(nad)
    assert trop.ellVec == (0,)
    for b in ((0,), (1,), (2,)):
        fd = fourier_lift(nad, b, 4)
        theta = ThetaFunction(trop, b, LAMBDA_GAMMA)
        for i in range(25):
            x = (Fraction(12 * i, 25),)
            assert tropicalize_fourier(fd, x) == theta_eval(theta, x)


def test_13_surjective_lift_two_targets():
    nad = na_elliptic(d=3, varpi=12)
    trop = c_trop(nad)
    thetas = [ThetaFunction(trop, b, LAMBDA_GAMMA)
              for b in polarization_type(trop).reps]
    for targets in ([0, 0, 0], [0, Fraction(1, 2), INF]):
        fd, report = surjective_lift(nad, targets, 4)
        assert report.verified is True
        comb = ThetaCombination(list(zip(targets, thetas)))
        # interior samples of every linearity cell of the combination
        assert len(report.samples) == 2 * len(linearity_cells(trop).cells)
        for v in report.samples:
            assert tropicalize_fourier(fd, v) == min_plus_eval(comb, v)


def test_14_divide_datum_square_roots():
    torus = build_torus(Matrix.from_rows([[12]]))
    nad = build_na_datum(torus, Matrix.from_rows([[4]]),
                         [[monomial(12)]], [monomial(24)])
    half = divide_datum(nad, 2)
    assert half.L[0, 0] == 2
    c1 = half.cBasis[0]
    assert vs_mul(c1, c1) == nad.cBasis[0]
    bad = build_na_datum(torus, Matrix.from_rows([[4]]),
                         [[monomial(12)]], [monomial(24, 2)])
    with pytest.raises(RootUnavailable):
        divide_datum(bad, 2)
