"""The nearest-points-per-class walk behind voronoi against the per-class
paths it replaced, and the count of walks per call.

relevant_vectors reads every class mod 2 off one walk around the origin
and the half periods at x read every class mod 2 off one walk around 2x;
tests/oracles.py keeps the old paths, one lattice_argmin per class on 4G
and one per two-torsion point, as the oracles.  The Gram matrices are
random positive definite ones for n <= 3, the points random rationals
reduced into the cell, half-integral points and the cell's vertices and
edge midpoints, where closest points tie.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropitheta import theta, voronoi
from tropitheta.exactlinalg import Matrix
from tropitheta.theta import lattice_argmin
from tropitheta.torus import build_torus, validate_datum
from tropitheta.voronoi import (
    VoronoiCell, _cell_polytope, _half_periods, certified_cells,
    relevant_vectors,
)

from oracles import (
    closest_point, gram_norm, half_periods_per_point,
    relevant_vectors_per_class,
)


@st.composite
def grams(draw, max_n=3):
    """G = L.D.L^T, L unit lower triangular with small rational entries
    and D a positive diagonal, so G is positive definite by construction
    and as skewed as L makes it."""
    n = draw(st.integers(1, max_n))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    pivot = st.fractions(min_value=Fraction(1, 4), max_value=4,
                         max_denominator=4)
    L = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)]
         for i in range(n)]
    D = [draw(pivot) for _ in range(n)]
    return Matrix.from_rows([[sum(L[i][k] * D[k] * L[j][k] for k in range(n))
                              for j in range(n)] for i in range(n)])


def _reduced(G, raw):
    # raw minus a closest lattice point: a point of the closed cell
    p = lattice_argmin(G, [-c for c in G.matvec(raw)]).minimizers[0]
    return tuple(r - c for r, c in zip(raw, p))


@st.composite
def cell_points(draw):
    """A G with n <= 2 and a point of its Voronoi cell: a random rational
    or half-integral point reduced into the cell, a vertex of the cell, or
    the midpoint of two vertices (on an edge or inside)."""
    G = draw(grams(max_n=2))
    kind = draw(st.sampled_from(("random", "half", "vertex", "midpoint")))
    if kind in ("random", "half"):
        den = st.integers(1, 9) if kind == "random" else st.just(2)
        raw = tuple(Fraction(draw(st.integers(-12, 12)), draw(den))
                    for _ in range(G.rows))
        return G, _reduced(G, raw)
    verts = _cell_polytope(VoronoiCell(G))
    v = draw(st.sampled_from(verts))
    if kind == "vertex":
        return G, tuple(v)
    w = draw(st.sampled_from(verts))
    return G, tuple((a + b) / 2 for a, b in zip(v, w))


class TestAgainstThePerClassPaths:

    @given(grams())
    @settings(max_examples=60, deadline=None)
    def test_relevant_vectors(self, G):
        assert relevant_vectors(G) == relevant_vectors_per_class(G)

    @given(cell_points())
    @settings(max_examples=80, deadline=None)
    def test_half_periods(self, case):
        G, x = case
        cell = VoronoiCell(G)
        assert cell.contains(x)
        assert _half_periods(cell, x) == half_periods_per_point(G, x)

    @given(cell_points())
    @settings(max_examples=60, deadline=None)
    def test_closest_point(self, case):
        # the old path: lattice_argmin with linear term -G.x, and the
        # squared distance 2 min + x^T G x
        G, x = case
        old = lattice_argmin(G, [-c for c in G.matvec(x)])
        res = closest_point(G, x)
        assert res.minimizers == old.minimizers and res.tie == old.tie
        assert res.value == 2 * old.value + gram_norm(G, x)

    def test_half_integral_ties(self):
        # on the square lattice (1/2, 1/2) + t ties for every t; the least
        # closest point decides each candidate
        G = Matrix.identity(2)
        x = (Fraction(1, 2), Fraction(1, 2))
        assert _half_periods(VoronoiCell(G), x) \
            == half_periods_per_point(G, x)
        assert closest_point(G, x).minimizers \
            == ((0, 0), (0, 1), (1, 0), (1, 1))


def _counted(monkeypatch):
    counts = {"walks": 0, "argmin": 0}
    walk, argmin = theta._walk, theta.lattice_argmin

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counted_argmin(*args):
        counts["argmin"] += 1
        return argmin(*args)
    monkeypatch.setattr(theta, "_walk", counted_walk)
    monkeypatch.setattr(theta, "lattice_argmin", counted_argmin)
    return counts


GRAMS = [Matrix.from_rows([[3]]), Matrix.from_rows([[2, 1], [1, 2]]),
         Matrix.from_rows([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])]


class TestOneWalkPerCall:

    @pytest.mark.parametrize("G", GRAMS, ids=["n1", "hex", "bcc"])
    def test_relevant_vectors_walk_once(self, monkeypatch, G):
        counts = _counted(monkeypatch)
        relevant_vectors(G)
        assert counts == {"walks": 1, "argmin": 0}

    @pytest.mark.parametrize("G", GRAMS[:2], ids=["n1", "hex"])
    def test_half_periods_walk_once(self, monkeypatch, G):
        cell = VoronoiCell(G)
        counts = _counted(monkeypatch)
        for v in _cell_polytope(cell):
            _half_periods(cell, tuple(v))
        assert counts == {"walks": len(_cell_polytope(cell)), "argmin": 0}

    @pytest.mark.parametrize("Pmat, L", [
        ([[12]], [[2]]),
        ([[1, 0], [0, 1]], [[2, 0], [0, 2]]),
    ], ids=["elliptic", "square"])
    def test_certified_cells_make_no_argmin_call(self, monkeypatch, Pmat, L):
        assert not hasattr(voronoi, "lattice_argmin")
        n = len(L)
        datum = validate_datum(build_torus(Matrix.from_rows(Pmat)),
                               Matrix.from_rows(L), [0] * n)
        counts = _counted(monkeypatch)
        dec, certs = certified_cells(datum)
        # relevant vectors, the cut-line ball, one walk per piece for its
        # half periods, and one per shift and sample of each certificate
        samples = sum(len(p.vertices) + 1 for p in dec.pieces)
        assert counts == {"walks": 2 + len(dec.pieces) + (n + 1) * samples,
                          "argmin": 0}
