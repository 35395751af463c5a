"""The coset walk (theta.coset_argmins) against the per-representative
path it replaced, and the count of walks behind the theta map.

One Fincke-Pohst walk per point gives the minimizers of every theta_b and
phi~; tests/oracles.py keeps the old path, one lattice_argmin per
representative, as the oracle.  The data cover n = 1, 2, 3, nonzero ell,
non-diagonal L, negative periods with negative L, and D = 1; the points are
random rationals, half-integer points and the vertices of the linearity
cells, where minimizers tie.
"""

import json
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tropitheta import cli, embedding, theta
from tropitheta.embedding import (
    check_injective, linearity_cells, phi_eval,
)
from tropitheta.exactlinalg import Matrix
from tropitheta.theta import coset_argmins
from tropitheta.torus import build_torus, validate_datum
from tropitheta.theta import _homogeneous

from oracles import per_representative_thetas


def rationals(lo=-6, hi=6, den=4):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, den))


@st.composite
def circle_data(draw):
    """Pmat = varpi and L = d of one sign (G = d.varpi > 0), d up to 24;
    d = 1 gives D = 1."""
    sign = draw(st.sampled_from((1, -1)))
    varpi = sign * Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 3)))
    d = sign * draw(st.integers(1, 24))
    torus = build_torus(Matrix.from_rows([[varpi]]))
    return validate_datum(torus, Matrix.from_rows([[d]]), [draw(rationals())])


# non-diagonal L of |det L| = 1, 3, 3, 4, 3, and a diagonal one of type (3, 6)
PLANE_LAMBDAS = ([[1, 1], [0, 1]], [[2, 1], [1, 2]], [[1, 2], [1, -1]],
                 [[2, 1], [0, 2]], [[6, -3], [-3, 3]], [[3, 0], [0, 6]])
SPACE_LAMBDAS = ([[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                 [[1, 1, 0], [0, 2, 1], [0, 0, 2]],
                 [[1, 0, 1], [0, 1, 0], [0, 1, 1]],
                 [[2, 1, 0], [-1, 1, 1], [0, 0, 3]])


def _skewed(L_rows, W_rows, ell):
    # Pmat = W.L with W symmetric positive definite, so G = L^T.W.L
    L = Matrix.from_rows(L_rows)
    return validate_datum(build_torus(Matrix.from_rows(W_rows) * L), L, ell)


@st.composite
def plane_data(draw):
    h = Fraction(draw(st.integers(-2, 2)), 5)
    c = draw(st.integers(1, 3))
    return _skewed(draw(st.sampled_from(PLANE_LAMBDAS)), [[1, h], [h, c]],
                   [draw(rationals()) for _ in range(2)])


@st.composite
def space_data(draw):
    h, k = (Fraction(draw(st.integers(-2, 2)), 4) for _ in range(2))
    return _skewed(draw(st.sampled_from(SPACE_LAMBDAS)),
                   [[2, h, 0], [h, 2, k], [0, k, 2]],
                   [draw(rationals()) for _ in range(3)])


def points(n, den=7):
    return st.lists(rationals(-40, 40, den), min_size=n, max_size=n).map(tuple)


def assert_matches_the_oracle(datum, x):
    mins, phi = per_representative_thetas(datum, x)
    assert coset_argmins(datum, x).minimizers == mins
    assert phi_eval(datum, x) == phi


class TestAgainstThePerRepresentativePath:

    @settings(max_examples=60, deadline=None)
    @given(datum=circle_data(), x=points(1))
    def test_circles(self, datum, x):
        assert_matches_the_oracle(datum, x)

    @settings(max_examples=60, deadline=None)
    @given(datum=plane_data(), x=points(2))
    def test_planes(self, datum, x):
        assert_matches_the_oracle(datum, x)

    @settings(max_examples=30, deadline=None)
    @given(datum=space_data(), x=points(3))
    def test_spaces(self, datum, x):
        assert_matches_the_oracle(datum, x)

    @settings(max_examples=30, deadline=None)
    @given(datum=st.one_of(circle_data(), plane_data(), space_data()),
           data=st.data())
    def test_half_integer_points(self, datum, data):
        # coarse points sit on walls between minimizers more often
        x = data.draw(points(datum.n, den=2))
        assert_matches_the_oracle(datum, x)

    @settings(max_examples=15, deadline=None)
    @given(datum=st.one_of(circle_data(), plane_data()))
    def test_cell_vertices(self, datum):
        # every cell vertex lies where the minimizers of some theta_b tie
        for cm in linearity_cells(datum).cells:
            for v in cm.vertices:
                assert_matches_the_oracle(datum, v)

    def test_ties_are_all_kept(self):
        # Pmat = 12, L = 2, ell = 0: theta_b minimizes 12 a^2 + (2x + 12b) a,
        # so at x = 6 theta_0 ties between a = -1 and a = 0, and theta_1
        # has the one minimizer a = -1
        datum = validate_datum(build_torus(Matrix.from_rows([[12]])),
                               Matrix.from_rows([[2]]), [0])
        res = coset_argmins(datum, (Fraction(6),))
        assert res.minimizers == (((-1,), (0,)), ((-1,),))
        assert_matches_the_oracle(datum, (Fraction(6),))


def _patched(monkeypatch):
    """Count the walks and the points handed to the coset walk, and make
    every lattice_argmin of the package count its calls.  embedding hands
    its points to the integer entry point of the walk, as (X_1, .., X_n, W),
    so that is where they are recorded."""
    counts = {"walks": 0, "argmin": 0, "points": []}
    walk = theta._walk

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)
    monkeypatch.setattr(theta, "_walk", counted_walk)
    kernel = theta._coset_argmins

    def recorded(datum, v):
        counts["points"].append(tuple(v))
        return kernel(datum, v)
    monkeypatch.setattr(embedding, "_coset_argmins", recorded)
    argmin = theta.lattice_argmin

    def counted_argmin(*args):
        counts["argmin"] += 1
        return argmin(*args)
    for name, module in list(sys.modules.items()):
        if name.startswith("tropitheta") \
                and getattr(module, "lattice_argmin", None) is argmin:
            monkeypatch.setattr(module, "lattice_argmin", counted_argmin)
    return counts


# the acceptance-test-04 plane datum of type (3, 6) with a nonzero ell
PLANE_P = [[6, 0], [-18, 21]]
PLANE_L = [[6, -3], [-6, 6]]
PLANE_ELL = ["1/3", "-1/2"]


def _plane(ell=PLANE_ELL):
    return validate_datum(build_torus(Matrix.from_rows(PLANE_P)),
                          Matrix.from_rows(PLANE_L),
                          [Fraction(c) for c in ell])


def _plane_job(tmp_path):
    def mat(rows):
        return {"rows": 2, "cols": 2,
                "entries": [str(c) for row in rows for c in row]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"datum": {
        "Pmat": mat(PLANE_P), "L": mat(PLANE_L), "ell": PLANE_ELL}}))
    return str(path)


class TestOneWalkPerPoint:

    def test_linearity_cells_walk_once_per_distinct_vertex(self,
                                                           monkeypatch):
        datum = _plane()
        counts = _patched(monkeypatch)
        pam = linearity_cells(datum)
        assert counts["argmin"] == 0
        assert counts["walks"] == len(counts["points"]) \
            == len(set(counts["points"]))
        # every vertex of the final cells was walked
        assert {_homogeneous(v) for cm in pam.cells for v in cm.vertices} \
            <= set(counts["points"])

    def test_the_grid_walks_once_per_grid_point(self, monkeypatch):
        datum = _plane(ell=("0", "0"))
        counts = _patched(monkeypatch)
        verdict = check_injective(datum, mode="grid", resolution=5)
        assert verdict.status == "sampled-ok"
        assert counts["walks"] == 25 and counts["argmin"] == 0
        assert len(set(counts["points"])) == 25

    def test_certify_walks_the_cells_and_then_the_grid(self, tmp_path,
                                                       monkeypatch):
        path = _plane_job(tmp_path)
        counts = _patched(monkeypatch)
        datum = _plane()
        linearity_cells(datum)
        cells = counts["walks"]
        assert cli.main(["certify", "--input", path, "--resolution", "3",
                         "--output", str(tmp_path / "out")]) == 0
        assert counts["walks"] == 2 * cells + 9
        assert counts["argmin"] == 0

    def test_embed_and_example45_make_no_argmin_call(self, tmp_path,
                                                     monkeypatch):
        path = _plane_job(tmp_path)
        counts = _patched(monkeypatch)
        out = str(tmp_path / "out")
        assert cli.main(["embed", "--input", path, "--output", out]) == 0
        assert cli.main(["example45", "--d", "5", "--output", out]) == 0
        assert counts["argmin"] == 0 and counts["walks"] > 0
