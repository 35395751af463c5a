import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tropitheta import cli, embedding, errors, jsonio, nalift
from tropitheta.theta import Q_ELL, ThetaFunction, theta_eval
from tropitheta.torus import build_torus, validate_datum
from tropitheta.exactlinalg import Matrix
from tropitheta.nalift import monomial, vs_mul


def job(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read(tmp_path, name):
    return json.loads((tmp_path / "out" / name).read_text())


def run(tmp_path, *argv):
    return cli.main(list(argv) + ["--output", str(tmp_path / "out")])


def elliptic_json(d, varpi="12"):
    return {"Pmat": {"rows": 1, "cols": 1, "entries": [varpi]},
            "L": {"rows": 1, "cols": 1, "entries": [str(d)]},
            "ell": ["0"]}


def na_elliptic_json(d=3, varpi="12", cexp=None):
    if cexp is None:
        cexp = str(Fraction(varpi) * d / 2)
    return {"Pmat": {"rows": 1, "cols": 1, "entries": [varpi]},
            "L": {"rows": 1, "cols": 1, "entries": [str(d)]},
            "Tmat": [[[[varpi, "1"]]]],
            "cBasis": [[[cexp, "1"]]]}


def plane_json():
    # Pmat = I, L = 2.I: four theta functions on the plane
    return {"Pmat": {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]},
            "L": {"rows": 2, "cols": 2, "entries": ["2", "0", "0", "2"]},
            "ell": ["0", "0"]}


class TestExample45:
    def test_degree_two(self, tmp_path):
        assert run(tmp_path, "example45", "--d", "2") == 0
        out = read(tmp_path, "example45.json")
        assert out["unimodular"] is True
        assert out["injective"] is False
        assert out["witness"] == [["3"], ["9"]]
        assert out["breakpoints"] == ["6"]
        cell0, cell1 = out["piecewise_table"]
        assert cell0["interval"] == ["0", "6"]
        assert cell0["theta"] == [
            {"b": 0, "slope": 0, "offset": "0"},
            {"b": 1, "slope": -1, "offset": "3"}]
        assert cell1["interval"] == ["6", "12"]
        assert cell1["theta"] == [
            {"b": 0, "slope": -2, "offset": "12"},
            {"b": 1, "slope": -1, "offset": "3"}]

    def test_degree_three_is_faithful(self, tmp_path):
        assert run(tmp_path, "example45", "--d", "3") == 0
        out = read(tmp_path, "example45.json")
        assert out["faithful"] is True
        assert out["breakpoints"] == ["2", "6", "10"]
        poly = out["image_polygon"]
        assert poly["vertices"] == [["4", "0"], ["-4", "-4"], ["0", "4"]]
        assert poly["lattice_lengths"] == ["4", "4", "4"]

    def test_degree_four_lattice_lengths(self, tmp_path):
        assert run(tmp_path, "example45", "--d", "4") == 0
        out = read(tmp_path, "example45.json")
        assert out["faithful"] is True
        assert out["image_polygon"]["lattice_lengths"] == ["3"] * 4

    def test_rational_period(self, tmp_path):
        assert run(tmp_path, "example45", "--d", "3", "--varpi", "27/2") == 0
        out = read(tmp_path, "example45.json")
        # edge lattice length is period / degree
        assert out["image_polygon"]["lattice_lengths"] == ["9/2"] * 3

    def test_svg_written_with_fixed_scale(self, tmp_path):
        run(tmp_path, "example45", "--d", "3")
        text = (tmp_path / "out" / "example45.svg").read_text()
        assert text.startswith("<svg")
        assert "scale: 24 px per unit" in text
        assert "polygon" in text

    def test_nonpositive_degree_is_a_precondition(self, tmp_path):
        assert run(tmp_path, "example45", "--d", "0") == 2

    @pytest.mark.parametrize("varpi", ["12", "27/2"])
    @pytest.mark.parametrize("d", ["3", "8"])
    def test_table_offsets_match_theta_at_the_left_end(self, tmp_path, d,
                                                      varpi):
        # each cell's argmin minimizes at its closed left end lo, so the
        # cached piece offset is theta_b(lo) - slope.lo
        assert run(tmp_path, "example45", "--d", d, "--varpi", varpi) == 0
        out = read(tmp_path, "example45.json")
        period = jsonio.rational_from_str(varpi)
        datum = validate_datum(build_torus(Matrix.from_rows([[period]])),
                               Matrix.from_rows([[int(d)]]), [0])
        assert out["piecewise_table"]
        for row in out["piecewise_table"]:
            lo = jsonio.rational_from_str(row["interval"][0])
            assert len(row["theta"]) == int(d)
            for entry in row["theta"]:
                theta = ThetaFunction(datum, (entry["b"],), Q_ELL)
                want = theta_eval(theta, (lo,)) - entry["slope"] * lo
                assert jsonio.rational_from_str(entry["offset"]) == want


class TestTypeCommand:
    def test_type_and_reps(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(3)})
        assert run(tmp_path, "type", "--input", path) == 0
        out = read(tmp_path, "type.json")
        assert out["type"] == [3]
        assert out["reps"] == [[0], [1], [2]]

    def test_plane_type(self, tmp_path):
        payload = {"datum": {
            "Pmat": {"rows": 2, "cols": 2,
                     "entries": ["2", "0", "0", "6"]},
            "L": {"rows": 2, "cols": 2, "entries": ["2", "0", "0", "6"]},
            "ell": ["0", "0"]}}
        path = job(tmp_path, payload)
        assert run(tmp_path, "type", "--input", path) == 0
        out = read(tmp_path, "type.json")
        assert out["type"] == [2, 6]
        assert len(out["reps"]) == 12

    @pytest.mark.parametrize("command", ["type", "embed", "certify"])
    def test_asymmetric_gram_is_a_precondition(self, tmp_path, capsys,
                                               command):
        # L^T.Pmat = [[1, 1/2], [0, 1]] is not symmetric: exit 2, no artifact
        payload = {"datum": {
            "Pmat": {"rows": 2, "cols": 2,
                     "entries": ["1", "1/2", "0", "1"]},
            "L": {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]},
            "ell": ["0", "0"]}}
        path = job(tmp_path, payload)
        assert run(tmp_path, command, "--input", path) == 2
        assert "not symmetric" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestThetaCommand:
    def test_values_match_direct_evaluation(self, tmp_path):
        points = [["0"], ["3"], ["13/2"], ["-5"]]
        path = job(tmp_path, {"datum": elliptic_json(2), "b": [1],
                              "points": points})
        assert run(tmp_path, "theta", "--input", path) == 0
        out = read(tmp_path, "theta.json")
        datum = validate_datum(build_torus(Matrix.from_rows([[12]])),
                               Matrix.from_rows([[2]]), [0])
        theta = ThetaFunction(datum, (1,), Q_ELL)
        for raw, got in zip(points, out["values"]):
            x = (Fraction(raw[0]),)
            assert Fraction(got) == theta_eval(theta, x)

    def test_requires_b_and_points(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(2)})
        assert run(tmp_path, "theta", "--input", path) == 1

    def test_mode_flag_is_validated(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(2), "b": [0],
                              "points": [["1"]]})
        assert run(tmp_path, "theta", "--input", path,
                   "--mode", "bogus") == 1


class TestEmbedCommand:
    def test_elliptic_embed_has_image_complex(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(3)})
        assert run(tmp_path, "embed", "--input", path) == 0
        out = read(tmp_path, "embed.json")
        assert out["unimodular"] is True
        assert len(out["cells"]) == 4
        img = out["image_complex"]
        assert img["breakpoints"] == ["2", "6", "10"]
        assert sum(Fraction(l) for l in img["lattice_lengths"]) == 12
        assert (tmp_path / "out" / "embed.svg").exists()

    def test_cells_round_trip_as_matrices(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(4)})
        run(tmp_path, "embed", "--input", path)
        out = read(tmp_path, "embed.json")
        for cell in out["cells"]:
            A = jsonio.matrix_from_json(cell["A"])
            assert A.rows == 3 and A.cols == 1
            offset = jsonio.vector_from_json(cell["offset"])
            assert len(offset) == 3

    def test_plane_embed(self, tmp_path):
        payload = {"datum": {
            "Pmat": {"rows": 2, "cols": 2,
                     "entries": ["2", "0", "0", "2"]},
            "L": {"rows": 2, "cols": 2, "entries": ["2", "0", "0", "2"]},
            "ell": ["0", "0"]}}
        path = job(tmp_path, payload)
        assert run(tmp_path, "embed", "--input", path) == 0
        out = read(tmp_path, "embed.json")
        assert "image_complex" not in out
        assert out["unimodular"] is True
        assert len(out["cells"]) > 0


class TestCertifyCommand:
    def test_faithful_datum_exits_zero(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(3)})
        assert run(tmp_path, "certify", "--input", path) == 0
        out = read(tmp_path, "certify.json")
        assert out["faithful"] is True
        assert out["injective"]["status"] == "certified"

    def test_unfaithful_datum_exits_three_with_witness(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(2)})
        assert run(tmp_path, "certify", "--input", path) == 3
        out = read(tmp_path, "certify.json")
        assert out["faithful"] is False
        assert out["unimodular"] is True
        assert out["injective"]["witness"] == [["3"], ["9"]]

    def test_unfaithful_datum_at_a_large_period_exits_three(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(2, "10000000000000")})
        assert run(tmp_path, "certify", "--input", path) == 3
        out = read(tmp_path, "certify.json")
        assert out["faithful"] is False
        assert out["injective"]["status"] == "refuted"

    def test_sampled_mode(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(3)})
        assert run(tmp_path, "certify", "--input", path,
                   "--mode", "sampled", "--resolution", "8") == 0
        out = read(tmp_path, "certify.json")
        assert out["injective"]["status"] == "sampled-ok"
        assert out["faithful"] is True

    def test_exact_mode_refutation(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(2)})
        assert run(tmp_path, "certify", "--input", path,
                   "--mode", "exact") == 3
        out = read(tmp_path, "certify.json")
        assert out["injective"]["status"] == "refuted"

    def test_nonpolarized_datum_exits_two(self, tmp_path):
        bad = elliptic_json(3)
        bad["Pmat"]["entries"] = ["-12"]
        path = job(tmp_path, {"datum": bad})
        assert run(tmp_path, "certify", "--input", path) == 2

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_empty_grid_exits_two(self, tmp_path, capsys, resolution):
        # a grid of no points would report sampled-ok on a datum that
        # --resolution 8 refutes
        path = job(tmp_path, {"datum": plane_json()})
        assert run(tmp_path, "certify", "--input", path,
                   "--resolution", resolution) == 2
        assert capsys.readouterr().err.startswith("precondition failed: ")
        assert not (tmp_path / "out" / "certify.json").exists()


class TestVoronoiCommand:
    def test_gram_payload_counts_relevant_vectors(self, tmp_path):
        path = job(tmp_path, {"G": {"rows": 2, "cols": 2,
                                    "entries": ["1", "0", "0", "1"]}})
        assert run(tmp_path, "voronoi", "--input", path) == 0
        out = read(tmp_path, "voronoi.json")
        assert out["count"] == 4
        assert len(out["halfspaces"]) == 4

    def test_hexagonal_gram(self, tmp_path):
        path = job(tmp_path, {"G": {"rows": 2, "cols": 2,
                                    "entries": ["2", "1", "1", "2"]}})
        assert run(tmp_path, "voronoi", "--input", path) == 0
        out = read(tmp_path, "voronoi.json")
        assert out["count"] == 6

    def test_datum_payload_emits_certificates(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(2)})
        assert run(tmp_path, "voronoi", "--input", path) == 0
        out = read(tmp_path, "voronoi.json")
        assert out["type"] == [2]
        assert len(out["pieces"]) == 2
        assert len(out["certificates"]) == 2
        for cert in out["certificates"]:
            assert len(cert["ells"]) == 2  # n + 1 translated ell vectors

    def test_translates_multiply_certificates(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(2),
                              "translates": [[0], [1]]})
        run(tmp_path, "voronoi", "--input", path)
        out = read(tmp_path, "voronoi.json")
        assert len(out["certificates"]) == 4

    def test_needs_gram_or_datum(self, tmp_path):
        path = job(tmp_path, {"n": 2})
        assert run(tmp_path, "voronoi", "--input", path) == 1

    def test_gram_beyond_the_class_budget_exits_two(self, tmp_path, capsys):
        # 2^13 classes mod 2 exceed the budget: refused before the walk
        n = 13
        entries = [str(int(i == j)) for i in range(n) for j in range(n)]
        path = job(tmp_path, {"G": {"rows": n, "cols": n, "entries": entries}})
        start = time.perf_counter()
        assert run(tmp_path, "voronoi", "--input", path) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "precondition failed: 2^13 classes mod 2 exceed the budget of "
            "4096\n")
        assert not (tmp_path / "out" / "voronoi.json").exists()


class TestLiftCommand:
    def test_lift_single_representative(self, tmp_path):
        path = job(tmp_path, {"na_datum": na_elliptic_json(), "b": [1]})
        assert run(tmp_path, "lift", "--input", path) == 0
        out = read(tmp_path, "lift.json")
        assert out["verification"]["quasi_periodicity"] == {"1": True}
        coeffs = out["fourier"]["coefficients"]
        assert len(coeffs) == 9  # window radius 4 around b = 1
        for key in coeffs:
            assert (int(key) - 1) % 3 == 0

    def test_window_flag(self, tmp_path):
        path = job(tmp_path, {"na_datum": na_elliptic_json(), "b": [0]})
        assert run(tmp_path, "lift", "--input", path, "--window", "2") == 0
        out = read(tmp_path, "lift.json")
        assert len(out["fourier"]["coefficients"]) == 5

    def test_lift_targets(self, tmp_path):
        path = job(tmp_path, {"na_datum": na_elliptic_json(),
                              "targets": ["0", "1/2", "inf"]})
        assert run(tmp_path, "lift", "--input", path) == 0
        out = read(tmp_path, "lift.json")
        assert out["report"]["verified"] is True
        assert out["report"]["lambdas"] == [1, 1]

    @pytest.mark.parametrize("payload", [{"b": [0]},
                                         {"targets": ["0", "1/2", "inf"]}],
                             ids=["b", "targets"])
    def test_negative_window_exits_two(self, tmp_path, payload):
        path = job(tmp_path, dict(payload, na_datum=na_elliptic_json()))
        assert run(tmp_path, "lift", "--input", path, "--window", "-1") == 2

    def test_wrong_lift_exits_three_with_the_report(self, tmp_path,
                                                     monkeypatch):
        part_coeffs = nalift._part_coeffs

        def raised(datum, b, multiplier, radius):
            return {u: vs_mul(g, monomial(1)) for u, g
                    in part_coeffs(datum, b, multiplier, radius).items()}
        monkeypatch.setattr(nalift, "_part_coeffs", raised)
        path = job(tmp_path, {"na_datum": na_elliptic_json(),
                              "targets": ["0", "inf", "inf"]})
        assert run(tmp_path, "lift", "--input", path) == 3
        out = read(tmp_path, "lift.json")
        assert out["report"]["verified"] is False
        assert out["fourier"]["coefficients"]

    @pytest.mark.parametrize("window", ["1", "2", "3"])
    def test_series_pairing_checks_without_inverses(self, tmp_path, window):
        # Tmat = t^12 + t^13 is not invertible in the scalar model, yet the
        # recurrence over the window needs no inverse of it
        nad = dict(na_elliptic_json(), Tmat=[[[["12", "1"], ["13", "1"]]]])
        path = job(tmp_path, {"na_datum": nad, "b": [0]})
        assert run(tmp_path, "lift", "--input", path, "--window", window) == 0
        out = read(tmp_path, "lift.json")
        assert out["verification"]["quasi_periodicity"] == {"1": True}
        assert len(out["fourier"]["coefficients"]) == 2 * int(window) + 1

    def test_valuation_mismatch_exits_two(self, tmp_path):
        bad = na_elliptic_json()
        bad["Tmat"] = [[[["11", "1"]]]]  # val 11 != Pmat entry 12
        path = job(tmp_path, {"na_datum": bad, "b": [0]})
        assert run(tmp_path, "lift", "--input", path) == 2

    def test_needs_b_or_targets(self, tmp_path):
        path = job(tmp_path, {"na_datum": na_elliptic_json()})
        assert run(tmp_path, "lift", "--input", path) == 1

    # a window one smaller than the least that verifies: the window check at
    # the origin passes and a later sample's check names that sample
    @pytest.mark.parametrize("nad, targets, window, sample", [
        (na_elliptic_json(d=4, cexp="25/2"), ["0", "inf", "inf", "1/2"], "1",
         "(Fraction(191, 16),)"),
        ({"Pmat": {"rows": 2, "cols": 2, "entries": ["3/2", "0", "0", "3/2"]},
          "L": {"rows": 2, "cols": 2, "entries": ["2", "0", "0", "2"]},
          "Tmat": [[[["3/2", "1"]], [["0", "1"]]],
                   [[["0", "1"]], [["3/2", "1"]]]],
          "cBasis": [[["5", "1"]], [["0", "1"]]]},
         ["0", "inf", "1/2", "-1/2"], "2",
         "(Fraction(11, 8), Fraction(3, 8))"),
    ], ids=["circle", "plane"])
    def test_window_one_too_small_names_the_sample(self, tmp_path, capsys,
                                                   nad, targets, window,
                                                   sample):
        path = job(tmp_path, {"na_datum": nad, "targets": targets})
        assert run(tmp_path, "lift", "--input", path,
                   "--window", str(int(window) + 1)) == 0
        capsys.readouterr()
        assert run(tmp_path, "lift", "--input", path, "--window", window) == 2
        assert capsys.readouterr().err == (
            "precondition failed: window radius %s misses the valuation "
            "minimum at %s\n" % (window, sample))


class TestSchemaErrors:
    def test_malformed_json_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert run(tmp_path, "type", "--input", str(path)) == 1

    def test_huge_integer_literal_exits_one(self, tmp_path, capsys):
        # over the interpreter's int digit limit json.load raises a plain
        # ValueError, which must still read as a schema error
        path = tmp_path / "huge.json"
        path.write_text('{"datum": %s}' % ("9" * 5000))
        assert run(tmp_path, "type", "--input", str(path)) == 1
        assert capsys.readouterr().err.startswith("schema error: ")

    @pytest.mark.parametrize("entry", [0.1, 1e15, "1_000"])
    def test_json_float_or_separator_entry_exits_one(self, tmp_path, entry):
        path = job(tmp_path, {"datum": dict(
            elliptic_json(3),
            Pmat={"rows": 1, "cols": 1, "entries": [entry]})})
        assert run(tmp_path, "type", "--input", path) == 1

    def test_json_integer_entries_are_read(self, tmp_path):
        path = job(tmp_path, {"datum": {
            "Pmat": {"rows": 1, "cols": 1, "entries": [12]},
            "L": {"rows": 1, "cols": 1, "entries": [3]}, "ell": [0]}})
        assert run(tmp_path, "type", "--input", path) == 0
        assert read(tmp_path, "type.json")["type"] == [3]

    def test_missing_file_exits_one(self, tmp_path):
        assert run(tmp_path, "type", "--input",
                   str(tmp_path / "nope.json")) == 1

    def test_unknown_command_exits_one(self, tmp_path):
        assert run(tmp_path, "frobnicate") == 1

    def test_missing_input_flag_exits_one(self, tmp_path):
        assert run(tmp_path, "type") == 1

    def test_non_integer_b_exits_one(self, tmp_path):
        path = job(tmp_path, {"na_datum": na_elliptic_json(),
                              "b": ["1"]})
        assert run(tmp_path, "lift", "--input", path) == 1

    def test_corrupt_matrix_exits_one(self, tmp_path):
        path = job(tmp_path, {"datum": {
            "Pmat": {"rows": 1, "cols": 1, "entries": ["12", "13"]},
            "L": {"rows": 1, "cols": 1, "entries": ["2"]},
            "ell": ["0"]}})
        assert run(tmp_path, "certify", "--input", path) == 1

    @pytest.mark.parametrize("command, payload", [
        ("type", {"datum": dict(elliptic_json(3), L={
            "rows": 2, "cols": 2, "entries": ["3", "0", "0", "3"]})}),
        ("type", {"datum": dict(elliptic_json(3), ell=["0", "0"])}),
        ("theta", {"datum": elliptic_json(3), "b": [0, 0],
                   "points": [["1"]]}),
        ("theta", {"datum": elliptic_json(3), "b": [0],
                   "points": [["1"], ["1", "2"]]}),
        ("lift", {"na_datum": na_elliptic_json(), "b": [1, 0]}),
        ("voronoi", {"datum": elliptic_json(3), "translates": [[0], [0, 1]]}),
    ], ids=["datum-L", "datum-ell", "theta-b", "theta-point", "lift-b",
            "voronoi-translate"])
    def test_shape_mismatch_exits_one(self, tmp_path, capsys, command,
                                      payload):
        path = job(tmp_path, payload)
        assert run(tmp_path, command, "--input", path) == 1
        assert capsys.readouterr().err.startswith("schema error: ")

    @pytest.mark.parametrize("command, payload", [
        ("lift", {"na_datum": na_elliptic_json(), "targets": "012"}),
        ("lift", {"na_datum": na_elliptic_json(),
                  "targets": {"0": "0", "1": "inf", "2": "inf"}}),
        ("lift", {"na_datum": na_elliptic_json(), "targets": 5}),
        ("voronoi", "G: 1"),
        ("theta", {"datum": elliptic_json(3), "b": [0], "points": 5}),
        ("voronoi", {"datum": elliptic_json(3), "translates": 5}),
        ("theta", {"datum": elliptic_json(3), "b": [True],
                   "points": [["1"]]}),
    ], ids=["targets-string", "targets-object", "targets-number",
            "voronoi-string", "theta-points-number",
            "voronoi-translates-number", "theta-b-boolean"])
    def test_payload_type_exits_one(self, tmp_path, capsys, command,
                                    payload):
        path = job(tmp_path, payload)
        assert run(tmp_path, command, "--input", path) == 1
        assert capsys.readouterr().err.startswith("schema error: ")

    @pytest.mark.parametrize("command, payload", [
        ("type", {"datum": dict(elliptic_json(3), Pmat={
            "rows": "a", "cols": 1, "entries": ["12"]})}),
        ("type", {"datum": dict(elliptic_json(3), Pmat={
            "rows": 1.5, "cols": 1, "entries": ["12"]})}),
        ("type", {"datum": dict(elliptic_json(3), L={
            "rows": 1, "cols": True, "entries": ["3"]})}),
        ("voronoi", {"G": {"rows": 1, "cols": 2, "entries": ["2", "1"]}}),
    ], ids=["rows-string", "rows-float", "cols-bool", "voronoi-G-1x2"])
    def test_matrix_shape_exits_one(self, tmp_path, capsys, command,
                                    payload):
        # a matrix of the wrong shape is a malformed job: exit 1, with no
        # traceback and no artifact
        path = job(tmp_path, payload)
        assert run(tmp_path, command, "--input", path) == 1
        assert capsys.readouterr().err.startswith("schema error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("L", {"rows": 2, "cols": 2, "entries": ["3", "0", "0", "3"]}),
        ("cBasis", [[["18", "1"]], [["18", "1"]]]),
        ("Tmat", [[[["12", "1"]]], [[["12", "1"]]]]),
    ], ids=["L-2x2", "cBasis-2", "Tmat-2x1"])
    def test_descent_datum_shape_exits_one(self, tmp_path, capsys, field,
                                           value):
        # the same shape fault as in a tropical datum: a schema error
        bad = dict(na_elliptic_json(), **{field: value})
        path = job(tmp_path, {"na_datum": bad, "b": [0]})
        assert run(tmp_path, "lift", "--input", path) == 1
        assert capsys.readouterr().err.startswith("schema error: ")

    @pytest.mark.parametrize("targets", [["0", "0"], ["0", "inf", "0", "1"]],
                             ids=["short", "long"])
    def test_targets_count_exits_one(self, tmp_path, capsys, targets):
        # one target per representative: |det L| = 3 of them
        path = job(tmp_path, {"na_datum": na_elliptic_json(),
                              "targets": targets})
        assert run(tmp_path, "lift", "--input", path) == 1
        assert capsys.readouterr().err == \
            "schema error: 'targets' must have 3 entries\n"
        assert not (tmp_path / "out").exists()

    def test_nonpolarized_theta_still_exits_two(self, tmp_path):
        bad = elliptic_json(3)
        bad["Pmat"]["entries"] = ["-12"]
        path = job(tmp_path, {"datum": bad, "b": [0], "points": [["1"]]})
        assert run(tmp_path, "theta", "--input", path) == 2


class TestExitTwo:
    # the errors that exit 2 are exactly the subclasses of one base class
    def test_the_precondition_classes_are_pinned(self):
        def subclasses(cls):
            return {s for c in cls.__subclasses__()
                    for s in {c} | subclasses(c)}
        names = {c.__name__ for c in subclasses(errors.PreconditionFailure)}
        assert names == {
            "AsymmetricPairing", "DimensionUnsupported", "DivisionByZero",
            "NonIntegerLambda", "NotInvertible", "NotPolarization",
            "NotQuadratic", "NotSymmetric", "PreconditionViolated",
            "RootUnavailable", "SingularEmbedding", "SingularMatrix",
            "SingularPivot", "ValuationMismatch", "WindowInsufficient"}
        for other in (errors.InternalInvariantViolated,
                      errors.CertificateFailed, errors.SchemaError):
            assert not issubclass(other, errors.PreconditionFailure)


class TestOneParser:
    def test_no_argument_leaks_between_jobs(self, tmp_path, monkeypatch):
        # one process, three jobs: an exact certify, an argparse schema
        # error, a certify on the defaults; the parser is built once
        built, modes = [], []
        build = cli.build_parser
        certificate = cli.faithful_certificate
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build())
        cli._parser.cache_clear()

        def recorded(datum, resolution, mode):
            modes.append((mode, resolution))
            return certificate(datum, resolution=resolution, mode=mode)
        monkeypatch.setattr(cli, "faithful_certificate", recorded)
        path = job(tmp_path, {"datum": elliptic_json(3)})
        assert run(tmp_path, "certify", "--input", path, "--mode", "exact",
                   "--resolution", "5") == 0
        assert run(tmp_path, "certify", "--input", path,
                   "--mode", "bogus") == 1
        assert run(tmp_path, "certify", "--input", path) == 0
        assert modes == [("exact", 5), (None, 20)]
        assert len(built) == 1


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(3)})
        cli.main(["embed", "--input", path,
                  "--output", str(tmp_path / "a")])
        cli.main(["embed", "--input", path,
                  "--output", str(tmp_path / "b")])
        for name in ("embed.json", "embed.svg"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_output_ends_with_newline_and_sorted_keys(self, tmp_path):
        path = job(tmp_path, {"datum": elliptic_json(2)})
        run(tmp_path, "type", "--input", path)
        raw = (tmp_path / "out" / "type.json").read_text()
        assert raw.endswith("\n")
        assert raw == jsonio.dumps(json.loads(raw))


class TestAtomicArtifacts:
    @pytest.mark.parametrize("argv, svg", [
        (["embed"], "embed.svg"),
        (["example45", "--d", "3"], "example45.svg"),
    ], ids=["embed", "example45"])
    def test_svg_is_moved_into_place(self, tmp_path, monkeypatch, argv, svg):
        placed = []
        replace = os.replace

        def recorded(src, dst):
            placed.append(os.path.basename(dst))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recorded)
        if argv[0] == "embed":
            argv = argv + ["--input",
                           job(tmp_path, {"datum": elliptic_json(3)})]
        assert run(tmp_path, *argv) == 0
        assert svg in placed
        assert not [f for f in os.listdir(tmp_path / "out")
                    if f.endswith(".tmp")]


    def test_artifacts_honour_the_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            assert run(tmp_path, "example45", "--d", "3") == 0
        finally:
            os.umask(old)
        for name in ("example45.json", "example45.svg"):
            mode = os.stat(tmp_path / "out" / name).st_mode & 0o777
            assert mode == 0o644, (name, oct(mode))


class TestOneCellMapPerJob:
    @pytest.mark.parametrize("argv", [
        ["example45", "--d", "6"],
        ["embed"],
        ["certify"],
        ["certify", "--mode", "exact"],
        ["certify", "--mode", "sampled", "--resolution", "4"],
    ], ids=" ".join)
    def test_the_cells_are_refined_once(self, tmp_path, monkeypatch, argv):
        refinements = []
        refine = embedding._refine_pieces

        def counted(*args):
            refinements.append(args)
            return refine(*args)

        monkeypatch.setattr(embedding, "_refine_pieces", counted)
        if argv[0] != "example45":
            argv = [argv[0], "--input",
                    job(tmp_path, {"datum": elliptic_json(4)})] + argv[1:]
        assert run(tmp_path, *argv) == 0
        assert len(refinements) == 1


class TestPackageImport:
    def test_import_loads_neither_the_cli_nor_argparse(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, tropitheta; print(tropitheta.__version__, "
                "'tropitheta.cli' in sys.modules, 'argparse' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0.1.0", "False", "False"]
