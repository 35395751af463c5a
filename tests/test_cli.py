import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tropitheta import cli, embedding, jsonio
from tropitheta.theta import Q_ELL, ThetaFunction, theta_eval
from tropitheta.torus import build_torus, validate_datum
from tropitheta.exactlinalg import Matrix


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

    def test_valuation_mismatch_exits_two(self, tmp_path):
        bad = na_elliptic_json()
        bad["Tmat"] = [[[["11", "1"]]]]  # val 11 != Pmat entry 12
        path = job(tmp_path, {"na_datum": bad, "b": [0]})
        assert run(tmp_path, "lift", "--input", path) == 2

    def test_needs_b_or_targets(self, tmp_path):
        path = job(tmp_path, {"na_datum": na_elliptic_json()})
        assert run(tmp_path, "lift", "--input", path) == 1


class TestSchemaErrors:
    def test_malformed_json_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert run(tmp_path, "type", "--input", str(path)) == 1

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
