import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropitheta import jsonio
from tropitheta.errors import SchemaError
from tropitheta.exactlinalg import Matrix
from tropitheta.nalift import (
    ValuedScalar, build_na_datum, fourier_lift, monomial,
)
from tropitheta.torus import build_torus, validate_datum

from oracles import (
    datum_to_json, fourier_from_json, matrix_to_json, na_datum_to_json,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**3)


def na_elliptic(d=3, varpi=12):
    torus = build_torus(Matrix.from_rows([[varpi]]))
    Tmat = [[monomial(varpi)]]
    cB = [monomial(Fraction(varpi * d, 2))]
    return build_na_datum(torus, Matrix.from_rows([[d]]), Tmat, cB)


class TestRationals:
    @given(rationals)
    def test_round_trip(self, q):
        assert jsonio.rational_from_str(jsonio.rational_to_str(q)) == q

    def test_canonical_form(self):
        assert jsonio.rational_to_str(Fraction(4, 2)) == "2"
        assert jsonio.rational_to_str(Fraction(-3, 9)) == "-1/3"

    # the strings after [1] are all forms that Fraction reads but that are
    # not -?[0-9]+(/[0-9]+)? in ASCII: a decimal point, a sign, blanks and
    # a non-ASCII digit (U+0663, ARABIC-INDIC THREE)
    @pytest.mark.parametrize("bad", [
        "", "x", "1/0", "1.5.2", None, "1e10000000", "1E5", 0.1, 1e15, 1e16,
        "1_000", True, [1], pytest.param("0.1", id="decimal-0.1"), "-.5",
        "1.", "+3", " 3 ", "\t-5/7", "\u0663"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(SchemaError):
            jsonio.rational_from_str(bad)


class TestVectorsAndMatrices:
    @given(st.lists(rationals, min_size=0, max_size=6))
    def test_vector_round_trip(self, v):
        v = tuple(v)
        assert jsonio.vector_from_json(jsonio.vector_to_json(v)) == v

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_matrix_round_trip(self, r, c, data):
        entries = [[data.draw(rationals) for _ in range(c)]
                   for _ in range(r)]
        m = Matrix.from_rows(entries)
        back = jsonio.matrix_from_json(matrix_to_json(m))
        assert back == m

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            jsonio.matrix_from_json(
                {"rows": 2, "cols": 2, "entries": ["1", "2", "3"]})

    @pytest.mark.parametrize("rows, cols", [
        ("a", 1), (1.5, 1), (1, True), ("1", 1), (None, 1), (1.0, 1),
    ])
    def test_rows_and_cols_must_be_json_integers(self, rows, cols):
        # a string, float, bool or null shape is a schema fault, never
        # converted or truncated
        with pytest.raises(SchemaError):
            jsonio.matrix_from_json(
                {"rows": rows, "cols": cols, "entries": ["1"]})

    @pytest.mark.parametrize("entries", ["12", {"1": "2"}, 12])
    def test_entries_must_be_a_list(self, entries):
        # a string or an object is not read as its characters or keys
        with pytest.raises(SchemaError):
            jsonio.matrix_from_json(
                {"rows": 1, "cols": 2, "entries": entries})

    def test_vector_must_be_list(self):
        with pytest.raises(SchemaError):
            jsonio.vector_from_json({"x": "1"})


class TestDatum:
    def test_round_trip(self):
        torus = build_torus(Matrix.from_rows([[12, 3], [3, 10]]))
        datum = validate_datum(torus,
                               Matrix.from_rows([[2, 0], [0, 2]]),
                               [Fraction(1, 2), 0])
        back = jsonio.datum_from_json(datum_to_json(datum))
        assert back.torus.Pmat == datum.torus.Pmat
        assert back.L == datum.L
        assert back.ellVec == datum.ellVec

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError):
            jsonio.datum_from_json({"Pmat": {"rows": 1, "cols": 1,
                                             "entries": ["12"]}})


class TestScalars:
    @given(st.lists(st.tuples(rationals, rationals), max_size=5))
    def test_round_trip(self, terms):
        s = ValuedScalar(terms)
        assert jsonio.scalar_from_json(jsonio.scalar_to_json(s)) == s

    def test_zero_is_empty_list(self):
        assert jsonio.scalar_to_json(ValuedScalar(())) == []
        assert jsonio.scalar_from_json([]) == ValuedScalar(())

    def test_bad_pair_rejected(self):
        with pytest.raises(SchemaError):
            jsonio.scalar_from_json([["1"]])


class TestNaDatumAndFourier:
    def test_na_datum_round_trip(self):
        nad = na_elliptic()
        back = jsonio.na_datum_from_json(na_datum_to_json(nad))
        assert back.Tmat == nad.Tmat
        assert back.cBasis == nad.cBasis
        assert back.L == nad.L

    def test_fourier_round_trip(self):
        nad = na_elliptic()
        fd = fourier_lift(nad, (1,), 3)
        obj = jsonio.fourier_to_json(fd)
        back = fourier_from_json(obj, nad)
        assert back.coeffs == fd.coeffs
        assert back.window.parts == fd.window.parts

    def test_fourier_survives_json_text(self):
        nad = na_elliptic()
        fd = fourier_lift(nad, (0,), 2)
        text = jsonio.dumps(jsonio.fourier_to_json(fd))
        back = fourier_from_json(json.loads(text), nad)
        assert back.coeffs == fd.coeffs

    def test_bad_key_rejected(self):
        nad = na_elliptic()
        with pytest.raises(SchemaError):
            fourier_from_json(
                {"coefficients": {"a,b": []},
                 "window": {"parts": []}}, nad)


class TestFiles:
    def test_dump_is_deterministic(self, tmp_path):
        obj = {"b": [1, 2], "a": {"y": "1/2", "x": "3"}}
        p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
        jsonio.dump(obj, str(p1))
        jsonio.dump(obj, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")

    def test_dump_leaves_no_temp_files(self, tmp_path):
        jsonio.dump({"k": 1}, str(tmp_path / "out.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_load_round_trip(self, tmp_path):
        obj = {"values": ["3/7", "-2"]}
        path = str(tmp_path / "v.json")
        jsonio.dump(obj, path)
        assert jsonio.load(path) == obj

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            jsonio.load(str(tmp_path / "absent.json"))

    def test_load_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        with pytest.raises(SchemaError):
            jsonio.load(str(path))
