"""Byte-identity guard: a few CLI jobs, run in-process, must write artifacts
whose SHA-256 digests equal the recorded ones.

A change that claims byte-identical artifacts keeps this test passing
unchanged; a change that means to alter an artifact updates its digest here
and says why.  The jobs cover the Voronoi decomposition (piece vertex
order), the linearity cells (hull order), the certificates (by dimension
and with a forced injectivity mode, one exact refutation with a nonzero
ell), the elliptic example up to degree 32 and Fourier lifts, with a 'b'
and with a 'targets' payload, on a 2-D monomial datum and on a non-monomial
pairing.  The grid certificates, the n = 3 certificate and the plane
embedding with a nonzero ell pin the coset walk that evaluates every theta
function at a point at once.  The n = 1 jobs (embed, voronoi with a datum,
sampled certify) pin the interval cells that the convex-polytope kernel
builds.  The plane data are the first four acceptance-test-04 draws
(random.Random(7)), copied literally.  PLANE_48_MOVED is the last of them
moved the way the benchmark's plane panel moves it (scale 4/3 and a signed
permutation), so its certify and voronoi jobs pin crossing points whose
common denominator W exceeds 1; their digests were recorded before the
integer-homogeneous polygon kernel replaced the Fraction one.  The D = 1
jobs (a point-5 circle and a plane of type (1,1), whose cell maps have no
rows) pin the 0-row slope matrices, written with the datum's n as "cols";
their digests were recorded before the cell map kept its slope matrices as
integer rows.  The theta jobs (both conventions, n = 1, 2, 3, a nonzero
ell and, for n >= 2, a non-diagonal L), the type jobs on those data and
the voronoi jobs on a bare Gram matrix (n = 2, 3, 4) pin the constants
derived once per datum and the cell's halfspaces; their digests were
recorded before those constants were shared.  The voronoi jobs with
'translates' (two and three translates on the plane panel data) pin the
pieces, bases and certificates; their digests were recorded before the
good decomposition decided its containments in integers.
"""

import hashlib
import json
import os

import pytest

from tropitheta import cli


def _mat(rows):
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [str(x) for row in rows for x in row]}


def _plane(P, L):
    return {"datum": {"Pmat": _mat(P), "L": _mat(L), "ell": ["0", "0"]}}


# types (3,6) with 4 Voronoi pieces and 42 cells, (3,3) with 100 cells and
# 84 pieces, (3,3) with 136 cells, (3,6) with 48 pieces
PLANE_4 = _plane([[6, 0], [-18, 21]], [[6, -3], [-6, 6]])
PLANE_100 = _plane([[15, -6], [-9, 12]], [[6, -3], [-3, 3]])
PLANE_136 = _plane([[-18, 51], [-12, 27]], [[-3, 9], [-3, 6]])
PLANE_48 = _plane([[0, 12], [-12, 6]], [[0, 3], [-6, 3]])

# PLANE_48 moved by c = 4/3 and the signed permutation that swaps the two
# coordinates and flips the second: Pmat -> c S Pmat S, L -> S L S
PLANE_48_MOVED = _plane([[8, 16], [-16, 0]], [[3, 6], [-3, 0]])

# certificates of every piece for several translates, in piece-major order
PLANE_48_MOVED_TRANSLATES = dict(PLANE_48_MOVED, translates=[[0, 0], [1, 0]])
PLANE_4_TRANSLATES = dict(PLANE_4, translates=[[0, 0], [1, 0], [0, -1]])

ELLIPTIC_2 = {"datum": {"Pmat": _mat([[12]]), "L": _mat([[2]]), "ell": ["0"]}}
ELLIPTIC_3 = {"datum": {"Pmat": _mat([[12]]), "L": _mat([[3]]), "ell": ["0"]}}
# ELLIPTIC_2 with a nonzero ell: exact injectivity refutes it, and the
# witness [7/12], [7/4] pins which pair of cells is solved first
ELLIPTIC_2_ELL = {"datum": dict(ELLIPTIC_2["datum"], ell=["7/3"])}
# a degree-5 circle with a nonzero ell, so the cells do not start at 0
CIRCLE_5 = {"datum": {"Pmat": _mat([[12]]), "L": _mat([[5]]), "ell": ["7/3"]}}
# type (2,2) on a small plane: the grid refutes injectivity, and the witness
# [1/4, 3/4], [3/4, 9/4] pins the order in which the grid is walked
SMALL_PLANE = {"datum": {"Pmat": _mat([[2, 1], [1, 3]]),
                         "L": _mat([[2, 0], [0, 2]]), "ell": ["0", "0"]}}
# an n = 3 datum of type (2,2,2) with a nonzero ell: sampled cells
SPACE_8 = {"datum": {"Pmat": _mat([[4, 1, 0], [1, 5, 1], [0, 1, 6]]),
                     "L": _mat([[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
                     "ell": ["1/3", "0", "-1/2"]}}
# PLANE_4 with a nonzero ell, so the cells are not symmetric about 0
PLANE_4_ELL = {"datum": dict(PLANE_4["datum"], ell=["1/3", "-1/2"])}
# D = 1: one theta function, so every cell map has 0 rows of n columns; the
# plane datum has 4 cells and fails its certificate
POINT_5 = {"datum": {"Pmat": _mat([[5]]), "L": _mat([[1]]), "ell": ["0"]}}
PLANE_1 = {"datum": {"Pmat": _mat([[3, 1], [1, 2]]),
                     "L": _mat([[1, 0], [0, 1]]), "ell": ["0", "0"]}}

# data with a nonzero ell and, for n >= 2, a non-diagonal L, built as
# Pmat = W.L for a symmetric positive definite W; the theta jobs take a b
# that is no representative
LINE_3_ELL = {"datum": {"Pmat": _mat([["45/2"]]), "L": _mat([[3]]),
                        "ell": ["5/4"]}}
PLANE_6_ELL = {"datum": {"Pmat": _mat([[10, "13/2"], [1, "25/2"]]),
                         "L": _mat([[2, 1], [0, 3]]), "ell": ["-2/3", "7/2"]}}
SPACE_5_ELL = {"datum": {
    "Pmat": _mat([[7, 9, 1], ["1/2", 13, 5], [8, -1, "31/2"]]),
    "L": _mat([[1, 1, 0], [0, 2, 1], [1, 0, 2]]),
    "ell": ["1/3", "-5/2", "2"]}}


def _theta(datum, b, points):
    return dict(datum, b=b, points=points)


THETA_1 = _theta(LINE_3_ELL, [2], [["0"], ["7/5"], ["-13/4"], ["45/2"]])
THETA_2 = _theta(PLANE_6_ELL, [3, -1],
                 [["0", "0"], ["5/3", "-1/2"], ["-7", "11/4"]])
THETA_3 = _theta(SPACE_5_ELL, [1, -2, 2],
                 [["0", "0", "0"], ["1/2", "-3/4", "2"], ["-5", "4/3", "7"]])
# Gram matrices alone, for the relevant vectors and halfspaces of the cell
GRAM_2 = {"G": _mat([[3, "-1/2"], ["-1/2", 2]])}
GRAM_3 = {"G": _mat([[4, 1, -1], [1, 3, "1/2"], [-1, "1/2", 5]])}
GRAM_4 = {"G": _mat([[3, -1, 1, 0], [-1, 7, 1, 0], [1, 1, 4, -2],
                     [0, 0, -2, 4]])}

NA_ELLIPTIC_3 = {"na_datum": {
    "Pmat": {"rows": 1, "cols": 1, "entries": ["12"]},
    "L": {"rows": 1, "cols": 1, "entries": ["3"]},
    "Tmat": [[[["12", "1"]]]],
    "cBasis": [[["18", "1"]]]}, "b": [1]}
NA_ELLIPTIC_3_TARGETS = {"na_datum": NA_ELLIPTIC_3["na_datum"],
                         "targets": ["1/2", "inf", "0"]}


def _monomial(exponent):
    return [[exponent, "1"]]


# a 2-D diagonal monomial datum with Pmat = (3/2).I and L = 2.I, as the
# plane lifts of the decompose_lift benchmark workload build them
NA_PLANE_TARGETS = {"na_datum": {
    "Pmat": _mat([["3/2", 0], [0, "3/2"]]),
    "L": _mat([[2, 0], [0, 2]]),
    "Tmat": [[_monomial("3/2"), _monomial("0")],
             [_monomial("0"), _monomial("3/2")]],
    "cBasis": [_monomial("2"), _monomial("1")]},
    "targets": ["0", "inf", "1/2", "-1/2"]}
# the non-monomial pairing Tmat = [t^12 + t^13]: only slot b = 0 lifts
# (any other slot raises Tmat to negative powers), and its coefficients
# come from products of series, not of monomials
NA_SERIES_TARGETS = {"na_datum": {
    "Pmat": _mat([[12]]), "L": _mat([[3]]),
    "Tmat": [[[["12", "1"], ["13", "1"]]]],
    "cBasis": [_monomial("18")]},
    "targets": ["0", "inf", "inf"]}

# (name, argv, payload written to --input or None, exit code,
#  {artifact: sha256})
JOBS = [
    ("voronoi-4", ["voronoi"], PLANE_4, 0, {
        "voronoi.json":
            "b260b5d43f2e9238bce00efaa034b2f79965ef703da654fabc146b1569b8bbed"}),
    ("voronoi-48", ["voronoi"], PLANE_48, 0, {
        "voronoi.json":
            "7b7b1015c646b7a84fee4065600ed27bab2aa29913af63a70c58eae0b02a0f42"}),
    ("voronoi-48-moved", ["voronoi"], PLANE_48_MOVED, 0, {
        "voronoi.json":
            "e3bea9d2becf25b1f377c362100b91aaa10b28159988e1964761e3132bfdb722"}),
    ("certify-48-moved", ["certify", "--resolution", "8"], PLANE_48_MOVED, 0,
     {"certify.json":
         "64e51bc23d1f5abd9d4b068a943755be8a9502378d8e8a49b676c52e2b7f7add"}),
    ("certify-100", ["certify", "--resolution", "4"], PLANE_100, 0, {
        "certify.json":
            "f8bb3a157410486ff2f0399266e8b5fc167dbf77d5a83426ed17bc2277a1732c"}),
    ("certify-136", ["certify", "--resolution", "4"], PLANE_136, 0, {
        "certify.json":
            "bf9ea024b5095100d4a62abcc323e44fd038972abe93e3b9e95112e376f77577"}),
    ("certify-grid-small", ["certify", "--resolution", "4"], SMALL_PLANE, 3, {
        "certify.json":
            "e4e126887b23946f7dc8000b38f68d0dfe69daba163d2db7375c62dc3885ee4e"}),
    ("certify-space-8", ["certify"], SPACE_8, 0, {
        "certify.json":
            "772ebca328045605d484297116f516349dd6255f3581e548fe1c15011063ef69"}),
    ("embed-4-ell", ["embed"], PLANE_4_ELL, 0, {
        "embed.json":
            "23b9e8ea2edf78f8f7a98c34abe6598ee48ce29723726f037ce2fd434b134dc1",
        "embed.svg":
            "df4878cc6cf4aeedf44801cec16c9a26e578eef5fb543bdd207f2affcc4d9b1e"}),
    ("embed-circle-5", ["embed"], CIRCLE_5, 0, {
        "embed.json":
            "266a93a38fc8f7d57a948d2495cbfba6abe778c916414edea549159bb533fe37",
        "embed.svg":
            "fb32024797556d93e036f95e1c3f124b52ddd257f120b6523f4834618a2a1ffa"}),
    ("voronoi-48-moved-translates", ["voronoi"], PLANE_48_MOVED_TRANSLATES,
     0, {"voronoi.json":
         "2798dcf32d1d468b3a6ca509dd9f87aec40a96edab9a723e429deb279c17be2f"}),
    ("voronoi-4-translates", ["voronoi"], PLANE_4_TRANSLATES, 0, {
        "voronoi.json":
            "34808453d4780e7344f3ce70c8926235c11223ba763ab842c0a19f35dab2f359"}),
    ("voronoi-elliptic-3", ["voronoi"], ELLIPTIC_3, 0, {
        "voronoi.json":
            "fc2c115d69712be9d3ba93b75572745ba11c12660d9e686d493d691775a2a780"}),
    ("certify-sampled-circle-5",
     ["certify", "--mode", "sampled", "--resolution", "10"], CIRCLE_5, 0, {
        "certify.json":
            "fdd71c705cd3885ed4af124f0c8afdf4c373ebb994dca6e77b22f95158d84f41"}),
    ("certify-exact-3", ["certify", "--mode", "exact"], ELLIPTIC_3, 0, {
        "certify.json":
            "3b556b1b3c9780e51eae35b7be8d7600ee3b804d2cb1c1c7e72829655e923906"}),
    ("certify-exact-2", ["certify", "--mode", "exact"], ELLIPTIC_2, 3, {
        "certify.json":
            "e1476e89a818fa9becde448cba3d74930a0281b99c0f330199f6522904c84215"}),
    ("certify-exact-2-ell", ["certify", "--mode", "exact"], ELLIPTIC_2_ELL, 3,
     {"certify.json":
         "912450cfbae595b71864b6f6f058804fa854970eb92754b84b5f45ce6e971805"}),
    ("certify-sampled-4",
     ["certify", "--mode", "sampled", "--resolution", "4"], PLANE_4, 0, {
        "certify.json":
            "567493b2baa4cf2441308a46314a23bca0534d437d1de5a97bd1bc919a9c3e19"}),
    ("embed-point-5", ["embed"], POINT_5, 0, {
        "embed.json":
            "dc95e08a16cee36a048c6474c28e5b7570b94d5c829bca470862cd0d502e6528",
        "embed.svg":
            "05efce695df4123c36839e812706d4b8847753f58bddfbe3673024d8d68fd54e"}),
    ("embed-plane-1", ["embed"], PLANE_1, 0, {
        "embed.json":
            "db09960dd22864678b6e2c1a5d2c22fee5bbb2141315025329f588e33da7bcee",
        "embed.svg":
            "b7bad44bd69341b6a3bd894dc6228aa03eecbce6595952024cf801d7773c8110"}),
    ("certify-plane-1", ["certify"], PLANE_1, 3, {
        "certify.json":
            "39f7062df8dcee2f6ed46058a9476afe9f3a862989718d424254ab03fda683c9"}),
    ("embed-42", ["embed"], PLANE_4, 0, {
        "embed.json":
            "b50daa482ac7e99c1fa7348deac72c756e85c5a85862659d6a48f63f5bb82a56",
        "embed.svg":
            "90af9f0793e41452ebf0900afcbc7a68790efbfbf5f855bc4ecf1bd461bee2f1"}),
    ("example45-3", ["example45", "--d", "3"], None, 0, {
        "example45.json":
            "a539f164918c16cc8549d55f5b4200c8efe8e2ff9cb8ddf930093a0256a7f8ca",
        "example45.svg":
            "3ab69ea7647078b50c6da5900a211fd4d98966c78f7765d719f379b645bc74d6"}),
    ("example45-8", ["example45", "--d", "8", "--varpi", "27/2"], None, 0, {
        "example45.json":
            "2ecc4a2daa29b98fe89ae405739242e4101c88df45ca8f80364383def534fa32",
        "example45.svg":
            "a79979b913685db4b50ce3f3de57dabe6f634499f71ca68df3f7b3f2566a8210"}),
    ("example45-24", ["example45", "--d", "24", "--varpi", "27/2"], None, 0, {
        "example45.json":
            "05195adae8295668b99bcf71c6475f8f70be1df1f06160c260c1d71b8be02228",
        "example45.svg":
            "76915c54ea381819ddb318abd8683fd898568bf3c33dcadc989c14f28f8c84f3"}),
    ("example45-32", ["example45", "--d", "32"], None, 0, {
        "example45.json":
            "569851725bcbf0a1a165ba8bb3cb6aa209ae5cb1a13428be9cf602121a464881",
        "example45.svg":
            "d5796a60f18247b1e3adc54e46c38e6e8f1c5b5dd1d1ad022cfeed8a26513639"}),
    ("lift", ["lift"], NA_ELLIPTIC_3, 0, {
        "lift.json":
            "12489577bf861446abdd60a89d55a24257c3d4f1ce970922df99e6d20c847bb4"}),
    ("lift-targets", ["lift"], NA_ELLIPTIC_3_TARGETS, 0, {
        "lift.json":
            "329c2d5cd0e4752199ae67ecac5633bfa8b305ef505c85ef2975a55c0ebf5095"}),
    ("lift-plane-targets", ["lift"], NA_PLANE_TARGETS, 0, {
        "lift.json":
            "03328e31333454f82aaec9a49b350fe6409b596d83d4b3bf395f067623b056ca"}),
    ("lift-series-targets", ["lift"], NA_SERIES_TARGETS, 0, {
        "lift.json":
            "06b44aacdafd3751bdbb2bf00c58257936bb866ad2a1368989a52501b1057335"}),
    ("theta-q-ell-1", ["theta", "--mode", "q_ell"], THETA_1, 0, {
        "theta.json":
            "c5a5a3578d00d7834ea38586602e387738fde17ae216dc7dd8243d5e1d37e68a"}),
    ("theta-lambda-gamma-1", ["theta", "--mode", "lambda_gamma"], THETA_1, 0, {
        "theta.json":
            "c0ae0817ba776a04a3a0aa170bf4a3bb341b4b972c412659074d1b75912917d5"}),
    ("theta-q-ell-2", ["theta", "--mode", "q_ell"], THETA_2, 0, {
        "theta.json":
            "6394f8d1e758e32d64ae01d5bcb02f4711a4e34d303ba4ddd4ec06b00bde4c60"}),
    ("theta-lambda-gamma-2", ["theta", "--mode", "lambda_gamma"], THETA_2, 0, {
        "theta.json":
            "724d5d610d8b4b735688902ea5b0f00b33b0fbd47bab76871cb9097ff8637472"}),
    ("theta-q-ell-3", ["theta", "--mode", "q_ell"], THETA_3, 0, {
        "theta.json":
            "37781057f5b1f34496569bc4a3f17ae2a09635ff6e0afc98c0bc27cf6f042cc1"}),
    ("theta-lambda-gamma-3", ["theta", "--mode", "lambda_gamma"], THETA_3, 0, {
        "theta.json":
            "1dffd9c95f46810a31ab21dd749adea58f97718ec9ba4007e6baaf1e8d561310"}),
    ("type-6", ["type"], PLANE_6_ELL, 0, {
        "type.json":
            "2fa030c8e25f55f58cdd195128a538fb9c92f59e1aecb6961c7758e88b784c92"}),
    ("type-5", ["type"], SPACE_5_ELL, 0, {
        "type.json":
            "a8b23eea900f8783f6b30f7873541b32db08e557815a757fc0fdf4e972e88064"}),
    ("voronoi-gram-2", ["voronoi"], GRAM_2, 0, {
        "voronoi.json":
            "f35ddf0f354b6fd1396991c9bdc6e73ea404fa53c2e64cf1bcd0416d2f84cc36"}),
    ("voronoi-gram-3", ["voronoi"], GRAM_3, 0, {
        "voronoi.json":
            "13963019b76e982cc193d1d8a1d6b7c055d584d970b55cbdb60d7d44f70d8355"}),
    ("voronoi-gram-4", ["voronoi"], GRAM_4, 0, {
        "voronoi.json":
            "627b27295f580b5b0a1827591de8aa24c98949a482c317e912a977ed8cd43539"}),
]


def _digests(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


@pytest.mark.parametrize("argv, payload, code, digests",
                         [j[1:] for j in JOBS], ids=[j[0] for j in JOBS])
def test_artifact_digests(tmp_path, argv, payload, code, digests):
    argv = list(argv)
    if payload is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
        argv[1:1] = ["--input", str(path)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--output", str(out)]) == code
    assert _digests(out) == digests
