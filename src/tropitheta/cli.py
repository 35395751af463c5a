"""Command-line front end: exact JSON in, exact JSON (and SVG) out.

Subcommands: type, theta, embed, certify, voronoi, lift, example45.
Exit codes: 0 success, 1 malformed input (schema), 2 mathematical
precondition failure, 3 failed certificate or verification (the JSON
report, including any witness, is still written)."""

import argparse
import functools
import os
import sys

from . import jsonio, svg
from .embedding import (
    check_unimodular, faithful_certificate, image_complex_1d, linearity_cells,
)
from .errors import (
    CertificateFailed, PreconditionFailure, PreconditionViolated, SchemaError,
)
from .exactlinalg import det
from .nalift import (
    fourier_lift, surjective_lift, verify_na_quasi_periodicity,
)
from .theta import (
    INF, Q_ELL, LAMBDA_GAMMA, ThetaFunction, affine_piece, theta_eval,
)
from .torus import build_torus, polarization_type, validate_datum
from .voronoi import VoronoiCell, certified_cells


class _Parser(argparse.ArgumentParser):
    # argparse usage problems are job-schema problems: exit 1, not 2
    def error(self, message):
        raise SchemaError(message)


def build_parser():
    parser = _Parser(prog="tropitheta", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)
    sub.required = True

    def add(name, help_text, input_file=True):
        s = sub.add_parser(name, help=help_text)
        if input_file:
            s.add_argument("--input", required=True, metavar="FILE",
                           help="JSON job payload")
        s.add_argument("--output", default=".", metavar="DIR",
                       help="directory for emitted artifacts")
        return s

    add("type", "polarization type and theta representatives")
    theta = add("theta", "evaluate theta functions at rational points")
    theta.add_argument("--mode", choices=("q_ell", "lambda_gamma"),
                       default="q_ell", help="value convention")
    add("embed", "exact linearity cells of the theta map")
    certify = add("certify", "unimodularity + injectivity certificate")
    certify.add_argument("--mode", choices=("exact", "sampled"),
                         default=None, help="force the injectivity mode")
    certify.add_argument("--resolution", type=int, default=20,
                         help="grid resolution for sampled injectivity")
    add("voronoi", "relevant vectors, cell, certified decompositions")
    lift = add("lift", "Fourier lifts over the valued series model")
    lift.add_argument("--window", type=int, default=4,
                      help="coefficient window radius")
    ex = add("example45", "golden elliptic reproduction", input_file=False)
    ex.add_argument("--d", type=int, required=True,
                    help="polarization degree")
    ex.add_argument("--varpi", default="12",
                    help="period (rational, e.g. 12 or 27/2)")
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    # built on the first job, not at import, and reused: parse_args fills a
    # fresh namespace on every call, so no value carries over between jobs
    return build_parser()


def _emit(args, name, payload):
    # write one artifact atomically: a JSON object, or the text of an SVG
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, name)
    if isinstance(payload, str):
        jsonio._write_atomic(payload, path)
    else:
        jsonio.dump(payload, path)
    print("wrote %s" % path)
    return path


def _payload_datum(payload):
    if not isinstance(payload, dict) or "datum" not in payload:
        raise SchemaError("payload needs a 'datum' object")
    return jsonio.datum_from_json(payload["datum"])


def _list(payload, key):
    if not isinstance(payload[key], list):
        raise SchemaError("%r must be a list" % key)
    return payload[key]


def _int_vector(obj, what, n):
    # a list of n integers, n being the dimension of the job's datum
    if not isinstance(obj, list) or not all(type(c) is int for c in obj):
        raise SchemaError("%s must be a list of integers" % what)
    if len(obj) != n:
        raise SchemaError("%s must have %d entries" % (what, n))
    return tuple(obj)


def _type_json(datum):
    info = polarization_type(datum)
    return {"type": [int(d) for d in info.type],
            "reps": [[int(c) for c in b] for b in info.reps]}


def cmd_type(args):
    datum = _payload_datum(jsonio.load(args.input))
    _emit(args, "type.json", _type_json(datum))
    return 0


def cmd_theta(args):
    payload = jsonio.load(args.input)
    datum = _payload_datum(payload)
    if "b" not in payload or "points" not in payload:
        raise SchemaError("theta payload needs 'b' and 'points'")
    b = _int_vector(payload["b"], "b", datum.n)
    convention = Q_ELL if args.mode == "q_ell" else LAMBDA_GAMMA
    theta = ThetaFunction(datum, b, convention)
    points = [jsonio.vector_from_json(p) for p in _list(payload, "points")]
    if any(len(p) != datum.n for p in points):
        raise SchemaError("each point must have %d entries" % datum.n)
    values = [jsonio.rational_to_str(theta_eval(theta, p)) for p in points]
    _emit(args, "theta.json", {
        "b": list(b), "convention": args.mode,
        "points": [jsonio.vector_to_json(p) for p in points],
        "values": values})
    return 0


def _cells_json(datum):
    cells = []
    for cm in linearity_cells(datum).cells:
        cells.append({
            "vertices": [jsonio.vector_to_json(v) for v in cm.vertices],
            "A": jsonio.rows_to_json(cm.A, datum.n),
            "offset": jsonio.vector_to_json(cm.offset),
            "argmins": [[int(c) for c in a] for a in cm.argmins]})
    return cells


def _polygon_json(img):
    return {"vertices": [jsonio.vector_to_json(v) for v in img.vertices],
            "directions": [[int(c) for c in d] for d in img.directions],
            "lattice_lengths": jsonio.vector_to_json(img.lattice_lengths)}


def cmd_embed(args):
    datum = _payload_datum(jsonio.load(args.input))
    pam = linearity_cells(datum)
    unimodular, verdicts = check_unimodular(pam)
    out = dict(_type_json(datum), cells=_cells_json(datum),
               unimodular=unimodular, cell_verdicts=list(verdicts))
    figures = []
    if datum.n == 1:
        img = image_complex_1d(datum)
        out["image_complex"] = dict(
            _polygon_json(img),
            breakpoints=jsonio.vector_to_json(img.breakpoints),
            parameters=jsonio.vector_to_json(img.parameters))
        figures.append({"points": svg.plane_points(img.vertices),
                        "kind": "polygon"})
    else:
        for cm in pam.cells:
            figures.append({"points": svg.plane_points(cm.vertices),
                            "kind": "polygon"})
    _emit(args, "embed.json", out)
    _emit(args, "embed.svg", svg.render(figures, title="theta image"))
    return 0


def _report_json(report):
    witness = report.injective.witness
    return {"unimodular": report.unimodular,
            "cell_verdicts": list(report.cell_verdicts),
            "injective": {
                "status": report.injective.status,
                "witness": None if witness is None else
                           [jsonio.vector_to_json(w) for w in witness]},
            "faithful": report.faithful}


def cmd_certify(args):
    datum = _payload_datum(jsonio.load(args.input))
    report = faithful_certificate(
        datum, resolution=args.resolution,
        mode="grid" if args.mode == "sampled" else args.mode)
    _emit(args, "certify.json", _report_json(report))
    if not report.faithful:
        print("certificate failed: the theta map is not faithful",
              file=sys.stderr)
        return 3
    return 0


def cmd_voronoi(args):
    payload = jsonio.load(args.input)
    if not isinstance(payload, dict) or not {"G", "datum"} & payload.keys():
        raise SchemaError("voronoi payload needs 'G' or 'datum'")
    if "datum" in payload:
        datum = _payload_datum(payload)
        translates = None
        if "translates" in payload:
            translates = [_int_vector(t, "translate", datum.n)
                          for t in _list(payload, "translates")]
        dec, certs = certified_cells(datum, translates)
        _emit(args, "voronoi.json", {
            "type": [int(d) for d in polarization_type(datum).type],
            "relevant_vectors": [[int(c) for c in v]
                                 for v in dec.cell.relevant],
            "pieces": [{
                "vertices": [jsonio.vector_to_json(v) for v in p.vertices],
                "half_periods": [jsonio.vector_to_json(h)
                                 for h in p.half_periods],
                "basis": [jsonio.vector_to_json(b) for b in p.basis]}
                for p in dec.pieces],
            "certificates": [{
                "ells": [[int(c) for c in e] for e in cert.ells],
                "atilde": [int(c) for c in cert.atilde]}
                for cert in certs]})
        return 0
    G = jsonio.matrix_from_json(payload["G"])
    if not G.is_square:
        raise SchemaError("G must be a square matrix")
    cell = VoronoiCell(G)
    _emit(args, "voronoi.json", {
        "relevant_vectors": [[int(c) for c in v] for v in cell.relevant],
        "count": len(cell.relevant),
        "halfspaces": [{"normal": jsonio.vector_to_json(nrm),
                        "offset": jsonio.rational_to_str(off)}
                       for nrm, off in cell.halfspaces]})
    return 0


def cmd_lift(args):
    payload = jsonio.load(args.input)
    if not isinstance(payload, dict) or "na_datum" not in payload:
        raise SchemaError("lift payload needs 'na_datum'")
    nad = jsonio.na_datum_from_json(payload["na_datum"])
    if "targets" in payload:
        targets = _list(payload, "targets")
        # one target per representative of M / L.Z^n, of which there are
        # |det L| (none for a singular L, which fails as a precondition)
        count = abs(det(nad.L))
        if count and len(targets) != count:
            raise SchemaError("'targets' must have %d entries" % count)
        targets = [INF if str(c) == "inf" else jsonio.rational_from_str(c)
                   for c in targets]
        fd, report = surjective_lift(nad, targets, args.window)
        _emit(args, "lift.json", {
            "fourier": jsonio.fourier_to_json(fd),
            "report": {
                "lambdas": [int(l) for l in report.lambdas],
                "samples": [jsonio.vector_to_json(v)
                            for v in report.samples],
                "verified": report.verified}})
        return 0 if report.verified else 3
    if "b" not in payload:
        raise SchemaError("lift payload needs 'b' or 'targets'")
    b = _int_vector(payload["b"], "b", nad.n)
    fd = fourier_lift(nad, b, args.window)
    shifts = {}
    for i in range(nad.n):
        w = tuple(1 if j == i else 0 for j in range(nad.n))
        shifts[",".join(str(c) for c in w)] = \
            verify_na_quasi_periodicity(fd, nad, w)
    _emit(args, "lift.json", {
        "fourier": jsonio.fourier_to_json(fd),
        "verification": {"quasi_periodicity": shifts}})
    return 0 if all(shifts.values()) else 3


def cmd_example45(args):
    if args.d < 1:
        raise PreconditionViolated("the degree must be a positive integer")
    varpi = jsonio.rational_from_str(args.varpi)
    torus = build_torus(jsonio.Matrix.from_rows([[varpi]]))
    datum = validate_datum(torus, jsonio.Matrix.from_rows([[args.d]]), [0])
    pam = linearity_cells(datum)
    report = faithful_certificate(datum)
    table = []
    for cm in pam.cells:
        thetas = []
        for b, a in zip(pam.reps, cm.argmins):
            slope, offset = affine_piece(datum, b, a)
            thetas.append({"b": int(b[0]), "slope": slope[0],
                           "offset": jsonio.rational_to_str(offset)})
        table.append({
            "interval": [jsonio.rational_to_str(cm.vertices[0][0]),
                         jsonio.rational_to_str(cm.vertices[-1][0])],
            "theta": thetas,
            "A": jsonio.rows_to_json(cm.A, datum.n),
            "phi_offset": jsonio.vector_to_json(cm.offset)})
    img = image_complex_1d(datum)
    out = {"d": args.d,
           "varpi": jsonio.rational_to_str(varpi),
           "piecewise_table": table,
           "breakpoints": jsonio.vector_to_json(img.breakpoints),
           "image_polygon": _polygon_json(img),
           "unimodular": report.unimodular,
           "injective": report.injective.status == "certified",
           "injectivity_status": report.injective.status,
           "witness": None if report.injective.witness is None else
                      [jsonio.vector_to_json(w)
                       for w in report.injective.witness],
           "faithful": report.faithful}
    _emit(args, "example45.json", out)
    fig = {"points": svg.plane_points(img.vertices), "kind": "polygon"}
    _emit(args, "example45.svg",
          svg.render([fig], title="image of the degree %d theta map"
                     % args.d))
    return 0


HANDLERS = {"type": cmd_type, "theta": cmd_theta, "embed": cmd_embed,
            "certify": cmd_certify, "voronoi": cmd_voronoi,
            "lift": cmd_lift, "example45": cmd_example45}


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return HANDLERS[args.command](args)
    except SchemaError as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return 1
    except PreconditionFailure as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 2
    except CertificateFailed as exc:
        print("certificate failed: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
