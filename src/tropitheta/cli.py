"""Command-line front end: exact JSON in, exact JSON (and SVG) out.

Subcommands: type, theta, embed, certify, voronoi, lift, example45.
Exit codes: 0 success, 1 malformed input (schema), 2 mathematical
precondition failure, 3 failed certificate or verification (the JSON
report, including any witness, is still written)."""

import argparse
import os
import sys

from . import jsonio, svg
from .embedding import (
    FaithfulReport, check_injective, check_unimodular,
    faithful_certificate, image_complex_1d, linearity_cells,
)
from .errors import (
    AsymmetricPairing, CertificateFailed, DimensionUnsupported,
    DivisionByZero, NonIntegerLambda, NonSymmetric, NotInvertible,
    NotPolarization, NotQuadratic, NotSymmetric, PreconditionViolated,
    ResidueCancellation, RootUnavailable, SchemaError, SingularEmbedding,
    SingularMatrix, SingularPivot, ValuationMismatch, WindowInsufficient,
)
from .nalift import (
    c_trop, fourier_lift, surjective_lift, tropicalize_fourier,
    verify_na_quasi_periodicity,
)
from .theta import INF, Q_ELL, LAMBDA_GAMMA, ThetaFunction, theta_eval
from .torus import build_torus, polarization_type, validate_datum
from .voronoi import VoronoiCell, certified_cells

PRECONDITION_ERRORS = (
    AsymmetricPairing, DimensionUnsupported, DivisionByZero,
    NonIntegerLambda, NonSymmetric, NotInvertible, NotPolarization,
    NotQuadratic, NotSymmetric, PreconditionViolated, RootUnavailable,
    SingularEmbedding, SingularMatrix, SingularPivot, ValuationMismatch,
    WindowInsufficient,
)
CERTIFICATE_ERRORS = (CertificateFailed, ResidueCancellation)


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


def _emit(args, name, payload):
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, name)
    jsonio.dump(payload, path)
    print("wrote %s" % path)
    return path


def _emit_svg(args, name, text):
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, name)
    with open(path, "w") as handle:
        handle.write(text)
    print("wrote %s" % path)
    return path


def _payload_datum(payload):
    if not isinstance(payload, dict) or "datum" not in payload:
        raise SchemaError("payload needs a 'datum' object")
    return jsonio.datum_from_json(payload["datum"])


def _int_vector(obj, what):
    if not isinstance(obj, list):
        raise SchemaError("%s must be a list of integers" % what)
    out = []
    for c in obj:
        if not isinstance(c, int):
            raise SchemaError("%s must be a list of integers" % what)
        out.append(c)
    return tuple(out)


def cmd_type(args):
    datum = _payload_datum(jsonio.load(args.input))
    info = polarization_type(datum)
    _emit(args, "type.json", {
        "type": [int(d) for d in info.type],
        "reps": [[int(c) for c in b] for b in info.reps]})
    return 0


def cmd_theta(args):
    payload = jsonio.load(args.input)
    datum = _payload_datum(payload)
    if "b" not in payload or "points" not in payload:
        raise SchemaError("theta payload needs 'b' and 'points'")
    b = _int_vector(payload["b"], "b")
    convention = Q_ELL if args.mode == "q_ell" else LAMBDA_GAMMA
    theta = ThetaFunction(datum, b, convention)
    points = [jsonio.vector_from_json(p) for p in payload["points"]]
    values = [jsonio.rational_to_str(theta_eval(theta, p)) for p in points]
    _emit(args, "theta.json", {
        "b": list(b), "convention": args.mode,
        "points": [jsonio.vector_to_json(p) for p in points],
        "values": values})
    return 0


def _cells_json(pam):
    cells = []
    for cm in pam.cells:
        cells.append({
            "vertices": [jsonio.vector_to_json(v) for v in cm.cell.vertices],
            "A": jsonio.matrix_to_json(cm.A),
            "offset": jsonio.vector_to_json(cm.offset),
            "argmins": [[int(c) for c in a] for a in cm.argmins]})
    return cells


def cmd_embed(args):
    datum = _payload_datum(jsonio.load(args.input))
    info = polarization_type(datum)
    pam = linearity_cells(datum, info)
    unimodular, verdicts = check_unimodular(pam)
    out = {"type": [int(d) for d in info.type],
           "reps": [[int(c) for c in b] for b in info.reps],
           "cells": _cells_json(pam),
           "unimodular": unimodular,
           "cell_verdicts": list(verdicts)}
    figures = []
    if datum.n == 1:
        img = image_complex_1d(datum, info, pam)
        out["image_complex"] = {
            "breakpoints": jsonio.vector_to_json(img.breakpoints),
            "parameters": jsonio.vector_to_json(img.parameters),
            "vertices": [jsonio.vector_to_json(v) for v in img.vertices],
            "directions": [[int(c) for c in d] for d in img.directions],
            "lattice_lengths": jsonio.vector_to_json(img.lattice_lengths)}
        figures.append({"points": svg.plane_points(img.vertices),
                        "kind": "polygon"})
    else:
        for cm in pam.cells:
            figures.append({"points": svg.plane_points(cm.cell.vertices),
                            "kind": "polygon"})
    _emit(args, "embed.json", out)
    _emit_svg(args, "embed.svg", svg.render(figures, title="theta image"))
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
    info = polarization_type(datum)
    if args.mode is None or datum.n > 2:
        report = faithful_certificate(datum, info,
                                      resolution=args.resolution)
    else:
        pam = linearity_cells(datum, info)
        unimodular, verdicts = check_unimodular(pam)
        mode = "exact" if args.mode == "exact" else "grid"
        inj = check_injective(datum, info, mode=mode,
                              resolution=args.resolution, pam=pam)
        report = FaithfulReport(unimodular, verdicts, inj,
                                bool(unimodular) and inj.status != "refuted")
    _emit(args, "certify.json", _report_json(report))
    if not report.faithful:
        print("certificate failed: the theta map is not faithful",
              file=sys.stderr)
        return 3
    return 0


def cmd_voronoi(args):
    payload = jsonio.load(args.input)
    if "datum" in payload:
        datum = _payload_datum(payload)
        translates = None
        if "translates" in payload:
            translates = [_int_vector(t, "translate")
                          for t in payload["translates"]]
        info, dec, certs = certified_cells(datum, translates)
        _emit(args, "voronoi.json", {
            "type": [int(d) for d in info.type],
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
    if "G" not in payload:
        raise SchemaError("voronoi payload needs 'G' or 'datum'")
    G = jsonio.matrix_from_json(payload["G"])
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
        targets = []
        for c in payload["targets"]:
            targets.append(INF if str(c) == "inf"
                           else jsonio.rational_from_str(c))
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
    b = _int_vector(payload["b"], "b")
    fd = fourier_lift(nad, b, args.window)
    shifts = {}
    ok = True
    for i in range(nad.n):
        w = tuple(1 if j == i else 0 for j in range(nad.n))
        holds = verify_na_quasi_periodicity(fd, nad, w)
        ok = ok and holds
        shifts[",".join(str(c) for c in w)] = holds
    _emit(args, "lift.json", {
        "fourier": jsonio.fourier_to_json(fd),
        "verification": {"quasi_periodicity": shifts}})
    return 0 if ok else 3


def cmd_example45(args):
    if args.d < 1:
        raise PreconditionViolated("the degree must be a positive integer")
    varpi = jsonio.rational_from_str(args.varpi)
    torus = build_torus(jsonio.Matrix.from_rows([[varpi]]))
    datum = validate_datum(torus, jsonio.Matrix.from_rows([[args.d]]), [0])
    info = polarization_type(datum)
    pam = linearity_cells(datum, info)
    report = faithful_certificate(datum, info, pam=pam)
    table = []
    for cm in pam.cells:
        lo = cm.cell.vertices[0][0]
        thetas = []
        for b, a in zip(info.reps, cm.argmins):
            slope = int(b[0]) + int(datum.L[0, 0]) * int(a[0])
            value = theta_eval(ThetaFunction(datum, b, Q_ELL), (lo,))
            offset = value - slope * lo
            thetas.append({"b": int(b[0]), "slope": slope,
                           "offset": jsonio.rational_to_str(offset)})
        table.append({
            "interval": [jsonio.rational_to_str(cm.cell.vertices[0][0]),
                         jsonio.rational_to_str(cm.cell.vertices[-1][0])],
            "theta": thetas,
            "A": jsonio.matrix_to_json(cm.A),
            "phi_offset": jsonio.vector_to_json(cm.offset)})
    img = image_complex_1d(datum, info, pam)
    out = {"d": args.d,
           "varpi": jsonio.rational_to_str(varpi),
           "piecewise_table": table,
           "breakpoints": jsonio.vector_to_json(img.breakpoints),
           "image_polygon": {
               "vertices": [jsonio.vector_to_json(v) for v in img.vertices],
               "directions": [[int(c) for c in d] for d in img.directions],
               "lattice_lengths": jsonio.vector_to_json(
                   img.lattice_lengths)},
           "unimodular": report.unimodular,
           "injective": report.injective.status == "certified",
           "injectivity_status": report.injective.status,
           "witness": None if report.injective.witness is None else
                      [jsonio.vector_to_json(w)
                       for w in report.injective.witness],
           "faithful": report.faithful}
    _emit(args, "example45.json", out)
    fig = {"points": svg.plane_points(img.vertices), "kind": "polygon"}
    _emit_svg(args, "example45.svg",
              svg.render([fig], title="image of the degree %d theta map"
                         % args.d))
    return 0


HANDLERS = {"type": cmd_type, "theta": cmd_theta, "embed": cmd_embed,
            "certify": cmd_certify, "voronoi": cmd_voronoi,
            "lift": cmd_lift, "example45": cmd_example45}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return HANDLERS[args.command](args)
    except SchemaError as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return 1
    except PRECONDITION_ERRORS as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 2
    except CERTIFICATE_ERRORS as exc:
        print("certificate failed: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
