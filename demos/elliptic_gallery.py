"""Walk the elliptic degrees d = 1 .. 4 for the circle of period 12.

For each degree: the piecewise description of every theta function over
one period, the slope-difference data of the projective map, and the
faithfulness verdict.  Degree 1 fails unimodularity (a single theta
carries no slope differences), degree 2 is unimodular but folds the
circle in half, degree 3 and 4 are faithful.  Each call takes the datum
alone; the cell map is built once per degree, each theta function is read
off it as the affine piece of its minimizer on the cell, and the
certificate and the image polygon read it from the datum.
"""

from fractions import Fraction

from tropitheta import (
    Matrix, build_torus, faithful_certificate, image_complex_1d,
    linearity_cells, polarization_type, validate_datum,
)
from tropitheta.theta import affine_piece

VARPI = 12


def affine(slope, offset):
    if offset == 0:
        return "%s*x" % slope
    sign = "+" if offset > 0 else "-"
    return "%s*x %s %s" % (slope, sign, abs(offset))


def pretty(vector):
    return "(" + ", ".join(str(c) for c in vector) + ")"


def describe(d):
    torus = build_torus(Matrix.from_rows([[VARPI]]))
    datum = validate_datum(torus, Matrix.from_rows([[d]]), [0])
    info = polarization_type(datum)
    print("degree %d: type %s, representatives %s"
          % (d, info.type, [b[0] for b in info.reps]))
    pam = linearity_cells(datum)
    for cm in pam.cells:
        lo, hi = cm.vertices[0][0], cm.vertices[-1][0]
        pieces = []
        for b, a in zip(info.reps, cm.argmins):
            (slope,), offset = affine_piece(datum, b, a)
            pieces.append("theta_%d: %s" % (b[0], affine(slope, offset)))
        print("  on [%s, %s]  %s" % (lo, hi, ",  ".join(pieces)))
    report = faithful_certificate(datum)
    print("  unimodular %s, injectivity %s, faithful %s"
          % (report.unimodular, report.injective.status, report.faithful))
    if report.injective.witness:
        w1, w2 = report.injective.witness
        print("  identified points: x = %s and x = %s" % (w1[0], w2[0]))
    if d >= 2:
        img = image_complex_1d(datum)
        print("  image polygon: vertices %s"
              % " ".join(pretty(v) for v in img.vertices))
        print("  edge lattice lengths %s (period / degree = %s)"
              % (pretty(img.lattice_lengths), Fraction(VARPI, d)))
    print()


if __name__ == "__main__":
    for d in (1, 2, 3, 4):
        describe(d)
