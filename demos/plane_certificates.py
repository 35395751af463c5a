"""A two-dimensional tour: cells, unimodularity, Voronoi certificates.

The datum is the square torus R^2 / 12 Z^2 with the diagonal degree-3
polarization.  The script computes the exact linearity cells of the theta
map, checks every slope-difference matrix for unimodularity, samples a
20 x 20 grid for injectivity violations, and then certifies a good
decomposition of the Voronoi cell piece by piece.
"""

from tropitheta import (
    Matrix, build_torus, certified_cells, check_injective,
    check_unimodular, linearity_cells, polarization_type, validate_datum,
)


def main():
    torus = build_torus(Matrix.from_rows([[12, 0], [0, 12]]))
    datum = validate_datum(torus, Matrix.from_rows([[3, 0], [0, 3]]),
                           [0, 0])
    info = polarization_type(datum)
    print("type %s with %d theta functions" % (info.type, len(info.reps)))

    pam = linearity_cells(datum)
    unimodular, verdicts = check_unimodular(pam)
    print("%d linearity cells over the fundamental domain" % len(pam.cells))
    print("all slope-difference matrices unimodular: %s" % unimodular)

    areas = {}
    for cm in pam.cells:
        areas[len(cm.vertices)] = areas.get(len(cm.vertices), 0) + 1
    for k in sorted(areas):
        print("  %d cells with %d vertices" % (areas[k], k))

    inj = check_injective(datum, mode="grid", resolution=20)
    print("grid injectivity scan: %s" % inj.status)

    dec, certs = certified_cells(datum)
    print("\nVoronoi cell of the polarization form: %d relevant vectors"
          % len(dec.cell.relevant))
    print("good decomposition into %d pieces" % len(dec.pieces))
    for piece, cert in zip(dec.pieces, certs):
        verts = " ".join("(%s, %s)" % v for v in sorted(piece.vertices))
        print("  piece with vertices %s" % verts)
        print("    certificate shifts %s, shared argmin %s"
              % (cert.ells[1:], cert.atilde))
    print("every certificate passed the shared-argmin verification")


if __name__ == "__main__":
    main()
