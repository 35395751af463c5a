"""Exact tropical theta functions on tropical abelian varieties.

The package computes tropical theta functions attached to polarized real
tori with integral structure, certifies faithfulness (injectivity plus
unimodularity) of the induced maps to tropical projective space, constructs
Voronoi-adapted decompositions with verifiable certificates, and models the
nonarchimedean lifting of tropical theta functions through exact Fourier
coefficient data over a valued-series scalar type.

All arithmetic is exact rational; nothing in the package touches floating
point.
"""

from .exactlinalg import (
    Matrix, det, inverse, is_positive_definite, ldlt, snf, solve,
)
from .torus import (
    TorusPresentation, TropicalDescentDatum, build_torus, polarization_type,
    validate_datum,
)
from .theta import (
    INF, LAMBDA_GAMMA, Q_ELL, ThetaFunction, coset_argmins, lattice_argmin,
    theta_eval,
)
from .embedding import (
    check_injective, check_unimodular, faithful_certificate,
    image_complex_1d, linearity_cells, phi_eval,
)
from .voronoi import (
    VoronoiCell, basis_in_simplex, certified_cells, good_decomposition,
    relevant_vectors,
)
from .nalift import (
    ValuedScalar, build_na_datum, c_extend, c_trop, divide_datum,
    fourier_lift, monomial, surjective_lift, t_pair, tropicalize_fourier,
    verify_na_quasi_periodicity, vs_val,
)

__version__ = "0.1.0"

__all__ = [
    "Matrix", "det", "inverse", "is_positive_definite", "ldlt", "snf",
    "solve",
    "TorusPresentation", "TropicalDescentDatum", "build_torus",
    "polarization_type", "validate_datum",
    "INF", "LAMBDA_GAMMA", "Q_ELL", "ThetaFunction",
    "coset_argmins", "lattice_argmin", "theta_eval",
    "check_injective", "check_unimodular", "faithful_certificate",
    "image_complex_1d", "linearity_cells", "phi_eval",
    "VoronoiCell", "basis_in_simplex", "certified_cells",
    "good_decomposition", "relevant_vectors",
    "ValuedScalar", "build_na_datum", "c_extend", "c_trop", "divide_datum",
    "fourier_lift", "monomial", "surjective_lift", "t_pair",
    "tropicalize_fourier", "verify_na_quasi_periodicity", "vs_val",
    "__version__",
]
