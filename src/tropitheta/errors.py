"""Exception hierarchy for the whole package.

Every failure mode that a caller can sensibly react to gets its own class.
The CLI maps these onto exit codes: schema problems exit 1, mathematical
precondition failures exit 2, failed certificates exit 3.
"""


class TropithetaError(Exception):
    """Base class for all package errors."""


# -- linear algebra ---------------------------------------------------------

class NotSymmetric(TropithetaError):
    """A matrix that must be symmetric is not: the input of a
    factorization, a Gram matrix, or the derived L^T.Pmat of a datum."""


class SingularMatrix(TropithetaError):
    """Inversion or solving was asked of a singular matrix."""


class SingularPivot(TropithetaError):
    """LDL^T hit a zero pivot with nonzero entries below it.

    No LDL^T factorization exists in that case.  A positive definite matrix
    never triggers this (all leading minors are positive).
    """


# -- torus / descent data ---------------------------------------------------

class SingularEmbedding(TropithetaError):
    """The period matrix is singular, so the lattice is not full rank."""


class NonIntegerLambda(TropithetaError):
    """A bilinear form was given that does not come from an integral map."""


class NotPolarization(TropithetaError):
    """The Gram matrix is not positive definite."""


# -- theta engine -----------------------------------------------------------

class WindowInsufficient(TropithetaError):
    """A search box could not be certified to contain all minimizers."""


class PreconditionViolated(TropithetaError):
    """An identity was invoked outside its hypotheses."""


# -- embedding analysis -----------------------------------------------------

class DimensionUnsupported(TropithetaError):
    """Exact cell decompositions are implemented for n <= 2 only."""


# -- Voronoi constructions --------------------------------------------------

class InternalInvariantViolated(TropithetaError):
    """An invariant the construction guarantees failed at runtime; a bug."""


class CertificateFailed(TropithetaError):
    """A decomposition certificate did not verify."""


# -- valued series / nonarchimedean lifts -----------------------------------

class DivisionByZero(TropithetaError):
    """Division by the zero valued scalar."""


class NotInvertible(TropithetaError):
    """Only monomial valued scalars are invertible in this model."""


class ValuationMismatch(TropithetaError):
    """Valuations of the pairing data disagree with the tropical datum."""


class AsymmetricPairing(TropithetaError):
    """The multiplicative pairing t(., lambda(.)) is not symmetric."""


class NotQuadratic(TropithetaError):
    """The valuation of the cocycle is not a quadratic form.

    Unreachable through validated data; guards directly constructed or
    corrupted datum objects."""


class RootUnavailable(TropithetaError):
    """A required d-th root does not exist in the scalar model."""


# -- CLI --------------------------------------------------------------------

class SchemaError(TropithetaError):
    """Malformed input file or job description."""
