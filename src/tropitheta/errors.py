"""Exception hierarchy for the whole package.

Every failure mode that a caller can sensibly react to gets its own class.
The CLI maps these onto exit codes: schema problems exit 1, mathematical
precondition failures (every subclass of PreconditionFailure) exit 2,
failed certificates exit 3.
"""


class TropithetaError(Exception):
    """Base class for all package errors."""


class PreconditionFailure(TropithetaError):
    """Base class for the mathematical preconditions that an input can
    fail; the CLI exits 2 on each."""


# -- linear algebra ---------------------------------------------------------

class NotSymmetric(PreconditionFailure):
    """A matrix that must be symmetric is not: the input of a
    factorization, a Gram matrix, or the derived L^T.Pmat of a datum."""


class SingularMatrix(PreconditionFailure):
    """Inversion or solving was asked of a singular matrix."""


class SingularPivot(PreconditionFailure):
    """LDL^T hit a zero pivot with nonzero entries below it.

    No LDL^T factorization exists in that case.  A positive definite matrix
    never triggers this (all leading minors are positive).
    """


# -- torus / descent data ---------------------------------------------------

class SingularEmbedding(PreconditionFailure):
    """The period matrix is singular, so the lattice is not full rank."""


class NonIntegerLambda(PreconditionFailure):
    """A bilinear form was given that does not come from an integral map."""


class NotPolarization(PreconditionFailure):
    """The Gram matrix is not positive definite."""


# -- theta engine -----------------------------------------------------------

class WindowInsufficient(PreconditionFailure):
    """A search box could not be certified to contain all minimizers."""


class PreconditionViolated(PreconditionFailure):
    """An identity was invoked outside its hypotheses."""


# -- embedding analysis -----------------------------------------------------

class DimensionUnsupported(PreconditionFailure):
    """Exact cell decompositions are implemented for n <= 2 only."""


# -- Voronoi constructions --------------------------------------------------

class InternalInvariantViolated(TropithetaError):
    """An invariant the construction guarantees failed at runtime; a bug."""


class CertificateFailed(TropithetaError):
    """A decomposition certificate did not verify."""


# -- valued series / nonarchimedean lifts -----------------------------------

class DivisionByZero(PreconditionFailure):
    """Division by the zero valued scalar."""


class NotInvertible(PreconditionFailure):
    """Only monomial valued scalars are invertible in this model."""


class ValuationMismatch(PreconditionFailure):
    """Valuations of the pairing data disagree with the tropical datum."""


class AsymmetricPairing(PreconditionFailure):
    """The multiplicative pairing t(., lambda(.)) is not symmetric."""


class NotQuadratic(PreconditionFailure):
    """The valuation of the cocycle is not a quadratic form.

    Unreachable through validated data; guards directly constructed or
    corrupted datum objects."""


class RootUnavailable(PreconditionFailure):
    """A required d-th root does not exist in the scalar model."""


# -- CLI --------------------------------------------------------------------

class SchemaError(TropithetaError):
    """Malformed input file or job description."""
