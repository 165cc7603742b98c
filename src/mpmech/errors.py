"""Exception hierarchy shared by all mpmech modules.

The CLI maps these onto its exit-code contract: input problems exit 2,
validation and runtime failures exit 1.
"""


class Error(Exception):
    """Base class for all mpmech errors."""


class InputError(Error, ValueError):
    """Malformed or inconsistent input (bad shapes, bad files, bad flags)."""


class DimensionMismatch(InputError):
    """A vector or tensor does not match the dimension it is used with."""


class EmbeddingError(InputError):
    """A matrix basis is rank deficient or not closed under commutators."""


class DegenerateMetricError(InputError):
    """A form is not positive definite: a metric block (``legendre``) or
    the quadratic Hamiltonian of an Euler-Poincare flow (``integrate_ep``)."""


class ValidationError(Error):
    """A structural check failed (Jacobi identity, compatibility, unitarity)."""


class IntegrationError(Error):
    """A trajectory left the finite floating-point range."""

    def __init__(self, message: str, last_good_time: float):
        super().__init__(message)
        self.last_good_time = last_good_time
