"""Exception types shared across the library.

The CLI maps these onto process exit codes: configuration / argument
problems exit with 2, numerical breakdowns with 3, iteration failures
with 4 (see :mod:`pbessel.cli`).
"""


class PerturbedBesselError(Exception):
    """Base class for all library errors."""


class InvalidMeshError(PerturbedBesselError, ValueError):
    """Mesh too small or point count incompatible with 6-point panels."""


class DomainError(PerturbedBesselError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class OrderCapError(PerturbedBesselError, ValueError):
    """Requested order above the documented cap of a direct formula.

    Only the test oracle's direct Fourier-Legendre route raises it now; the
    CLI still maps it to exit code 2.
    """


class ConvergenceError(PerturbedBesselError, RuntimeError):
    """An iteration did not converge within its iteration budget."""


class NonVanishingError(PerturbedBesselError, RuntimeError):
    """The particular solution has a non-positive sample on (0, b].

    The whole coefficient scheme divides by this solution, so it must be
    strictly positive away from the origin.  Sign-changing potentials for
    which this fails are outside the library's scope; construction refuses
    rather than guessing.
    """


class NumericalBreakdownError(PerturbedBesselError, RuntimeError):
    """A non-finite value appeared inside a recurrence."""

    def __init__(self, message: str, order: int | None = None):
        super().__init__(message)
        self.order = order


class EvaluationError(PerturbedBesselError, RuntimeError):
    """A solution/characteristic evaluation returned a non-finite value."""


class InsufficientDataError(PerturbedBesselError, ValueError):
    """Too few usable points remain for a fit after floor exclusion."""


class ConfigError(PerturbedBesselError, ValueError):
    """Malformed, incomplete or contradictory run configuration."""
