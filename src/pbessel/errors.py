"""Exception types shared across the library.

Each class carries the process exit code and the stderr label under which
:func:`pbessel.cli.main` reports it, as ``pbessel: {label}: {message}``:
2 "configuration error" for configuration and argument problems, 3
"numerical breakdown" for non-finite values, 4 "convergence failure" for
iterations that fail, and the base class's 3 "error" for the rest.
"""


class PerturbedBesselError(Exception):
    """Base class for all library errors."""

    exit_code = 3
    label = "error"


class InvalidMeshError(PerturbedBesselError, ValueError):
    """Mesh too small or point count incompatible with 6-point panels."""

    exit_code = 2
    label = "configuration error"


class DomainError(PerturbedBesselError, ValueError):
    """Argument outside the mathematical domain of an operation."""

    exit_code = 2
    label = "configuration error"


class ConvergenceError(PerturbedBesselError, RuntimeError):
    """An iteration did not converge within its iteration budget."""

    exit_code = 4
    label = "convergence failure"


class NonVanishingError(PerturbedBesselError, RuntimeError):
    """The particular solution has a non-positive sample on (0, b].

    The whole coefficient scheme divides by this solution, so it must be
    strictly positive away from the origin.  Sign-changing potentials for
    which this fails are outside the library's scope; construction refuses
    rather than guessing.
    """

    exit_code = 4
    label = "convergence failure"


class NumericalBreakdownError(PerturbedBesselError, RuntimeError):
    """A non-finite value appeared inside a recurrence."""

    label = "numerical breakdown"

    def __init__(self, message: str, order: int | None = None):
        super().__init__(message)
        self.order = order


class EvaluationError(PerturbedBesselError, RuntimeError):
    """A solution/characteristic evaluation returned a non-finite value."""

    label = "numerical breakdown"


class InsufficientDataError(PerturbedBesselError, ValueError):
    """Too few usable points remain for a fit after floor exclusion."""


class ConfigError(PerturbedBesselError, ValueError):
    """Malformed, incomplete or contradictory run configuration."""

    exit_code = 2
    label = "configuration error"
