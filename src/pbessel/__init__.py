"""Solver for the perturbed Bessel equation on (0, b].

The library computes the regular solution of

    -u'' + (l(l+1)/x^2 + q(x)) u = omega^2 u,   x in (0, b],  l >= -1/2,

its x-derivative and eigenvalues of associated boundary-value problems.
The solution is represented as a Neumann series of spherical Bessel
functions whose x-dependent coefficients are computed once per potential
by a stable recurrent integration scheme; after that, evaluation at any
spectral parameter omega >= 0 costs one Bessel sweep, with an accuracy
that does not deteriorate as omega grows.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    InsufficientDataError,
    InvalidMeshError,
    NonVanishingError,
    NumericalBreakdownError,
    PerturbedBesselError,
)
from .mesh import (
    GridFunction,
    UniformMesh,
    cumulative_integral,
    cumulative_integral_guarded,
    cutoff_start_index,
    next_valid_size,
)
from .special import gamma_ratio_Bn, spherical_j_sequence
from .spps import ParticularSolution, Potential, build_u0
from .coefficients import (
    CoefficientTables,
    build_coefficient_tables,
    select_truncation,
)
from .solution import (
    NsbfSolution,
    build_solution,
    error_indicator,
    eval_u,
    eval_u_prime,
    strip_columns,
)
from .spectral import (
    BoundaryCondition,
    Eigenpair,
    SpectralProblem,
    characteristic,
    decay_fit,
    find_eigenvalues,
)
from .potentials import BUILTIN_POTENTIAL_NAMES, make_potential
from .config import RunConfig, config_sha256, emit_config, parse_config

__version__ = "0.1.0"


def __getattr__(name):
    # the shooting oracle pulls in scipy.integrate/optimize: load it on first use
    if name in ("shoot_eigenvalue_near", "shoot_endpoint", "shoot_solution"):
        from . import shooting

        return getattr(shooting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
