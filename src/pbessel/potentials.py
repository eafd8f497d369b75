"""Built-in potential catalog and potential ingestion.

Built-ins cover the decay-study families used throughout the numerical
experiments (and reproduce their figures from one command):

======================  =====================================================
name                    q(x)
======================  =====================================================
``zero``                0
``x^2`` (``q1``)        x^2
``sqrt(pi^2-x^2)``      sqrt(pi^2 - x^2)                    (``q2``)
``1/x`` (``q3``)        1/x, Coulomb term; x*q -> 1 at 0    (``coulomb``)
``q4``, ``q5``, ``q6``  0 for x <= pi/2, (x - pi/2)^{k-4} for x > pi/2
``s0`` .. ``s5``        1 for x <= pi/2, 1 + (x - pi/2)^k for x > pi/2
``const:C``             constant C
``csv:PATH``            samples (x, q) read from PATH; x must match the mesh
======================  =====================================================

The piecewise families switch at pi/2 regardless of b, matching their
published definitions (intended for b = pi).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .mesh import UniformMesh
from .spps import Potential

__all__ = ["BUILTIN_POTENTIAL_NAMES", "make_potential", "potential_callable"]

_HALF_PI = math.pi / 2.0


def _q_zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _q_xsq(x):
    return np.asarray(x, dtype=float) ** 2


def _q_sqrt(x):
    arg = math.pi**2 - np.asarray(x, dtype=float) ** 2
    if np.any(arg < -1e-12):
        raise DomainError("sqrt(pi^2-x^2) requires x <= pi")
    return np.sqrt(np.maximum(arg, 0.0))


def _q_coulomb(x):
    with np.errstate(divide="ignore"):
        return 1.0 / np.asarray(x, dtype=float)


def _q_step_power(p: int) -> Callable:
    def q(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > _HALF_PI, (x - _HALF_PI) ** p, 0.0)

    return q


def _q_one_plus_power(k: int) -> Callable:
    def q(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > _HALF_PI, 1.0 + (x - _HALF_PI) ** k, 1.0)

    return q


def _const(c: float) -> Callable:
    def q(x):
        return np.full_like(np.asarray(x, dtype=float), c)

    return q


# name -> (callable, xq_limit)
_CATALOG: dict[str, tuple[Callable, float]] = {
    "zero": (_q_zero, 0.0),
    "x^2": (_q_xsq, 0.0),
    "q1": (_q_xsq, 0.0),
    "sqrt(pi^2-x^2)": (_q_sqrt, 0.0),
    "q2": (_q_sqrt, 0.0),
    "1/x": (_q_coulomb, 1.0),
    "q3": (_q_coulomb, 1.0),
    "coulomb": (_q_coulomb, 1.0),
    "q4": (_q_step_power(0), 0.0),
    "q5": (_q_step_power(1), 0.0),
    "q6": (_q_step_power(2), 0.0),
}
for _k in range(6):
    _CATALOG[f"s{_k}"] = (_q_one_plus_power(_k), 0.0)

BUILTIN_POTENTIAL_NAMES = tuple(sorted(_CATALOG))


def potential_callable(spec: str) -> tuple[Callable, float] | None:
    """Resolve a spec string to (q callable, xq_limit); None for csv specs."""
    spec = spec.strip()
    if spec.startswith("csv:"):
        return None
    if spec.startswith("const:"):
        try:
            c = float(spec[len("const:") :])
        except ValueError as exc:
            raise ConfigError(f"bad constant potential {spec!r}") from exc
        return _const(c), 0.0
    if spec in _CATALOG:
        return _CATALOG[spec]
    raise ConfigError(
        f"unknown potential {spec!r}; choose one of {', '.join(BUILTIN_POTENTIAL_NAMES)}, "
        "const:C or csv:PATH"
    )


def _read_csv_samples(path: Path, mesh: UniformMesh) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read potential CSV {path}: {exc}") from exc
    except ValueError as exc:  # a non-numeric cell or a ragged row
        raise ConfigError(f"malformed potential CSV {path}: {exc}") from exc
    if data.shape[1] != 2:
        raise ConfigError(f"potential CSV {path} must have two columns (x, q)")
    if data.shape[0] != mesh.m:
        raise ConfigError(
            f"potential CSV {path} has {data.shape[0]} rows, mesh needs {mesh.m}"
        )
    if np.max(np.abs(data[:, 0] - mesh.x)) > 1e-9 * mesh.b:
        raise ConfigError(f"potential CSV {path} x-column does not match the mesh")
    return data[:, 1]


def make_potential(spec: str, mesh: UniformMesh, l: float) -> Potential:
    """Build a :class:`Potential` from a spec string on the given mesh."""
    spec = spec.strip()
    if spec.startswith("csv:"):
        values = _read_csv_samples(Path(spec[len("csv:") :]), mesh)
        return Potential.from_samples(mesh, values, l)
    func, xq_limit = potential_callable(spec)
    return Potential.from_callable(mesh, func, l, xq_limit=xq_limit)
