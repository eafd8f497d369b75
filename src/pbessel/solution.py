"""Evaluation of the truncated regular solution and its x-derivative.

With the coefficient tables in hand, the solution at any spectral
parameter omega >= 0 and x in [0, b] is

    u_N(omega, x)  = x^{l+1} S_l(omega x) + sum_{n<=N} (-1)^n beta_n(x) j_{2n}(omega x),
    u_N'(omega, x) = x^l D_l(omega x) + (Q(x)/2) x^{l+1} S_l(omega x)
                     + sum_{n<=N} (-1)^n gamma_n(x) j_{2n}(omega x),

where S_l and D_l are the scaled forms of d(omega) b_l and
d(omega) omega b_l' (see :mod:`pbessel.special`); writing the leading
terms this way removes the omega^{-l-1} pole analytically, so omega = 0
needs no special-casing and large-l evaluations cannot overflow.  The
truncation error of both series is uniform in omega on the real axis,
which is what makes large eigenvalue scans accurate.

Evaluation reads only the family it needs (u: beta; u': gamma and Q),
as a column view of the read-only table or, off the mesh, a six-column
strip.  It is pure and thread-safe; omega may be a vector (one Bessel
sweep covers a whole scan line).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientTables, build_coefficient_tables
from .errors import DomainError
from .mesh import UniformMesh
from .special import bl_prime_scaled, bl_scaled, spherical_j_sequence
from .spps import ParticularSolution, Potential, build_u0

__all__ = ["NsbfSolution", "build_solution", "eval_u", "eval_u_prime", "error_indicator"]


@dataclass(frozen=True)
class NsbfSolution:
    """Truncated series solution of one perturbed Bessel problem.

    ``N_used`` is the truncation actually applied when evaluating; it
    defaults to the plateau-selected ``tables.N_opt`` and never exceeds
    ``tables.N``.
    """

    potential: Potential
    u0: ParticularSolution
    tables: CoefficientTables
    N_used: int

    def __post_init__(self):
        if not (0 <= self.N_used <= self.tables.N):
            raise DomainError(f"N_used must be in [0, {self.tables.N}], got {self.N_used}")

    @property
    def mesh(self) -> UniformMesh:
        return self.potential.mesh

    @property
    def l(self) -> float:
        return self.potential.l

    @property
    def b(self) -> float:
        return self.mesh.b


def build_solution(
    p: Potential,
    N: int = 100,
    N_used: int | None = None,
    tol: float = 1e-14,
    max_iter: int = 100,
) -> NsbfSolution:
    """Full pipeline: particular solution, coefficient tables, solution object."""
    u0 = build_u0(p, tol=tol, max_iter=max_iter)
    tables = build_coefficient_tables(u0, p, N=N)
    return NsbfSolution(
        potential=p,
        u0=u0,
        tables=tables,
        N_used=tables.N_opt if N_used is None else N_used,
    )


def _quintic_weights(mesh: UniformMesh, x: float) -> tuple[int, np.ndarray]:
    """Start index and Lagrange weights of 6-point interpolation at x."""
    h = mesh.h
    j0 = int(round(x / h)) - 3
    j0 = min(max(j0, 0), mesh.m - 6)
    t = x / h - j0  # position in units of h relative to window start
    nodes = np.arange(6, dtype=float)
    w = np.empty(6)
    for j in range(6):
        others = nodes[nodes != j]
        w[j] = np.prod((t - others) / (j - others))
    return j0, w


def _coeff_values_at(sol: NsbfSolution, x: float, *families: np.ndarray) -> tuple:
    """Each of ``families`` (last axis on the mesh) at x; quintic off-mesh."""
    mesh = sol.mesh
    i = int(round(x / mesh.h))
    if 0 <= i < mesh.m and abs(mesh.x[i] - x) <= 1e-12 * mesh.b:
        return tuple(f[..., i] for f in families)
    j0, w = _quintic_weights(mesh, x)
    return tuple(f[..., j0 : j0 + 6] @ w for f in families)


def _validate_eval_args(sol: NsbfSolution, omega, x: float) -> np.ndarray:
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if not np.isfinite(om).all() or (om < 0).any():
        raise DomainError("omega must be finite and >= 0")
    if not np.isfinite(x) or x < 0 or x > sol.b * (1 + 1e-12):
        raise DomainError(f"x must lie in [0, {sol.b}], got {x}")
    return om


def eval_u(sol: NsbfSolution, omega, x: float):
    """Regular solution u_N(omega, x); omega scalar or 1-D array."""
    om = _validate_eval_args(sol, omega, x)
    (beta,) = _coeff_values_at(sol, x, sol.tables.beta[: sol.N_used + 1])
    z = om * x
    lead = x ** (sol.l + 1.0) * np.atleast_1d(bl_scaled(sol.l, z))
    jmat = spherical_j_sequence(2 * sol.N_used, z)  # (2N+1, len(z)); z is 1-D here
    signs = (-1.0) ** np.arange(sol.N_used + 1)
    series = (signs * beta) @ jmat[0::2]
    out = lead + series
    return float(out[0]) if np.ndim(omega) == 0 else out


def eval_u_prime(sol: NsbfSolution, omega, x: float):
    """x-derivative of the regular solution; omega scalar or 1-D array."""
    om = _validate_eval_args(sol, omega, x)
    gamma, Q = _coeff_values_at(
        sol, x, sol.tables.gamma[: sol.N_used + 1], sol.potential.Q.values
    )
    z = om * x
    l = sol.l
    if x == 0.0:
        # u' is (l+1) x^l at the origin: 1 for l = 0, 0 for l > 0,
        # unbounded for -1/2 <= l < 0
        xl = 1.0 if l == 0.0 else (0.0 if l > 0.0 else np.inf)
    else:
        xl = x**l
    lead = xl * np.atleast_1d(bl_prime_scaled(l, z)) + 0.5 * Q * x ** (
        l + 1.0
    ) * np.atleast_1d(bl_scaled(l, z))
    jmat = spherical_j_sequence(2 * sol.N_used, z)
    signs = (-1.0) ** np.arange(sol.N_used + 1)
    series = (signs * gamma) @ jmat[0::2]
    out = lead + series
    return float(out[0]) if np.ndim(omega) == 0 else out


def error_indicator(sol: NsbfSolution, x: float) -> tuple[float, float]:
    """Computable proxies for the omega-uniform truncation error at x.

    Returns (|sum_{n<=N_used} beta_n(x)/x|, |same with gamma|): the exact
    sums vanish (the kernel diagonals are zero), so the truncated sums
    expose the combined truncation + accumulation error level, uniformly
    in omega.
    """
    if not (0 < x <= sol.b * (1 + 1e-12)):
        raise DomainError(f"error indicator needs x in (0, {sol.b}]")
    n = sol.N_used + 1
    beta, gamma = _coeff_values_at(sol, x, sol.tables.beta[:n], sol.tables.gamma[:n])
    return float(abs(beta.sum() / x)), float(abs(gamma.sum() / x))
