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

Evaluation reads only the families it needs (u: beta; u': gamma and Q),
as six-column strips of the read-only tables, exact on mesh points.
Tables built on a subset of the mesh columns (:func:`strip_columns` gives
the strips of a list of x) serve only x whose strip they kept.  One Bessel
sweep gives u, u' or both, at a vector of omega and, in the private kernel,
of x too (z is their outer product).

A solution hands the Bessel data of a one-x evaluation on to its next
one: the rows j_{2n}(z), n <= N_used, S_l(z) and D_l(z), keyed by the bytes
of z; S_l and D_l come from one call, which shares their J_{l-1/2},
J_{l+1/2} pair.
So :func:`eval_u` and :func:`eval_u_prime` at the same (omega, x) share one
sweep, with the same bits as two.  The next one-x call takes the entry
whether or not it matches, so after such a pair nothing is held (an entry
kept until the next miss split the heap under later large arrays and
raised a 200-row grid's peak RSS by 14 MB in some runs).  Evaluation stays
thread-safe: the held arrays are read-only, and the entry is taken and
left by single dict operations, so a race only recomputes a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientTables, build_coefficient_tables
from .errors import DomainError
from .mesh import UniformMesh
# bl_scaled and bl_prime_scaled stay importable here: bench/layers.py traces them by name
from .special import _leading_scaled, bl_prime_scaled, bl_scaled, spherical_j_sequence  # noqa: F401
from .spps import ParticularSolution, Potential, build_u0

__all__ = [
    "NsbfSolution",
    "build_solution",
    "strip_columns",
    "eval_u",
    "eval_u_prime",
    "error_indicator",
]


@dataclass(frozen=True)
class NsbfSolution:
    """Truncated series solution of one perturbed Bessel problem.

    ``N_used`` is the truncation actually applied when evaluating; it
    never exceeds ``tables.N``, and :func:`build_solution` sets it to the
    plateau-selected ``tables.N_opt``.  ``_last_sweep`` holds the Bessel
    data a one-x evaluation leaves for the next, j_{2n}, S_l and D_l (see the
    module docstring);
    it is private, takes no part in init, repr or comparison, and a copy
    made by ``dataclasses.replace`` starts with it empty.
    """

    potential: Potential
    u0: ParticularSolution
    tables: CoefficientTables
    N_used: int
    _last_sweep: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def build_solution(p: Potential, N: int = 100, columns=None) -> NsbfSolution:
    """Full pipeline: particular solution, coefficient tables, solution object.

    ``columns`` (default: all) are the mesh columns the tables keep, e.g.
    ``strip_columns(p.mesh, xs)`` for a solution evaluated only at ``xs``.
    """
    u0 = build_u0(p)
    tables = build_coefficient_tables(u0, p, N=N, columns=columns)
    return NsbfSolution(potential=p, u0=u0, tables=tables, N_used=tables.N_opt)


#: the six interpolation nodes, and for node j the other five and j minus them
_NODES = np.arange(6)
_OTHERS = np.broadcast_to(_NODES, (6, 6))[~np.eye(6, dtype=bool)].reshape(6, 5)
_NODE_DIFF = _NODES[:, None] - _OTHERS


def _quintic_weights(mesh: UniformMesh, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start indices and Lagrange weights (len(x), 6) of 6-point interpolation at x.

    Within 1e-12 b of a node t is an integer, where the weights are exactly one-hot.
    """
    s = x / mesh.h
    i = np.rint(s).astype(int)
    j0 = np.minimum(np.maximum(i - 3, 0), mesh.m - 6)
    on = np.abs(mesh.x[i] - x) <= 1e-12 * mesh.b
    t = np.where(on, i, s) - j0  # position in units of h relative to window start
    return j0, np.multiply.reduce((t[:, None, None] - _OTHERS) / _NODE_DIFF, axis=-1)


def _check_x(b: float, x) -> np.ndarray:
    """x as a 1-D float array; DomainError unless every entry lies in [0, b]."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(xs).all() or (xs < 0).any() or (xs > b * (1 + 1e-12)).any():
        raise DomainError(f"x must lie in [0, {b}], got {x}")
    return xs


def strip_columns(mesh: UniformMesh, x) -> np.ndarray:
    """Sorted mesh indices of the 6-point strips that evaluation at ``x`` reads, and m-1.

    Pass them as ``columns`` to :func:`build_solution` for a solution that
    is evaluated only at ``x`` (and at b, which the residuals read).
    """
    j0, _ = _quintic_weights(mesh, _check_x(mesh.b, x))
    return np.union1d((j0[:, None] + _NODES).ravel(), [mesh.m - 1])


def _coeff_values_at(sol: NsbfSolution, x: np.ndarray, *families: np.ndarray) -> tuple:
    """Each of ``families`` at every x, from a 6-point strip.

    A family with a value at every mesh point (Q, or a table of every
    column) reads the strip's mesh indices; a table of ``tables.columns``
    reads the table columns that hold them, and raises DomainError for an
    x whose strip it did not keep.
    """
    j0, w = _quintic_weights(sol.mesh, x)
    window = pos = j0[:, None] + _NODES
    kept = sol.tables.columns
    if kept is not None:
        pos = np.minimum(np.searchsorted(kept, window), kept.size - 1)
        lost = (kept[pos] != window).any(axis=1)
        if lost.any():
            raise DomainError(
                f"the tables do not keep the strip of x = {x[lost][0]}; "
                "build them with columns=strip_columns(mesh, x)"
            )
    m = sol.mesh.m
    return tuple((f[..., window if f.shape[-1] == m else pos] * w).sum(axis=-1) for f in families)


def _sweep(sol: NsbfSolution, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """j_{2n}(z), n <= N_used, along a new last axis, S_l(z) and D_l(z), at z = outer(x, omega).

    A one-x call takes the entry the last one-x call left: it reuses it if
    the bytes of z match, drops it either way (before any new sweep, so two
    never coexist), and leaves its own only after a miss.
    """
    key = z.tobytes() if len(z) == 1 else None
    if key is not None:
        last = sol._last_sweep.pop("z", None)
        if last is not None and last[0] == key:
            return last[1:]
    # (len(x), len(omega), N+1), a view of the even rows of the sweep
    rows = spherical_j_sequence(2 * sol.N_used, z.ravel())[0::2]
    jeven = rows.T.reshape(*z.shape, sol.N_used + 1)
    s, d = (a.reshape(z.shape) for a in _leading_scaled(sol.l, z.ravel(), "_sweep"))
    if key is not None:
        jeven.flags.writeable = s.flags.writeable = d.flags.writeable = False
        sol._last_sweep["z"] = (key, jeven, s, d)
    return jeven, s, d


def _series(sol: NsbfSolution, omega, x, u: bool = True, du: bool = True) -> tuple:
    """(u, u') at every (x, omega) pair from one Bessel sweep.

    ``omega`` and ``x`` are scalars or 1-D arrays.  Each requested result
    has shape (len(x), len(omega)); the other is None.  Every entry equals
    the one a call on its own (omega, x) pair gives, bit for bit.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if not np.isfinite(om).all() or (om < 0).any():
        raise DomainError("omega must be finite and >= 0")
    xs = _check_x(sol.b, x)
    l, n = sol.l, sol.N_used + 1
    t = sol.tables
    families = ([t.beta[:n]] if u else []) + ([t.gamma[:n], sol.potential.Q.values] if du else [])
    coeffs = _coeff_values_at(sol, xs, *families)
    z = np.multiply.outer(xs, om)
    jeven, s, d = _sweep(sol, z)
    signs = (-1.0) ** np.arange(n)

    # summed along the contiguous last axis of the product, so the order of
    # the additions does not depend on the shape of the call
    def series(c):
        return np.multiply(jeven, (signs[:, None] * c).T[:, None, :], order="C").sum(axis=-1)

    # libm pow per x, as for one x; u' is unbounded at x = 0 for l < 0
    xl1 = np.array([[v ** (l + 1.0)] for v in xs.tolist()])
    xl = np.array([[math.inf if v == 0.0 and l < 0 else v**l] for v in xs.tolist()])
    out_u = xl1 * s + series(coeffs[0]) if u else None
    out_du = None
    if du:
        gamma, Q = coeffs[-2:]
        out_du = xl * d + 0.5 * Q[:, None] * xl1 * s + series(gamma)
    return out_u, out_du


def _one_x(x):
    """x itself, unless it is not a scalar (DomainError)."""
    if np.ndim(x) != 0:
        raise DomainError(f"x must be a scalar, got an array of shape {np.shape(x)}")
    return x


def eval_u(sol: NsbfSolution, omega, x: float):
    """Regular solution u_N(omega, x); omega scalar or 1-D array."""
    u, _ = _series(sol, omega, _one_x(x), du=False)
    return float(u[0, 0]) if np.ndim(omega) == 0 else u[0]


def eval_u_prime(sol: NsbfSolution, omega, x: float):
    """x-derivative of the regular solution; omega scalar or 1-D array."""
    _, du = _series(sol, omega, _one_x(x), u=False)
    return float(du[0, 0]) if np.ndim(omega) == 0 else du[0]


def error_indicator(sol: NsbfSolution, x: float) -> tuple[float, float]:
    """Computable proxies for the omega-uniform truncation error at x.

    Returns (|sum_{n<=N_used} beta_n(x)/x|, |same with gamma|): the exact
    sums vanish (the kernel diagonals are zero), so the truncated sums
    expose the combined truncation + accumulation error level, uniformly
    in omega.

    Not meaningful near the origin.  There the high-order table rows hold
    amplified rounding noise (the recurrence divides by x^{2n}), and the
    sums are that noise: on x^2, l = 3/2, m = 20001, N = 100 the result is
    (4.3e147, 7.5e154) at x = 0.001, 2.8e29 for beta at x = 0.1 and
    (8.9e-11, 5.8e-8) at x = 0.3, while :func:`eval_u` stays accurate near
    the origin because j_{2n}(omega x) suppresses those rows.
    """
    if not (0 < _one_x(x) <= sol.b * (1 + 1e-12)):
        raise DomainError(f"error indicator needs x in (0, {sol.b}]")
    n = sol.N_used + 1
    beta, gamma = _coeff_values_at(sol, np.array([x]), sol.tables.beta[:n], sol.tables.gamma[:n])
    return float(abs(beta.sum() / x)), float(abs(gamma.sum() / x))
