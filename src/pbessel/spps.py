"""Particular solution u0, by Picard iteration.

The seed of the whole method is the non-vanishing solution u0 of

    -u0'' + (l(l+1)/x^2 + q(x)) u0 = 0,   u0(x) ~ x^{l+1} as x -> 0.

It is produced by Picard iteration of the Volterra equation

    u0(x) = x^{l+1} + (2l+1)^{-1} integral_0^x (x^{l+1} s^{-l} - x^{-l} s^{l+1}) q(s) u0(s) ds,

written in the scaled variable w = u0/x^{l+1} so the x^{l+1} asymptotics
is built in exactly and the iteration works on O(1) quantities.  The
derivative comes from differentiating the same representation, never
from numerical differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, NonVanishingError
from .mesh import GridFunction, UniformMesh, _sample_dtype
from .mesh import _cumulative_values, _guarded_cumulative_values
from .special import _check_l

__all__ = ["Potential", "ParticularSolution", "build_u0"]

#: Picard stopping rule of :func:`build_u0`: the sweep stops once its update,
#: relative to max(1, max|w|), is below ``_PICARD_TOL`` (or stalls at the
#: rounding floor); ``_PICARD_MAX_SWEEPS`` sweeps without either raise.
_PICARD_TOL = 1e-14
_PICARD_MAX_SWEEPS = 100


@dataclass(frozen=True)
class Potential:
    """Potential q on a mesh together with its antiderivative Q.

    Attributes
    ----------
    q : GridFunction
        Samples of q; a non-finite sample at x = 0 (singular potentials
        such as 1/x) is replaced by 0 during construction and flagged in
        ``origin_singular``.  That sample is never used on its own: all
        integrands are assembled as products with positive powers of x.
    l : float
        Angular parameter, l >= -1/2.
    Q : GridFunction
        Q(x) = integral_0^x q, by guarded cumulative quadrature.
    xq_limit : float
        lim_{x->0} x*q(x).  Zero for every potential finite at the
        origin; 1 for the Coulomb term 1/x.  Used to pin the origin
        sample of integrands that behave like (x q) * smooth.
    origin_singular : bool
        Whether the raw sample at x = 0 was non-finite.
    """

    q: GridFunction
    l: float
    Q: GridFunction
    xq_limit: float = 0.0
    origin_singular: bool = False

    @property
    def mesh(self) -> UniformMesh:
        return self.q.mesh

    @staticmethod
    def from_samples(
        mesh: UniformMesh,
        values: np.ndarray,
        l: float,
        xq_limit: float = 0.0,
    ) -> "Potential":
        l = _check_l(l)
        v = np.array(values, dtype=_sample_dtype(values))
        if v.shape != (mesh.m,):
            raise DomainError(f"expected {mesh.m} potential samples, got {v.shape}")
        singular = not np.isfinite(v[0])
        if singular:
            v[0] = 0.0
        if not np.isfinite(v).all():
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise DomainError(f"non-finite potential sample at x={mesh.x[bad]}")
        q = GridFunction(mesh, v)
        Qv, _ = _guarded_cumulative_values(v, mesh.grid(v.dtype)[1])
        return Potential(
            q=q,
            l=l,
            Q=GridFunction(mesh, Qv),
            xq_limit=float(xq_limit),
            origin_singular=singular,
        )

    @staticmethod
    def from_callable(
        mesh: UniformMesh, func: Callable, l: float, xq_limit: float = 0.0
    ) -> "Potential":
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.asarray(func(mesh.x), dtype=float)
        return Potential.from_samples(mesh, values, l, xq_limit=xq_limit)


@dataclass(frozen=True)
class ParticularSolution:
    """u0, its derivative, and construction diagnostics.

    ``residual`` is the scaled ODE defect max |u0'' - (l(l+1)/x^2 + q) u0|
    / (1 + |u0''|) over interior mesh points, u0'' by 5-point second
    differences.  Points inside a small origin layer are excluded: a
    centered stencil cannot resolve the fractional power x^{l+1} there
    and would report its own truncation error.
    """

    u0: GridFunction
    u0_prime: GridFunction
    l: float
    iterations: int
    residual: float

    @property
    def mesh(self) -> UniformMesh:
        return self.u0.mesh


def _picard_sweep(w, sq, s_pow, two_l_p1, h):
    """One Picard update of w = u0/x^{l+1} for l > -1/2.

    Returns (w_new, A, B) with A = cum(s q w), B = cum(s^{2l+2} q w),
    in the dtype of its inputs.
    """
    gA = sq * w
    A = _cumulative_values(gA, h)
    B = _cumulative_values(gA * s_pow, h)
    ratio = np.zeros_like(B)
    np.divide(B, s_pow, out=ratio, where=s_pow > 0.0)
    return 1.0 + (A - ratio) / two_l_p1, A, B


def _picard_sweep_log(w, sq, log_x, sq_log, h):
    """One Picard update for the degenerate case l = -1/2 (log kernel)."""
    A = _cumulative_values(sq * w, h)
    A_log = _cumulative_values(sq_log * w, h)
    w_new = 1.0 + log_x * A - A_log
    w_new[0] = 1.0
    return w_new, A


def _ode_defect(u0v, x, l, qv, h, skip):
    m = u0v.shape[0]
    i = np.arange(max(skip, 2), m - 2)
    upp = (-u0v[i - 2] + 16 * u0v[i - 1] - 30 * u0v[i] + 16 * u0v[i + 1] - u0v[i + 2]) / (
        12.0 * h * h
    )
    rhs = (l * (l + 1) / x[i] ** 2 + qv[i]) * u0v[i]
    return float(np.max(np.abs(upp - rhs) / (1.0 + np.abs(upp))))


def _picard_fixed_point(sweep, w, tol: float, max_iter: int, floor: float):
    """Iterate ``w, *aux = sweep(w)`` from the start ``w``; returns (w, aux, sweeps).

    Stops when the update, relative to max(1, max|w|), drops below ``tol``
    or stalls at the rounding floor: below ``floor`` and at least half the
    previous update.  Healthy cases contract super-linearly and stop on ``tol``.
    """
    prev_delta = np.inf
    for it in range(1, max_iter + 1):
        w_new, *aux = sweep(w)
        delta = float(np.max(np.abs(w_new - w)))
        w = w_new
        scale = max(1.0, float(np.max(np.abs(w))))
        if delta < tol * scale or (delta < floor * scale and delta >= 0.5 * prev_delta):
            return w, aux, it
        prev_delta = delta
    raise ConvergenceError(f"Picard iteration for u0 did not reach tol={tol} in {max_iter} sweeps")


def _u0_power_case(x, sq, l: float, h, tol: float, max_iter: int, floor: float):
    """(u0, u0', sweeps) for l > -1/2, in the dtype of ``x``.

    ``sq`` holds the samples x q(x), with lim_{x->0} x q at the origin;
    ``tol``, ``max_iter`` and ``floor`` go to :func:`_picard_fixed_point`.
    u0' is differentiated from the integral representation.
    """
    lt = x.dtype.type(l)
    two_l_p1 = 2 * lt + 1
    s_pow = x ** (2.0 * l + 1.0)  # s^{2l+1}; s_pow[0] = 0 for l > -1/2
    w, (A, B), iterations = _picard_fixed_point(
        lambda w: _picard_sweep(w, sq, s_pow, two_l_p1, h), np.ones_like(x), tol, max_iter, floor
    )
    xl1 = x ** (l + 1.0)
    u0v = xl1 * w
    with np.errstate(divide="ignore", invalid="ignore"):
        xl = x**l
        b_over = np.zeros_like(B)
        np.divide(B, xl1, out=b_over, where=x > 0.0)
        u0pv = (lt + 1) * xl * (1 + A / two_l_p1) + lt * b_over / two_l_p1
    # (l+1) x^l -> 1 for l = 0; 0 for l > 0, a placeholder for the unbounded l < 0
    u0pv[0] = 1.0 if l == 0.0 else 0.0
    return u0v, u0pv, iterations


def build_u0(p: Potential) -> ParticularSolution:
    """Construct the non-vanishing particular solution with x^{l+1} asymptotics.

    Picard iteration of the Volterra integral equation in the scaled
    variable w = u0/x^{l+1}, until successive sweeps differ by less than
    ``_PICARD_TOL`` = 1e-14 in the weighted sup-norm (= plain sup-norm on
    w), or until the update stalls at the rounding floor above it;
    ``residual`` then reports the defect at that floor.  It runs in the
    dtype of the potential's samples (float64, or longdouble), with the
    tolerance and the floor scaled by that dtype's eps over float64's.

    Raises
    ------
    ConvergenceError
        If ``_PICARD_MAX_SWEEPS`` = 100 sweeps neither reach
        ``_PICARD_TOL`` nor the rounding floor.
    NonVanishingError
        If the converged u0 has a non-positive sample on (0, b].  The
        spectral-shift workaround for sign-changing potentials is out of
        scope; the caller must supply a potential with positive u0.
    """
    mesh = p.mesh
    (x, h), l = mesh.grid(p.q.values.dtype), p.l
    e = float(np.finfo(x.dtype).eps / np.finfo(np.float64).eps)  # 1.0 in float64
    tol, floor = _PICARD_TOL * e, 1e-12 * e
    sq = x * p.q.values
    sq[0] = p.xq_limit

    if l == -0.5:
        with np.errstate(divide="ignore"):
            log_x = np.log(x)
        log_x[0] = 0.0  # multiplied by A(0) = 0; pinned for finiteness
        sq_log = sq * log_x
        sq_log[0] = 0.0
        w, (A,), iterations = _picard_fixed_point(
            lambda w: _picard_sweep_log(w, sq, log_x, sq_log, h),
            np.ones_like(x), tol, _PICARD_MAX_SWEEPS, floor,
        )
        sqrt_x = np.sqrt(x)
        u0v = sqrt_x * w
        with np.errstate(divide="ignore", invalid="ignore"):
            u0pv = w / (2.0 * sqrt_x) + A / sqrt_x
        u0pv[0] = 0.0  # placeholder: u0' is unbounded at the origin for l < 0
    else:
        u0v, u0pv, iterations = _u0_power_case(x, sq, l, h, tol, _PICARD_MAX_SWEEPS, floor)

    if not np.isfinite(u0v).all() or not np.isfinite(u0pv).all():
        raise ConvergenceError("Picard iteration for u0 produced non-finite samples")
    if np.any(u0v[1:] <= 0.0):
        bad = 1 + int(np.flatnonzero(u0v[1:] <= 0.0)[0])
        raise NonVanishingError(
            f"u0 is not positive at x={x[bad]}; the scheme requires a "
            "non-vanishing particular solution on (0, b]"
        )

    skip = max(2, mesh.m // 400)
    residual = _ode_defect(u0v, x, l, p.q.values, h, skip)
    return ParticularSolution(
        u0=GridFunction(mesh, u0v),
        u0_prime=GridFunction(mesh, u0pv),
        l=l,
        iterations=iterations,
        residual=residual,
    )
