"""Reference solutions by adaptive high-order ODE shooting.

Ground truth for validation and for the optional accuracy columns of the
command-line tools.  The regular solution is integrated in the scaled
variable v = u/x^{l+1}, which satisfies

    v'' + (2(l+1)/x) v' = (q(x) - omega^2) v,   v(0) = 1,

so the integrator works on O(1) quantities from the asymptotic start at
a small x0 all the way to b.  Initial data at x0 carry the first-order
correction

    v'(x0) = x0^{-(2l+2)} integral_0^{x0} s^{2l+2} (q(s) - omega^2) ds,

computed by Gauss-Legendre quadrature with open nodes (no evaluation of
q at 0, so Coulomb-type 1/x terms are handled exactly like smooth ones).
Without this correction a 1/x potential biases the whole solution at the
1e-7 level; with it the start-up error is O(x0^2) relative and the
eigenvalue bias is negligible.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError

__all__ = ["shoot_solution", "shoot_endpoint", "shoot_eigenvalue_near"]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(30)

# solve_ivp clips rtol at 100*eps ~ 2.22e-14; stay just above to avoid warnings
_RTOL = 2.5e-14
_ATOL = 1e-14


def _v_prime_start(q: Callable, l: float, omega: float, x0: float) -> float:
    # GL quadrature of s^{2l+2} (q(s) - omega^2) over (0, x0), open nodes
    s = 0.5 * x0 * (_GL_NODES + 1.0)
    w = 0.5 * x0 * _GL_WEIGHTS
    vals = s ** (2.0 * l + 2.0) * (np.asarray(q(s), dtype=float) - omega * omega)
    return float(np.sum(w * vals)) * x0 ** (-(2.0 * l + 2.0))


def shoot_solution(
    q: Callable,
    l: float,
    omega: float,
    xs: Sequence[float],
    x0: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Regular solution u and u' at the points ``xs`` (all >= x0).

    Parameters
    ----------
    q : callable
        Vectorized potential q(x).
    l, omega : float
        Equation parameters; omega >= 0.
    xs : sequence of float
        Evaluation points, each in [x0, inf).

    Returns
    -------
    (u, u_prime) : ndarray pair
        Values of the regular solution normalized by u ~ x^{l+1} at 0.
    """
    if omega < 0:
        raise DomainError("omega must be >= 0")
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < x0):
        raise DomainError(f"evaluation points must be >= x0={x0}")
    order = np.argsort(xs)
    ts = xs[order]
    b = float(ts[-1])

    def rhs(t, y):
        v, vp = y
        return [vp, (q(t) - omega * omega) * v - (2.0 * (l + 1.0) / t) * vp]

    y0 = [1.0, _v_prime_start(q, l, omega, x0)]
    sol = solve_ivp(
        rhs, (x0, b), y0, method="DOP853", t_eval=ts, rtol=_RTOL, atol=_ATOL, dense_output=False
    )
    if not sol.success:
        raise ConvergenceError(f"shooting integration failed: {sol.message}")
    v, vp = sol.y
    u = ts ** (l + 1.0) * v
    up = (l + 1.0) * ts**l * v + ts ** (l + 1.0) * vp
    u_out = np.empty_like(u)
    up_out = np.empty_like(up)
    u_out[order] = u
    up_out[order] = up
    return u_out, up_out


def shoot_endpoint(q: Callable, l: float, omega: float, b: float) -> tuple[float, float]:
    """(u(omega, b), u'(omega, b)) by shooting."""
    u, up = shoot_solution(q, l, omega, [b])
    return float(u[0]), float(up[0])


def shoot_eigenvalue_near(
    q: Callable,
    l: float,
    b: float,
    omega_guess: float,
    kind: str = "dirichlet",
    robin_h: float = 0.0,
    halfwidth: float = 0.2,
) -> float:
    """Eigenvalue of the shooting characteristic nearest to ``omega_guess``.

    Brackets [guess - halfwidth, guess + halfwidth], expanding twice if the
    sign change is missed, then refines with Brent's method to ~1e-12.
    """

    def target(om: float) -> float:
        u, up = shoot_endpoint(q, l, om, b)
        if kind == "dirichlet":
            return u
        if kind == "neumann":
            return up
        if kind == "robin":
            return up + robin_h * u
        raise DomainError(f"unknown boundary kind {kind!r}")

    lo = max(omega_guess - halfwidth, 1e-8)
    hi = omega_guess + halfwidth
    flo, fhi = target(lo), target(hi)
    tries = 0
    while flo * fhi > 0 and tries < 2:
        lo = max(lo - halfwidth, 1e-8)
        hi = hi + halfwidth
        flo, fhi = target(lo), target(hi)
        tries += 1
    if flo * fhi > 0:
        raise ConvergenceError(
            f"no sign change of the shooting characteristic near omega={omega_guess}"
        )
    return float(brentq(target, lo, hi, xtol=1e-12, rtol=4 * np.finfo(float).eps))
