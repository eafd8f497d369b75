"""Eigenvalue search for boundary-value problems and decay-rate fitting.

Eigenvalues are the positive roots of the characteristic function

    Phi(omega) = omega^{l+1} * BC(omega),

where BC is u_N(omega, b), u_N'(omega, b) or u_N' + H u_N according to
the boundary condition.  The omega^{l+1} regularizer keeps Phi O(1)
across wide scan windows (the solution amplitude itself decays like
omega^{-l-1}).  A bracket is every scan step whose ends differ in sign
bit: an exact zero on the grid ends one, and a Phi whose omega^{l+1}
underflows is +-0 with the sign of BC, so it ends none.  Brackets are
refined by ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM
TOMS 2020): derivative-free and bracket-preserving like bisection, never
slower than bisection by more than one step, and superlinear where Phi
is smooth.  Each refinement round evaluates Phi once, in bulk, at one
point per unfinished bracket; one final secant step polishes every root
and one more bulk evaluation scores them all.  Tangential (double) roots
are not resolved; a grid point where Phi touches zero without crossing
may be reported twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, InsufficientDataError
from .solution import NsbfSolution, _series, eval_u, eval_u_prime
from .spps import Potential

__all__ = [
    "BoundaryCondition",
    "SpectralProblem",
    "Eigenpair",
    "characteristic",
    "find_eigenvalues",
    "decay_fit",
]

_BOUNDARY_KINDS = ("dirichlet", "neumann", "robin")

#: target relative width of the refined bracket
_REFINE_RTOL = 1e-13
#: ITP constants: truncation kappa1 = _ITP_K1 / (initial width), exponent
#: kappa2, and n0 slack steps over the bisection count
_ITP_K1 = 0.2
_ITP_K2 = 2.0
_ITP_N0 = 1


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition at x = b: u = 0, u' = 0, or u' + H u = 0."""

    kind: str
    H: float = 0.0

    def __post_init__(self):
        if self.kind not in _BOUNDARY_KINDS:
            raise DomainError(f"boundary kind must be one of {_BOUNDARY_KINDS}")
        if not np.isfinite(self.H):
            raise DomainError("Robin coefficient H must be finite")


@dataclass(frozen=True)
class SpectralProblem:
    """Eigenvalue problem definition: potential, boundary condition, scan window."""

    potential: Potential
    boundary: BoundaryCondition
    omega_window: tuple[float, float]
    scan_points: int = 0  # 0: auto (max(20, 4b/pi) samples per unit omega, >= 64)

    def __post_init__(self):
        lo, hi = self.omega_window
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 <= lo < hi):
            raise DomainError(f"omega window needs 0 <= lo < hi, got {self.omega_window}")
        if self.scan_points < 0:
            raise DomainError("scan_points must be nonnegative")

    @property
    def effective_scan_points(self) -> int:
        """Scan grid size: ``scan_points`` if set, else max(20, 4b/pi) per unit omega.

        Eigenvalues are asymptotically pi/b apart, so the automatic grid
        puts at least four samples between neighbours on any interval
        length b (the fixed 20 per unit omega covers b <= 5 pi), and never
        fewer than 64 samples in all.
        """
        if self.scan_points:
            return max(self.scan_points, 2)
        lo, hi = self.omega_window
        per_unit = max(20.0, 4.0 * self.potential.mesh.b / math.pi)
        return max(64, int(math.ceil(per_unit * (hi - lo))) + 1)


@dataclass(frozen=True)
class Eigenpair:
    """One computed eigenvalue with refinement diagnostics."""

    index: int
    omega: float
    char_residual: float
    refinement_width: float


def characteristic(sol: NsbfSolution, prob: SpectralProblem, omega):
    """Phi(omega) = omega^{l+1} x boundary expression at b; omega > 0."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if (om <= 0).any() or not np.isfinite(om).all():
        raise DomainError("characteristic requires omega > 0")
    kind = prob.boundary.kind
    b = sol.b
    if kind == "dirichlet":
        bc = eval_u(sol, om, b)
    elif kind == "neumann":
        bc = eval_u_prime(sol, om, b)
    else:
        u, du = _series(sol, om, b)
        bc = du[0] + prob.boundary.H * u[0]
    out = om ** (sol.l + 1.0) * bc
    return float(out[0]) if np.ndim(omega) == 0 else out


def _itp_brackets(phi, a, b, fa, fb):
    """Vectorized ITP refinement of sign-change brackets 0 < a < b to relative width.

    A bracket is done once b - a <= _REFINE_RTOL * max(b, 1); eps is half
    that target width.  Each round calls ``phi`` once, on one point per
    unfinished bracket: the regula falsi point, moved toward the midpoint
    by delta = max(kappa1 w^kappa2, eps/2) and then projected into the
    minmax ball around the midpoint.  A bracket therefore finishes within
    ceil(log2(w0 / 2 eps)) + n0 rounds.  The eps/2 floor on delta keeps a
    regula falsi point that sits at Phi's rounding noise from stalling
    one-sided until the projection falls back to bisection.  An exact zero
    collapses its bracket onto that point.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    # a <= |b| throughout, so 2 eps never exceeds the stopping width
    eps = 0.5 * _REFINE_RTOL * np.maximum(a, 1.0)
    kappa1 = _ITP_K1 / (b - a)
    n_max = np.ceil(np.log2((b - a) / (2.0 * eps))) + _ITP_N0
    # the minmax ball is sized from eps less one ulp, which absorbs the
    # rounding of mid and x: a step function meets the bound every round
    eps_ball = eps - np.spacing(b)
    for j in range(200):
        act = np.flatnonzero(b - a > _REFINE_RTOL * np.maximum(np.abs(b), 1.0))
        if not act.size:
            break
        aj, bj, faj, fbj = a[act], b[act], fa[act], fb[act]
        w = bj - aj
        mid = 0.5 * (aj + bj)
        x_f = (bj * faj - aj * fbj) / (faj - fbj)
        sigma = np.sign(mid - x_f)
        delta = np.maximum(kappa1[act] * w**_ITP_K2, 0.5 * eps[act])
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        radius = np.maximum(eps_ball[act] * 2.0 ** (n_max[act] - j) - 0.5 * w, 0.0)
        x = np.where(np.abs(x_t - mid) <= radius, x_t, mid - sigma * radius)
        fx = phi(x)
        zero = fx == 0.0
        left = (np.sign(fx) == np.sign(faj)) | zero
        right = ~left | zero
        a[act] = np.where(left, x, aj)
        fa[act] = np.where(left, fx, faj)
        b[act] = np.where(right, x, bj)
        fb[act] = np.where(right, fx, fbj)
    return a, b, fa, fb


def find_eigenvalues(sol: NsbfSolution, prob: SpectralProblem) -> list[Eigenpair]:
    """All eigenvalues in the scan window, in grid (increasing) order.

    Samples Phi on a uniform omega grid, brackets every step whose ends
    differ in ``np.signbit``, refines all brackets by vectorized ITP to
    relative width 1e-13, polishes each root with one secant step and
    evaluates every root's residual |Phi| in one call.  An exact zero on
    the grid keeps its omega and residual 0, with the converged bracket's
    width; an underflowed Phi keeps the sign of BC and brackets nothing; a
    tangential grid zero may be reported twice.  An empty window or a
    window with no sign changes returns an empty list (no error).
    """
    lo, hi = prob.omega_window
    n_scan = prob.effective_scan_points
    grid = np.linspace(lo, hi, n_scan)
    if grid[0] == 0.0:
        grid[0] = grid[1] * 1e-6  # omega = 0 is never an eigenvalue (u(0,.) = u0 > 0)

    phi = lambda om: characteristic(sol, prob, om)
    values = phi(grid)
    if not np.isfinite(values).all():
        bad = grid[~np.isfinite(values)][0]
        raise EvaluationError(f"characteristic function not finite at omega={bad}")

    sign_change = np.flatnonzero(np.signbit(values[:-1]) != np.signbit(values[1:]))
    if not sign_change.size:
        return []
    a, b, fa, fb = _itp_brackets(
        phi, grid[sign_change], grid[sign_change + 1], values[sign_change], values[sign_change + 1]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        om = b - fb * (b - a) / (fb - fa)  # secant polish
    om = np.where((a <= om) & (om <= b), om, 0.5 * (a + b))  # also when fa = fb
    return [
        Eigenpair(index=i + 1, omega=omega, char_residual=res, refinement_width=width)
        for i, (omega, res, width) in enumerate(zip(om.tolist(), np.abs(phi(om)).tolist(), (b - a).tolist()))
    ]


def decay_fit(values, n_start: int) -> float:
    """Least-squares decay exponent r of |c_n| ~ c n^r over a log-log fit.

    ``values[i]`` is |c_n| at n = n_start + i.  Entries at or below ten
    times the detected floor (the smallest positive entry) are excluded
    so a machine-precision plateau cannot bias the slope.

    Raises
    ------
    InsufficientDataError
        If fewer than 10 usable points remain after floor exclusion.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 11:
        raise DomainError("decay_fit needs at least 11 values (n range >= 10)")
    if n_start < 1:
        raise DomainError("n_start must be >= 1 (log n fit)")
    ns = n_start + np.arange(v.size)
    positive = v > 0.0
    if not positive.any():
        raise InsufficientDataError("all values at the floor (nonpositive)")
    floor = v[positive].min()
    usable = v > 10.0 * floor
    if usable.sum() < 10:
        raise InsufficientDataError(
            f"only {int(usable.sum())} points above 10x the floor {floor:.3e}"
        )
    slope = np.polyfit(np.log(ns[usable]), np.log(v[usable]), 1)[0]
    return float(slope)
