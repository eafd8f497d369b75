"""NSBF coefficient families beta_n (solution) and gamma_n (derivative).

The regular solution and its derivative are expanded as

    u(omega, x)  = d(omega) b_l(omega x)                + sum_n (-1)^n beta_n(x)  j_{2n}(omega x),
    u'(omega, x) = d(omega)(omega b_l' + (Q/2) b_l)(..) + sum_n (-1)^n gamma_n(x) j_{2n}(omega x).

This module computes the x-dependent coefficient tables once per
potential.  The production path is the recurrent integration scheme

    beta_0  = u0 - x^{l+1},
    eta_n   = int_0^x (t u0' + (2n-1) u0) t^{2n-2} beta_{n-1} dt,
    kappa_n = int_0^x u0 q t^{2n+l+1} dt,
    theta_n = int_0^x (eta_n - t^{2n-1} beta_{n-1} u0)/u0^2 dt,     (guarded)
    mu_n    = int_0^x kappa_n/u0^2 dt,                              (guarded)
    beta_n  = (4n+1)/(4n-3) [beta_{n-1} + u0 x^{-2n} (2(4n-1) theta_n
              + (-1)^n (4n-3) B_n mu_n)],

with the analogous start gamma_0 = beta_0' - x^{l+1} Q/2 and recurrence
for gamma_n from the same four integrals.  One pass over n
(:func:`recurrent_tables`) fills row n of both tables from eta_n,
kappa_n, theta_n and mu_n, and holds only the current order's integrals.
The direct Fourier-Legendre formulas

    beta_n(x)  = (4n+1) sum_k l_{2k,2n} x^{-2k} (phi_k - c_{k,l} x^{2k+l+1}),
    gamma_n(x) = (4n+1) sum_k l_{2k,2n} x^{-2k} (phi_k'
                 - c_{k,l}((2k+l+1) x^{2k+l} + (Q/2) x^{2k+l+1})),

lose roughly a digit per order in float64, so they are kept only in
extended precision (:func:`direct_coefficients_extended`), as the
independent reference the recurrent tables are checked against for
small n.

All coefficients vanish at x = 0 (they are bounded by const * x^{l+1});
samples where x^{2n} underflows are defined as 0 rather than divided.
The pass runs in place on three scratch rows and writes row n straight
into each table; every product and sum keeps the grouping of the
formulas as written, so the tables are bit for bit those of a plain
transcription.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalBreakdownError, OrderCapError
from .mesh import UniformMesh, _cumulative_values, _guarded_cumulative_values
from .special import gamma_ratio_Bn, gamma_ratio_Cn, legendre_even_coeffs
from .spps import ParticularSolution, Potential, _u0_power_case, _xtilde_chain

__all__ = [
    "CoefficientTables",
    "recurrent_tables",
    "direct_coefficients_extended",
    "select_truncation",
    "build_coefficient_tables",
    "DIRECT_ORDER_CAP",
]

#: Direct Legendre-sum formulas are only served up to this order; beyond it
#: their fixed-precision cancellation outgrows the value itself.  In float64
#: the digits run out well before it (~1e-10 relative at n <= 5, 1e-7...2e-4
#: at n = 8), which is why only the extended-precision route is kept.
DIRECT_ORDER_CAP = 12

_TINY = 1e-290  # below this, positive powers are treated as underflowed


def _underflowed(den: np.ndarray) -> np.ndarray:
    """Indices where ``den`` is not above ``_TINY`` (NaN included): quotients there are 0."""
    return np.flatnonzero(~(den > _TINY))


def _safe_div(num: np.ndarray, den: np.ndarray, zero: np.ndarray, out: np.ndarray) -> np.ndarray:
    """num / den into ``out``, set to 0 at ``zero`` = ``_underflowed(den)``.

    Callers enter ``np.errstate(divide="ignore", invalid="ignore",
    over="ignore")`` once around their loop: the plain divide runs over
    every sample, including the few that are then zeroed.
    """
    np.divide(num, den, out=out)
    out[zero] = 0.0
    return out


def _beta0(u0: ParticularSolution) -> np.ndarray:
    x = u0.mesh.x
    return u0.u0.values - x ** (u0.l + 1.0)


def _gamma0(u0: ParticularSolution, p: Potential) -> np.ndarray:
    # gamma_0 = beta_0' - x^{l+1} Q/2 with beta_0' = u0' - (l+1) x^l analytic.
    # (The sign makes the omega = 0 limit of the derivative series equal u0'.)
    x = u0.mesh.x
    l = u0.l
    with np.errstate(divide="ignore"):
        xl = x**l
    g0 = u0.u0_prime.values - (l + 1.0) * xl - p.Q.values * x ** (l + 1.0) / 2.0
    g0[0] = 0.0
    return g0


def recurrent_tables(
    u0: ParticularSolution, p: Potential, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """(N+1, m) tables of beta_0..beta_N and gamma_0..gamma_N in one pass.

    Row n holds beta_n (gamma_n) on the mesh.  Order n integrates eta_n,
    kappa_n, theta_n and mu_n and writes beta_n and then gamma_n from
    them; the next order's integrals replace them, so the pass holds one
    order's integrals at a time, never a table of them.

    Raises
    ------
    NumericalBreakdownError
        If a non-finite value appears; the exception names the first bad
        order of beta, or of gamma if every beta row is finite.
    """
    if N < 0:
        raise DomainError("N must be nonnegative")
    mesh = u0.mesh
    x, h, l = mesh.x, mesh.h, u0.l
    u0v, u0pv = u0.u0.values, u0.u0_prime.values
    u0sq = u0v * u0v
    u0q = u0v * p.q.values
    xl1 = x ** (l + 1.0)
    xu0p = x * u0pv
    two_u0p = 2.0 * u0pv
    Qxl1 = p.Q.values * xl1
    zero_u0sq, zero_u0, zero_x = _underflowed(u0sq), _underflowed(u0v), _underflowed(x)

    betas = np.empty((N + 1, mesh.m))
    gammas = np.empty((N + 1, mesh.m))
    betas[0] = _beta0(u0)
    gammas[0] = _gamma0(u0, p)
    buf, tmp, tail = np.empty(mesh.m), np.empty(mesh.m), np.empty(mesh.m)
    t2nm2 = 1.0  # x^{2n-2}: the previous order's x^{2n}, one `x ** k` per order
    bad_gamma = 0  # first order with a non-finite gamma row
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(1, N + 1):
            bprev, brow = betas[n - 1], betas[n]
            t2nm1 = t2nm2 * x
            t2n = t2nm1 * x

            # eta_n: (x u0' + (2n-1) u0) x^{2n-2} beta_{n-1}
            np.multiply(u0v, 2 * n - 1, out=buf)
            buf += xu0p
            buf *= t2nm2
            buf *= bprev
            buf[0] = 0.0
            eta = _cumulative_values(buf, h)

            # kappa_n: u0 q x^{2n} x^{l+1}
            np.multiply(u0q, t2n, out=buf)
            buf *= xl1
            buf[0] = 0.0
            kappa = _cumulative_values(buf, h)

            # theta_n: (eta_n - x^{2n-1} beta_{n-1} u0) / u0^2
            np.multiply(t2nm1, bprev, out=buf)
            buf *= u0v
            np.subtract(eta, buf, out=buf)
            _safe_div(buf, u0sq, zero_u0sq, buf)
            buf[0] = 0.0
            theta, _ = _guarded_cumulative_values(buf, h)

            # mu_n: kappa_n / u0^2
            _safe_div(kappa, u0sq, zero_u0sq, buf)
            buf[0] = 0.0
            mu, _ = _guarded_cumulative_values(buf, h)

            sign = -1.0 if n % 2 else 1.0
            b_n = gamma_ratio_Bn(n, l)
            c_n = gamma_ratio_Cn(n, l)

            # beta_n = (4n+1)/(4n-3) (beta_{n-1} + u0 (2(4n-1) theta_n
            #          + (-1)^n (4n-3) B_n mu_n) / x^{2n})
            np.multiply(theta, 2.0 * (4 * n - 1), out=buf)
            np.multiply(mu, sign * (4 * n - 3) * b_n, out=tmp)
            buf += tmp
            _safe_div(buf, t2n, _underflowed(t2n), buf)
            buf *= u0v
            np.add(bprev, buf, out=brow)
            brow *= (4 * n + 1) / (4 * n - 3)
            brow[0] = 0.0
            if not np.isfinite(brow).all():
                raise NumericalBreakdownError(
                    f"non-finite beta coefficient at order n={n}", order=n
                )

            # gamma divides by `x ** (2n)`; beta's t2n = x^{2n-1} * x can differ in the last bit
            x2n = x ** (2 * n)
            zero_x2n = _underflowed(x2n)
            grow = gammas[n]

            # (4n-1) (2 u0' theta/x^{2n} + 2 eta/(u0 x^{2n}) - beta_{n-1}/x)
            inner = _safe_div(theta, x2n, zero_x2n, buf)
            inner *= two_u0p
            np.multiply(u0v, x2n, out=tmp)
            _safe_div(eta, tmp, _underflowed(tmp), tmp)
            tmp *= 2.0
            inner += tmp
            inner -= _safe_div(bprev, x, zero_x, tmp)
            inner *= 4 * n - 1

            # B_n (mu u0' + kappa/u0)/x^{2n} - C_n Q x^{l+1}
            np.multiply(mu, u0pv, out=tail)
            tail += _safe_div(kappa, u0v, zero_u0, tmp)
            _safe_div(tail, x2n, zero_x2n, tail)
            tail *= b_n
            tail -= np.multiply(Qxl1, c_n, out=tmp)

            np.add(gammas[n - 1], inner, out=grow)
            grow *= (4 * n + 1) / (4 * n - 3)
            tail *= sign * (4 * n + 1)
            grow += tail
            grow[0] = 0.0
            if not bad_gamma and not np.isfinite(grow).all():
                bad_gamma = n
            t2nm2 = x2n
    if bad_gamma:
        raise NumericalBreakdownError(
            f"non-finite gamma coefficient at order n={bad_gamma}", order=bad_gamma
        )
    return betas, gammas


# Seams for the per-layer spans ``coefficients.beta`` / ``coefficients.gamma``,
# which ``TARGETS`` in bench/layers.py resolves by name; ROADMAP item 10 moves
# those spans and removes both.  Nothing in the package calls them.
def beta_recurrent(u0: ParticularSolution, p: Potential, N: int) -> np.ndarray:
    """The beta table of :func:`recurrent_tables`, kept only as a benchmark seam."""
    return recurrent_tables(u0, p, N)[0]


def gamma_recurrent(u0: ParticularSolution, p: Potential, N: int) -> np.ndarray:
    """The gamma table of :func:`recurrent_tables`, kept only as a benchmark seam."""
    return recurrent_tables(u0, p, N)[1]


def _direct_sums(xi, l: float, u0i, u0pi, xt: list, Qi, N: int) -> tuple[np.ndarray, np.ndarray]:
    """beta_n(x_i) and gamma_n(x_i), n = 0..N, by the direct Fourier-Legendre sums.

    ``xt`` holds Xt^(0..2N) at x_i.  The sums run in the dtype of ``xi``:
    the Legendre coefficients are exact ratios and c_{k,l} follows its
    exact gamma recurrence (c_0 = 1), both rounded in that dtype, and
    phi_k' = (-1)^k (2k)! (u0' Xt^(2k) - Xt^(2k-1)/u0) is analytic.
    """
    betas = np.zeros(N + 1)
    gammas = np.zeros(N + 1)
    if xi == 0.0:
        return betas, gammas  # every coefficient vanishes at the origin
    dt = type(xi)
    l = dt(l)
    cks = [dt(1.0)]
    for k in range(N):
        cks.append(cks[-1] * (k + dt(0.5)) / (k + l + dt(1.5)))
    for n in range(N + 1):
        exact_row = legendre_even_coeffs(n).exact
        tot_b = dt(0.0)
        tot_g = dt(0.0)
        for k in range(n + 1):
            lk = dt(exact_row[2 * k].numerator) / dt(exact_row[2 * k].denominator)
            fact = dt(math.factorial(2 * k))
            phi_k = ((-1.0) ** k) * fact * u0i * xt[2 * k]
            if k == 0:
                phi_kp = u0pi
            else:
                phi_kp = ((-1.0) ** k) * fact * (u0pi * xt[2 * k] - xt[2 * k - 1] / u0i)
            xpow = xi ** (2 * k + l + 1)
            tot_b += lk * xi ** (-2 * k) * (phi_k - cks[k] * xpow)
            unp = cks[k] * ((2 * k + l + 1) * xpow / xi + 0.5 * Qi * xpow)
            tot_g += lk * xi ** (-2 * k) * (phi_kp - unp)
        betas[n] = float((4 * n + 1) * tot_b)
        gammas[n] = float((4 * n + 1) * tot_g)
    return betas, gammas


def direct_coefficients_extended(
    p: Potential, N: int, x: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """beta_n(x) and gamma_n(x), n = 0..N, by the direct formulas in 80-bit floats.

    In fixed double precision the direct Fourier-Legendre formulas lose
    about a digit per order (the Legendre coefficients grow while the
    values shrink), which caps them near n = 8-10; evaluated in extended
    precision they stay meaningful over the whole served range and give
    an independent reference for the recurrent path.  The mesh points,
    the x q samples and the step are taken in ``numpy.longdouble``, and
    the same Picard and quadrature kernels as the float64 pipeline then
    run in that dtype, followed by the Xt chain of :mod:`pbessel.spps`.

    Requires l > -1/2; the degenerate log-kernel case has no extended
    path.  ``x`` defaults to the right endpoint b.
    """
    if N < 0:
        raise DomainError("N must be nonnegative")
    if N > DIRECT_ORDER_CAP:
        raise OrderCapError(f"direct formulas limited to n <= {DIRECT_ORDER_CAP}")
    if p.l == -0.5:
        raise DomainError("extended direct evaluation requires l > -1/2")
    ld = np.longdouble
    mesh = p.mesh
    i = mesh.m - 1 if x is None else mesh.index_of(x)
    xv = mesh.x.astype(ld)
    h = ld(mesh.b) / ld(mesh.m - 1)
    qv = p.q.values.astype(ld)
    sq = xv * qv
    sq[0] = ld(p.xq_limit)
    # iterate to the longdouble fixed point: the direct formulas amplify a
    # relative u0 perturbation by many orders at the top of the range, so
    # the sweep runs until its update drowns in longdouble rounding noise
    u0v, u0pv, _ = _u0_power_case(xv, sq, p.l, h, 1e-19, 120, floor=1e-13)
    Qv, _ = _guarded_cumulative_values(qv, h)
    xt = _xtilde_chain(u0v, h, N)
    return _direct_sums(xv[i], p.l, u0v[i], u0pv[i], [v[i] for v in xt], Qv[i], N)


#: Plateau rule of :func:`select_truncation`: the trailing window of residuals,
#: the largest max/min ratio that still counts as flat, and how far above the
#: floor the plateau may start.
_TAIL_WINDOW = 10
_TAIL_FLAT = 1.25
_FLOOR_FACTOR = 10.0


def select_truncation(residuals: np.ndarray) -> tuple[int, bool]:
    """Truncation order where the residual sequence reaches its floor.

    Three shapes occur in practice.  A sequence that decays onto a flat
    noise floor (the trailing ``_TAIL_WINDOW`` = 10 samples span less than
    a factor ``_TAIL_FLAT`` = 1.25): the plateau starts at the first K
    whose residual is within ``_FLOOR_FACTOR`` = 10 of that floor.  A V
    shape, where the sum starts growing again by accumulating noise-level
    coefficients: the floor is the interior minimizer.  A sequence still
    decreasing at the end of the table has no floor; returns (N, False),
    meaning "not converged: increase N or refine the mesh".
    """
    r = np.asarray(residuals, dtype=float)
    N = r.size - 1
    if np.all(r == 0.0):
        return 0, True
    if N < _TAIL_WINDOW:
        return N, False
    tail = r[N - _TAIL_WINDOW :]
    tmax, tmin = float(tail.max()), float(tail.min())
    if tmin > 0.0 and tmax <= _TAIL_FLAT * tmin:
        floor = float(np.median(tail))
        hits = np.flatnonzero(r <= _FLOOR_FACTOR * floor)
        return int(hits[0]), True
    k_min = int(np.argmin(r))
    if k_min < N - _TAIL_WINDOW:
        return k_min, True  # V shape: interior floor, noise growth afterwards
    return N, False


@dataclass(frozen=True)
class CoefficientTables:
    """beta_n and gamma_n tables with truncation diagnostics.

    ``beta`` and ``gamma`` are read-only (N+1, m) float64 arrays: row n
    holds beta_n (gamma_n) on the mesh, column i all orders at x_i.

    ``beta_residual[K]`` is |sum_{n<=K} beta_n(b)| / b, the computable
    discrepancy of the truncated kernel diagonal from zero (its exact
    value); likewise for gamma.  ``N_opt`` is the plateau-selected
    truncation covering both families; ``converged`` is False when a
    residual sequence never flattens within the table.
    """

    mesh: UniformMesh
    beta: np.ndarray
    gamma: np.ndarray
    N: int
    beta_residual: np.ndarray
    gamma_residual: np.ndarray
    N_opt: int
    beta_floor: float
    gamma_floor: float
    beta_plateau: int
    gamma_plateau: int
    converged: bool


def build_coefficient_tables(
    u0: ParticularSolution, p: Potential, N: int = 100
) -> CoefficientTables:
    """Build both tables with :func:`recurrent_tables` and attach residual diagnostics."""
    betas, gammas = recurrent_tables(u0, p, N)
    betas.flags.writeable = False
    gammas.flags.writeable = False
    b = u0.mesh.b
    beta_res = np.abs(np.cumsum(betas[:, -1])) / b
    gamma_res = np.abs(np.cumsum(gammas[:, -1])) / b
    k_beta, ok_beta = select_truncation(beta_res)
    k_gamma, ok_gamma = select_truncation(gamma_res)
    return CoefficientTables(
        mesh=u0.mesh,
        beta=betas,
        gamma=gammas,
        N=N,
        beta_residual=beta_res,
        gamma_residual=gamma_res,
        N_opt=max(k_beta, k_gamma) if (ok_beta and ok_gamma) else N,
        beta_floor=float(beta_res.min()),
        gamma_floor=float(gamma_res.min()),
        beta_plateau=k_beta,
        gamma_plateau=k_gamma,
        converged=ok_beta and ok_gamma,
    )
