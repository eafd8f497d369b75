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
    Lam_n   = 2(4n-1) theta_n + (-1)^n (4n-3) B_n mu_n,   (E_n: eta_n, kappa_n)
    beta_n  = r_n [beta_{n-1} + u0 Lam_n / x^{2n}],
    gamma_n = r_n [gamma_{n-1} + u0' Lam_n / x^{2n} + E_n / (u0 x^{2n})
              - (4n-1) beta_{n-1} / x] - (-1)^n (4n+1) C_n Q x^{l+1},

with r_n = (4n+1)/(4n-3), C_n = B_n/2 and gamma_0 = beta_0' - x^{l+1} Q/2,
so gamma_n reuses beta_n's bracket Lam_n/x^{2n}.  One pass over n
(:func:`build_coefficient_tables`) fills row n of both tables from eta_n,
kappa_n, theta_n and mu_n, or from eta_n and theta_n alone where B_n = 0
(integer l, n >= l+2: kappa_n, mu_n and the C_n Q term are weighed by B_n
alone, so they are not integrated there), and holds only the current
order's integrals.
The paper's direct Fourier-Legendre formulas lose roughly a digit per
order in float64; they live in the test oracle
(``tests/oracles.py``), in longdouble, as the independent reference the
recurrent tables are checked against for small n.

All coefficients vanish at x = 0 (they are bounded by const * x^{l+1});
samples where x^{2n} underflows are defined as 0 rather than divided.
A full build recurs in the rows of its own tables: order n writes row n
and reads row n-1, so nothing is copied.  Besides them the pass holds a
block of ten full rows (eta_n, kappa_n, theta_n and mu_n, which the
quadrature writes straight into; x^{2n-2}, x^{2n-1} and x^{2n}, one
running product of multiplies by x, with no vector ``pow``;
Lam_n/x^{2n}; two scratch rows).  Every product and sum keeps the
grouping of the formulas as written, so the tables are bit for bit
those of a plain transcription.  The pass runs in the dtype of u0's
samples, B_n and r_n included: float64, or longdouble (the tests'
reference for float64 rounding noise).

A caller that reads only some mesh columns (a few 6-point strips or
nodes for point evaluation, none for eigenvalues at x = b) passes them as
``columns``; the build adds x = b, which the residuals read.  The same
pass then recurs in two scratch rows per family and copies only those
columns out, so the tables take (N+1) x len(columns) floats in place of
(N+1) x m, with the same values.  Evaluating such tables at an x whose
strip was not kept raises :class:`~pbessel.errors.DomainError`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalBreakdownError
from .mesh import UniformMesh, _cumulative_values, _guarded_cumulative_values
from .special import _bn_table
from .spps import ParticularSolution, Potential

__all__ = [
    "CoefficientTables",
    "select_truncation",
    "build_coefficient_tables",
]

_TINY = 1e-290  # below this, positive powers are treated as underflowed


def _underflowed(den: np.ndarray) -> np.ndarray:
    """Indices where ``den`` is not above ``_TINY`` (NaN included): quotients there are 0."""
    return np.flatnonzero(~(den > _TINY))


def _safe_div(
    num: np.ndarray, den: np.ndarray, zero: np.ndarray | slice, out: np.ndarray
) -> np.ndarray:
    """num / den into ``out``, set to 0 at ``zero``: ``_underflowed(den)``, or a
    prefix slice where ``den`` is known not to decrease.

    Callers enter ``np.errstate(divide="ignore", invalid="ignore",
    over="ignore")`` once around their loop: the plain divide runs over
    every sample, including the few that are then zeroed.
    """
    np.divide(num, den, out=out)
    out[zero] = 0.0
    return out


def _orders(u0: ParticularSolution, p: Potential, N: int, brows: np.ndarray, grows: np.ndarray):
    """The recurrence, one order at a time, in place on full mesh rows.

    Writes beta_n and gamma_n into ring rows ``brows[n % k]`` and
    ``grows[n % k]``, k = len(brows), and yields n after each order.  The
    ring is the (N+1, m) tables themselves for a full build, or two rows
    per family that the next orders overwrite.  A block of ten rows
    holds the rest: the order's four integrals (written by the quadrature
    kernels through their ``out`` rows; row n comes from eta_n, kappa_n,
    theta_n and mu_n, or from eta_n and theta_n alone where B_n = 0),
    x^{2n-2}, x^{2n-1}, x^{2n},
    Lam_n/x^{2n} and two scratch rows, so an order allocates no
    mesh-sized float row.  The powers are one running product from 1
    (x^{2n-1} = x^{2n-2} x, x^{2n} = x^{2n-1} x), and both families
    divide by that x^{2n}; swapping rows makes it the next order's
    x^{2n-2}.
    Callers enter the ``np.errstate`` of :func:`_safe_div` around the loop.
    """
    mesh, l = u0.mesh, u0.l
    u0v, u0pv = u0.u0.values, u0.u0_prime.values
    x, h = mesh.grid(u0v.dtype)
    u0sq = u0v * u0v
    u0q = u0v * p.q.values
    xl1 = x ** (l + 1.0)
    xu0p = x * u0pv
    Qxl1 = p.Q.values * xl1
    zero_u0sq, zero_x = _underflowed(u0sq), _underflowed(x)
    bns = _bn_table(N, l, x.dtype)  # B_n of gamma_ratio_Bn, looked up once per build

    eta, kappa, theta, mu, t2nm2, t2nm1, t2n, lam, buf, tmp = np.empty((10, mesh.m), x.dtype)
    t2n[:] = 1.0  # x^0: the running product x^{2n-2} -> x^{2n-1} -> x^{2n} starts here
    k, brow, grow = len(brows), brows[0], grows[0]
    np.subtract(u0v, xl1, out=brow)
    # gamma_0 = beta_0' - x^{l+1} Q/2 with beta_0' = u0' - (l+1) x^l analytic
    # (the sign makes the omega = 0 limit of the derivative series equal u0')
    grow[:] = u0pv - (l + 1.0) * x**l - Qxl1 / 2.0
    grow[0] = 0.0
    yield 0
    for n in range(1, N + 1):
        bprev, brow = brow, brows[n % k]
        gprev, grow = grow, grows[n % k]
        t2nm2, t2n = t2n, t2nm2
        np.multiply(t2nm2, x, out=t2nm1)
        np.multiply(t2nm1, x, out=t2n)
        # x >= 0 rises along the mesh and IEEE products are monotone, so
        # x^{2n} never falls: its underflowed samples are a prefix
        zero_x2n = slice(0, np.searchsorted(t2n, _TINY, side="right"))

        # eta_n: (x u0' + (2n-1) u0) x^{2n-2} beta_{n-1}
        np.multiply(u0v, 2 * n - 1, out=buf)
        buf += xu0p
        buf *= t2nm2
        buf *= bprev
        buf[0] = 0.0
        _cumulative_values(buf, h, out=eta)

        # theta_n: (eta_n - x^{2n-1} beta_{n-1} u0) / u0^2
        np.multiply(t2nm1, bprev, out=buf)
        buf *= u0v
        np.subtract(eta, buf, out=buf)
        _safe_div(buf, u0sq, zero_u0sq, buf)
        buf[0] = 0.0
        _guarded_cumulative_values(buf, h, out=theta)

        sign, b_n = (-1.0 if n % 2 else 1.0), bns[n]
        r_n = x.dtype.type(4 * n + 1) / (4 * n - 3)  # rounded in the tables' dtype
        a_n, s_n = 2.0 * (4 * n - 1), sign * (4 * n - 3) * b_n

        # Lam_n = 2(4n-1) theta_n + (-1)^n (4n-3) B_n mu_n and
        # E_n = 2(4n-1) eta_n + (-1)^n (4n-3) B_n kappa_n.  kappa_n and mu_n
        # appear only times B_n, which is +0.0 for integer l from n = l+2 on
        # (_bn_sequence): there they are neither integrated nor added
        np.multiply(theta, a_n, out=lam)
        np.multiply(eta, a_n, out=buf)
        if b_n:
            # kappa_n: u0 q x^{2n} x^{l+1}
            np.multiply(u0q, t2n, out=tmp)
            tmp *= xl1
            tmp[0] = 0.0
            _cumulative_values(tmp, h, out=kappa)
            # mu_n: kappa_n / u0^2
            _safe_div(kappa, u0sq, zero_u0sq, tmp)
            tmp[0] = 0.0
            _guarded_cumulative_values(tmp, h, out=mu)
            lam += np.multiply(mu, s_n, out=tmp)
            buf += np.multiply(kappa, s_n, out=tmp)

        # beta_n = r_n (beta_{n-1} + u0 Lam_n / x^{2n})
        _safe_div(lam, t2n, zero_x2n, lam)
        np.multiply(lam, u0v, out=brow)
        brow += bprev
        brow *= r_n
        brow[0] = 0.0
        if not np.isfinite(brow).all():
            raise NumericalBreakdownError(
                f"non-finite beta coefficient at order n={n}", order=n
            )

        # gamma_n = r_n (gamma_{n-1} + u0' Lam_n/x^{2n} + E_n/(u0 x^{2n})
        #           - (4n-1) beta_{n-1}/x) - (-1)^n (4n+1) C_n Q x^{l+1}
        np.multiply(u0v, t2n, out=tmp)
        _safe_div(buf, tmp, _underflowed(tmp), buf)  # u0 is not monotone: scan the row
        np.multiply(lam, u0pv, out=grow)
        grow += gprev
        grow += buf
        _safe_div(bprev, x, zero_x, buf)
        buf *= 4 * n - 1
        grow -= buf
        grow *= r_n
        if b_n:
            grow -= np.multiply(Qxl1, sign * (4 * n + 1) * (0.5 * b_n), out=buf)  # C_n = B_n / 2
        grow[0] = 0.0
        if not np.isfinite(grow).all():
            raise NumericalBreakdownError(
                f"non-finite gamma coefficient at order n={n}", order=n
            )
        yield n


# Seams for the per-layer spans ``coefficients.beta`` / ``coefficients.gamma``,
# which ``TARGETS`` in bench/layers.py resolves by name; ROADMAP item 10 moves
# those spans and removes both.  Nothing in the package calls them.
def beta_recurrent(u0: ParticularSolution, p: Potential, N: int) -> np.ndarray:
    """The beta table of :func:`build_coefficient_tables`, kept only as a benchmark seam."""
    return build_coefficient_tables(u0, p, N).beta


def gamma_recurrent(u0: ParticularSolution, p: Potential, N: int) -> np.ndarray:
    """The gamma table of :func:`build_coefficient_tables`, kept only as a benchmark seam."""
    return build_coefficient_tables(u0, p, N).gamma


#: Plateau rule of :func:`select_truncation`: the trailing window of residuals,
#: the largest max/min ratio that still counts as flat, and how far above the
#: floor the plateau may start.
_TAIL_WINDOW = 10
_TAIL_FLAT = 1.25
_FLOOR_FACTOR = 10.0


def select_truncation(residuals: np.ndarray) -> tuple[int, bool]:
    """Order where the residual sequence flattens onto its floor: a diagnostic.

    Evaluation reads every table row; this order only reports where the
    residual curve stops falling.  Three shapes occur in practice.  A
    sequence that decays onto a flat noise floor (the trailing
    ``_TAIL_WINDOW`` = 10 samples span less than a factor ``_TAIL_FLAT`` =
    1.25): the plateau starts at the first K whose residual is within
    ``_FLOOR_FACTOR`` = 10 of that floor.  A V shape, where the sum starts
    growing again by accumulating noise-level coefficients: the floor is
    the interior minimizer.  A sequence still decreasing at the end of the
    table has no floor; returns (N, False), meaning "not flat yet: a larger
    N or a finer mesh may still gain".
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
    """beta_n and gamma_n tables with residual diagnostics.

    ``beta`` and ``gamma`` are read-only (N+1, k) arrays in u0's dtype: row n
    holds beta_n (gamma_n) at the kept mesh indices ``columns``, table
    column j all orders at x_{columns[j]}.  ``columns`` is None when every
    mesh column is kept (k = m, the default), else the read-only sorted
    index array of the requested columns and m-1; the last table column is
    x = b either way.  Evaluation reads every row, and raises
    :class:`~pbessel.errors.DomainError` at an x whose strip was not kept.

    ``beta_residual[K]`` is |sum_{n<=K} beta_n(b)| / b, the computable
    discrepancy of the truncated kernel diagonal from zero (its exact
    value); likewise for gamma.  The rest are diagnostics of where those
    residual curves flatten (:func:`select_truncation`), which evaluation
    does not read: ``N_opt`` covers both families, and ``converged`` is
    False when a residual sequence never flattens within the table.
    """

    mesh: UniformMesh
    beta: np.ndarray
    gamma: np.ndarray
    columns: np.ndarray | None
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
    u0: ParticularSolution, p: Potential, N: int = 100, columns=None
) -> CoefficientTables:
    """(N+1, k) tables of beta_0..beta_N and gamma_0..gamma_N in one pass, and their residuals.

    Row n holds beta_n (gamma_n) at the k kept mesh indices: ``columns``
    (sorted, unique integers, or none) and m-1, x = b, which the residuals
    read and the pass adds.  ``None``, the default, keeps every column, and
    the pass writes each order straight into the tables.  A subset runs the
    same pass on two full rows per family and copies the kept columns of
    each order out, so it holds the full build's ``[:, kept]`` bit for bit.

    Order n integrates eta_n, kappa_n, theta_n and mu_n (eta_n and theta_n
    alone where B_n = 0) and writes beta_n and then gamma_n from them; the
    next order's integrals replace them, so the pass holds one order's
    integrals at a time, never a table of them.

    Raises
    ------
    DomainError
        For an N that is not a nonnegative integer (numpy integers are), or
        ``columns`` that are not sorted, unique mesh indices.
    NumericalBreakdownError
        At the first non-finite full row, in the order rows are written
        (beta_n, then gamma_n); the exception names that family and order.
        A column subset raises exactly where the full build does.
    """
    if not isinstance(N, numbers.Integral) or N < 0:
        raise DomainError(f"N must be nonnegative and an integer, got {N!r}")
    m, cols = u0.mesh.m, None if columns is None else np.asarray(columns)
    if cols is not None:
        if not (cols.ndim == 1 and (cols.dtype.kind in "iu" or not cols.size)
                and ((cols >= 0) & (cols < m)).all() and (np.diff(cols.astype(int)) > 0).all()):
            raise DomainError(f"columns must be sorted, unique mesh indices in [0, {m - 1}]")
        cols = np.append(cols[cols < m - 1].astype(int), m - 1)  # a new array: x = b is kept
        cols.flags.writeable = False
    width = m if cols is None else cols.size
    betas, gammas = (np.empty((N + 1, width), u0.u0.values.dtype) for _ in range(2))
    ring = (betas, gammas) if cols is None else np.empty((2, 2, m), betas.dtype)  # two rows each
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in _orders(u0, p, N, *ring):
            if cols is not None:
                betas[n], gammas[n] = ring[0][n % 2, cols], ring[1][n % 2, cols]
    betas.flags.writeable = gammas.flags.writeable = False
    b = u0.mesh.b
    beta_res = np.abs(np.cumsum(betas[:, -1])) / b
    gamma_res = np.abs(np.cumsum(gammas[:, -1])) / b
    k_beta, ok_beta = select_truncation(beta_res)
    k_gamma, ok_gamma = select_truncation(gamma_res)
    return CoefficientTables(
        mesh=u0.mesh,
        beta=betas,
        gamma=gammas,
        columns=cols,
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
