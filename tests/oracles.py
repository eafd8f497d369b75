"""Independent arbitrary-precision oracles for test expectations.

Everything here is computed from defining series or textbook formulas in
mpmath, independent of the library code paths under test.  Expensive
values are frozen as module constants; the generating functions stay
next to them so any constant can be recomputed on demand.  The exact
eigenvalues of a constant potential come from scipy's Bessel zeros and
evaluators, and those of the Coulomb potential from mpmath's Coulomb
wave function, not from the library.  Two exceptions run library code
in ``numpy.longdouble`` and are cached, so the tests that compare against
them build each reference once per session: ``extended_direct_reference``
takes the paper's direct Fourier-Legendre formulas
(``direct_coefficients_extended``, which the library does not ship) on a
u0 from ``plain_picard``, the out-of-place transcription of the
library's Picard update that also pins it bit for bit (``u0_by_parts``),
and the library's quadrature kernels, and ``longdouble_recurrence`` is
the library's own table build run in longdouble, a reference for float64
rounding noise only.  ``shadow_noise_estimate`` is no reference: it runs
the library's float64 build again with u0 perturbed, to estimate that
build's rounding noise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp
import numpy as np

from pbessel.errors import DomainError

mp.mp.dps = 40


def spherical_j_series(n: int, z) -> mp.mpf:
    """j_n(z) from its defining power series, arbitrary precision."""
    z = mp.mpf(z)
    if z == 0:
        return mp.mpf(1 if n == 0 else 0)
    dd = mp.mpf(1)
    for i in range(1, 2 * n + 2, 2):
        dd *= i  # (2n+1)!!
    term = mp.mpf(1) / dd
    tot = term
    k = 0
    while abs(term) > mp.mpf(10) ** (-45) * abs(tot) and k < 1000:
        k += 1
        term *= -z * z / (2 * k * (2 * n + 2 * k + 1))
        tot += term
    return z**n * tot


def bessel_J(nu, z) -> mp.mpf:
    """J_nu(z) via mpmath (independent of scipy)."""
    return mp.besselj(mp.mpf(str(nu)), mp.mpf(str(z)))


def gamma_B_n(n: int, l) -> mp.mpf:
    n_ = mp.mpf(n)
    l = mp.mpf(str(l))
    return (
        (4 * n_ - 1)
        * mp.gamma(l + 2)
        * mp.gamma(l + mp.mpf(3) / 2)
        * mp.gamma(n_ - mp.mpf(1) / 2)
        * mp.rgamma(l - n_ + 2)  # 1/Gamma: exactly 0 at the integer-l poles
        / (
            2
            * mp.sqrt(mp.pi)
            * mp.gamma(n_ + 1)
            * mp.gamma(n_ + l + mp.mpf(3) / 2)
        )
    )


def u0_series_xsq(l, x, deriv: bool = False, n_terms: int = 140):
    """Particular solution for q = x^2 from its power series.

    u0 = sum_m c_m x^(l+1+m) with c_0 = 1 and
    c_m = c_{m-4} / (m (2l+1+m)) for m = 4, 8, ...; entire in x.
    """
    l = mp.mpf(str(l))
    x = mp.mpf(str(x))
    c = {0: mp.mpf(1)}
    for m in range(4, n_terms + 1, 4):
        c[m] = c[m - 4] / (m * (2 * l + 1 + m))
    if deriv:
        return sum(cm * (l + 1 + m) * x ** (l + m) for m, cm in c.items())
    return sum(cm * x ** (l + 1 + m) for m, cm in c.items())


def u0_series_coulomb(x, deriv: bool = False, n_terms: int = 80):
    """Particular solution for q = 1/x at l = 1 from its power series.

    u0 = sum_m c_m x^(2+m) with c_0 = 1, c_m = c_{m-1}/(m(m+3)).
    """
    x = mp.mpf(str(x))
    c = [mp.mpf(1)]
    for m in range(1, n_terms + 1):
        c.append(c[-1] / (m * (m + 3)))
    if deriv:
        return sum(cm * (2 + m) * x ** (1 + m) for m, cm in enumerate(c))
    return sum(cm * x ** (2 + m) for m, cm in enumerate(c))


def u0_coulomb_exact(x, l: float) -> np.ndarray:
    """Particular solution for q = 1/x at real l >= -1/2: Gamma(2l+2) sqrt(x) I_{2l+1}(2 sqrt(x)).

    The series of I_{2l+1} gives u0 = x^{l+1} sum_k Gamma(2l+2) x^k / (k! Gamma(2l+2+k)),
    whose coefficients obey c_k = c_{k-1} / (k (k + 2l + 1)), the recursion
    of u0'' = (l(l+1)/x^2 + 1/x) u0; scipy's ``iv`` evaluates it.
    """
    from scipy.special import iv

    x = np.asarray(x, dtype=float)
    return math.gamma(2 * l + 2) * np.sqrt(x) * iv(2 * l + 1, 2 * np.sqrt(x))


# ---------------------------------------------------------------------------
# Frozen values (mpmath, dps = 40; generators above).
# ---------------------------------------------------------------------------

# spherical_j_series anchors
J50_AT_10 = 2.230696023218646857755e-31
J200_AT_150_5 = 8.588957871257198746038e-15
J7_AT_0_003 = 1.078920793324356556754e-24

# bessel_J(2, 2), and b_{3/2}(2) = sqrt(2) J_2(2)
BESSEL_J2_AT_2 = 0.3528340286156377191506
B_THREEHALF_AT_2 = 0.4989826685349715768268

# gamma_B_n(5, 1.5); exactly rational for half-integer l
B5_THREEHALF = 0.0002899169921875

# u0_series_xsq(1.5, pi), u0_series_xsq(1.5, pi, deriv=True)
U0_XSQ_PI = 162.5012482979809408416
U0_XSQ_PI_PRIME = 494.8320181462133926873

# u0_series_coulomb(pi), u0_series_coulomb(pi, deriv=True)
U0_COULOMB_PI = 20.53308958386191840672
U0_COULOMB_PI_PRIME = 17.56247501445319707084

# phi_1(pi) for q = x^2, l = 3/2: phi_1 = -2 u0 X2 with
# X1(t) = int_0^t u0^2 (termwise-integrated series) and
# X2(pi) = -int_0^pi X1/u0^2 by mpmath adaptive quadrature.
PHI1_XSQ_PI = 174.82950717008783302

_CUM_W_NUM = (
    (475, 1427, -798, 482, -173, 27),
    (448, 2064, 224, 224, -96, 16),
    (459, 1971, 1026, 1026, -189, 27),
    (448, 2048, 768, 2048, 448, 0),
    (475, 1875, 1250, 1250, 1875, 475),
)


def quadrature_max_error_exact(m: int) -> mp.mpf:
    """Truncation error of the cumulative quintic rule for cos on [0, pi].

    Applies the rule's exact rational weights in arbitrary precision, so
    the measured error is the rule's own, free of the float64 rounding
    floor (~2e-16) that hides it at fine meshes.
    """
    b = mp.pi
    h = b / (m - 1)
    xs = [i * h for i in range(m)]
    ys = [mp.cos(x) for x in xs]
    W = [[mp.mpf(w) / 1440 for w in row] for row in _CUM_W_NUM]
    err = mp.mpf(0)
    F0 = mp.mpf(0)
    for p in range((m - 1) // 5):
        base = 5 * p
        panel = ys[base : base + 6]
        for k in range(1, 6):
            Fk = F0 + h * sum(W[k - 1][j] * panel[j] for j in range(6))
            err = max(err, abs(Fk - mp.sin(xs[base + k])))
        F0 = F0 + h * sum(W[4][j] * panel[j] for j in range(6))
    return err


# First ten positive zeros of J_2 (mp.besseljzero); eigenvalues of the
# unperturbed l = 3/2 Dirichlet problem are these divided by pi.
J2_ZEROS = (
    5.1356223018406825563,
    8.4172441403998648578,
    11.619841172149059427,
    14.795951782351260747,
    17.959819494987826455,
    21.116997053021845591,
    24.27011231357310261,
    27.420573549984557331,
    30.569204495516397037,
    33.716519509222699922,
)


# ---------------------------------------------------------------------------
# The paper's direct Fourier-Legendre route, in longdouble.
# ---------------------------------------------------------------------------

#: Largest n for which legendre_even_coeffs(n) (order 2n) is served.
LEGENDRE_ORDER_CAP = 30
#: Largest order of the direct formulas: beyond it their fixed-precision
#: cancellation outgrows the value itself (in float64 the digits run out well
#: before it: ~1e-10 relative at n <= 5, 1e-7...2e-4 at n = 8).
DIRECT_ORDER_CAP = 12


class LegendreCoeffRow(NamedTuple):
    """P_n(x) = sum_k l_{k,n} x^k: ``exact[k]`` is l_{k,n} as a Fraction, ``coeffs[k]`` its float."""

    order: int
    coeffs: np.ndarray
    exact: tuple[Fraction, ...]


def legendre_even_coeffs(n: int) -> LegendreCoeffRow:
    """Exact coefficients of P_{2n} from the explicit sum

        P_N(x) = 2^{-N} sum_k (-1)^k C(N, k) C(2N-2k, N) x^{N-2k}.
    """
    if n < 0 or not float(n).is_integer():
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    if n > LEGENDRE_ORDER_CAP:
        raise DomainError(f"P_{2 * n} coefficients not served (cap n={LEGENDRE_ORDER_CAP})")
    N = 2 * int(n)
    exact = [Fraction(0)] * (N + 1)
    for k in range(N // 2 + 1):
        exact[N - 2 * k] = Fraction((-1) ** k * math.comb(N, k) * math.comb(2 * N - 2 * k, N), 2**N)
    return LegendreCoeffRow(N, np.array([float(c) for c in exact]), tuple(exact))


def xtilde_chain(u0v, h, N: int) -> list:
    """The SPPS recursive integrals Xt^(0)..Xt^(2N) on the mesh, in the dtype of ``u0v``.

    Xt^(0) = 1; odd n integrates u0^2 Xt^(n-1) plainly, and even n gives
    -int Xt^(n-1)/u0^2 through the guarded path (the division amplifies
    noise near the origin).
    """
    from pbessel.mesh import _cumulative_values, _guarded_cumulative_values

    u0sq = u0v * u0v
    xt = [np.ones_like(u0v)]
    for n in range(1, 2 * N + 1):
        if n % 2 == 1:
            xt.append(_cumulative_values(u0sq * xt[-1], h))
        else:
            integrand = np.zeros_like(u0sq)
            np.divide(xt[-1], u0sq, out=integrand, where=u0sq > 0.0)
            integrand[0] = 0.0
            vals, _ = _guarded_cumulative_values(integrand, h)
            xt.append(-vals)
    return xt


def plain_picard(x, sq, l, h, tol, max_sweeps, floor) -> tuple[np.ndarray, np.ndarray, int]:
    """(u0, u0', sweeps) of ``spps.build_u0``'s Picard iteration, transcribed out of place.

    The update written by parts never divides a cumulative integral of
    s^{2l+2} q w by x^{2l+1}:

        w <- 1 + x^{-(2l+1)} int_0^x s^{2l+1} g ds,   g = G/s,   G = int_0^s t q w dt,

    with g(0) = (x q)(0) w(0) (``sq`` holds the samples x q, its origin
    sample the limit).  Both integrals are the library's panel quintics,
    except that on the first panel s^{2l+1} is integrated exactly against
    the quintic through g_0..g_5: (w - 1)(x_k) = h sum_j V_kj g_j with
    V_kj = sum_i a_ji k^{i+1}/(2l+2+i), L_j = sum_i a_ji t^i.  Later values
    shift by that exact panel integral minus the quintic rule's, and are
    divided by s^{2l+1}, or by 1 where it underflows to 0 (which leaves w
    at 1 up to subnormals).  Then u0 = x^{l+1} w and
    u0' = x^l (G + 2l + 1 - l w), with the library's origin placeholder.
    Sweeps stop by ``_picard_fixed_point``'s rule on ``tol``, ``max_sweeps``
    and ``floor``.  One temporary per term, as ``plain_recurrence`` does for
    the tables, in the same products, sums and order as the library and in
    the dtype of ``x``: a rewrite of the sweep, its stopping rule or the u0'
    epilogue (in place, fused, reordered) that moves a bit of u0 differs.
    """
    from pbessel.mesh import _cumulative_values

    l_ = x.dtype.type(l)
    s_pow = x ** (2 * l_ + 1)
    k = np.arange(1, 6, dtype=x.dtype)[:, None]
    i = np.arange(6)
    # inv(Vandermonde on 0..5)[i, j] = a_ji, and 120 a_ji are integers: rounding recovers them
    A = np.rint(120 * np.linalg.inv(np.vander(np.arange(6.0), increasing=True))).astype(x.dtype)
    V = (k ** (i + 1) / (2 * l_ + 2 + i)) @ A / 120
    den = np.where(s_pow > 0.0, s_pow, 1)
    w, prev_delta = np.ones_like(x), np.inf
    for sweeps in range(1, max_sweeps + 1):
        G = _cumulative_values(sq * w, h)
        g = np.concatenate(([sq[0] * w[0]], G[1:] / x[1:]))
        S = _cumulative_values(s_pow * g, h)
        head = h * (V @ g[:6])  # (w - 1)(x_k), k = 1..5
        ratio = (S[6:] + (s_pow[5] * head[4] - S[5])) / den[6:]
        w_new = np.concatenate((np.ones(1, dtype=x.dtype), 1 + head, 1 + ratio))
        delta = float(np.max(np.abs(w_new - w)))
        w = w_new
        scale = max(1.0, float(np.max(np.abs(w))))
        stalled = delta < floor * scale and delta >= 0.5 * prev_delta
        if delta < tol * scale or stalled:
            break
        prev_delta = delta
    else:
        raise AssertionError("no fixed point")
    u0v = x ** (l_ + 1) * w
    with np.errstate(divide="ignore", invalid="ignore"):
        u0pv = x**l_ * (G + 2 * l_ + 1 - l_ * w)
    u0pv[0] = 1.0 if l == 0.0 else 0.0
    return u0v, u0pv, sweeps


def u0_by_parts(x, sq, l, h) -> tuple[np.ndarray, np.ndarray]:
    """(u0, u0') for l >= -1/2 at the longdouble fixed point, in the dtype of ``x``.

    :func:`plain_picard` with its own stopping constants (tol 1e-19, 120
    sweeps, floor 1e-13), which run past the library's float64 ones.
    """
    return plain_picard(x, sq, l, h, 1e-19, 120, 1e-13)[:2]


def direct_coefficients_extended(p, N: int, x: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """beta_n(x) and gamma_n(x), n = 0..N, by the paper's direct formulas in longdouble:

        beta_n(x)  = (4n+1) sum_k l_{2k,2n} x^{-2k} (phi_k - c_k x^{2k+l+1}),
        gamma_n(x) = (4n+1) sum_k l_{2k,2n} x^{-2k} (phi_k'
                     - c_k ((2k+l+1) x^{2k+l} + (Q/2) x^{2k+l+1})),

    with phi_k = (-1)^k (2k)! u0 Xt^(2k), phi_k' = (-1)^k (2k)! (u0' Xt^(2k)
    - Xt^(2k-1)/u0) and c_0 = 1, c_{k+1} = c_k (k+1/2)/(k+l+3/2).  In
    float64 they lose about a digit per order.  The mesh, the x q samples
    and the step are taken in ``numpy.longdouble``; u0 comes from
    :func:`u0_by_parts` and the Xt chain from the library's quadrature
    kernels, both in that dtype, and only the sums' results are rounded
    to float64.  Requires l > -1/2; ``x`` defaults to b.
    """
    from pbessel.mesh import _guarded_cumulative_values

    if N < 0:
        raise DomainError("N must be nonnegative")
    if N > DIRECT_ORDER_CAP:
        raise DomainError(f"direct formulas limited to n <= {DIRECT_ORDER_CAP}")
    if p.l == -0.5:
        raise DomainError("extended direct evaluation requires l > -1/2")
    ld = np.longdouble
    mesh = p.mesh
    i = mesh.m - 1 if x is None else mesh.index_of(x)
    betas = np.zeros(N + 1)
    gammas = np.zeros(N + 1)
    if i == 0:
        return betas, gammas  # every coefficient vanishes at the origin
    xv = mesh.x.astype(ld)
    h = ld(mesh.b) / ld(mesh.m - 1)
    qv = p.q.values.astype(ld)
    sq = xv * qv
    sq[0] = ld(p.xq_limit)
    # iterate to the longdouble fixed point: the direct formulas amplify a
    # relative u0 perturbation by many orders at the top of the range
    u0v, u0pv = u0_by_parts(xv, sq, p.l, h)
    Qv, _ = _guarded_cumulative_values(qv, h)
    xt = [v[i] for v in xtilde_chain(u0v, h, N)]
    xi, u0i, u0pi, Qi, l = xv[i], u0v[i], u0pv[i], Qv[i], ld(p.l)
    cks = [ld(1.0)]
    for k in range(N):
        cks.append(cks[-1] * (k + ld(0.5)) / (k + l + ld(1.5)))
    for n in range(N + 1):
        exact_row = legendre_even_coeffs(n).exact
        tot_b = tot_g = ld(0.0)
        for k in range(n + 1):
            lk = ld(exact_row[2 * k].numerator) / ld(exact_row[2 * k].denominator)
            fact = ld(math.factorial(2 * k))
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


@lru_cache(maxsize=None)
def extended_direct_reference(l: float) -> tuple[np.ndarray, np.ndarray]:
    """beta_n(pi), gamma_n(pi), n = 0..8, for q = x^2: the reference of criterion 03.

    The longdouble direct formulas on m = 80001 and 160001, Richardson-
    extrapolated over that mesh doubling with the second-order factor 1/3.
    At l = 1, n = 8 that step is taken on the direct route's own scatter:
    measured against ``longdouble_recurrence("x^2", 1.0, m=20001, N=8)``,
    the direct beta_8(pi) converges at about 4th order (8.4e-5, 4.8e-6,
    1.4e-6 relative at m = 20001, 40001, 80001) and then scatters (1.6e-8
    at 160001, 3.8e-7 at 320001).  This reference lands 4.4e-7 from that
    recurrence and 1.2e-7 from the float64 table at m = 20001.  The arrays
    are read-only, since every caller shares them.
    """
    from pbessel import UniformMesh, make_potential

    refs = {}
    for m in (80001, 160001):
        refs[m] = direct_coefficients_extended(make_potential("x^2", UniformMesh(np.pi, m), l), 8)
    bd = refs[160001][0] + (refs[160001][0] - refs[80001][0]) / 3.0
    gd = refs[160001][1] + (refs[160001][1] - refs[80001][1]) / 3.0
    bd.flags.writeable = gd.flags.writeable = False
    return bd, gd


@lru_cache(maxsize=None)
def const_c_eigenvalues(
    c: float, b: float, kind: str, omega_max: float, l: float = 1.5
) -> tuple[float, ...]:
    """Exact eigenvalues omega <= omega_max of q = c >= 0 at l (default 3/2) on [0, b].

    With k^2 = omega^2 - c and nu = l + 1/2 the regular solution is
    u = sqrt(x) J_nu(k x), and for c >= 0 every eigenvalue has real k.
    Dirichlet: J_nu(k b) = 0, so k b is a zero of J_nu (scipy's
    ``jn_zeros``, so nu must be an integer).  Neumann: u' = x^{-1/2}
    ((1/2) J_nu(t) + t J_nu'(t)) at t = k x, whose roots in t are
    bracketed on a grid of step ~0.05 (they are ~pi apart) and refined by
    Brent's method to a few ulp.
    """
    from scipy.optimize import brentq
    from scipy.special import jn_zeros, jv, jvp

    nu = l + 0.5
    t_max = b * math.sqrt(omega_max**2 - c)
    if kind == "dirichlet":
        if nu != int(nu):
            raise DomainError(f"Dirichlet needs an integer l + 1/2, got l = {l}")
        t = jn_zeros(int(nu), int(t_max / math.pi) + 2)
    else:

        def f(t):
            return 0.5 * jv(nu, t) + t * jvp(nu, t)

        grid = np.linspace(0.1, t_max + 1.0, int(20 * t_max) + 40)
        fg = f(grid)
        t = np.array([
            brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
            for lo, hi, flo, fhi in zip(grid[:-1], grid[1:], fg[:-1], fg[1:])
            if flo * fhi < 0
        ])
    omega = np.sqrt((t / b) ** 2 + c)
    return tuple(omega[omega <= omega_max].tolist())


def piecewise_const_dirichlet(
    l: float, c_left: float, c_right: float, a: float, b: float, lo: float, hi: float
) -> float:
    """The Dirichlet eigenvalue in [lo, hi] of q = c_left on [0, a], c_right on (a, b].

    With nu = l + 1/2 the regular solution is sqrt(x) J_nu(k x) on [0, a],
    k^2 = omega^2 - c_left, or sqrt(x) I_nu(k x) with k^2 = c_left - omega^2
    where omega^2 < c_left; both are divided by k^nu, so u(b) is continuous
    across omega^2 = c_left.  On [a, b] it is sqrt(x) (A J_nu(k x) +
    B Y_nu(k x)), or A I_nu + B K_nu where omega^2 < c_right, with A and B
    matched to the value and slope at a.  The root of u(b) comes from
    ``scipy.optimize.brentq``, to a few ulp; [lo, hi] must bracket one root.
    """
    from scipy.optimize import brentq
    from scipy.special import iv, ivp, jv, jvp, kv, kvp, yv, yvp

    nu = l + 0.5

    def basis(omega, c):
        # k and the (value, t-derivative) pairs of the regular and the second
        # solution in t = k x
        d = omega * omega - c
        return math.sqrt(abs(d)), (((jv, jvp), (yv, yvp)) if d >= 0.0 else ((iv, ivp), (kv, kvp)))

    def u_at_b(omega):
        # u = sqrt(x) v, so matching u and u' at a matches v and v'
        k1, ((f, fp), _) = basis(omega, c_left)
        v, vp = f(nu, k1 * a) / k1**nu, k1 * fp(nu, k1 * a) / k1**nu
        k2, ((f, fp), (g, gp)) = basis(omega, c_right)
        A, B = np.linalg.solve(
            [[f(nu, k2 * a), g(nu, k2 * a)], [k2 * fp(nu, k2 * a), k2 * gp(nu, k2 * a)]], [v, vp]
        )
        return math.sqrt(b) * (A * f(nu, k2 * b) + B * g(nu, k2 * b))

    return brentq(u_at_b, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)


@lru_cache(maxsize=None)
def coulomb_dirichlet(l: float, c: float, b: float, guess: float) -> float:
    """The Dirichlet eigenvalue of q = c/x at real l on [0, b] nearest ``guess``.

    The regular solution is u = F_l(eta, omega x) with eta = c/(2 omega)
    (DLMF 33.2), so the eigenvalue is a root of omega -> F_l(c/(2 omega),
    omega b), refined by mp.findroot from ``guess`` at 30 digits.
    """
    with mp.workdps(30):
        l_, c_, b_ = mp.mpf(l), mp.mpf(c), mp.mpf(b)
        return float(mp.findroot(lambda w: mp.coulombf(l_, c_ / (2 * w), w * b_), mp.mpf(guess)))


@lru_cache(maxsize=None)
def longdouble_recurrence(spec: str, l: float, m: int = 2001, N: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """beta_n(b), gamma_n(b), n = 0..N, on [0, pi]: the library's own build in longdouble.

    The float64 build's q samples (the origin sample of a singular q
    zeroed, x q's limit kept) are cast to ``numpy.longdouble``, and
    everything after them, Q, u0, B_n and the recurrence, runs the same
    code in that dtype.  So a float64 table of the same mesh differs from
    it by float64 rounding alone.  Column b only, as read-only longdouble
    arrays; ~11 more bits than float64 where ``np.finfo(np.longdouble).eps``
    is ~1.1e-19 (x86 80-bit).  The independent references are
    ``plain_recurrence(..., four_term_gamma=True)`` in the tests and
    ``gamma_B_n`` here.
    """
    from pbessel import UniformMesh, make_potential
    from pbessel.coefficients import build_coefficient_tables
    from pbessel.spps import Potential, build_u0

    mesh = UniformMesh(np.pi, m)
    p = make_potential(spec, mesh, l)
    p = Potential.from_samples(mesh, p.q.values.astype(np.longdouble), l, p.xq_limit)
    t = build_coefficient_tables(build_u0(p), p, N, [])  # no columns asked: x = b alone
    return t.beta[:, 0], t.gamma[:, 0]


def shadow_noise_estimate(spec: str, l: float, m: int = 2001, N: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise float64 noise estimates of beta_n(b), gamma_n(b), n = 0..N, on [0, pi].

    Four extra builds of the library's float64 tables, on the same mesh,
    each with u0 multiplied by (1 + s_k eps), eps = 2^-52, with the fixed
    sign s_k = (-1)^floor((k + j m) phi) at sample k, j = 0..3: four
    disjoint windows of one golden-ratio sequence (aperiodic, so reruns
    agree bit for bit and no quadrature period averages it away).  The
    estimate is the largest |shadow - build| at x = b over the four, row by
    row: Monte Carlo arithmetic (Parker, 1997) with four fixed draws.  One
    draw alone reads 0.1x to 4.7x the true family maximum on the five noise
    test cases; the maximum over four tracks the true noise of
    :func:`longdouble_recurrence` within a small factor, single rows less
    closely.
    """
    import dataclasses

    from pbessel import UniformMesh, make_potential
    from pbessel.coefficients import build_coefficient_tables
    from pbessel.mesh import GridFunction
    from pbessel.spps import build_u0

    mesh = UniformMesh(np.pi, m)
    p = make_potential(spec, mesh, l)
    u0 = build_u0(p)
    # no columns asked: the tables keep x = b alone
    t0 = build_coefficient_tables(u0, p, N, [])
    beta_est, gamma_est = np.zeros(N + 1), np.zeros(N + 1)
    for j in range(4):
        signs = np.where(np.floor((np.arange(m) + j * m) * (1 + math.sqrt(5)) / 2) % 2, -1.0, 1.0)
        perturbed = GridFunction(mesh, u0.u0.values * (1 + signs * np.finfo(float).eps))
        t1 = build_coefficient_tables(dataclasses.replace(u0, u0=perturbed), p, N, [])
        np.maximum(beta_est, np.abs(t1.beta - t0.beta)[:, 0], out=beta_est)
        np.maximum(gamma_est, np.abs(t1.gamma - t0.gamma)[:, 0], out=gamma_est)
    return beta_est, gamma_est
