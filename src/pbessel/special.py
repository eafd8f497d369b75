"""Stable evaluation of the special functions the solver is built on.

Covers spherical Bessel functions j_0..j_n of a common argument
(forward recurrence where it is stable, Miller backward recurrence with
power-of-two renormalization otherwise), the scaled forms S_l and D_l of
b_l(z) = sqrt(z) J_{l+1/2}(z) and its derivative, the gamma-ratio
constants of the recurrent coefficient scheme, and exact-rational
Legendre polynomial coefficients.

B_n goes through its exact rational ratio in n, and the normalization of
S_l and D_l through ``math.lgamma`` in log space; the gamma function is
never evaluated on its own above moderate arguments, which removes the
overflow ceiling that a naive ratio hits near order 170.

S_l and D_l come from one evaluation.  Up to z* = max(2, sqrt(3(l + 3/2)))
they are ascending series; beyond it both come from one pair J_{nu-1}(z),
J_nu(z), nu = l + 1/2, computed here with numpy alone, in two branches
(phi = nu - floor(nu)):

- where z >= 25 and z > 2 nu, Hankel's expansion (DLMF 10.17(i)) gives
  J_phi and J_{phi+1}, and the forward recurrence climbs to nu.  cos and
  sin of z - (alpha/2 + 1/4) pi come from cos z and sin z by angle
  addition, because forming the shifted argument first costs eps * z
  (1e-13 of the envelope at z = 2000);
- everywhere else, Miller's backward recurrence in J_{phi+k} runs from a
  start order set by l alone and is normalized by the Neumann sum
  (z/2)^phi = sum_k (phi+2k) Gamma(phi+k)/k! J_{phi+2k}(z).  The sum runs
  row by row (``np.add.accumulate``), never through ``@`` or a pairwise
  reduction, so a vector call equals its scalar calls bit for bit.

S_l = e^c z^{-nu} J_nu and D_l + l S_l = e^c z^{1-nu} J_{nu-1}, c = log(2^nu
Gamma(nu+1)), with the power of z from pow unless the product underflows
(large l); folded into the exponent it would cost eps nu log z.  Against
30-digit J_nu, S_l and D_l are within 3.6e-15 of their envelopes for
l <= 7.5 and 1.6e-14 at l = 25.5.  Importing this module, and evaluating
anything in it, loads numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, OrderCapError

__all__ = [
    "spherical_j_sequence",
    "bl_scaled",
    "bl_prime_scaled",
    "gamma_ratio_Bn",
    "gamma_ratio_Cn",
    "LegendreCoeffRow",
    "legendre_even_coeffs",
    "LEGENDRE_ORDER_CAP",
]

# ---------------------------------------------------------------------------
# spherical Bessel sequences
# ---------------------------------------------------------------------------

_SMALL_Z = 1e-2          # below this, the two-term ascending series is exact to eps
_RESCALE_AT = 2.0**700   # rescale trigger inside the backward recurrence
_RESCALE_BY = 2.0**-700  # exact, so rescaling never changes the rounding


def _miller_offset(n_max: int) -> int:
    # Safe start order for the backward recurrence; generous for n_max <= ~400.
    return int(math.ceil(1.5 * math.sqrt(40.0 * max(n_max, 1)))) + 20


def _jseq_forward(n_max: int, z: np.ndarray) -> np.ndarray:
    out = np.empty((n_max + 1, z.size))
    sz, cz = np.sin(z), np.cos(z)
    out[0] = sz / z
    if n_max >= 1:
        out[1] = sz / z**2 - cz / z
    for n in range(1, n_max):
        out[n + 1] = (2 * n + 1) / z * out[n] - out[n - 1]
    return out


def _jseq_series(n_max: int, z: np.ndarray) -> np.ndarray:
    # Leading terms of j_n = z^n/(2n+1)!! (1 - z^2/(2(2n+3)) + z^4/(8(2n+3)(2n+5)));
    # truncation below 1e-16 relative for z <= _SMALL_Z.
    out = np.empty((n_max + 1, z.size))
    lead = np.ones_like(z)
    z2 = z * z
    for n in range(n_max + 1):
        out[n] = lead * (1.0 - z2 / (2 * (2 * n + 3)) + z2 * z2 / (8.0 * (2 * n + 3) * (2 * n + 5)))
        lead = lead * z / (2 * n + 3)  # underflows to 0 harmlessly for large n
    return out


def _jseq_miller(n_max: int, z: np.ndarray) -> np.ndarray:
    m_start = n_max + _miller_offset(n_max)
    # |f_{n-1}| <= (2n+1)/z |f_n| + |f_{n+1}|: a step grows the two live rows
    # by at most g_max (z > _SMALL_Z here).  Checked every k steps, g_max^k <
    # 2^323, nothing passes 2^1024 (float64 max) from 2^700 between checks; k
    # depends on n_max alone, so each column rescales as it would on its own.
    g_max = (2 * m_start + 1) / _SMALL_Z + 1.0
    k = max(1, int(323.0 / math.log2(g_max)))
    coef = list(np.divide.outer(2.0 * np.arange(m_start + 1) + 1.0, z))  # (2n+1)/z
    f = np.empty((m_start + 2, z.size))
    f[m_start:] = [[1e-250], [0.0]]  # f_{m_start}, f_{m_start+1}
    rows = list(f)
    for n in range(m_start, 0, -1):
        row = rows[n - 1]
        np.multiply(coef[n], rows[n], out=row)
        np.subtract(row, rows[n + 1], out=row)
        if n % k == 0:
            live = np.abs(f[n - 1 : n + 1]).max(axis=0)
            if live.max() > _RESCALE_AT:
                f[n - 1 : max(n, n_max) + 1] *= np.where(live > _RESCALE_AT, _RESCALE_BY, 1.0)
    # Normalize against whichever of j_0, j_1 is larger in magnitude; j_0
    # vanishes at z = k*pi, so a fixed j_0 normalization would be unstable
    # there.
    j0 = np.sin(z) / z
    j1 = np.sin(z) / z**2 - np.cos(z) / z
    use_j1 = np.abs(j1) > np.abs(j0)
    scale = np.where(use_j1, j1, j0) / np.where(use_j1, f[1], f[0])
    return f[: n_max + 1] * scale


def spherical_j_sequence(n_max: int, z) -> np.ndarray:
    """Spherical Bessel functions j_0(z)..j_{n_max}(z) of one argument.

    Parameters
    ----------
    n_max : int
        Largest order, n_max >= 0.
    z : float or 1-D array
        Real argument(s).

    Returns
    -------
    ndarray
        Shape (n_max+1,) for scalar ``z``, (n_max+1, len(z)) otherwise.

    Notes
    -----
    For |z| >= n_max the upward recurrence is stable and used directly;
    for 0 < |z| < n_max a Miller-type backward recurrence is used, checked
    every k steps (k fixed by n_max) and rescaled by 2^-700, so a vector
    call equals its scalar calls bit for bit; z = 0 gives (1, 0, 0, ...).
    """
    if n_max < 0:
        raise DomainError(f"order must be nonnegative, got {n_max}")
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if z_arr.ndim != 1:
        raise DomainError("z must be a scalar or 1-D array")
    if not np.isfinite(z_arr).all():
        raise DomainError("non-finite argument to spherical_j_sequence")

    za = np.abs(z_arr)
    out = np.empty((n_max + 1, z_arr.size))

    zero = za == 0.0
    small = (~zero) & (za <= _SMALL_Z)
    fwd = (~zero) & (~small) & (za >= n_max)
    mil = (~zero) & (~small) & (~fwd)

    if zero.any():
        out[:, zero] = 0.0
        out[0, zero] = 1.0
    if small.any():
        out[:, small] = _jseq_series(n_max, za[small])
    if fwd.any():
        out[:, fwd] = _jseq_forward(n_max, za[fwd])
    if mil.any():
        out[:, mil] = _jseq_miller(n_max, za[mil])

    neg = z_arr < 0.0
    if neg.any():
        out[1::2, neg] *= -1.0  # j_n(-z) = (-1)^n j_n(z)

    return out[:, 0] if np.isscalar(z) or np.ndim(z) == 0 else out


# ---------------------------------------------------------------------------
# scaled forms of b_l(z) = sqrt(z) J_{l+1/2}(z) and b_l'(z)
# ---------------------------------------------------------------------------


def _check_l(l: float) -> float:
    l = float(l)
    if not np.isfinite(l) or l < -0.5:
        raise DomainError(f"l >= -1/2 required, got l={l}")
    return l


def _series_region(l: float, z: np.ndarray) -> np.ndarray:
    # Ascending series is cancellation-free while the term ratio stays < 1.
    return (z <= 2.0) | (z * z <= 3.0 * (l + 1.5))


def _power_fused(log_mag: np.ndarray, z: np.ndarray, log_z: np.ndarray, p: float, j: np.ndarray) -> np.ndarray:
    """exp(log_mag) z^p j, fused in log space so that no factor overflows on its own.

    z^p comes from pow wherever z^p j stays a normal number: folded into the
    exponent it would cost eps |p log z| (8e-15 of the envelope of D_l at
    l = 7.5, z ~ 1000).  Only entries whose z^p j underflows (large l) fold it.
    """
    with np.errstate(under="ignore"):
        zj = z**p * j
    direct = np.abs(zj) >= np.finfo(float).tiny
    signed = np.where(direct, zj, j)
    mag = np.abs(signed)
    lg = np.full_like(mag, -np.inf)
    np.log(mag, out=lg, where=mag > 0.0)
    return np.sign(signed) * np.exp(log_mag + np.where(direct, 0.0, p * log_z) + lg)


_HANKEL_Z = 25.0  # from here Hankel's expansion of orders < 2 is below eps in 11 + 11 terms
_HANKEL_TERMS = 11


@lru_cache(maxsize=32)
def _hankel_coeffs(phi: float) -> np.ndarray:
    # (terms, 4, 1): P and Q of orders phi and phi+1 as polynomials in 1/z^2,
    # Q without its leading 1/z.  P = sum_m (-1)^m a_{2m} z^{-2m}, Q = sum_m
    # (-1)^m a_{2m+1} z^{-2m-1}, a_k = prod_{j<=k} (4 alpha^2 - (2j-1)^2) / (k! 8^k)
    # (DLMF 10.17.1-10.17.4).
    rows = []
    for alpha in (phi, phi + 1.0):
        a = [1.0]
        for k in range(1, 2 * _HANKEL_TERMS):
            a.append(a[-1] * (4.0 * alpha * alpha - (2 * k - 1) ** 2) / (8.0 * k))
        sign = [(-1.0) ** m for m in range(_HANKEL_TERMS)]
        rows += [[sg * c for sg, c in zip(sign, a[0::2])], [sg * c for sg, c in zip(sign, a[1::2])]]
    out = np.array(rows).T[:, :, None]
    out.flags.writeable = False  # cached: every caller shares it
    return out


def _jpair_hankel(phi: float, n0: int, z: np.ndarray) -> tuple:
    # (0, J_{phi+n0-1}(z), J_{phi+n0}(z)) for z >= _HANKEL_Z: J_phi and J_{phi+1}
    # from Hankel's expansion, then the three-term recurrence, forward while
    # phi + n0 < z/2, where it is stable.  cos and sin of z - (alpha/2 + 1/4) pi
    # come from cos z and sin z by angle addition: forming the shifted argument
    # first would cost eps * z.
    c = _hankel_coeffs(phi)
    w = 1.0 / (z * z)
    pq = c[-1] * w
    for cm in c[-2:0:-1]:
        pq += cm
        pq *= w
    pq += c[0]
    p0, q0, p1, q1 = pq[0], pq[1] / z, pq[2], pq[3] / z
    cz, sz = np.cos(z), np.sin(z)
    amp = np.sqrt(2.0 / (math.pi * z))
    chi = (0.5 * phi + 0.25) * math.pi  # the shift of order phi; phi + 1 adds pi/2
    cc, sc = math.cos(chi), math.sin(chi)
    # J_alpha = amp (P cos(z - chi) - Q sin(z - chi))
    j0 = amp * (cz * (p0 * cc + q0 * sc) + sz * (p0 * sc - q0 * cc))
    j1 = amp * (cz * (q1 * cc - p1 * sc) + sz * (p1 * cc + q1 * sc))
    if n0 == 0:
        return 0.0, 2.0 * phi / z * j0 - j1, j0
    for k in range(1, n0):
        j0, j1 = j1, 2.0 * (phi + k) / z * j1 - j0
    return 0.0, j0, j1


def _miller_start(nu: float) -> int:
    # start order of the J-pair Miller sweep, which serves z <= max(25, 2 nu)
    t = max(_HANKEL_Z, 2.0 * nu)
    return int(math.ceil(t + math.sqrt(40.0 * t))) + 10


@lru_cache(maxsize=32)
def _neumann_weights(phi: float, k_start: int) -> np.ndarray:
    # (k_start//2 + 1, 1): w_k of (z/2)^phi = sum_k w_k J_{phi+2k}(z) (DLMF
    # 10.23(ii)), w_0 = Gamma(phi+1), w_k = (phi+2k) Gamma(phi+k)/k!, from the top
    g = math.gamma(phi + 1.0)  # Gamma(phi+k)/k! at k = 1
    w = [g]
    for k in range(1, k_start // 2 + 1):
        w.append((phi + 2 * k) * g)
        g *= (phi + k) / (k + 1)
    out = np.array(w[::-1])[:, None]
    out.flags.writeable = False  # cached: every caller shares it
    return out


def _jpair_miller(phi: float, n0: int, z: np.ndarray) -> tuple:
    # (log scale, j_{n0-1}, j_{n0}) with J_{phi+k}(z) = exp(log scale) j_k for
    # 2 < z <= max(25, 2 nu): Miller's backward recurrence f_k from a start set
    # by the order alone, divided by the Neumann sum of _neumann_weights.  The
    # sum runs row by row (np.add.accumulate), so every column sees the same
    # additions in the same order as it would alone.  A step grows the live rows
    # by at most g_max = phi + k_start + 1, so checking every kc steps (g_max^kc
    # < 2^250, kc set by the start) keeps every row below 2^950 and the weighted
    # sum finite.  Rescaling by 2^-700 applies to every row made so far; the
    # pair is copied when it is made and later rescales are counted, so it
    # never underflows.
    k_start = _miller_start(phi + n0)
    kc = max(1, int(250.0 / math.log2(phi + k_start + 1.0)))
    coef = list(np.divide.outer(2.0 * (phi + np.arange(k_start + 1)), z))  # 2(phi+k)/z
    f = np.empty((k_start + 3, z.size))  # row i + 1 holds f_i, down to f_{-1}
    f[k_start + 1 :] = [[1e-250], [0.0]]  # f_{k_start}, f_{k_start+1}
    rows = list(f)
    shift = np.zeros_like(z)
    for k in range(k_start, min(n0, 1) - 1, -1):
        row = rows[k]  # f_{k-1}
        np.multiply(coef[k], rows[k + 1], out=row)
        np.subtract(row, rows[k + 2], out=row)
        if k % kc == 0:
            big = np.maximum(np.abs(row), np.abs(rows[k + 1])) > _RESCALE_AT
            if big.any():
                f[k:] *= np.where(big, _RESCALE_BY, 1.0)
                shift += big
        if k == n0:
            pair, shift_at = f[k : k + 2].copy(), shift.copy()
    even = f[k_start // 2 * 2 + 1 : 0 : -2]  # f_{2k}, k from k_start // 2 down to 0
    total = np.add.accumulate(_neumann_weights(phi, k_start) * even, axis=0)[-1]
    log_scale = phi * np.log(0.5 * z) - (shift - shift_at) * (700.0 * math.log(2.0))
    return log_scale, pair[0] / total, pair[1] / total


def _leading_scaled(l: float, z, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(S_l(z), D_l(z)) on z as an array of at least one dimension.

    Both ascending sums run over one term sequence t_k = Gamma(l+3/2) (-1)^k
    (z/2)^{2k} / (k! Gamma(k+l+3/2)): S_l = sum_k t_k (S_l(0) = 1) and D_l =
    sum_k (2k+l+1) t_k (D_l(0) = l+1), each stopping at its own first
    negligible term.  Past the series region both come from one pair
    J_{nu-1}, J_nu, nu = l + 1/2: S_l from J_nu, and D_l = t - l S_l with t
    from J_{nu-1}, as b_l'(z) = sqrt(z) J_{nu-1}(z) - l J_nu(z)/sqrt(z).
    """
    l = _check_l(l)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if (z_arr < 0).any() or not np.isfinite(z_arr).all():
        raise DomainError(f"{name} requires finite z >= 0")
    s_out, d_out = np.empty_like(z_arr), np.empty_like(z_arr)
    ser = _series_region(l, z_arr)
    if ser.any():
        zs = z_arr[ser]
        nz2 = -(zs * zs)
        s_acc, d_acc = np.ones_like(zs), np.full_like(zs, l + 1.0)
        term = np.ones_like(zs)
        # each entry stops at its own first negligible term, as alone
        s_live, d_live = np.ones(zs.shape, dtype=bool), np.ones(zs.shape, dtype=bool)
        k = 0
        while k <= 200:
            s_any, d_any = s_live.any(), d_live.any()
            if not (s_any or d_any):
                break
            k += 1
            term = term * nz2 / (4.0 * k * (k + l + 0.5))
            if d_any:
                d_term = term * (2 * k + l + 1.0)
                d_acc += d_term * d_live
                d_live &= np.abs(d_term) > 1e-18
            if s_any:
                s_acc += term * s_live
                s_live &= np.abs(term) > 1e-18 * np.maximum(np.abs(s_acc), 1e-30)
        s_out[ser], d_out[ser] = s_acc, d_acc
    rest = ~ser
    if rest.any():
        zr = z_arr[rest]
        nu = l + 0.5
        n0 = int(nu)
        phi = nu - n0
        log_scale, j_lo, j_nu = np.empty_like(zr), np.empty_like(zr), np.empty_like(zr)
        hankel = (zr >= _HANKEL_Z) & (zr > 2.0 * nu)
        for part, jpair in ((hankel, _jpair_hankel), (~hankel, _jpair_miller)):
            if part.any():
                log_scale[part], j_lo[part], j_nu[part] = jpair(phi, n0, zr[part])
        # S_l = e^base z^{-nu} J_nu and D_l = e^base z^{1-nu} J_{nu-1} - l S_l
        base = nu * math.log(2.0) + math.lgamma(l + 1.5) + log_scale
        log_z = np.log(zr)
        s = _power_fused(base, zr, log_z, -nu, j_nu)
        s_out[rest] = s
        d_out[rest] = _power_fused(base, zr, log_z, 1.0 - nu, j_lo) - l * s
    return s_out, d_out


def bl_scaled(l: float, z) -> np.ndarray | float:
    """S_l(z) = 2^{l+1/2} Gamma(l+3/2) z^{-l-1} b_l(z), with S_l(0) = 1.

    The leading NSBF term d(omega) b_l(omega x) equals x^{l+1} S_l(omega x),
    which removes the omega^{-l-1} pole analytically; large-l evaluation is
    fused in log space so neither factor overflows on its own.
    """
    s, _ = _leading_scaled(l, z, "bl_scaled")
    return float(s[0]) if np.ndim(z) == 0 else s


def bl_prime_scaled(l: float, z) -> np.ndarray | float:
    """D_l(z) = 2^{l+1/2} Gamma(l+3/2) z^{-l} b_l'(z), with D_l(0) = l + 1.

    The leading derivative term d(omega) omega b_l'(omega x) equals
    x^l D_l(omega x).
    """
    _, d = _leading_scaled(l, z, "bl_prime_scaled")
    return float(d[0]) if np.ndim(z) == 0 else d


# ---------------------------------------------------------------------------
# gamma ratios
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _bn_sequence(l: float, size: int) -> tuple[float, ...]:
    # B_0 (unused), B_1 = 3(l+1)/(2l+3), then B_{k+1} = B_k r_k with
    # r_k = (4k+3)(2k-1)(l-k+1) / ((4k-1)(k+1)(2k+2l+3)).  Each order adds a
    # few roundings: B_n is within 1e-15 of mpmath to n = 100 for
    # half-integer l and within 3e-14 to n = 400 for any l, where a log-gamma
    # sum carries eps * |log Gamma(n)|, ~1e-12 relative by n = 250.  Entries
    # do not depend on ``size``, so every size gives the same B_n.
    seq = [0.0, 3.0 * (l + 1.0) / (2.0 * l + 3.0)]
    for k in range(1, size - 1):
        num = (4 * k + 3) * (2 * k - 1) * (l - k + 1.0)
        den = (4 * k - 1) * (k + 1) * (2 * k + 2 * l + 3.0)
        seq.append(seq[k] * num / den)
    return tuple(seq)


def gamma_ratio_Bn(n: int, l: float) -> float:
    """Coupling constant B_n of the recurrent coefficient scheme.

    B_n = (4n-1) Gamma(l+2) Gamma(l+3/2) Gamma(n-1/2)
          / (2 sqrt(pi) Gamma(l-n+2) Gamma(n+1) Gamma(n+l+3/2)).

    Evaluated through the exact rational ratio B_{n+1}/B_n, so the sign
    of Gamma(l-n+2) for negative non-integer arguments comes out of the
    product.  For integer l the reciprocal of Gamma(l-n+2) makes B_n
    exactly zero for every n >= l+2.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"n must be a positive integer, got {n}")
    l = _check_l(l)
    n = int(n)
    if l - n + 2.0 <= 0.0 and l.is_integer():
        return 0.0  # pole of Gamma(l-n+2): reciprocal vanishes
    return _bn_sequence(l, 1 << max(7, n.bit_length()))[n]


def gamma_ratio_Cn(n: int, l: float) -> float:
    """C_n = B_n / 2, the coupling constant of the derivative scheme."""
    return 0.5 * gamma_ratio_Bn(n, l)


# ---------------------------------------------------------------------------
# Legendre polynomial coefficients (exact rationals internally)
# ---------------------------------------------------------------------------

#: Largest n for which legendre_even_coeffs(n) (order 2n) is served.
LEGENDRE_ORDER_CAP = 30


@dataclass(frozen=True)
class LegendreCoeffRow:
    """Coefficients l_{k,n} of P_n(x) = sum_k l_{k,n} x^k.

    ``coeffs[k]`` is the float coefficient of x^k; ``exact`` holds the same
    numbers as exact rationals.  Entries with k, n of opposite parity are
    exactly zero.
    """

    order: int
    coeffs: np.ndarray
    exact: tuple[Fraction, ...]

    def __post_init__(self):
        self.coeffs.flags.writeable = False


@lru_cache(maxsize=None)
def _legendre_exact(order: int) -> tuple[Fraction, ...]:
    # Bonnet recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1} in exact rationals.
    if order == 0:
        return (Fraction(1),)
    prev = [Fraction(1)]
    cur = [Fraction(0), Fraction(1)]
    for k in range(1, order):
        nxt = [Fraction(0)] * (k + 2)
        for p, c in enumerate(cur):
            nxt[p + 1] += Fraction(2 * k + 1, k + 1) * c
        for p, c in enumerate(prev):
            nxt[p] -= Fraction(k, k + 1) * c
        prev, cur = cur, nxt
    return tuple(cur)


def legendre_even_coeffs(n: int) -> LegendreCoeffRow:
    """Exact coefficients of the Legendre polynomial P_{2n}.

    The Bonnet recurrence is carried in exact rational arithmetic and
    converted to floating point only at this boundary, so the rapid
    growth of the coefficients costs no accuracy here.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    if n > LEGENDRE_ORDER_CAP:
        raise OrderCapError(
            f"P_{2 * n} coefficients not served (cap n={LEGENDRE_ORDER_CAP}); "
            "use the recurrent coefficient path for high orders"
        )
    exact = _legendre_exact(2 * int(n))
    return LegendreCoeffRow(order=2 * int(n), coeffs=np.array([float(c) for c in exact]), exact=exact)
