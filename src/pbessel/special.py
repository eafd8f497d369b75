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

Importing this module loads numpy and the standard library only.  The
large-argument branch of S_l and D_l needs J_nu of non-integer order;
``scipy.special.jv`` is imported there, on first use.
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


def _jv(nu: float, z):
    # importing scipy.special takes longer than importing numpy; only the
    # large-argument branch of S_l and D_l needs it, so it loads on first use here
    from scipy.special import jv

    return jv(nu, z)


def _series_region(l: float, z: np.ndarray) -> np.ndarray:
    # Ascending series is cancellation-free while the term ratio stays < 1.
    return (z <= 2.0) | (z * z <= 3.0 * (l + 1.5))


def _log_fused(log_mag: np.ndarray, signed: np.ndarray) -> np.ndarray:
    """exp(log_mag) * signed with the magnitude of ``signed`` folded into the log."""
    mag = np.abs(signed)
    with np.errstate(divide="ignore"):
        lg = np.where(mag > 0.0, np.log(np.where(mag > 0.0, mag, 1.0)), -np.inf)
    return np.sign(signed) * np.exp(log_mag + lg)


def _leading_scaled(l: float, z, deriv: bool, name: str) -> np.ndarray | float:
    # S_l(z), or D_l(z) if ``deriv``.  Both sums run over one term sequence
    # t_k = Gamma(l+3/2) (-1)^k (z/2)^{2k} / (k! Gamma(k+l+3/2)): S_l = sum_k t_k
    # (S_l(0) = 1), D_l = sum_k (2k+l+1) t_k (D_l(0) = l+1).
    l = _check_l(l)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if (z_arr < 0).any() or not np.isfinite(z_arr).all():
        raise DomainError(f"{name} requires finite z >= 0")
    out = np.empty_like(z_arr)
    ser = _series_region(l, z_arr)
    if ser.any():
        zs = z_arr[ser]
        z2 = zs * zs
        acc = np.full_like(z2, l + 1.0 if deriv else 1.0)
        term = np.ones_like(z2)
        # each entry stops at its own first negligible term, as alone
        live = np.ones(z2.shape, dtype=bool)
        k = 0
        while live.any() and k <= 200:
            k += 1
            term = term * (-z2) / (4.0 * k * (k + l + 0.5))
            if deriv:
                acc += term * (2 * k + l + 1.0) * live
                live &= np.abs(term) * (2 * k + l + 1.0) > 1e-18
            else:
                acc += term * live
                live &= np.abs(term) > 1e-18 * np.maximum(np.abs(acc), 1e-30)
        out[ser] = acc
    rest = ~ser
    if rest.any():
        zr = z_arr[rest]
        log_z = np.log(zr)
        base = (l + 0.5) * math.log(2.0) + math.lgamma(l + 1.5)
        s = None if deriv and not l else _log_fused(base + (-0.5 - l) * log_z, _jv(l + 0.5, zr))
        if deriv:
            # b_l'(z) = sqrt(z) J_{l-1/2}(z) - l J_{l+1/2}(z)/sqrt(z)
            t1 = _log_fused(base + (0.5 - l) * log_z, _jv(l - 0.5, zr))
            out[rest] = t1 if s is None else t1 - l * s
        else:
            out[rest] = s
    return float(out[0]) if np.ndim(z) == 0 else out


def bl_scaled(l: float, z) -> np.ndarray | float:
    """S_l(z) = 2^{l+1/2} Gamma(l+3/2) z^{-l-1} b_l(z), with S_l(0) = 1.

    The leading NSBF term d(omega) b_l(omega x) equals x^{l+1} S_l(omega x),
    which removes the omega^{-l-1} pole analytically; large-l evaluation is
    fused in log space so neither factor overflows on its own.
    """
    return _leading_scaled(l, z, False, "bl_scaled")


def bl_prime_scaled(l: float, z) -> np.ndarray | float:
    """D_l(z) = 2^{l+1/2} Gamma(l+3/2) z^{-l} b_l'(z), with D_l(0) = l + 1.

    The leading derivative term d(omega) omega b_l'(omega x) equals
    x^l D_l(omega x).
    """
    return _leading_scaled(l, z, True, "bl_prime_scaled")


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
