"""Stable evaluation of the special functions the solver is built on.

Covers spherical Bessel functions j_0..j_n of a common argument
(forward recurrence where it is stable, Miller backward recurrence with
power-of-two renormalization otherwise), the scaled forms S_l and D_l of
b_l(z) = sqrt(z) J_{l+1/2}(z) and its derivative, and the gamma-ratio
constants of the recurrent coefficient scheme.

B_n goes through its exact rational ratio in n, and the normalization of
S_l and D_l through ``math.lgamma`` in log space; the gamma function is
never evaluated on its own above moderate arguments, which removes the
overflow ceiling that a naive ratio hits near order 170.

S_l and D_l come from one evaluation.  Up to z* = max(2, sqrt(3(l + 3/2)))
both are one long-double Horner pass over their shared ascending series, of a
degree fixed per l (first term bound at z* below 1e-21: 14 at l = -1/2, 19 at
l = 25.5); beyond it, one pair J_{nu-1}, J_nu, nu = l + 1/2, in two branches:

- where z >= 25 and z > 2 nu, Hankel's expansion (DLMF 10.17(i)) gives
  J_phi and J_{phi+1}, phi = nu - floor(nu), and the forward recurrence
  climbs to nu.  cos and sin of z - (alpha/2 + 1/4) pi come from cos z and
  sin z by angle addition, because forming the shifted argument first
  costs eps * z (1e-13 of the envelope at z = 2000);
- everywhere else, Miller's backward recurrence in J_{phi+k} is
  normalized by the Neumann sum (z/2)^phi = sum_k (phi+2k) Gamma(phi+k)/k!
  J_{phi+2k}(z).  The sum runs row by row (``np.add.accumulate``), never
  through ``@`` or a pairwise reduction, so a vector call equals its scalar
  calls bit for bit.  Where J_nu < 1e-308 (large l) the quotient by the sum
  would underflow, so there the binary exponents go to the log scale.

Both backward recurrences run in one kernel, ``_miller``: f_{k-1} =
2(a+k)/z f_k - f_{k+1}, a = 1/2 for j_k and a = phi for J_{phi+k}; they
differ only in their normalization (Gautschi, SIAM Review 9, 1967).  Each
column starts at an order set by its argument, s(n, ceil z) from one
cached table per order n (``_start_table``): Zhang & Jin's MSTA2 rule
(Computation of Special Functions, 1996, as in their SPHJ and JYNB),
chosen so that the orders up to n come out to 15 digits.  A vector call
runs one loop from its highest start; a column with a lower start holds
exact zeros above it and takes the seed there, and rescales and sums on
its own schedule, so it too equals its scalar call bit for bit.

S_l = e^c z^{-nu} J_nu and D_l + l S_l = e^c z^{1-nu} J_{nu-1}, c = log(2^nu
Gamma(nu+1)), with the power of z from pow unless the product underflows
(large l); folded into the exponent it would cost eps nu log z.  Against
30-digit J_nu, S_l and D_l are within 3.6e-15 of their envelopes for
l <= 7.5 and 1.6e-14 at l = 25.5 past z*, and correctly rounded up to it
(within 8e-16 of max(|value|, 1) where long double is double).  Importing
this module, and evaluating anything in it, loads numpy and the stdlib only.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "spherical_j_sequence",
    "bl_scaled",
    "bl_prime_scaled",
    "gamma_ratio_Bn",
]

# ---------------------------------------------------------------------------
# spherical Bessel sequences
# ---------------------------------------------------------------------------

_SMALL_Z = 1e-2          # below this, the two-term ascending series is exact to eps
_RESCALE_AT = 2.0**700   # rescale trigger inside the backward recurrence
_RESCALE_BY = 2.0**-700  # exact, so rescaling never changes the rounding
_SEED = 1e-250           # value at its start order of every backward recurrence


def _envj(n, z):
    # Zhang & Jin's ENVJ: -log10 of (e z/(2n))^n / sqrt(2 pi n), the envelope
    # of |J_n(z)|, with e/2 rounded up to 1.36; a lower bound on -log10|J_n(z)|
    return 0.5 * np.log10(6.28 * n) - n * np.log10(1.36 * z / n)


@lru_cache(maxsize=32)
def _start_table(n: int) -> np.ndarray:
    """Start orders s(n, c) of a backward recurrence, c = 0..max(25, 2n).

    A sweep over orders 0..n at argument z starts at s(n, ceil(z)).  s is
    Zhang & Jin's MSTA2 with 15 digits (Computation of Special Functions,
    1996, as in their SPHJ and JYNB): the smallest m with ENVJ(m, c) >= 15,
    or >= ENVJ(n, c) + 7.5 where J_n(c) is already below 10^-7.5, plus 10.
    It never decreases in c and always exceeds n + 10.
    """
    c = np.maximum(np.arange(max(25, 2 * n) + 1.0), 1.0)  # c = 0 shares c = 1's start
    target = np.maximum(15.0, 7.5 + _envj(n, c))
    # ENVJ(m, c) rises in m from m = max(n, 1.1 c), where it is below the
    # target, and reaches it by 2 lo + 40; bisect over the integers between
    lo = np.maximum(float(n), np.floor(1.1 * c))
    hi = 2.0 * lo + 40.0
    while (hi - lo > 1.0).any():
        mid = np.floor(0.5 * (lo + hi))
        ok = _envj(mid, c) >= target
        lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)
    out = np.maximum.accumulate(hi.astype(np.intp) + 10)
    out.flags.writeable = False  # cached: every caller shares it
    return out


def _miller_starts(n: int, z: np.ndarray) -> tuple[int, dict, int]:
    """(top, seeds, s_max) of a vector backward recurrence over orders 0..n at z.

    top is the highest start among z, where the shared loop begins; seeds
    maps each start s to the columns that start there (grouped without
    np.unique); s_max is the largest start of the order, which the rescale
    schedules use so that they do not depend on the other columns of a call.
    """
    table = _start_table(n)
    start = table[np.ceil(z).astype(np.intp)]
    order = np.argsort(start, kind="stable")
    s = start[order]
    edges = [0, *(np.flatnonzero(s[1:] != s[:-1]) + 1).tolist(), s.size]
    return int(s[-1]), {int(s[a]): order[a:b] for a, b in zip(edges, edges[1:])}, int(table[-1])


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
    # truncation below 1e-16 relative for z <= _SMALL_Z.  z^n/(2n+1)!! is the running
    # product of z/(2k+3), k < n, which underflows to 0 harmlessly for large n.
    d = 2.0 * np.arange(n_max + 1.0)[:, None] + 3.0  # 2n + 3
    lead = np.ones((n_max + 1, z.size))
    np.multiply.accumulate(z / d[:-1], axis=0, out=lead[1:])
    z2 = z * z
    return lead * (1.0 - z2 / (2.0 * d) + z2 * z2 / (8.0 * d * (d + 2.0)))


def _miller(a: float, n: int, z: np.ndarray, stop: int, z_min: float, bits: int, pair_at: int = -1) -> tuple:
    """Miller's backward recurrence f_{k-1} = 2(a+k)/z f_k - f_{k+1} down to f_stop.

    Each column starts at its own order (see the module docstring).  A step
    grows the two live rows by at most g_max = 2(a + s_max)/z_min + 1 (z >=
    z_min); checked every kc steps, g_max^kc < 2^bits, so no row passes
    2^(700 + bits).  kc depends on n alone, so each column rescales as it
    would on its own, by 2^-700, applied to every row made so far.

    Returns (f, s_max, shift, pair): row k + 1 of f holds f_k, k = -1..top+1;
    pair is (f_{pair_at-1}, f_{pair_at}), copied when made so it never
    underflows, and shift counts each column's rescales after that.  The
    default pair_at = -1, which no step reaches, gives no pair (None) and
    counts every rescale.
    """
    top, seeds, s_max = _miller_starts(n, z)
    kc = max(1, int(bits / math.log2(2.0 * (a + s_max) / z_min + 1.0)))
    coef = list(np.divide.outer(2.0 * (a + np.arange(top + 1)), z))  # 2(a+k)/z
    f = np.zeros((top + 3, z.size))
    f[top + 1, seeds[top]] = _SEED
    rows = list(f)
    shift = np.zeros_like(z)
    pair = None
    mul, sub = np.multiply, np.subtract
    for k in range(top, stop, -1):
        row = rows[k]  # f_{k-1}
        mul(coef[k], rows[k + 1], row)
        sub(row, rows[k + 2], row)
        cols = seeds.get(k - 1)
        if cols is not None:
            row[cols] = _SEED
        if k % kc == 0:
            big = np.maximum(np.abs(row), np.abs(rows[k + 1])) > _RESCALE_AT
            if big.any():
                f[k:] *= np.where(big, _RESCALE_BY, 1.0)
                shift += big
        if k == pair_at:
            pair, shift = f[k : k + 2].copy(), np.zeros_like(z)
    return f, s_max, shift, pair


def _jseq_miller(n_max: int, z: np.ndarray) -> np.ndarray:
    # a = 1/2: f_k is j_k up to a common factor; no sum of rows is formed,
    # so they may reach 2^1023 between checks
    f = _miller(0.5, n_max, z, 0, _SMALL_Z, 323)[0][1 : n_max + 2]
    # Normalize against whichever of j_0, j_1 is larger in magnitude; j_0
    # vanishes at z = k*pi, so a fixed j_0 normalization would be unstable
    # there.
    j0 = np.sin(z) / z
    j1 = np.sin(z) / z**2 - np.cos(z) / z
    use_j1 = np.abs(j1) > np.abs(j0)
    scale = np.where(use_j1, j1, j0) / np.where(use_j1, f[1], f[0])
    return f * scale


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
    for 0.01 < |z| < n_max Miller's backward recurrence (the module's one
    kernel, shared with J_nu) is used, started at an order set per
    argument by Zhang & Jin's MSTA2 rule (at n_max = 200, from 213 for
    |z| <= 1 to 312 near |z| = 200), checked every k steps (k fixed by
    n_max) and rescaled by 2^-700, so a vector call equals its scalar
    calls bit for bit; |z| <= 0.01 takes the ascending series, which
    gives (1, 0, 0, ...) at z = 0.
    """
    if n_max < 0 or not float(n_max).is_integer():
        raise DomainError(f"order must be a nonnegative integer, got {n_max}")
    n_max = int(n_max)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if z_arr.ndim != 1:
        raise DomainError("z must be a scalar or 1-D array")
    if not np.isfinite(z_arr).all():
        raise DomainError("non-finite argument to spherical_j_sequence")

    za = np.abs(z_arr)
    small = za <= _SMALL_Z  # z = 0 included: the series gives (1, 0, 0, ...) there
    fwd = (~small) & (za >= n_max)
    mil = (~small) & (~fwd)
    parts = [(part, seq) for part, seq in ((small, _jseq_series), (fwd, _jseq_forward),
                                           (mil, _jseq_miller)) if part.any()]
    if len(parts) == 1:  # one branch: its result is the result
        out = parts[0][1](n_max, za)
    else:
        out = np.empty((n_max + 1, z_arr.size))
        for part, seq in parts:
            out[:, part] = seq(n_max, za[part])

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


def _horner(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    # (r, len(w)): sum_k c[k] w^k for each column of c (K+1, r, 1), entry by entry, so a vector
    # call equals its scalar calls; c and w are spread first (a broadcast per step costs more)
    c = np.repeat(c, w.size, axis=2)
    w = np.repeat(w[None], c.shape[1], axis=0)
    acc = c[-1].copy()
    for ck in c[-2::-1]:
        acc *= w
        acc += ck
    return acc


@lru_cache(maxsize=32)
def _series_coeffs(l: float) -> np.ndarray:
    # (K+1, 2, 1) in long double: c_k and (2k+l+1) c_k, c_k = prod_{j<=k} 1/(j (j+l+1/2))
    # (DLMF 10.2.2), to the first k whose bound c_k |w*|^k at z* is below 1e-21, as a
    # running product (|w*|^k overflows at large l)
    lx = np.longdouble(l)
    c, bound, k, rows = np.longdouble(1.0), 1.0, 0, [[1.0, lx + 1.0]]
    while bound >= 1e-21:
        k += 1
        c /= k * (k + lx + 0.5)
        bound *= max(1.0, 0.75 * (l + 1.5)) / (k * (k + l + 0.5))  # |w*| = z*^2 / 4
        rows.append([c, (2 * k + lx + 1.0) * c])
    out = np.array(rows, dtype=np.longdouble)[:, :, None]
    out.flags.writeable = False  # cached: every caller shares it
    return out


def _power_fused(log_mag: np.ndarray, z: np.ndarray, log_z: np.ndarray, p: tuple, j: np.ndarray) -> np.ndarray:
    """exp(log_mag) z^p[k] j[k] in row k, fused in log space so that no factor overflows on its own.

    z^p comes from pow wherever z^p j stays a normal number: folded into the
    exponent it would cost eps |p log z| (8e-15 of the envelope of D_l at
    l = 7.5, z ~ 1000).  Only entries whose z^p j underflows (large l) fold it.
    Each z^p[k] is its own scalar-exponent pow, numpy's fast paths (1/z, sqrt z) included.
    """
    with np.errstate(under="ignore"):
        zj = np.array([z**pk for pk in p]) * j
    direct = np.abs(zj) >= np.finfo(float).tiny
    signed = np.where(direct, zj, j)
    mag = np.abs(signed)
    lg = np.full_like(mag, -np.inf)
    np.log(mag, out=lg, where=mag > 0.0)
    return np.sign(signed) * np.exp(log_mag + np.where(direct, 0.0, np.multiply.outer(p, log_z)) + lg)


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
        rows += [[(-1.0) ** m * c for m, c in enumerate(a[i::2])] for i in (0, 1)]
    out = np.array(rows).T[:, :, None]
    out.flags.writeable = False  # cached: every caller shares it
    return out


def _jpair_hankel(phi: float, n0: int, z: np.ndarray) -> tuple:
    # (0, J_{phi+n0-1}(z), J_{phi+n0}(z)) for z >= _HANKEL_Z: J_phi and J_{phi+1}
    # from Hankel's expansion, then the three-term recurrence, forward while
    # phi + n0 < z/2, where it is stable.  cos and sin of z - (alpha/2 + 1/4) pi
    # come from cos z and sin z by angle addition: forming the shifted argument
    # first would cost eps * z.
    pq = _horner(_hankel_coeffs(phi), 1.0 / (z * z))
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
    # 2 < z <= max(25, 2 nu): the rows f_k of _miller (a = phi; the pair's
    # orders lie below n0 + 1), divided by the Neumann sum of
    # _neumann_weights.  The sum runs row by row (np.add.accumulate), so every
    # column sees the same additions in the same order as it would alone; the
    # exact zeros above a column's start add nothing; rows below 2^950 keep
    # the weighted sum finite.
    f, s_max, shift, pair = _miller(phi, n0 + 1, z, min(n0, 1) - 1, 2.0, 250, n0)
    top = f.shape[0] - 3
    even = f[top // 2 * 2 + 1 : 0 : -2]  # f_{2k}, k from top // 2 down to 0
    weights = _neumann_weights(phi, s_max)[-even.shape[0] :]
    total = np.add.accumulate(weights * even, axis=0)[-1]
    log_scale = phi * np.log(0.5 * z) - shift * (700.0 * math.log(2.0))
    out = pair / total
    # J_nu < 1e-308: the pair and the sum hand their exponents (frexp: exact) to log_scale
    tiny = (np.abs(out) < np.finfo(float).tiny).any(axis=0)
    if tiny.any():
        m_total, e_total = np.frexp(total[tiny])
        e_pair = np.frexp(np.abs(pair[:, tiny]).max(axis=0))[1]
        out[:, tiny] = np.ldexp(pair[:, tiny], -e_pair) / m_total
        log_scale[tiny] += (e_pair - e_total) * math.log(2.0)
    return log_scale, out[0], out[1]


def _leading_scaled(l: float, z, name: str) -> np.ndarray:
    """S_l(z) and D_l(z) as the rows of one (2, n) array, z of at least one dimension.

    Up to z*, S_l = sum_k c_k w^k and D_l = sum_k (2k+l+1) c_k w^k, w = -z^2/4,
    by one long-double Horner pass to the degree of ``_series_coeffs``, rounded
    once (w = -0.0 at z = 0 leaves exactly 1 and l + 1).  Past z*, S_l from J_nu
    and D_l = t - l S_l with t from J_{nu-1}, as b_l'(z) = sqrt(z) J_{nu-1}(z) - l J_nu(z)/sqrt(z).
    """
    l = _check_l(l)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if (z_arr < 0).any() or not np.isfinite(z_arr).all():
        raise DomainError(f"{name} requires finite z >= 0")
    out = np.empty((2, z_arr.size))
    ser = _series_region(l, z_arr)
    if ser.any():
        out[:, ser] = _horner(_series_coeffs(l), np.square(z_arr[ser], dtype=np.longdouble) * -0.25)
    zr = z_arr[~ser]
    if zr.size:
        nu = l + 0.5
        n0, phi = int(nu), nu - int(nu)
        log_scale, j_lo, j_nu = pair = np.empty((3, zr.size))
        hankel = (zr >= _HANKEL_Z) & (zr > 2.0 * nu)
        for part, jpair in ((hankel, _jpair_hankel), (~hankel, _jpair_miller)):
            if part.any():
                log_scale[part], j_lo[part], j_nu[part] = jpair(phi, n0, zr[part])
        # S_l = e^base z^{-nu} J_nu and D_l + l S_l = e^base z^{1-nu} J_{nu-1}
        base = nu * math.log(2.0) + math.lgamma(l + 1.5) + log_scale
        sd = _power_fused(base, zr, np.log(zr), (-nu, 1.0 - nu), pair[:0:-1])
        sd[1] -= l * sd[0]
        out[:, ~ser] = sd
    return out


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
def _bn_sequence(l: float, size: int, dtype: np.dtype) -> tuple:
    # B_0 (unused), B_1 = 3(l+1)/(2l+3), then B_{k+1} = B_k r_k with
    # r_k = (4k+3)(2k-1)(l-k+1) / ((4k-1)(k+1)(2k+2l+3)), each step rounded in
    # ``dtype`` (float64 gets the bits of Python floats).  Each order adds a
    # few roundings: in float64 B_n is within 1e-15 of mpmath to n = 100 for
    # half-integer l and within 3e-14 to n = 400 for any l, where a log-gamma
    # sum carries eps * |log Gamma(n)|, ~1e-12 relative by n = 250.  Entries
    # do not depend on ``size``, so every size gives the same B_n.  For
    # integer l the reciprocal of Gamma(l-n+2) vanishes from n = l+2 on, and
    # those entries are +0.0.
    lt = dtype.type(l)
    seq = [0.0, 3 * (lt + 1) / (2 * lt + 3)]
    for k in range(1, size - 1):
        num = (4 * k + 3) * (2 * k - 1) * (lt - k + 1)
        den = (4 * k - 1) * (k + 1) * (2 * k + 2 * lt + 3)
        seq.append(seq[k] * num / den)
    if l.is_integer():
        seq[int(l) + 2 :] = [0.0] * len(seq[int(l) + 2 :])
    return tuple(seq)


def _bn_table(N: int, l: float, dtype=np.float64) -> tuple:
    """A cached sequence whose entry n = 1..N is B_n in ``dtype`` (entry 0 is unused).

    ``l`` must be checked.  A table build looks its orders up here once, not once per order.
    """
    return _bn_sequence(l, 1 << max(7, int(N).bit_length()), np.dtype(dtype))


def gamma_ratio_Bn(n: int, l: float) -> float:
    """Coupling constant B_n of the recurrent coefficient scheme.

    B_n = (4n-1) Gamma(l+2) Gamma(l+3/2) Gamma(n-1/2)
          / (2 sqrt(pi) Gamma(l-n+2) Gamma(n+1) Gamma(n+l+3/2)).

    Evaluated through the exact rational ratio B_{n+1}/B_n, so the sign
    of Gamma(l-n+2) for negative non-integer arguments comes out of the
    product.  For integer l the reciprocal of Gamma(l-n+2) makes B_n
    exactly zero for every n >= l+2.
    """
    if n < 1 or not float(n).is_integer():
        raise DomainError(f"n must be a positive integer, got {n}")
    l = _check_l(l)
    n = int(n)
    return float(_bn_table(n, l)[n])
