"""Independent arbitrary-precision oracles for test expectations.

Everything here is computed from defining series or textbook formulas in
mpmath, independent of the library code paths under test.  Expensive
values are frozen as module constants; the generating functions stay
next to them so any constant can be recomputed on demand.  The one
exception, ``extended_direct_reference``, is the library's own
extended-precision direct route, cached so the several tests that compare
against it build each reference once per session.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
import numpy as np

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


@lru_cache(maxsize=None)
def extended_direct_reference(l: float) -> tuple[np.ndarray, np.ndarray]:
    """beta_n(pi), gamma_n(pi), n = 0..8, for q = x^2: the reference of criterion 03.

    The longdouble direct formulas on m = 80001 and 160001, Richardson-
    extrapolated over that mesh doubling (their discretization error
    converges ~2nd order at the top of the range).  The arrays are
    read-only, since every caller shares them.
    """
    from pbessel import UniformMesh, direct_coefficients_extended, make_potential

    refs = {}
    for m in (80001, 160001):
        refs[m] = direct_coefficients_extended(make_potential("x^2", UniformMesh(np.pi, m), l), 8)
    bd = refs[160001][0] + (refs[160001][0] - refs[80001][0]) / 3.0
    gd = refs[160001][1] + (refs[160001][1] - refs[80001][1]) / 3.0
    bd.flags.writeable = gd.flags.writeable = False
    return bd, gd
