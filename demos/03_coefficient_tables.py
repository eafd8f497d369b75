#!/usr/bin/env python3
"""Coefficient families beta_n, gamma_n and their decay.

The recurrent integration scheme produces hundreds of coefficients
stably; their decay rate in n depends on l, and the residual sum rule
picks the truncation order.
"""
import numpy as np

from pbessel import UniformMesh, build_u0, make_potential
from pbessel.coefficients import build_coefficient_tables
from pbessel.spectral import decay_fit

mesh = UniformMesh(np.pi, 20001)

# --- decay rate depends on l ------------------------------------------------
# non-integer l: |beta_n| ~ n^{-(2l+3)}; integer l: much faster decay
print("fitted decay exponents of |beta_n(pi)| over n in [10, 100]:")
for l in (0.5, 1.5, 2.5):
    pl = make_potential("x^2", mesh, l)
    t = build_coefficient_tables(build_u0(pl), pl, N=100)
    vals = np.abs(t.beta[:, -1])
    print(f"  l = {l}: r = {decay_fit(vals[10:101], 10):+.2f}   (theory -(2l+3) = {-(2 * l + 3):+.1f})")

pint = make_potential("x^2", mesh, 1.0)
tint = build_coefficient_tables(build_u0(pint), pint, N=40)
print(f"  l = 1 (integer): |beta_30(pi)| = {abs(tint.beta[30, -1]):.1e}  (super-polynomial decay)")

# --- truncation diagnostics ---------------------------------------------------
p = make_potential("x^2", mesh, 1.5)
t = build_coefficient_tables(build_u0(p), p, N=100)
print(f"\nresidual |sum beta_n(b)/b|: starts {t.beta_residual[0]:.2e}, ends {t.beta_residual[-1]:.2e}")
print(f"N_opt = {t.N_opt}, floors: beta {t.beta_floor:.2e}, gamma {t.gamma_floor:.2e}")
