#!/usr/bin/env python3
"""Coefficient families beta_n, gamma_n and their decay.

The recurrent integration scheme produces hundreds of coefficients
stably; the direct Fourier-Legendre formulas lose a digit per order in
fixed precision and serve as an independent cross-check for small n.
"""
import numpy as np

from pbessel import UniformMesh, build_u0, make_potential
from pbessel.coefficients import (
    beta_direct,
    beta_recurrent,
    build_coefficient_tables,
    gamma_recurrent,
)
from pbessel.spectral import decay_fit
from pbessel.spps import build_phi_family

mesh = UniformMesh(np.pi, 20001)

# --- dual routes agree ------------------------------------------------------
p = make_potential("x^2", mesh, 1.5)
u0 = build_u0(p)
betas, aux = beta_recurrent(u0, p, 6)
fam = build_phi_family(u0, 6)
print("recurrent vs direct beta_n(pi):")
for n in range(7):
    br, bd = betas[n][-1], beta_direct(fam, n, np.pi)
    print(f"  n = {n}: {br:+.12e}  vs  {bd:+.12e}")

# --- decay rate depends on l ------------------------------------------------
# non-integer l: |beta_n| ~ n^{-(2l+3)}; integer l: much faster decay
print("\nfitted decay exponents of |beta_n(pi)| over n in [10, 100]:")
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
