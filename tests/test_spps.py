"""Particular solution u0 and the recursive integral families."""

import math

import numpy as np
import pytest

from pbessel import ConvergenceError, NonVanishingError, UniformMesh, spps
from pbessel.mesh import _cumulative_values
from pbessel.potentials import make_potential
from pbessel.shooting import shoot_solution
from pbessel.spps import Potential, _picard_sweep, build_u0

import oracles

MESH = UniformMesh(np.pi, 20001)


@pytest.fixture(scope="module")
def u0_xsq():
    return build_u0(make_potential("x^2", MESH, 1.5))


@pytest.fixture(scope="module")
def u0_coulomb():
    return build_u0(make_potential("1/x", MESH, 1.0))


class TestPotential:
    def test_Q_starts_at_zero(self):
        p = make_potential("x^2", MESH, 1.5)
        assert p.Q.values[0] == 0.0
        # Q = x^3/3 for q = x^2
        assert np.max(np.abs(p.Q.values - MESH.x**3 / 3)) < 1e-12

    def test_singular_origin_flagged(self):
        p = make_potential("1/x", MESH, 1.0)
        assert p.origin_singular
        assert p.q.values[0] == 0.0
        assert p.xq_limit == 1.0

    def test_l_domain(self):
        with pytest.raises(Exception):
            make_potential("zero", MESH, -0.7)


class TestBuildU0:
    def test_unperturbed_exact(self):
        mesh = UniformMesh(np.pi, 101)
        for l in (0.0, 0.5, 1.5, 3.0):
            sol = build_u0(make_potential("zero", mesh, l))
            assert sol.iterations == 1
            assert np.array_equal(sol.u0.values, mesh.x ** (l + 1.0))
            expected_prime = (l + 1.0) * mesh.x**l
            if l > 0:
                expected_prime[0] = 0.0
            assert np.array_equal(sol.u0_prime.values, expected_prime)

    def test_xsq_against_series_oracle(self, u0_xsq):
        # endpoint values frozen from the independent power-series oracle
        assert abs(u0_xsq.u0.at_end - oracles.U0_XSQ_PI) < 1e-11 * oracles.U0_XSQ_PI
        assert (
            abs(u0_xsq.u0_prime.at_end - oracles.U0_XSQ_PI_PRIME)
            < 1e-11 * oracles.U0_XSQ_PI_PRIME
        )

    def test_xsq_against_shooting(self, u0_xsq):
        # q = x^2, l = 3/2: relative 1e-9 agreement with the ODE oracle on [0.1, pi]
        idx = np.linspace(0, MESH.m - 1, 40, dtype=int)
        idx = idx[MESH.x[idx] >= 0.1]
        xs = MESH.x[idx]
        u_ref, up_ref = shoot_solution(lambda x: np.asarray(x) ** 2, 1.5, 0.0, xs)
        assert np.max(np.abs(u0_xsq.u0.values[idx] / u_ref - 1.0)) < 1e-9
        assert np.max(np.abs(u0_xsq.u0_prime.values[idx] / up_ref - 1.0)) < 1e-9

    def test_coulomb_finite_positive(self, u0_coulomb):
        assert np.all(u0_coulomb.u0.values[1:] > 0.0)
        assert np.all(np.isfinite(u0_coulomb.u0.values))

    def test_coulomb_origin_asymptotics(self, u0_coulomb):
        # u0/x^2 -> 1 within 1% near the origin (hydrogen-atom case)
        x = MESH.x[1:6]
        ratio = u0_coulomb.u0.values[1:6] / x**2
        assert np.max(np.abs(ratio - 1.0)) < 0.01

    def test_coulomb_against_series_oracle(self, u0_coulomb):
        assert abs(u0_coulomb.u0.at_end - oracles.U0_COULOMB_PI) < 1e-10 * oracles.U0_COULOMB_PI
        assert (
            abs(u0_coulomb.u0_prime.at_end - oracles.U0_COULOMB_PI_PRIME)
            < 1e-10 * oracles.U0_COULOMB_PI_PRIME
        )

    def test_asymptotics_invariant(self, u0_xsq):
        # u0/x^{l+1} -> 1 and u0'/((l+1)x^l) -> 1 at the first nonzero points
        l = 1.5
        x = MESH.x[1:6]
        assert np.max(np.abs(u0_xsq.u0.values[1:6] / x ** (l + 1) - 1.0)) < 0.01
        assert np.max(np.abs(u0_xsq.u0_prime.values[1:6] / ((l + 1) * x**l) - 1.0)) < 0.01

    def test_ode_residual(self, u0_xsq, u0_coulomb):
        assert u0_xsq.residual < 1e-6
        assert u0_coulomb.residual < 1e-6

    def test_l_half_integer_boundary(self):
        # l = -1/2 takes the log-kernel branch; check against shooting
        mesh = UniformMesh(np.pi, 5001)
        sol = build_u0(make_potential("x^2", mesh, -0.5))
        idx = np.linspace(0, mesh.m - 1, 12, dtype=int)
        idx = idx[mesh.x[idx] >= 0.2]
        u_ref, up_ref = shoot_solution(lambda x: np.asarray(x) ** 2, -0.5, 0.0, mesh.x[idx])
        assert np.max(np.abs(sol.u0.values[idx] / u_ref - 1.0)) < 1e-8
        assert np.max(np.abs(sol.u0_prime.values[idx] / up_ref - 1.0)) < 1e-8

    def test_picard_monotone_for_nonnegative_q(self):
        # q >= 0: successive iterates nondecreasing pointwise
        mesh = UniformMesh(np.pi, 501)
        p = make_potential("x^2", mesh, 1.0)
        sq = mesh.x * p.q.values
        sq[0] = p.xq_limit
        s_pow = mesh.x ** (2 * p.l + 1.0)
        w = np.ones(mesh.m)
        for _ in range(6):
            w_new, _, _ = _picard_sweep(w, sq, s_pow, 2 * p.l + 1.0, mesh.h)
            # the s^{2l+4} integrand is degree 6, so its first-panel quadrature
            # error divided by x^{2l+1} leaves an O(h^4) wiggle at the first
            # few points; beyond that the exact-arithmetic monotonicity shows
            assert np.all(w_new >= w - 10 * mesh.h**4)
            assert np.all(w_new[10:] >= w[10:] - 1e-13)
            w = w_new

    def test_nonvanishing_violation(self):
        # q = -10, l = 0: u0 = sin(sqrt(10) x)/sqrt(10) crosses zero before pi
        mesh = UniformMesh(np.pi, 501)
        p = make_potential("const:-10", mesh, 0.0)
        with pytest.raises(NonVanishingError):
            build_u0(p)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 17: at large l, u0 near the origin dips (x^2, "
        "m=20001: w(h) = 0.849 at l=10.5) and turns non-positive from l=12.5 "
        "on, a false NonVanishingError; the likely cause is the first quintic "
        "panel of B = cum(s^{2l+2} q w), divided by x^{2l+1}",
    )
    def test_large_l_u0_near_origin(self):
        # q = x^2 > 0 keeps u0 positive on (0, b], and w = u0/x^{l+1} = 1 + O(x^4)
        mesh = UniformMesh(np.pi, 20001)
        u0 = build_u0(make_potential("x^2", mesh, 10.5))
        w_h = u0.u0.values[1] / mesh.x[1] ** 11.5
        assert abs(w_h - 1.0) <= 1e-12
        build_u0(make_potential("x^2", mesh, 12.5))

    @pytest.mark.parametrize(
        "l",
        [
            0.0,
            1.0,
            pytest.param(
                -0.5,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="ROADMAP item 17: the l = -1/2 log kernel integrates log(s) (s q w) "
                    "with s q -> 1 at the origin, which the panel quintics cannot follow there: "
                    "u0 is 4.7e-3 / 5.9e-4 / 1.6e-4 off at m = 2001 / 20001 / 80001, where "
                    "oracles.u0_by_parts reads 2.4e-15 / 2.8e-15 / 5.1e-15",
                ),
            ),
        ],
    )
    def test_coulomb_against_exact(self, l):
        # q = 1/x, omega = 0: u0 = Gamma(2l+2) sqrt(x) I_{2l+1}(2 sqrt(x)).
        # Measured at m = 2001 / 20001 / 80001, max relative error on (0, pi]:
        # l = 0 2.6e-15 / 4.7e-15 / 6.2e-15, l = 1 2.9e-14 / 2.7e-15 / 4.0e-15
        mesh = UniformMesh(np.pi, 2001)
        u0 = build_u0(make_potential("1/x", mesh, l)).u0.values[1:]
        exact = oracles.u0_coulomb_exact(mesh.x[1:], l)
        assert np.max(np.abs(u0 / exact - 1.0)) <= 1e-12

    def test_convergence_error(self, monkeypatch):
        mesh = UniformMesh(np.pi, 501)
        p = make_potential("x^2", mesh, 1.0)
        monkeypatch.setattr(spps, "_PICARD_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError):
            build_u0(p)


def plain_picard(p):
    """u0, u0', sweeps and residual of ``build_u0`` for l > -1/2, transcribed out of place.

    One temporary per term, as ``plain_recurrence`` does for the tables: the
    Picard sweep, its stopping rule, the u0' epilogue and the ODE defect in
    the same products, sums and order as the library, so a rewrite of any of
    them (in place, fused, reordered) that moves a bit of u0 fails here.
    """
    mesh = p.mesh
    x, h, l = mesh.x, mesh.h, p.l
    sq = x * p.q.values
    sq[0] = p.xq_limit
    lt = np.float64(l)
    two_l_p1 = 2 * lt + 1
    s_pow = x ** (2.0 * l + 1.0)
    w, prev_delta = np.ones_like(x), np.inf
    for sweeps in range(1, spps._PICARD_MAX_SWEEPS + 1):
        gA = sq * w
        A = _cumulative_values(gA, h)
        B = _cumulative_values(gA * s_pow, h)
        ratio = np.zeros_like(B)
        np.divide(B, s_pow, out=ratio, where=s_pow > 0.0)
        w_new = 1.0 + (A - ratio) / two_l_p1
        delta = float(np.max(np.abs(w_new - w)))
        w = w_new
        scale = max(1.0, float(np.max(np.abs(w))))
        stalled = delta < 1e-12 * scale and delta >= 0.5 * prev_delta
        if delta < spps._PICARD_TOL * scale or stalled:
            break
        prev_delta = delta
    else:
        raise AssertionError("no fixed point")
    xl1 = x ** (l + 1.0)
    u0v = xl1 * w
    with np.errstate(divide="ignore", invalid="ignore"):
        xl = x**l
        b_over = np.zeros_like(B)
        np.divide(B, xl1, out=b_over, where=x > 0.0)
        u0pv = (lt + 1) * xl * (1 + A / two_l_p1) + lt * b_over / two_l_p1
    u0pv[0] = 1.0 if l == 0.0 else 0.0
    i = np.arange(max(2, mesh.m // 400), mesh.m - 2)
    upp = (-u0v[i - 2] + 16 * u0v[i - 1] - 30 * u0v[i] + 16 * u0v[i + 1] - u0v[i + 2]) / (
        12.0 * h * h
    )
    rhs = (l * (l + 1) / x[i] ** 2 + p.q.values[i]) * u0v[i]
    residual = float(np.max(np.abs(upp - rhs) / (1.0 + np.abs(upp))))
    return u0v, u0pv, sweeps, residual


@pytest.mark.parametrize("name,l", [("x^2", 1.5), ("1/x", 1.0), ("const:1", 2.5)])
def test_u0_matches_plain_transcription_bit_for_bit(name, l):
    p = make_potential(name, UniformMesh(np.pi, 2001), l)
    sol = build_u0(p)
    u0v, u0pv, sweeps, residual = plain_picard(p)
    assert sol.u0.values.tobytes() == u0v.tobytes()
    assert sol.u0_prime.values.tobytes() == u0pv.tobytes()
    assert (sol.iterations, sol.residual) == (sweeps, residual)


def phi_family(u0, N):
    """Xt^(0..2N) from the kernel and phi_k = (-1)^k (2k)! u0 Xt^(2k), k = 0..N."""
    u0v = u0.u0.values
    xt = oracles.xtilde_chain(u0v, u0.mesh.h, N)
    phi = [(-1.0) ** k * float(math.factorial(2 * k)) * u0v * xt[2 * k] for k in range(N + 1)]
    return xt, phi


class TestPhiFamily:
    def test_base_cases(self, u0_xsq):
        xt, phi = phi_family(u0_xsq, 2)
        assert np.all(xt[0] == 1.0)
        assert np.array_equal(phi[0], u0_xsq.u0.values)

    def test_unperturbed_closed_forms(self):
        # q = 0, l = 0: u0 = x, Xt1 = x^3/3, Xt2 = -x^2/6, phi1 = x^3/3
        mesh = UniformMesh(np.pi, 5001)
        sol = build_u0(make_potential("zero", mesh, 0.0))
        xt, phi = phi_family(sol, 1)
        x = mesh.x
        assert np.max(np.abs(xt[1] - x**3 / 3)) < 1e-9
        assert np.max(np.abs(xt[2] + x**2 / 6)) < 1e-9
        assert np.max(np.abs(phi[1] - x**3 / 3)) < 1e-9

    def test_phi1_against_quadrature_oracle(self, u0_xsq):
        # frozen from the arbitrary-precision series + quadrature oracle
        _, phi = phi_family(u0_xsq, 1)
        got = phi[1][-1]
        assert abs(got - oracles.PHI1_XSQ_PI) < 1e-8 * abs(oracles.PHI1_XSQ_PI)

    def test_growth_orders(self, u0_xsq):
        # |Xt^(2n)(x)| <= C x^{2n}: log-log slope over the first decade >= 2n - 0.2
        xt, _ = phi_family(u0_xsq, 3)
        for n in (1, 2, 3):
            vals = np.abs(xt[2 * n])
            i = np.arange(40, 400, 20)  # first decade-ish of usable points
            good = vals[i] > 0
            slope = np.polyfit(np.log(MESH.x[i][good]), np.log(vals[i][good]), 1)[0]
            assert slope >= 2 * n - 0.2

    def test_phi_growth_spot_check(self, u0_xsq):
        # |phi_k(x)| <= C_k x^{2k+l+1} near the origin (10th mesh point)
        _, phi = phi_family(u0_xsq, 2)
        l = 1.5
        x10 = MESH.x[10]
        for k in (1, 2):
            bound = 10.0 * abs(phi[k][-1]) / MESH.b ** (2 * k + l + 1)
            assert abs(phi[k][10]) <= bound * x10 ** (2 * k + l + 1) * 10
