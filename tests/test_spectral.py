"""Eigenvalue search and decay fitting."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.special import jv

import pbessel.spectral as spectral
from pbessel import DomainError, UniformMesh
from pbessel.errors import InsufficientDataError
from pbessel.potentials import make_potential, potential_callable
from pbessel.shooting import shoot_eigenvalue_near
from pbessel.solution import build_solution, eval_u, eval_u_prime
from pbessel.spectral import (
    _REFINE_RTOL,
    BoundaryCondition,
    SpectralProblem,
    _itp_brackets,
    characteristic,
    decay_fit,
    find_eigenvalues,
)

import oracles

MESH = UniformMesh(np.pi, 20001)
DIRICHLET = BoundaryCondition("dirichlet")


def bisect_bessel_zeros(nu, count):
    """Zeros of J_nu by plain bisection on scipy's evaluator (independent path)."""
    zeros = []
    a = 1e-3
    step = 0.1
    f_prev = jv(nu, a)
    x = a
    while len(zeros) < count:
        x2 = x + step
        f2 = jv(nu, x2)
        if np.sign(f2) != np.sign(f_prev):
            lo, hi = x, x2
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if np.sign(jv(nu, mid)) == np.sign(jv(nu, lo)):
                    lo = mid
                else:
                    hi = mid
            zeros.append(0.5 * (lo + hi))
        x, f_prev = x2, f2
    return np.array(zeros)


@pytest.fixture(scope="module")
def sol_free_l0():
    return build_solution(make_potential("zero", UniformMesh(np.pi, 2001), 0.0), N=8)


@pytest.fixture(scope="module")
def sol_free_l32():
    return build_solution(make_potential("zero", UniformMesh(np.pi, 2001), 1.5), N=8)


@pytest.fixture(scope="module")
def sol_example1():
    return build_solution(make_potential("x^2", MESH, 1.5), N=100)


class TestCharacteristic:
    def test_unperturbed_l0_is_sine(self, sol_free_l0):
        # Phi(omega) = omega * sin(omega pi)/omega = sin(omega pi)
        for om in (0.5, 1.7, 3.3):
            assert characteristic(
                sol_free_l0, SpectralProblem(sol_free_l0.potential, DIRICHLET, (0.1, 5.0)), om
            ) == pytest.approx(np.sin(om * np.pi), abs=1e-12)

    def test_example1_bracket(self, sol_example1):
        prob = SpectralProblem(sol_example1.potential, DIRICHLET, (2.0, 3.0))
        lo = characteristic(sol_example1, prob, 2.4)
        hi = characteristic(sol_example1, prob, 2.5)
        assert np.sign(lo) != np.sign(hi)

    def test_robin_equals_separate_evaluations(self, sol_example1):
        H = 0.7
        prob = SpectralProblem(sol_example1.potential, BoundaryCondition("robin", H), (2.0, 51.2))
        om = np.linspace(2.0, 51.2, 97)
        b = sol_example1.b
        ref = om ** (sol_example1.l + 1.0) * (eval_u_prime(sol_example1, om, b) + H * eval_u(sol_example1, om, b))
        assert np.array_equal(characteristic(sol_example1, prob, om), ref)

    @pytest.mark.parametrize("bc", [DIRICHLET, BoundaryCondition("neumann"), BoundaryCondition("robin", 0.7)])
    def test_one_sweep_per_call(self, sol_example1, monkeypatch, bc):
        import pbessel.solution

        # a fresh copy: the shared fixture may hold another case's sweep at these omegas
        sol = dataclasses.replace(sol_example1)
        sweeps = []
        inner = pbessel.solution.spherical_j_sequence

        def counting(n_max, z):
            sweeps.append(np.size(z))
            return inner(n_max, z)

        monkeypatch.setattr(pbessel.solution, "spherical_j_sequence", counting)
        prob = SpectralProblem(sol.potential, bc, (2.0, 51.2))
        characteristic(sol, prob, np.linspace(2.0, 51.2, 33))
        assert sweeps == [33]

    def test_domain(self, sol_free_l0):
        prob = SpectralProblem(sol_free_l0.potential, DIRICHLET, (0.1, 5.0))
        with pytest.raises(DomainError):
            characteristic(sol_free_l0, prob, 0.0)
        with pytest.raises(DomainError):
            characteristic(sol_free_l0, prob, -1.0)


class TestFindEigenvalues:
    def test_unperturbed_l0_integers(self, sol_free_l0):
        prob = SpectralProblem(sol_free_l0.potential, DIRICHLET, (0.5, 10.5))
        pairs = find_eigenvalues(sol_free_l0, prob)
        assert [p.index for p in pairs] == list(range(1, 11))
        for k, p in enumerate(pairs, start=1):
            assert abs(p.omega - k) < 1e-12

    def test_unperturbed_l32_bessel_zeros(self, sol_free_l32):
        # Dirichlet eigenvalues are zeros of J_2 divided by pi
        prob = SpectralProblem(sol_free_l32.potential, DIRICHLET, (0.5, 11.0))
        pairs = find_eigenvalues(sol_free_l32, prob)
        ref = bisect_bessel_zeros(2.0, 10) / np.pi
        np.testing.assert_allclose(ref, np.array(oracles.J2_ZEROS) / np.pi, rtol=0, atol=1e-10)
        assert len(pairs) == 10
        for p, r in zip(pairs, ref):
            assert abs(p.omega - r) < 1e-10

    def test_empty_window(self, sol_free_l0):
        prob = SpectralProblem(sol_free_l0.potential, DIRICHLET, (0.1, 0.9))
        assert find_eigenvalues(sol_free_l0, prob) == []

    def test_exact_grid_zero_reported_once(self, sol_free_l0):
        # omega = 2.0 is a grid point where Phi = 2 sin(2 pi) rounds to exactly 0:
        # the one bracket it ends closes onto it
        prob = SpectralProblem(sol_free_l0.potential, DIRICHLET, (0.5, 10.5))
        pairs = find_eigenvalues(sol_free_l0, prob)
        near = [p for p in pairs if abs(p.omega - 2.0) < 0.5]
        assert len(near) == 1 and near[0].index == 2
        assert near[0].omega == 2.0 and near[0].char_residual == 0.0
        assert 0.0 <= near[0].refinement_width <= 1e-13 * near[0].omega

    def test_scan_robustness(self, sol_example1):
        prob1 = SpectralProblem(sol_example1.potential, DIRICHLET, (2.0, 11.0))
        prob2 = SpectralProblem(
            sol_example1.potential, DIRICHLET, (2.0, 11.0), scan_points=2 * prob1.effective_scan_points
        )
        p1 = find_eigenvalues(sol_example1, prob1)
        p2 = find_eigenvalues(sol_example1, prob2)
        assert len(p1) == len(p2)
        for a, b in zip(p1, p2):
            assert abs(a.omega - b.omega) <= max(a.refinement_width, b.refinement_width, 1e-13)

    def test_residual_scale(self, sol_example1):
        prob = SpectralProblem(sol_example1.potential, DIRICHLET, (2.0, 11.0))
        pairs = find_eigenvalues(sol_example1, prob)
        for p in pairs:
            delta = 0.05
            scale = max(
                abs(characteristic(sol_example1, prob, p.omega - delta)),
                abs(characteristic(sol_example1, prob, p.omega + delta)),
            )
            assert p.char_residual <= 1e-10 * scale

    def test_perturbation_monotonicity(self, sol_example1):
        # q = x^2 >= 0 shifts every Dirichlet eigenvalue above the q = 0 one
        prob = SpectralProblem(sol_example1.potential, DIRICHLET, (2.0, 11.0))
        pairs = find_eigenvalues(sol_example1, prob)
        free = bisect_bessel_zeros(2.0, len(pairs)) / np.pi
        for p, f in zip(pairs, free):
            assert p.omega > f

    def test_interlacing_dirichlet_neumann(self, sol_example1):
        d = find_eigenvalues(
            sol_example1, SpectralProblem(sol_example1.potential, DIRICHLET, (0.5, 11.0))
        )
        n = find_eigenvalues(
            sol_example1,
            SpectralProblem(sol_example1.potential, BoundaryCondition("neumann"), (0.5, 11.0)),
        )
        ds = [p.omega for p in d]
        ns = [p.omega for p in n]
        # every Dirichlet eigenvalue lies between consecutive Neumann ones
        for k in range(min(len(ds), len(ns) - 1)):
            assert ns[k] < ds[k] < ns[k + 1]

    def test_robin_between_dirichlet_neumann(self, sol_example1):
        r = find_eigenvalues(
            sol_example1,
            SpectralProblem(sol_example1.potential, BoundaryCondition("robin", H=1.0), (2.0, 4.0)),
        )
        assert len(r) >= 1
        for p in r:
            assert np.isfinite(p.omega)

    @pytest.mark.slow
    def test_first_fifty_against_shooting(self, sol_example1):
        prob = SpectralProblem(sol_example1.potential, DIRICHLET, (2.0, 51.0))
        pairs = find_eigenvalues(sol_example1, prob)
        assert len(pairs) == 50
        q = lambda x: np.asarray(x) ** 2
        idx = [0, 4, 14, 29, 49]  # spot-check a spread of indices
        for i in idx:
            ref = shoot_eigenvalue_near(q, 1.5, np.pi, pairs[i].omega)
            assert abs(pairs[i].omega - ref) < 1e-8


class TestUnderflowedStart:
    """l >= 45 from omega = 0: Phi = omega^{l+1} BC underflows to +-0 at the nudged start.

    A zero that carries the sign of BC brackets nothing, so no false root
    precedes the true ones and every index is the true spectral index.
    """

    @pytest.fixture(scope="class")
    def sol_l45(self):
        return build_solution(make_potential("zero", UniformMesh(np.pi, 2001), 45.0), N=30)

    def test_dirichlet_roots_are_bessel_zeros(self, sol_l45):
        pairs = find_eigenvalues(sol_l45, SpectralProblem(sol_l45.potential, DIRICHLET, (0.0, 20.0)))
        ref = bisect_bessel_zeros(45.5, 4) / np.pi  # zeros of J_{45.5}(omega pi)
        assert ref[2] < 20.0 < ref[3]
        assert [p.index for p in pairs] == [1, 2, 3]
        np.testing.assert_allclose([p.omega for p in pairs], ref[:3], rtol=1e-12, atol=0)

    def test_window_below_first_root_is_empty(self, sol_l45):
        assert find_eigenvalues(sol_l45, SpectralProblem(sol_l45.potential, DIRICHLET, (0.0, 10.0))) == []

    def test_neumann_no_root_near_zero(self):
        sol = build_solution(make_potential("zero", UniformMesh(np.pi, 2001), 60.5), N=30)
        prob = SpectralProblem(sol.potential, BoundaryCondition("neumann"), (0.0, 30.0))
        pairs = find_eigenvalues(sol, prob)
        assert pairs and pairs[0].index == 1
        assert all(p.omega >= 1.0 for p in pairs)


class TestExactConstantPotential:
    """q = 1 at l = 3/2 (and -1/2): exact eigenvalues from Bessel zeros, below shooting's floor."""

    @pytest.fixture(scope="class")
    def sol_const1(self):
        return build_solution(make_potential("const:1", MESH, 1.5), N=100)

    @pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
    def test_window_against_exact(self, sol_const1, kind):
        window = (2.0, 51.2)
        exact = np.array([w for w in oracles.const_c_eigenvalues(1.0, np.pi, kind, window[1])
                          if w >= window[0]])
        assert exact.size == 49
        # the lowest eigenvalue (Dirichlet 1.916) lies below the window, so
        # Eigenpair.index does not count from it: match the roots by value
        prob = SpectralProblem(sol_const1.potential, BoundaryCondition(kind), window)
        pairs = find_eigenvalues(sol_const1, prob)
        got = np.array([p.omega for p in pairs])
        nearest = np.abs(got[:, None] - exact[None, :]).argmin(axis=1)
        assert np.array_equal(nearest, np.arange(exact.size))  # one root per exact root
        err = np.abs(got - exact)
        # measured worst 1.96e-11 (Dirichlet) and 1.99e-11 (Neumann), set by table noise
        # (ROADMAP item 14); at the first root 5.3e-15 and 6.2e-15
        assert err.max() <= 5e-11
        assert err[0] <= 1e-13

    def test_l_minus_half_dirichlet_against_exact(self):
        # nu = 0: u = sqrt(x) J_0(k x), so k pi runs through the zeros of J_0.
        # Measured at m = 20001, N = 100: 9.2e-14 at worst, 6.9e-15 at the
        # first root; summing only to the residual plateau (N_opt = 10) left 8.8e-4
        window = (0.5, 30.0)
        sol = build_solution(make_potential("const:1", MESH, -0.5), N=100)
        exact = [w for w in oracles.const_c_eigenvalues(1.0, np.pi, "dirichlet", window[1], l=-0.5)
                 if w >= window[0]]
        pairs = find_eigenvalues(sol, SpectralProblem(sol.potential, DIRICHLET, window))
        assert [p.index for p in pairs] == list(range(1, len(exact) + 1))
        assert np.abs(np.array([p.omega for p in pairs]) - exact).max() <= 1e-12


@functools.lru_cache(maxsize=None)
def coulomb_roots(l, noise_free=False):
    """The Dirichlet roots of 1/x in (0.1, 51.2) at m = 20001, N = 100.

    ``noise_free`` swaps column b of the float64 tables for the library's
    own build in longdouble (``oracles.longdouble_recurrence``), cast to
    float64: the search then sees the algorithm's error without the
    rounding draw of the float64 build.
    """
    sol = build_solution(make_potential("1/x", MESH, l), N=100, columns=[] if noise_free else None)
    if noise_free:
        bl, gl = oracles.longdouble_recurrence("1/x", l, m=MESH.m, N=100)
        tables = dataclasses.replace(sol.tables, beta=bl.astype(float)[:, None], gamma=gl.astype(float)[:, None])
        sol = dataclasses.replace(sol, tables=tables)
    pairs = find_eigenvalues(sol, SpectralProblem(sol.potential, DIRICHLET, (0.1, 51.2)))
    # the window holds the first 50 (51 for l <= 0, whose 51st roots are 51.02 at l = 0
    # and below it at l = -1/2)
    assert [p.index for p in pairs] == list(range(1, 52 if l <= 0.0 else 51))
    return tuple(p.omega for p in pairs)


class TestExactCoulombPotential:
    """q = 1/x: exact Dirichlet eigenvalues from mpmath's Coulomb F_l, below shooting's floor."""

    @pytest.mark.parametrize(
        "l,k,measured",
        [
            (-0.5, 1, 3.1e-15), (-0.5, 10, 8.9e-15), (-0.5, 25, 1.1e-14), (-0.5, 50, 7.1e-15),
            (0.0, 1, 4.0e-15), (0.0, 10, 3.4e-14), (0.0, 25, 9.2e-14), (0.0, 50, 1.8e-13),
            (0.5, 1, 1.3e-15), (0.5, 10, 8.9e-15), (0.5, 50, 5.6e-13),
            (1.0, 1, 2.9e-15), (1.0, 10, 8.7e-14), (1.0, 50, 2.2e-12),
            (1.5, 1, 2.2e-16), (1.5, 10, 1.1e-13), (1.5, 50, 9.4e-12),
        ],
    )
    def test_root_against_exact(self, l, k, measured):
        got = coulomb_roots(l)[k - 1]
        err = abs(got - oracles.coulomb_dirichlet(l, 1.0, math.pi, got))
        # margin: 10x the error measured at m = 20001, N = 100 (at least 1e-14).
        # l = -1/2 read 2.5e-9 ... 1.7e-8 with the former log kernel.  l = 1,
        # k = 10 is one rounding draw: its pin was 3.6e-15 on the draw 3.6e-15
        # (8 re-rolls of u0 by (1 + s_k 2^-52), s_k = (-1)^floor((k + j) phi),
        # j = 1..8: 1.8e-15 ... 2.7e-14) and is 8.7e-14 on the draw 8.7e-14
        # (re-rolls 6.4e-14 ... 9.6e-14); test_root_against_exact_noise_free
        # holds that root at 0.0
        assert err <= 10.0 * max(measured, 1e-15), err

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18,
        reason="longdouble is no wider than float64 here, so the twin would be the float64 build",
    )
    @pytest.mark.parametrize("k", [1, 10, 25, 50])
    @pytest.mark.parametrize("l", [0.5, 1.0])
    def test_root_against_exact_noise_free(self, l, k):
        # the twin of test_root_against_exact on tables whose column b is the
        # longdouble build, cast: it bounds the algorithm, not one rounding draw
        # of the float64 build (which moves these roots by up to 2.9e-12).
        # Measured (x86-64, 80-bit longdouble): 0.0 at every root but l = 1,
        # k = 50, which reads 7.1e-15 (3.6e-15 at k = 25 and 2.1e-14 at k = 50
        # with the former power kernel)
        got = coulomb_roots(l, noise_free=True)[k - 1]
        err = abs(got - oracles.coulomb_dirichlet(l, 1.0, math.pi, got))
        assert err <= 5e-14, err


class TestPiecewiseConstantPotential:
    """q4 (0, then 1 past pi/2) and s0 (1, then 2): exact Dirichlet eigenvalues by matching."""

    def test_oracle_reproduces_constant_potential(self):
        # c_left = c_right: the matched solution is sqrt(x) J_2(k x) on all of [0, pi]
        exact = oracles.const_c_eigenvalues(1.0, math.pi, "dirichlet", 20.0)
        got = [oracles.piecewise_const_dirichlet(1.5, 1.0, 1.0, math.pi / 2, math.pi, w - 0.25, w + 0.25)
               for w in exact]
        assert np.max(np.abs(np.array(got) - exact)) <= 1e-13

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 18: the jump at pi/2 sits on a panel boundary (m = 20001), where "
        "the stored left limit makes the next panel integrate a one-node step; today q4 is "
        "1.1e-5 / 2.0e-6 / 8.2e-7 off at k = 1 / 5 / 15 and s0 9.3e-6 / 2.0e-6 / 8.2e-7",
    )
    @pytest.mark.parametrize("name,c_left,c_right", [("q4", 0.0, 1.0), ("s0", 1.0, 2.0)])
    def test_roots_against_exact(self, name, c_left, c_right):
        sol = build_solution(make_potential(name, MESH, 1.0), N=100)
        pairs = find_eigenvalues(sol, SpectralProblem(sol.potential, DIRICHLET, (0.1, 20.0)))
        assert [p.index for p in pairs[:15]] == list(range(1, 16))
        for k in (1, 5, 15):
            got = pairs[k - 1].omega
            exact = oracles.piecewise_const_dirichlet(
                1.0, c_left, c_right, math.pi / 2, math.pi, got - 0.25, got + 0.25
            )
            assert abs(got - exact) <= 1e-11, (k, got - exact)


class TestSqrtEndpointPotential:
    """q2 = sqrt(pi^2 - x^2): a square-root endpoint singularity at x = b."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 25: the panel quintics cannot follow q ~ sqrt(2 pi (pi - x)) at b, "
        "so roots converge at O(h^{5/2}); at m = 20001 they are 8.4e-11 / 1.5e-8 / 1.8e-7 / "
        "5.4e-7 off shooting at k = 1 / 10 / 30 / 48",
    )
    def test_roots_against_shooting(self):
        sol = build_solution(make_potential("q2", MESH, 1.5), N=100)
        pairs = find_eigenvalues(sol, SpectralProblem(sol.potential, DIRICHLET, (0.1, 50.0)))
        assert [p.index for p in pairs[:48]] == list(range(1, 49))
        q, _ = potential_callable("q2")
        for k in (1, 10, 30, 48):
            got = pairs[k - 1].omega
            assert abs(got - shoot_eigenvalue_near(q, 1.5, np.pi, got)) <= 1e-10, k


class CountingPhi:
    """Wraps a bulk function of omega and counts its calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(np.asarray(x, dtype=float))


def itp_round_bound(a, b):
    """ceil(log2(w0 / 2 eps)) + 1: the ITP minmax round count, eps half the target width."""
    eps = 0.5 * _REFINE_RTOL * max(a, 1.0)
    return math.ceil(math.log2((b - a) / (2.0 * eps))) + 1


def refine(f, a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    phi = CountingPhi(f)
    out = _itp_brackets(phi, a, b, f(a), f(b))
    return out, phi.calls


class TestItpRefinement:
    ROOTS = np.array([0.37, 2.3, 7.123456789, 25.5, 50.0])
    LOWER = ROOTS - np.array([0.03, 0.011, 0.049, 0.02, 0.0123])
    WIDTH = 0.05

    def test_noisy_step_keeps_minmax_bound(self):
        # regula falsi is useless on a step; the projection must still give
        # bisection speed plus one round, and never lose the sign change
        roots = self.ROOTS
        step = lambda x: (-1.0) ** np.searchsorted(roots, x) * (1.0 + 0.5 * np.sin(1e9 * x))
        for r, lo in zip(roots, self.LOWER):
            (a, b, fa, fb), calls = refine(step, [lo], [lo + self.WIDTH])
            assert calls <= itp_round_bound(lo, lo + self.WIDTH)
            assert a[0] <= r <= b[0] and fa[0] * fb[0] < 0
            assert b[0] - a[0] <= _REFINE_RTOL * max(b[0], 1.0)
        # all brackets at once: one call per round covers every open bracket
        (a, b, _, _), calls = refine(step, self.LOWER, self.LOWER + self.WIDTH)
        assert calls <= max(itp_round_bound(lo, lo + self.WIDTH) for lo in self.LOWER)
        assert np.all((a <= roots) & (roots <= b))

    def test_linear_is_superlinear(self):
        # regula falsi hits the root, the truncation step moves each probe
        # off it by a margin shrinking quadratically: 8-9 rounds where
        # bisection needs 34-39
        for r, lo in zip(self.ROOTS, self.LOWER):
            f = lambda x, r=r: 3.0 * (x - r)
            (a, b, _, _), calls = refine(f, [lo], [lo + self.WIDTH])
            assert calls <= 9
            assert a[0] <= r <= b[0]
            assert b[0] - a[0] <= _REFINE_RTOL * max(b[0], 1.0)

    def test_exact_zero_collapses_bracket(self):
        (a, b, fa, fb), calls = refine(lambda x: x - 1.5, [1.0], [2.0])
        assert calls == 1
        assert a[0] == b[0] == 1.5 and fa[0] == fb[0] == 0.0

    def test_table1_matches_plain_bisection(self, sol_example1):
        prob = SpectralProblem(sol_example1.potential, DIRICHLET, (2.0, 51.2))
        pairs = find_eigenvalues(sol_example1, prob)
        got = np.array([pairs[i].omega for i in (0, 4, 14, 29, 49)])
        phi = lambda om: characteristic(sol_example1, prob, om)
        a, b = got - 1e-3, got + 1e-3
        fa = phi(a)
        assert np.all(np.sign(fa) != np.sign(phi(b)))
        for _ in range(60):  # down to adjacent floats
            mid = 0.5 * (a + b)
            left = np.sign(phi(mid)) == np.sign(fa)
            a, b = np.where(left, mid, a), np.where(left, b, mid)
        ref = 0.5 * (a + b)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)

    def test_table1_characteristic_calls(self, sol_example1, monkeypatch):
        calls = []
        inner = spectral.characteristic

        def counting(sol, prob, omega):
            calls.append(np.size(omega))
            return inner(sol, prob, omega)

        monkeypatch.setattr(spectral, "characteristic", counting)
        prob = SpectralProblem(sol_example1.potential, DIRICHLET, (2.0, 51.2))
        pairs = find_eigenvalues(sol_example1, prob)
        assert len(pairs) == 50
        assert len(calls) <= 15  # scan + ITP rounds + one residual call
        assert calls[0] == prob.effective_scan_points and calls[-1] == 50


class TestScanDensity:
    def test_grid_unchanged_up_to_five_pi(self):
        for b in (np.pi, 5 * np.pi):
            p = make_potential("zero", UniformMesh(b, 501), 0.0)
            for window in ((2.0, 51.2), (0.5, 3.0), (0.1, 0.9)):
                prob = SpectralProblem(p, DIRICHLET, window)
                lo, hi = window
                assert prob.effective_scan_points == max(64, math.ceil(20.0 * (hi - lo)) + 1)

    def test_long_interval_finds_every_eigenvalue(self):
        # spacing pi/b = 0.026 is below the fixed 1/20 step: that grid found 31 of 95
        b = 120.0
        sol = build_solution(make_potential("zero", UniformMesh(b, 20001), 0.0), N=8)
        pairs = find_eigenvalues(sol, SpectralProblem(sol.potential, DIRICHLET, (0.5, 3.0)))
        k = np.arange(math.ceil(0.5 * b / np.pi), math.floor(3.0 * b / np.pi) + 1)
        assert k.size == 95
        assert len(pairs) == 95
        np.testing.assert_allclose([p.omega for p in pairs], k * np.pi / b, rtol=1e-12, atol=0)


class TestDecayFit:
    def test_exact_power_law(self):
        n = np.arange(5, 80)
        r = decay_fit(n.astype(float) ** -6.0, 5)
        assert r == pytest.approx(-6.0, abs=1e-6)

    def test_floor_exclusion(self):
        n = np.arange(10, 101).astype(float)
        vals = n**-6.0 + 1e-14
        r = decay_fit(vals, 10)
        assert abs(r - (-6.0)) <= 0.2

    def test_insufficient_after_floor(self):
        vals = np.full(30, 1e-14)
        vals[:3] = [1e-6, 1e-8, 1e-10]
        with pytest.raises(InsufficientDataError):
            decay_fit(vals, 10)

    def test_all_zero(self):
        with pytest.raises(InsufficientDataError):
            decay_fit(np.zeros(20), 10)

    def test_too_short(self):
        with pytest.raises(DomainError):
            decay_fit(np.ones(5), 10)
