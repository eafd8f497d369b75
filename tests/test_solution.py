"""Truncated solution evaluation: omega = 0 identities, oracles, uniformity."""

import dataclasses
import threading

import numpy as np
import pytest

from pbessel import DomainError, UniformMesh
from pbessel.potentials import make_potential
from pbessel.shooting import shoot_solution
from pbessel.solution import (
    _quintic_weights,
    _series,
    build_solution,
    error_indicator,
    eval_u,
    eval_u_prime,
    strip_columns,
)

MESH = UniformMesh(np.pi, 20001)


@pytest.fixture(scope="module")
def sol_xsq():
    return build_solution(make_potential("x^2", MESH, 1.5), N=100)


@pytest.fixture(scope="module")
def sol_free():
    # q = 0, l = 0: u = sin(omega x)/omega exactly
    return build_solution(make_potential("zero", UniformMesh(np.pi, 2001), 0.0), N=10)


def small_solution():
    return build_solution(make_potential("x^2", UniformMesh(np.pi, 2001), 1.5), N=30)


@pytest.fixture
def sweeps(monkeypatch):
    """Sizes of the Bessel sweeps evaluation runs, one entry per sweep."""
    import pbessel.solution

    sizes = []
    inner = pbessel.solution.spherical_j_sequence

    def counting(n_max, z):
        sizes.append(np.size(z))
        return inner(n_max, z)

    monkeypatch.setattr(pbessel.solution, "spherical_j_sequence", counting)
    return sizes


class TestOmegaZero:
    def test_u_reduces_to_u0(self, sol_xsq):
        idx = np.linspace(1, MESH.m - 1, 29, dtype=int)
        for i in idx:
            x = MESH.x[i]
            got = eval_u(sol_xsq, 0.0, x)
            ref = sol_xsq.u0.u0.values[i]
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-30)

    def test_u_prime_reduces_to_u0_prime(self, sol_xsq):
        idx = np.linspace(1, MESH.m - 1, 29, dtype=int)
        for i in idx:
            x = MESH.x[i]
            got = eval_u_prime(sol_xsq, 0.0, x)
            ref = sol_xsq.u0.u0_prime.values[i]
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-30)

    def test_origin_value(self, sol_xsq):
        assert eval_u(sol_xsq, 0.0, 0.0) == 0.0
        assert eval_u(sol_xsq, 5.0, 0.0) == 0.0


class TestUnperturbedClosedForm:
    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("x", [1.0, np.pi])
    def test_u_is_sin(self, sol_free, omega, x):
        assert eval_u(sol_free, omega, x) == pytest.approx(
            np.sin(omega * x) / omega, abs=1e-13
        )

    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("x", [1.0, np.pi])
    def test_u_prime_is_cos(self, sol_free, omega, x):
        assert eval_u_prime(sol_free, omega, x) == pytest.approx(
            np.cos(omega * x), abs=1e-12
        )

    def test_wronskian_consistency(self, sol_free):
        # q = 0: eval_u_prime equals the analytic derivative of eval_u
        for omega in (0.7, 3.3):
            for x in (0.5, 2.0):
                assert abs(eval_u_prime(sol_free, omega, x) - np.cos(omega * x)) < 1e-10

    def test_off_mesh_interpolation(self, sol_free):
        # x between nodes: quintic interpolation of the tables
        x = 1.2345678  # generic off-mesh point
        omega = 2.0
        assert eval_u(sol_free, omega, x) == pytest.approx(np.sin(omega * x) / omega, abs=1e-11)


def quintic_weights_loop(mesh, x):
    """The per-node Lagrange loop the vectorized weights must reproduce."""
    h = mesh.h
    j0 = min(max(int(round(x / h)) - 3, 0), mesh.m - 6)
    t = x / h - j0
    nodes = np.arange(6, dtype=float)
    w = np.empty(6)
    for j in range(6):
        others = nodes[nodes != j]
        w[j] = np.prod((t - others) / (j - others))
    return j0, w


class TestLookup:
    def test_quintic_weights_bit_identical_to_loop(self):
        rng = np.random.default_rng(11)
        h = MESH.h
        # both clamped ends (j0 = 0 and j0 = m - 6) plus the interior
        x = np.concatenate([rng.uniform(0, 2.4 * h, 50), MESH.b - rng.uniform(0, 2.4 * h, 50),
                            rng.uniform(0, MESH.b, 900)])
        j0, w = _quintic_weights(MESH, x)
        assert j0.min() == 0 and j0.max() == MESH.m - 6
        for k, xv in enumerate(x):
            j_ref, w_ref = quintic_weights_loop(MESH, float(xv))
            assert j0[k] == j_ref
            assert np.array_equal(w[k], w_ref)

    def test_series_on_x_vector_equals_per_x_calls(self, sol_xsq):
        rng = np.random.default_rng(4)
        omega = np.sort(rng.uniform(0.0, 40.0, 17))
        on_mesh = MESH.x[[0, 1, 2, 777, 10000, MESH.m - 2, MESH.m - 1]]
        x = np.concatenate([on_mesh, rng.uniform(0.0, MESH.b, 9), [MESH.h / 3, MESH.b - MESH.h / 3]])
        u, du = _series(sol_xsq, omega, x)
        assert u.shape == du.shape == (x.size, omega.size)
        for k, xv in enumerate(x):
            assert np.array_equal(u[k], eval_u(sol_xsq, omega, float(xv)))
            assert np.array_equal(du[k], eval_u_prime(sol_xsq, omega, float(xv)))
        assert eval_u(sol_xsq, float(omega[5]), float(x[9])) == u[9, 5]
        assert _series(sol_xsq, omega, x, du=False)[1] is None
        assert _series(sol_xsq, omega, x, u=False)[0] is None


class TestColumnSubset:
    """Tables that keep only some strips evaluate there exactly as full ones."""

    @pytest.mark.parametrize("spec,l", [("x^2", 1.5), ("x^2", -0.5), ("1/x", 1.0), ("const:1", 2.5)])
    def test_kept_x_bitwise_equal_to_full(self, spec, l):
        mesh = UniformMesh(np.pi, 2001)
        p = make_potential(spec, mesh, l)
        full = build_solution(p, N=60)
        xs = [0.3, 1.0, mesh.x[777], mesh.b - mesh.h / 3, mesh.b]
        sub = build_solution(p, N=60, columns=strip_columns(mesh, xs))
        assert sub.N_used == full.N_used
        omega = np.array([0.0, 0.7, 2.0, 9.5, 31.0])
        for x in xs:
            assert eval_u(sub, omega, x).tobytes() == eval_u(full, omega, x).tobytes()
            assert eval_u_prime(sub, omega, x).tobytes() == eval_u_prime(full, omega, x).tobytes()
            assert error_indicator(sub, x) == error_indicator(full, x)
        u_sub, du_sub = _series(sub, omega, xs)
        u_full, du_full = _series(full, omega, xs)
        assert u_sub.tobytes() == u_full.tobytes() and du_sub.tobytes() == du_full.tobytes()

    def test_unkept_x_raises(self):
        mesh = UniformMesh(np.pi, 2001)
        p = make_potential("x^2", mesh, 1.5)
        sol = build_solution(p, N=20, columns=strip_columns(mesh, [1.0, mesh.b]))
        eval_u(sol, 2.0, 1.0)
        # 2.0 is far from every kept strip; 1.0 + 3h shares only part of one
        for x in (2.0, 1.0 + 3 * mesh.h, 0.0):
            with pytest.raises(DomainError, match="strip"):
                eval_u(sol, 2.0, x)
            with pytest.raises(DomainError, match="strip"):
                eval_u_prime(sol, 2.0, x)
        with pytest.raises(DomainError, match="strip"):
            error_indicator(sol, 2.0)

    def test_strip_columns(self):
        mesh = UniformMesh(np.pi, 2001)
        assert np.array_equal(strip_columns(mesh, mesh.b), np.arange(mesh.m - 6, mesh.m))
        assert np.array_equal(strip_columns(mesh, []), [mesh.m - 1])
        # the strip at 0 is clamped to the first six columns; two x share one strip
        cols = strip_columns(mesh, [0.0, mesh.x[100], mesh.x[100] + mesh.h / 4])
        assert np.array_equal(cols, [0, 1, 2, 3, 4, 5, 97, 98, 99, 100, 101, 102, mesh.m - 1])
        with pytest.raises(DomainError):
            strip_columns(mesh, [4.0])


class TestAgainstShooting:
    def test_u_value(self, sol_xsq):
        u_ref, up_ref = shoot_solution(lambda x: np.asarray(x) ** 2, 1.5, 5.0, [np.pi])
        got = eval_u(sol_xsq, 5.0, np.pi)
        assert abs(got - u_ref[0]) <= 1e-7 * abs(u_ref[0])
        got_p = eval_u_prime(sol_xsq, 5.0, np.pi)
        assert abs(got_p - up_ref[0]) <= 1e-6 * abs(up_ref[0])

    def test_omega_vectorized(self, sol_xsq):
        oms = np.array([0.0, 1.0, 5.0, 20.0])
        vec = eval_u(sol_xsq, oms, np.pi)
        for k, om in enumerate(oms):
            assert vec[k] == pytest.approx(eval_u(sol_xsq, float(om), np.pi), rel=1e-14)

    def test_omega_uniformity(self, sol_xsq):
        # uniformity in omega: the error never grows with omega by more than
        # 1e2 over its small-omega level, and stays below 1e-6 throughout.
        # (Both error sources sit at deep floors here, ~1e-13; a two-sided
        # span would only measure which floor a given omega draws.)
        omegas = [1.0, 5.0, 10.0, 25.0, 50.0]
        q = lambda x: np.asarray(x) ** 2
        errs = []
        for om in omegas:
            u_ref, _ = shoot_solution(q, 1.5, om, [np.pi])
            errs.append(abs(eval_u(sol_xsq, om, np.pi) - u_ref[0]))
        errs = np.array(errs)
        assert errs.max() < 1e-6
        assert errs.max() / max(errs[0], 1e-16) < 1e2

    def test_exponential_convergence_in_N(self):
        # fixed (omega, x): error vs N falls faster than geometrically
        # until the floor
        p = make_potential("x^2", MESH, 1.5)
        sols = {n: None for n in (10, 16, 22)}
        from pbessel.solution import NsbfSolution

        full = build_solution(p, N=40)
        u_ref, _ = shoot_solution(lambda x: np.asarray(x) ** 2, 1.5, 10.0, [np.pi])
        errs = []
        for n in sols:
            trunc = NsbfSolution(
                potential=full.potential, u0=full.u0, tables=full.tables, N_used=n
            )
            errs.append(abs(eval_u(trunc, 10.0, np.pi) - u_ref[0]))
        # successive ratios shrink: super-geometric decay
        r1 = errs[1] / errs[0]
        r2 = errs[2] / errs[1]
        assert r1 < 0.5
        assert r2 < r1

    def test_ode_defect_of_evaluation(self, sol_xsq):
        # (-d2/dx2 + l(l+1)/x^2 + q - omega^2) eval_u ~ 0 on interior points
        omega = 3.0
        i = np.arange(60, MESH.m - 3, 500)
        h = MESH.h
        vals = {}
        for off in (-2, -1, 0, 1, 2):
            vals[off] = np.array([eval_u(sol_xsq, omega, MESH.x[j + off]) for j in i])
        upp = (-vals[-2] + 16 * vals[-1] - 30 * vals[0] + 16 * vals[1] - vals[2]) / (
            12 * h * h
        )
        x = MESH.x[i]
        lhs = -upp + (1.5 * 2.5 / x**2 + x**2 - omega**2) * vals[0]
        scale = np.abs(upp) + np.abs(vals[0]) + 1.0
        assert np.max(np.abs(lhs) / scale) < 1e-5


class TestErrorIndicator:
    def test_unperturbed_zero(self, sol_free):
        eb, eg = error_indicator(sol_free, np.pi)
        assert eb < 1e-14
        assert eg < 1e-14

    def test_floor_scale(self, sol_xsq):
        eb, _ = error_indicator(sol_xsq, np.pi)
        assert eb < 1e-7  # residual floor regime for Example 1 tables

    def test_monotone_in_N(self, sol_xsq):
        from pbessel.solution import NsbfSolution

        small = NsbfSolution(
            potential=sol_xsq.potential, u0=sol_xsq.u0, tables=sol_xsq.tables, N_used=3
        )
        big = NsbfSolution(
            potential=sol_xsq.potential, u0=sol_xsq.u0, tables=sol_xsq.tables, N_used=30
        )
        assert error_indicator(small, np.pi)[0] > error_indicator(big, np.pi)[0]


class TestDomain:
    def test_negative_omega(self, sol_free):
        with pytest.raises(DomainError):
            eval_u(sol_free, -1.0, 1.0)

    def test_x_outside(self, sol_free):
        with pytest.raises(DomainError):
            eval_u(sol_free, 1.0, 4.0)
        with pytest.raises(DomainError):
            eval_u_prime(sol_free, 1.0, -0.1)

    @pytest.mark.parametrize(
        "x", [np.array([1.0, 2.0]), np.array([[1.0]]), np.array([])], ids=["two-x", "2-d", "empty"]
    )
    def test_x_not_scalar(self, monkeypatch, x):
        # eval_u(sol, 2.0, [1.0, 2.0]) once returned u at x = 1 alone
        sol = small_solution()

        def no_work(*args):
            raise AssertionError("work done before the x check")

        monkeypatch.setattr("pbessel.solution._coeff_values_at", no_work)
        monkeypatch.setattr("pbessel.solution.spherical_j_sequence", no_work)
        for call in (lambda: eval_u(sol, 2.0, x), lambda: eval_u_prime(sol, 2.0, x),
                     lambda: error_indicator(sol, x)):
            with pytest.raises(DomainError, match="scalar"):
                call()

    def test_n_used_bounds(self, sol_free):
        from pbessel.solution import NsbfSolution

        with pytest.raises(DomainError):
            NsbfSolution(
                potential=sol_free.potential,
                u0=sol_free.u0,
                tables=sol_free.tables,
                N_used=99,
            )


class TestSharedSweep:
    """u and u' at one (omega, x) share one Bessel sweep, with the bits of two."""

    OMEGA = np.array([0.0, 0.7, 2.0, 9.5, 31.0, 55.5])
    X = 1.2345

    @pytest.mark.parametrize("u_first", [True, False], ids=["u-first", "du-first"])
    def test_one_sweep_for_both(self, sweeps, u_first):
        sol = small_solution()
        first, second = [eval_u, eval_u_prime] if u_first else [eval_u_prime, eval_u]
        got = {first: first(sol, self.OMEGA, self.X)}
        # threads share the held arrays, so nothing may write to them
        (held,) = sol._last_sweep.values()
        assert not any(a.flags.writeable for a in held[1:])
        got[second] = second(sol, self.OMEGA, self.X)
        assert sweeps == [self.OMEGA.size]
        assert not sol._last_sweep  # the pair used the entry up
        u, du = _series(sol, self.OMEGA, self.X)
        assert got[eval_u].tobytes() == u[0].tobytes()
        assert got[eval_u_prime].tobytes() == du[0].tobytes()
        assert got[eval_u].tobytes() == eval_u(small_solution(), self.OMEGA, self.X).tobytes()
        fresh_du = eval_u_prime(small_solution(), self.OMEGA, self.X)
        assert got[eval_u_prime].tobytes() == fresh_du.tobytes()
        assert eval_u(sol, 9.5, self.X) == u[0, 3]

    def test_entry_holds_the_leading_terms(self):
        # S_l and D_l come from one call; each equals its public function's
        # result bit for bit, on both sides of the Miller / Hankel split at 25
        from pbessel.special import bl_prime_scaled, bl_scaled

        sol = small_solution()
        omega = np.concatenate([self.OMEGA, [20.0, 20.5, 40.0]])
        eval_u(sol, omega, self.X)
        (held,) = sol._last_sweep.values()
        key, _, s, d = held
        z = np.frombuffer(key)
        assert z.max() > 25.0 > z[z > 0].min()
        assert s.ravel().tobytes() == bl_scaled(sol.l, z).tobytes()
        assert d.ravel().tobytes() == bl_prime_scaled(sol.l, z).tobytes()

    @pytest.mark.parametrize("change", ["omega", "x", "N_used"])
    def test_new_point_new_sweep(self, sweeps, change):
        sol = small_solution()
        eval_u(sol, self.OMEGA, self.X)
        omega, x, other = self.OMEGA, self.X, sol
        if change == "omega":
            omega = self.OMEGA + 0.25
        elif change == "x":
            x = np.nextafter(self.X, 2.0)
        else:
            other = dataclasses.replace(sol, N_used=20)
        got = eval_u_prime(other, omega, x)
        assert len(sweeps) == 2
        fresh = small_solution()
        if change == "N_used":
            fresh = dataclasses.replace(fresh, N_used=20)
        assert got.tobytes() == eval_u_prime(fresh, omega, x).tobytes()

    def test_x_vector_stores_no_entry(self, sweeps):
        sol = small_solution()
        _series(sol, self.OMEGA, [self.X, 2.5])
        assert not sol._last_sweep
        eval_u(sol, self.OMEGA, self.X)
        assert len(sweeps) == 2

    def test_threads_get_serial_results(self):
        xs = np.linspace(0.1, np.pi, 24)
        ref = small_solution()
        serial = [(eval_u(ref, self.OMEGA, x), eval_u_prime(ref, self.OMEGA, x)) for x in xs]
        sol = small_solution()
        got = [None] * xs.size
        start = threading.Barrier(2)

        def run(first):
            start.wait()
            for k in range(first, xs.size, 2):
                got[k] = (eval_u(sol, self.OMEGA, xs[k]), eval_u_prime(sol, self.OMEGA, xs[k]))

        threads = [threading.Thread(target=run, args=(first,)) for first in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in range(xs.size):
            assert got[k][0].tobytes() == serial[k][0].tobytes()
            assert got[k][1].tobytes() == serial[k][1].tobytes()
