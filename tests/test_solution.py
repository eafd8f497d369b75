"""Truncated solution evaluation: omega = 0 identities, oracles, uniformity."""

import dataclasses
import functools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbessel import DomainError, UniformMesh
from pbessel.mesh import _cumulative_values
from pbessel.potentials import make_potential
from pbessel.shooting import shoot_solution
from pbessel.solution import (
    _coeff_values_at,
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


def small_solution(l=1.5):
    return build_solution(make_potential("x^2", UniformMesh(np.pi, 2001), l), N=30)


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


@pytest.fixture
def lookups(monkeypatch):
    """The x of each table lookup evaluation runs, one entry per lookup."""
    import pbessel.solution

    xs = []
    inner = pbessel.solution._coeff_values_at

    def counting(sol, x, *families):
        xs.append(x.tolist())
        return inner(sol, x, *families)

    monkeypatch.setattr(pbessel.solution, "_coeff_values_at", counting)
    return xs


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
        idx, w = _quintic_weights(MESH, x)
        assert idx.min() == 0 and idx.max() == MESH.m - 1
        for k, xv in enumerate(x):
            j_ref, w_ref = quintic_weights_loop(MESH, float(xv))
            assert np.array_equal(idx[k], j_ref + np.arange(6))
            assert np.array_equal(w[k], w_ref)

    def test_node_reads_its_column_alone(self):
        # within 1e-12 b of a node, x reads that node's index six times, with one-hot weights
        nodes = np.array([0, 1, 2, MESH.m // 2, MESH.m - 2, MESH.m - 1])
        x = np.concatenate([MESH.x[nodes], MESH.x[nodes[1:-1]] + 5e-13 * MESH.b])
        idx, w = _quintic_weights(MESH, x)
        assert np.array_equal(idx, np.repeat(np.concatenate([nodes, nodes[1:-1]]), 6).reshape(-1, 6))
        assert np.array_equal(w, np.broadcast_to([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], w.shape))

    @pytest.mark.parametrize("kept", ["full", "subset"])
    def test_lookup_on_nodes_equals_table_column(self, kept):
        mesh = UniformMesh(np.pi, 2001)
        nodes = np.array([0, 1, 2, mesh.m // 2, mesh.m - 2, mesh.m - 1])
        p = make_potential("x^2", mesh, 1.5)
        columns = None if kept == "full" else strip_columns(mesh, mesh.x[nodes])
        sol = build_solution(p, N=30, columns=columns)
        t = sol.tables
        cols = nodes if t.columns is None else np.searchsorted(t.columns, nodes)
        if t.columns is not None:
            assert np.array_equal(t.columns, nodes)  # one column per node
        beta, gamma, Q = _coeff_values_at(sol, mesh.x[nodes], t.beta, t.gamma, p.Q.values)
        assert beta.tobytes() == t.beta[:, cols].tobytes()
        assert gamma.tobytes() == t.gamma[:, cols].tobytes()
        assert Q.tobytes() == p.Q.values[nodes].tobytes()

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
        assert sub.tables.N == full.tables.N
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
        # a node is its own column; x = b is no longer added (the build adds it)
        assert np.array_equal(strip_columns(mesh, mesh.b), [mesh.m - 1])
        assert strip_columns(mesh, []).size == 0
        assert np.array_equal(strip_columns(mesh, [0.0, mesh.x[100]]), [0, 100])
        # off a node, the strip near 0 is clamped to the first six columns; two x share one strip
        cols = strip_columns(mesh, [mesh.h / 3, mesh.x[100], mesh.x[100] + mesh.h / 4])
        assert np.array_equal(cols, [0, 1, 2, 3, 4, 5, 97, 98, 99, 100, 101, 102])
        nodes = np.arange(0, mesh.m, 7)
        assert np.array_equal(strip_columns(mesh, mesh.x[nodes]), nodes)  # one column per node
        with pytest.raises(DomainError):
            strip_columns(mesh, [4.0])
        with pytest.raises(DomainError, match="1-D"):
            strip_columns(mesh, [[0.5, 1.0]])  # once numpy's broadcast ValueError


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
        u_ref, _ = shoot_solution(lambda x: np.asarray(x) ** 2, 1.5, 10.0, [np.pi])
        # a smaller N builds the same leading rows, bit for bit
        errs = [abs(eval_u(build_solution(p, N=n), 10.0, np.pi) - u_ref[0])
                for n in (10, 16, 22)]
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
        small, big = (build_solution(sol_xsq.potential, N=n) for n in (3, 30))
        assert error_indicator(small, np.pi)[0] > error_indicator(big, np.pi)[0]


@pytest.fixture(scope="session")
def smooth_csv(tmp_path_factory):
    """The spec of q = 2 + cos x as csv: samples on the Lagrange test's mesh, written once."""
    mesh = UniformMesh(np.pi, 2001)
    path = tmp_path_factory.mktemp("lagrange") / "q.csv"
    path.write_text("".join(f"{x:.17g},{2.0 + np.cos(x):.17g}\n" for x in mesh.x))
    return f"csv:{path}"


@functools.lru_cache(maxsize=8)
def lagrange_solution(spec, l):
    return build_solution(make_potential(spec, UniformMesh(np.pi, 2001), l), N=100)


class TestLagrangeIdentity:
    """(w1^2 - w2^2) int_0^b u1 u2 dx = u1(b) u2'(b) - u1'(b) u2(b): a check with no oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.one_of(
            st.sampled_from(["x^2", "1/x", "zero", "csv"]),
            st.floats(0.0, 4.0).map(lambda c: f"const:{c!r}"),
        ),
        # 2l + 2 is an integer, so u1 u2 ~ x^{2l+2} is smooth for the panel rule
        l=st.sampled_from([k / 2 for k in range(-1, 7)]),
        w1=st.floats(0.5, 40.0),
        w2=st.floats(0.5, 40.0),
    )
    def test_identity_holds(self, smooth_csv, spec, l, w1, w2):
        sol = lagrange_solution(smooth_csv if spec == "csv" else spec, l)
        mesh = sol.mesh
        omega = np.array([w1, w2])
        u, _ = _series(sol, omega, mesh.x, du=False)  # every node, every table row
        prod = u[:, 0] * u[:, 1]
        integral, size = (_cumulative_values(f, mesh.h)[-1] for f in (prod, np.abs(prod)))
        du = eval_u_prime(sol, omega, mesh.b)
        terms = (u[-1, 0] * du[1], du[0] * u[-1, 1])
        dw2 = w1 * w1 - w2 * w2
        # scaled by both sides' sizes: where u1(b) and u2(b) both vanish
        # (q = 0, l = 0 at integer omegas) the right side alone is ~1e-16
        scale = abs(terms[0]) + abs(terms[1]) + abs(dw2) * size
        # measured (m = 2001, N = 100): worst 1.0e-9 over the corners of the
        # omega range on every family and l, 2.6e-10 over ~1200 random pairs;
        # the csv: samples of 2 + cos x 1.8e-10 over 17 pairs at every l.  1/x
        # at l = -1/2 reads 6.2e-12 over pairs from {0.5, 1, 20, 40} (1.5e-7
        # with the former log kernel, whose u0 was O(h) off)
        assert abs(dw2 * integral - (terms[0] - terms[1])) <= 1e-8 * scale


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

    def test_omega_two_axes(self):
        # a 2-D omega was once accepted, and its sweep entry, keyed by the
        # bytes of z alone, then gave the next 1-D call of the same values
        # the 2-D shape
        from pbessel.spectral import BoundaryCondition, SpectralProblem, characteristic

        sol = build_solution(make_potential("x^2", UniformMesh(np.pi, 2001), 1.5), N=20)
        om = np.array([1.0, 2.0, 3.0, 4.0])
        prob = SpectralProblem(sol.potential, BoundaryCondition("dirichlet"), (0.5, 5.0))
        for call in (lambda w: eval_u(sol, w, 1.0), lambda w: eval_u_prime(sol, w, 1.0),
                     lambda w: characteristic(sol, prob, w), lambda w: _series(sol, w, [1.0, 2.0])):
            with pytest.raises(DomainError, match="1-D"):
                call(om.reshape(2, 2))
        assert eval_u(sol, om, 1.0).shape == (4,)
        assert eval_u_prime(sol, om, 1.0).shape == (4,)


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
        # result bit for bit, on every branch (the series up to z*, Miller's
        # J pair below 25 and Hankel's expansion above), at l = 3/2 and at an
        # integer l
        from pbessel.special import _series_region, bl_prime_scaled, bl_scaled

        omega = np.concatenate([self.OMEGA, [20.0, 20.5, 40.0]])
        for l in (1.5, 2.0):
            sol = small_solution(l)
            eval_u(sol, omega, self.X)
            (held,) = sol._last_sweep.values()
            key, _, s, d = held
            z = np.frombuffer(key)
            series = _series_region(l, z)
            assert series.sum() >= 3 and (~series & (z < 25.0)).sum() >= 2 and (z > 25.0).sum() >= 2
            assert s.ravel().tobytes() == bl_scaled(l, z).tobytes()
            assert d.ravel().tobytes() == bl_prime_scaled(l, z).tobytes()

    @pytest.mark.parametrize("change", ["omega", "x", "N"])
    def test_new_point_new_sweep(self, sweeps, change):
        sol = small_solution()
        eval_u(sol, self.OMEGA, self.X)
        omega, x, other = self.OMEGA, self.X, sol
        if change == "omega":
            omega = self.OMEGA + 0.25
        elif change == "x":
            x = np.nextafter(self.X, 2.0)
        else:
            other = build_solution(sol.potential, N=20)
        got = eval_u_prime(other, omega, x)
        assert len(sweeps) == 2
        fresh = small_solution()
        if change == "N":
            fresh = build_solution(fresh.potential, N=20)
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

        def row(s, x):
            return eval_u(s, self.OMEGA, x), eval_u_prime(s, self.OMEGA, x), error_indicator(s, x)

        serial = [row(ref, x) for x in xs]
        sol = small_solution()
        got = [None] * xs.size
        start = threading.Barrier(2)

        def run(first):
            start.wait()
            for k in range(first, xs.size, 2):
                got[k] = row(sol, xs[k])

        threads = [threading.Thread(target=run, args=(first,)) for first in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in range(xs.size):
            assert got[k][0].tobytes() == serial[k][0].tobytes()
            assert got[k][1].tobytes() == serial[k][1].tobytes()
            assert got[k][2] == serial[k][2]


class TestHeldStrips:
    """u, u' and the error indicator at one x read the tables once, with the bits of three reads."""

    OMEGA = TestSharedSweep.OMEGA
    X = TestSharedSweep.X

    def row(self, sol, x):
        return eval_u(sol, self.OMEGA, x), eval_u_prime(sol, self.OMEGA, x), error_indicator(sol, x)

    def test_one_lookup_per_row(self, lookups):
        sol = small_solution()
        got = self.row(sol, self.X)
        assert lookups == [[self.X]]
        # threads share the held arrays, so nothing may write to them
        (held,) = sol._last_strips.values()
        assert held[0] == np.array([self.X]).tobytes()
        assert not any(a.flags.writeable for a in held[1:])
        # each call on a solution of its own reads the tables itself
        fresh = (eval_u(small_solution(), self.OMEGA, self.X),
                 eval_u_prime(small_solution(), self.OMEGA, self.X),
                 error_indicator(small_solution(), self.X))
        assert got[0].tobytes() == fresh[0].tobytes()
        assert got[1].tobytes() == fresh[1].tobytes()
        assert got[2] == fresh[2]

    def test_new_x_reads_again(self, lookups):
        sol = small_solution()
        self.row(sol, self.X)
        nxt = np.nextafter(self.X, 2.0)
        got = self.row(sol, nxt)
        assert lookups == [[self.X], [nxt]]
        ref = self.row(small_solution(), nxt)
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
        assert got[2] == ref[2]

    def test_replace_copy_reads_again(self, lookups):
        sol = small_solution()
        eval_u(sol, self.OMEGA, self.X)
        copy = dataclasses.replace(sol)
        assert not copy._last_strips
        got = eval_u(copy, self.OMEGA, self.X)
        assert len(lookups) == 2
        assert got.tobytes() == eval_u(sol, self.OMEGA, self.X).tobytes()

    def test_x_vector_leaves_the_entry(self, lookups):
        sol = small_solution()
        eval_u(sol, self.OMEGA, self.X)
        held = sol._last_strips["x"]
        _series(sol, self.OMEGA, [self.X, 2.5])
        assert sol._last_strips["x"] is held
        eval_u_prime(sol, self.OMEGA, self.X)
        assert lookups == [[self.X], [self.X, 2.5]]

    @pytest.mark.parametrize("kind", ["dirichlet", "robin"])
    def test_search_reads_once(self, lookups, kind):
        from pbessel.spectral import BoundaryCondition, SpectralProblem, find_eigenvalues

        sol = small_solution()
        bc = BoundaryCondition(kind, H=0.5 if kind == "robin" else 0.0)
        roots = find_eigenvalues(sol, SpectralProblem(sol.potential, bc, (0.5, 12.0)))
        assert len(roots) >= 3
        assert lookups == [[sol.b]]
