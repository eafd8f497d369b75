"""Shooting reference solver and potential ingestion."""

import numpy as np
import pytest

from pbessel import UniformMesh
from pbessel.errors import ConfigError, ConvergenceError
from pbessel.potentials import BUILTIN_POTENTIAL_NAMES, make_potential
from pbessel.shooting import shoot_endpoint, shoot_eigenvalue_near, shoot_solution


class TestShooting:
    def test_free_particle_closed_form(self):
        # q = 0, l = 0: u = sin(omega x)/omega, u' = cos(omega x)
        q = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        for om in (1.0, 3.7):
            u, up = shoot_solution(q, 0.0, om, [0.8, 2.0, np.pi])
            for x, ui, upi in zip([0.8, 2.0, np.pi], u, up):
                assert ui == pytest.approx(np.sin(om * x) / om, abs=5e-12)
                assert upi == pytest.approx(np.cos(om * x), abs=5e-12)

    def test_unperturbed_l_general(self):
        # q = 0, general l: u = x^{l+1} at omega = 0
        q = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        u, up = shoot_solution(q, 1.5, 0.0, [1.0, 2.5])
        assert u[0] == pytest.approx(1.0, rel=1e-12)
        assert u[1] == pytest.approx(2.5**2.5, rel=1e-12)
        assert up[1] == pytest.approx(2.5 * 2.5**1.5, rel=1e-12)

    def test_eigenvalue_near_free(self):
        q = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        # sin(omega pi) = 0 -> omega = 3 near the guess 3.1
        assert shoot_eigenvalue_near(q, 0.0, np.pi, 3.1) == pytest.approx(3.0, abs=1e-11)

    def test_endpoint_pair(self):
        q = lambda x: np.asarray(x, dtype=float) ** 2
        u, up = shoot_endpoint(q, 1.5, 2.0, np.pi)
        assert np.isfinite(u) and np.isfinite(up)

    def test_no_bracket_error(self):
        q = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        with pytest.raises(ConvergenceError):
            # no Dirichlet eigenvalue within +-0.2+expansions of 0.35
            shoot_eigenvalue_near(q, 0.0, np.pi, 0.35, halfwidth=0.05)


class TestPotentials:
    def test_all_builtins_construct(self):
        mesh = UniformMesh(np.pi, 101)
        for name in BUILTIN_POTENTIAL_NAMES:
            p = make_potential(name, mesh, 1.0)
            assert np.isfinite(p.q.values).all()

    def test_const(self):
        mesh = UniformMesh(1.0, 11)
        p = make_potential("const:2.5", mesh, 0.0)
        assert np.all(p.q.values == 2.5)

    def test_unknown_name(self):
        mesh = UniformMesh(1.0, 11)
        with pytest.raises(ConfigError):
            make_potential("nope", mesh, 0.0)

    def test_csv_round_trip(self, tmp_path):
        mesh = UniformMesh(np.pi, 51)
        qv = np.sin(mesh.x) + 2.0
        path = tmp_path / "q.csv"
        lines = ["# x, q"] + [f"{x:.17g},{v:.17g}" for x, v in zip(mesh.x, qv)]
        path.write_text("\n".join(lines) + "\n")
        p = make_potential(f"csv:{path}", mesh, 1.0)
        np.testing.assert_allclose(p.q.values, qv, rtol=0, atol=0)

    def test_csv_mesh_mismatch(self, tmp_path):
        mesh = UniformMesh(np.pi, 51)
        path = tmp_path / "q.csv"
        rows = [f"{x + 0.01:.17g},1.0" for x in mesh.x]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConfigError):
            make_potential(f"csv:{path}", mesh, 1.0)

    def test_csv_wrong_length(self, tmp_path):
        mesh = UniformMesh(np.pi, 51)
        path = tmp_path / "q.csv"
        path.write_text("0.0,1.0\n0.1,1.0\n")
        with pytest.raises(ConfigError):
            make_potential(f"csv:{path}", mesh, 1.0)

    @pytest.mark.parametrize("bad_row", ["0.1,abc", "0.1,1.0,2.0"], ids=["non-numeric", "ragged"])
    def test_csv_malformed(self, tmp_path, bad_row):
        # np.loadtxt raises ValueError on both; make_potential must turn it into ConfigError
        mesh = UniformMesh(np.pi, 501)
        rows = [f"{x:.17g},1.0" for x in mesh.x]
        rows[7] = bad_row
        path = tmp_path / "q.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConfigError, match="malformed"):
            make_potential(f"csv:{path}", mesh, 1.0)

    def test_sqrt_domain(self):
        mesh = UniformMesh(4.0, 11)  # b > pi: sqrt(pi^2 - x^2) undefined
        with pytest.raises(Exception):
            make_potential("sqrt(pi^2-x^2)", mesh, 1.0)

    def test_piecewise_families(self):
        mesh = UniformMesh(np.pi, 101)
        q4 = make_potential("q4", mesh, 1.0)  # step at pi/2
        left = mesh.x <= np.pi / 2
        assert np.all(q4.q.values[left] == 0.0)
        assert np.all(q4.q.values[~left] == 1.0)
        s0 = make_potential("s0", mesh, 1.0)
        assert np.all(s0.q.values[left] == 1.0)
        assert np.all(s0.q.values[~left] == 2.0)
