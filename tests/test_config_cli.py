"""Configuration parsing, CLI commands, output determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbessel
from pbessel import cli
from pbessel.cli import main
from pbessel.config import _SECTIONS, RunConfig, config_sha256, emit_config, parse_config
from pbessel.errors import ConfigError

EX1 = """
[problem]
potential = x^2
l = 1.5
b = 3.141592653589793

[numerics]
mesh_points = 2001
N = 30

[spectral]
boundary = dirichlet
omega_min = 2.0
omega_max = 4.0
"""


# emit_config(RunConfig()): list values leave "key = " with its trailing blank
CANONICAL_DEFAULT = "".join(
    line + "\n"
    for line in (
        "[problem]", "potential = x^2", "l = 1.5", "b = 3.1415926535897931", "",
        "[numerics]", "mesh_points = 20001", "N = 100", "",
        "[spectral]", "boundary = dirichlet", "H = 0", "omega_min = 0", "omega_max = 10",
        "scan_points = 0", "",
        "[solve]", "omegas = ", "xs = ", "",
        "[sweep]", "l_values = ", "",
        "[output]", "directory = out", "oracle = false", "",
    )
)


class TestConfig:
    def test_round_trip(self):
        cfg = parse_config(EX1)
        assert parse_config(emit_config(cfg)) == cfg
        assert config_sha256(cfg) == config_sha256(parse_config(emit_config(cfg)))

    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert parse_config(emit_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(EX1 + "\nell = 2\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(EX1 + "\n[extras]\nfoo = 1\n")

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config("[problem]\nl = -3\n")
        with pytest.raises(ConfigError):
            parse_config("[spectral]\nomega_min = 5\nomega_max = 2\n")
        with pytest.raises(ConfigError):
            parse_config("[spectral]\nboundary = weird\n")

    def test_lists(self):
        cfg = parse_config("[solve]\nomegas = 1.0, 2.5\nxs = 0.5\n")
        assert cfg.omegas == (1.0, 2.5)
        assert cfg.xs == (0.5,)

    def test_overrides(self):
        cfg = RunConfig().with_overrides(mesh_points=101, N=5)
        assert cfg.mesh_points == 101
        assert cfg.N == 5

    def test_canonical_default(self):
        # every output file's provenance carries this hash: it must not drift
        assert config_sha256(RunConfig()) == (
            "c0efd5dbd67e72c210ce9fe03c3af3bc5e63c52b4b2497b2c2e382b4ff080ffb"
        )
        assert emit_config(RunConfig()) == CANONICAL_DEFAULT

    def test_every_key_parses_to_its_field(self):
        keys = [key for section in _SECTIONS.values() for key in section]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))
        text = """
[problem]
potential =  const:2.5
l = 0.25
b = 2.0

[numerics]
mesh_points = 501
N = 17

[spectral]
boundary = Robin
H = -0.5
omega_min = 1.5
omega_max = 7.0
scan_points = 300

[solve]
omegas = 0, 2.5
xs = 0.5, 2

[sweep]
l_values = -0.5, 3

[output]
directory = results
oracle = yes
"""
        assert parse_config(text) == RunConfig(
            potential="const:2.5",
            l=0.25,
            b=2.0,
            mesh_points=501,
            N=17,
            boundary="robin",
            H=-0.5,
            omega_min=1.5,
            omega_max=7.0,
            scan_points=300,
            omegas=(0.0, 2.5),
            xs=(0.5, 2.0),
            l_values=(-0.5, 3.0),
            directory="results",
            oracle=True,
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[problem]\nl = abc\n", "bad config value: could not convert string to float: 'abc'"),
            ("[numerics]\nN = 1.5\n", "bad config value: invalid literal for int() with base 10: '1.5'"),
            ("[output]\noracle = maybe\n", "bad boolean for oracle: 'maybe'"),
            ("[solve]\nomegas = 1, x\n", "bad omegas list '1, x'"),
            # reported in schema order, whatever the order of the file
            ("[output]\noracle = maybe\n[problem]\nl = x\n",
             "bad config value: could not convert string to float: 'x'"),
        ],
        ids=["float", "int", "bool", "float-list", "schema-order"],
    )
    def test_bad_value_messages(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[sweep]\nl_values = 0.5, nan\n", "sweep l = nan not finite"),
            ("[sweep]\nl_values = inf\n", "sweep l = inf not finite"),
            ("[solve]\nomegas = nan\n", "solve omega = nan not finite"),
            ("[solve]\nomegas = inf\n", "solve omega = inf not finite"),
        ],
        ids=["l-nan", "l-inf", "omega-nan", "omega-inf"],
    )
    def test_nonfinite_list_values(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message


def load_csv(path):
    """Read a library CSV: drop '#' provenance lines and the header row."""
    rows = [
        line for line in Path(path).read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return np.array([[float(v) for v in line.split(",")] for line in rows[1:]])


def run_cli(tmp_path, command, cfg_text, *extra):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(cfg_text)
    return main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out"), *extra])


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's pbessel."""
    import pbessel

    src = str(Path(pbessel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


class TestImport:
    def test_import_leaves_shooting_oracle_unloaded(self):
        code = (
            "import sys, pbessel\n"
            "print('scipy.integrate' in sys.modules, 'pbessel.shooting' in sys.modules)\n"
            "print('scipy.special' in sys.modules)\n"
            "print('fractions' in sys.modules, 'decimal' in sys.modules)\n"
            "from pbessel import shoot_solution\n"
            "print(shoot_solution is pbessel.shooting.shoot_solution)\n"
        )
        assert run_fresh(code) == ["False", "False", "False", "False", "False", "True"]

    def test_cli_never_loads_scipy_special(self, tmp_path):
        # J_nu of non-integer order comes from pbessel.special itself, so no
        # command and no evaluation, at any argument, loads scipy.special; nor
        # numpy.ma, which np.unique (and so np.union1d) imports on first use
        small = EX1 + "\n[solve]\nomegas = 0, 20, 600\nxs = 0.5, 3\n[sweep]\nl_values = 0.5, 1.5\n"
        neumann = EX1.replace("dirichlet", "neumann").replace("omega_max = 4.0", "omega_max = 12.0")
        (tmp_path / "small.cfg").write_text(small)
        (tmp_path / "neumann.cfg").write_text(neumann)
        code = (
            "import sys, numpy as np\n"
            "import pbessel\n"
            "from pbessel import build_solution, eval_u, eval_u_prime, make_potential, UniformMesh\n"
            "from pbessel.cli import main\n"
            "d = sys.argv[1]\n"
            "loaded = lambda: 'scipy.special' in sys.modules or 'numpy.ma' in sys.modules\n"
            "print(loaded())\n"
            "print(main(['eigen', '--out', d + '/e']), loaded())\n"
            "print(main(['eigen', '--config', d + '/neumann.cfg', '--out', d + '/n']), loaded())\n"
            "for cmd in ('solve', 'coeffs', 'decay-sweep'):\n"
            "    print(main([cmd, '--config', d + '/small.cfg', '--out', d + '/' + cmd]), loaded())\n"
            "sol = build_solution(make_potential('x^2', UniformMesh(np.pi, 2001), 1.5), N=30)\n"
            "omega = np.geomspace(0.5, 2000.0 / np.pi, 40)\n"
            "for x in np.linspace(0.0, np.pi, 7):\n"
            "    eval_u(sol, omega, x), eval_u_prime(sol, omega, x)\n"
            "print(float(omega[-1] * np.pi), loaded())\n"
        )
        assert run_fresh(code, str(tmp_path)) == [
            "False", "0", "False", "0", "False", "0", "False", "0", "False", "0", "False", "2000.0", "False"
        ]

    def test_all_lists_resolve(self):
        # a stale __all__ entry breaks star-imports, with no error at import time
        import importlib
        import pkgutil

        import pbessel

        checked = []
        for info in pkgutil.iter_modules(pbessel.__path__):
            if info.name.startswith("_"):
                continue  # __main__ runs the CLI when imported
            name = f"pbessel.{info.name}"
            mod = importlib.import_module(name)
            if not hasattr(mod, "__all__"):
                continue
            assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], name
            namespace = {}
            exec(f"from {name} import *", namespace)
            assert set(mod.__all__) <= set(namespace), name
            checked.append(info.name)
        assert {"coefficients", "mesh", "special", "spps"} <= set(checked)


class TestCli:
    def test_coeffs_zero_potential(self, tmp_path):
        cfg = EX1.replace("potential = x^2", "potential = zero")
        assert run_cli(tmp_path, "coeffs", cfg) == 0
        out = tmp_path / "out"
        data = load_csv(out / "coefficients.csv")
        # all coefficient columns ~ 0 for the unperturbed problem
        assert np.max(np.abs(data[:, 2:])) <= 1e-10
        fit = json.loads((out / "decay_fit.json").read_text())
        assert fit["beta_exponent"] is None  # everything at the floor
        assert (out / "beta_abs_loglog.dat").exists()
        assert (out / "residuals.csv").exists()

    def test_coeffs_decay_fit(self, tmp_path):
        cfg = EX1.replace("mesh_points = 2001", "mesh_points = 5001").replace("N = 30", "N = 100")
        assert run_cli(tmp_path, "coeffs", cfg) == 0
        fit = json.loads((tmp_path / "out" / "decay_fit.json").read_text())
        assert fit["beta_exponent"] == pytest.approx(-6.0, abs=0.5)

    def test_eigen_unperturbed(self, tmp_path):
        cfg = EX1.replace("potential = x^2", "potential = zero").replace(
            "l = 1.5", "l = 0.0"
        ).replace("omega_min = 2.0", "omega_min = 0.5").replace("omega_max = 4.0", "omega_max = 5.5")
        assert run_cli(tmp_path, "eigen", cfg) == 0
        data = load_csv(tmp_path / "out" / "eigenvalues.csv")
        np.testing.assert_allclose(data[:, 1], [1, 2, 3, 4, 5], atol=1e-11)

    def test_eigen_no_false_root_at_large_l(self, tmp_path):
        # l = 45 on the default window (0, 10): Phi underflows to +0 at the nudged
        # start, and the first eigenvalue lies near 16.68, so no row follows the header
        cfg = EX1.replace("potential = x^2", "potential = zero").replace(
            "l = 1.5", "l = 45"
        ).replace("omega_min = 2.0", "omega_min = 0.0").replace("omega_max = 4.0", "omega_max = 10.0")
        assert run_cli(tmp_path, "eigen", cfg) == 0
        text = (tmp_path / "out" / "eigenvalues.csv").read_text()
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        assert rows == ["index,omega,residual,bracket_width"]

    def test_eigen_with_oracle(self, tmp_path):
        assert run_cli(tmp_path, "eigen", EX1, "--oracle") == 0
        comp = load_csv(tmp_path / "out" / "eigenvalues_comparison.csv")
        assert comp.shape[1] == 4
        assert np.all(comp[:, 3] < 1e-6)  # coarse mesh, still sub-ppm

    def test_solve_outputs(self, tmp_path):
        cfg = EX1 + "\n[solve]\nomegas = 0.0, 2.0\nxs = 1.5707963267948966, 3.141592653589793\n"
        assert run_cli(tmp_path, "solve", cfg) == 0
        data = load_csv(tmp_path / "out" / "solution.csv")
        assert data.shape == (4, 6)
        # omega = 0 rows equal (u0, u0')
        from pbessel import UniformMesh
        from pbessel.potentials import make_potential
        from pbessel.spps import build_u0

        mesh = UniformMesh(np.pi, 2001)
        u0 = build_u0(make_potential("x^2", mesh, 1.5))
        i_mid, i_end = 1000, 2000
        assert data[0, 2] == pytest.approx(u0.u0.values[i_mid], rel=1e-10)
        assert data[1, 2] == pytest.approx(u0.u0.values[i_end], rel=1e-10)
        assert data[0, 3] == pytest.approx(u0.u0_prime.values[i_mid], rel=1e-10)

    def test_solve_grid_equals_per_point_evaluation(self, tmp_path):
        from pbessel import UniformMesh
        from pbessel.potentials import make_potential
        from pbessel.solution import build_solution, eval_u, eval_u_prime

        omegas, xs = (0.0, 0.7, 2.0, 9.5), (0.0, 0.3, 1.5707963267948966, 2.71, 3.141592653589793)
        cfg = EX1 + f"\n[solve]\nomegas = {', '.join(map(repr, omegas))}\nxs = {', '.join(map(repr, xs))}\n"
        assert run_cli(tmp_path, "solve", cfg) == 0
        data = load_csv(tmp_path / "out" / "solution.csv")
        sol = build_solution(make_potential("x^2", UniformMesh(np.pi, 2001), 1.5), N=30)
        ref = [(om, x, eval_u(sol, om, x), eval_u_prime(sol, om, x)) for om in omegas for x in xs]
        assert np.array_equal(data[:, :4], np.array(ref))

    def test_solve_requires_lists(self, tmp_path):
        assert run_cli(tmp_path, "solve", EX1) == 2

    def test_decay_sweep(self, tmp_path):
        cfg = EX1.replace("N = 30", "N = 40") + "\n[sweep]\nl_values = 0.5, 1.5\n"
        assert run_cli(tmp_path, "decay-sweep", cfg) == 0
        out = tmp_path / "out"
        assert (out / "beta_abs_loglog_l0.5.dat").exists()
        assert (out / "beta_abs_loglog_l1.5.dat").exists()
        exps = json.loads((out / "decay_exponents.json").read_text())
        assert set(exps) == {"0.5", "1.5"}

    def test_decay_sweep_matches_coeffs(self, tmp_path):
        cfg = EX1 + "\n[sweep]\nl_values = 0.5, 1.5\n"
        (tmp_path / "c").mkdir()
        (tmp_path / "s").mkdir()
        assert run_cli(tmp_path / "c", "coeffs", cfg) == 0
        assert run_cli(tmp_path / "s", "decay-sweep", cfg) == 0
        coeffs, sweep = tmp_path / "c" / "out", tmp_path / "s" / "out"

        def rows(path):
            return [line for line in path.read_text().splitlines() if not line.startswith("#")]

        for family in ("beta", "gamma"):
            expected = rows(coeffs / f"{family}_abs_loglog.dat")
            assert len(expected) == 30
            assert rows(sweep / f"{family}_abs_loglog_l1.5.dat") == expected
        fit = json.loads((coeffs / "decay_fit.json").read_text())
        exps = json.loads((sweep / "decay_exponents.json").read_text())
        assert fit["beta_exponent"] is not None and fit["gamma_exponent"] is not None
        assert exps["1.5"] == {k: fit[k] for k in ("beta_exponent", "gamma_exponent")}

    def test_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(EX1)
        for d in (d1, d2):
            assert main(["coeffs", "--config", str(cfg_file), "--out", str(d)]) == 0
        for name in ("coefficients.csv", "residuals.csv", "decay_fit.json", "beta_abs_loglog.dat"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_provenance_block(self, tmp_path):
        assert run_cli(tmp_path, "coeffs", EX1) == 0
        head = (tmp_path / "out" / "coefficients.csv").read_text().splitlines()[:8]
        text = "\n".join(head)
        assert "config_sha256" in text
        assert "mesh_m" in text
        assert "N_opt" in text

    def test_exit_code_config_error(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[problem]\nl = -2.0\n")
        assert main(["coeffs", "--config", str(cfg_file)]) == 2

    def test_exit_code_unknown_potential(self, tmp_path):
        assert run_cli(tmp_path, "coeffs", EX1.replace("x^2", "mystery")) == 2

    @pytest.mark.parametrize("bad_row", ["0.1,abc", "0.1,1.0,2.0"], ids=["non-numeric", "ragged"])
    def test_exit_code_malformed_csv(self, tmp_path, bad_row):
        x = np.linspace(0.0, np.pi, 501)
        rows = [f"{v:.17g},1.0" for v in x]
        rows[7] = bad_row
        path = tmp_path / "q.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = EX1.replace("potential = x^2", f"potential = csv:{path}").replace(
            "mesh_points = 2001", "mesh_points = 501"
        )
        assert run_cli(tmp_path, "coeffs", cfg) == 2

    @pytest.mark.parametrize("blocked", ["file", "under-file"])
    def test_exit_code_unwritable_out(self, tmp_path, capsys, blocked):
        # --out names an existing file, or a directory below one
        block = tmp_path / "taken"
        block.write_text("not a directory\n")
        out = block if blocked == "file" else block / "sub"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(EX1)
        assert main(["coeffs", "--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pbessel: configuration error: cannot write ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert block.read_text() == "not a directory\n"

    def test_unwritable_out_fails_before_build(self, tmp_path, monkeypatch):
        def no_build(cfg):
            raise AssertionError("tables built for an unusable --out")

        monkeypatch.setattr("pbessel.cli._pipeline", no_build)
        block = tmp_path / "taken"
        block.write_text("not a directory\n")
        assert main(["coeffs", "--out", str(block)]) == 2

    @pytest.mark.parametrize("l_values", ["0.5, inf", "0.5, nan"])
    def test_decay_sweep_nonfinite_l_writes_nothing(self, tmp_path, l_values):
        cfg = EX1 + f"\n[sweep]\nl_values = {l_values}\n"
        assert run_cli(tmp_path, "decay-sweep", cfg) == 2
        assert not (tmp_path / "out").exists()

    def test_exit_code_convergence(self, tmp_path):
        # strongly negative potential: u0 crosses zero -> refusal (exit 4)
        cfg = EX1.replace("potential = x^2", "potential = const:-10").replace("l = 1.5", "l = 0.0")
        assert run_cli(tmp_path, "coeffs", cfg) == 4

    def test_exit_code_numerical_breakdown(self, tmp_path):
        cfg = """
[problem]
potential = const:1
l = 0.5
b = 40.0

[numerics]
mesh_points = 101
N = 150
"""
        assert run_cli(tmp_path, "coeffs", cfg) == 3

    def test_emit_config_round_trip(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(EX1)
        assert main(["coeffs", "--config", str(cfg_file), "--emit-config"]) == 0
        emitted = capsys.readouterr().out
        assert parse_config(emitted) == parse_config(EX1)


#: Exit code and stderr label of every exported error class
ERROR_MAPPING = {
    "PerturbedBesselError": (3, "error"),
    "InsufficientDataError": (3, "error"),
    "ConfigError": (2, "configuration error"),
    "InvalidMeshError": (2, "configuration error"),
    "DomainError": (2, "configuration error"),
    "NumericalBreakdownError": (3, "numerical breakdown"),
    "EvaluationError": (3, "numerical breakdown"),
    "ConvergenceError": (4, "convergence failure"),
    "NonVanishingError": (4, "convergence failure"),
}


EXPORTED_ERRORS = sorted(
    name for name, obj in vars(pbessel).items()
    if isinstance(obj, type) and issubclass(obj, pbessel.PerturbedBesselError)
)


@pytest.mark.parametrize("name", EXPORTED_ERRORS)
def test_error_class_sets_exit_code_and_stderr_line(name, monkeypatch, capsys):
    cls = getattr(pbessel, name)
    code, label = ERROR_MAPPING[name]
    assert (cls.exit_code, cls.label) == (code, label)

    def fail(cfg):
        raise cls("boom: x=1")

    monkeypatch.setitem(cli._COMMANDS, "eigen", fail)
    assert main(["eigen"]) == code
    captured = capsys.readouterr()
    assert captured.err == f"pbessel: {label}: boom: x=1\n"
    assert captured.out == ""


#: EX1 with the solve and sweep lists, so every command runs on it
EX1_ALL = EX1 + """
[solve]
omegas = 0, 0.7, 2, 9.5
xs = 0, 0.3, 1.5707963267948966, 2.71, 3.141592653589793

[sweep]
l_values = -0.5, 1.5
"""


def build_every_column(p, N, columns):
    """The CLI's build on every mesh column, handed over as its ``columns`` subset and x = b."""
    from pbessel.solution import build_solution

    sol = build_solution(p, N)
    t = sol.tables
    columns = np.union1d(columns, [p.mesh.m - 1]).astype(int)
    kept = dataclasses.replace(t, beta=t.beta[:, columns], gamma=t.gamma[:, columns], columns=columns)
    return dataclasses.replace(sol, tables=kept)


class TestKeptColumns:
    """Each command builds only the table columns it reads, with unchanged output."""

    @pytest.mark.parametrize("command", ["eigen", "coeffs", "solve", "decay-sweep"])
    def test_outputs_equal_full_build(self, tmp_path, monkeypatch, command):
        kept, full = tmp_path / "kept", tmp_path / "full"
        kept.mkdir()
        full.mkdir()
        assert run_cli(kept, command, EX1_ALL) == 0
        monkeypatch.setattr("pbessel.cli.build_solution", build_every_column)
        assert run_cli(full, command, EX1_ALL) == 0
        names = sorted(f.name for f in (kept / "out").iterdir())
        assert names and names == sorted(f.name for f in (full / "out").iterdir())
        for name in names:
            assert (kept / "out" / name).read_bytes() == (full / "out" / name).read_bytes(), name

    @pytest.mark.parametrize("N", [30, 200])
    def test_eigen_keeps_one_strip(self, tmp_path, monkeypatch, N):
        # every characteristic evaluation is at the node x = b: one column
        built = spy_builds(monkeypatch)
        assert run_cli(tmp_path, "eigen", EX1, "--N", str(N)) == 0
        assert len(built) == 1 and built[0].N == N
        assert np.array_equal(built[0].columns, [2000])
        assert built[0].beta.shape == built[0].gamma.shape == (N + 1, 1)

    @pytest.mark.parametrize(
        "command,kept",
        [
            ("decay-sweep", [2000]),
            # xs 0, pi/2 and pi are nodes of the 2001-point mesh; 0.3 and 2.71 read 6-column strips
            ("solve", [0, *range(188, 194), 1000, *range(1722, 1728), 2000]),
        ],
    )
    def test_tables_keep_the_columns_read(self, tmp_path, monkeypatch, command, kept):
        built = spy_builds(monkeypatch)
        assert run_cli(tmp_path, command, EX1_ALL) == 0
        assert built and all(t.columns.tolist() == kept for t in built)


def spy_builds(monkeypatch):
    """Record the tables of every solution the CLI builds; return the list they go into."""
    from pbessel.solution import build_solution

    built = []

    def spy(p, N, columns):
        sol = build_solution(p, N, columns=columns)
        built.append(sol.tables)
        return sol

    monkeypatch.setattr("pbessel.cli.build_solution", spy)
    return built


def one_shot_csv(path, provenance, header, rows):
    """The whole-file CSV formatter the block writer replaced: the byte reference."""
    ncol = header.count(",") + 1
    vals = np.asarray(rows, dtype=float).reshape(-1, ncol)
    line = ",".join(["%.17g"] * ncol) + "\n"
    body = (line * vals.shape[0] % tuple(vals.ravel().tolist()))[:-1]
    path.write_text("\n".join(provenance + [header] + ([body] if body else [])) + "\n")


def coefficient_rows(N):
    """(N+1, 202, 4) rows shaped like ``coefficients.csv``, with values over many decades."""
    rng = np.random.default_rng(N)
    shape = (N + 1, 202, 4)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)


class TestCsvWriter:
    """The CSV writer formats and writes fixed blocks of rows through one open file."""

    @pytest.mark.parametrize(
        "rows",
        [coefficient_rows(30), coefficient_rows(30)[:, :1], [(1, 2.5, -0.0, np.inf)], []],
        ids=["blocks", "part-block", "one-row", "no-rows"],
    )
    def test_bytes_equal_one_shot(self, tmp_path, rows):
        from pbessel.cli import _write_csv

        prov = ["# config_sha256 = abc", "# N = 30"]
        _write_csv(tmp_path / "block.csv", prov, "n,x,beta_n,gamma_n", rows)
        one_shot_csv(tmp_path / "one.csv", prov, "n,x,beta_n,gamma_n", rows)
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        import tracemalloc

        from pbessel.cli import _write_csv

        peaks = []
        for N in (100, 200):
            rows = coefficient_rows(N)
            tracemalloc.start()
            _write_csv(tmp_path / f"c{N}.csv", ["# p"], "n,x,beta_n,gamma_n", rows)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # slack of one 2048-row block of four float64; the one-shot writer grew ~5 MB per 100 orders
        assert peaks[1] <= peaks[0] + 2048 * 4 * 8

    def test_unwritable_path_is_config_error(self, tmp_path):
        from pbessel.cli import _write_csv

        with pytest.raises(ConfigError, match="cannot write"):
            _write_csv(tmp_path / "missing" / "c.csv", ["# p"], "a,b", [(1.0, 2.0)])
