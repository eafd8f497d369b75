"""The benchmark workloads: one timed operation, its oracle and its checks.

Each workload class turns the seeded inputs into repeated operations.
``op(clock)`` is the timed part, split into clock segments, and touches
only the public pbessel API (or the ``pbessel`` command); ``check(op)``
runs untimed and outside the traced region, and appends every failed
check to ``op.failures``.  Library calls go through module attributes at
call time (``pbessel.X``), so the traced pass can rebind them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import pbessel
import pbessel.cli
import seeded

#: acceptance-criterion tolerances of the test suite (tests/test_acceptance.py)
CRIT1_TOL = 1e-9   # |omega_n - Table 1|
CRIT5_TOL = 1e-6   # |u - shooting|, also applied to u'
CRIT6_TOL = 1e-10  # relative omega = 0 identities

SUBPROCESS_TIMEOUT_S = 120.0


class Clock:
    """Times the segments of one operation and runs the speed probe between them.

    A segment's speed-adjusted time is its wall time divided by the host
    speed around it: the mean of the probes before and after the segment,
    relative to ``PROBE_REF_S``.  Probe time is in no segment.
    """

    def __init__(self, probe_s: float):
        self.probes = [probe_s]
        self.segments: list[float] = []

    @contextmanager
    def segment(self):
        t0 = perf_counter()
        yield
        self.segments.append(perf_counter() - t0)
        self.probes.append(speed_probe())

    def adjusted(self, i: int) -> float:
        return self.segments[i] * 2.0 * PROBE_REF_S / (self.probes[i] + self.probes[i + 1])


@dataclass
class Op:
    """Timings, outputs and check results of one operation.

    ``setup`` and ``solve`` index the clock segments that are set-up and
    that make up the time to solution.
    """

    clock: Clock
    setup: list
    solve: list
    extra: dict = field(default_factory=dict)
    result: object = None
    failures: list = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(self.clock.segments[i] for i in self.solve)

    @property
    def total_adj_s(self) -> float:
        return sum(self.clock.adjusted(i) for i in self.solve)

    @property
    def setup_s(self) -> list:
        return [self.clock.segments[i] for i in self.setup]

    @property
    def setup_adj_s(self) -> list:
        return [self.clock.adjusted(i) for i in self.setup]


def _family_sha256(family) -> str:
    # hashes the rows in order, so a list of per-order samples and an
    # (N+1, m) array with the same values give the same digest
    h = hashlib.sha256()
    for row in family:
        h.update(np.ascontiguousarray(getattr(row, "values", row), dtype="<f8").tobytes())
    return h.hexdigest()


def table_fingerprint(sol) -> dict:
    t = sol.tables
    return {
        "beta_sha256": _family_sha256(t.beta),
        "gamma_sha256": _family_sha256(t.gamma),
        "N_opt": int(t.N_opt),
        "beta_floor": float(t.beta_floor),
        "gamma_floor": float(t.gamma_floor),
        "u0_sweeps": int(sol.u0.iterations),
    }


def _tables_finite(sol) -> bool:
    t = sol.tables
    return all(
        np.isfinite(getattr(row, "values", row)).all() for fam in (t.beta, t.gamma) for row in fam
    )


def build_table(potential: str, l: float):
    """mesh -> potential -> u0 -> tables for one potential."""
    mesh = pbessel.UniformMesh(seeded.B, seeded.M)
    return pbessel.build_solution(pbessel.make_potential(potential, mesh, l), N=seeded.N)


_PX = np.linspace(0.0, np.pi, seeded.M)
_PBETA = [np.sin(_PX * k) for k in range(seeded.N + 1)]
_PGAMMA = [np.cos(_PX * k) for k in range(seeded.N + 1)]
_PW = np.arange(30.0).reshape(6, 5)
_PZ = np.linspace(0.5, 50.0, 64)

#: speed_probe() time on the reference machine (2-vCPU Xeon VM, Python 3.11,
#: numpy 2.4, one BLAS thread); it only sets the scale of adjusted times
PROBE_REF_S = 0.04


def speed_probe() -> float:
    """Seconds taken by a fixed reference computation that uses no pbessel code.

    It does, in about equal shares of time, the kinds of work the solver
    does: arithmetic and panel matmuls on mesh-sized arrays, an interpreter
    loop, partial sorts over six-point windows, stacking 2 x 101 mesh-sized
    rows, and a backward recurrence on a 64-point vector.  Dividing a
    segment's time by the probe's time around it removes most of the host's
    speed swings, which on shared machines reach 1.5x for tens of seconds
    at a time.
    """
    t0 = perf_counter()
    acc = _PBETA[1].copy()
    for n in range(40):
        acc = (acc * _PX + _PBETA[n]) * 0.5
        panels = np.lib.stride_tricks.sliding_window_view(acc, 6)[::5] @ _PW
        acc[:-1] = np.repeat(np.cumsum(panels[:, 4]), 5) * 1e-9
    s = 0
    for i in range(150_000):
        s += i % 7
    windows = np.abs(np.lib.stride_tricks.sliding_window_view(_PBETA[3], 6))
    for _ in range(3):
        np.partition(windows, 1, axis=1)
    for _ in range(3):
        np.stack(_PBETA)
        np.stack(_PBETA)[:, 7]
        np.stack(_PGAMMA)[:, 7]
    f_cur, f_up = np.full(_PZ.size, 1e-250), np.zeros(_PZ.size)
    for n in range(600, 0, -1):
        f_cur, f_up = (2 * n + 1) / _PZ * f_cur - f_up, f_cur
        big = np.abs(f_cur) > 1e250
        if big.any():
            f_cur[big] *= 1e-250
    return perf_counter() - t0


def warm_up() -> None:
    """Run every library path once on a tiny problem (lazy imports, caches)."""
    mesh = pbessel.UniformMesh(seeded.B, 501)
    sol = pbessel.build_solution(pbessel.make_potential("x^2", mesh, 1.5), N=10)
    om = np.linspace(0.0, 5.0, 8)
    pbessel.eval_u(sol, om, 1.2345)
    pbessel.eval_u_prime(sol, om, 1.2345)
    pbessel.error_indicator(sol, 1.2345)
    prob = pbessel.SpectralProblem(sol.potential, pbessel.BoundaryCondition("dirichlet"), (2.0, 4.0))
    pbessel.find_eigenvalues(sol, prob)


class Table1:
    """Table-1 problem: one table, then the 50-eigenvalue Dirichlet search."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.fingerprints: dict = {}

    def reference(self) -> None:
        pass

    def op(self, clock: Clock) -> Op:
        inp = self.inputs
        with clock.segment():
            sol = build_table(inp["potential"], inp["l"])
        with clock.segment():
            prob = pbessel.SpectralProblem(
                sol.potential, pbessel.BoundaryCondition("dirichlet"), tuple(inp["window"])
            )
            pairs = pbessel.find_eigenvalues(sol, prob)
        return Op(clock, [0], [0, 1], {"eigen_s": clock.segments[1]}, (sol, pairs))

    def check(self, op: Op) -> None:
        sol, pairs = op.result
        omegas = [p.omega for p in pairs]
        if len(omegas) != self.inputs["expected_count"]:
            op.failures.append(f"found {len(omegas)} eigenvalues, expected {self.inputs['expected_count']}")
            return
        if not np.isfinite(omegas).all():
            op.failures.append("non-finite eigenvalue")
            return
        errs = [abs(omegas[n - 1] - exact) for n, exact in seeded.TABLE1.items()]
        op.extra["eigen_max_err"] = max(errs)
        for (n, exact), err in zip(seeded.TABLE1.items(), errs):
            if not err <= CRIT1_TOL:
                op.failures.append(f"omega_{n} off Table 1 by {err:.3e}")
        if not self.fingerprints:
            self.fingerprints = {
                "table": table_fingerprint(sol),
                "eigenvalues_sha256": hashlib.sha256(np.asarray(omegas, dtype="<f8").tobytes()).hexdigest(),
            }


class CoeffSweep:
    """Table builds only: four x^2 tables at seeded l plus the Coulomb table."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.fingerprints: dict = {}

    def reference(self) -> None:
        pass

    def op(self, clock: Clock) -> Op:
        sols = []
        for potential, l in self.inputs["cases"]:
            with clock.segment():
                sols.append(build_table(potential, l))
        every = list(range(len(sols)))
        return Op(clock, every, every, result=sols)

    def check(self, op: Op) -> None:
        worst = 0.0
        for (potential, l), sol in zip(self.inputs["cases"], op.result):
            tag = f"{potential} l={l}"
            if not _tables_finite(sol):
                op.failures.append(f"{tag}: non-finite coefficient table")
                continue
            x = sol.mesh.x
            u0, du0 = sol.u0.u0.values, sol.u0.u0_prime.values
            for i in self.inputs["check_indices"]:
                for got, ref in (
                    (pbessel.eval_u(sol, 0.0, float(x[i])), u0[i]),
                    (pbessel.eval_u_prime(sol, 0.0, float(x[i])), du0[i]),
                ):
                    rel = abs(got - ref) / max(abs(ref), 1e-30)
                    worst = max(worst, rel)
                    if not rel <= CRIT6_TOL:
                        op.failures.append(f"{tag}: omega=0 identity off by {rel:.3e} at x={x[i]}")
        op.extra["omega0_max_rel_err"] = worst
        if not self.fingerprints:
            self.fingerprints = {
                f"{p} l={l}": table_fingerprint(sol)
                for (p, l), sol in zip(self.inputs["cases"], op.result)
            }


def _q_xsq(x):
    return np.asarray(x, dtype=float) ** 2


#: rows timed between two speed probes; a segment of 50 rows takes about 1 s
ROWS_PER_SEGMENT = 50


class SolveGrid:
    """The row loop of ``pbessel solve``: 200 off-mesh x, 64 omegas, both families."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.fingerprints: dict = {}
        self.ref = None

    def reference(self) -> None:
        """Shooting oracle on the seeded subset (4 omegas x 10 x), untimed."""
        inp = self.inputs
        xs = [inp["xs"][r] for r in inp["oracle_rows"]]
        ref_u = np.empty((len(xs), len(inp["oracle_cols"])))
        ref_du = np.empty_like(ref_u)
        for j, c in enumerate(inp["oracle_cols"]):
            ref_u[:, j], ref_du[:, j] = pbessel.shoot_solution(
                _q_xsq, inp["l"], inp["omegas"][c], xs, x0=seeded.SHOOT_X0
            )
        self.ref = (ref_u, ref_du)

    def op(self, clock: Clock) -> Op:
        inp = self.inputs
        om = np.asarray(inp["omegas"])
        rows = len(inp["xs"])
        u = np.empty((rows, om.size))
        du = np.empty_like(u)
        ind = np.empty((rows, 2))
        row_s = []
        with clock.segment():
            sol = build_table(inp["potential"], inp["l"])
        for start in range(0, rows, ROWS_PER_SEGMENT):
            with clock.segment():
                for r in range(start, min(start + ROWS_PER_SEGMENT, rows)):
                    x = inp["xs"][r]
                    t0 = perf_counter()
                    u[r] = pbessel.eval_u(sol, om, x)
                    du[r] = pbessel.eval_u_prime(sol, om, x)
                    ind[r] = pbessel.error_indicator(sol, x)
                    row_s.append(perf_counter() - t0)
        every = list(range(len(clock.segments)))
        return Op(clock, [0], every, {"row_s": row_s, "points": u.size}, (sol, u, du, ind))

    def check(self, op: Op) -> None:
        sol, u, du, ind = op.result
        inp = self.inputs
        if not (np.isfinite(u).all() and np.isfinite(du).all() and np.isfinite(ind).all()):
            op.failures.append("non-finite u, u' or error indicator")
            return
        rows, cols = inp["oracle_rows"], inp["oracle_cols"]
        ref_u, ref_du = self.ref
        err = max(
            float(np.max(np.abs(u[np.ix_(rows, cols)] - ref_u))),
            float(np.max(np.abs(du[np.ix_(rows, cols)] - ref_du))),
        )
        op.extra["eval_max_err"] = err
        if not err <= CRIT5_TOL:
            op.failures.append(f"u/u' off the shooting oracle by {err:.3e}")
        if not self.fingerprints:
            self.fingerprints = {"table": table_fingerprint(sol)}


_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import pbessel\n"
    "t = time.perf_counter() - t\n"
    "print(t, len(sys.modules), int('scipy.integrate' in sys.modules))\n"
)

# ``python -m pbessel`` that reports its own peak RSS (VmHWM) at exit.  A
# child's ru_maxrss cannot be used: exec records the forking parent's
# resident size into it.
_CLI_MAIN = (
    "import atexit, runpy, sys\n"
    "def _peak():\n"
    "    with open('/proc/self/status') as f:\n"
    "        kb = [ln.split()[1] for ln in f if ln.startswith('VmHWM:')]\n"
    "    print('bench-vmhwm-kb', kb[0] if kb else -1, file=sys.stderr)\n"
    "atexit.register(_peak)\n"
    "sys.argv[0] = 'pbessel'\n"
    "runpy.run_module('pbessel', run_name='__main__', alter_sys=True)\n"
)


def _data_rows(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]


class Cli:
    """``import pbessel``, ``pbessel eigen`` and ``pbessel coeffs`` on the default config.

    Untimed: every command runs in a fresh interpreter.  Traced: the
    same two commands run in-process through ``pbessel.cli.main``.
    """

    def __init__(self, inputs: dict, root: Path, out: Path):
        self.inputs = inputs
        self.root = root
        self.out = out
        self.fingerprints: dict = {}
        self.in_process = False
        self.ref_omegas: list[float] = []
        self.cfg = None
        self.mesh_m = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # children cache bytecode like an installed package does
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def reference(self) -> None:
        """Eigenvalues of the default config, computed in-process, untimed."""
        cfg = pbessel.RunConfig()
        mesh = pbessel.UniformMesh(cfg.b, pbessel.next_valid_size(cfg.mesh_points))
        p = pbessel.make_potential(cfg.potential, mesh, cfg.l)
        sol = pbessel.build_solution(p, N=cfg.N)
        prob = pbessel.SpectralProblem(
            p,
            pbessel.BoundaryCondition(cfg.boundary, H=cfg.H),
            (cfg.omega_min, cfg.omega_max),
            scan_points=cfg.scan_points,
        )
        self.ref_omegas = [e.omega for e in pbessel.find_eigenvalues(sol, prob)]
        self.cfg = cfg
        self.mesh_m = mesh.m

    def _run(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout + proc.stderr

    def import_probe(self) -> dict:
        code, out = self._run(["-c", _IMPORT_PROBE])
        if code != 0:
            raise RuntimeError(f"import pbessel failed: {out.strip()}")
        secs, modules, has_integrate = out.split()
        return {"import_s": float(secs), "modules": int(modules), "scipy_integrate": int(has_integrate)}

    def _command(self, name: str) -> tuple[int, str, float]:
        """Exit code, output and peak RSS in MB (0 in-process) of one command."""
        out = self.out / name
        shutil.rmtree(out, ignore_errors=True)
        if self.in_process:
            return pbessel.cli.main([name, "--out", str(out)]), "", 0.0
        code, log = self._run(["-c", _CLI_MAIN, name, "--out", str(out)])
        kb = [ln.split()[1] for ln in log.splitlines() if ln.startswith("bench-vmhwm-kb ")]
        return code, log, float(kb[-1]) / 1024.0 if kb else -1.0

    def op(self, clock: Clock) -> Op:
        extra = {}
        setup = []
        if not self.in_process:
            with clock.segment():
                extra.update(self.import_probe())
            setup.append(0)
        codes = {}
        solve = []
        for name in self.inputs["commands"]:
            with clock.segment():
                code, log, peak_mb = self._command(name)
            codes[name] = (code, log)
            solve.append(len(clock.segments) - 1)
            extra[f"cli_{name}_s"] = clock.segments[-1]
            extra[f"cli_{name}_peak_mb"] = peak_mb
        return Op(clock, setup, solve, extra, codes)

    def check(self, op: Op) -> None:
        for name, (code, log) in op.result.items():
            if code != 0:
                op.failures.append(f"pbessel {name} exited {code}: {log.strip()[-300:]}")
            elif not self.in_process and not op.extra[f"cli_{name}_peak_mb"] > 0:
                op.failures.append(f"pbessel {name} reported no peak RSS")
        if op.failures:
            return
        n_rows = self.cfg.N + 1
        stride = max(1, (self.mesh_m - 1) // 200)
        n_x = len(range(0, self.mesh_m, stride)) + (0 if (self.mesh_m - 1) % stride == 0 else 1)
        expected = {
            ("eigen", "eigenvalues.csv"): 1 + len(self.ref_omegas),
            ("coeffs", "coefficients.csv"): 1 + n_rows * n_x,
            ("coeffs", "residuals.csv"): 1 + n_rows,
            ("coeffs", "beta_abs_loglog.dat"): self.cfg.N,
            ("coeffs", "gamma_abs_loglog.dat"): self.cfg.N,
        }
        for (cmd, fname), rows in expected.items():
            path = self.out / cmd / fname
            if not path.is_file():
                op.failures.append(f"pbessel {cmd} wrote no {fname}")
                continue
            got = len(_data_rows(path))
            if got != rows:
                op.failures.append(f"{fname}: {got} lines, expected {rows} (header included for csv)")
        fit = self.out / "coeffs" / "decay_fit.json"
        if not fit.is_file() or json.loads(fit.read_text()).get("N") != self.cfg.N:
            op.failures.append("decay_fit.json missing or for another N")
        eig = self.out / "eigen" / "eigenvalues.csv"
        if eig.is_file():
            rows = _data_rows(eig)[1:]
            omegas = [float(r.split(",")[1]) for r in rows]
            if omegas != self.ref_omegas:
                op.failures.append("eigenvalues.csv omega column differs from in-process find_eigenvalues")
            elif not self.fingerprints:
                self.fingerprints = {
                    "eigenvalues_sha256": hashlib.sha256(np.asarray(omegas, dtype="<f8").tobytes()).hexdigest()
                }


def make(name: str, inputs: dict, root: Path, out: Path):
    if name == "table1":
        return Table1(inputs)
    if name == "coeff-sweep":
        return CoeffSweep(inputs)
    if name == "solve-grid":
        return SolveGrid(inputs)
    return Cli(inputs, root, out)
