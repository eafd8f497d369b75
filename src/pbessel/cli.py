"""Command-line front end.

Commands
--------
``pbessel coeffs --config CFG``
    Compute the coefficient tables; write the coefficient CSV, the
    residual-vs-N CSV, a decay-fit JSON and gnuplot-ready log-log data
    files of |beta_n(b)|, |gamma_n(b)| vs n.
``pbessel eigen --config CFG [--oracle]``
    Find eigenvalues in the configured window; write the eigenvalue CSV
    and, with ``--oracle``, a comparison table against the shooting
    reference with absolute-error columns.
``pbessel solve --config CFG``
    Evaluate (u, u') on the configured omega and x lists; write the
    evaluation grid CSV with error-indicator columns.
``pbessel decay-sweep --config CFG``
    Repeat the coefficient computation over a list of l values and write
    one log-log data file per l plus a JSON of fitted decay exponents.

Flags: ``--config PATH``, ``--out DIR``, ``--mesh M``, ``--N K``,
``--oracle``.  Exit code 0 is success; a library error exits with its
class's ``exit_code`` and prints ``pbessel: {label}: {message}`` to stderr
(the mapping lives in :mod:`pbessel.errors`).

Every output file starts with a ``#``-prefixed provenance block (config
hash, actual mesh size, N, N_opt, residual floors), uses 17-significant-
digit floats, and is byte-identical across reruns of the same config.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_sha256, emit_config, parse_config
from .errors import ConfigError, DomainError, InsufficientDataError, PerturbedBesselError
from .mesh import UniformMesh, next_valid_size
from .potentials import make_potential, potential_callable
from .solution import _series, build_solution, error_indicator, strip_columns
from .spectral import BoundaryCondition, SpectralProblem, decay_fit, find_eigenvalues

EXIT_OK = 0


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _load_config(args) -> RunConfig:
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        cfg = parse_config(text)
    else:
        cfg = RunConfig()
    return cfg.with_overrides(
        directory=args.out,
        mesh_points=args.mesh,
        N=args.N,
        oracle=True if args.oracle else None,
    )


def _pipeline(cfg: RunConfig, points):
    """Mesh, potential and a solution whose tables keep the columns ``points(mesh)`` read."""
    m = next_valid_size(cfg.mesh_points)
    mesh = UniformMesh(cfg.b, m)
    p = make_potential(cfg.potential, mesh, cfg.l)
    sol = build_solution(p, N=cfg.N, columns=strip_columns(mesh, points(mesh)))
    return mesh, p, sol


def _coeff_nodes(mesh: UniformMesh) -> np.ndarray:
    """The ~201 strided mesh nodes of ``coefficients.csv``; the tables add x = b."""
    return mesh.x[:: max(1, (mesh.m - 1) // 200)]


def _provenance(cfg: RunConfig, command: str, mesh: UniformMesh, sol=None) -> list[str]:
    lines = [
        f"# pbessel {__version__} {command}",
        f"# config_sha256 = {config_sha256(cfg)}",
        f"# mesh_m = {mesh.m} (requested {cfg.mesh_points})",
        f"# N = {cfg.N}",
    ]
    if sol is not None:
        t = sol.tables
        lines += [
            f"# N_opt = {t.N_opt}",
            f"# beta_floor = {_fmt(t.beta_floor)}",
            f"# gamma_floor = {_fmt(t.gamma_floor)}",
            f"# converged = {str(t.converged).lower()}",
        ]
    return lines


def _out_dir(cfg: RunConfig) -> Path:
    """Create the output directory before any table is built; unusable is a config error."""
    out = Path(cfg.directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names a file, or a path under one
        raise ConfigError(f"cannot write {out}: {exc}") from exc
    return out


def _write(path: Path, lines) -> None:
    """Write each of ``lines`` (any iterable of str), newline-ended, through one open file."""
    try:
        with path.open("w") as f:
            for line in lines:
                f.write(line)
                f.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


#: CSV rows formatted at a time, so writing a file takes memory of one block, not of the file
_CSV_BLOCK_ROWS = 2048


def _write_csv(path: Path, provenance: list[str], header: str, rows) -> None:
    # one %-format per block of rows; "%.17g" renders exactly as _fmt
    ncol = header.count(",") + 1
    vals = np.asarray(rows, dtype=float).reshape(-1, ncol)
    line = ",".join(["%.17g"] * ncol)
    blocks = (vals[i : i + _CSV_BLOCK_ROWS] for i in range(0, len(vals), _CSV_BLOCK_ROWS))
    text = ("\n".join([line] * len(b)) % tuple(b.ravel().tolist()) for b in blocks)
    _write(path, itertools.chain(provenance, [header], text))


def _fit_or_none(values: np.ndarray, n_lo: int, n_hi: int):
    span = values[n_lo : n_hi + 1]
    if span.size < 11:
        return None, "insufficient n range"
    try:
        return decay_fit(span, n_lo), None
    except (InsufficientDataError, DomainError) as exc:
        return None, str(exc)


def _write_decay(out: Path, prov: list[str], t, tag: str = "") -> dict:
    """Write the |beta_n(b)| and |gamma_n(b)| log-log files; return both decay fits.

    The fits run over n in [10, min(100, N)]; the result holds that
    ``fit_range`` and, per family, the exponent and why it is None.
    """
    n_lo, n_hi = 10, min(100, t.N)
    fit = {"fit_range": [n_lo, n_hi]}
    for family, table in (("beta", t.beta), ("gamma", t.gamma)):
        values = np.abs(table[:, -1])
        _write(
            out / f"{family}_abs_loglog{tag}.dat",
            prov + [f"{n} {_fmt(values[n])}" for n in range(1, t.N + 1)],
        )
        fit[f"{family}_exponent"], fit[f"{family}_fit_note"] = _fit_or_none(values, n_lo, n_hi)
    return fit


def cmd_coeffs(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    mesh, p, sol = _pipeline(cfg, _coeff_nodes)
    prov = _provenance(cfg, "coeffs", mesh, sol)
    t = sol.tables

    rows = np.empty((t.N + 1, t.columns.size, 4))
    rows[:, :, 0] = np.arange(t.N + 1)[:, None]
    rows[:, :, 1] = mesh.x[t.columns]
    rows[:, :, 2] = t.beta
    rows[:, :, 3] = t.gamma
    _write_csv(out / "coefficients.csv", prov, "n,x,beta_n,gamma_n", rows)

    _write_csv(
        out / "residuals.csv",
        prov,
        "K,beta_residual,gamma_residual",
        [(k, t.beta_residual[k], t.gamma_residual[k]) for k in range(t.N + 1)],
    )

    fit = _write_decay(out, prov, t)
    fit.update(
        N=t.N,
        N_opt=t.N_opt,
        converged=t.converged,
        beta_floor=t.beta_floor,
        gamma_floor=t.gamma_floor,
    )
    _write(out / "decay_fit.json", [json.dumps(fit, sort_keys=True, indent=2)])
    return EXIT_OK


def _oracle_rows(cfg: RunConfig, sol, pairs):
    from .shooting import shoot_eigenvalue_near  # scipy.integrate: only --oracle needs it

    resolved = potential_callable(cfg.potential)
    if resolved is None:
        raise ConfigError("--oracle needs an analytic potential (builtin or const:), not csv:")
    q, _ = resolved
    omegas = [p.omega for p in pairs]
    halfwidth = 0.2
    if len(omegas) > 1:
        halfwidth = max(min(0.2, 0.4 * float(np.min(np.diff(omegas)))), 1e-3)
    rows = []
    for pair in pairs:
        ref = shoot_eigenvalue_near(
            q, cfg.l, cfg.b, pair.omega, kind=cfg.boundary, robin_h=cfg.H, halfwidth=halfwidth
        )
        rows.append((pair.index, pair.omega, ref, abs(pair.omega - ref)))
    return rows


def cmd_eigen(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    # every characteristic evaluation is at x = b
    mesh, p, sol = _pipeline(cfg, lambda mesh: [mesh.b])
    prov = _provenance(cfg, "eigen", mesh, sol)
    prob = SpectralProblem(
        potential=p,
        boundary=BoundaryCondition(cfg.boundary, H=cfg.H),
        omega_window=(cfg.omega_min, cfg.omega_max),
        scan_points=cfg.scan_points,
    )
    pairs = find_eigenvalues(sol, prob)
    _write_csv(
        out / "eigenvalues.csv",
        prov,
        "index,omega,residual,bracket_width",
        [(e.index, e.omega, e.char_residual, e.refinement_width) for e in pairs],
    )
    if cfg.oracle:
        _write_csv(
            out / "eigenvalues_comparison.csv",
            prov,
            "index,omega,omega_oracle,abs_error",
            _oracle_rows(cfg, sol, pairs),
        )
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    if not cfg.omegas or not cfg.xs:
        raise ConfigError("solve needs non-empty omegas and xs lists in [solve]")
    out = _out_dir(cfg)
    mesh, p, sol = _pipeline(cfg, lambda mesh: cfg.xs)
    prov = _provenance(cfg, "solve", mesh, sol)
    u, du = _series(sol, cfg.omegas, cfg.xs)  # (len(xs), len(omegas)), one sweep
    eps = [error_indicator(sol, x) if x > 0 else (0.0, 0.0) for x in cfg.xs]
    rows = [(om, x, u[j, i], du[j, i], *eps[j])
            for i, om in enumerate(cfg.omegas) for j, x in enumerate(cfg.xs)]
    _write_csv(out / "solution.csv", prov, "omega,x,u,u_prime,eps_beta,eps_gamma", rows)
    return EXIT_OK


def cmd_decay_sweep(cfg: RunConfig) -> int:
    l_values = cfg.l_values or (0.5, 1.0, 1.5, 2.0)
    out = _out_dir(cfg)
    exponents = {}
    for lv in l_values:
        sub = cfg.with_overrides(l=float(lv))
        mesh, p, sol = _pipeline(sub, lambda mesh: [])  # the decay files read x = b alone
        tag = _fmt(lv)
        fit = _write_decay(out, _provenance(sub, "decay-sweep", mesh, sol), sol.tables, f"_l{tag}")
        exponents[tag] = {k: fit[k] for k in ("beta_exponent", "gamma_exponent")}
    _write(out / "decay_exponents.json", [json.dumps(exponents, sort_keys=True, indent=2)])
    return EXIT_OK


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "eigen": cmd_eigen,
    "solve": cmd_solve,
    "decay-sweep": cmd_decay_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbessel",
        description="Perturbed Bessel equation solver (Neumann series of Bessel functions).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--config", help="path to the run configuration file")
        s.add_argument("--out", help="output directory (overrides config)")
        s.add_argument("--mesh", type=int, help="mesh point count (overrides config)")
        s.add_argument("--N", type=int, help="coefficient table size (overrides config)")
        s.add_argument("--oracle", action="store_true", help="also run the shooting comparison")
        s.add_argument(
            "--emit-config",
            action="store_true",
            help="print the canonical config and exit",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.emit_config:
            sys.stdout.write(emit_config(cfg))
            return EXIT_OK
        return _COMMANDS[args.command](cfg)
    except PerturbedBesselError as exc:  # each class names its own code and label
        print(f"pbessel: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
