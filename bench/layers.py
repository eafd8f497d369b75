"""Layer boundaries of the traced pass and the per-layer metrics derived from them.

Spans are named ``<layer>.<boundary>`` after the pbessel module that does
the work.  Public functions are rebound where the caller looks them up;
the recurrence reaches the quadrature, and evaluation reaches the
coefficient lookup and the Bessel sweep, only through private module
attributes, which are rebound the same way.  ``shooting`` is the oracle
and is never traced.

Per-layer values are per operation of the workload (a coeff-sweep
operation builds five tables), taken as the median over the traced
operations; counts repeat exactly from one operation to the next.  A
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from spans import Tracer

TARGETS = {
    "mesh.plain": [("pbessel.spps", "_cumulative_values"), ("pbessel.coefficients", "_cumulative_values")],
    "mesh.guarded": [
        ("pbessel.spps", "_guarded_cumulative_values"),
        ("pbessel.coefficients", "_guarded_cumulative_values"),
    ],
    "mesh.cutoff": [("pbessel.mesh", "_cutoff_index")],
    "spps.potential": [("pbessel", "make_potential"), ("pbessel.cli", "make_potential")],
    "spps.u0": [("pbessel.solution", "build_u0")],
    "coefficients.build": [("pbessel.solution", "build_coefficient_tables")],
    "coefficients.beta": [("pbessel.coefficients", "beta_recurrent")],
    "coefficients.gamma": [("pbessel.coefficients", "gamma_recurrent")],
    "solution.eval": [
        ("pbessel", "eval_u"),
        ("pbessel", "eval_u_prime"),
        ("pbessel.spectral", "eval_u"),
        ("pbessel.spectral", "eval_u_prime"),
    ],
    "solution.indicator": [("pbessel", "error_indicator")],
    "solution.lookup": [("pbessel.solution", "_coeff_values_at")],
    "special.jseq": [("pbessel.solution", "spherical_j_sequence")],
    "special.miller": [("pbessel.special", "_jseq_miller")],
    "special.bl": [("pbessel.solution", "bl_scaled"), ("pbessel.solution", "bl_prime_scaled")],
    "spectral.find": [("pbessel", "find_eigenvalues"), ("pbessel.cli", "find_eigenvalues")],
    "spectral.characteristic": [("pbessel.spectral", "characteristic")],
    "cli.main": [("pbessel.cli", "main")],
    "cli.pipeline": [("pbessel.cli", "_pipeline")],
    "cli.write": [("pbessel.cli", "_write")],
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _cutoff(args, kwargs, result, c):
    idx = int(result)
    c["mesh.cutoff.nonzero"] += idx > 0
    c["mesh.cutoff.max_index"] = max(c["mesh.cutoff.max_index"], idx)


def _u0(args, kwargs, result, c):
    c["spps.u0.sweeps"] += int(result.iterations)


def _tables(args, kwargs, result, c):
    c["coefficients.tables_bytes"] += sum(
        getattr(row, "values", row).nbytes for fam in (result.beta, result.gamma) for row in fam
    ) + result.beta_residual.nbytes + result.gamma_residual.nbytes
    c["coefficients.builds"] += 1
    c["coefficients.N_opt"] += int(result.N_opt)
    c["coefficients.converged"] += bool(result.converged)


def _beta(args, kwargs, result, c):
    aux = result[1]
    c["coefficients.aux_bytes"] += sum(
        a.nbytes for fam in (aux.eta, aux.kappa, aux.theta, aux.mu) for a in fam
    )


def _eval(args, kwargs, result, c):
    c["solution.eval.omegas"] += np.size(_arg(args, kwargs, 1, "omega"))


def _jseq(args, kwargs, result, c):
    n_max = int(_arg(args, kwargs, 0, "n_max"))
    z = np.size(_arg(args, kwargs, 1, "z"))
    c["special.jseq.values"] += (n_max + 1) * z
    c["special.jseq.args"] += z


def _miller(args, kwargs, result, c):
    c["special.miller.args"] += np.size(_arg(args, kwargs, 1, "z"))


def _find(args, kwargs, result, c):
    c["spectral.roots"] += len(result)
    c["spectral.scan.points"] += int(_arg(args, kwargs, 1, "prob").effective_scan_points)


def _characteristic(args, kwargs, result, c):
    n = np.size(_arg(args, kwargs, 2, "omega"))
    c["spectral.characteristic.omegas"] += n
    c["spectral.vector_calls"] += n > 1


def _write(args, kwargs, result, c):
    c["cli.write.bytes"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


HOOKS = {
    "mesh.cutoff": _cutoff,
    "spps.u0": _u0,
    "coefficients.build": _tables,
    "coefficients.beta": _beta,
    "solution.eval": _eval,
    "special.jseq": _jseq,
    "special.miller": _miller,
    "spectral.find": _find,
    "spectral.characteristic": _characteristic,
    "cli.write": _write,
}

#: peak bytes allocated during each call, measured with tracemalloc
ALLOC_SPANS = frozenset({"solution.lookup"})


def make_tracer() -> Tracer:
    return Tracer(TARGETS, HOOKS, ALLOC_SPANS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(samples: list, q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


# name, unit, spans it needs, value from (span stats, counters, op extras)
PER_LAYER = [
    ("mesh.plain.calls", "count", ["mesh.plain"], lambda s, c, x: s["mesh.plain"]["calls"]),
    ("mesh.plain.self_s", "s", ["mesh.plain"], lambda s, c, x: s["mesh.plain"]["self_s"]),
    ("mesh.guarded.calls", "count", ["mesh.guarded"], lambda s, c, x: s["mesh.guarded"]["calls"]),
    ("mesh.guarded.self_s", "s", ["mesh.guarded", "mesh.cutoff"], lambda s, c, x: s["mesh.guarded"]["self_s"]),
    ("mesh.cutoff.self_s", "s", ["mesh.cutoff"], lambda s, c, x: s["mesh.cutoff"]["self_s"]),
    ("mesh.cutoff.nonzero_share", "ratio", ["mesh.cutoff"],
     lambda s, c, x: _ratio(c["mesh.cutoff.nonzero"], s["mesh.cutoff"]["calls"])),
    ("mesh.cutoff.max_index", "count", ["mesh.cutoff"], lambda s, c, x: c["mesh.cutoff.max_index"]),
    ("spps.potential.self_s", "s", ["spps.potential", "mesh.guarded"], lambda s, c, x: s["spps.potential"]["self_s"]),
    ("spps.u0.self_s", "s", ["spps.u0", "mesh.plain"], lambda s, c, x: s["spps.u0"]["self_s"]),
    ("spps.u0.sweeps", "count", ["spps.u0"], lambda s, c, x: c["spps.u0.sweeps"]),
    ("coefficients.beta.self_s", "s", ["coefficients.beta", "mesh.plain", "mesh.guarded"],
     lambda s, c, x: s["coefficients.beta"]["self_s"]),
    ("coefficients.gamma.self_s", "s", ["coefficients.gamma"], lambda s, c, x: s["coefficients.gamma"]["self_s"]),
    ("coefficients.build.self_s", "s", ["coefficients.build", "coefficients.beta", "coefficients.gamma"],
     lambda s, c, x: s["coefficients.build"]["self_s"]),
    ("coefficients.tables_mb", "MB", ["coefficients.build", "coefficients.beta"],
     lambda s, c, x: _ratio(c["coefficients.tables_bytes"] + c["coefficients.aux_bytes"], c["coefficients.builds"]) / 1e6),
    ("coefficients.N_opt", "count", ["coefficients.build"],
     lambda s, c, x: _ratio(c["coefficients.N_opt"], c["coefficients.builds"])),
    ("coefficients.converged", "ratio", ["coefficients.build"],
     lambda s, c, x: _ratio(c["coefficients.converged"], c["coefficients.builds"])),
    ("solution.eval.calls", "count", ["solution.eval"], lambda s, c, x: s["solution.eval"]["calls"]),
    ("solution.eval.omegas", "count", ["solution.eval"], lambda s, c, x: c["solution.eval.omegas"]),
    ("solution.lookup.calls", "count", ["solution.lookup"], lambda s, c, x: s["solution.lookup"]["calls"]),
    ("solution.lookup.self_s", "s", ["solution.lookup"], lambda s, c, x: s["solution.lookup"]["self_s"]),
    ("solution.lookup.mb_copied", "MB", ["solution.lookup"], lambda s, c, x: c["solution.lookup.alloc_bytes"] / 1e6),
    ("solution.series.self_s", "s", ["solution.eval", "solution.lookup", "special.jseq", "special.bl"],
     lambda s, c, x: s["solution.eval"]["self_s"]),
    ("solution.row.p50_ms", "ms", [], lambda s, c, x: 1e3 * _pct(x.get("row_s", []), 50)),
    ("solution.row.p95_ms", "ms", [], lambda s, c, x: 1e3 * _pct(x.get("row_s", []), 95)),
    ("solution.max_err", "abs", [], lambda s, c, x: x.get("eval_max_err", 0.0)),
    ("special.jseq.calls", "count", ["special.jseq"], lambda s, c, x: s["special.jseq"]["calls"]),
    ("special.jseq.self_s", "s", ["special.jseq"], lambda s, c, x: s["special.jseq"]["total_s"]),
    ("special.jseq.values", "count", ["special.jseq"], lambda s, c, x: c["special.jseq.values"]),
    ("special.jseq.miller_share", "ratio", ["special.jseq", "special.miller"],
     lambda s, c, x: _ratio(c["special.miller.args"], c["special.jseq.args"])),
    ("special.bl.self_s", "s", ["special.bl"], lambda s, c, x: s["special.bl"]["self_s"]),
    ("spectral.characteristic.calls", "count", ["spectral.characteristic"],
     lambda s, c, x: s["spectral.characteristic"]["calls"]),
    ("spectral.characteristic.omegas", "count", ["spectral.characteristic"],
     lambda s, c, x: c["spectral.characteristic.omegas"]),
    ("spectral.scan.points", "count", ["spectral.find"], lambda s, c, x: c["spectral.scan.points"]),
    ("spectral.refine.rounds", "count", ["spectral.find", "spectral.characteristic"],
     lambda s, c, x: max(c["spectral.vector_calls"] - s["spectral.find"]["calls"], 0)),
    ("spectral.roots_per_call", "ratio", ["spectral.find", "spectral.characteristic"],
     lambda s, c, x: _ratio(c["spectral.roots"], s["spectral.characteristic"]["calls"])),
    ("spectral.self_s", "s", ["spectral.find", "spectral.characteristic", "solution.eval"],
     lambda s, c, x: s["spectral.find"]["self_s"] + s["spectral.characteristic"]["self_s"]),
    ("spectral.eigen_s", "s", ["spectral.find"], lambda s, c, x: s["spectral.find"]["total_s"]),
    ("spectral.max_err", "abs", [], lambda s, c, x: x.get("eigen_max_err", 0.0)),
    ("cli.import.modules", "count", [], lambda s, c, x: x.get("modules", 0)),
    ("cli.import.scipy_integrate", "count", [], lambda s, c, x: x.get("scipy_integrate", 0)),
    ("cli.main.self_s", "s", ["cli.main", "cli.pipeline", "cli.write", "spectral.find"],
     lambda s, c, x: s["cli.main"]["self_s"]),
    ("cli.pipeline.self_s", "s", ["cli.pipeline", "spps.potential", "spps.u0", "coefficients.build"],
     lambda s, c, x: s["cli.pipeline"]["self_s"]),
    ("cli.write.self_s", "s", ["cli.write"], lambda s, c, x: s["cli.write"]["self_s"]),
    ("cli.write.bytes", "count", ["cli.write"], lambda s, c, x: c["cli.write.bytes"]),
]

_ZERO = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

def per_layer(tracer: Tracer, ops: list, overhead_s: float) -> dict:
    """Every per-layer metric: median over the traced operations, or None if absent.

    ``ops`` holds (op index, extras) of each traced operation.
    """
    stats = tracer.per_op()
    missing = set(tracer.absent) | tracer.failed_hooks
    out = {}
    for name, unit, needs, fn in PER_LAYER:
        if missing.intersection(needs):
            out[name] = {"value": None, "unit": unit}
            continue
        values = []
        for k, extra in ops:
            s = {n: stats[k].get(n, _ZERO) for n in TARGETS}
            values.append(float(fn(s, tracer.counters[k], extra)))
        out[name] = {"value": statistics.median(values) if values else None, "unit": unit}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out
