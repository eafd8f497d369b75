"""pbessel benchmark: one seeded workload, timed, checked, optionally traced.

Run from the root of a source checkout:

    python3 bench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads (see ``seeded.py`` for the inputs and ``workloads.py`` for the
operations):

  table1       Table-1 problem: table build + 50-eigenvalue Dirichlet search
  coeff-sweep  table builds only: x^2 at four seeded l, Coulomb 1/x at l = 1
  solve-grid   one table, then 200 off-mesh x rows of u, u', error indicator
  cli          import pbessel, pbessel eigen, pbessel coeffs, fresh interpreters

The workload's operation repeats until ``--seconds`` have passed (at least
once).  Every operation is checked against an oracle untimed; a failed check
is a failed operation.  The pbessel sources are imported from ``src/`` of the
checkout, BLAS runs with one thread.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, medians over the run: ``setup_s`` (one table build; for ``cli`` a
fresh interpreter's ``import pbessel``), ``time_to_solution_s`` (one
operation without the oracle; for ``cli`` the two commands) and
``peak_rss_mb`` (of the benchmark
process; for ``cli`` of the largest pbessel command).  The two times are speed-adjusted:
an operation is timed in segments, a fixed reference computation
(``workloads.speed_probe``, no pbessel code) is timed between segments, and
each segment's wall time is scaled by ``PROBE_REF_S`` over the mean probe time
around it.  Shared hosts change speed by up to 1.5x for tens of seconds to
minutes at a time; the adjustment removes most of that from the comparison.
The lines before the JSON give the wall-clock medians, every
workload-specific number (eigen_s, eval_p50_ms, cli_eigen_s, accuracy against
the oracle, ...) with its unit, the provenance and the deterministic
fingerprints.  With ``--trace 1`` operations alternate between untraced and
traced, and the last line holds the per-layer metrics of ``layers.py`` plus
the tracing overhead.  Everything, spans included, is also written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("table1", "coeff-sweep", "solve-grid", "cli")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = 1


def _parse(argv):
    ap = argparse.ArgumentParser(description="pbessel benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_sha256(pkg: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _provenance(args, np, scipy) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "commit": _git_commit(ROOT),
        "src_sha256": _tree_sha256(ROOT / "src" / "pbessel"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(np),
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads_exceed_nproc": BLAS_THREADS > nproc,
    }


def _peak_rss_mb(workload: str, ops: list) -> float:
    """Peak RSS of this process, or for ``cli`` of the largest pbessel command."""
    if workload == "cli":
        return max(v for o in ops for k, v in o.extra.items() if k.endswith("_peak_mb"))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def _report(workload: str, ops: list, np) -> dict:
    """Every end-to-end number of the workload, {name: (value, unit)}."""

    def med(key):
        return statistics.median(o.extra[key] for o in ops)

    def worst(key):  # None when no operation got as far as this check
        return max((o.extra[key] for o in ops if key in o.extra), default=None)

    rep = {
        "operations": (len(ops), "count"),
        "setup_samples": (sum(len(o.setup_s) for o in ops), "count"),
        "setup_wall_s": (statistics.median(s for o in ops for s in o.setup_s), "s"),
        "time_to_solution_wall_s": (statistics.median(o.total_s for o in ops), "s"),
        "probe_s": (statistics.median(p for o in ops for p in o.clock.probes), "s"),
    }
    if workload == "table1":
        rep["eigen_s"] = (med("eigen_s"), "s")
        rep["eigen_max_err"] = (worst("eigen_max_err"), "abs")
    elif workload == "coeff-sweep":
        rep["omega0_max_rel_err"] = (worst("omega0_max_rel_err"), "rel")
    elif workload == "solve-grid":
        rows = [r for o in ops for r in o.extra["row_s"]]
        rep["eval_points_per_s"] = (
            statistics.median(o.extra["points"] / sum(o.extra["row_s"]) for o in ops),
            "1/s",
        )
        rep["eval_p50_ms"] = (1e3 * float(np.percentile(rows, 50)), "ms")
        rep["eval_p95_ms"] = (1e3 * float(np.percentile(rows, 95)), "ms")
        rep["eval_row_samples"] = (len(rows), "count")
        rep["eval_max_err"] = (worst("eval_max_err"), "abs")
    else:
        rep["import_s"] = (med("import_s"), "s")
        rep["cli_eigen_s"] = (med("cli_eigen_s"), "s")
        rep["cli_coeffs_s"] = (med("cli_coeffs_s"), "s")
        rep["cli_eigen_peak_mb"] = (worst("cli_eigen_peak_mb"), "MB")
        rep["cli_coeffs_peak_mb"] = (worst("cli_coeffs_peak_mb"), "MB")
        rep["import_modules"] = (ops[-1].extra["modules"], "count")
        rep["import_has_scipy_integrate"] = (ops[-1].extra["scipy_integrate"], "count")
    return rep


def main(argv=None) -> int:
    args = _parse(argv)
    pkg = ROOT / "src" / "pbessel"
    if not (pkg / "__init__.py").is_file():
        print(f"bench: no pbessel sources at {pkg.relative_to(ROOT)}/", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import scipy

    import pbessel

    if Path(pbessel.__file__).resolve().parent != pkg.resolve():
        print(f"bench: imported pbessel from {pbessel.__file__}, not {pkg}", file=sys.stderr)
        return 2

    import layers
    import seeded
    import workloads

    prov = _provenance(args, np, scipy)
    if prov["blas_threads_exceed_nproc"]:
        print(f"bench: WARNING BLAS threads {BLAS_THREADS} exceed nproc {prov['nproc']}", file=sys.stderr)
    inputs = seeded.GENERATORS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.make(args.workload, inputs, ROOT, run_dir)

    tracer = layers.make_tracer() if args.trace else None
    ops, traced, errors, imports = [], [], [], {}
    try:
        workloads.warm_up()
        wl.reference()
        if tracer is not None and args.workload == "cli":
            wl.in_process = True
            imports = wl.import_probe()
    except Exception:  # the program failed before the first operation
        errors.append(traceback.format_exc())
    min_ops = 2 if tracer is not None else 1
    probe = workloads.speed_probe()
    deadline = perf_counter() + args.seconds
    while not errors and (len(ops) < min_ops or perf_counter() < deadline):
        k = len(ops)
        clock = workloads.Clock(probe)
        traced_op = tracer is not None and k % 2 == 1
        try:
            if traced_op:
                with tracer.operation(k):
                    op = wl.op(clock)
            else:
                op = wl.op(clock)
            probe = clock.probes[-1]
            wl.check(op)
        except Exception:  # a crash is a failed operation; record it and stop
            errors.append(traceback.format_exc())
            break
        op.result = None
        ops.append(op)
        if traced_op:
            traced.append(k)

    attempted = len(ops) + len(errors)
    failed = sum(1 for o in ops if o.failures) + len(errors)
    failures = [f for o in ops for f in o.failures] + errors
    for f in failures[:20]:
        print(f"bench: FAILED {f}", file=sys.stderr)

    record = {
        "provenance": prov,
        "inputs_sha256": hashlib.sha256(seeded.encode(inputs)).hexdigest(),
        "segments_s": [o.clock.segments for o in ops],
        "probes_s": [o.clock.probes for o in ops],
    }
    if not ops or (tracer is not None and not traced):
        metrics = {}
    elif tracer is None:
        report = _report(args.workload, ops, np)
        metrics = {
            "setup_s": {"value": statistics.median(s for o in ops for s in o.setup_adj_s), "unit": "s"},
            "time_to_solution_s": {"value": statistics.median(o.total_adj_s for o in ops), "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(args.workload, ops), "unit": "MB"},
        }
        record["report"] = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
        record["fingerprints"] = wl.fingerprints
        for name, (value, unit) in report.items():
            print(f"bench: {args.workload} {name} = {value} {unit}")
    else:
        plain = [o.total_adj_s for k, o in enumerate(ops) if k not in traced]
        with_spans = [ops[k].total_adj_s for k in traced]
        overhead = statistics.median(with_spans) - statistics.median(plain)
        extras = [(k, {**imports, **ops[k].extra}) for k in traced]
        metrics = layers.per_layer(tracer, extras, overhead)
        record["absent_spans"] = tracer.absent
        record["failed_hooks"] = sorted(tracer.failed_hooks)
        (run_dir.parent / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.dump()))
        for name in sorted(tracer.absent):
            print(f"bench: span {name} absent: {', '.join(tracer.absent[name])}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"bench: {args.workload} {name} = {m['value']} {m['unit']}")
    print("bench: provenance " + json.dumps(prov, sort_keys=True))
    if tracer is None and ops:
        print("bench: fingerprints " + json.dumps(wl.fingerprints, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(result)
    record["failures"] = failures
    (run_dir.parent / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
