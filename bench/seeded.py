"""Seeded inputs of the benchmark workloads.

Every generator takes only the seed and returns plain Python data (no
pbessel objects), so the same seed gives byte-identical inputs
(see :func:`encode`) and the solver receives nothing but those inputs.
"""

from __future__ import annotations

import json
import math
import random

B = math.pi
M = 20001
N = 100
H = B / (M - 1)

#: published Table-1 eigenvalues of q = x^2, l = 3/2, b = pi, Dirichlet (index: omega)
TABLE1 = {
    1: 2.46294997397397,
    2: 3.28835292994256,
    3: 4.14986421874478,
    5: 6.00758145811600,
    7: 7.93973737689930,
    10: 10.8861250916173,
    20: 20.8202301908124,
    50: 50.7786768095149,
}

#: the solve-grid x values keep at least this distance from every mesh node,
#: far above the 1e-12*b on-mesh test of the evaluation path
NODE_MARGIN = 1e-6 * H
SOLVE_ROWS = 200
SOLVE_OMEGAS = 64
ORACLE_XS = 10
ORACLE_OMEGAS = 4
#: x0 of the shooting oracle; no grid point may lie below it
SHOOT_X0 = 1e-6

_SWEEP_L = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"pbessel-bench:{workload}:{seed}")


def table1(seed: int) -> dict:
    """x^2, l = 3/2, Dirichlet at pi; every window holds eigenvalues 1..50.

    omega_1 = 2.46 > 2.3 >= lo and omega_50 = 50.78 < 51.0 <= hi, while
    omega_51 lies above 51.5 (checked by ``test_seeded.py``).
    """
    rng = _rng("table1", seed)
    lo = rng.uniform(1.5, 2.3)
    hi = rng.uniform(51.0, 51.5)
    return {"potential": "x^2", "l": 1.5, "window": [lo, hi], "expected_count": 50}


def coeff_sweep(seed: int) -> dict:
    """Four distinct x^2 tables at l from the half-integer grid of [0, 2.5],
    plus the Coulomb table at l = 1.

    Four of the six grid values always include an integer and a
    non-integer l, whose coefficient decay (and truncation shape) differ.
    """
    rng = _rng("coeff-sweep", seed)
    cases = [("x^2", l) for l in rng.sample(_SWEEP_L, 4)] + [("1/x", 1.0)]
    check_idx = sorted(rng.sample(range(1, M), 17))
    return {"cases": [list(c) for c in cases], "check_indices": check_idx}


def _off_mesh_x(rng: random.Random) -> float:
    while True:
        x = B * (1.0 - rng.random())  # (0, b]
        if x >= SHOOT_X0 and abs(x - round(x / H) * H) > NODE_MARGIN:
            return x


def solve_grid(seed: int) -> dict:
    """200 off-mesh x in (0, b] and 64 omegas in [0, 50] for the x^2, l = 3/2
    table, plus the seeded subset (4 omegas x 10 x) checked against shooting."""
    rng = _rng("solve-grid", seed)
    xs = [_off_mesh_x(rng) for _ in range(SOLVE_ROWS)]
    omegas = sorted(rng.uniform(0.0, 50.0) for _ in range(SOLVE_OMEGAS))
    return {
        "potential": "x^2",
        "l": 1.5,
        "xs": xs,
        "omegas": omegas,
        "oracle_rows": sorted(rng.sample(range(SOLVE_ROWS), ORACLE_XS)),
        "oracle_cols": sorted(rng.sample(range(SOLVE_OMEGAS), ORACLE_OMEGAS)),
    }


def cli(seed: int) -> dict:
    """The built-in default configuration; the seed is recorded, not used."""
    return {"commands": ["eigen", "coeffs"]}


GENERATORS = {
    "table1": table1,
    "coeff-sweep": coeff_sweep,
    "solve-grid": solve_grid,
    "cli": cli,
}


def encode(inputs: dict) -> bytes:
    """Canonical byte form of a workload's inputs (floats in repr form)."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
