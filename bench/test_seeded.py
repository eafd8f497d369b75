"""Self-check of the benchmark's seeded input generator.

Run from the repository root:

    python3 -m pytest -q bench/test_seeded.py
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import seeded  # noqa: E402

SEEDS = range(1000)


@pytest.fixture(scope="module")
def table1_eigenvalues():
    """Eigenvalues of the Table-1 problem on a window wider than any seeded one."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import pbessel

    mesh = pbessel.UniformMesh(seeded.B, seeded.M)
    sol = pbessel.build_solution(pbessel.make_potential("x^2", mesh, 1.5), N=seeded.N)
    prob = pbessel.SpectralProblem(sol.potential, pbessel.BoundaryCondition("dirichlet"), (0.5, 53.0))
    return [p.omega for p in pbessel.find_eigenvalues(sol, prob)]


def test_table1_windows_hold_exactly_eigenvalues_1_to_50(table1_eigenvalues):
    omegas = table1_eigenvalues
    assert len(omegas) >= 52
    for n, exact in seeded.TABLE1.items():
        assert abs(omegas[n - 1] - exact) <= 1e-9  # the list starts at the first eigenvalue
    for seed in SEEDS:
        inp = seeded.table1(seed)
        lo, hi = inp["window"]
        inside = [n for n, om in enumerate(omegas, start=1) if lo <= om <= hi]
        assert inside == list(range(1, inp["expected_count"] + 1)), (seed, lo, hi)


def test_solve_grid_points_lie_off_the_mesh():
    nodes = np.linspace(0.0, seeded.B, seeded.M)
    for seed in SEEDS:
        inp = seeded.solve_grid(seed)
        xs = np.array(inp["xs"])
        assert xs.size == seeded.SOLVE_ROWS
        assert np.all((xs >= seeded.SHOOT_X0) & (xs <= seeded.B))
        nearest = np.clip(np.rint(xs / seeded.H).astype(int), 0, seeded.M - 1)
        assert np.all(np.abs(xs - nodes[nearest]) > 1e-12 * seeded.B), seed
        om = inp["omegas"]
        assert len(om) == seeded.SOLVE_OMEGAS and om == sorted(om) and 0.0 <= om[0] and om[-1] <= 50.0
        assert len(set(inp["oracle_rows"])) == seeded.ORACLE_XS
        assert len(set(inp["oracle_cols"])) == seeded.ORACLE_OMEGAS


def test_coeff_sweep_covers_integer_and_fractional_l():
    for seed in SEEDS:
        cases = seeded.coeff_sweep(seed)["cases"]
        ls = [l for p, l in cases if p == "x^2"]
        assert len(set(ls)) == 4 and all(0.0 <= l <= 2.5 for l in ls)
        assert any(l == int(l) for l in ls) and any(l != int(l) for l in ls)
        assert ["1/x", 1.0] in cases


def _digest(seeds) -> str:
    h = hashlib.sha256()
    for name in sorted(seeded.GENERATORS):
        for seed in seeds:
            h.update(seeded.encode(seeded.GENERATORS[name](seed)))
    return h.hexdigest()


def test_same_seed_gives_byte_identical_inputs():
    seeds = range(50)
    assert _digest(seeds) == _digest(seeds)
    # a fresh interpreter with another hash seed draws the same bytes
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import test_seeded; "
        "print(test_seeded._digest(range(50)))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == _digest(seeds)
    assert seeded.encode(seeded.table1(1)) != seeded.encode(seeded.table1(2))
