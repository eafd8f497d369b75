"""Every attribute the traced benchmark pass rebinds must exist in pbessel.

``bench/layers.py`` resolves its spans by (module, attribute) name; a
missing one turns that span's per-layer metrics null, which the traced
CI run reports only after the fact.  This reads ``bench/`` and changes
nothing there.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("layers")


def test_every_target_resolves(layers):
    missing = [
        f"{span}: {mod}.{attr}"
        for span, pairs in layers.TARGETS.items()
        for mod, attr in pairs
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []


def test_recurrence_seams_return_one_family_each():
    from pbessel import UniformMesh, build_u0, make_potential
    from pbessel.coefficients import beta_recurrent, build_coefficient_tables, gamma_recurrent

    p = make_potential("x^2", UniformMesh(np.pi, 501), 1.5)
    u0 = build_u0(p)
    t = build_coefficient_tables(u0, p, 12)
    assert beta_recurrent(u0, p, 12).tobytes() == t.beta.tobytes()
    assert gamma_recurrent(u0, p, 12).tobytes() == t.gamma.tobytes()


def test_tables_hook_takes_column_subset(layers):
    # the CLI builds tables of a few columns; a hook that raised on them
    # would null the per-layer metrics of the traced cli workload
    from collections import Counter

    from pbessel import UniformMesh, build_u0, make_potential
    from pbessel.coefficients import build_coefficient_tables

    mesh = UniformMesh(np.pi, 501)
    p = make_potential("x^2", mesh, 1.5)
    t = build_coefficient_tables(build_u0(p), p, 12, columns=np.arange(mesh.m - 6, mesh.m))
    c = Counter()
    layers._tables((), {}, t, c)
    assert c["coefficients.builds"] == 1
    assert c["coefficients.tables_bytes"] == t.beta.nbytes + t.gamma.nbytes + 2 * 13 * 8


def test_miller_span_sees_the_spherical_sweep(layers, monkeypatch):
    # special.jseq.miller_share reads the calls of the traced _jseq_miller;
    # a spherical_j_sequence that went past it straight to the shared kernel
    # would read 0 there, which the traced CI run (it checks for null) misses
    from collections import Counter

    import pbessel.special as special

    calls = []
    inner = special._jseq_miller

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(special, "_jseq_miller", counting)
    special.spherical_j_sequence(200, [5.0, 50.0])
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs == {} and len(args) == 2 and args[0] == 200
    c = Counter()
    layers._miller(args, kwargs, None, c)
    assert c["special.miller.args"] == 2


def test_build_reaches_quadrature_through_traced_names(layers, monkeypatch):
    # mesh.plain and mesh.guarded count the calls of these four names; a build
    # that reached the kernels past them would read 0 there, which the traced
    # CI run (it checks for null) would miss
    from collections import Counter

    from pbessel import UniformMesh, build_u0, make_potential
    from pbessel.coefficients import build_coefficient_tables

    names = [
        ("pbessel.coefficients", "_cumulative_values"),
        ("pbessel.coefficients", "_guarded_cumulative_values"),
        ("pbessel.spps", "_cumulative_values"),
        ("pbessel.spps", "_guarded_cumulative_values"),
    ]
    assert sorted(names) == sorted(layers.TARGETS["mesh.plain"] + layers.TARGETS["mesh.guarded"])
    calls = Counter()

    def counting(key, inner):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        return wrapper

    for mod, attr in names:
        module = importlib.import_module(mod)
        monkeypatch.setattr(module, attr, counting((mod, attr), getattr(module, attr)))

    p = make_potential("x^2", UniformMesh(np.pi, 2001), 1.5)
    assert calls == Counter({("pbessel.spps", "_guarded_cumulative_values"): 1})
    calls.clear()
    u0 = build_u0(p)
    assert calls == Counter({("pbessel.spps", "_cumulative_values"): 2 * u0.iterations})
    calls.clear()
    build_coefficient_tables(u0, p, 30)
    assert calls == Counter({
        ("pbessel.coefficients", "_cumulative_values"): 60,
        ("pbessel.coefficients", "_guarded_cumulative_values"): 60,
    })
