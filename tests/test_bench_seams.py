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
    from pbessel.coefficients import beta_recurrent, gamma_recurrent, recurrent_tables

    p = make_potential("x^2", UniformMesh(np.pi, 501), 1.5)
    u0 = build_u0(p)
    betas, gammas = recurrent_tables(u0, p, 12)
    assert beta_recurrent(u0, p, 12).tobytes() == betas.tobytes()
    assert gamma_recurrent(u0, p, 12).tobytes() == gammas.tobytes()
