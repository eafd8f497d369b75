"""Mesh construction and cumulative quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbessel import (
    GridFunction,
    InvalidMeshError,
    UniformMesh,
    cumulative_integral,
    cumulative_integral_guarded,
    cutoff_start_index,
    next_valid_size,
)
from pbessel.errors import DomainError
from pbessel.mesh import _CUM_W_DEN, _CUM_W_NUM, _cumulative_values, _cutoff_index

EPS = np.finfo(float).eps


def grid(b, m, func):
    mesh = UniformMesh(b, m)
    return mesh, GridFunction(mesh, func(mesh.x))


class TestMeshConstruction:
    def test_points(self):
        mesh = UniformMesh(np.pi, 101)
        assert mesh.x[0] == 0.0
        assert mesh.x[-1] == np.pi
        assert np.allclose(np.diff(mesh.x), mesh.h, rtol=1e-15)

    @pytest.mark.parametrize("m", [5, 4, 0])
    def test_too_small(self, m):
        with pytest.raises(InvalidMeshError):
            UniformMesh(1.0, m)

    @pytest.mark.parametrize("m", [7, 10, 20000])
    def test_bad_modulus(self, m):
        with pytest.raises(InvalidMeshError):
            UniformMesh(1.0, m)

    def test_bad_endpoint(self):
        with pytest.raises(DomainError):
            UniformMesh(-1.0, 11)
        with pytest.raises(DomainError):
            UniformMesh(np.inf, 11)

    @pytest.mark.parametrize("m,expected", [(6, 6), (7, 11), (20000, 20001), (20001, 20001), (2, 6)])
    def test_round_up(self, m, expected):
        assert next_valid_size(m) == expected
        UniformMesh(1.0, next_valid_size(m))  # must construct

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_grid_and_samples_in_dtype(self, dtype):
        # the float64 points cast exactly, h = b/(m-1) rounded once in the
        # dtype; samples keep longdouble, and any other input becomes float64
        mesh = UniformMesh(np.pi, 2001)
        x, h = mesh.grid(dtype)
        assert x.dtype == dtype and np.array_equal(x, mesh.x)
        assert h == dtype(np.pi) / dtype(2000)
        assert GridFunction(mesh, x).values.dtype == dtype
        assert GridFunction(mesh, x.astype(np.float32)).values.dtype == np.float64

    def test_gridfunction_rejects_nonfinite(self):
        mesh = UniformMesh(1.0, 11)
        bad = np.zeros(11)
        bad[3] = np.nan
        with pytest.raises(DomainError):
            GridFunction(mesh, bad)

    def test_gridfunction_shape_check(self):
        mesh = UniformMesh(1.0, 11)
        with pytest.raises(DomainError):
            GridFunction(mesh, np.zeros(10))

    def test_gridfunction_immutable(self):
        mesh = UniformMesh(1.0, 11)
        f = GridFunction(mesh, np.ones(11))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, 1e308])
    def test_index_of_unrepresentable_position(self, x):
        with pytest.raises(DomainError):
            UniformMesh(np.pi, 101).index_of(x)


class TestCumulativeIntegral:
    def test_zero_integrand(self):
        _, f = grid(np.pi, 101, lambda x: np.zeros_like(x))
        assert np.all(cumulative_integral(f).values == 0.0)

    def test_quintic_exact_at_endpoint(self):
        _, f = grid(1.0, 5001, lambda x: 5.0 * x**4)
        F = cumulative_integral(f)
        assert abs(F.at_end - 1.0) <= 10 * EPS

    def test_sin_endpoint(self):
        _, f = grid(np.pi, 5001, lambda x: np.sin(x))
        F = cumulative_integral(f)
        assert abs(F.at_end - 2.0) < 1e-12

    @pytest.mark.parametrize("k", range(6))
    def test_monomial_exactness(self, k):
        # max_i |F_i - x_i^{k+1}/(k+1)| <= 50 eps x_i^{k+1} + 50 eps
        mesh, f = grid(2.0, 501, lambda x: x**k)
        F = cumulative_integral(f).values
        exact = mesh.x ** (k + 1) / (k + 1)
        assert np.all(np.abs(F - exact) <= 50 * EPS * exact + 50 * EPS)

    def test_interior_points_quintic(self):
        # every mesh point, not just panel ends, carries the exact antiderivative
        mesh, f = grid(1.0, 26, lambda x: x**5 - 3 * x**3 + x)
        F = cumulative_integral(f).values
        exact = mesh.x**6 / 6 - 3 * mesh.x**4 / 4 + mesh.x**2 / 2
        assert np.max(np.abs(F - exact)) < 100 * EPS

    def test_convergence_order_float64(self):
        # halving h on cos x must reduce the max error by >= 2^5; measured at a
        # pair coarse enough that the h^6 truncation error sits above the
        # float64 rounding floor (at m=1251 it is ~1e-18, far below ~2e-16)
        errs = []
        for m in (181, 361):
            mesh, f = grid(np.pi, m, np.cos)
            F = cumulative_integral(f).values
            errs.append(np.max(np.abs(F - np.sin(mesh.x))))
        assert errs[0] / errs[1] >= 32.0

    def test_convergence_order_spec_pair_exact_arithmetic(self):
        # the documented reference pair (m = 1251 vs 2501), with the rule's own error
        # made measurable by evaluating its exact rational weights in mpmath
        import oracles

        e1 = oracles.quadrature_max_error_exact(1251)
        e2 = oracles.quadrature_max_error_exact(2501)
        assert float(e1 / e2) >= 32.0

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps == EPS, reason="longdouble is float64 on this platform"
    )
    def test_longdouble_samples_get_longdouble_weights(self):
        # x^5 is integrated exactly by the panel quintics, so only rounding
        # is left: a few longdouble ulps with the weights rounded in
        # longdouble, ~3.7e-18 with the weights rounded in float64
        ld = np.longdouble
        m = 501
        x = np.arange(m, dtype=ld) / ld(m - 1)
        F = _cumulative_values(x**5, ld(1) / ld(m - 1))
        exact = x**6 / 6
        assert F.dtype == ld
        assert np.max(np.abs(F - exact)) <= 8 * np.finfo(ld).eps * np.max(exact)
        # a caller's row gets the same values and signs
        row = np.full(m, np.nan, dtype=ld)
        assert _cumulative_values(x**5, ld(1) / ld(m - 1), out=row) is row
        assert np.array_equal(row, F) and np.array_equal(np.signbit(row), np.signbit(F))
        # two identical calls give the same bytes, padding included (where
        # longdouble is float64 there is no padding to test)
        if np.finfo(ld).nmant > np.finfo(float).nmant:
            assert _cumulative_values(x**5, ld(1) / ld(m - 1)).tobytes() == F.tobytes()

    @pytest.mark.parametrize("m", [6, 11, 2001])
    def test_matches_panel_formula(self, m):
        # the in-place panel sweep against the plain formula: windows
        # (P, 6) times the weights, scaled by h, shifted by the preceding
        # panel ends.  Within one ulp of the size of the summed terms; with
        # two or more panels both are the same matrix product and agree
        # bit for bit (a single panel is a vector product, whose summation
        # order follows the weight layout)
        W = np.array(_CUM_W_NUM, dtype=float) / _CUM_W_DEN
        y = np.random.default_rng(m).standard_normal(m)
        h = np.pi / (m - 1)
        panels = np.lib.stride_tricks.sliding_window_view(y, 6)[::5]
        inc = h * (panels @ W.T)
        starts = np.concatenate(([0.0], np.cumsum(inc[:, 4])[:-1]))
        expected = np.concatenate(([0.0], (starts[:, None] + inc).ravel()))
        size = np.abs(starts)[:, None] + h * (np.abs(panels) @ np.abs(W).T)
        size = np.concatenate(([0.0], size.ravel()))
        got = _cumulative_values(y, h)
        assert np.all(np.abs(got - expected) <= np.spacing(size))
        if m > 6:
            assert got.tobytes() == expected.tobytes()
        # written into a caller's row: that row, every entry, the same bits
        row = np.full(m, np.nan)
        assert _cumulative_values(y, h, out=row) is row
        assert row.tobytes() == got.tobytes()

    def test_signed_zero_of_underflowed_first_panels(self):
        # subnormal samples whose scaled increments underflow to -0.0 in the
        # first two panels: the plain formula shifts panel 0 by +0.0 (so it
        # reads +0.0) and panel 1 by the unshifted end of panel 0 (-0.0)
        W = np.array(_CUM_W_NUM, dtype=float) / _CUM_W_DEN
        y = np.random.default_rng(5).standard_normal(21)
        y[:11] = -1e-310
        h = 1e-20
        inc = h * (np.lib.stride_tricks.sliding_window_view(y, 6)[::5] @ W.T)
        starts = np.concatenate(([0.0], np.cumsum(inc[:, 4])[:-1]))
        expected = np.concatenate(([0.0], (starts[:, None] + inc).ravel()))
        assert np.all(inc[:2] == 0.0) and np.all(np.signbit(inc[:2]))
        got = _cumulative_values(y, h)
        assert not np.signbit(got[1:6]).any() and np.signbit(got[6:11]).all()
        assert got.tobytes() == expected.tobytes()

    def test_strided_input(self):
        # the panel and window views follow the input's own stride
        rng = np.random.default_rng(7)
        y = rng.standard_normal(4002)
        y[::2] = _first_pass_at(2001, 700, rng)
        F = _cumulative_values(y[::2], 0.01)
        assert F.tobytes() == _cumulative_values(y[::2].copy(), 0.01).tobytes()
        row = np.full(2001, np.nan)
        assert _cumulative_values(y[::2], 0.01, out=row) is row
        assert row.tobytes() == F.tobytes()
        assert cutoff_start_index(y[::2]) == 700

    def test_fine_mesh_error_at_rounding_floor(self):
        # documents the defect analysis: at m = 1251 the float64 result is
        # rounding-noise limited, so the measured "error" is just the floor
        mesh, f = grid(np.pi, 1251, np.cos)
        F = cumulative_integral(f).values
        assert np.max(np.abs(F - np.sin(mesh.x))) < 5e-15

    @pytest.mark.parametrize(
        "func",
        [
            lambda x: 1.0 + 0.99 * np.sin(3 * x),
            lambda x: x**2 * (2.0 + np.cos(5 * x)),
            lambda x: np.exp(-x) * (1.0 + np.sin(4 * x) ** 2),
        ],
    )
    def test_monotone_for_nonnegative(self, func):
        # holds for mesh-resolved integrands; the quintic panel weights carry
        # negative entries, so unresolved sample noise can locally overshoot
        mesh, f = grid(1.0, 101, func)
        assert np.all(f.values >= 0.0)
        F = cumulative_integral(f).values
        assert np.all(np.diff(F) >= -1e-14 * max(1.0, F[-1]))

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-3, 3, allow_nan=False),
        c=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    def test_linearity(self, a, c, seed):
        rng = np.random.default_rng(seed)
        mesh = UniformMesh(2.0, 56)
        fv, gv = rng.standard_normal((2, mesh.m))
        lhs = cumulative_integral(GridFunction(mesh, a * fv + c * gv)).values
        rhs = a * cumulative_integral(GridFunction(mesh, fv)).values + c * cumulative_integral(
            GridFunction(mesh, gv)
        ).values
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) <= 200 * EPS * scale


class TestCutoff:
    def test_constant_passes_first(self):
        _, f = grid(1.0, 101, lambda x: np.ones_like(x))
        assert cutoff_start_index(f) == 0

    def test_quintic_passes_first(self):
        _, f = grid(1.0, 101, lambda x: 3 * x**5 - x**4 + 2 * x**2 - 7)
        assert cutoff_start_index(f) == 0

    def test_corrupted_prefix_skipped(self):
        # models the real failure mode of 1/u0^2 integrands: oscillating junk
        # that blows up toward the origin (steep within-window dynamic range
        # is what the Delta5-vs-second-smallest comparison detects; same-scale
        # noise is invisible to it since |Delta5| <= 32 max|y|)
        mesh = UniformMesh(1.0, 501)
        y = np.empty(mesh.m)
        y[1:] = mesh.x[1:] ** (-0.5)
        y[0] = 0.0
        i = np.arange(10)
        y[:10] = 1e6 * (-1.0) ** i * (10.0 - i) ** 6
        idx = cutoff_start_index(GridFunction(mesh, y))
        assert idx >= 10

    def test_all_zero_passes(self):
        _, f = grid(1.0, 11, lambda x: np.zeros_like(x))
        assert cutoff_start_index(f) == 0

    def test_no_window_passes(self):
        # alternating +-1 blow-up keeps Delta5 ~ 32 x the sample size with slack 1
        mesh = UniformMesh(1.0, 11)
        y = np.array([1.0, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1])
        assert _cutoff_index(y, 1.0) == mesh.m - 6


def _full_scan_cutoff(y, slack):
    """Reference: screen every window at once and take the first pass."""
    windows = np.lib.stride_tricks.sliding_window_view(y, 6)
    d5 = np.abs(windows @ np.array([1.0, -5.0, 10.0, -10.0, 5.0, -1.0]))
    second_smallest = np.partition(np.abs(windows), 1, axis=1)[:, 1]
    hits = np.flatnonzero(d5 <= slack * second_smallest)
    return int(hits[0]) if hits.size else y.shape[0] - 6


def _first_pass_at(m, k, rng):
    # zeros from index k on, so window k is the first all-zero (passing) one;
    # one nonzero in every window before it, which fails with two zeros beside it
    y = np.zeros(m)
    y[k - 1 :: -6] = rng.uniform(0.5, 2.0, size=len(range(k - 1, -1, -6)))
    return y


class TestChunkedCutoffScan:
    """The chunked early-exit scan returns the full scan's index."""

    def test_random_inputs_match_full_scan(self):
        rng = np.random.default_rng(20240611)
        for _ in range(300):
            m = int(rng.choice([6, 11, 36, 41, 201, 1001, 5001]))
            # log-uniform magnitudes make many windows fail, so hits land in
            # every chunk and often nowhere (about half the cases return m-6)
            y = rng.normal(size=m) * 10.0 ** rng.integers(-6, 6, size=m)
            slack = float(rng.choice([100.0, 1e3, 1e4]))
            assert _cutoff_index(y, slack) == _full_scan_cutoff(y, slack)

    @pytest.mark.parametrize("k", [31, 32, 159, 160, 161, 673])
    def test_first_hit_at_chunk_boundary(self, k):
        y = _first_pass_at(1001, k, np.random.default_rng(k))
        assert _full_scan_cutoff(y, 100.0) == k
        assert cutoff_start_index(y) == k

    def test_hit_only_in_last_window(self):
        m = 1001
        y = _first_pass_at(m, m - 6, np.random.default_rng(1))
        assert _full_scan_cutoff(y, 100.0) == m - 6
        assert cutoff_start_index(y) == m - 6

    def test_no_hit_returns_m_minus_6(self):
        m = 1001
        y = _first_pass_at(m + 1, m, np.random.default_rng(2))[:m]
        windows = np.lib.stride_tricks.sliding_window_view(y, 6)
        assert (np.count_nonzero(windows, axis=1) == 1).all()  # every window fails
        assert cutoff_start_index(y) == m - 6


class TestGuardedIntegral:
    def test_smooth_identical(self):
        _, f = grid(np.pi, 101, np.cos)
        assert np.array_equal(
            cumulative_integral_guarded(f).values, cumulative_integral(f).values
        )

    def test_zero(self):
        _, f = grid(1.0, 11, lambda x: np.zeros_like(x))
        assert np.all(cumulative_integral_guarded(f).values == 0.0)

    def test_corrupted_prefix_suppressed(self):
        mesh = UniformMesh(1.0, 501)
        clean = np.empty(mesh.m)
        clean[1:] = mesh.x[1:] ** (-0.5)
        clean[0] = 0.0
        corrupted = clean.copy()
        i = np.arange(10)
        corrupted[:10] = 1e6 * (-1.0) ** i * (10.0 - i) ** 6

        f_bad = GridFunction(mesh, corrupted)
        assert cutoff_start_index(f_bad) > 0
        F_bad = cumulative_integral_guarded(f_bad).values
        F_ref = cumulative_integral(GridFunction(mesh, clean)).values
        # the kernel zeroes the prefix of a copy, not of the caller's samples
        assert f_bad.values.tobytes() == corrupted.tobytes()

        assert np.all(np.isfinite(F_bad))
        # no 1e6-scale jump at the origin; tail increments agree with the
        # uncorrupted reference because only the prefix was zeroed
        assert np.max(np.abs(F_bad[:20])) < 1.0
        tail_bad = F_bad[50:] - F_bad[50]
        tail_ref = F_ref[50:] - F_ref[50]
        assert np.max(np.abs(tail_bad - tail_ref)) < 1e-12
