"""Coefficient tables: recurrent scheme, direct formulas, truncation selection."""

import platform
import tracemalloc

import numpy as np
import pytest

from pbessel import UniformMesh
from pbessel.coefficients import (
    _TINY,
    build_coefficient_tables,
    select_truncation,
)
from pbessel.errors import DomainError, NumericalBreakdownError
from pbessel.mesh import _cumulative_values, _guarded_cumulative_values
from pbessel.potentials import make_potential
from pbessel.spectral import decay_fit
from pbessel.special import _bn_table, gamma_ratio_Bn
from pbessel.spps import build_u0

import oracles

MESH = UniformMesh(np.pi, 20001)


@pytest.fixture(scope="module")
def xsq_15():
    p = make_potential("x^2", MESH, 1.5)
    u0 = build_u0(p)
    return p, u0


@pytest.fixture(scope="module")
def xsq_15_tables(xsq_15):
    p, u0 = xsq_15
    return build_coefficient_tables(u0, p, N=100)


class TestUnperturbed:
    def test_all_coefficients_vanish(self):
        mesh = UniformMesh(np.pi, 501)
        for l in (0.0, 1.5):
            p = make_potential("zero", mesh, l)
            u0 = build_u0(p)
            tables = build_coefficient_tables(u0, p, N=20)
            assert np.max(np.abs(tables.beta)) <= 1e-10
            assert np.max(np.abs(tables.gamma)) <= 1e-10
            assert tables.N_opt == 0


class TestTableLayout:
    def test_dense_read_only_tables(self):
        mesh = UniformMesh(np.pi, 501)
        p = make_potential("x^2", mesh, 1.5)
        u0 = build_u0(p)
        tables = build_coefficient_tables(u0, p, N=12)
        for table in (tables.beta, tables.gamma):
            assert table.shape == (13, mesh.m)
            assert table.dtype == np.float64
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[3, 7] = 1.0
            with pytest.raises(ValueError):
                table[2] *= 2.0
        assert tables.mesh == mesh

    @pytest.mark.parametrize(
        "spec,l,b,N",
        [("x^2", 1.5, np.pi, 30), ("1/x", 1.0, np.pi, 30), ("x^2", -0.5, np.pi, 30),
         # b = 0.1: x^{200} underflows on 710 of 2001 points, so the loop's
         # prefix zero set meets the transcription's `den > _TINY` masks
         ("x^2", 1.5, 0.1, 100),
         # integer l: the build skips kappa_n, mu_n and the C_n Q term where
         # B_n = 0 (n >= l+2), the transcription integrates and weighs them all
         ("x^2", 0.0, np.pi, 100), ("x^2", 2.0, np.pi, 100)],
        ids=["x^2-1.5", "1/x-1.0", "x^2--0.5", "x^2-1.5-short", "x^2-0.0", "x^2-2.0"],
    )
    def test_matches_plain_transcription(self, spec, l, b, N):
        mesh = UniformMesh(b, 2001)
        p = make_potential(spec, mesh, l)
        u0 = build_u0(p)
        tables = build_coefficient_tables(u0, p, N=N)
        betas, gammas = plain_recurrence(u0, p, N)
        assert tables.beta.tobytes() == betas.tobytes()
        assert tables.gamma.tobytes() == gammas.tobytes()

    @pytest.mark.parametrize(
        "spec,l,b",
        [("x^2", 1.5, np.pi), ("1/x", 1.0, np.pi), ("const:1", 1.5, np.pi), ("x^2", 1.5, 0.1)],
        ids=["x^2-1.5", "1/x-1.0", "const:1-1.5", "x^2-1.5-short"],
    )
    def test_gamma_matches_four_term_formula(self, spec, l, b):
        # gamma_n from beta_n's bracket against its four separate terms: the
        # same value in exact arithmetic, so column b differs by rounding
        # alone.  Measured (m = 2001, N = 100), relative to max |gamma_n(b)|:
        # 1.0e-13, 7.5e-14, 1.3e-13 and 2.9e-14; the bound leaves ~4x margin
        # over the largest.  beta does not depend on gamma's form at all.
        mesh = UniformMesh(b, 2001)
        p = make_potential(spec, mesh, l)
        u0 = build_u0(p)
        t = build_coefficient_tables(u0, p, 100)
        betas, gammas = t.beta, t.gamma
        ref_b, ref_g = plain_recurrence(u0, p, 100, four_term_gamma=True)
        assert betas.tobytes() == ref_b.tobytes()
        gap = np.abs(gammas[:, -1] - ref_g[:, -1]).max()
        assert gap <= 5e-13 * np.abs(ref_g[:, -1]).max()

    def test_build_keeps_no_per_order_auxiliaries(self):
        # a build holds its two tables plus a few rows of one order's
        # integrals; keeping every order's eta, kappa, theta and mu would add
        # 4 N rows (~208 rows over the tables here).  A full build recurs in
        # the tables' own rows: its peak is 18 rows over the tables (ten of
        # them the recurrence's block), against 23 while it kept two working
        # rows per family and copied them into the tables
        mesh = UniformMesh(np.pi, 4001)
        p = make_potential("x^2", mesh, 1.5)
        u0 = build_u0(p)
        build_coefficient_tables(u0, p, N=50)  # warm caches outside the trace
        tracemalloc.start()
        try:
            tables = build_coefficient_tables(u0, p, N=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tables.beta.nbytes + tables.gamma.nbytes + 22 * 8 * mesh.m

    @pytest.mark.parametrize("l,calls", [(1.0, 32), (1.5, 60)])
    def test_integrates_only_what_Bn_weighs(self, monkeypatch, l, calls):
        # each order integrates eta_n (plain) and theta_n (guarded); kappa_n
        # (plain) and mu_n (guarded) only where B_n is nonzero.  At N = 30
        # that is 2 x 30 calls of each kernel for l = 3/2, and 2 x 2 + 28 for
        # l = 1, whose B_n vanishes from n = 3 on; a column subset runs the
        # same pass
        from pbessel import coefficients

        mesh = UniformMesh(np.pi, 2001)
        p = make_potential("x^2", mesh, l)
        u0 = build_u0(p)
        counts = {}
        for name in ("_cumulative_values", "_guarded_cumulative_values"):
            def counted(*args, _kernel=getattr(coefficients, name), _name=name, **kwargs):
                counts[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(coefficients, name, counted)
        for cols in (None, [mesh.m - 1]):
            counts.update(_cumulative_values=0, _guarded_cumulative_values=0)
            build_coefficient_tables(u0, p, 30, cols)
            assert counts == {"_cumulative_values": calls, "_guarded_cumulative_values": calls}

    @pytest.mark.parametrize("spec,l", [("x^2", 1.5), ("1/x", 1.0), ("x^2", -0.5)])
    def test_rows_independent_of_table_size(self, spec, l):
        # row n depends only on rows < n: a row written while an earlier one
        # is still being read would break the prefix, bit for bit
        mesh = UniformMesh(np.pi, 2001)
        p = make_potential(spec, mesh, l)
        u0 = build_u0(p)
        small = build_coefficient_tables(u0, p, N=30)
        large = build_coefficient_tables(u0, p, N=100)
        assert small.beta.tobytes() == large.beta[:31].tobytes()
        assert small.gamma.tobytes() == large.gamma[:31].tobytes()
        # a numpy integer N builds the same table
        numpy_n = build_coefficient_tables(u0, p, N=np.int64(30))
        assert numpy_n.beta.tobytes() == small.beta.tobytes()
        assert numpy_n.gamma.tobytes() == small.gamma.tobytes()

    @pytest.mark.parametrize("N", [10.0, 10.5, "10", None, -1, np.int64(-1)])
    def test_N_not_a_nonnegative_integer(self, N):
        # 10.0 and 10.5 once raised TypeError from range(), "10" a '<' TypeError
        mesh = UniformMesh(np.pi, 201)
        p = make_potential("x^2", mesh, 1.5)
        u0 = build_u0(p)
        with pytest.raises(DomainError, match="N must be nonnegative and an integer"):
            build_coefficient_tables(u0, p, N=N)
        for n in (np.int32(3), np.uint8(3), 3):
            assert build_coefficient_tables(u0, p, n).beta.shape == (4, mesh.m)


#: the column-subset cases: (potential, l) at m = 2001, N = 60
SUBSET_CASES = [("x^2", 1.5), ("x^2", -0.5), ("1/x", 1.0), ("const:1", 2.5), ("x^2", 0.0)]


class TestColumnSubset:
    @pytest.mark.parametrize("spec,l", SUBSET_CASES)
    def test_kept_columns_equal_full_build(self, spec, l):
        mesh = UniformMesh(np.pi, 2001)
        p = make_potential(spec, mesh, l)
        u0 = build_u0(p)
        full = build_coefficient_tables(u0, p, 60)
        strided = np.append(np.arange(0, mesh.m - 1, 7), mesh.m - 1)
        for cols in (strided, np.array([mesh.m - 1])):
            sub = build_coefficient_tables(u0, p, 60, cols)
            assert sub.beta.shape == sub.gamma.shape == (61, cols.size)
            assert sub.beta.tobytes() == full.beta[:, cols].tobytes()
            assert sub.gamma.tobytes() == full.gamma[:, cols].tobytes()

    def test_tables_record_their_columns(self):
        mesh = UniformMesh(np.pi, 2001)
        p = make_potential("x^2", mesh, 1.5)
        u0 = build_u0(p)
        full = build_coefficient_tables(u0, p, N=30)
        cols = [0, 500, 1996, 1997, 1998, 1999, 2000]
        asked = np.array(cols)
        sub = build_coefficient_tables(u0, p, N=30, columns=asked)
        assert full.columns is None
        assert np.array_equal(sub.columns, cols) and not sub.columns.flags.writeable
        assert asked.flags.writeable  # the tables keep a copy, not the caller's array
        assert not sub.beta.flags.writeable and not sub.gamma.flags.writeable
        # the residuals read x = b, the last kept column, in both
        assert sub.beta_residual.tobytes() == full.beta_residual.tobytes()
        assert sub.gamma_residual.tobytes() == full.gamma_residual.tobytes()
        assert (sub.N_opt, sub.converged) == (full.N_opt, full.converged)

    @pytest.mark.parametrize(
        "cols", [[0, 10], [], np.array([], dtype=np.uint32)], ids=["no-b", "empty", "empty-uint"]
    )
    def test_b_appended(self, cols):
        # the residuals read x = b, so the build keeps it whether asked or not
        mesh = UniformMesh(np.pi, 2001)
        p = make_potential("x^2", mesh, 1.5)
        u0 = build_u0(p)
        full = build_coefficient_tables(u0, p, N=20)
        sub = build_coefficient_tables(u0, p, N=20, columns=cols)
        kept = np.append(np.asarray(cols, dtype=int), mesh.m - 1)
        assert np.array_equal(sub.columns, kept) and sub.columns.dtype.kind == "i"
        assert sub.beta.tobytes() == full.beta[:, kept].tobytes()
        assert sub.gamma.tobytes() == full.gamma[:, kept].tobytes()
        assert sub.beta_residual.tobytes() == full.beta_residual.tobytes()
        assert sub.N_opt == full.N_opt

    @pytest.mark.parametrize(
        "cols",
        [[2000, 1999], np.array([5, 3], dtype=np.uint32), [5, 5, 2000], [-1, 2000], [0, 2001],
         [[2000]], [0.0, 2000.0]],
        ids=["unsorted", "unsorted-uint", "repeated", "negative", "past-b", "2-d", "float"],
    )
    def test_bad_columns(self, cols):
        mesh = UniformMesh(np.pi, 2001)
        p = make_potential("x^2", mesh, 1.5)
        with pytest.raises(DomainError, match="columns"):
            build_coefficient_tables(build_u0(p), p, 5, cols)

    def test_breakdown_on_one_column_names_full_row_order(self):
        # the finiteness check reads the full row of the ring, whether the
        # ring is the tables themselves (columns=None) or two scratch rows
        # per family, so a build that keeps only x = b breaks down where
        # the full build does: the same family at the same order
        mesh = UniformMesh(30.0, 2001)
        p = make_potential("1/x", mesh, -0.5)
        u0 = build_u0(p)
        errors = []
        for cols in ([mesh.m - 1], None):
            with pytest.raises(NumericalBreakdownError) as exc:
                build_coefficient_tables(u0, p, 100, cols)
            errors.append((str(exc.value), exc.value.order))
        assert errors[0] == errors[1]


def plain_recurrence(u0, p, N, four_term_gamma=False):
    """The recurrences transcribed out of place, one temporary per term.

    Kept as the reference for the in-place loop of ``build_coefficient_tables``:
    the same products and sums in the same grouping, so the tables must
    agree bit for bit.  gamma_n reuses beta_n's bracket
    Lam_n/x^{2n} = (2(4n-1) theta_n + (-1)^n (4n-3) B_n mu_n)/x^{2n}.
    ``four_term_gamma`` instead writes gamma_n from its four separate terms,

        r_n (gamma_{n-1} + (4n-1)(2 u0' theta_n/x^{2n} + 2 eta_n/(u0 x^{2n})
        - beta_{n-1}/x)) + (-1)^n (4n+1) (B_n (mu_n u0' + kappa_n/u0)/x^{2n}
        - C_n Q x^{l+1}),

    the same value in exact arithmetic (r_n (4n-3) = 4n+1), rounded
    differently; beta is the same either way.
    """

    def safe_div(num, den):
        out = np.zeros_like(num)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(num, den, out=out, where=den > _TINY)
        return out

    x, h, l = u0.mesh.x, u0.mesh.h, u0.l
    u0v, u0pv, qv = u0.u0.values, u0.u0_prime.values, p.q.values
    xl1 = x ** (l + 1.0)
    betas = np.empty((N + 1, x.size))
    gammas = np.empty((N + 1, x.size))
    betas[0] = u0v - xl1
    with np.errstate(divide="ignore"):
        xl = x**l
    gammas[0] = u0pv - (l + 1.0) * xl - p.Q.values * xl1 / 2.0
    gammas[0, 0] = 0.0
    t2n = np.ones_like(x)
    for n in range(1, N + 1):
        t2nm2 = t2n
        t2nm1 = t2nm2 * x
        t2n = t2nm1 * x
        eta_int = (x * u0pv + (2 * n - 1) * u0v) * t2nm2 * betas[n - 1]
        eta_int[0] = 0.0
        eta = _cumulative_values(eta_int, h)
        kappa_int = u0v * qv * t2n * xl1
        kappa_int[0] = 0.0
        kappa = _cumulative_values(kappa_int, h)
        theta_int = safe_div(eta - t2nm1 * betas[n - 1] * u0v, u0v * u0v)
        theta_int[0] = 0.0
        theta, _ = _guarded_cumulative_values(theta_int, h)
        mu_int = safe_div(kappa, u0v * u0v)
        mu_int[0] = 0.0
        mu, _ = _guarded_cumulative_values(mu_int, h)
        sign = -1.0 if n % 2 else 1.0
        b_n = gamma_ratio_Bn(n, l)
        c_n = 0.5 * b_n
        r_n = (4 * n + 1) / (4 * n - 3)
        lam = safe_div(2.0 * (4 * n - 1) * theta + sign * (4 * n - 3) * b_n * mu, t2n)
        betas[n] = r_n * (betas[n - 1] + u0v * lam)
        betas[n, 0] = 0.0
        if four_term_gamma:
            inner = (4 * n - 1) * (
                2.0 * u0pv * safe_div(theta, t2n)
                + 2.0 * safe_div(eta, u0v * t2n)
                - safe_div(betas[n - 1], x)
            )
            tail = b_n * safe_div(mu * u0pv + safe_div(kappa, u0v), t2n) - c_n * (p.Q.values * xl1)
            gammas[n] = r_n * (gammas[n - 1] + inner) + sign * (4 * n + 1) * tail
        else:
            e_n = 2.0 * (4 * n - 1) * eta + sign * (4 * n - 3) * b_n * kappa
            gammas[n] = r_n * (
                gammas[n - 1] + u0pv * lam + safe_div(e_n, u0v * t2n)
                - (4 * n - 1) * safe_div(betas[n - 1], x)
            ) - sign * (4 * n + 1) * c_n * (p.Q.values * xl1)
        gammas[n, 0] = 0.0
    return betas, gammas


class TestRecurrentVsDirect:
    def test_beta0_is_u0_minus_power(self, xsq_15):
        p, u0 = xsq_15
        betas = build_coefficient_tables(u0, p, 0).beta
        assert betas[0][-1] == pytest.approx(u0.u0.at_end - np.pi**2.5, rel=1e-14)

    def test_gamma0_forms_agree(self, xsq_15):
        # gamma_0 = u0' - (l+1) x^l - Q x^{l+1}/2, row 0 of the recurrent table
        p, u0 = xsq_15
        expected = (
            u0.u0_prime.at_end
            - 2.5 * np.pi**1.5
            - p.Q.at_end * np.pi**2.5 / 2.0
        )
        gammas = build_coefficient_tables(u0, p, 0).gamma
        assert gammas[0][-1] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("l", [1.5, 1.0])
    def test_extended_direct_cross_check(self, l):
        # both families, n = 0..8, against the extended-precision direct
        # route.  The single cell (l=1, n=8), the closest to the bound, is
        # asserted in the literal test below.
        mesh = UniformMesh(np.pi, 20001)
        p = make_potential("x^2", mesh, l)
        u0 = build_u0(p)
        t = build_coefficient_tables(u0, p, 8)
        betas, gammas = t.beta, t.gamma
        bd, gd = oracles.extended_direct_reference(l)
        for n in range(9):
            if not (l == 1.0 and n == 8):
                assert abs(betas[n][-1] - bd[n]) <= 1e-6 * abs(bd[n])
            assert abs(gammas[n][-1] - gd[n]) <= 1e-6 * abs(gd[n])

    def test_extended_direct_cross_check_literal_l1(self):
        mesh = UniformMesh(np.pi, 20001)
        p = make_potential("x^2", mesh, 1.0)
        u0 = build_u0(p)
        betas = build_coefficient_tables(u0, p, 8).beta
        bd, _ = oracles.extended_direct_reference(1.0)
        assert abs(betas[8][-1] - bd[8]) <= 1e-6 * abs(bd[8])

    def test_direct_order_cap(self, xsq_15):
        p, _ = xsq_15
        with pytest.raises(DomainError, match="direct formulas limited to n <= 12"):
            oracles.direct_coefficients_extended(p, 13)


def test_longdouble_references_run_on_x86_64():
    # the longdouble references skip where longdouble is float64 (arm64
    # macOS, Windows); on x86-64 Linux it is the 80-bit format, so there a
    # skip would hide them: fail instead
    if platform.machine() == "x86_64":
        assert np.finfo(np.longdouble).eps < 1e-18


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18,
    reason="longdouble is no wider than float64 here, so the oracle shows no float64 noise",
)
@pytest.mark.parametrize(
    "spec,l,beta_bound,gamma_bound",
    [("x^2", 1.5, 3.1e-12, 1.3e-10), ("1/x", 1.0, 4.0e-13, 3.4e-10)],
    ids=["x^2-1.5", "1/x-1.0"],
)
def test_float64_noise_against_longdouble_recurrence(spec, l, beta_bound, gamma_bound):
    # per row n, |float64 - longdouble| at x = b relative to the family's
    # scale max_n |longdouble_n(b)|, at m = 2001, N = 100, the longdouble
    # column from the library's own build in that dtype.  Measured (x86-64,
    # 80-bit longdouble): x^2 l=1.5 beta 1.5e-12, gamma 1.2e-10 (both at
    # n = 100); 1/x l=1 beta 8.8e-14 (n = 60), gamma 1.7e-10 (n = 97).  The
    # bounds are ~2x the draws of the Picard update they were set on.
    # Each bound against its rounding spread, the draw plus 8 re-rolls of u0
    # by (1 + s_k 2^-52), s_k = (-1)^floor((k + j) phi), j = 1..8:
    # x^2 l=1.5 beta was 1.0e-12 on the draw 4.8e-13 (re-rolls 1.3e-13 ...
    # 5.9e-13) and is 3.1e-12 on 1.5e-12 (re-rolls 1.8e-13 ... 1.3e-12);
    # its gamma bound 1.3e-10 sits inside its spread, 1.2e-10 (re-rolls
    # 3.0e-11 ... 1.9e-10)
    bl, gl = oracles.longdouble_recurrence(spec, l)
    p = make_potential(spec, UniformMesh(np.pi, 2001), l)
    t = build_coefficient_tables(build_u0(p), p, N=100)
    # values, not bytes: longdouble padding bytes are uninitialised
    beta_err = np.abs(t.beta[:, -1] - bl) / np.abs(bl).max()
    gamma_err = np.abs(t.gamma[:, -1] - gl) / np.abs(gl).max()
    assert beta_err.max() <= beta_bound
    assert gamma_err.max() <= gamma_bound
    # the oracle is no float64 copy: it tells the noise apart from zero
    assert beta_err.max() > 0.0 and gamma_err.max() > 0.0


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18,
    reason="longdouble is no wider than float64 here, so the oracle shows no float64 noise",
)
@pytest.mark.parametrize(
    "spec,l", [("x^2", 1.0), ("x^2", 1.5), ("x^2", 2.5), ("1/x", 1.0), ("const:1", 1.5)]
)
def test_shadow_noise_estimate_tracks_longdouble_noise(spec, l):
    # ROADMAP item 21, step 1: each family's largest row-wise estimate at
    # x = b against the largest |float64 - longdouble| at m = 2001, N = 100.
    # Measured ratios (x86-64, 80-bit longdouble), beta / gamma: x^2 l=1
    # 1.25 / 1.45, l=1.5 1.77 / 2.11, l=2.5 1.49 / 1.28; 1/x l=1 2.30 / 2.21;
    # const:1 l=1.5 1.71 / 2.45.  The bound is the item's 3x target, a margin
    # of 1.2x over the largest ratio and 3.7x under the smallest.  One
    # pattern alone reads 0.27 on x^2 l=2.5 gamma: single draws scatter
    bl, gl = oracles.longdouble_recurrence(spec, l)
    p = make_potential(spec, UniformMesh(np.pi, 2001), l)
    t = build_coefficient_tables(build_u0(p), p, N=100, columns=[])
    beta_est, gamma_est = oracles.shadow_noise_estimate(spec, l)
    assert beta_est.shape == gamma_est.shape == (101,)
    for est, table, ref in ((beta_est, t.beta, bl), (gamma_est, t.gamma, gl)):
        true = float(np.abs(table[:, -1] - ref).max())
        assert true / 3 <= est.max() <= 3 * true
    # a fixed sign pattern: a rerun gives the same bits
    again = oracles.shadow_noise_estimate(spec, l)
    assert again[0].tobytes() == beta_est.tobytes() and again[1].tobytes() == gamma_est.tobytes()


class TestDirectArguments:
    @pytest.fixture(scope="class")
    def small(self):
        return make_potential("x^2", UniformMesh(np.pi, 501), 1.5)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_nonfinite_x(self, small, x):
        with pytest.raises(DomainError):
            oracles.direct_coefficients_extended(small, 1, x=x)

    def test_origin_values_vanish(self, small):
        b, g = oracles.direct_coefficients_extended(small, 2, x=0.0)
        assert not b.any() and not g.any()

    @pytest.mark.parametrize("N", [-1, -2])
    def test_extended_negative_order(self, small, N):
        with pytest.raises(DomainError, match="N must be nonnegative"):
            oracles.direct_coefficients_extended(small, N)


class TestDecayBehavior:
    def test_decay_exponent_non_integer_l(self, xsq_15_tables):
        # |beta_n(pi)| ~ n^{-(2l+3)} for l = 3/2: slope -6 within +-0.5
        vals = np.abs(xsq_15_tables.beta[:, -1])
        r = decay_fit(vals[10:101], 10)
        assert abs(r - (-6.0)) <= 0.5

    def test_integer_l_acceleration(self):
        # l = 1 coefficients at n = 30 at least 100x below l = 1.5 ones
        p15, u015 = make_potential("x^2", MESH, 1.5), None
        u015 = build_u0(p15)
        b15 = build_coefficient_tables(u015, p15, 30).beta
        p10 = make_potential("x^2", MESH, 1.0)
        u010 = build_u0(p10)
        b10 = build_coefficient_tables(u010, p10, 30).beta
        assert abs(b10[30][-1]) <= 1e-2 * abs(b15[30][-1])

    def test_origin_growth_order(self, xsq_15_tables):
        # |beta_n(x)| <= c x^{l+1}: log-log slope over the first decade >= l + 0.8
        x = MESH.x
        for n in (1, 3, 7):
            vals = np.abs(xsq_15_tables.beta[n])
            i = np.arange(40, 400, 20)
            good = vals[i] > 0
            slope = np.polyfit(np.log(x[i][good]), np.log(vals[i][good]), 1)[0]
            assert slope >= 1.5 + 0.8

    def test_Bn_branch_off_for_integer_l(self):
        # for integer l the kappa/mu branch is exactly zero from n >= l+2, and
        # the build skips it where B_n is zero: there the zero must be an exact
        # +0.0, and no B_n may vanish at a half-integer or near-integer l
        assert all(gamma_ratio_Bn(n, 1.0) == 0.0 for n in range(3, 40))
        for dtype in (np.float64, np.longdouble):
            for l in (0.0, 1.0, 2.0, 5.0):
                bns = np.array(_bn_table(100, l, dtype)[1:], dtype)  # B_1, B_2, ...
                assert bns[: int(l) + 1].all()
                tail = bns[int(l) + 1 :]
                assert tail.size and not tail.any() and not np.signbit(tail).any()
            for l in (1.0 + 2.0**-40, -0.5, 0.5, 1.5, 2.5):
                assert np.array(_bn_table(100, l, dtype)[1:], dtype).all()


class TestResidualDiagnostics:
    def test_endpoint_vanishing_everywhere(self, xsq_15_tables):
        # |sum_n beta_n(x)/x| small at x = b/4, b/2, b, not only at b; each
        # family is summed to its own floor order
        t = xsq_15_tables
        for frac in (0.25, 0.5, 1.0):
            i = round(frac * (MESH.m - 1))
            x = MESH.x[i]
            bsum = abs(sum(t.beta[: t.beta_plateau + 1, i]) / x)
            gsum = abs(sum(t.gamma[: t.gamma_plateau + 1, i]) / x)
            bscale = max(abs(t.beta[:, i])) / x
            assert bsum <= 1e-6 * bscale
            assert gsum <= 1e-6 * bscale

    def test_residuals_reach_floor(self, xsq_15_tables):
        t = xsq_15_tables
        assert t.N_opt <= 100
        # residual at the truncation is far below the leading coefficient
        # scale even though the beta sequence has not bottomed out at N=100
        # (it still decays like K^-5 there, so the table flags not-converged)
        scale = max(abs(t.beta[:, -1])) / np.pi
        assert t.beta_residual[t.N_opt] <= 1e-10 * scale
        # the gamma sequence is V-shaped: floor strictly inside the table
        assert 0 < t.gamma_plateau < 100

    def test_gamma0_sign_regression(self, xsq_15):
        # the adopted sign gives sum of the omega=0 derivative series = u0';
        # the opposite sign (as misprinted in one place of the source
        # material) misses by Q x^{l+1}, which is far outside tolerance
        p, u0 = xsq_15
        g0 = build_coefficient_tables(u0, p, 0).gamma[0]
        x = MESH.x
        lead = 2.5 * x**1.5 + 0.5 * p.Q.values * x**2.5
        recovered = lead + g0
        assert np.max(np.abs(recovered - u0.u0_prime.values)) <= 1e-10 * np.max(
            np.abs(u0.u0_prime.values)
        )
        flipped = u0.u0_prime.values - 2.5 * x**1.5 + p.Q.values * x**2.5 / 2.0
        flipped[0] = 0.0
        wrong = lead + flipped
        assert np.max(np.abs(wrong - u0.u0_prime.values)) > 1e-2


class TestSelectTruncation:
    def test_zero_residuals(self):
        k, ok = select_truncation(np.zeros(41))
        assert (k, ok) == (0, True)

    def test_synthetic_floor(self):
        # 2^-k decay onto a 1e-12 floor: plateau where the decay meets the floor
        k = np.arange(101)
        r = 2.0 ** (-k) + 1e-12
        n_opt, ok = select_truncation(r)
        assert ok
        assert abs(n_opt - 37) <= 3

    def test_pure_decay_not_converged(self):
        r = 2.0 ** (-np.arange(61).astype(float))
        n_opt, ok = select_truncation(r)
        assert not ok
        assert n_opt == 60

    def test_short_table(self):
        n_opt, ok = select_truncation(np.array([1.0, 0.5, 0.4]))
        assert not ok

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 12: the residual plateau rule reads float64 noise, so "
        "one ulp in every B_n moves N_opt (x^2, m=2001: l=1 24 -> 38, l=2 12 -> 19)",
    )
    def test_truncation_stable_under_one_ulp_in_Bn(self, monkeypatch):
        from pbessel import coefficients

        mesh = UniformMesh(np.pi, 2001)
        ps = [make_potential("x^2", mesh, l) for l in (1.0, 2.0)]
        u0s = [build_u0(p) for p in ps]
        before = [build_coefficient_tables(u0, p, N=100).N_opt for u0, p in zip(u0s, ps)]
        bn_table = coefficients._bn_table  # the build reads every B_n from here
        monkeypatch.setattr(
            coefficients,
            "_bn_table",
            lambda N, l, dtype: tuple(b * (1.0 + 2.0**-52) for b in bn_table(N, l, dtype)),
        )
        after = [build_coefficient_tables(u0, p, N=100).N_opt for u0, p in zip(u0s, ps)]
        assert after == before


class TestNumericalBreakdown:
    def test_breakdown_names_order(self):
        # b >> 1 with large N overflows x^{2n}: breakdown must name the order
        mesh = UniformMesh(40.0, 101)
        p = make_potential("zero", mesh, 0.5)
        u0 = build_u0(p)
        # seed a nonzero beta so the recurrence has something to amplify
        p2 = make_potential("const:1", mesh, 0.5)
        u02 = build_u0(p2)
        with pytest.raises(NumericalBreakdownError) as exc:
            build_coefficient_tables(u02, p2, 120)
        assert exc.value.order is not None

    @pytest.mark.parametrize(
        "spec,l,b,family,order",
        [("1/x", -0.5, 30.0, "beta", 79), ("const:1", 0.5, 20.0, "gamma", 86)],
        ids=["1/x--0.5-30.0-79", "const:1-0.5-20.0-86"],
    )
    def test_breakdown_names_first_bad_row(self, spec, l, b, family, order):
        # rows are written beta_n then gamma_n, and the error names the first
        # bad one: the family that overflows first, which a u0 change can flip
        # (1/x at l = -1/2 broke at gamma_78 with the former log kernel);
        # const:1 keeps a case where gamma turns non-finite before beta does
        p = make_potential(spec, UniformMesh(b, 2001), l)
        with pytest.raises(NumericalBreakdownError, match=f"non-finite {family} coefficient") as exc:
            build_coefficient_tables(build_u0(p), p, 100)
        assert exc.value.order == order

    @pytest.mark.xfail(
        strict=True,
        raises=NumericalBreakdownError,
        reason="ROADMAP item 4: for q = 0 every beta_n and gamma_n is exactly 0, yet "
        "x^{2n} overflows on a long interval and the build raises instead of returning "
        "the zero tables (m = 2001, N = 100: b = 34 builds, b = 36 breaks at beta_99, "
        "b = 40 at beta_96)",
    )
    def test_zero_potential_long_interval_builds_zero_tables(self):
        p = make_potential("zero", UniformMesh(40.0, 2001), 0.0)
        t = build_coefficient_tables(build_u0(p), p, 100)
        assert not t.beta.any() and not t.gamma.any()
