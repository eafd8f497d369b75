"""Special function layer: Bessel sequences, scaled b_l, gamma ratios, Legendre rows."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, gammasgn, jv

from pbessel import (
    DomainError,
    OrderCapError,
    gamma_ratio_Bn,
    gamma_ratio_Cn,
    legendre_even_coeffs,
    spherical_j_sequence,
)
from pbessel.special import _series_region, bl_prime_scaled, bl_scaled

import oracles


class TestSphericalSequence:
    def test_j0_closed_form(self):
        seq = spherical_j_sequence(0, 1.0)
        assert seq.shape == (1,)
        assert abs(seq[0] - math.sin(1.0) / 1.0) < 1e-15

    def test_origin(self):
        seq = spherical_j_sequence(6, 0.0)
        assert np.array_equal(seq, [1, 0, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize(
        "n,z,expected",
        [
            (50, 10.0, oracles.J50_AT_10),
            (200, 150.5, oracles.J200_AT_150_5),
            (7, 0.003, oracles.J7_AT_0_003),
        ],
    )
    def test_against_series_oracle(self, n, z, expected):
        # frozen values from the arbitrary-precision defining power series
        got = spherical_j_sequence(n, z)[n]
        assert abs(got - expected) < 1e-12 * abs(expected)
        live = float(oracles.spherical_j_series(n, z))
        assert abs(live - expected) <= 1e-15 * abs(expected)

    def test_low_orders_match_scipy_forward(self):
        from scipy.special import spherical_jn

        z = 27.0
        seq = spherical_j_sequence(10, z)
        ref = spherical_jn(np.arange(11), z)
        assert np.max(np.abs(seq - ref)) < 1e-14

    def test_vectorized_matches_scalar(self):
        zs = np.array([0.0, 0.004, 3.0, 40.0, 140.0])
        mat = spherical_j_sequence(60, zs)
        assert mat.shape == (61, 5)
        for j, z in enumerate(zs):
            col = spherical_j_sequence(60, float(z))
            np.testing.assert_allclose(mat[:, j], col, rtol=0, atol=1e-280)

    def test_negative_argument_parity(self):
        seq_p = spherical_j_sequence(5, 2.5)
        seq_m = spherical_j_sequence(5, -2.5)
        signs = (-1.0) ** np.arange(6)
        np.testing.assert_allclose(seq_m, signs * seq_p, rtol=1e-14)

    def test_recurrence_residual(self):
        # j_{n-1} + j_{n+1} = (2n+1)/z j_n, relative to the local triple scale
        rng = np.random.default_rng(5)
        for _ in range(25):
            n_max = int(rng.integers(3, 220))
            z = float(rng.uniform(0.01, 400.0))
            seq = spherical_j_sequence(n_max, z)
            for n in range(1, n_max):
                triple = max(abs(seq[n - 1]), abs(seq[n]), abs(seq[n + 1]))
                if triple < 1e-280:  # subnormal tail carries no relative accuracy
                    continue
                resid = abs(seq[n - 1] + seq[n + 1] - (2 * n + 1) / z * seq[n])
                assert resid <= 1e-10 * triple

    def test_magnitude_bound(self):
        # |j_n(x)| <= sqrt(pi) |x/2|^n / Gamma(n+3/2)
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(0, 150))
            x = float(rng.uniform(0.0, 200.0))
            jn = spherical_j_sequence(n, x)[n]
            log_bound = 0.5 * math.log(math.pi) + n * math.log(max(x, 1e-300) / 2) - gammaln(n + 1.5)
            bound = math.exp(min(log_bound, 700.0))
            assert abs(jn) <= bound * (1 + 1e-10) + 1e-300

    @pytest.mark.parametrize("n_max", [10, 200, 400])
    def test_against_scipy_down_to_small_z(self, n_max):
        # log-spaced from just above _SMALL_Z, where the Miller sweep rescales most
        from scipy.special import spherical_jn

        z = np.geomspace(0.0101, 0.999 * n_max, 300)
        seq = spherical_j_sequence(n_max, z)
        ref = spherical_jn(np.arange(n_max + 1)[:, None], z[None, :])
        assert np.isfinite(seq).all()
        col_err = np.max(np.abs(seq - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.max(col_err) <= 5e-14

    @pytest.mark.parametrize("n_max", [10, 200, 400])
    def test_vector_call_is_columnwise_exact(self, n_max):
        # rescaling by powers of two on a per-column schedule: bit for bit
        rng = np.random.default_rng(n_max)
        z = np.concatenate([np.geomspace(0.0101, 0.999 * n_max, 40), rng.uniform(0, 1.5 * n_max, 20)])
        mat = spherical_j_sequence(n_max, z)
        cols = np.column_stack([spherical_j_sequence(n_max, float(v)) for v in z])
        assert np.array_equal(mat, cols)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            spherical_j_sequence(5, np.nan)
        with pytest.raises(DomainError):
            spherical_j_sequence(-1, 1.0)


def _scale(l):
    return 2.0 ** (l + 0.5) * math.gamma(l + 1.5)


def b_from_scaled(l, z):
    # b_l(z) = sqrt(z) J_{l+1/2}(z) = z^{l+1} S_l(z) / (2^{l+1/2} Gamma(l+3/2))
    return z ** (l + 1) * bl_scaled(l, z) / _scale(l)


def db_from_scaled(l, z):
    # b_l'(z) = z^l D_l(z) / (2^{l+1/2} Gamma(l+3/2))
    return z**l * bl_prime_scaled(l, z) / _scale(l)


class TestBl:
    # S_l and D_l, turned into b_l and b_l' by the scale factor, against the
    # closed forms of b_l (for l = 0 these read S_0 = sin z / z, D_0 = cos z)
    def test_l0_closed_form(self):
        for z in (0.5, 1.0, 2.0):
            assert abs(b_from_scaled(0.0, z) - math.sqrt(2 / math.pi) * math.sin(z)) < 1e-14

    def test_l1_closed_form(self):
        z = 1.0
        expected = math.sqrt(2 / math.pi) * (math.sin(z) / z - math.cos(z))
        assert abs(b_from_scaled(1.0, z) - expected) < 1e-14

    def test_three_half_oracle(self):
        assert abs(b_from_scaled(1.5, 2.0) - oracles.B_THREEHALF_AT_2) < 1e-14

    def test_origin(self):
        assert b_from_scaled(0.7, 0.0) == 0.0
        assert db_from_scaled(0.7, 0.0) == 0.0
        assert abs(db_from_scaled(0.0, 0.0) - math.sqrt(2 / math.pi)) < 1e-15

    def test_prime_l0(self):
        # b_0 = sqrt(2/pi) sin z -> derivative sqrt(2/pi) cos z
        for z in (0.3, 1.7, 8.0):
            assert abs(db_from_scaled(0.0, z) - math.sqrt(2 / math.pi) * math.cos(z)) < 1e-13

    def test_prime_finite_difference(self):
        l, z, h = 2.3, 3.1, 1e-6
        fd = (b_from_scaled(l, z + h) - b_from_scaled(l, z - h)) / (2 * h)
        assert abs(db_from_scaled(l, z) - fd) < 1e-8

    def test_integer_l_reduction_to_spherical(self):
        # b_l(z) = sqrt(2/pi) z j_l(z) for integer l
        for l in (0, 1, 2, 5):
            for z in (0.4, 3.2, 17.0):
                jl = spherical_j_sequence(l, z)[l]
                got = b_from_scaled(float(l), z)
                assert abs(got - math.sqrt(2 / math.pi) * z * jl) < 1e-13 * max(1, abs(z * jl))

    def test_series_jv_branch_consistency(self):
        # continuity of b_l around z = 2; for l = 0.8 the series branch
        # reaches z* = sqrt(3(l + 3/2)) ~ 2.63, so all three points take the
        # series (the switch itself is straddled by the test below)
        l = 0.8
        left = b_from_scaled(l, 1.9999)
        right = b_from_scaled(l, 2.0001)
        assert abs(left - right) < 1e-4  # continuity (coarse)
        mid = 0.5 * (left + right)
        assert abs(b_from_scaled(l, 2.0) - mid) < 1e-7

    @pytest.mark.parametrize("l", [-0.5, 0.0, 0.8, 1.5, 3.0, 7.5])
    def test_series_jv_switch(self, l):
        # one ulp either side of z* = max(2, sqrt(3(l + 3/2))) the series
        # hands over to the jv branch; both branches agree there
        z_star = max(2.0, math.sqrt(3.0 * (l + 1.5)))
        below, above = np.nextafter(z_star, 0.0), np.nextafter(z_star, np.inf)
        assert _series_region(l, np.array([below, above])).tolist() == [True, False]
        for f in (bl_scaled, bl_prime_scaled):
            left, right = f(l, below), f(l, above)
            assert abs(left - right) <= 1e-12 * abs(right)

    def test_domain(self):
        with pytest.raises(DomainError):
            bl_scaled(-0.6, 1.0)
        with pytest.raises(DomainError):
            bl_scaled(1.0, -0.1)
        with pytest.raises(DomainError):
            bl_prime_scaled(1.0, np.nan)

    def test_scaled_variants_origin_limits(self):
        assert bl_scaled(1.5, 0.0) == 1.0
        assert bl_prime_scaled(1.5, 0.0) == 2.5

    def test_scaled_consistency_with_raw(self):
        for l in (0.0, 0.5, 1.5, 4.0):
            pre = math.exp((l + 0.5) * math.log(2.0) + gammaln(l + 1.5))
            for z in (0.7, 2.5, 30.0):
                # b_l = sqrt(z) J_{l+1/2}, b_l' = sqrt(z) J_{l-1/2} - l J_{l+1/2} / sqrt(z)
                raw = math.sqrt(z) * jv(l + 0.5, z)
                raw_prime = math.sqrt(z) * jv(l - 0.5, z) - l * jv(l + 0.5, z) / math.sqrt(z)
                assert abs(bl_scaled(l, z) - pre * z ** (-l - 1) * raw) < 1e-12 * (
                    abs(bl_scaled(l, z)) + 1e-6
                )
                assert abs(bl_prime_scaled(l, z) - pre * z ** (-l) * raw_prime) < 1e-11 * (
                    abs(bl_prime_scaled(l, z)) + 1e-6
                )

    def test_scaled_large_l_no_overflow(self):
        # naive 2^{l+1/2} Gamma(l+3/2) / z^{l+1/2} overflows here; fused path must not
        v = bl_scaled(200.0, 2.5)
        assert np.isfinite(v)
        assert abs(v - 1.0) < 0.01  # deep inside the series region, S ~ 1


def _z_star(l):
    return max(2.0, math.sqrt(3.0 * (l + 1.5)))


class TestLargeArgumentOracle:
    # S_l and D_l past the series region (Miller's sweep below z = 25 or
    # 2 nu, Hankel's expansion above) against mpmath's J_nu at 30 digits.
    # The error is measured against the envelope of S_l,
    # 2^{l+1/2} Gamma(l+3/2) sqrt(2/pi) z^{-l-1}, and z times it for D_l.
    @staticmethod
    def exact(l, z):
        with mpmath.workdps(30):
            nu, zz = mpmath.mpf(l) + 0.5, mpmath.mpf(z)
            scale = mpmath.mpf(2) ** nu * mpmath.gamma(nu + 1)
            j_nu, j_lo = mpmath.besselj(nu, zz), mpmath.besselj(nu - 1, zz)
            s = scale * zz ** (-nu) * j_nu
            d = scale * zz ** (-l) * (mpmath.sqrt(zz) * j_lo - l * j_nu / mpmath.sqrt(zz))
            return float(s), float(d)

    @pytest.mark.parametrize("l", [-0.5, -0.3, 0.0, 0.2, 0.5, 1.0, 1.5, 2.3, 7.5, 25.5])
    def test_against_mpmath(self, l):
        z_star = _z_star(l)
        z = list(np.geomspace(z_star * (1 + 1e-9), 2000.0, 40))
        for edge in (25.0, 2.0 * (l + 0.5)):
            if edge > z_star:
                z += [edge * 0.999, np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), edge * 1.001]
        z = np.array(sorted(z))
        envelope = _scale(l) * math.sqrt(2.0 / math.pi) * z ** (-l - 1.0)
        exact = np.array([self.exact(l, v) for v in z])
        s_err = np.max(np.abs(bl_scaled(l, z) - exact[:, 0]) / envelope)
        d_err = np.max(np.abs(bl_prime_scaled(l, z) - exact[:, 1]) / (z * envelope))
        bound = 1e-14 if l <= 7.5 else 1e-13
        assert s_err <= bound and d_err <= bound, (s_err, d_err)


class TestLargeArgumentBits:
    # a vector call equals its scalar calls bit for bit, whichever branch
    # (series, Miller or Hankel) each entry takes
    @settings(max_examples=40, deadline=None)
    @given(
        l=st.floats(-0.5, 30.0),
        picks=st.lists(
            st.tuples(st.sampled_from(["z_star", "hankel", "two_nu"]), st.floats(-0.05, 0.05)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_vector_equals_scalar_calls(self, l, picks):
        edges = {"z_star": _z_star(l), "hankel": 25.0, "two_nu": max(2.0 * (l + 0.5), 0.5)}
        z = np.array([edges[name] * (1.0 + rel) for name, rel in picks])
        z = np.concatenate([z, np.nextafter(z, 0.0), np.nextafter(z, np.inf)])
        for f in (bl_scaled, bl_prime_scaled):
            vec = f(l, z)
            assert vec.tobytes() == np.array([f(l, float(v)) for v in z]).tobytes()


class TestGammaRatios:
    def test_Bn_integer_l_cutoff(self):
        assert gamma_ratio_Bn(2, 0.0) == 0.0
        assert gamma_ratio_Bn(3, 1.0) == 0.0
        for n in range(4, 12):
            assert gamma_ratio_Bn(n, 2.0) == 0.0
        assert gamma_ratio_Bn(2, 1.0) != 0.0

    def test_B1_l0(self):
        # direct gamma arithmetic: 3*G(2)G(3/2)G(1/2) / (2 sqrt(pi) G(1)G(2)G(5/2)) = 1
        assert abs(gamma_ratio_Bn(1, 0.0) - 1.0) < 1e-14

    def test_B5_oracle_and_Cn(self):
        b5 = gamma_ratio_Bn(5, 1.5)
        assert abs(b5 - oracles.B5_THREEHALF) < 1e-15
        assert gamma_ratio_Cn(5, 1.5) == b5 / 2

    def test_Bn_against_mpmath_nonint(self):
        for n, l in [(1, 0.25), (4, 0.25), (9, 2.7), (40, 1.5), (150, 0.5)]:
            expected = float(oracles.gamma_B_n(n, l))
            got = gamma_ratio_Bn(n, l)
            assert abs(got - expected) <= 1e-12 * abs(expected)

    GRID_L = (-0.5, -0.3, 0.0, 0.2, 0.5, 1.0, 1.5, 2.5, 7.3)

    @staticmethod
    def _scipy_Bn(n, l):
        # B_n as a log-gamma sum with scipy's gammaln / gammasgn, and the
        # rounding level of that sum, eps * sum |terms|
        terms = [
            math.log(4.0 * n - 1.0), -math.log(2.0), -0.5 * math.log(math.pi),
            gammaln(l + 2.0), gammaln(l + 1.5), gammaln(n - 0.5),
            -gammaln(l - n + 2.0), -gammaln(n + 1.0), -gammaln(n + l + 1.5),
        ]
        value = float(gammasgn(l - n + 2.0)) * math.exp(sum(terms))
        return value, np.finfo(float).eps * sum(abs(t) for t in terms)

    def test_Bn_matches_scipy_gamma(self):
        for l in self.GRID_L:
            for n in range(1, 261):
                got = gamma_ratio_Bn(n, l)
                if l - n + 2.0 <= 0.0 and float(l).is_integer():
                    assert got == 0.0, (n, l)
                    continue
                expected, rounding = self._scipy_Bn(n, l)
                assert np.sign(got) == gammasgn(l - n + 2.0), (n, l)
                # past n ~ 50 the terms reach ~1e3 and the log-gamma sum's own
                # rounding, not B_n's, sets the gap
                assert abs(got - expected) <= max(1e-13, 4.0 * rounding) * abs(expected), (n, l)

    def test_Bn_against_mpmath_30_digits(self):
        with oracles.mp.workdps(30):
            for l in self.GRID_L:
                for n in range(1, 261):
                    expected = float(oracles.gamma_B_n(n, l))
                    got = gamma_ratio_Bn(n, l)
                    assert abs(got - expected) <= 1e-13 * abs(expected), (n, l)
                    assert (got == 0.0) == (expected == 0.0), (n, l)

    def test_Bn_large_n_finite(self):
        v = gamma_ratio_Bn(400, 2.5)
        assert np.isfinite(v)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_ratio_Bn(0, 1.0)


class TestLegendre:
    def test_p0(self):
        row = legendre_even_coeffs(0)
        assert row.order == 0
        assert row.exact == (Fraction(1),)

    def test_p2(self):
        row = legendre_even_coeffs(1)
        assert row.exact == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))

    def test_p12_values(self):
        row = legendre_even_coeffs(6)
        # exact-rational recurrence: P_12(1) = 1 and P_12(0) = +231/1024
        assert sum(row.exact) == 1
        assert row.exact[0] == Fraction(231, 1024)

    def test_odd_powers_vanish(self):
        for n in (1, 3, 10):
            row = legendre_even_coeffs(n)
            assert all(c == 0 for c in row.exact[1::2])

    def test_normalization_up_to_60(self):
        # P_n(1) = sum of coefficients = 1; exact in the rational layer for
        # every served order (up to P_60), so the 1e-10 requirement is met
        # with zero error where the identity is actually carried
        for n in range(0, 31, 5):
            row = legendre_even_coeffs(n)
            assert sum(row.exact) == 1
        # the float boundary keeps the identity while conditioning allows:
        # coefficient growth (~1e9 at order 60) makes a float64 sum lose
        # ~sum|l_k| * eps, so only moderate orders can see 1e-10
        for n in range(0, 16):
            row = legendre_even_coeffs(n)
            tol = max(1e-10, 4 * np.finfo(float).eps * np.abs(row.coeffs).sum())
            assert abs(row.coeffs.sum() - 1.0) < tol

    def test_cap(self):
        with pytest.raises(OrderCapError):
            legendre_even_coeffs(31)
