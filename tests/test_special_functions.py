import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lomnitz.special_functions import (
    ConvergenceError,
    PoleError,
    gamma,
    log_ml,
    mittag_leffler,
    _mittag_leffler_deriv,
    _ml_arrays,
)


def ml_reference(nu, x, dps=120):
    """Independent oracle: straight partial-sum summation of the defining
    series in extended precision, with precision sized from the peak term."""
    kpeak = max(1.0, abs(x) ** (1.0 / nu) / nu) if x != 0 else 1.0
    ln_peak = kpeak * math.log(max(abs(x), 1.0)) - math.lgamma(nu * kpeak + 1.0)
    dps = max(dps, int(ln_peak / math.log(10.0)) + 30)
    with mpmath.workdps(dps):
        s = mpmath.mpf(0)
        xm = mpmath.mpf(x)
        k = 0
        while True:
            term = xm**k / mpmath.gamma(mpmath.mpf(nu) * k + 1)
            s += term
            k += 1
            if k > kpeak + 20 and abs(term) < mpmath.mpf(10) ** (-(dps - 10)):
                break
            assert k < 500_000
        return float(s)


class TestGamma:
    def test_integers(self):
        assert gamma(1.0) == pytest.approx(1.0, abs=1e-14)
        assert gamma(2.0) == pytest.approx(1.0, abs=1e-14)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half_integer_closed_form(self):
        # Gamma(1.5) = sqrt(pi)/2
        assert gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)

    def test_against_stdlib_on_positive_axis(self):
        xs = np.concatenate(
            [
                np.linspace(1e-3, 0.5, 500, endpoint=False),
                np.linspace(0.5, 50.0, 5000),
            ]
        )
        for x in xs:
            assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)

    def test_reflection_negative_axis(self):
        for x in [-0.5, -1.3, -2.7, -5.25, -10.9]:
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-11)

    def test_poles(self):
        for x in [0.0, -1.0, -2.0, -17.0]:
            with pytest.raises(PoleError):
                gamma(x)


class TestMittagLeffler:
    def test_value_at_zero_is_exactly_one(self):
        for nu in [0.1, 0.25, 0.5, 0.75, 0.99, 1.0]:
            assert mittag_leffler(nu, 0.0) == 1.0

    def test_order_one_is_exp(self):
        for x in np.linspace(-30.0, 5.0, 141):
            assert mittag_leffler(1.0, float(x)) == pytest.approx(
                math.exp(float(x)), rel=1e-12, abs=1e-300
            )

    def test_half_order_closed_form(self):
        # E_{1/2}(-y) = exp(y^2) erfc(y)
        for y in [0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 6.0, 10.0, 20.0, 50.0]:
            ref = float(mpmath.exp(y * y) * mpmath.erfc(y))
            assert mittag_leffler(0.5, -y) == pytest.approx(ref, abs=1e-10)

    def test_spec_point_half_minus_one(self):
        # frozen from the series oracle; equals e * erfc(1)
        assert mittag_leffler(0.5, -1.0) == pytest.approx(0.4275835761558070, abs=1e-10)
        assert mittag_leffler(0.5, -1.0) == pytest.approx(
            math.exp(1.0) * math.erfc(1.0), abs=1e-12
        )

    @pytest.mark.parametrize("nu", [0.25, 0.4, 0.75, 0.9])
    @pytest.mark.parametrize("y", [0.3, 1.0, 2.5, 5.0, 5.5, 6.5, 8.0, 12.0])
    def test_against_series_oracle(self, nu, y):
        kpeak = y ** (1.0 / nu) / nu
        ln_peak = kpeak * math.log(max(y, 1.0)) - math.lgamma(nu * kpeak + 1.0)
        if kpeak > 3000 or ln_peak > 250:
            pytest.skip("series oracle too expensive here")
        assert mittag_leffler(nu, -y) == pytest.approx(ml_reference(nu, -y), abs=1e-10)

    def test_bounds_and_monotonicity_negative_axis(self):
        lattice = -np.concatenate([np.linspace(0.0, 5.0, 21), [8.0, 15.0, 30.0, 50.0]])
        for nu in [0.25, 0.5, 0.75, 1.0]:
            vals = [mittag_leffler(nu, float(x)) for x in lattice]
            assert all(0.0 < v <= 1.0 for v in vals)
            assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_large_argument_asymptotics(self):
        # E_nu(-y) * Gamma(1 - nu) * y -> 1
        for nu in [0.25, 0.5, 0.75]:
            v = mittag_leffler(nu, -1e3) * math.gamma(1.0 - nu) * 1e3
            assert v == pytest.approx(1.0, rel=0.05)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.2, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, math.inf)
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.25, 6.0)  # value overflows double precision

    @settings(max_examples=60, deadline=None)
    @given(
        nu=st.floats(min_value=0.05, max_value=1.0),
        y=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_property_bounds(self, nu, y):
        v = mittag_leffler(nu, -y)
        assert 0.0 < v <= 1.0

    def test_derivative_against_series_oracle(self):
        for nu in [0.3, 0.5, 0.75]:
            for x in [-0.2, -1.0, -3.0]:
                with mpmath.workdps(60):
                    s = mpmath.mpf(0)
                    for k in range(1, 500):
                        s += k * mpmath.mpf(x) ** (k - 1) / mpmath.gamma(
                            mpmath.mpf(nu) * k + 1
                        )
                    ref = float(s)
                assert _mittag_leffler_deriv(nu, x) == pytest.approx(ref, abs=1e-10)
                # finite differences agree at their own noise level
                h = 1e-6
                fd = (mittag_leffler(nu, x + h) - mittag_leffler(nu, x - h)) / (2 * h)
                assert _mittag_leffler_deriv(nu, x) == pytest.approx(fd, rel=1e-4)


class TestLogMl:
    def test_at_zero(self):
        for nu in [0.25, 0.5, 0.75, 1.0]:
            assert log_ml(nu, 0.0) == 1.0

    def test_order_one_reduction(self):
        # E_{1,1}(-ln(1+t)) = 1/(1+t)
        for t in [0.1, 0.5, 1.0, 10.0, 1e4]:
            assert log_ml(1.0, t) == pytest.approx(1.0 / (1.0 + t), rel=1e-12)
        assert log_ml(1.0, 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_reduces_to_ml_at_matching_argument(self):
        # ln(e) = 1 so log_ml(0.5, e-1) = E_{1/2}(-1)
        assert log_ml(0.5, math.e - 1.0) == pytest.approx(
            mittag_leffler(0.5, -1.0), rel=1e-13
        )

    def test_decreasing_with_values_in_unit_interval(self):
        ts = np.logspace(-3, 6, 40)
        for nu in [0.25, 0.5, 0.75, 1.0]:
            vals = [log_ml(nu, float(t)) for t in ts]
            assert all(0.0 < v <= 1.0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            log_ml(0.5, -0.1)


class TestArrayHelper:
    def test_matches_scalar_calls(self):
        xs = -np.linspace(0.0, 2.5, 31)
        for nu in [0.25, 0.5, 0.75, 1.0]:
            val, der = _ml_arrays(nu, xs)
            for i, x in enumerate(xs):
                assert val[i] == pytest.approx(mittag_leffler(nu, float(x)), abs=1e-12)
                assert der[i] == pytest.approx(
                    _mittag_leffler_deriv(nu, float(x)), abs=1e-12
                )

    def test_elementwise_fallback_for_large_arguments(self):
        xs = np.array([-0.5, -9.0, -20.0])
        val, _ = _ml_arrays(0.5, xs)
        for i, x in enumerate(xs):
            assert val[i] == pytest.approx(mittag_leffler(0.5, float(x)), abs=1e-12)


def ml_deriv_reference(nu, x):
    """d/dx of the defining series, sum k x^(k-1) / Gamma(nu k + 1), in
    extended precision sized from the peak term like ``ml_reference``."""
    kpeak = max(1.0, abs(x) ** (1.0 / nu) / nu) if x != 0 else 1.0
    ln_peak = kpeak * math.log(max(abs(x), 1.0)) - math.lgamma(nu * kpeak + 1.0)
    dps = max(40, int(ln_peak / math.log(10.0)) + 40)
    with mpmath.workdps(dps):
        s = mpmath.mpf(0)
        xm = mpmath.mpf(x)
        k = 1
        while True:
            term = k * xm ** (k - 1) / mpmath.gamma(mpmath.mpf(nu) * k + 1)
            s += term
            k += 1
            if k > kpeak + 20 and abs(term) < mpmath.mpf(10) ** -30:
                break
            assert k < 500_000
        return float(s)


def _oracle_affordable(nu, y):
    """The series oracle's cost rule of ``test_against_series_oracle``."""
    if y <= 1.0:
        return True
    if math.log(y) / nu - math.log(nu) > math.log(3000.0):
        return False
    kpeak = y ** (1.0 / nu) / nu
    return kpeak * math.log(y) - math.lgamma(nu * kpeak + 1.0) <= 250


def _oracle_y_max(nu, cap=50.0):
    """Largest y <= cap the series oracle affords at order nu (bisection)."""
    if _oracle_affordable(nu, cap):
        return cap
    lo, hi = 1.0, cap
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _oracle_affordable(nu, mid) else (lo, mid)
    return lo


class TestContourEvaluator:
    @settings(max_examples=30, deadline=None)
    @given(
        nu=st.floats(min_value=0.05, max_value=1.0),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_value_and_derivative_against_series_oracle(self, nu, u):
        x = -u * _oracle_y_max(nu)
        assert mittag_leffler(nu, x) == pytest.approx(ml_reference(nu, x), abs=1e-10)
        assert _mittag_leffler_deriv(nu, x) == pytest.approx(
            ml_deriv_reference(nu, x), abs=1e-10
        )

    @pytest.mark.parametrize("y", [5e-324, 1e-300, 1e-16])
    @pytest.mark.parametrize("nu", [0.05, 0.25, 0.5, 0.75, 0.999999])
    def test_tiny_arguments_stay_at_most_one(self, nu, y):
        v = mittag_leffler(nu, -y)
        assert 0.0 < v <= 1.0
        val, _ = _ml_arrays(nu, np.array([-y]))
        assert 0.0 < val[0] <= 1.0

    @pytest.mark.parametrize("nu", [0.05, 0.25, 0.5, 0.75, 0.9, 0.999999])
    def test_arrays_match_scalar_calls_on_mixed_arguments(self, nu):
        rng = np.random.default_rng(7)
        xs = np.concatenate(
            [[0.0, -5e-324, -1e-300, -1e-16, -1.0, -50.0], -rng.uniform(0.0, 50.0, 40),
             -rng.uniform(0.0, 1.2, 20)]
        )
        rng.shuffle(xs)
        val, der = _ml_arrays(nu, xs.reshape(6, 11))
        for x, v, d in zip(xs, val.ravel(), der.ravel()):
            assert v == pytest.approx(mittag_leffler(nu, float(x)), abs=1e-12)
            assert d == pytest.approx(_mittag_leffler_deriv(nu, float(x)), abs=1e-12)

    def test_arrays_match_scalar_calls_in_former_fallback_band(self):
        # nu = 0.25 at ln(1 + t) for t in [150, 250]: the eigenfunction check
        # at long times, where the previous array sweep went scalar
        nu = 0.25
        xs = -np.log1p(np.linspace(150.0, 250.0, 41)) ** nu
        val, der = _ml_arrays(nu, xs)
        for x, v, d in zip(xs, val, der):
            assert v == pytest.approx(mittag_leffler(nu, float(x)), abs=1e-12)
            assert d == pytest.approx(_mittag_leffler_deriv(nu, float(x)), abs=1e-12)

    def test_more_arguments_than_one_block(self):
        xs = -np.linspace(0.0, 50.0, 3 * 512 + 7)
        val, der = _ml_arrays(0.6, xs)
        for i in [0, 511, 512, 1023, 1024, 1535, 1536, len(xs) - 1]:
            assert val[i] == pytest.approx(mittag_leffler(0.6, float(xs[i])), abs=1e-12)
            assert der[i] == pytest.approx(
                _mittag_leffler_deriv(0.6, float(xs[i])), abs=1e-12
            )

    def test_half_order_matches_erfcx_on_a_wide_range(self):
        # E_{1/2}(-y) = erfcx(y), also where the contour meets the Taylor sum
        from scipy.special import erfcx

        ys = np.concatenate([np.logspace(-8, 4, 400), [1.0, np.nextafter(1.0, 2.0)]])
        val, _ = _ml_arrays(0.5, -ys)
        assert np.max(np.abs(val - erfcx(ys))) <= 1e-14

    @pytest.mark.parametrize("nu", [1e-3, 0.02])
    def test_small_orders_against_integral_representation(self, nu):
        # below the series oracle's reach: with v = r**nu the Laplace-type
        # representation reads E_nu(-y) = sin(pi nu)/(pi nu) *
        # int_0^inf exp(-(v y)^(1/nu)) / (v^2 + 2 v cos(pi nu) + 1) dv
        ys = [0.3, 0.9, 1.5, 10.0]
        val, _ = _ml_arrays(nu, -np.array(ys))
        with mpmath.workdps(30):
            c = mpmath.cos(mpmath.pi * nu)
            for y, v in zip(ys, val):
                ym = mpmath.mpf(y)
                f = lambda w: mpmath.exp(-((w * ym) ** (1 / mpmath.mpf(nu)))) / (
                    w**2 + 2 * w * c + 1
                )
                b = 1 / ym
                pts = [0, 0.5 * b, 0.9 * b, 0.99 * b, b, 1.01 * b, 1.1 * b, 2 * b,
                       10 * b, mpmath.inf]
                ref = mpmath.quad(f, pts, maxdegree=10) * mpmath.sin(mpmath.pi * nu) / (
                    mpmath.pi * nu
                )
                assert v == pytest.approx(float(ref), abs=1e-13)


class TestLogMlNonFinite:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("nu", [0.5, 1.0])
    def test_non_finite_time_raises(self, nu, t):
        with pytest.raises(ValueError, match="finite"):
            log_ml(nu, t)
