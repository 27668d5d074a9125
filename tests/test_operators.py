import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from lomnitz import operators
from lomnitz.operators import (
    AccuracyWarning,
    DifferentiableInput,
    OperatorConfig,
    hadamard_derivative,
    hadamard_integral,
    verify_eigenfunction,
    verify_power_law_property,
)
from lomnitz.special_functions import gamma, log_ml, mittag_leffler


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def abel_quad_oracle(alpha, a, b, fhat, t):
    """Independent oracle: adaptive quadrature of the transformed integral
    in the log-time variable, with the endpoint singularity split off."""
    U = math.log(a + b * t)
    val, _ = quad(
        lambda u: (U - u) ** (alpha - 1.0) * fhat(u),
        0.0,
        U,
        points=[U],
        limit=400,
    )
    return val / math.gamma(alpha)


class TestOperatorConfig:
    def test_t_low(self):
        assert OperatorConfig(1.0, 1.0, 0.5).t_low == 0.0
        assert OperatorConfig(0.0, 1.0, 0.5).t_low == 1.0
        assert OperatorConfig(0.5, 2.0, 0.5).t_low == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            OperatorConfig(1.5, 1.0, 0.5)
        with pytest.raises(ValueError):
            OperatorConfig(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            OperatorConfig(1.0, 1.0, 1.5)


class TestHadamardIntegral:
    def test_order_one_constant(self):
        # kernel is 1 in the log variable: the integral is ln(a + b t)
        cfg = OperatorConfig(1.0, 1.0, 1.0)
        inp = DifferentiableInput(f=ones)
        assert hadamard_integral(cfg, inp, 1.0, 200) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_half_order_constant(self):
        # integral of 1 equals ln^alpha(a+bt)/Gamma(1+alpha)
        cfg = OperatorConfig(1.0, 1.0, 0.5)
        inp = DifferentiableInput(f=ones)
        t = math.e - 1.0
        expected = 1.0 / gamma(1.5)
        got = hadamard_integral(cfg, inp, t, 400)
        assert got == pytest.approx(expected, rel=1e-8)
        oracle = abel_quad_oracle(0.5, 1.0, 1.0, lambda u: 1.0, t)
        assert got == pytest.approx(oracle, rel=1e-7)

    def test_zero_function(self):
        cfg = OperatorConfig(1.0, 1.0, 0.7)
        inp = DifferentiableInput(f=lambda x: np.zeros_like(np.asarray(x, float)))
        assert hadamard_integral(cfg, inp, 2.0, 100) == 0.0

    def test_domain_errors(self):
        cfg = OperatorConfig(1.0, 1.0, 0.5)
        inp = DifferentiableInput(f=ones)
        with pytest.raises(ValueError):
            hadamard_integral(cfg, inp, 0.0, 100)
        with pytest.raises(ValueError):
            hadamard_integral(cfg, inp, 1.0, 1)

    def test_accuracy_warning_on_rough_integrand(self):
        cfg = OperatorConfig(1.0, 1.0, 0.5)
        inp = DifferentiableInput(f=lambda x: np.sin(40.0 * np.asarray(x, float)))
        with pytest.warns(AccuracyWarning):
            hadamard_integral(cfg, inp, 3.0, 8)


class TestHadamardDerivative:
    def test_constant_is_annihilated(self):
        for nu in [0.25, 0.5, 0.75, 1.0]:
            cfg = OperatorConfig(1.0, 1.0, nu)
            inp = DifferentiableInput(f=ones, df=lambda x: np.zeros_like(
                np.asarray(x, float)))
            assert hadamard_derivative(cfg, inp, 1.7, 500) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_order_one_is_scaled_log_derivative(self):
        # (1 + t) f'(t) for a = b = 1, exact when df is supplied
        cfg = OperatorConfig(1.0, 1.0, 1.0)
        inp = DifferentiableInput(
            f=lambda x: np.log1p(np.asarray(x, float)),
            df=lambda x: 1.0 / (1.0 + np.asarray(x, float)),
        )
        for t in [0.3, 1.0, 7.5]:
            assert hadamard_derivative(cfg, inp, t, 10) == pytest.approx(1.0, abs=1e-10)

    def test_squared_log_closed_form(self):
        # order 1/2 applied to ln^2(1+t) at ln(1+t) = 1
        cfg = OperatorConfig(1.0, 1.0, 0.5)
        inp = DifferentiableInput(
            f=lambda x: np.log1p(np.asarray(x, float)) ** 2,
            df=lambda x: 2.0 * np.log1p(np.asarray(x, float)) / (1.0 + np.asarray(x, float)),
        )
        t = math.e - 1.0
        expected = gamma(3.0) / gamma(2.5)
        assert expected == pytest.approx(1.5045055, abs=5e-7)
        assert hadamard_derivative(cfg, inp, t, 4000) == pytest.approx(expected, rel=1e-6)

    def test_linearity(self):
        cfg = OperatorConfig(1.0, 1.0, 0.6)
        f1 = DifferentiableInput(
            f=lambda x: np.exp(-np.asarray(x, float)),
            df=lambda x: -np.exp(-np.asarray(x, float)),
        )
        f2 = DifferentiableInput(
            f=lambda x: np.sin(np.asarray(x, float)),
            df=lambda x: np.cos(np.asarray(x, float)),
        )
        c1, c2 = 0.7, -1.3
        comb = DifferentiableInput(
            f=lambda x: c1 * np.exp(-np.asarray(x, float)) + c2 * np.sin(np.asarray(x, float)),
            df=lambda x: -c1 * np.exp(-np.asarray(x, float)) + c2 * np.cos(np.asarray(x, float)),
        )
        t, m = 2.0, 800
        lhs = hadamard_derivative(cfg, comb, t, m)
        rhs = c1 * hadamard_derivative(cfg, f1, t, m) + c2 * hadamard_derivative(
            cfg, f2, t, m
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_finite_difference_matches_analytic(self):
        cfg = OperatorConfig(1.0, 1.0, 0.5)
        with_df = DifferentiableInput(
            f=lambda x: np.exp(-np.asarray(x, float)),
            df=lambda x: -np.exp(-np.asarray(x, float)),
        )
        without = DifferentiableInput(f=lambda x: np.exp(-np.asarray(x, float)))
        got_a = hadamard_derivative(cfg, with_df, 1.5, 2000)
        got_n = hadamard_derivative(cfg, without, 1.5, 2000)
        assert got_n == pytest.approx(got_a, rel=1e-8)

    def test_scalar_only_callable_fallback(self):
        cfg = OperatorConfig(1.0, 1.0, 1.0)
        inp = DifferentiableInput(f=lambda x: math.log1p(x), df=lambda x: 1.0 / (1.0 + x))
        assert hadamard_derivative(cfg, inp, 2.0, 10) == pytest.approx(1.0, abs=1e-12)

    def test_derivative_warning_on_unresolvable_input(self):
        from lomnitz.operators import DerivativeWarning

        # oscillation at the finite-difference step scale makes the
        # Richardson refinement disagree with the base estimate
        cfg = OperatorConfig(1.0, 1.0, 0.5)
        inp = DifferentiableInput(f=lambda x: np.sin(1e6 * np.asarray(x, float)))
        with pytest.warns(DerivativeWarning):
            hadamard_derivative(cfg, inp, 3.0, 64, warn_tol=math.inf)


class TestPowerLawProperty:
    def test_acceptance_family_residuals(self):
        cfg_ts = np.geomspace(0.1, 10.0, 5)
        for nu in [0.25, 0.5, 0.75]:
            for beta in [0.5, 1.0, 2.0]:
                cfg = OperatorConfig(1.0, 1.0, nu)
                err = verify_power_law_property(cfg, beta, cfg_ts, panels=4000)
                assert err <= 1e-4, (nu, beta, err)

    def test_constant_right_side_at_beta_equal_nu(self):
        # beta = nu: the image is the constant Gamma(1 + nu)
        nu = 0.5
        cfg = OperatorConfig(1.0, 1.0, nu)
        f = lambda x: np.log1p(np.asarray(x, float)) ** nu
        df = lambda x: nu * np.log1p(np.asarray(x, float)) ** (nu - 1.0) / (
            1.0 + np.asarray(x, float)
        )
        inp = DifferentiableInput(f=f, df=df)
        for t in [0.5, 2.0, 9.0]:
            got = hadamard_derivative(cfg, inp, t, 6000, warn_tol=math.inf)
            assert got == pytest.approx(gamma(1.0 + nu), rel=2e-5)

    def test_order_one_reduction(self):
        cfg = OperatorConfig(1.0, 1.0, 1.0)
        err = verify_power_law_property(cfg, 1.0, [0.5, 1.0, 3.0], panels=100)
        assert err <= 1e-12

    def test_beta_zero_rejected(self):
        cfg = OperatorConfig(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            verify_power_law_property(cfg, 0.0, [1.0])
        with pytest.raises(ValueError):
            verify_power_law_property(cfg, -0.5, [1.0])

    def test_panel_doubling_reduces_error(self):
        # smooth family member with a measurable second-order-dominated error
        cfg = OperatorConfig(1.0, 1.0, 0.5)
        t = [math.e - 1.0]
        errs = [verify_power_law_property(cfg, 2.0, t, panels=m) for m in (250, 500, 1000)]
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0

    def test_regularized_reduction(self):
        # a = 0, b = 1: domain starts at t_low = 1; same mapping property,
        # cross-checked against adaptive quadrature in u = ln t
        nu, beta = 0.5, 2.0
        cfg = OperatorConfig(0.0, 1.0, nu)
        assert cfg.t_low == 1.0
        err = verify_power_law_property(cfg, beta, [1.5, 3.0, 10.0], panels=4000)
        assert err <= 1e-4
        t = 3.0
        inp = DifferentiableInput(
            f=lambda x: np.log(np.asarray(x, float)) ** beta,
            df=lambda x: beta * np.log(np.asarray(x, float)) ** (beta - 1.0)
            / np.asarray(x, float),
        )
        got = hadamard_derivative(cfg, inp, t, 4000, warn_tol=math.inf)
        oracle = abel_quad_oracle(
            1.0 - nu, 0.0, 1.0, lambda u: beta * u ** (beta - 1.0), t
        )
        assert got == pytest.approx(oracle, rel=1e-5)


class TestEigenfunction:
    def test_order_one_closed_form(self):
        cfg = OperatorConfig(1.0, 1.0, 1.0)
        err = verify_eigenfunction(cfg, [0.5, 1.0, 2.0], panels=100)
        assert err <= 1e-10

    def test_fractional_orders(self):
        for nu in [0.5, 0.75]:
            cfg = OperatorConfig(1.0, 1.0, nu)
            err = verify_eigenfunction(cfg, [0.5, 1.0, 2.0], panels=4000)
            assert err <= 5e-4, (nu, err)

    def test_against_quadrature_oracle(self):
        # direct adaptive quadrature of the defining integral for one sample
        nu, t = 0.5, 1.0
        cfg = OperatorConfig(1.0, 1.0, nu)
        err = verify_eigenfunction(cfg, [t], panels=6000)

        def fhat_prime(u):
            h = 1e-7
            e = lambda v: mittag_leffler(nu, -(v**nu))
            return (e(u + h) - e(u - h)) / (2.0 * h)

        oracle = abel_quad_oracle(1.0 - nu, 1.0, 1.0, fhat_prime, t)
        assert oracle == pytest.approx(-log_ml(nu, t), abs=2e-4)
        assert err <= 2e-4

    def test_requires_unit_parameters(self):
        with pytest.raises(ValueError):
            verify_eigenfunction(OperatorConfig(0.5, 1.0, 0.5), [1.0])

    def test_rejects_nonpositive_samples(self):
        cfg = OperatorConfig(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            verify_eigenfunction(cfg, [0.0])


class TestResidualReductions:
    def test_kernel_shift_rounding_below_one(self):
        # a + b*t_low rounds to 1 - 1.1e-16 here, where ln**beta is NaN
        cfg = OperatorConfig(0.020061733097926804, 0.6937632305983943, 0.49347400954646503)
        assert cfg.a + cfg.b * cfg.t_low < 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            err = verify_power_law_property(
                cfg, 0.5306447178643936, [1.57519594, 1.67174553, 10.65147619],
                panels=2000,
            )
        assert 0.0 < err <= 1e-5

    def test_nan_residuals_propagate(self, monkeypatch):
        monkeypatch.setattr(operators, "hadamard_derivative",
                            lambda *args, **kwargs: math.nan)
        cfg = OperatorConfig(1.0, 1.0, 0.5)
        assert math.isnan(verify_power_law_property(cfg, 1.0, [0.5, 1.0, 2.0]))
        assert math.isnan(verify_eigenfunction(cfg, [0.5, 1.0, 2.0]))
        # one NaN among finite residuals is not dropped either
        calls = iter([0.0, math.nan, 0.0])
        monkeypatch.setattr(operators, "hadamard_derivative",
                            lambda *args, **kwargs: next(calls) - log_ml(0.5, args[2]))
        assert math.isnan(verify_eigenfunction(cfg, [0.5, 1.0, 2.0]))


class TestNonFiniteTime:
    INPUT = DifferentiableInput(f=lambda x: np.log1p(np.asarray(x, dtype=float)))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    @pytest.mark.parametrize("nu", [0.5, 1.0])
    def test_operators_reject_non_finite_time(self, nu, t):
        cfg = OperatorConfig(1.0, 1.0, nu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                hadamard_derivative(cfg, self.INPUT, t, 100)
            with pytest.raises(ValueError, match="finite"):
                hadamard_integral(cfg, self.INPUT, t, 100)

    def test_eigenfunction_check_rejects_infinite_sample(self):
        with pytest.raises(ValueError, match="finite"):
            verify_eigenfunction(OperatorConfig(1.0, 1.0, 0.5), [1.0, math.inf], panels=100)


class TestDerivativeWarningOnce:
    @pytest.mark.parametrize("nu", [0.5, 1.0])
    def test_one_warning_per_call_on_both_branches(self, nu):
        from lomnitz.operators import DerivativeWarning

        inp = DifferentiableInput(f=lambda x: np.sin(1e6 * np.asarray(x, float)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hadamard_derivative(OperatorConfig(1.0, 1.0, nu), inp, 3.0, 64, warn_tol=math.inf)
        assert [w.category for w in caught] == [DerivativeWarning]
