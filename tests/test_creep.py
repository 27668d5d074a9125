import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lomnitz.creep import (
    MaterialParameters,
    compliance,
    creep_asymptotic,
    creep_psi,
    creep_rate,
    creep_strain,
)
from lomnitz.special_functions import gamma


class TestMaterialParameters:
    def test_default_compliance(self):
        p = MaterialParameters(E0=4.0)
        assert p.J0 == pytest.approx(0.25, abs=1e-15)

    def test_compliance_consistency_enforced(self):
        MaterialParameters(E0=2.0, J0=0.5)
        with pytest.raises(ValueError):
            MaterialParameters(E0=2.0, J0=0.6)

    def test_positivity(self):
        for kw in ({"q": 0.0}, {"E0": -1.0}, {"tau0": 0.0}, {"nu": 0.0}, {"nu": 1.1}):
            with pytest.raises(ValueError):
                MaterialParameters(**kw)


class TestCreepPsi:
    def test_classical_point(self):
        # nu = 1, q = tau0 = 1 at t = e - 1: ln(e) = 1, Gamma(2) = 1
        p = MaterialParameters(nu=1.0)
        assert creep_psi(p, math.e - 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_half_order_point(self):
        p = MaterialParameters(nu=0.5)
        assert creep_psi(p, math.e - 1.0) == pytest.approx(1.0 / gamma(1.5), rel=1e-12)
        assert creep_psi(p, math.e - 1.0) == pytest.approx(1.1283792, abs=5e-8)

    def test_zero_at_origin(self):
        for nu in [0.25, 0.5, 1.0]:
            assert creep_psi(MaterialParameters(nu=nu), 0.0) == 0.0

    def test_classical_reduction_is_exact(self):
        # nu = 1 reduces to q ln(1 + t/tau0) for any (q, tau0)
        p = MaterialParameters(q=2.5, tau0=3.0, nu=1.0)
        for t in np.linspace(0.0, 100.0, 23):
            assert creep_psi(p, float(t)) == pytest.approx(
                2.5 * math.log1p(t / 3.0), rel=1e-13, abs=1e-15
            )

    def test_strictly_increasing_on_decade_lattice(self):
        for nu in [0.25, 0.5, 0.75, 1.0]:
            p = MaterialParameters(nu=nu)
            vals = [creep_psi(p, 10.0**k) for k in range(-3, 9)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_timescale_substitution(self):
        # tau0 enters only through t/tau0
        p1 = MaterialParameters(nu=0.5, tau0=1.0)
        p2 = MaterialParameters(nu=0.5, tau0=7.0)
        for t in [0.1, 1.0, 12.0]:
            assert creep_psi(p2, 7.0 * t) == pytest.approx(creep_psi(p1, t), rel=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(
        nu=st.floats(min_value=0.05, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=1e8),
    )
    def test_property_nonnegative(self, nu, t):
        assert creep_psi(MaterialParameters(nu=nu), t) >= 0.0


class TestCreepRate:
    def test_classical_values(self):
        p = MaterialParameters(nu=1.0)
        assert creep_rate(p, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert creep_rate(p, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_half_order_point(self):
        p = MaterialParameters(nu=0.5)
        expected = 0.5 / (gamma(1.5) * math.e)
        assert creep_rate(p, math.e - 1.0) == pytest.approx(expected, rel=1e-12)
        assert creep_rate(p, math.e - 1.0) == pytest.approx(0.2075538, abs=1e-7)

    def test_consistent_with_psi_by_finite_differences(self):
        for nu in [0.25, 0.5, 0.75, 1.0]:
            p = MaterialParameters(nu=nu)
            for t in np.geomspace(0.1, 100.0, 8):
                h = 1e-6 * (1.0 + t)
                fd = (creep_psi(p, t + h) - creep_psi(p, t - h)) / (2.0 * h)
                assert creep_rate(p, float(t)) == pytest.approx(fd, rel=1e-6)

    def test_positive_and_decreasing(self):
        for nu in [0.25, 0.5, 0.75, 1.0]:
            p = MaterialParameters(nu=nu)
            vals = [creep_rate(p, float(t)) for t in np.geomspace(1e-3, 1e4, 30)]
            assert all(v > 0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_divergence_at_origin_for_fractional_order(self):
        with pytest.raises(ValueError):
            creep_rate(MaterialParameters(nu=0.5), 0.0)


class TestStrainAndCompliance:
    def test_instantaneous_elastic_response(self):
        p = MaterialParameters(E0=3.0, nu=0.5)
        assert creep_strain(p, 6.0, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_half_order_strain_point(self):
        p = MaterialParameters(nu=0.5)
        got = creep_strain(p, p.E0, math.e - 1.0)
        assert got == pytest.approx(1.0 + 1.0 / gamma(1.5), rel=1e-12)
        assert got == pytest.approx(2.1283792, abs=5e-8)

    def test_compliance_values(self):
        p = MaterialParameters(nu=1.0, E0=2.0)
        assert compliance(p, 0.0) == pytest.approx(p.J0, rel=1e-14)
        assert compliance(p, math.e - 1.0) == pytest.approx(2.0 * p.J0, rel=1e-13)

    def test_fluid_like_unbounded_compliance(self):
        # ln^nu grows without bound, if slowly; check growth along decades
        # and that J(1e12) clears a fixed multiple of J0 for every order
        for nu in [0.25, 0.5, 0.75, 1.0]:
            p = MaterialParameters(nu=nu)
            vals = [compliance(p, 10.0**k) for k in range(0, 13, 3)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert compliance(p, 1e12) > 3.0 * p.J0


class TestAsymptotics:
    def test_small_time_formula(self):
        p = MaterialParameters(nu=0.5)
        got = creep_asymptotic(p, 1e-6, "small_time")
        assert got == pytest.approx(1e-3 / gamma(1.5), rel=1e-12)
        assert got == pytest.approx(1.1283792e-3, abs=5e-10)
        assert creep_psi(p, 1e-6) == pytest.approx(got, rel=1e-3)

    def test_large_time_formula(self):
        p = MaterialParameters(nu=1.0)
        got = creep_asymptotic(p, 1e6, "large_time")
        assert got == pytest.approx(math.log(1e6), rel=1e-12)
        assert creep_psi(p, 1e6) == pytest.approx(got, rel=1e-5)

    def test_agreement_band(self):
        for nu in [0.25, 0.5, 0.75, 1.0]:
            p = MaterialParameters(nu=nu)
            small = creep_asymptotic(p, 1e-4, "small_time")
            assert abs(creep_psi(p, 1e-4) / small - 1.0) <= 1e-2
            large = creep_asymptotic(p, 1e8, "large_time")
            assert abs(creep_psi(p, 1e8) / large - 1.0) <= 1e-2

    def test_order_sensitivity_at_small_time(self):
        # smaller order creeps faster initially
        t = 0.01
        psi_low = creep_psi(MaterialParameters(nu=0.25), t)
        psi_high = creep_psi(MaterialParameters(nu=1.0), t)
        assert psi_low > psi_high

    def test_regime_validation(self):
        p = MaterialParameters(nu=0.5)
        with pytest.raises(ValueError):
            creep_asymptotic(p, 5.0, "small_time")
        with pytest.raises(ValueError):
            creep_asymptotic(p, 5.0, "large_time")
        with pytest.raises(ValueError):
            creep_asymptotic(p, 0.5, "sideways")
        with pytest.raises(ValueError):
            creep_asymptotic(MaterialParameters(q=2.0, nu=0.5), 0.5, "small_time")


class TestCreepPsiArrays:
    GRID = np.concatenate(([0.0], np.geomspace(1e-9, 1e9, 400), np.linspace(0.0, 50.0, 401)))

    @pytest.mark.parametrize("nu", [0.05, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("q,tau0", [(1.0, 1.0), (1.3, 0.6), (1e5, 1e-5)])
    def test_array_matches_scalar_calls_and_libm_loop(self, nu, q, tau0):
        p = MaterialParameters(q=q, tau0=tau0, nu=nu)
        got = creep_psi(p, self.GRID)
        assert got.shape == self.GRID.shape
        scalar = np.array([creep_psi(p, float(t)) for t in self.GRID])
        # the loop this function replaced, with libm's log1p and pow
        loop = np.array([q * math.log1p(t / tau0) ** nu / gamma(1.0 + nu) for t in self.GRID])
        assert got[0] == 0.0
        np.testing.assert_allclose(got, scalar, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(got, loop, rtol=1e-15, atol=0.0)

    def test_float_in_float_out(self):
        p = MaterialParameters(nu=0.5)
        assert type(creep_psi(p, 2.0)) is float
        assert type(creep_psi(p, 0)) is float
        assert type(creep_psi(p, np.float64(2.0))) is float

    def test_one_negative_entry_raises(self):
        times = np.linspace(0.0, 10.0, 11)
        times[7] = -1e-300
        with pytest.raises(ValueError, match="nonnegative"):
            creep_psi(MaterialParameters(nu=0.5), times)
