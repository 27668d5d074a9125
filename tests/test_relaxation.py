import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import interp1d

from lomnitz.creep import MaterialParameters
from lomnitz.relaxation import (
    SampledFunction,
    StepSizeError,
    UniformGrid,
    _gamma_constant,
    _panel_moments,
    kernel,
    oracle_solve,
    relaxation_asymptotic,
    solve_relaxation,
    weights,
)
from lomnitz.special_functions import gamma


def hand_recursion_two_steps(nu, q, h):
    """Oracle: the first two steps of the recursion worked out by hand."""
    gam = q * nu / math.gamma(1.0 + nu)
    om1 = math.log1p(h) ** nu / nu
    om2 = (math.log1p(2 * h) ** nu - math.log1p(h) ** nu) / nu
    phi1 = 1.0 - gam * om1
    phi2 = 1.0 - gam * (om1 * phi1 + om2)
    return phi1, phi2


class TestKernel:
    def test_classical_point(self):
        assert kernel(1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_half_order_point(self):
        # ln(e) = 1 so the kernel collapses to 1/e
        assert kernel(0.5, math.e - 1.0) == pytest.approx(1.0 / math.e, rel=1e-13)
        assert kernel(0.5, math.e - 1.0) == pytest.approx(0.3678794, abs=5e-8)

    def test_divergence_near_origin(self):
        # ln(1+x) ~ x: the kernel blows up like x^(nu-1)
        assert kernel(0.5, 1e-10) == pytest.approx(1e5, rel=1e-4)

    def test_positive_decreasing(self):
        xs = np.geomspace(1e-4, 1e4, 40)
        for nu in [0.25, 0.5, 0.75, 1.0]:
            vals = [kernel(nu, float(x)) for x in xs]
            assert all(v > 0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            kernel(0.5, 0.0)
        with pytest.raises(ValueError):
            kernel(0.5, -1.0)


class TestWeights:
    def test_first_weight(self):
        for nu, h in [(1.0, 0.1), (0.5, 0.01), (0.25, 0.3)]:
            assert weights(nu, h, 1)[0] == pytest.approx(
                math.log1p(h) ** nu / nu, rel=1e-14
            )

    def test_classical_values(self):
        om = weights(1.0, 0.1, 2)
        assert om[0] == pytest.approx(math.log(1.1), rel=1e-14)
        assert om[0] == pytest.approx(0.0953102, abs=5e-8)
        assert om[1] == pytest.approx(math.log(1.2) - math.log(1.1), rel=1e-13)
        assert om[1] == pytest.approx(0.0870114, abs=5e-8)

    def test_all_positive(self):
        for nu in [0.25, 0.5, 1.0]:
            assert np.all(weights(nu, 0.05, 1000) > 0.0)

    def test_telescoping_exact_to_machine(self):
        # guards the cancellation-prone regime: partial sums must telescope
        for nu in [0.25, 0.5, 0.75, 1.0]:
            om = weights(nu, 0.01, 100_000)
            for m in [1, 10, 1000, 100_000]:
                target = math.log1p(m * 0.01) ** nu / nu
                assert abs(math.fsum(om[:m]) - target) <= 1e-12 * max(1.0, target)

    @settings(max_examples=40, deadline=None)
    @given(
        nu=st.floats(min_value=0.1, max_value=1.0),
        h=st.floats(min_value=1e-4, max_value=2.0),
        m=st.integers(min_value=1, max_value=2000),
    )
    def test_property_telescoping(self, nu, h, m):
        om = weights(nu, h, m)
        target = math.log1p(m * h) ** nu / nu
        assert abs(math.fsum(om) - target) <= 1e-11 * max(1.0, target)


class TestSolveRelaxation:
    def test_initial_value(self):
        for nu in [0.25, 0.5, 1.0]:
            rep = solve_relaxation(MaterialParameters(nu=nu), UniformGrid(0.05, 10))
            assert rep.solution.values[0] == 1.0

    def test_hand_recursion(self):
        rep = solve_relaxation(MaterialParameters(nu=1.0), UniformGrid(0.1, 2))
        phi1, phi2 = hand_recursion_two_steps(1.0, 1.0, 0.1)
        assert rep.solution.values[1] == pytest.approx(phi1, abs=1e-12)
        assert rep.solution.values[2] == pytest.approx(phi2, abs=1e-12)
        # frozen values of that hand recursion
        assert rep.solution.values[1] == pytest.approx(0.9046898, abs=1e-7)
        assert rep.solution.values[2] == pytest.approx(0.8267624736, abs=1e-9)

    def test_report_contents(self):
        p = MaterialParameters(nu=0.5)
        rep = solve_relaxation(p, UniformGrid(0.01, 200))
        assert rep.gamma == pytest.approx(0.5 / gamma(1.5), rel=1e-13)
        assert rep.weights_head.shape == (5,)
        assert np.allclose(rep.weights_head, weights(0.5, 0.01, 5))
        assert rep.refinement_error >= 0.0
        assert "n=200" in rep.runtime_note

    def test_bounds_all_orders(self):
        for nu in [0.25, 0.5, 0.75, 1.0]:
            rep = solve_relaxation(MaterialParameters(nu=nu), UniformGrid(0.01, 5000))
            v = rep.solution.values
            assert np.all(v > 0.0) and np.all(v <= 1.0)

    def test_monotone_for_moderate_orders(self):
        # fully nonincreasing at h = 0.01 for nu >= 0.5
        for nu in [0.5, 0.75, 1.0]:
            rep = solve_relaxation(MaterialParameters(nu=nu), UniformGrid(0.01, 5000))
            assert np.all(np.diff(rep.solution.values) <= 0.0)

    def test_low_order_initial_transient(self):
        # at nu = 0.25 the first step undershoots (one-step error of the
        # left-constant panel against the strongly singular kernel) and the
        # solution recovers at step two; it is monotone from there on, and
        # fully monotone once the step is small enough
        rep = solve_relaxation(MaterialParameters(nu=0.25), UniformGrid(0.01, 5000))
        d = np.diff(rep.solution.values)
        assert d[1] > 0.0
        assert np.all(d[2:] <= 0.0)
        fine = solve_relaxation(MaterialParameters(nu=0.25), UniformGrid(5e-4, 4000))
        assert np.all(np.diff(fine.solution.values) <= 0.0)

    def test_tau0_rescaling_is_exact(self):
        # solving with tau0 = 2 on a doubled grid reproduces tau0 = 1
        r1 = solve_relaxation(MaterialParameters(nu=0.5, tau0=1.0), UniformGrid(0.02, 100))
        r2 = solve_relaxation(MaterialParameters(nu=0.5, tau0=2.0), UniformGrid(0.04, 100))
        assert np.allclose(r1.solution.values, r2.solution.values, atol=1e-14)

    def test_step_admissibility(self):
        # q ln^nu(1+h) >= Gamma(1+nu) must be rejected with a suggestion
        with pytest.raises(StepSizeError, match="use h <"):
            solve_relaxation(MaterialParameters(nu=0.5, q=5.0), UniformGrid(10.0, 5))

    def test_grid_convergence_first_order(self):
        sols = {}
        for h in (0.04, 0.02, 0.01):
            n = int(round(10.0 / h))
            sols[h] = solve_relaxation(MaterialParameters(nu=1.0), UniformGrid(h, n))
        d1 = np.max(np.abs(sols[0.04].solution.values - sols[0.02].solution.values[::2]))
        d2 = np.max(np.abs(sols[0.02].solution.values - sols[0.01].solution.values[::2]))
        assert d1 / d2 >= 1.8


class TestOracle:
    def test_initial_value(self):
        out = oracle_solve(MaterialParameters(nu=0.5), UniformGrid(0.05, 20))
        assert out.values[0] == 1.0

    def test_oracle_equivalence(self):
        for nu in [0.25, 0.5, 0.75, 1.0]:
            p = MaterialParameters(nu=nu)
            grid = UniformGrid(0.01, 1000)
            rep = solve_relaxation(p, grid)
            orc = oracle_solve(p, grid)
            tol = max(5e-3, 3.0 * rep.refinement_error)
            dev = float(np.max(np.abs(rep.solution.values - orc.values)))
            assert dev <= tol, (nu, dev, tol)

    def test_classical_large_time_decay(self):
        # the coarse-horizon strategy out to t = 1e4: the solution decays
        # like 1/ln(t) within the generous band logarithmic decay allows
        p = MaterialParameters(nu=1.0)
        out = oracle_solve(p, UniformGrid(2.0, 5000))
        ratio = out.values[-1] * math.log(1e4)
        assert 0.7 <= ratio <= 1.3

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_residual_of_integral_equation(self):
        # substitute the solution back through independent quadrature
        nu, q = 0.5, 1.0
        p = MaterialParameters(nu=nu, q=q)
        grid = UniformGrid(0.01, 1000)
        rep = solve_relaxation(p, grid)
        gam = rep.gamma
        phi = interp1d(grid.times, rep.solution.values)

        def residual(tp):
            # z = ln^nu(1+x) makes the integrand smooth: K dx = dz/nu
            z_top = math.log1p(tp) ** nu
            integrand = lambda z: phi(tp - math.expm1(z ** (1.0 / nu)))
            val, _ = quad(integrand, 0.0, z_top, limit=200)
            return abs(float(phi(tp)) - (1.0 - gam * val / nu))

        probes = np.linspace(1.0, 10.0, 10)
        worst = max(residual(float(tp)) for tp in probes)
        assert worst <= 5.0 * rep.refinement_error


class TestAsymptotic:
    def test_small_time_values(self):
        got = relaxation_asymptotic(0.5, 1e-4, "small_time")
        assert got == pytest.approx(1.0 - 0.01 / gamma(1.5), rel=1e-12)
        assert got == pytest.approx(0.9887162, abs=5e-8)
        assert relaxation_asymptotic(0.75, 0.0, "small_time") == 1.0

    def test_large_time_values(self):
        got = relaxation_asymptotic(1.0, 1e4, "large_time")
        assert got == pytest.approx(1.0 / math.log(1e4), rel=1e-13)
        assert got == pytest.approx(0.1085736, abs=5e-8)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            relaxation_asymptotic(0.5, 2.0, "small_time")
        with pytest.raises(ValueError):
            relaxation_asymptotic(0.5, 2.0, "large_time")
        with pytest.raises(ValueError):
            relaxation_asymptotic(0.5, 2.0, "never")


class TestTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            UniformGrid(0.0, 10)
        with pytest.raises(ValueError):
            UniformGrid(0.1, 0)
        g = UniformGrid(0.5, 4)
        assert g.horizon == 2.0
        assert np.allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_sampled_function_validation(self):
        g = UniformGrid(0.1, 3)
        SampledFunction(g, np.zeros(4))
        with pytest.raises(ValueError):
            SampledFunction(g, np.zeros(5))
        with pytest.raises(ValueError):
            SampledFunction(g, np.array([0.0, 1.0, np.nan, 2.0]))


def direct_recursion(gam, om, n):
    """Reference: the explicit recursion as a direct O(n^2) loop."""
    phi = np.empty(n + 1)
    phi[0] = 1.0
    for k in range(1, n + 1):
        phi[k] = 1.0 - gam * float(np.dot(om[:k][::-1], phi[:k]))
    return phi


def direct_oracle(p, grid):
    """Reference: the oracle's per-step scalar solve as a direct O(N^2) loop."""
    refine = 4
    hf = grid.h / (refine * p.tau0)
    N = refine * grid.n
    gam = _gamma_constant(p)
    M0, M1 = _panel_moments(p.nu, hf, N)
    a = M1 / hf
    b = M0 - a
    phi = np.empty(N + 1)
    phi[0] = 1.0
    pivot = 1.0 + gam * b[0]
    for m in range(1, N + 1):
        conv = float(np.dot(a[:m][::-1], phi[:m]))
        if m >= 2:
            conv += float(np.dot(b[1:m][::-1], phi[1:m]))
        phi[m] = (1.0 - gam * conv) / pivot
    return phi[::refine]


def assert_matches_direct(p, grid):
    rep = solve_relaxation(p, grid)
    hp = grid.h / p.tau0
    ref = direct_recursion(rep.gamma, weights(p.nu, hp, grid.n), grid.n)
    ref2 = direct_recursion(rep.gamma, weights(p.nu, hp / 2.0, 2 * grid.n), 2 * grid.n)
    phi = rep.solution.values
    assert phi[0] == 1.0
    assert abs(phi[1] - (1.0 - rep.gamma * weights(p.nu, hp, 1)[0])) <= 1e-15
    assert float(np.max(np.abs(phi - ref))) <= 1e-13
    ref_gap = float(np.max(np.abs(ref - ref2[::2])))
    assert abs(rep.refinement_error - ref_gap) <= 1e-13


REFERENCE_SIZES = [1, 2, 3, 7, 100, 1023, 1024, 1025, 2000]


class TestFastPathReference:
    @pytest.mark.parametrize("n", REFERENCE_SIZES)
    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75, 1.0])
    def test_solver_matches_direct_recursion(self, nu, n):
        assert_matches_direct(MaterialParameters(nu=nu), UniformGrid(0.01, n))

    @pytest.mark.parametrize("n", REFERENCE_SIZES)
    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75, 1.0])
    def test_oracle_matches_direct_loop(self, nu, n):
        p = MaterialParameters(nu=nu)
        grid = UniformGrid(0.01, n)
        out = oracle_solve(p, grid).values
        assert out[0] == 1.0
        assert float(np.max(np.abs(out - direct_oracle(p, grid)))) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(
        nu=st.floats(min_value=0.1, max_value=1.0),
        q=st.floats(min_value=0.1, max_value=5.0),
        tau0=st.floats(min_value=0.1, max_value=10.0),
        h=st.floats(min_value=1e-4, max_value=1.0),
        n=st.integers(min_value=1, max_value=600),
    )
    def test_property_admissible_steps(self, nu, q, tau0, h, n):
        p = MaterialParameters(q=q, tau0=tau0, nu=nu)
        assume(_gamma_constant(p) * weights(nu, h / tau0, 1)[0] < 1.0)
        assert_matches_direct(p, UniformGrid(h, n))
