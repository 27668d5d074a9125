"""Forward solution of the relaxation Volterra equation.

The dimensionless relaxation function solves a second-kind Volterra
equation whose kernel ``ln^(nu-1)(1+x)/(1+x)`` is the exact derivative of
``ln^nu(1+x)/nu``.  Product integration with left-constant panels turns
the equation into an explicit recursion with closed-form weights; a
structurally different piecewise-linear discretization on a four-fold
refined grid serves as an independent oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .creep import MaterialParameters
from .special_functions import gamma

__all__ = [
    "SampledFunction",
    "SolverReport",
    "StepSizeError",
    "UniformGrid",
    "kernel",
    "oracle_solve",
    "relaxation_asymptotic",
    "solve_relaxation",
    "weights",
]


class StepSizeError(ValueError):
    """The step is too large for the explicit recursion to stay monotone."""


@dataclass(frozen=True)
class UniformGrid:
    """Uniform time grid t_j = j*h for j = 0..n."""

    h: float
    n: int

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"step must be positive, got {self.h}")
        if not self.n >= 1:
            raise ValueError(f"need at least one step, got n = {self.n}")

    @property
    def horizon(self) -> float:
        return self.n * self.h

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h


@dataclass(frozen=True)
class SampledFunction:
    """Values of a function on a uniform grid (length n + 1)."""

    grid: UniformGrid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite")


@dataclass(frozen=True)
class SolverReport:
    """A solved relaxation curve plus diagnostics."""

    solution: SampledFunction
    weights_head: np.ndarray
    gamma: float
    refinement_error: float
    runtime_note: str = ""

    def __post_init__(self):
        if not self.refinement_error >= 0.0:
            raise ValueError("refinement error must be nonnegative")


def kernel(nu: float, x: float) -> float:
    """Convolution kernel ln^(nu-1)(1+x)/(1+x), positive and decreasing.

    Singular at x = 0 for nu < 1; the domain is x > 0.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"kernel argument must be positive, got {x}")
    return math.log1p(x) ** (nu - 1.0) / (1.0 + x)


def weights(nu: float, h: float, count: int) -> np.ndarray:
    """Product-integration weights Omega_1..Omega_count.

    ``Omega_m = (ln^nu(1+m h) - ln^nu(1+(m-1) h)) / nu`` is the exact kernel
    mass of the m-th panel; partial sums telescope to ``ln^nu(1+m h)/nu``.
    The consecutive panel masses differ by well under a factor of two, so
    the floating-point differences are exact (Sterbenz) and the telescoping
    identity survives in double precision.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    if not count >= 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not math.isfinite(count * h):
        raise ValueError(f"horizon count*h = {count} * {h} exceeds double precision")
    g = np.log1p(np.arange(count + 1, dtype=float) * h) ** nu / nu
    return np.diff(g)


def _gamma_constant(p: MaterialParameters) -> float:
    return p.q * p.nu / gamma(1.0 + p.nu)


def _max_admissible_step(p: MaterialParameters) -> float:
    # gamma * Omega_1 < 1  <=>  q ln^nu(1 + h/tau0) < Gamma(1 + nu)
    return p.tau0 * math.expm1((gamma(1.0 + p.nu) / p.q) ** (1.0 / p.nu))


def _series_inverse(a: np.ndarray) -> np.ndarray:
    """First ``len(a)`` coefficients of the power series ``1/a(z)``.

    Newton doubling ``b <- b - b (a b - 1)`` with FFT products solves the
    lower-triangular Toeplitz system in O(n log n).  Each step writes only
    the new coefficients ``b[m:2m]`` and leaves the converged ones as they
    are.  In the length-2m cyclic product the wrap-around lands below
    index m, where it is not read.
    """
    n = a.size
    b = np.empty(n)
    b[0] = 1.0 / a[0]
    m = 1
    while m < n:
        k = min(2 * m, n)
        fb = np.fft.rfft(b[:m], 2 * m)
        e = np.fft.irfft(np.fft.rfft(a[:k], 2 * m) * fb, 2 * m)[m:k]
        b[m:k] = -np.fft.irfft(np.fft.rfft(e, 2 * m) * fb, 2 * m)[: k - m]
        m = k
    return b


def _forward_recursion(gamma_c: float, om: np.ndarray, n: int) -> np.ndarray:
    # phi_k = 1 - gamma sum_j Omega_(k-j) phi_j  <=>  Phi(z) = 1/((1-z)(1+gamma W(z)))
    return np.cumsum(_series_inverse(np.concatenate(([1.0], gamma_c * om[:n]))))


def solve_relaxation(p: MaterialParameters, grid: UniformGrid) -> SolverReport:
    """Solve the relaxation equation by the explicit product-integration
    recursion ``phi_n = 1 - gamma * sum_j Omega_(n-j) phi_j``, evaluated in
    O(n log n) as a power-series inversion.

    The characteristic time is handled exactly by solving in rescaled time
    ``t/tau0`` and relabeling the grid.  The report carries the first few
    weights, the constant ``gamma = q nu / Gamma(1+nu)``, and a refinement
    error from an internal half-step re-solve on the same horizon.

    Raises
    ------
    StepSizeError
        If ``gamma * Omega_1 >= 1``; the message suggests an admissible step.
    """
    start = time.perf_counter()
    hp = grid.h / p.tau0
    gamma_c = _gamma_constant(p)
    # Omega_1 = ln^nu(1 + h/tau0)/nu; written so that h/tau0 = inf fails too
    step_gain = gamma_c * math.log1p(hp) ** p.nu / p.nu
    if not step_gain < 1.0:
        raise StepSizeError(
            f"step h = {grid.h} too large for nu = {p.nu}, q = {p.q}: "
            f"gamma*Omega_1 = {step_gain:.4g} >= 1; "
            f"use h < {_max_admissible_step(p):.4g}"
        )
    om = weights(p.nu, hp, grid.n)
    phi = _forward_recursion(gamma_c, om, grid.n)
    om2 = weights(p.nu, hp / 2.0, 2 * grid.n)
    phi2 = _forward_recursion(gamma_c, om2, 2 * grid.n)
    refinement_error = float(np.max(np.abs(phi - phi2[::2])))
    elapsed = time.perf_counter() - start
    solution = SampledFunction(grid, phi, label=f"phi nu={p.nu:g}")
    return SolverReport(
        solution=solution,
        weights_head=om[:5].copy(),
        gamma=gamma_c,
        refinement_error=refinement_error,
        runtime_note=f"n={grid.n}, h={grid.h:g}, solved in {elapsed:.3f}s",
    )


def _panel_moments(nu: float, hf: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact kernel moments over panels ((d-1)h, dh) for d = 1..count.

    Returns ``(M0, M1)`` with ``M0[d-1] = int K`` and ``M1[d-1] =
    int (x - (d-1)h) K dx``.  The first moments come from
    ``int x K dx = sum_k (w^(nu+k) / (k! (nu+k)))`` differenced between the
    panel ends (w = ln(1+x)), which is exact up to series truncation.
    """
    M0 = weights(nu, hf, count)
    w = np.log1p(np.arange(count + 1, dtype=float) * hf)
    wn = w**nu
    F = np.zeros_like(w)
    wk = np.ones_like(w)
    factorial = 1.0
    k = 0
    while True:
        k += 1
        factorial *= k
        wk = wk * w
        term = wn * wk / (factorial * (nu + k))
        F += term
        if float(np.max(term)) < 1e-18 * max(1.0, float(np.max(F))) or k > 200:
            break
    J = np.diff(F)  # int x K dx over each panel
    x_left = np.arange(count, dtype=float) * hf
    M1 = J - x_left * M0
    return M0, M1


def oracle_solve(p: MaterialParameters, grid: UniformGrid) -> SampledFunction:
    """Independent check of the explicit solver.

    Uses a piecewise-linear representation of the solution with exact
    kernel moments against the linear interpolants (second-order product
    integration) on a grid refined four-fold, solving the resulting
    Toeplitz system by series inversion, then restricting back to the input
    grid.
    """
    refine = 4
    hf = grid.h / (refine * p.tau0)
    N = refine * grid.n
    gamma_c = _gamma_constant(p)
    if gamma_c * weights(p.nu, hf, 1)[0] >= 1.0:
        raise StepSizeError(
            f"step h = {grid.h} too large for the oracle at nu = {p.nu}, q = {p.q}"
        )
    M0, M1 = _panel_moments(p.nu, hf, N)
    a = M1 / hf
    b = M0 - a
    # the step equations form a Toeplitz system in phi_1..phi_N once the
    # phi_0 = 1 terms move to the right-hand side
    c = gamma_c * (b + np.concatenate(([0.0], a[:-1])))
    c[0] += 1.0
    r = 1.0 - gamma_c * a
    size = 2 * N
    phi = np.empty(N + 1)
    phi[0] = 1.0
    phi[1:] = np.fft.irfft(
        np.fft.rfft(_series_inverse(c), size) * np.fft.rfft(r, size), size
    )[:N]
    return SampledFunction(grid, phi[::refine].copy(), label=f"oracle nu={p.nu:g}")


def relaxation_asymptotic(nu: float, t: float, regime: str) -> float:
    """Limit formulas of the relaxation function for q = tau0 = 1.

    ``regime="small_time"`` (t <= 1) returns 1 - t^nu / Gamma(1 + nu);
    ``regime="large_time"`` (t >= 10) returns Gamma(1 + nu) / ln^nu(t).
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    t = float(t)
    if regime == "small_time":
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"small-time regime needs t <= 1, got {t}")
        return 1.0 - t**nu / gamma(1.0 + nu)
    if regime == "large_time":
        if not t >= 10.0:
            raise ValueError(f"large-time regime needs t >= 10, got {t}")
        return gamma(1.0 + nu) / math.log(t) ** nu
    raise ValueError(f"unknown regime {regime!r}")
