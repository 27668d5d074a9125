"""Integro-differential operators with logarithmic kernels.

The family is parametrized by a kernel shift ``a`` in [0, 1], a rate
``b > 0`` and an order ``nu`` in (0, 1].  Writing ``u = ln(a + b*tau)``
turns the logarithmic kernel into the Abel kernel ``(U - u)**(alpha - 1)``
on the interval [0, U] with ``U = ln(a + b*t)``, and the evolution operator
of order ``nu`` becomes the order-``(1 - nu)`` fractional integral of the
log-time derivative ``d f / d u``.

Quadrature is product integration on a uniform u-grid: the kernel is
integrated exactly against a piecewise-linear interpolant of the smooth
factor.  For the differential operator the leading panels integrate the
derivative through exact differences of ``f`` itself, which keeps the
scheme accurate when ``f`` has a singular derivative at the lower limit
(the power-of-logarithm test family does).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .special_functions import _ml_arrays, _rgamma, gamma, log_ml

__all__ = [
    "AccuracyWarning",
    "DerivativeWarning",
    "DifferentiableInput",
    "OperatorConfig",
    "hadamard_derivative",
    "hadamard_integral",
    "verify_eigenfunction",
    "verify_power_law_property",
]


class AccuracyWarning(UserWarning):
    """Refinement estimate of a quadrature exceeded the requested tolerance."""


class DerivativeWarning(UserWarning):
    """Finite-difference derivative estimates disagreed beyond tolerance."""


@dataclass(frozen=True)
class OperatorConfig:
    """Kernel parameters (a, b) and order nu of the evolution operator.

    ``a = b = 1`` gives the creep-model operator; ``a = 0, b = 1`` gives the
    regularized Hadamard derivative with natural domain starting at
    ``t_low = (1 - a)/b``.
    """

    a: float
    b: float
    nu: float

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"kernel shift a must lie in [0, 1], got {self.a}")
        if not self.b > 0.0:
            raise ValueError(f"kernel rate b must be positive, got {self.b}")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"order nu must lie in (0, 1], got {self.nu}")

    @property
    def t_low(self) -> float:
        """Lower limit of the defining integral."""
        return (1.0 - self.a) / self.b


@dataclass(frozen=True)
class DifferentiableInput:
    """A function of time with an optional analytic derivative.

    ``f`` (and ``df`` when given) should accept numpy arrays; plain scalar
    callables are evaluated elementwise as a fallback.
    """

    f: Callable
    df: Callable | None = None
    label: str = ""


def _eval_on(func: Callable, x: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(func(x), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(func(float(v))) for v in x.ravel()]).reshape(x.shape)


def _panel_weights(alpha: float, U: float, m: int):
    """Product-trapezoid panel quantities for the kernel (U - u)**(alpha-1).

    Returns ``(u, A, B, W, delta)`` where panel i contributes
    ``A[i] g(u_i) + B[i] g(u_{i+1})`` for a piecewise-linear ``g`` and ``W[i]``
    is the exact kernel mass of the panel.
    """
    u = np.linspace(0.0, U, m + 1)
    c = U - u
    c[-1] = 0.0
    Pa = c**alpha / alpha
    Pb = c ** (alpha + 1.0) / (alpha + 1.0)
    W = Pa[:-1] - Pa[1:]
    dPb = Pb[:-1] - Pb[1:]
    delta = U / m
    A = (dPb - c[1:] * W) / delta
    B = (c[:-1] * W - dPb) / delta
    return u, A, B, W, delta


def _fd_derivative(inp: DifferentiableInput, tau: np.ndarray, t_low: float):
    """Central differences with one Richardson refinement.

    Returns ``(derivative, worst_relative_disagreement)``.
    """
    h = 1e-6 * (1.0 + np.abs(tau))
    room = 0.5 * (tau - t_low)
    h = np.where(room > 0, np.minimum(h, room), h)
    f = inp.f
    d1 = (_eval_on(f, tau + h) - _eval_on(f, tau - h)) / (2.0 * h)
    d2 = (_eval_on(f, tau + 0.5 * h) - _eval_on(f, tau - 0.5 * h)) / h
    rich = (4.0 * d2 - d1) / 3.0
    scale = np.maximum(np.abs(rich), 1e-12)
    disagreement = float(np.max(np.abs(rich - d2) / scale)) if tau.size else 0.0
    return rich, disagreement


def _derivative_values(inp: DifferentiableInput, tau: np.ndarray, t_low: float):
    """``inp.df`` at ``tau`` with disagreement 0, or else ``_fd_derivative``."""
    if inp.df is not None:
        return _eval_on(inp.df, tau), 0.0
    return _fd_derivative(inp, tau, t_low)


def _integral_once(alpha: float, cfg: OperatorConfig, inp: DifferentiableInput,
                   t: float, m: int) -> float:
    U = math.log(cfg.a + cfg.b * t)
    u, A, B, _, _ = _panel_weights(alpha, U, m)
    tau = (np.exp(u) - cfg.a) / cfg.b
    tau[0] = cfg.t_low
    tau[-1] = t
    fv = _eval_on(inp.f, tau)
    return float(np.dot(A, fv[:-1]) + np.dot(B, fv[1:])) / gamma(alpha)


def _derivative_once(cfg: OperatorConfig, inp: DifferentiableInput,
                     t: float, m: int) -> tuple[float, float]:
    """One quadrature pass of the order-nu operator; returns (value, fd_disagreement)."""
    alpha = 1.0 - cfg.nu
    U = math.log(cfg.a + cfg.b * t)
    u, A, B, W, delta = _panel_weights(alpha, U, m)
    tau = (np.exp(u) - cfg.a) / cfg.b
    tau[0] = cfg.t_low
    tau[-1] = t
    # leading panels integrate df/du through exact differences of f; the
    # remainder uses the linear interpolant of g = (a/b + tau) f'(tau)
    k0 = min(max(1, int(m ** (2.0 / 3.0))), m // 2)
    fv = _eval_on(inp.f, tau[: k0 + 1])
    head = float(np.dot(W[:k0], np.diff(fv) / delta))
    tail_tau = tau[k0:]
    dfv, disagreement = _derivative_values(inp, tail_tau, cfg.t_low)
    gv = (cfg.a / cfg.b + tail_tau) * dfv
    tail = float(np.dot(A[k0:], gv[:-1]) + np.dot(B[k0:], gv[1:]))
    return (head + tail) / gamma(alpha), disagreement


def hadamard_integral(cfg: OperatorConfig, inp: DifferentiableInput, t: float,
                      panels: int, warn_tol: float = 1e-4) -> float:
    """Fractional integral with logarithmic kernel, order ``cfg.nu`` read as alpha.

    Computes ``(1/Gamma(alpha)) * int_{t_low}^t ln^(alpha-1)((a+bt)/(a+b tau))
    f(tau) b/(a+b tau) d tau`` by product integration with a piecewise-linear
    interpolant of ``f`` in the log-time variable.

    Parameters
    ----------
    cfg : OperatorConfig
        The order field is reinterpreted as the integral order alpha in (0, 1].
    inp : DifferentiableInput
        Integrand; the derivative field is not used.
    t : float
        Evaluation time, strictly above ``cfg.t_low``.
    panels : int
        Number of uniform panels in the log-time variable, at least 2.
    warn_tol : float
        Relative tolerance for the internal half-resolution refinement
        estimate; an AccuracyWarning is emitted when exceeded.
    """
    t = _check_time(cfg, t)
    m = _check_panels(panels)
    alpha = cfg.nu
    fine = _integral_once(alpha, cfg, inp, t, m)
    coarse = _integral_once(alpha, cfg, inp, t, max(2, m // 2))
    _warn_if_coarse(fine, coarse, warn_tol, "hadamard_integral")
    return fine


def hadamard_derivative(cfg: OperatorConfig, inp: DifferentiableInput, t: float,
                        panels: int, warn_tol: float = 1e-4) -> float:
    """Evolution operator of order nu applied to ``inp`` at time ``t``.

    For ``0 < nu < 1`` this is the order-(1-nu) logarithmic-kernel integral
    of ``(a/b + tau) f'(tau)``; for ``nu = 1`` it is the purely differential
    ``(a/b + t) f'(t)`` (equal to ``(1 + t) f'(t)`` when a = b = 1).

    The derivative comes from ``inp.df`` when provided, otherwise from
    central differences with one Richardson refinement; a DerivativeWarning
    is emitted when the two finite-difference estimates disagree by more
    than 1e-5 in relative terms.
    """
    t = _check_time(cfg, t)
    if cfg.nu == 1.0:
        dfv, disagreement = _derivative_values(inp, np.array([t]), cfg.t_low)
        value = (cfg.a / cfg.b + t) * float(dfv[0])
    else:
        m = _check_panels(panels)
        value, disagreement = _derivative_once(cfg, inp, t, m)
        coarse, _ = _derivative_once(cfg, inp, t, max(2, m // 2))
        _warn_if_coarse(value, coarse, warn_tol, "hadamard_derivative")
    if disagreement > 1e-5:
        warnings.warn(
            f"finite-difference derivative uncertain (rel {disagreement:.2e})",
            DerivativeWarning,
            stacklevel=2,
        )
    return value


def _check_time(cfg: OperatorConfig, t: float) -> float:
    t = float(t)
    # written so that NaN fails the test
    if not cfg.t_low < t < math.inf:
        raise ValueError(f"time must be finite and exceed t_low = {cfg.t_low}, got {t}")
    return t


def _check_panels(panels: int) -> int:
    m = int(panels)
    if m < 2:
        raise ValueError(f"at least 2 panels required, got {panels}")
    return m


def _warn_if_coarse(fine: float, coarse: float, warn_tol: float, who: str) -> None:
    if not math.isfinite(warn_tol):
        return
    est = abs(fine - coarse)
    if est > warn_tol * max(1.0, abs(fine)):
        warnings.warn(
            f"{who}: refinement estimate {est:.2e} exceeds tolerance {warn_tol:.2e}",
            AccuracyWarning,
            stacklevel=3,
        )


def _worst(errors: list[float]) -> float:
    """Largest error, NaN if any is NaN (``max`` would skip it), 0 if none."""
    return float(np.max(errors, initial=0.0))


def verify_power_law_property(cfg: OperatorConfig, beta: float,
                              t_samples: Sequence[float],
                              panels: int = 10_000) -> float:
    """Worst relative error of the power-of-logarithm mapping property.

    The operator sends ``ln^beta(a + b t)`` to
    ``Gamma(beta+1)/Gamma(beta+1-nu) * ln^(beta-nu)(a + b t)``; both sides are
    evaluated at every sample and the largest relative discrepancy returned
    (NaN if any sample's is NaN).

    ``beta`` must be positive and nonzero: the operator annihilates
    constants (beta = 0), and for beta < 0 the defining integral diverges
    at the lower limit, so the property is not numerically checkable there.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    a, b, nu = cfg.a, cfg.b, cfg.nu

    def log_arg(x):
        # a + b*t_low can round to just below 1, where ln**beta is NaN
        return np.maximum(a + b * np.asarray(x, dtype=float), 1.0)

    def f(x):
        return np.log(log_arg(x)) ** beta

    def df(x):
        s = log_arg(x)
        return beta * np.log(s) ** (beta - 1.0) * b / s

    inp = DifferentiableInput(f=f, df=df, label=f"ln^{beta}")
    factor = gamma(beta + 1.0) * _rgamma(beta + 1.0 - nu)
    errors = []
    for t in t_samples:
        t = _check_time(cfg, t)
        lhs = hadamard_derivative(cfg, inp, t, panels, warn_tol=math.inf)
        rhs = factor * math.log(a + b * t) ** (beta - nu)
        errors.append(abs(lhs - rhs) / abs(rhs))
    return _worst(errors)


def verify_eigenfunction(cfg: OperatorConfig, t_samples: Sequence[float],
                         panels: int = 10_000) -> float:
    """Worst absolute deviation of the relaxation eigenfunction identity.

    With a = b = 1 the operator maps ``E_nu(-ln^nu(1+t))`` to its negative;
    this evaluates the operator at each sample and returns the largest
    absolute difference from that target (NaN if any sample's is NaN).
    """
    if not (cfg.a == 1.0 and cfg.b == 1.0):
        raise ValueError("the eigenfunction identity requires a = b = 1")
    nu = cfg.nu

    def f(x):
        x = np.asarray(x, dtype=float)
        val, _ = _ml_arrays(nu, -np.log1p(x) ** nu)
        return val

    def df(x):
        x = np.asarray(x, dtype=float)
        L = np.log1p(x)
        _, der = _ml_arrays(nu, -(L**nu))
        # d/dt E_nu(-ln^nu(1+t)); the ln^(nu-1) factor diverges at t = 0,
        # which the quadrature's leading panels avoid evaluating
        return -der * nu * L ** (nu - 1.0) / (1.0 + x)

    inp = DifferentiableInput(f=f, df=df, label="log-ml eigenfunction")
    errors = []
    for t in t_samples:
        t = float(t)
        if not t > 0.0:
            raise ValueError(f"samples must be positive, got {t}")
        lhs = hadamard_derivative(cfg, inp, t, panels, warn_tol=math.inf)
        errors.append(abs(lhs + log_ml(nu, t)))
    return _worst(errors)
