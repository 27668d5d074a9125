"""Laplace-domain cross-validation of the creep/relaxation pair.

The transforms of the dimensionless creep and relaxation functions satisfy
``phi~(s) = 1 / (s (1 + s psi~(s)))``.  Both transforms are computed
forward from sampled data (no numerical inversion): ``exp(-s t)`` is
integrated exactly against the piecewise-linear interpolant of the
samples, and the discarded tail beyond the horizon is reported as
``|f(T)| exp(-s T) / s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .creep import MaterialParameters, creep_psi
from .relaxation import SampledFunction

__all__ = [
    "HorizonError",
    "LaplaceProbe",
    "check_laplace_identity",
    "laplace_of_sampled",
]

# s*T below this leaves a non-negligible truncation tail
_MIN_HORIZON_PRODUCT = 10.0


class HorizonError(ValueError):
    """The sampled horizon is too short for the requested Laplace probe."""


@dataclass(frozen=True)
class LaplaceProbe:
    """A transform evaluation point with its truncation diagnostics."""

    s: float
    truncation_T: float
    tail_estimate: float

    def __post_init__(self):
        if not self.s > 0.0:
            raise ValueError(f"Laplace variable must be positive, got {self.s}")
        if not self.truncation_T > 0.0:
            raise ValueError("truncation horizon must be positive")
        if not self.tail_estimate >= 0.0:
            raise ValueError("tail estimate must be nonnegative")

    @classmethod
    def for_sampled(cls, f: SampledFunction, s: float) -> "LaplaceProbe":
        T = f.grid.horizon
        tail = abs(float(f.values[-1])) * math.exp(-s * T) / s
        return cls(s=s, truncation_T=T, tail_estimate=tail)


def laplace_of_sampled(f: SampledFunction, s: float) -> float:
    """Truncated Laplace transform ``int_0^T exp(-s t) f(t) dt``.

    The transform of the piecewise-linear interpolant is integrated in
    closed form panel by panel, so constants and ramps are exact.  Requires
    ``s * h <= 10``; beyond that the per-panel expressions lose accuracy.
    """
    s = float(s)
    if not s > 0.0:
        raise ValueError(f"Laplace variable must be positive, got {s}")
    h = f.grid.h
    if s * h > 10.0:
        raise ValueError(
            f"s*h = {s * h:.3g} too large for stable panel integration (max 10)"
        )
    vals = f.values
    E = np.exp(-s * f.grid.times)
    dE = E[:-1] - E[1:]
    slope = np.diff(vals) / h
    # int exp(-s t) dt and int exp(-s t)(t - t_i) dt over each panel
    I0 = dE / s
    I1 = dE / s**2 - h * E[1:] / s
    return float(np.dot(vals[:-1], I0) + np.dot(slope, I1))


def check_laplace_identity(
    p: MaterialParameters, phi: SampledFunction, probes: Sequence[float]
) -> np.ndarray:
    """Relative residuals of the transform identity at each probe.

    Samples the creep function on the grid of ``phi``, transforms both
    curves, and returns ``|phi~ - 1/(s (1 + s psi~))| / phi~`` per probe.

    Raises
    ------
    HorizonError
        If ``s * T < 10`` for some probe (truncation tail not negligible).
    """
    T = phi.grid.horizon
    for s in probes:
        if float(s) * T < _MIN_HORIZON_PRODUCT:
            raise HorizonError(
                f"horizon T = {T:g} too short for probe s = {s:g}: "
                f"need s*T >= {_MIN_HORIZON_PRODUCT:g}"
            )
    psi = SampledFunction(phi.grid, creep_psi(p, phi.grid.times), label=f"psi nu={p.nu:g}")
    residuals = np.empty(len(probes))
    for i, s in enumerate(probes):
        s = float(s)
        phi_hat = laplace_of_sampled(phi, s)
        psi_hat = laplace_of_sampled(psi, s)
        predicted = 1.0 / (s * (1.0 + s * psi_hat))
        residuals[i] = abs(phi_hat - predicted) / phi_hat
    return residuals
