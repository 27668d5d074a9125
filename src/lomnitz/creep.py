"""Closed-form creep-side material functions of the generalized logarithmic
creep model: strain response, dimensionless creep function and rate,
compliance, and the small- and large-time limit formulas."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import gamma

__all__ = [
    "MaterialParameters",
    "compliance",
    "creep_asymptotic",
    "creep_psi",
    "creep_rate",
    "creep_strain",
]


@dataclass(frozen=True)
class MaterialParameters:
    """Physical constants of the rheological model.

    Parameters
    ----------
    q : float
        Dimensionless creep amplitude, positive.
    E0 : float
        Shear modulus (stress units), positive.
    tau0 : float
        Characteristic time, positive.
    nu : float
        Fractional order in (0, 1]; 1 recovers the classical logarithmic law.
    J0 : float, optional
        Instantaneous compliance; defaults to 1/E0 and must satisfy
        J0 * E0 = 1 to within 1e-12 when given explicitly.
    """

    q: float = 1.0
    E0: float = 1.0
    tau0: float = 1.0
    nu: float = 1.0
    J0: float | None = None

    def __post_init__(self):
        for name in ("q", "E0", "tau0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")
        if self.J0 is None:
            object.__setattr__(self, "J0", 1.0 / self.E0)
        elif abs(self.J0 * self.E0 - 1.0) > 1e-12:
            raise ValueError(
                f"J0 must equal 1/E0: J0*E0 = {self.J0 * self.E0} differs from 1"
            )


def creep_psi(p: MaterialParameters, t):
    """Dimensionless creep function q ln^nu(1 + t/tau0) / Gamma(1 + nu).

    ``t`` is a float or an array of times; the result is of the same kind.
    Zero at t = 0 and nondecreasing; unbounded as t grows (fluid-like).
    Values beyond double precision are ``inf``, without a warning.
    """
    # [()] turns a 0-d array into a numpy scalar, whose arithmetic is cheaper
    t = np.asarray(t, dtype=float)[()]
    negative = t < 0.0
    if np.count_nonzero(negative):
        raise ValueError(f"time must be nonnegative, got {np.extract(negative, t)[0]}")
    with np.errstate(over="ignore"):
        psi = p.q * np.log1p(t / p.tau0) ** p.nu / gamma(1.0 + p.nu)
    return psi if psi.ndim else float(psi)


def creep_rate(p: MaterialParameters, t: float) -> float:
    """Time derivative of the dimensionless creep function.

    Positive and strictly decreasing; for nu < 1 it diverges at t = 0,
    while for nu = 1 it equals q / (tau0 + t).
    """
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if p.nu == 1.0:
        return p.q / (p.tau0 + t)
    if t == 0.0:
        raise ValueError("the creep rate diverges at t = 0 for nu < 1")
    x = t / p.tau0
    return (
        p.q
        * p.nu
        * math.log1p(x) ** (p.nu - 1.0)
        / (gamma(1.0 + p.nu) * (1.0 + x) * p.tau0)
    )


def creep_strain(p: MaterialParameters, sigma0: float, t: float) -> float:
    """Strain under a constant stress ``sigma0`` applied at t = 0.

    Equals ``(sigma0 / E0) * (1 + creep_psi(p, t))``.
    """
    return sigma0 / p.E0 * (1.0 + creep_psi(p, t))


def compliance(p: MaterialParameters, t: float) -> float:
    """Creep compliance J(t) = J0 * (1 + psi(t)); J(0) = J0, nondecreasing."""
    return p.J0 * (1.0 + creep_psi(p, t))


def creep_asymptotic(p: MaterialParameters, t: float, regime: str) -> float:
    """Limit formulas of the creep function for q = tau0 = 1.

    ``regime="small_time"`` (t <= 1) returns t^nu / Gamma(1 + nu);
    ``regime="large_time"`` (t >= 10) returns ln^nu(t) / Gamma(1 + nu).
    Intended only for comparison against ``creep_psi``.
    """
    if p.q != 1.0 or p.tau0 != 1.0:
        raise ValueError("asymptotic formulas assume q = tau0 = 1")
    t = float(t)
    if regime == "small_time":
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"small-time regime needs t <= 1, got {t}")
        return t**p.nu / gamma(1.0 + p.nu)
    if regime == "large_time":
        if not t >= 10.0:
            raise ValueError(f"large-time regime needs t >= 10, got {t}")
        return math.log(t) ** p.nu / gamma(1.0 + p.nu)
    raise ValueError(f"unknown regime {regime!r}")
