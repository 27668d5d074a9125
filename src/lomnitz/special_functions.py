"""Scalar special functions: the Gamma function and the one-parameter
Mittag-Leffler function, including its composition with powers of logarithms.

The Mittag-Leffler evaluator targets real orders ``nu`` in (0, 1] and real
arguments, in double precision throughout.  For nonpositive arguments the
value and the derivative come from two kernels, applied to arrays by
``_ml_arrays`` and to single floats by the scalar functions:

* near the origin, a Taylor sum of about ``_TAYLOR_TERMS`` terms at most;
* elsewhere, the trapezoid rule on Garrappa's parabolic contour
  ``z(u) = mu (1 + iu)**2`` applied to the Bromwich integral of the Laplace
  transform ``s**(nu-1) / (s**nu - x)`` (R. Garrappa, SIAM J. Numer. Anal.
  53, 2015; J. A. C. Weideman and L. N. Trefethen, Math. Comp. 76, 2007).
  For ``x < 0`` and ``nu < 1`` the transform has no pole on the principal
  sheet, so the contour does not depend on ``x`` and its 28 nodes are fixed
  at import.

The absolute error is below 1e-14 on [-50, 0] (README, "Numerical notes").
Positive arguments sum the all-positive Taylor series from log-space terms,
and ``nu = 1`` is ``exp``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "PoleError",
    "gamma",
    "log_ml",
    "mittag_leffler",
]


class PoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


class ConvergenceError(ArithmeticError):
    """A Mittag-Leffler value at a positive argument overflows double
    precision, or its series does not terminate."""


# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 4.7421875
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma function on the real axis.

    Lanczos rational approximation with reflection for ``x < 0.5``.
    Relative accuracy is better than 1e-12 on (0, 50].

    Raises
    ------
    PoleError
        If ``x`` is zero or a negative integer.
    """
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"gamma argument must be finite, got {x}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma has a pole at {x}")
    if x < 0.5:
        # Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    series = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        series += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * series


def _rgamma(x: float) -> float:
    """Reciprocal Gamma, continuous through the poles (value 0 there)."""
    if _is_nonpositive_integer(x):
        return 0.0
    try:
        return 1.0 / gamma(x)
    except OverflowError:
        return 0.0


# ---------------------------------------------------------------------------
# Mittag-Leffler machinery
# ---------------------------------------------------------------------------

# the Taylor sum serves |x| up to the radius where term _TAYLOR_TERMS falls
# to _TAYLOR_TAIL, so it never needs many more terms than that
_TAYLOR_TERMS = 80
_TAYLOR_TAIL = 1e-17
# arguments per contour block, which bounds the (block x nodes) temporaries
_CHUNK = 512


def _contour_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Logarithms of the contour nodes and the trapezoid weights over them.

    Garrappa's OptimalParam_RU for accuracy tol = 1e-15 at t = 1, with no
    singularity but the branch point at s = 0, gives mu = log(tol) - log(eps)
    and N = ceil(w |log tol| / 2 pi) steps of width w / N on each side.  The nodes at -u are the
    conjugates of those at u, so only u >= 0 is kept, with doubled weights.
    """
    log_tol, log_eps = math.log(1e-15), math.log(np.finfo(float).eps)
    mu = log_tol - log_eps
    w = math.sqrt(log_eps / (log_eps - log_tol))
    n = math.ceil(-w * log_tol / (2.0 * math.pi))
    u = w / n * np.arange(n + 1)
    z = mu * (1.0 + 1j * u) ** 2
    # h e^z z'(u) / (2 pi i), divided by z to supply the s**(nu-1) factor
    weights = w / n / (2j * math.pi) * np.exp(z) * (2j * mu * (1.0 + 1j * u)) / z
    weights[1:] *= 2.0
    return np.log(z), weights


_LOG_NODES, _NODE_WEIGHTS = _contour_nodes()


def _check_nu(nu: float) -> float:
    nu = float(nu)
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"order nu must lie in (0, 1], got {nu}")
    return nu


def _taylor_radius(nu: float) -> float:
    """Largest |x| <= 1 at which Taylor term _TAYLOR_TERMS is _TAYLOR_TAIL."""
    k = _TAYLOR_TERMS
    return min(1.0, math.exp((math.log(_TAYLOR_TAIL) + math.lgamma(nu * k + 1.0)) / k))


def _taylor(nu: float, x, y: float):
    """Taylor sums of E_nu and E_nu' at ``x``, a float or an array, |x| <= y.

    Terms are kept until no later one can reach _TAYLOR_TAIL: 1/Gamma(nu k + 1)
    peaks at 1.13 and falls once nu k + 1 passes 1.47.  Within
    ``_taylor_radius(nu)`` that takes about _TAYLOR_TERMS terms at most, none
    above 1.13 in magnitude, so cancellation costs a few units in the last place.
    """
    coeffs = [1.0]
    k = 0
    while y**k * (coeffs[-1] if nu * k > 0.47 else 1.13) >= _TAYLOR_TAIL:
        k += 1
        coeffs.append(1.0 / math.gamma(nu * k + 1.0))
    val = der = 0.0
    for j in range(k, 0, -1):
        val = val * x + coeffs[j]
        der = der * x + j * coeffs[j]
    return val * x + 1.0, der


def _contour(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E_nu(x) and E_nu'(x) for x < 0 by the trapezoid rule on the contour.

    The derivative integrates the x-derivative of the transform,
    s**(nu-1) / (s**nu - x)**2.  Elementwise products and sums only: a BLAS
    matrix product would start threads for these small blocks.
    """
    s_nu = np.exp(nu * _LOG_NODES)
    weights = _NODE_WEIGHTS * s_nu
    val, der = np.empty_like(x), np.empty_like(x)
    for i in range(0, x.size, _CHUNK):
        r = 1.0 / (s_nu - x[i : i + _CHUNK, None])
        f = weights * r
        val[i : i + _CHUNK] = f.real.sum(axis=1)
        der[i : i + _CHUNK] = (f * r).real.sum(axis=1)
    return val, der


def _ml_arrays(nu, x):
    """E_nu and E_nu' over an array of nonpositive arguments.

    The Taylor sum covers |x| up to ``_taylor_radius(nu)`` (1 for nu >= 0.25),
    the contour quadrature the rest; ``nu = 1`` is ``exp``.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x > 0.0):
        raise ValueError("array path expects nonpositive arguments")
    if nu == 1.0:
        e = np.exp(x)
        return e, e.copy()
    val, der = np.empty_like(x), np.empty_like(x)
    near = np.abs(x) <= _taylor_radius(nu)
    if near.any():
        xs = x[near]
        val[near], der[near] = _taylor(nu, xs, -float(xs.min()))
    far = ~near
    if far.any():
        val[far], der[far] = _contour(nu, x[far])
    return val, der


def _series_pos_log(nu: float, x: float, deriv: bool) -> float:
    """Positive-argument series summed from log-space terms.

    All terms are positive (no cancellation); individual terms may be huge,
    so they are formed as exp(k ln x - lgamma(nu k + 1)).
    """
    lnx = math.log(x)
    if lnx / nu > math.log(705.0):
        # the sum grows like exp(x^(1/nu)); reject before it overflows
        raise ConvergenceError(f"E_{nu}({x}) overflows double precision")
    kpeak = max(1.0, x ** (1.0 / nu) / nu) if x > 1.0 else 1.0
    s = 0.0 if deriv else 1.0
    k = 1
    while k < 1_000_000:
        lt = (k - 1 if deriv else k) * lnx - math.lgamma(nu * k + 1.0)
        if deriv:
            lt += math.log(k)
        if lt > 709.0:
            raise ConvergenceError(f"E_{nu}({x}) overflows double precision")
        term = math.exp(lt)
        s += term
        if k > kpeak and term <= 1e-17 * s:
            return s
        k += 1
    raise ConvergenceError("positive-argument series did not terminate")


def _ml_eval(nu: float, x: float, deriv: bool = False) -> float:
    """Scalar E_nu(x), or its x-derivative, for a checked order."""
    if nu == 1.0:
        return math.exp(x)
    if x > 0.0:
        return _series_pos_log(nu, x, deriv)
    # the array path's two kernels, without its masks: a float Taylor sum
    # costs a fraction of a one-element array's
    if -x <= _taylor_radius(nu):
        val, der = _taylor(nu, x, -x)
    else:
        val, der = (part[0] for part in _contour(nu, np.array([x])))
    return float(der if deriv else val)


def mittag_leffler(nu: float, x: float) -> float:
    """One-parameter Mittag-Leffler function E_nu(x) = sum x^k / Gamma(nu k + 1).

    Parameters
    ----------
    nu : float
        Order in (0, 1].  ``nu = 1`` short-circuits to ``exp(x)``.
    x : float
        Real argument.  Absolute accuracy better than 1e-14 on [-50, 0] and
        about 1e-10 on (0, 5].

    Raises
    ------
    ConvergenceError
        If the value overflows double precision (large positive ``x``).
    """
    nu = _check_nu(nu)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    return _ml_eval(nu, x, deriv=False)


def _mittag_leffler_deriv(nu: float, x: float) -> float:
    """d/dx E_nu(x), same method and accuracy as the value."""
    nu = _check_nu(nu)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    return _ml_eval(nu, x, deriv=True)


def log_ml(nu: float, t: float) -> float:
    """E_nu(-ln^nu(1 + t)) for t >= 0.

    Decreasing in ``t``, equal to 1 at ``t = 0``; for ``nu = 1`` this is
    exactly ``1 / (1 + t)``.
    """
    nu = _check_nu(nu)
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return 1.0
    return _ml_eval(nu, -math.log1p(t) ** nu, deriv=False)
