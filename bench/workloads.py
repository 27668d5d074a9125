"""Seeded workloads that drive the public API of ``lomnitz``.

A workload is an endless sequence of decks.  Deck ``d`` is a fixed-size
list of operations generated from ``(seed, d)`` alone, so the same seed
always gives the same operations; the library receives only those
generated inputs.  Every operation is a timed call into ``lomnitz``
(``Op.run``) followed by an untimed check of what it returned or wrote
(``Op.check``), which yields the emitted bytes and any problems found.

The inputs that set an operation's cost (step counts and order counts,
Mittag-Leffler orders and arguments, eigenfunction sample times) follow a
balanced stratified design.  Each deck places one point in every stratum
of the range; within each block of ``BLOCK`` consecutive decks every
stratum's point visits each of its ``BLOCK`` sub-strata once, in a seeded
order and at a seeded offset inside the sub-stratum.  Their distribution
is the one stated per workload, yet a run of whole blocks holds the same
mix of cheap and costly operations whatever the seed, so throughput and
latency percentiles vary little from seed to seed.  All other inputs are
drawn independently.

Input ranges
------------
curves       ``cli.run`` per deck: 8 ``relax`` (n = t_max/h log-uniform in
             [1e2, 1e4), 1-4 orders, the order count tied to the step-count
             sub-stratum so each appears twice per block), 4 ``figures`` (n likewise, the four reference orders),
             4 ``creep`` (1-4 orders, t_max log-uniform in [1, 1e3], two log-
             and two linearly spaced).  Orders uniform in [0.25, 1];
             q in [0.5, 1.5]; tau0 in [0.5, 2]; h/tau0 in [0.005, 0.05]
             (relax) and h in [0.005, 0.05] (figures, q = tau0 = 1).
fit_sweep    16 fitting-loop evaluations per deck: q in [0.5, 1.5], tau0 in
             [0.5, 2], nu in [0.25, 1], h in [0.0025, 0.01], n log-uniform
             in [1e3, 4e3); ``solve_relaxation``, then
             ``check_laplace_identity`` at 4 probes s log-uniform in
             [10/T, 5] (T = n h >= 2.5, so s*T >= 10), then ``compliance``
             and ``creep_rate`` at 50 times log-uniform in [T/1000, T].
ml_operator  per deck: 64 ``mittag_leffler`` calls on an 8 x 8 stratified
             grid of cells over nu in [0.25, 1] and x in [-50, 5], each cell
             split into 4 x 2 sub-cells visited once per block; 4 more at the closed
             forms nu = 1 and nu = 0.5; 8 ``log_ml`` calls (nu in [0.25, 1],
             t log-uniform in [1e-3, 1e3]); 2 ``verify_power_law_property``
             (one the Hadamard case a = 0, b = 1, one with a in [0, 1], b in
             [0.5, 2]; nu in [0.25, 1], beta in [0.5, 2.5], 3 samples
             t_low + [0.1, 20], 2000 panels); 2 ``verify_eigenfunction``
             (nu in [0.25, 1], 3 samples t in [0.1, 50], 2000 panels); one
             at nu = 0.25 and t in [150, 250] with 200 panels, where the
             vectorized Mittag-Leffler sweep falls back to scalar calls; and
             one ``cli.run`` report, ``operator-check`` and ``laplace-check``
             (h = 0.01, t_max = 30) on alternate decks, with one order.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import lomnitz as L
from lomnitz import cli

# documented tolerances of the library (README, cli)
PROPERTY_TOL = 1e-4
EIGEN_TOL = 5e-4
LAPLACE_TOL = 2e-2
ML_TOL = 1e-10

BLOCK = 8
_FIGURE_ORDERS = (0.25, 0.5, 0.75, 1.0)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bytes, list[str]]]
    via_cli: bool = False


def _design(seed: int, tag: int, count: int, deck: int, dims: int = 1):
    """Sub-stratum indices (``count``) and offsets (``count`` x ``dims``) for a deck.

    Stratum ``i`` of the deck lies at ``(i + (sub[i] + offset[i]) / BLOCK) / count``;
    with ``dims = 2`` the ``BLOCK`` sub-strata form a (BLOCK / 2) x 2 grid of the cell.
    """
    block, b = divmod(deck, BLOCK)
    orders = np.random.default_rng([seed, tag, block]).permuted(
        np.tile(np.arange(BLOCK), (count, 1)), axis=1)
    offsets = np.random.default_rng([seed, tag, block, b]).random((count, dims))
    return orders[:, b], offsets


def _positions(seed: int, tag: int, count: int, deck: int) -> np.ndarray:
    """One position in [0, 1) per stratum (see ``_design``)."""
    sub, off = _design(seed, tag, count, deck)
    return (np.arange(count) + (sub + off[:, 0]) / BLOCK) / count


def _cells(seed: int, tag: int, count: int, deck: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in [0, 1) x [0, 1) inside ``count`` cells (see ``_design``)."""
    sub, off = _design(seed, tag, count, deck, dims=2)
    return (sub // 2 + off[:, 0]) / (BLOCK // 2), (sub % 2 + off[:, 1]) / 2.0


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _psi(q: float, tau0: float, nu: float, t):
    """Closed-form dimensionless creep function, the checks' reference."""
    return q * np.log1p(np.asarray(t, dtype=float) / tau0) ** nu / math.gamma(1.0 + nu)


def _first_step(q: float, tau0: float, nu: float, h: float) -> float:
    """phi_1 = 1 - gamma * Omega_1 of the explicit recursion, in closed form."""
    return 1.0 - q * math.log1p(h / tau0) ** nu / math.gamma(1.0 + nu)


def _erfcx(y: float) -> float:
    """exp(y^2) erfc(y) for y >= 0; continued fraction where erfc underflows."""
    if y < 5.0:
        return math.exp(y * y) * math.erfc(y)
    f = y
    for k in range(60, 0, -1):
        f = y + 0.5 * k / f
    return 1.0 / (math.sqrt(math.pi) * f)


def _ml_closed_form(nu: float, x: float) -> float | None:
    """E_1(x) = exp(x) and E_1/2(x) = exp(x^2) erfc(-x); None for other orders."""
    if nu == 1.0:
        return math.exp(x)
    if nu == 0.5:
        return _erfcx(-x) if x <= 0.0 else math.exp(x * x) * math.erfc(-x)
    return None


def call_cli(cfg: cli.RunConfig, default_nus: bool = False):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(cfg, default_nus=default_nus)
    return status, out.getvalue(), err.getvalue()


def _parse_csv(text: str):
    """(header, rows as a 2-D float array, comment lines, last line)."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    lines.pop()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    cells = [ln.split(",") for ln in body[1:]]
    if any(len(c) != len(header) for c in cells):
        raise ValueError("ragged rows")
    rows = np.array(cells, dtype=float).reshape(len(cells), len(header))
    return header, rows, comments, lines[-1]


def _check_relax_table(text: str, n: int, h: float, q: float, tau0: float,
                       orders, problems: list[str]) -> None:
    try:
        header, rows, comments, last = _parse_csv(text)
    except (ValueError, IndexError) as exc:
        problems.append(f"unparsable relax CSV: {exc}")
        return
    k = len(orders)
    if header[0] != "t" or len(header) != k + 1 or not all(
            c.startswith("phi_nu=") for c in header[1:]):
        problems.append(f"bad header {header}")
        return
    if rows.shape != (n + 1, k + 1):
        problems.append(f"expected {n + 1} rows, got {rows.shape[0]}")
        return
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite cell")
        return
    t, phi = rows[:, 0], rows[:, 1:]
    if np.max(np.abs(t - np.arange(n + 1) * h)) > 1e-9 * max(1.0, t[-1]):
        problems.append("time column is not j*h")
    if not np.all(phi[0] == 1.0):
        problems.append(f"phi[0] = {phi[0].tolist()}, expected 1")
    if np.any(phi <= 0.0) or np.any(phi > 1.0):
        problems.append("phi leaves (0, 1]")
    for j, nu in enumerate(orders):
        if abs(phi[1, j] - _first_step(q, tau0, nu, h)) > 1e-10:
            problems.append(f"phi[1] at nu={nu} disagrees with 1 - gamma*Omega_1")
    if len(comments) != 1 or last != comments[0] or not last.startswith("# h="):
        problems.append("missing or misplaced '# h=' comment line")
    elif last.count("gamma=") != k or last.count("refinement_error=") != k:
        problems.append("comment does not report gamma and refinement_error per order")


def _check_creep_table(text: str, rows_expected: int, t0: float, q: float, tau0: float,
                       orders, problems: list[str]) -> None:
    try:
        header, rows, comments, _ = _parse_csv(text)
    except (ValueError, IndexError) as exc:
        problems.append(f"unparsable creep CSV: {exc}")
        return
    if comments or header[0] != "t" or len(header) != len(orders) + 1:
        problems.append(f"bad header {header}")
        return
    if rows.shape[0] != rows_expected:
        problems.append(f"expected {rows_expected} rows, got {rows.shape[0]}")
        return
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite cell")
        return
    t = rows[:, 0]
    if abs(t[0] - t0) > 1e-15 or np.any(np.diff(t) <= 0.0):
        problems.append("time column does not start at the first sample or is not increasing")
    for j, nu in enumerate(orders):
        ref = _psi(q, tau0, nu, t)
        if np.max(np.abs(rows[:, j + 1] - ref) / np.maximum(1.0, ref)) > 1e-9:
            problems.append(f"psi at nu={nu} disagrees with the closed form")


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class Curves:
    """Curve emission through ``cli.run``: ``relax``, ``figures``, ``creep``."""

    name = "curves"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def deck(self, d: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 0, d])
        ops = []
        sub, off = _design(self.seed, 1, 8, d)
        for i in range(8):
            n = round(10.0 ** (2.0 + 2.0 * (i + (sub[i] + off[i, 0]) / BLOCK) / 8.0))
            # the order count is tied to the sub-stratum, so every block pairs
            # each step-count sub-stratum with the same order count
            ops.append(self._relax(rng, n, 1 + (sub[i] + i) % 4))
        for u in _positions(self.seed, 2, 4, d):
            ops.append(self._figures(rng, round(10.0 ** (2.0 + 2.0 * u))))
        for j, k in enumerate(rng.permutation(4) + 1):
            ops.append(self._creep(rng, int(k), log_spacing=j % 2 == 0))
        return [ops[i] for i in rng.permutation(len(ops))]

    def _relax(self, rng, n: int, k: int) -> Op:
        q = round(rng.uniform(0.5, 1.5), 4)
        tau0 = round(rng.uniform(0.5, 2.0), 4)
        h = tau0 * rng.uniform(0.005, 0.05)
        orders = sorted(round(v, 4) for v in rng.uniform(0.25, 1.0, k))
        path = self.tmp / "relax.csv"
        cfg = cli.RunConfig("relax", nu_list=orders, q=q, tau0=tau0, h=h, t_max=n * h,
                            output_path=str(path))

        def check(result):
            status, out, err = result
            if status != 0:
                return b"", [f"exit status {status}: {err.strip()}"]
            data = path.read_bytes()
            problems: list[str] = []
            _check_relax_table(data.decode(), n, h, q, tau0, orders, problems)
            return data + out.encode(), problems

        return Op("relax", lambda: call_cli(cfg), check, via_cli=True)

    def _figures(self, rng, n: int) -> Op:
        h = rng.uniform(0.005, 0.05)
        out_dir = self.tmp / "figures"
        cfg = cli.RunConfig("figures", nu_list=list(_FIGURE_ORDERS), h=h, t_max=n * h,
                            output_path=str(out_dir))

        def check(result):
            status, out, err = result
            if status != 0:
                return b"", [f"exit status {status}: {err.strip()}"]
            names = ("creep_linear.csv", "creep_log.csv", "relax_linear.csv", "relax_log.csv")
            if out.split("\n") != [str(out_dir / nm) for nm in names] + [""]:
                return out.encode(), ["stdout does not list the four CSV paths"]
            data = {nm: (out_dir / nm).read_bytes() for nm in names}
            problems: list[str] = []
            _check_creep_table(data["creep_linear.csv"].decode(), 401, 0.0, 1.0, 1.0,
                               _FIGURE_ORDERS, problems)
            _check_creep_table(data["creep_log.csv"].decode(), 400, 1e-3, 1.0, 1.0,
                               _FIGURE_ORDERS, problems)
            linear = data["relax_linear.csv"].decode()
            _check_relax_table(linear, n, h, 1.0, 1.0, _FIGURE_ORDERS, problems)
            # the log-spaced file is a subset of the linear file's lines
            linear_lines = linear.split("\n")
            log_lines = data["relax_log.csv"].decode().split("\n")
            if (log_lines[0] != linear_lines[0] or log_lines[-2] != linear_lines[-2]
                    or not 2 <= len(log_lines) - 3 <= 200
                    or not set(log_lines[1:-2]) <= set(linear_lines[1:-2])):
                problems.append("relax_log.csv is not a subset of relax_linear.csv")
            return b"".join(data.values()) + out.encode(), problems

        return Op("figures", lambda: call_cli(cfg), check, via_cli=True)

    def _creep(self, rng, k: int, log_spacing: bool) -> Op:
        q = round(rng.uniform(0.5, 1.5), 4)
        tau0 = round(rng.uniform(0.5, 2.0), 4)
        t_max = _log_uniform(1.0, 1e3, rng.random())
        orders = sorted(round(v, 4) for v in rng.uniform(0.25, 1.0, k))
        path = self.tmp / "creep.csv"
        cfg = cli.RunConfig("creep", nu_list=orders, q=q, tau0=tau0, t_max=t_max,
                            output_path=str(path), log_spacing=log_spacing)

        def check(result):
            status, out, err = result
            if status != 0:
                return b"", [f"exit status {status}: {err.strip()}"]
            data = path.read_bytes()
            problems: list[str] = []
            _check_creep_table(data.decode(), 400 if log_spacing else 401,
                               1e-3 if log_spacing else 0.0, q, tau0, orders, problems)
            return data + out.encode(), problems

        return Op("creep", lambda: call_cli(cfg), check, via_cli=True)


# ---------------------------------------------------------------------------
# fit_sweep
# ---------------------------------------------------------------------------

class FitSweep:
    """Fitting-loop evaluations: solve, transform check, creep read-back."""

    name = "fit_sweep"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def deck(self, d: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 0, d])
        ops = [self._fit(rng, round(10.0 ** (3.0 + math.log10(4.0) * u)))
               for u in _positions(self.seed, 1, 16, d)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def _fit(self, rng, n: int) -> Op:
        q = rng.uniform(0.5, 1.5)
        tau0 = rng.uniform(0.5, 2.0)
        nu = rng.uniform(0.25, 1.0)
        h = rng.uniform(0.0025, 0.01)
        T = n * h
        # s*T >= 10 keeps the truncated transform tail negligible
        lo = 10.000001 / T
        probes = sorted(_log_uniform(lo, 5.0, u) for u in rng.random(4))
        times = np.sort(T * 10.0 ** rng.uniform(-3.0, 0.0, 50))
        p = L.MaterialParameters(q=q, tau0=tau0, nu=nu)
        grid = L.UniformGrid(h, n)

        def run():
            report = L.solve_relaxation(p, grid)
            residuals = L.check_laplace_identity(p, report.solution, probes)
            J = np.array([L.compliance(p, t) for t in times])
            rate = np.array([L.creep_rate(p, t) for t in times])
            return report, residuals, J, rate

        def check(result):
            report, residuals, J, rate = result
            phi = report.solution.values
            problems = []
            if phi.shape != (n + 1,) or not np.all(np.isfinite(phi)):
                problems.append("solution has the wrong length or non-finite values")
            elif phi[0] != 1.0 or np.any(phi <= 0.0) or np.any(phi > 1.0):
                problems.append("phi[0] != 1, or phi leaves (0, 1]")
            elif abs(phi[1] - _first_step(q, tau0, nu, h)) > 1e-10:
                problems.append("phi[1] disagrees with 1 - gamma*Omega_1")
            g = q * nu / math.gamma(1.0 + nu)
            if abs(report.gamma - g) > 1e-10 * g:
                problems.append(f"gamma {report.gamma} != {g}")
            if not (math.isfinite(report.refinement_error) and report.refinement_error >= 0.0):
                problems.append("refinement error is not a finite nonnegative number")
            if not np.all(residuals <= LAPLACE_TOL):
                problems.append(f"Laplace residuals {residuals.tolist()} exceed {LAPLACE_TOL}")
            J_ref = 1.0 + _psi(q, tau0, nu, times)
            if np.max(np.abs(J - J_ref) / J_ref) > 1e-10 or np.any(np.diff(J) < 0.0):
                problems.append("compliance disagrees with J0 (1 + psi) or decreases")
            x = times / tau0
            rate_ref = (q * nu * np.log1p(x) ** (nu - 1.0)
                        / (math.gamma(1.0 + nu) * (1.0 + x) * tau0))
            if (np.max(np.abs(rate - rate_ref) / rate_ref) > 1e-10 or np.any(rate <= 0.0)
                    or np.any(np.diff(rate) > 0.0)):
                problems.append("creep rate disagrees with its closed form or increases")
            emitted = (phi.tobytes() + np.asarray(residuals).tobytes() + J.tobytes()
                       + rate.tobytes()
                       + struct.pack("<2d", report.gamma, report.refinement_error))
            return emitted, problems

        return Op("fit", run, check)


# ---------------------------------------------------------------------------
# ml_operator
# ---------------------------------------------------------------------------

class MlOperator:
    """Mittag-Leffler evaluations, operator identities and check reports."""

    name = "ml_operator"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def deck(self, d: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 0, d])
        ops = []
        # 8 x 8 cells of (nu, x); cell c is row c // 8 (nu), column c % 8 (x)
        u_nu, u_x = _cells(self.seed, 1, 64, d)
        for c in range(64):
            ops.append(self._ml(0.25 + 0.75 * (c // 8 + u_nu[c]) / 8.0,
                                -50.0 + 55.0 * (c % 8 + u_x[c]) / 8.0))
        for k, u in enumerate(_positions(self.seed, 2, 4, d)):
            # nu = 1 in strata 0 and 2, nu = 1/2 in 1 and 3; each order's two
            # strata cover the lower and the upper half of [-50, 5]
            w = 4.0 * u - k
            ops.append(self._ml((1.0, 0.5)[k % 2], -50.0 + 55.0 * (k // 2 + w) / 2.0))
        # log_ml: order stratum i meets time stratum 3 i mod 8, a fixed Latin pairing
        u_nu, u_t = _cells(self.seed, 3, 8, d)
        for i in range(8):
            ops.append(self._log_ml(0.25 + 0.75 * (i + u_nu[i]) / 8.0,
                                    1e-3 * 1e6 ** ((3 * i % 8 + u_t[i]) / 8.0)))
        ops.append(self._power_law(rng, hadamard=True))
        ops.append(self._power_law(rng, hadamard=False))
        for u in _positions(self.seed, 4, 2, d):
            t = np.sort(10.0 ** rng.uniform(-1.0, math.log10(50.0), 3))
            ops.append(self._eigen(0.25 + 0.75 * u, t, 2000))
        (u,) = _positions(self.seed, 5, 1, d)
        ops.append(self._eigen(0.25, np.array([150.0 + 100.0 * u]), 200))
        (u,) = _positions(self.seed, 6, 1, d)
        ops.append(self._report(rng, 0.25 + 0.75 * u,
                                "operator-check" if d % 2 == 0 else "laplace-check"))
        return [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def _ml(nu: float, x: float) -> Op:
        ref = _ml_closed_form(nu, x)

        def check(v):
            problems = []
            if not math.isfinite(v):
                problems.append(f"E_{nu}({x}) = {v}")
            elif x <= 0.0 and not 0.0 < v <= 1.0:
                problems.append(f"E_{nu}({x}) = {v} outside (0, 1]")
            elif x > 0.0 and v < 1.0:
                problems.append(f"E_{nu}({x}) = {v} below 1")
            elif ref is not None and abs(v - ref) > ML_TOL * max(1.0, abs(ref)):
                problems.append(f"E_{nu}({x}) = {v}, closed form {ref}")
            return struct.pack("<d", v), problems

        return Op("mittag_leffler", lambda: L.mittag_leffler(nu, x), check)

    @staticmethod
    def _log_ml(nu: float, t: float) -> Op:
        def check(v):
            ok = math.isfinite(v) and 0.0 < v <= 1.0
            return struct.pack("<d", v), [] if ok else [f"log_ml({nu}, {t}) = {v}"]

        return Op("log_ml", lambda: L.log_ml(nu, t), check)

    @staticmethod
    def _power_law(rng, hadamard: bool) -> Op:
        a, b = (0.0, 1.0) if hadamard else (rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0))
        cfg = L.OperatorConfig(a, b, rng.uniform(0.25, 1.0))
        beta = rng.uniform(0.5, 2.5)
        t = cfg.t_low + np.sort(10.0 ** rng.uniform(-1.0, math.log10(20.0), 3))

        def check(err):
            ok = math.isfinite(err) and err <= PROPERTY_TOL
            return struct.pack("<d", err), [] if ok else [f"power-law residual {err}"]

        return Op("power_law", lambda: L.verify_power_law_property(cfg, beta, t, panels=2000),
                  check)

    @staticmethod
    def _eigen(nu: float, t: np.ndarray, panels: int) -> Op:
        cfg = L.OperatorConfig(1.0, 1.0, nu)

        def check(err):
            ok = math.isfinite(err) and err <= EIGEN_TOL
            return struct.pack("<d", err), [] if ok else [f"eigenfunction residual {err}"]

        kind = "eigen_fallback" if t[-1] > 100.0 else "eigen"
        return Op(kind, lambda: L.verify_eigenfunction(cfg, t, panels=panels), check)

    @staticmethod
    def _report(rng, nu: float, sub: str) -> Op:
        nu = round(nu, 4)
        if sub == "operator-check":
            cfg = cli.RunConfig(sub, nu_list=[nu], t_max=10.0)
        else:
            cfg = cli.RunConfig(sub, nu_list=[nu], q=round(rng.uniform(0.5, 1.5), 4),
                                tau0=round(rng.uniform(0.5, 2.0), 4), h=0.01, t_max=30.0)
        rows = 4  # three power-law rows and one eigenfunction row, or four probes

        def check(result):
            status, out, err = result
            if status != 0:
                return out.encode(), [f"{sub} exit status {status}: {err.strip()}"]
            lines = out.split("\n")
            problems = []
            if lines[-1] != "" or len(lines) != rows + 2:
                problems.append(f"{sub} printed {len(lines) - 2} rows, expected {rows}")
            for line in lines[1:-1]:
                cells = line.split(",")
                try:
                    ok = cells[-1] == "ok" and float(cells[-3]) <= float(cells[-2])
                except (ValueError, IndexError):
                    ok = False
                if not ok:
                    problems.append(f"{sub} row fails: {line}")
            return out.encode(), problems

        return Op(sub, lambda: call_cli(cfg), check, via_cli=True)


WORKLOADS = {w.name: w for w in (Curves, FitSweep, MlOperator)}
