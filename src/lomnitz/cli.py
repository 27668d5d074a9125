"""Command-line interface: curve emission and consistency checks.

Subcommands
-----------
creep           dimensionless creep curves as CSV (log or linear spacing)
relax           solved relaxation curves as CSV, with solver diagnostics
operator-check  residuals of the operator mapping and eigenfunction identities
laplace-check   residuals of the transform identity linking creep and relaxation
figures         the four reference CSVs (creep and relaxation, linear and log)

Exit status: 0 on success, 1 on validation failure, 2 when a check
subcommand exceeds its documented tolerance.  Inputs must be finite, the
solving subcommands take at most MAX_STEPS = t-max/h steps, and the step
rule is the solver's StepSizeError.  A non-finite curve value or an
inadmissible step exits 1 before anything is written.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .creep import MaterialParameters, creep_psi
from .laplace import check_laplace_identity
from .operators import OperatorConfig, verify_eigenfunction, verify_power_law_property
from .relaxation import UniformGrid, solve_relaxation
# gamma is unused here; the benchmark's tracer wraps lomnitz.cli.gamma by name
from .special_functions import ConvergenceError, gamma

__all__ = ["MAX_STEPS", "RunConfig", "main", "run"]

# step budget n = t_max/h of relax, figures and laplace-check: the solve is
# O(n log n), but the CSV rows are built in Python
MAX_STEPS = 10**6

_FIGURE_ORDERS = (0.25, 0.5, 0.75, 1.0)
_PROBES = (0.5, 1.0, 2.0, 5.0)
_PROPERTY_TOL = 1e-4
_EIGEN_TOL = 5e-4
_LAPLACE_TOL = 2e-2


class _ValidationError(ValueError):
    """CLI-level validation problem; maps to exit status 1."""


@dataclass
class RunConfig:
    """Parsed and validated invocation parameters."""

    subcommand: str
    nu_list: list[float] = field(default_factory=lambda: [1.0])
    q: float = 1.0
    tau0: float = 1.0
    h: float = 0.01
    t_max: float = 50.0
    output_path: str | None = None
    fmt: str = "csv"
    log_spacing: bool = True

    def validate(self) -> None:
        if not self.nu_list:
            raise _ValidationError("at least one order is required")
        for nu in self.nu_list:
            if not 0.0 < nu <= 1.0:
                raise _ValidationError(f"orders must lie in (0, 1], got {nu}")
        # written so that NaN fails each test
        if not (0.0 < self.q < math.inf and 0.0 < self.tau0 < math.inf):
            raise _ValidationError("q and tau0 must be positive and finite")
        if not 0.0 < self.h < math.inf:
            raise _ValidationError("step h must be positive and finite")
        if not 0.0 <= self.t_max < math.inf:
            raise _ValidationError("t-max must be nonnegative and finite")
        if self.fmt not in ("csv", "table"):
            raise _ValidationError(f"unknown format {self.fmt!r}")
        if self.subcommand in ("relax", "figures", "laplace-check") and not (
            self.t_max / self.h <= MAX_STEPS
        ):
            raise _ValidationError(
                f"t-max/h = {self.t_max / self.h:.4g} steps exceeds the budget of "
                f"{MAX_STEPS} steps; use a larger h or a smaller t-max"
            )


def _fmt(v: float) -> str:
    # every numeric cell passes here before _emit writes anything
    if not math.isfinite(v):
        raise _ValidationError(f"a result is not finite ({v}), most likely an "
                               "overflow of double precision; nothing was written")
    return f"{v:.12g}"


def _emit(header: list[str], rows: list[list], fmt: str = "csv",
          path: str | Path | None = None, comment: str | None = None,
          numeric: bool = True) -> None:
    """Write rows as CSV or as an aligned text table, to ``path`` or stdout.

    Numeric rows hold floats, formatted here line by line and right-aligned
    in tables; other rows hold preformatted strings, left-aligned.
    """
    cell, align = (_fmt, str.rjust) if numeric else (str, str.ljust)
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    else:
        widths = [max(len(h), *(len(cell(r[i])) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        lines = ["  ".join(align(h, w) for h, w in zip(header, widths))]
        lines += ["  ".join(align(cell(v), w) for v, w in zip(row, widths)) for row in rows]
    if comment:
        lines.append("# " + comment)
    payload = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(payload)
    else:
        sys.stdout.write(payload)


def _creep_times(cfg: RunConfig) -> np.ndarray:
    if cfg.t_max == 0.0:
        return np.array([0.0])
    if cfg.log_spacing:
        if cfg.t_max <= 1e-3:
            raise _ValidationError("log spacing requires t-max above 1e-3")
        return np.logspace(-3.0, math.log10(cfg.t_max), 400)
    return np.linspace(0.0, cfg.t_max, 401)


def _creep_table(params: list[MaterialParameters],
                 times) -> tuple[list[str], list[list[float]]]:
    header = ["t"] + [f"psi_nu={_fmt(p.nu)}" for p in params]
    return header, np.column_stack([times] + [creep_psi(p, times) for p in params]).tolist()


def _grid(cfg: RunConfig) -> UniformGrid:
    return UniformGrid(cfg.h, max(1, int(round(cfg.t_max / cfg.h))))


def _relax_table(params: list[MaterialParameters],
                 cfg: RunConfig) -> tuple[list[str], list[list[float]], str]:
    """Header, rows and diagnostics comment of the solved relaxation curves."""
    grid = _grid(cfg)
    reports = [solve_relaxation(p, grid) for p in params]
    header = ["t"] + [f"phi_nu={_fmt(p.nu)}" for p in params]
    rows = np.column_stack([grid.times] + [r.solution.values for r in reports]).tolist()
    comment = f"h={_fmt(cfg.h)}; " + "; ".join(
        f"nu={_fmt(p.nu)}: gamma={_fmt(r.gamma)}, refinement_error={_fmt(r.refinement_error)}"
        for p, r in zip(params, reports)
    )
    return header, rows, comment


def _cmd_creep(cfg: RunConfig) -> int:
    params = [MaterialParameters(q=cfg.q, tau0=cfg.tau0, nu=nu) for nu in cfg.nu_list]
    _emit(*_creep_table(params, _creep_times(cfg)), cfg.fmt, cfg.output_path)
    return 0


def _cmd_relax(cfg: RunConfig) -> int:
    params = [MaterialParameters(q=cfg.q, tau0=cfg.tau0, nu=nu) for nu in cfg.nu_list]
    header, rows, comment = _relax_table(params, cfg)
    _emit(header, rows, cfg.fmt, cfg.output_path, comment)
    return 0


def _cmd_operator_check(cfg: RunConfig, default_nus: bool) -> int:
    property_nus = [0.25, 0.5, 0.75] if default_nus else cfg.nu_list
    eigen_nus = [0.5, 0.75] if default_nus else cfg.nu_list
    t_samples = np.geomspace(0.1, 10.0, 5)
    header = ["check", "nu", "beta", "residual", "tolerance", "status"]
    lines = []
    failed = False
    for nu in property_nus:
        for beta in (0.5, 1.0, 2.0):
            err = verify_power_law_property(
                OperatorConfig(1.0, 1.0, nu), beta, t_samples, panels=10_000
            )
            ok = err <= _PROPERTY_TOL
            failed |= not ok
            lines.append(
                ["power-law", _fmt(nu), _fmt(beta), f"{err:.3e}",
                 f"{_PROPERTY_TOL:.0e}", "ok" if ok else "FAIL"]
            )
    for nu in eigen_nus:
        err = verify_eigenfunction(
            OperatorConfig(1.0, 1.0, nu), [0.5, 1.0, 2.0], panels=10_000
        )
        ok = err <= _EIGEN_TOL
        failed |= not ok
        lines.append(
            ["eigenfunction", _fmt(nu), "-", f"{err:.3e}",
             f"{_EIGEN_TOL:.0e}", "ok" if ok else "FAIL"]
        )
    _emit(header, lines, cfg.fmt, cfg.output_path, numeric=False)
    if failed:
        print("operator-check: residuals exceed documented tolerances", file=sys.stderr)
        return 2
    return 0


def _cmd_laplace_check(cfg: RunConfig) -> int:
    grid = _grid(cfg)
    header = ["nu", "s", "residual", "tolerance", "status"]
    lines = []
    failed = False
    for nu in cfg.nu_list:
        p = MaterialParameters(q=cfg.q, tau0=cfg.tau0, nu=nu)
        report = solve_relaxation(p, grid)
        residuals = check_laplace_identity(p, report.solution, _PROBES)
        for s, res in zip(_PROBES, residuals):
            ok = res <= _LAPLACE_TOL
            failed |= not ok
            lines.append(
                [_fmt(nu), _fmt(s), f"{res:.3e}", f"{_LAPLACE_TOL:.0e}",
                 "ok" if ok else "FAIL"]
            )
    _emit(header, lines, cfg.fmt, cfg.output_path, numeric=False)
    if failed:
        print("laplace-check: residuals exceed documented tolerances", file=sys.stderr)
        return 2
    return 0


def _cmd_figures(cfg: RunConfig) -> int:
    params = [MaterialParameters(nu=nu) for nu in _FIGURE_ORDERS]
    # solve first: an inadmissible step must leave no directory and no file
    header, rows, comment = _relax_table(params, cfg)
    out_dir = Path(cfg.output_path or "figures")
    out_dir.mkdir(parents=True, exist_ok=True)
    _emit(*_creep_table(params, np.linspace(0.0, cfg.t_max, 401)),
          path=out_dir / "creep_linear.csv")
    _emit(*_creep_table(params, np.logspace(-3.0, 3.0, 400)), path=out_dir / "creep_log.csv")
    _emit(header, rows, path=out_dir / "relax_linear.csv", comment=comment)
    n = len(rows) - 1
    targets = np.logspace(math.log10(cfg.h), math.log10(n * cfg.h), 200)
    idx = sorted(set(int(round(t / cfg.h)) for t in targets))
    log_rows = [rows[j] for j in idx if 0 <= j <= n]
    _emit(header, log_rows, path=out_dir / "relax_log.csv", comment=comment)

    for name in ("creep_linear.csv", "creep_log.csv", "relax_linear.csv", "relax_log.csv"):
        print(out_dir / name)
    return 0


def run(cfg: RunConfig, default_nus: bool = False) -> int:
    """Execute a validated configuration; returns the process exit status."""
    try:
        cfg.validate()
        if cfg.subcommand == "creep":
            return _cmd_creep(cfg)
        if cfg.subcommand == "relax":
            return _cmd_relax(cfg)
        if cfg.subcommand == "operator-check":
            return _cmd_operator_check(cfg, default_nus)
        if cfg.subcommand == "laplace-check":
            return _cmd_laplace_check(cfg)
        if cfg.subcommand == "figures":
            return _cmd_figures(cfg)
        raise _ValidationError(f"unknown subcommand {cfg.subcommand!r}")
    # StepSizeError and HorizonError are ValueErrors; ConvergenceError is not
    except (ValueError, ConvergenceError) as exc:
        print(f"lomnitz {cfg.subcommand}: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; 2 is reserved for tolerance
    # failures here, so flag problems exit 1 instead
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_nu_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="lomnitz", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    defaults = {
        "creep": dict(t_max=1000.0, log=True),
        "relax": dict(t_max=50.0, log=False),
        "operator-check": dict(t_max=10.0, log=False),
        "laplace-check": dict(t_max=30.0, log=False),
        "figures": dict(t_max=50.0, log=False),
    }
    for name, dd in defaults.items():
        p = sub.add_parser(name)
        p.add_argument("--nu", type=_parse_nu_list, default=None,
                       metavar="LIST", help="comma-separated orders in (0,1]")
        p.add_argument("--q", type=float, default=1.0)
        p.add_argument("--tau0", type=float, default=1.0)
        p.add_argument("--h", type=float, default=0.01)
        p.add_argument("--t-max", type=float, default=dd["t_max"], dest="t_max")
        p.add_argument("--out", default=None, dest="out",
                       help="output file (directory for figures); stdout if omitted")
        p.add_argument("--format", choices=("csv", "table"), default="csv",
                       dest="fmt")
        p.add_argument("--log-spacing", action=argparse.BooleanOptionalAction,
                       default=dd["log"], dest="log_spacing",
                       help="logarithmic time sampling (creep only)")
    return parser


def main(argv=None) -> None:
    args = _build_parser().parse_args(argv)
    default_nus = args.nu is None
    nu_default = {
        "creep": [0.25, 0.5, 0.75, 1.0],
        "relax": [0.25, 0.5, 0.75, 1.0],
        "operator-check": [0.25, 0.5, 0.75],
        "laplace-check": [1.0],
        "figures": list(_FIGURE_ORDERS),
    }[args.subcommand]
    cfg = RunConfig(
        subcommand=args.subcommand,
        nu_list=args.nu if args.nu is not None else nu_default,
        q=args.q,
        tau0=args.tau0,
        h=args.h,
        t_max=args.t_max,
        output_path=args.out,
        fmt=args.fmt,
        log_spacing=args.log_spacing,
    )
    sys.exit(run(cfg, default_nus=default_nus))


if __name__ == "__main__":
    main()
