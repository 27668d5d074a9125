"""Fixed layer probes and the per-layer metrics of the traced run.

The probes call each layer at fixed inputs (the same on every workload and
seed), so their per-call costs compare between commits on their own.  They
run inside root spans ``probe.<label>``; ``per_layer_metrics`` then reads
every figure off the span table.  Busy times and call counts cover the whole
traced run: the probes plus the workload's traced decks.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import lomnitz as L
from lomnitz import cli
from spans import LAYERS, SpanTable, Tracer
from workloads import EIGEN_TOL, LAPLACE_TOL, PROPERTY_TOL, call_cli

PANELS = 2000
# Mittag-Leffler input buckets by argument; the evaluation route is internal
ML_BUCKETS = {
    "pos": (0.5, 1.5, 2.5, 3.5, 4.5),
    "neg_small": (-0.2, -0.6, -1.0, -1.4, -1.8),
    "neg_mid": (-2.5, -4.0, -6.0, -8.0, -10.0, -12.5),
    "neg_large": (-17.5, -22.5, -30.0, -40.0, -50.0),
}
ML_ORDERS = (0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
# a probe whose estimated cost exceeds this is skipped and reported as such
PROBE_BUDGET_S = 5.0


def run_probes(tracer: Tracer, tmp: Path,
               cli_out: list[bytes]) -> tuple[int, list[str], dict[str, str]]:
    """Run every probe; returns (probes attempted, problems, skipped probes).

    Bytes the probes emit through ``cli.run`` are appended to ``cli_out``.
    """
    problems: list[str] = []
    skipped: dict[str, str] = {}
    attempted = 0

    def probe(label, fn):
        nonlocal attempted
        attempted += 1
        try:
            with tracer.root("probe." + label):
                fn()
        except (ArithmeticError, ValueError) as exc:
            problems.append(f"probe {label}: {type(exc).__name__}: {exc}")

    def expect(ok: bool, what: str):
        if not ok:
            raise ValueError(what)

    p05 = L.MaterialParameters(nu=0.5)

    def solve(n, repeats):
        for _ in range(repeats):
            report = L.solve_relaxation(p05, L.UniformGrid(0.01, n))
            expect(report.solution.values[0] == 1.0, "phi[0] != 1")

    probe("solve_n1e3", lambda: solve(1000, 5))
    probe("solve_n1e4", lambda: solve(10_000, 3))
    table = tracer.table()
    t4 = np.median(table.dur[table.select("relaxation.solve_relaxation", "probe.solve_n1e4")])
    estimate = 100.0 * t4  # growth at most quadratic in n
    if estimate <= PROBE_BUDGET_S:
        probe("solve_n1e5", lambda: solve(100_000, 1))
    else:
        skipped["relaxation.solve_relaxation.ms.n1e5"] = (
            f"up to {estimate:.0f} s (100 x the n1e4 time) exceeds the "
            f"{PROBE_BUDGET_S:g} s probe budget")

    def oracle():
        for _ in range(3):
            L.oracle_solve(p05, L.UniformGrid(0.01, 1000))

    probe("oracle_n1e3", oracle)
    probe("weights_n1e5", lambda: [L.weights(0.5, 0.01, 100_000) for _ in range(5)])

    times = np.geomspace(1e-3, 1e3, 500)
    orders = [L.MaterialParameters(q=1.2, tau0=0.8, nu=nu) for nu in (0.25, 0.5, 0.75, 1.0)]
    probe("creep", lambda: [L.creep_psi(p, t) for p in orders for t in times])
    probe("compliance", lambda: [L.compliance(p, t) for p in orders for t in times])

    phi = L.solve_relaxation(p05, L.UniformGrid(0.01, 3000)).solution

    def laplace():
        for _ in range(5):
            res = L.check_laplace_identity(p05, phi, (0.5, 1.0, 2.0, 5.0))
            expect(bool(np.all(res <= LAPLACE_TOL)), f"Laplace residuals {res}")

    probe("laplace", laplace)

    for bucket, xs in ML_BUCKETS.items():
        probe("ml." + bucket, lambda xs=xs: [L.mittag_leffler(nu, x)
                                              for nu in ML_ORDERS for x in xs])
    probe("log_ml", lambda: [L.log_ml(nu, t) for nu in ML_ORDERS
                             for t in (0.1, 1.0, 10.0, 100.0, 1000.0)])
    probe("gamma", lambda: [L.gamma(x) for x in np.linspace(0.1, 10.0, 200)])

    def power_law():
        for a, b, nu, beta in ((1.0, 1.0, 0.5, 1.0), (0.0, 1.0, 0.5, 1.0),
                               (0.0, 1.0, 0.25, 2.0), (0.5, 2.0, 0.75, 0.5)):
            err = L.verify_power_law_property(L.OperatorConfig(a, b, nu), beta,
                                              (1.5, 3.0, 8.0), panels=PANELS)
            expect(err <= PROPERTY_TOL, f"power-law residual {err}")

    def eigen():
        for nu in (0.25, 0.5, 0.75):
            err = L.verify_eigenfunction(L.OperatorConfig(1.0, 1.0, nu), (0.5, 5.0, 50.0),
                                         panels=PANELS)
            expect(err <= EIGEN_TOL, f"eigenfunction residual {err}")

    def eigen_fallback():
        err = L.verify_eigenfunction(L.OperatorConfig(1.0, 1.0, 0.25), (200.0,), panels=400)
        expect(err <= EIGEN_TOL, f"eigenfunction residual {err}")

    probe("power_law", power_law)
    probe("eigen", eigen)
    probe("eigen_fallback", eigen_fallback)

    def relax_csv():
        cfg = cli.RunConfig("relax", nu_list=[0.5, 1.0], h=0.01, t_max=20.0,
                            output_path=str(tmp / "probe_relax.csv"))
        status, _, err = call_cli(cfg)
        expect(status == 0, f"relax exit status {status}: {err}")
        cli_out.append((tmp / "probe_relax.csv").read_bytes())

    probe("cli_relax", relax_csv)
    return attempted, problems, skipped


def per_layer_metrics(table: SpanTable, cli_bytes: int, cli_rows: int,
                      overhead_pct: float) -> dict[str, tuple[float, str]]:
    def dur(name, root):
        return table.dur[table.select(name, root)]

    def p50_ms(name, root):
        return float(np.median(dur(name, root))) * 1e3

    m: dict[str, tuple[float, str]] = {}
    solve = "relaxation.solve_relaxation"
    m["relaxation.solve_relaxation.ms.n1e3"] = (p50_ms(solve, "probe.solve_n1e3"), "ms")
    m["relaxation.solve_relaxation.ms.n1e4"] = (p50_ms(solve, "probe.solve_n1e4"), "ms")
    m["relaxation.oracle_solve.ms.n1e3"] = (
        p50_ms("relaxation.oracle_solve", "probe.oracle_n1e3"), "ms")
    m["relaxation.weights.ms.n1e5"] = (p50_ms("relaxation.weights", "probe.weights_n1e5"), "ms")

    cli_self = table.layer_busy("cli")
    m["cli.self_s"] = (cli_self, "s")
    m["cli.bytes_out"] = (float(cli_bytes), "bytes")
    m["cli.self_us_per_row"] = (cli_self / max(cli_rows, 1) * 1e6, "us")

    m["creep.creep_psi.us_per_call"] = (
        float(np.mean(dur("creep.creep_psi", "probe.creep"))) * 1e6, "us")
    m["creep.compliance.us_per_call"] = (
        float(np.mean(dur("creep.compliance", "probe.compliance"))) * 1e6, "us")

    check = table.select("laplace.check_laplace_identity", "probe.laplace")
    m["laplace.check_laplace_identity.ms_p50"] = (float(np.median(table.dur[check])) * 1e3, "ms")
    m["laplace.check_laplace_identity.self_ms_p50"] = (
        float(np.median(table.self_time[check])) * 1e3, "ms")
    m["laplace.laplace_of_sampled.us_p50"] = (
        float(np.median(dur("laplace.laplace_of_sampled", "probe.laplace"))) * 1e6, "us")

    for bucket in ML_BUCKETS:
        d = dur("special_functions.mittag_leffler", "probe.ml." + bucket)
        m[f"special_functions.mittag_leffler.us_p50.{bucket}"] = (float(np.median(d)) * 1e6, "us")
        m[f"special_functions.mittag_leffler.us_max.{bucket}"] = (float(np.max(d)) * 1e6, "us")
    m["special_functions.log_ml.us_p50"] = (
        float(np.median(dur("special_functions.log_ml", "probe.log_ml"))) * 1e6, "us")
    m["special_functions.gamma.us_p50"] = (
        float(np.median(dur("special_functions.gamma", "probe.gamma"))) * 1e6, "us")
    m["special_functions.mittag_leffler.calls"] = (
        float(np.count_nonzero(table.select("special_functions.mittag_leffler"))), "count")

    m["operators.verify_power_law_property.ms_p50"] = (
        p50_ms("operators.verify_power_law_property", "probe.power_law"), "ms")
    m["operators.verify_eigenfunction.ms_p50"] = (
        p50_ms("operators.verify_eigenfunction", "probe.eigen"), "ms")
    m["operators.verify_eigenfunction.fallback_band.ms"] = (
        p50_ms("operators.verify_eigenfunction", "probe.eigen_fallback"), "ms")

    for layer in LAYERS:
        if layer != "cli":  # the cli layer's busy time is cli.self_s
            m[f"{layer}.busy_s"] = (table.layer_busy(layer), "s")
        m[f"{layer}.calls"] = (float(table.layer_calls(layer)), "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def optional_metrics(table: SpanTable) -> dict[str, tuple[float, str]]:
    """Probes that run only when they fit the budget (not in BENCHMARK.json)."""
    d = table.dur[table.select("relaxation.solve_relaxation", "probe.solve_n1e5")]
    return {"relaxation.solve_relaxation.ms.n1e5": (float(d[0]) * 1e3, "ms")} if d.size else {}


def layer_busy_in_ops(table: SpanTable) -> dict[str, float]:
    """Busy seconds per layer under the workload's operations alone."""
    is_op = np.array([name.startswith("op.") for name in table.names] or [False])
    under_op = is_op[table.name_id[table.root]]
    return {layer: float(table.self_time[(table.layer == layer) & under_op].sum())
            for layer in LAYERS}


def non_finite(metrics: dict[str, tuple[float, str]]) -> list[str]:
    return [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
