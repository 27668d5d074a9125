"""Closed-loop benchmark of ``lomnitz``.

One caller in one single-threaded process sends the next operation only
after the previous one returns.  Run it from the repository root:

    python3 bench/run.py --workload curves --seed 1701 --seconds 12 --trace 0
    python3 bench/run.py --workload all          # each workload in its own process
    python3 bench/selftest.py                    # tiny-size check of this harness

Workloads (inputs in ``workloads.py``): ``curves``, ``fit_sweep`` and
``ml_operator``.  After one warm-up deck the run executes whole blocks of
decks (``workloads.BLOCK``) until it has spent ``--seconds`` in the library
and made at least ``MIN_OPS`` operations.

Times are scaled to a reference host speed.  On a shared 2-vCPU virtual
machine the host's speed swung by up to 2x for seconds to minutes (CPU
time equal to wall time, no steal time), which moved raw latencies of
identical runs by 20-40%.  So a fixed calibration kernel that does not touch lomnitz
(``calibrate``) runs before every operation, and each latency is multiplied
by ``CAL_REFERENCE_S`` over the median kernel time around it.  A change to
lomnitz moves the scaled figures as it moves the raw ones; the host's phase
mostly cancels.  Raw figures and the kernel times go to the record too.
With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s      median time of SETUP_REPEATS fresh interpreters that
                 import lomnitz and lomnitz.cli (every CLI call pays this),
                 half before and half after the operations, each scaled by
                 the kernel times around it
    ops_per_s    operations per second of their summed latencies
    op_p50_ms    median operation latency
    op_p90_ms    90th-percentile latency; the report states the sample count
    ok_ratio     1 - fail_ratio, operations that passed every check over
                 operations attempted (reported this way so it is never 0)
    peak_rss_mb  peak resident set size of the benchmark process

With ``--trace 1`` the same untraced measurement runs first; then the
layer probes (``probes.py``) and the workload's first block of decks
run again with every layer boundary wrapped (``spans.py``), and the run
reports the per-layer metrics, including the tracing overhead: the traced
time of that block against its untraced time, both scaled.  Span times are
raw.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
summarize the run; the full record (provenance, output digest, sample
counts, skipped probes, problems) goes to ``bench/out/``, and the spans of
a traced run to ``bench/out/spans-<workload>-<seed>.npz``.

An operation fails when it raises one of the library's typed errors
(``ConvergenceError``, ``StepSizeError``, ``HorizonError`` or another
``ValueError``) or when its output fails a check; a failure never aborts
the run.  The output digest is the SHA-256 of the bytes emitted by the
first block of decks, so identical code and seed give identical digests
whatever the run length; the traced block must reproduce it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 1701
DEFAULT_SECONDS = 12
MIN_OPS = 200  # at least 20 samples beyond p90
SETUP_REPEATS = 10
# calibration kernel time at the host speed the metrics are scaled to
CAL_REFERENCE_S = 1.0e-3
WORKLOAD_NAMES = ("curves", "fit_sweep", "ml_operator")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_ratio": "ratio", "peak_rss_mb": "MB",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description="closed-loop benchmark of lomnitz")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


_SETUP_CODE = "import lomnitz, lomnitz.cli"


def check_fresh_import() -> None:
    """Import once in a fresh interpreter: writes the bytecode caches and
    checks that the sources of this checkout are the ones imported."""
    where = subprocess.run([sys.executable, "-c", _SETUP_CODE + "; print(lomnitz.__file__)"],
                           env=_child_env(), cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported lomnitz from {where}")


def calibrate() -> float:
    """Best of two timings of a fixed kernel of Python arithmetic and small
    numpy dot products, the mix lomnitz spends its time in.  The kernel does
    not touch lomnitz, so its time tracks only the host's current speed."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 400)
    b = a[::-1].copy()
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(1, 400):
            s += float(np.dot(a[:i], b[-i:])) + math.sqrt(i)
        for i in range(4000):
            s += math.log1p(i * 1e-3) ** 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing lomnitz and lomnitz.cli,
    raw and scaled to the reference host speed."""
    env = _child_env()
    raw, scaled = [], []
    cal = calibrate()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - t0)
        cal_after = calibrate()
        scaled.append(raw[-1] * CAL_REFERENCE_S / (0.5 * (cal + cal_after)))
        cal = cal_after
    return raw, scaled


class Pass:
    """Latencies, failures and the output digest of one pass over decks."""

    def __init__(self):
        self.latencies: list[float] = []
        self.deck_of: list[int] = []
        self.failed = 0
        self.problems: list[str] = []
        self.cli_bytes = 0
        self.cli_rows = 0
        self.hasher = hashlib.sha256()
        self.decks = 0
        self.calibration: list[float] = []  # kernel time before each operation and after the last

    @property
    def scaled(self) -> list[float]:
        """Latencies scaled to the reference host speed: operation i is scaled
        by the median of calibrations i-2 .. i+3, the two taken just before and
        after it and two more on each side, which damps single outliers."""
        cal = self.calibration
        return [t * CAL_REFERENCE_S / statistics.median(cal[max(0, i - 2):i + 4])
                for i, t in enumerate(self.latencies)]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()


def execute(workload, *, seconds: float = 0.0, min_ops: int = 0, decks: int | None = None,
            tracer=None) -> Pass:
    """Run decks from deck 0: exactly ``decks`` of them if given, otherwise
    whole blocks until ``seconds`` of latency and ``min_ops`` operations.
    The first block makes the output digest."""
    from workloads import BLOCK

    result = Pass()
    busy = 0.0
    d = 0
    result.calibration.append(calibrate())
    while True:
        for op in workload.deck(d):
            span = tracer.root("op." + op.kind) if tracer else nullcontext()
            error = None
            t0 = time.perf_counter()
            with span:
                try:
                    value = op.run()
                except (ArithmeticError, ValueError) as exc:  # typed library errors
                    error = exc
            dt = time.perf_counter() - t0
            result.calibration.append(calibrate())
            busy += dt
            result.latencies.append(dt)
            result.deck_of.append(d)
            if error is None:
                emitted, problems = op.check(value)
            else:
                emitted, problems = b"", [f"{type(error).__name__}: {error}"]
            if problems:
                result.failed += 1
                if len(result.problems) < 20:
                    result.problems.append(f"deck {d} {op.kind}: {'; '.join(problems)}")
            if d < BLOCK:
                result.hasher.update(op.kind.encode() + b"\0" + emitted)
            if op.via_cli:
                result.cli_bytes += len(emitted)
                result.cli_rows += emitted.count(b"\n")
        d += 1
        result.decks = d
        if (d >= decks if decks is not None else
                d % BLOCK == 0 and busy >= seconds and result.attempted >= min_ops):
            return result


def _quantiles(xs: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(xs, n=10, method="inclusive")
    return statistics.median(xs), q[8]


def end_to_end(latencies: list[float], attempted: int, failed: int,
               setup_times: list[float]) -> dict[str, tuple[float, str]]:
    p50, p90 = _quantiles(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def provenance(seed: int) -> dict:
    import platform

    import mpmath
    import numpy
    commit = None
    try:  # only when the checkout is itself a git work tree
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except OSError:
        pass
    return {
        "seed": seed, "default_seed": DEFAULT_SEED, "commit": commit,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_one(workload_name: str, seed: int, seconds: float, trace: bool,
            min_ops: int = MIN_OPS) -> dict:
    """Measure one workload; returns the full result record."""
    import lomnitz

    if not Path(lomnitz.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported lomnitz from {lomnitz.__file__}, not {SRC}")
    tmp = OUT / f"tmp-{workload_name}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(workload_name, seed, seconds, trace, min_ops, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(workload_name, seed, seconds, trace, min_ops, tmp) -> dict:
    import probes
    import spans
    import workloads

    # relative paths keep the CLI's printed paths, and so the digest, the
    # same in every checkout
    workload = workloads.WORKLOADS[workload_name](seed, tmp.relative_to(ROOT))
    check_fresh_import()
    setup_raw, setup = measure_setup(SETUP_REPEATS // 2)
    execute(workload, decks=1)  # warm-up deck: lazy imports and caches
    measured = execute(workload, seconds=seconds, min_ops=min_ops)
    raw, scaled = measure_setup(SETUP_REPEATS - len(setup))
    setup_raw += raw
    setup += scaled
    latencies = measured.scaled
    e2e = end_to_end(latencies, measured.attempted, measured.failed, setup)
    e2e_raw = end_to_end(measured.latencies, measured.attempted, measured.failed, setup_raw)
    _, p90 = _quantiles(latencies)
    digest = measured.digest
    record = {
        "workload": workload_name, "trace": int(trace), "seconds": seconds,
        "provenance": provenance(seed),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_unscaled": {k: {"value": v, "unit": u} for k, (v, u) in e2e_raw.items()},
        "calibration_s": {"reference": CAL_REFERENCE_S, "samples": len(measured.calibration),
                          "median": statistics.median(measured.calibration),
                          "min": min(measured.calibration), "max": max(measured.calibration)},
        "fail_ratio": measured.failed / measured.attempted,
        "samples": {"ops": len(latencies), "decks": measured.decks,
                    "beyond_p90": sum(t > p90 for t in latencies), "setup": len(setup)},
        "digest": {"sha256": digest, "decks": workloads.BLOCK},
        "attempted": measured.attempted, "failed": measured.failed,
        "problems": list(measured.problems),
    }
    if trace:
        tracer = spans.Tracer()
        cli_out: list[bytes] = []
        with spans.patched(tracer.wrap):
            n_probes, probe_problems, skipped = probes.run_probes(tracer, tmp, cli_out)
            traced = execute(workload, decks=workloads.BLOCK, tracer=tracer)
        in_block = [t for t, d in zip(measured.scaled, measured.deck_of) if d < workloads.BLOCK]
        overhead = (sum(traced.scaled) / sum(in_block) - 1.0) * 100.0
        table = tracer.table()
        layer = probes.per_layer_metrics(
            table, traced.cli_bytes + sum(map(len, cli_out)),
            traced.cli_rows + sum(b.count(b"\n") for b in cli_out), overhead)
        if probes.non_finite(layer):
            raise RuntimeError(f"non-finite per-layer metrics: {probes.non_finite(layer)}")
        spans_path = OUT / f"spans-{workload_name}-{seed}.npz"
        tracer.write(spans_path)
        problems = probe_problems + traced.problems
        if traced.digest != digest:
            problems.append("traced decks emitted other bytes than untraced ones")
        record.update({
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
            "busy_s_in_ops": probes.layer_busy_in_ops(table),
            "optional": {k: {"value": v, "unit": u}
                         for k, (v, u) in probes.optional_metrics(table).items()},
            "skipped": skipped, "spans": str(spans_path.relative_to(ROOT)),
            "spans_recorded": int(table.dur.size), "traced_decks": workloads.BLOCK,
            "attempted": measured.attempted + traced.attempted + n_probes,
            "failed": measured.failed + traced.failed + len(probe_problems),
        })
        record["problems"] += problems[:20]
    record["correct"] = record["failed"] == 0 and not record["problems"]
    return record


def _summary_lines(rec: dict) -> list[str]:
    s = rec["samples"]
    lines = [f"{rec['workload']}: seed {rec['provenance']['seed']}, {s['ops']} ops in "
             f"{s['decks']} decks, {rec['failed']} of {rec['attempted']} failed, "
             f"fail_ratio {rec['fail_ratio']:.6g}, digest {rec['digest']['sha256'][:16]} "
             f"(first {rec['digest']['decks']} decks)"]
    notes = {"setup_s": f"median of {s['setup']} interpreters",
             "op_p50_ms": f"n = {s['ops']}",
             "op_p90_ms": f"n = {s['ops']}, {s['beyond_p90']} beyond p90"}
    for name, m in rec["end_to_end"].items():
        raw = rec["end_to_end_unscaled"][name]["value"]
        lines.append(f"  {name:<12} {m['value']:>12.6g} {m['unit']:<6} (unscaled {raw:.6g}) "
                     f"{notes.get(name, '')}")
    for name, m in {**rec.get("per_layer", {}), **rec.get("optional", {})}.items():
        lines.append(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    for name, why in rec.get("skipped", {}).items():
        lines.append(f"  skipped {name}: {why}")
    lines += [f"  problem: {p}" for p in rec["problems"]]
    return lines


def _final_line(rec: dict, trace: bool) -> str:
    metrics = rec["per_layer"] if trace else rec["end_to_end"]
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


def run_all(args) -> int:
    """Each workload in its own process; prints one table and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *report, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    # pinned before numpy loads, so BLAS and OpenMP start one thread each
    os.environ.update({var: "1" for var in THREAD_VARS})
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "lomnitz" / "__init__.py").is_file():
        print(f"no lomnitz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(_summary_lines(record)))
    print(_final_line(record, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
