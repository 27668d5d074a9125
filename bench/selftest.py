"""Tiny-size self-test of the benchmark harness.

    python3 bench/selftest.py

Checks, in a few tens of seconds, that

* every workload runs clean at tiny size, and the metric names and units it
  prints (untraced and traced) are exactly those of ``BENCHMARK.json``;
* corrupted library outputs make every affected operation count as failed;
* a typed library error counts as a failed operation and does not abort;
* the same seed gives the same output digest;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Exits 0 when all checks pass; otherwise prints what failed and exits 1.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    os.environ.update({var: "1" for var in run.THREAD_VARS})
    sys.path.insert(0, str(run.SRC))
    os.chdir(run.ROOT)

    import lomnitz
    import spans
    import workloads
    from lomnitz.relaxation import SampledFunction

    # tiny size: blocks of two decks and three setup interpreters
    workloads.BLOCK = 2
    run.SETUP_REPEATS = 3
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(sorted(spec["paths"]) == ["bench"], "BENCHMARK.json names bench/ as its only path")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json lists the harness's workloads")

    for name in run.WORKLOAD_NAMES:
        for trace in ((0, 1) if name == "fit_sweep" else (0,)):
            rec = run.run_one(name, seed=3, seconds=0.0, trace=bool(trace), min_ops=1)
            line = json.loads(run._final_line(rec, bool(trace)))
            expect(rec["correct"] and line["failed"] == 0,
                   f"{name} trace {trace}: tiny run is correct {rec['problems'][:3] or ''}")
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            diff = set(got.items()) ^ set(want[trace].items())
            expect(not diff, f"{name} trace {trace}: metric names and units match "
                             f"BENCHMARK.json {diff or ''}")

    tmp = run.OUT / "tmp-selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        rel = tmp.relative_to(run.ROOT)

        def scaled(report):
            phi = report.solution
            return dataclasses.replace(
                report, solution=SampledFunction(phi.grid, phi.values * 0.999))

        corrupt = {
            "relaxation.solve_relaxation": scaled,
            "creep.creep_psi": lambda v: v * (1.0 + 1e-6),
            "laplace.check_laplace_identity": lambda r: r + 1.0,
            "special_functions.mittag_leffler": lambda v: -v,
            "special_functions.log_ml": lambda v: 1.5,
            "operators.verify_power_law_property": lambda e: 1.0,
            "operators.verify_eigenfunction": lambda e: 1.0,
        }

        def corrupting(fn):
            change = corrupt.get(spans.span_name(fn))
            return fn if change is None else lambda *a, **k: change(fn(*a, **k))

        for cls in workloads.WORKLOADS.values():
            with spans.patched(corrupting):
                p = run.execute(cls(3, rel), decks=1)
            expect(p.attempted > 0 and p.failed == p.attempted,
                   f"{cls.name}: corrupted outputs fail all {p.attempted} operations "
                   f"({p.failed} failed)")

        def raising(fn):
            if spans.span_name(fn) != "special_functions.mittag_leffler":
                return fn

            def fail(*args, **kwargs):
                raise lomnitz.ConvergenceError("injected")
            return fail

        workload = workloads.MlOperator(3, rel)
        n_ml = sum(op.kind == "mittag_leffler" for op in workload.deck(0))
        with spans.patched(raising):
            p = run.execute(workload, decks=1)
        expect(p.failed == n_ml and p.attempted == len(workload.deck(0)),
               f"typed errors count as {n_ml} failures and the deck completes "
               f"({p.failed} of {p.attempted})")

        a = run.execute(workloads.FitSweep(5, rel))
        b = run.execute(workloads.FitSweep(5, rel))
        c = run.execute(workloads.FitSweep(6, rel))
        expect(a.digest == b.digest != c.digest, "digest repeats for a seed, differs across seeds")

        bare = tmp / "bare"
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fit_sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"without the sources the benchmark fails (exit {proc.returncode})")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'all checks passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
