import math
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from lomnitz import cli
from lomnitz.creep import MaterialParameters, creep_psi
from lomnitz.special_functions import ConvergenceError


def run_cli(argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    return info.value.code


def read_csv(path):
    header = None
    rows = []
    comments = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return header, np.array(rows), comments


class TestRelax:
    def test_hand_recursion_rows(self, tmp_path):
        out = tmp_path / "relax.csv"
        code = run_cli(
            ["relax", "--nu", "1", "--q", "1", "--h", "0.1", "--t-max", "0.2",
             "--out", str(out)]
        )
        assert code == 0
        header, rows, comments = read_csv(out)
        assert header == ["t", "phi_nu=1"]
        assert rows.shape == (3, 2)
        assert rows[0].tolist() == [0.0, 1.0]
        assert rows[1][0] == pytest.approx(0.1)
        assert rows[1][1] == pytest.approx(0.9046898, abs=1e-6)
        assert rows[2][1] == pytest.approx(0.8267624736, abs=1e-6)
        assert len(comments) == 1
        assert "gamma" in comments[0] and "refinement_error" in comments[0]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["relax", "--nu", "0.5,1", "--h", "0.02", "--t-max", "1"]
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_precision(self, tmp_path):
        out = tmp_path / "relax.csv"
        assert run_cli(["relax", "--nu", "0.75", "--h", "0.01", "--t-max", "2",
                        "--out", str(out)]) == 0
        from lomnitz.relaxation import UniformGrid, solve_relaxation

        rep = solve_relaxation(MaterialParameters(nu=0.75), UniformGrid(0.01, 200))
        _, rows, _ = read_csv(out)
        assert np.allclose(rows[:, 1], rep.solution.values, rtol=1e-9, atol=1e-12)

    def test_inadmissible_step_exits_one(self):
        assert run_cli(["relax", "--nu", "0.5", "--q", "5", "--h", "10",
                        "--t-max", "50"]) == 1


class TestCreep:
    def test_zero_horizon_single_row(self, capsys):
        assert run_cli(["creep", "--nu", "1", "--t-max", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["t,psi_nu=1", "0,0"]

    def test_linear_spacing_values(self, tmp_path):
        out = tmp_path / "creep.csv"
        assert run_cli(["creep", "--nu", "0.5", "--t-max", "2",
                        "--no-log-spacing", "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["t", "psi_nu=0.5"]
        assert rows.shape == (401, 2)
        p = MaterialParameters(nu=0.5)
        for t, psi in rows[::50]:
            assert psi == pytest.approx(creep_psi(p, t), rel=1e-9, abs=1e-12)

    def test_log_spacing_default_range(self, tmp_path):
        out = tmp_path / "creep.csv"
        assert run_cli(["creep", "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header[0] == "t" and len(header) == 5
        assert rows.shape == (400, 5)
        assert rows[0, 0] == pytest.approx(1e-3)
        assert rows[-1, 0] == pytest.approx(1e3)

    def test_bad_order_exits_one(self):
        assert run_cli(["creep", "--nu", "1.5"]) == 1

    def test_bad_flag_exits_one(self):
        assert run_cli(["creep", "--no-such-flag"]) == 1


class TestChecks:
    def test_operator_check_passes(self, capsys):
        assert run_cli(["operator-check"]) == 0
        out = capsys.readouterr().out
        assert "power-law" in out and "eigenfunction" in out
        assert "FAIL" not in out

    def test_laplace_check_passes(self, capsys):
        assert run_cli(["laplace-check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_laplace_check_tolerance_failure_exits_two(self, capsys):
        # a deliberately coarse solver grid pushes residuals past 2e-2
        assert run_cli(["laplace-check", "--h", "0.3"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestFigures:
    def test_emits_four_csvs_with_orderings(self, tmp_path):
        out_dir = tmp_path / "figs"
        assert run_cli(["figures", "--out", str(out_dir)]) == 0
        names = ["creep_linear.csv", "creep_log.csv", "relax_linear.csv",
                 "relax_log.csv"]
        for name in names:
            assert (out_dir / name).exists()
        # creep: steeper start for smaller order at t near 0.01
        _, creep_rows, _ = read_csv(out_dir / "creep_log.csv")
        i = int(np.argmin(np.abs(creep_rows[:, 0] - 0.01)))
        psi = creep_rows[i, 1:]
        assert psi[0] > psi[1] > psi[2] > psi[3]
        # relaxation: ordering reversed at t = 0.01 (exact grid node)
        _, relax_rows, _ = read_csv(out_dir / "relax_linear.csv")
        j = int(np.argmin(np.abs(relax_rows[:, 0] - 0.01)))
        assert relax_rows[j, 0] == pytest.approx(0.01)
        phi = relax_rows[j, 1:]
        assert phi[0] < phi[1] < phi[2] < phi[3]


class TestRobustness:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--q", "--tau0", "--h", "--t-max", "--nu"])
    def test_non_finite_input_exits_one(self, flag, value, capsys):
        assert run_cli(["creep", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("sub", ["relax", "figures", "laplace-check"])
    def test_step_budget_exits_one_quickly(self, sub, tmp_path, capsys):
        start = time.perf_counter()
        code = run_cli([sub, "--h", "1e-6", "--t-max", "100",
                        "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert str(cli.MAX_STEPS) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_step_budget_boundary(self):
        cli.RunConfig("relax", h=1.0, t_max=float(cli.MAX_STEPS)).validate()
        with pytest.raises(ValueError, match="budget"):
            cli.RunConfig("relax", h=1.0, t_max=float(cli.MAX_STEPS + 1)).validate()

    def test_convergence_error_exits_one(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ConvergenceError("series did not terminate")

        monkeypatch.setattr(cli, "verify_power_law_property", fail)
        assert run_cli(["operator-check"]) == 1
        err = capsys.readouterr().err
        assert "series did not terminate" in err
        assert "Traceback" not in err


class TestNonFinite:
    @pytest.mark.parametrize(
        "argv",
        [
            ["creep", "--q", "1e308", "--nu", "1", "--t-max", "1e5"],
            ["creep", "--tau0", "1e-320", "--nu", "0.5", "--t-max", "1e3"],
        ],
    )
    def test_non_finite_output_exits_one_before_writing(self, argv, tmp_path, capsys):
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err
        assert "Traceback" not in captured.err
        out = tmp_path / "creep.csv"
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert not out.exists()

    def test_nan_residual_fails_operator_check(self, monkeypatch, capsys):
        from lomnitz import operators

        monkeypatch.setattr(operators, "hadamard_derivative",
                            lambda *args, **kwargs: math.nan)
        assert run_cli(["operator-check", "--nu", "0.5"]) == 2
        out = capsys.readouterr().out
        assert "nan" in out and "FAIL" in out
        assert ",ok" not in out


def test_every_subcommand_runs_without_mpmath(tmp_path):
    # mpmath is a test-only dependency; None in sys.modules makes importing it fail
    src = Path(cli.__file__).resolve().parents[1]
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["mpmath"] = None
        sys.path.insert(0, {str(src)!r})
        from lomnitz import cli
        runs = [
            ["creep", "--t-max", "10"],
            ["relax", "--t-max", "1"],
            ["operator-check", "--nu", "0.5"],
            ["laplace-check"],
            ["figures", "--t-max", "1", "--out", {str(tmp_path / "figs")!r}],
        ]
        for argv in runs:
            try:
                cli.main(argv)
            except SystemExit as exc:
                print(argv[0], exc.code, file=sys.stderr)
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    statuses = proc.stderr.split()
    assert statuses == ["creep", "0", "relax", "0", "operator-check", "0",
                        "laplace-check", "0", "figures", "0"], proc.stderr
