"""CLI: exit codes, output headers, byte-level reproducibility."""

import difflib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dreidel_lab
from dreidel_lab import construction, gamelets, hitting_bounds, kernels, montecarlo, solvers
from dreidel_lab.cli import main
from dreidel_lab.game import GameConfig, SpinCapExceeded


def run(tmp_path, args, name="out.txt"):
    path = tmp_path / name
    code = main(args + ["-o", str(path)])
    return code, path


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code, _ = run(tmp_path, ["exact", "--n", "3"])
        assert code == 0

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_infeasible_is_usage_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, ["construct", "--k", "2", "--n", "20", "--s", "2"])
        assert code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["exact"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args, name",
        [
            (["epochs", "--epochs", "0"], "epochs"),
            (["epochs", "--k", "1", "--epochs", "10"], "k"),
            (["wald", "--records", "0", "--epochs", "100"], "records"),
            (["wald", "--records", "1", "--epochs", "100"], "records"),
            (["simulate", "--n", "3", "--trials", "0"], "trials"),
            (["wald", "--n", "0", "--epochs", "100"], "n"),
        ],
    )
    def test_bad_sampler_input_is_usage_error(self, tmp_path, capsys, args, name):
        code, _ = run(tmp_path, args)
        assert code == 2
        err = capsys.readouterr().err
        # the message names the flag the user typed
        assert err.startswith(f"error: {name} must be at least ") and f"{name}=" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["wald", "--w0", "99"], "w0 must lie in [0, 6], got w0=99"),
            (["wald", "--epochs", "0"], "epochs must be at least 1, got epochs=0"),
        ],
    )
    def test_wald_checks_its_arguments_before_it_draws(self, capsys, monkeypatch, args, message):
        def no_draws(*a, **kw):
            raise AssertionError("drew epochs before the arguments were checked")

        monkeypatch.setattr(montecarlo, "_run_epochs", no_draws)
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "module, attr, exc, args",
        [
            (solvers, "absorption_stats", solvers.SolverError, ["exact", "--n", "3"]),
            (hitting_bounds, "bound_tables", hitting_bounds.TruncationError, ["bounds", "--n", "3"]),
            (construction, "construct_long_game", construction.ConstructionError,
             ["construct", "--n", "20", "--s", "60"]),
            (montecarlo, "estimate_mean_duration", SpinCapExceeded, ["simulate", "--n", "3"]),
        ],
    )
    def test_failed_computation_exits_3(self, tmp_path, capsys, monkeypatch, module, attr, exc, args):
        def fail(*a, **kw):
            raise exc("check failed")

        monkeypatch.setattr(module, attr, fail)
        code, _ = run(tmp_path, args)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {exc.__name__}: check failed\n"


    def test_failed_certificate_exits_3(self, tmp_path, capsys, monkeypatch):
        eliminate = solvers._eliminate

        def off_by_one(rows, rhs):
            x = eliminate(rows, rhs)
            return [x[0] + 1, *x[1:]]

        monkeypatch.setattr(solvers, "_eliminate", off_by_one)
        code, _ = run(tmp_path, ["exact", "--n", "3", "--rational"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: SolverError: rational solution fails its integer certificate in row 0\n"

    def test_unstable_bound_quantities_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hitting_bounds, "MAX_DOUBLINGS", 1)
        code, _ = run(tmp_path, ["bounds", "--n", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: TruncationError: quantities unstable after cap 16\n"

    def test_solve_residual_above_tolerance_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solvers, "RESIDUAL_TOL", -1.0)
        args = ["hitprob", "--n", "3", "--y1", "2", "--z1", "1", "--y2", "3", "--z2", "1", "--y3", "1", "--z3", "1"]
        code, _ = run(tmp_path, args)
        assert code == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: SolverError: linear solve residual \S+ above tolerance .*\n", err)

    def test_negative_stationary_entry_exits_3(self, tmp_path, capsys, monkeypatch):
        factor = kernels.splu

        class Negated:
            def __init__(self, a):
                self.lu = factor(a)

            def solve(self, b):
                x = self.lu.solve(b)
                x[0] = -1.0
                return x

        monkeypatch.setattr(kernels, "splu", Negated)
        code, _ = run(tmp_path, ["pot-chain", "--xmax", "20"])
        assert code == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: SolverError: stationary law: entry \S+ is not a probability\n", err)

    def test_singular_stationary_system_exits_3(self, tmp_path, capsys, monkeypatch):
        def singular(*a, **kw):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(kernels, "splu", singular)
        code, _ = run(tmp_path, ["pot-chain", "--xmax", "20"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: SolverError: stationary law: Factor is exactly singular\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["report", "--n-list", "8..3"], "error: --n-list '8..3' is empty\n"),
            (["scaling", "--k", "2", "--n-list", "3,3", "--mode", "exact"], "error: --n-list '3,3' repeats an n\n"),
            (["scaling", "--k", "2", "--n-list", "3,a", "--mode", "exact"],
             "error: --n-list '3,a' is not a list of integers like 5,10,20 or 2..8\n"),
            (["report", "--n-list", "2..x"], "error: --n-list '2..x' is not a list of integers like 5,10,20 or 2..8\n"),
            (["report", "--n-list", "1..2..3"],
             "error: --n-list '1..2..3' is not a list of integers like 5,10,20 or 2..8\n"),
        ],
        ids=["empty", "repeated", "not-integers", "bad-range-end", "two-ranges"],
    )
    def test_n_list_that_checks_nothing_is_usage_error(self, tmp_path, capsys, args, message):
        code, path = run(tmp_path, args)
        assert code == 2
        assert capsys.readouterr().err == message
        assert not path.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--n", "3", "--trials", "40000"],
            ["scaling", "--n-list", "5,8", "--trials", "100"],
            ["scaling", "--n-list", "5,8", "--mode", "exact"],
        ],
        ids=["simulate", "scaling-mc", "scaling-exact"],
    )
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, args, jobs):
        code, path = run(tmp_path, args + ["--jobs", jobs])
        assert code == 2
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not path.exists()

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["epochs", "--k", "2", "--epochs", "100"], "-o"),
            (["epochs", "--k", "2", "--epochs", "100"], "--plot"),
            (["scaling", "--n-list", "3,4", "--mode", "exact"], "--plot"),
            (["gamelets", "--k", "2", "--p", "1"], "--table"),
        ],
        ids=["output", "epochs-plot", "scaling-plot", "table"],
    )
    def test_unwritable_path_is_usage_error(self, tmp_path, capsys, args, flag):
        bad = tmp_path / "missing" / "x.csv"
        code = main(args + [flag, str(bad)])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {bad}: No such file or directory\n"

    @pytest.mark.parametrize(
        "args, written",
        [
            (["epochs", "--k", "2", "--epochs", "100", "--plot", "{ok}", "-o", "{bad}"], "plot"),
            (["scaling", "--n-list", "3,4", "--mode", "exact", "-o", "{ok}", "--plot", "{bad}"], "output"),
        ],
        ids=["plot-then-output", "output-then-plot"],
    )
    def test_missing_directory_is_found_before_the_run(self, tmp_path, capsys, args, written):
        ok, bad = tmp_path / "ok.dat", tmp_path / "missing" / "x.csv"
        code = main([a.format(ok=ok, bad=bad) for a in args])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {bad}: No such file or directory\n"
        assert captured.out == ""
        assert not ok.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["exact", "--n", "3", "--seed", "1"],
            ["pot-chain", "--xmax", "20", "--seed", "1"],
            ["hitprob", "--n", "3", "--y1", "2", "--z1", "1", "--y2", "3", "--z2", "1", "--y3", "1", "--z3", "1",
             "--seed", "1"],
            ["bounds", "--n", "3", "--seed", "1"],
            ["gamelets", "--k", "2", "--p", "1", "--seed", "1"],
            ["report", "--n-list", "3..3", "--seed", "1"],
            ["report", "--n-list", "3..3", "--format", "json"],
        ],
        ids=["exact-seed", "pot-chain-seed", "hitprob-seed", "bounds-seed", "gamelets-seed", "report-seed",
             "report-format"],
    )
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["hitprob", "--n", "3", "--pmax", "0", "--y1", "2", "--z1", "1", "--y2", "3", "--z2", "1",
              "--y3", "1", "--z3", "1"], "error: p_max >= 4 required\n"),
            (["bounds", "--n", "0"], "error: n >= 1 required\n"),
            (["bounds", "--n", "-2"], "error: n >= 1 required\n"),
            (["report", "--n-list", "0..3"], "error: n >= 1 required\n"),
            (["hitprob", "--n", "0", "--y1", "0", "--z1", "1", "--y2", "1", "--z2", "1",
              "--y3", "2", "--z3", "1"], "error: n >= 1 required\n"),
            (["exact", "--n", "0"], "error: n >= 1 required\n"),
            (["scaling", "--k", "2", "--n-list", "0,3", "--mode", "exact"], "error: n >= 1 required\n"),
            (["gamelets", "--k", "12", "--p", "1"],
             "error: k=12, p=1 too large to enumerate: a state key needs 67 bits, past 62\n"),
        ],
        ids=["pmax-0", "bounds-n-0", "bounds-n-negative", "report-n-0", "hitprob-n-0", "exact-n-0",
             "exact-scaling-n-0", "gamelets-key-width"],
    )
    def test_out_of_range_n_or_cap_is_usage_error(self, tmp_path, capsys, args, message):
        code, path = run(tmp_path, args)
        assert code == 2
        assert capsys.readouterr().err == message
        assert not path.exists()

    def test_gamelet_layer_past_cap_is_usage_error(self, tmp_path, capsys, monkeypatch):
        args = ["gamelets", "--k", "4", "--p", "3"]
        assert run(tmp_path, args, "a.csv")[0] == 0
        capsys.readouterr()
        monkeypatch.setattr(gamelets, "MAX_LAYER", 1000)
        code, path = run(tmp_path, args, "b.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: k=4, p=3 too large to enumerate: ") and err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("alpha", ["-1", "1.5", "nan"])
    def test_alpha_outside_unit_interval_is_usage_error(self, tmp_path, capsys, alpha):
        args = ["construct", "--k", "2", "--n", "30", "--s", "200", "--alpha", alpha, "--seed", "1"]
        code, path = run(tmp_path, args)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: alpha={float(alpha)} must lie in [0, 1]\n"
        assert captured.out == ""
        assert not path.exists()

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_usage_error(self, tmp_path, unbuffered):
        # buffered, the output first reaches the pipe at the final flush
        src = str(Path(dreidel_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        r, w = os.pipe()
        os.close(r)  # nobody reads: the child's first write to stdout fails
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "dreidel_lab.cli", "epochs", "--k", "2", "--epochs", "100"],
                stdout=w, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
            )
        finally:
            os.close(w)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert err == "error: cannot write <stdout>: Broken pipe\n"


class TestOutputs:
    def test_header_has_runspec(self, tmp_path, capsys):
        _, path = run(tmp_path, ["exact", "--n", "3"], "a.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# runspec: ")
        spec = json.loads(lines[0].split("# runspec: ", 1)[1])
        assert spec["command"] == "exact" and spec["n"] == 3
        assert lines[1].startswith("# artifact-version: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["exact", "--n", "3"],
            ["pot-chain", "--xmax", "20"],
            ["hitprob", "--n", "3", "--y1", "2", "--z1", "1", "--y2", "3", "--z2", "1", "--y3", "1", "--z3", "1"],
            ["bounds", "--n", "3"],
            ["gamelets", "--k", "2", "--p", "1"],
        ],
        ids=lambda args: args[0],
    )
    def test_deterministic_runspec_has_no_seed(self, tmp_path, capsys, args):
        _, path = run(tmp_path, args, "a.csv")
        spec = json.loads(path.read_text().splitlines()[0].split("# runspec: ", 1)[1])
        assert spec["command"] == args[0] and "seed" not in spec

    def test_exact_scaling_runspec_has_no_seed_or_trials(self, tmp_path, capsys):
        args = ["scaling", "--k", "2", "--n-list", "3,4", "--mode", "exact"]
        code = main(args + ["--seed", "5", "--trials", "7", "--plot", str(tmp_path / "mu.dat")])
        assert code == 0
        out = capsys.readouterr().out
        for header in (out, (tmp_path / "mu.dat").read_text()):
            spec = json.loads(header.splitlines()[0].split("# runspec: ", 1)[1])
            assert spec["mode"] == "exact" and not {"seed", "trials"} & spec.keys()
        main(args)
        assert capsys.readouterr().out == out

    def test_json_format(self, tmp_path, capsys):
        _, path = run(tmp_path, ["pot-chain", "--xmax", "50", "--format", "json"], "a.json")
        doc = json.loads(path.read_text())
        assert doc["runspec"]["command"] == "pot-chain"
        assert doc["data"]

    def test_lf_endings(self, tmp_path, capsys):
        _, path = run(tmp_path, ["exact", "--n", "2"], "a.csv")
        assert b"\r" not in path.read_bytes()

    def test_scaling_columns(self, tmp_path, capsys):
        _, path = run(
            tmp_path,
            ["scaling", "--k", "2", "--n-list", "5,8", "--mode", "exact"],
            "s.csv",
        )
        lines = path.read_text().splitlines()
        assert lines[2] == "n,mean,se,exact,ratio_to_n2,ratio_to_asymptotic_bound"

    def test_plot_data(self, tmp_path, capsys):
        plot = tmp_path / "plot.dat"
        code = main(
            [
                "scaling", "--k", "2", "--n-list", "5,8", "--mode", "exact",
                "--plot", str(plot), "-o", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 0
        assert plot.read_text().splitlines()[-1].startswith("8 ")


def csv_rows(path):
    """The data rows of a CSV artifact, below its two header lines and column names."""
    return [line.split(",") for line in path.read_text().splitlines()[3:]]


class TestReadmeCommands:
    """README commands at small sizes, run in-process."""

    def test_report_has_one_passing_table_per_n(self, tmp_path, capsys):
        code, path = run(tmp_path, ["report", "--n-list", "3..4"], "verdicts.md")
        assert code == 0
        lines = path.read_text().splitlines()
        assert [line for line in lines if line.startswith("## ")] == [
            "## hitting bounds, n=3", "## hitting bounds, n=4"]
        rows = [[c.strip() for c in line.strip("|").split("|")] for line in lines
                if line.startswith("| ") and not line.startswith("| name")]
        assert len(rows) > 2 * 4
        for name, _, _, verdict in rows:  # mu_d is the one report-only row
            assert verdict == ("report" if name == "mu_d" else "pass"), name

    def test_exact_rational_agrees_with_float(self, tmp_path, capsys):
        code, path = run(tmp_path, ["exact", "--n", "4", "--rational"], "a.csv")
        assert code == 0
        values = {q: float(v) for q, _, v in csv_rows(path)}
        assert abs(values["mu_d"] - values["mu_d_rational"]) <= 1e-9

    def test_construct_json_holds_the_whole_game(self, tmp_path, capsys):
        code, path = run(tmp_path, ["construct", "--k", "2", "--n", "20", "--s", "60", "--format", "json"], "g.json")
        assert code == 0
        data = json.loads(path.read_text())["data"]
        assert len(data["outcomes"]) == 2 * 60
        assert data["epochs"] >= data["t_s"]

    def test_epochs_plot_is_the_length_histogram(self, tmp_path, capsys):
        plot = tmp_path / "lengths.dat"
        code, _ = run(tmp_path, ["epochs", "--k", "2", "--epochs", "5000", "--plot", str(plot)])
        assert code == 0
        points = [tuple(map(int, line.split())) for line in plot.read_text().splitlines()[2:]]
        assert sum(count for _, count in points) == 5000
        assert all(length % 2 == 0 for length, _ in points)

    def test_mc_scaling_reads_the_duration_estimate(self, tmp_path, capsys):
        args = ["scaling", "--k", "3", "--n-list", "3,4", "--trials", "2000", "--jobs", "1"]
        code, path = run(tmp_path, args, "s.csv")
        assert code == 0
        rows = csv_rows(path)
        assert [int(r[0]) for r in rows] == [3, 4]
        for n, mean, se, exact, *_ in rows:
            est = montecarlo.estimate_mean_duration(GameConfig(k=3, n=int(n)), 2000, 0)
            assert float(mean) == est.mean and float(se) == est.se
            assert exact == ""


class TestReproducibility:
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--k", "2", "--n", "3", "--trials", "3000", "--seed", "11"],
            ["epochs", "--k", "2", "--epochs", "5000", "--seed", "4"],
            ["wald", "--records", "1000", "--epochs", "5000", "--seed", "2"],
            ["bounds", "--n", "3"],
            ["gamelets", "--k", "2", "--p", "2"],
            ["construct", "--k", "2", "--n", "20", "--s", "60", "--seed", "3"],
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, capsys, args):
        _, a = run(tmp_path, list(args), "a.out")
        _, b = run(tmp_path, list(args), "b.out")
        assert a.read_bytes() == b.read_bytes()

    def test_table_name_does_not_change_bytes(self, tmp_path, capsys):
        outs = []
        for name in ("t1.csv", "t2.csv"):
            assert main(["gamelets", "--k", "2", "--p", "1", "--table", str(tmp_path / name)]) == 0
            outs.append((capsys.readouterr().out, (tmp_path / name).read_bytes()))
        assert outs[0] == outs[1]

    def test_readme_commands_match_the_committed_digest(self):
        # the cross-commit byte gate: `tools/cli_digest.py` hashes every README
        # command's outputs and exit code (one line starts two worker processes)
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "tools/cli_digest.py"], cwd=root, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        got, want = proc.stdout.splitlines(), (root / "tools" / "cli_digest.txt").read_text().splitlines()
        assert got == want, "\n".join(difflib.unified_diff(want, got, "tools/cli_digest.txt", "this checkout", lineterm=""))

    def test_jobs_do_not_change_bytes(self, tmp_path, capsys):
        base = ["simulate", "--k", "2", "--n", "3", "--trials", "80000", "--seed", "1"]
        _, a = run(tmp_path, base + ["--jobs", "1"], "a.out")
        _, b = run(tmp_path, base + ["--jobs", "4"], "b.out")
        assert a.read_bytes() == b.read_bytes()
