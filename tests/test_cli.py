import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwspeed
from gwspeed.cli import run
from gwspeed.speed import InternalInconsistency

SWEEP_HEADER = "p,rho,lambda,backbone_speed,cluster_speed,mean_delay,condition_ok"


def run_capture(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def run_process(argv, timeout=60):
    """The CLI in a fresh interpreter; a hang fails the test at `timeout`."""
    env = dict(os.environ, PYTHONPATH=str(Path(gwspeed.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "gwspeed.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestSpeedCommand:
    def test_binary_row(self):
        code, text = run_capture(["speed", "--law", "pmf:0,0,1", "--p", "0.75"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        fields = lines[1].split(",")
        assert float(fields[4]) == pytest.approx(2 / 15, abs=1e-9)
        assert fields[6] == "true"

    def test_json_format(self):
        code, text = run_capture(
            ["speed", "--law", "pmf:0,0,1", "--p", "0.75", "--format", "json"])
        assert code == 0
        row = json.loads(text.strip())
        assert row["cluster_speed"] == pytest.approx(2 / 15, abs=1e-9)
        assert row["condition_ok"] is True


class TestRhoCommand:
    def test_binary(self):
        code, text = run_capture(["rho", "--law", "pmf:0,0,1", "--p", "0.75"])
        assert code == 0
        header, row = text.strip().splitlines()
        assert header == "p,rho,lambda,drho_dp"
        p, rho, lam, drho = map(float, row.split(","))
        assert rho == pytest.approx(1 / 9, abs=1e-9)
        assert lam == pytest.approx(1 / 3, abs=1e-9)
        assert drho == pytest.approx(-32 / 27, abs=1e-9)


class TestSweepCommand:
    def test_increasing_curve(self):
        code, text = run_capture(
            ["sweep", "--law", "pmf:0,0,1", "--p-grid", "0.6:1.0:0.05"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        speeds = [float(line.split(",")[4]) for line in lines[1:]]
        assert len(speeds) == 9
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    def test_bad_grid(self):
        code, _ = run_capture(["sweep", "--law", "pmf:0,0,1", "--p-grid", "0.9:0.6:0.1"])
        assert code == 1

    @pytest.mark.parametrize("grid", ["0.6:0.6:1e-300", "0.6:0.9:1e-6", "nan:0.9:0.1"])
    def test_too_many_points_rejected_at_once(self, grid):
        proc = run_process(["sweep", "--law", "pmf:0,0,1", "--p-grid", grid], timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_step_below_ulp_rejected(self):
        code, _ = run_capture(["sweep", "--law", "pmf:0,0,1", "--p-grid", "0.9:0.9:1e-16"])
        assert code == 1


class TestCheckConditionCommand:
    def test_geometric_true(self):
        code, text = run_capture(["check-condition", "--law", "geometric:0.5"])
        assert code == 0
        header, row = text.strip().splitlines()
        assert header == "law,condition_ok,worst_violation"
        assert row.split(",")[1] == "true"

    @pytest.mark.parametrize("law", ["binomial:3,0.8", "pmf:0.4,0.1,0,0,0,0,0,0,0,0,0.5"])
    def test_law_with_commas_is_one_csv_field(self, law):
        code, text = run_capture(["check-condition", "--law", law])
        assert code == 0
        header, row = csv.reader(io.StringIO(text))
        assert header == ["law", "condition_ok", "worst_violation"]
        assert len(row) == 3
        assert gwspeed.parse_law(row[0]) == gwspeed.parse_law(law)

    @pytest.mark.parametrize("law", ["poisson:2", "binomial:3,0.8",
                                     "pmf:0.4,0.1,0,0,0,0,0,0,0,0,0.5"])
    def test_agrees_with_speed_row(self, law):
        # one condition grid serves the command and every row
        _, text = run_capture(["check-condition", "--law", law, "--format", "json"])
        _, row = run_capture(["speed", "--law", law, "--p", "0.9", "--format", "json"])
        assert json.loads(text)["condition_ok"] == json.loads(row)["condition_ok"]


class TestSimulateCommand:
    ARGS = ["simulate", "--law", "pmf:0,0,1", "--p", "0.75",
            "--horizon", "2000", "--replicas", "16", "--seed", "7"]

    def test_z_score_small(self):
        code, text = run_capture(self.ARGS)
        assert code == 0
        header, row = text.strip().splitlines()
        assert header == "p,speed_hat,std_error,replicas,horizon,seed,analytic,z"
        z = float(row.split(",")[-1])
        assert abs(z) <= 5

    def test_byte_identical_reruns(self):
        _, a = run_capture(self.ARGS)
        _, b = run_capture(self.ARGS)
        assert a == b

    def test_default_seed_is_fixed(self):
        args = ["simulate", "--law", "pmf:0,0,1", "--p", "0.75",
                "--horizon", "2000", "--replicas", "8"]
        _, a = run_capture(args)
        _, b = run_capture(args)
        assert a == b
        assert ",42," in a.splitlines()[1] + ","


class TestPipesCommand:
    def test_closed_form_only(self):
        code, text = run_capture(["pipes", "--p", "0.75"])
        assert code == 0
        header, row = text.strip().splitlines()
        assert header == "p,closed_form"
        assert float(row.split(",")[1]) == pytest.approx(0.0122605364, abs=1e-9)

    def test_with_simulation(self):
        code, text = run_capture(
            ["pipes", "--p", "0.75", "--simulate",
             "--horizon", "2000", "--replicas", "8", "--seed", "3"])
        assert code == 0
        header = text.splitlines()[0]
        assert header == "p,closed_form,speed_hat,std_error,replicas,horizon,seed,z"


class TestErrors:
    def test_law_parse_failure(self):
        code, _ = run_capture(["speed", "--law", "nonsense", "--p", "0.75"])
        assert code == 1

    def test_subcritical_p(self):
        code, _ = run_capture(["speed", "--law", "pmf:0,0,1", "--p", "0.4"])
        assert code == 1

    def test_non_supercritical_law(self):
        code, _ = run_capture(["rho", "--law", "geometric:0.5", "--p", "0.9"])
        assert code == 1

    def test_unknown_flag(self):
        code, _ = run_capture(["speed", "--law", "pmf:0,0,1", "--p", "0.75", "--bogus"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["rho", "--law", "poisson:2", "--p", "0.8", "--tol", "1e-12"],
        ["speed", "--law", "poisson:2", "--p", "0.8", "--tol", "1e-12"],
        ["sweep", "--law", "poisson:2", "--p-grid", "0.6:0.8:0.1", "--tol", "1e-12"],
        ["simulate", "--law", "poisson:2", "--p", "0.8", "--tol", "1e-12"],
        ["check-condition", "--law", "poisson:2", "--tol", "1e-12"],
        ["pipes", "--p", "0.75", "--tol", "1e-12"],
        ["check-condition", "--law", "poisson:2", "--grid-size", "10000"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_removed_numerical_flags_are_usage_errors(self, argv, capsys):
        code, text = run_capture(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert text == ""
        assert err.startswith("usage: gwspeed")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
        assert "Traceback" not in err

    def test_near_critical_is_row_or_numerical_error(self):
        # rho converges here; the delay identity gate may then trip
        proc = run_process(["speed", "--law", "poisson:2", "--p", "0.5000001"])
        assert proc.returncode in (0, 2)
        assert "Traceback" not in proc.stderr
        if proc.returncode == 2:
            assert "error:" in proc.stderr

    def test_internal_inconsistency_exits_2(self, monkeypatch, capsys):
        def disagree(*_):
            raise InternalInconsistency("routes disagree")

        monkeypatch.setattr("gwspeed.cli.sweep", disagree)
        code, text = run_capture(["speed", "--law", "pmf:0,0,1", "--p", "0.75"])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("internal inconsistency error:")

    def test_overflow_is_numerical_error(self, monkeypatch, capsys):
        def overflow(*_):
            raise OverflowError("math range error")

        monkeypatch.setattr("gwspeed.cli.sweep", overflow)
        code, text = run_capture(["speed", "--law", "pmf:0,0,1", "--p", "0.75"])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("numerical error:")

    def test_memory_error_exits_2(self, monkeypatch, capsys):
        def out_of_memory(*_):
            raise MemoryError("compiled walk arena")

        monkeypatch.setattr("gwspeed.cli.estimate_speed", out_of_memory)
        code, text = run_capture(["simulate", "--law", "pmf:0,0,1", "--p", "0.99"])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "memory error: compiled walk arena\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux RLIMIT_AS")
    def test_arena_past_the_address_space_limit_exits_2(self):
        # a 2e8-step walk outgrows a 600 MB address space; the child's own
        # limit makes the allocation fail without using the memory
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

        env = dict(os.environ, PYTHONPATH=str(Path(gwspeed.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "gwspeed.cli", "simulate", "--law", "pmf:0,0,1", "--p",
             "0.99", "--horizon", "200000000", "--replicas", "2"],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("memory error:") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("law", ["binomial:400,0.5", "poisson:200",
                                     "pmf:" + ",".join(["1"] * 200), "poisson:2000",
                                     "binomial:4000,0.5", "pmf:" + ",".join(["1"] * 1100)],
                             ids=["binomial:400,0.5", "poisson:200", "pmf-200-weights",
                                  "poisson:2000", "binomial:4000,0.5", "pmf-1100-weights"])
    def test_large_support_law_gets_a_row(self, law):
        # their derivatives f^(k) overflow a float, and past about 1000 so do
        # the coefficients f^(k)/k!; the backbone probabilities do not
        proc = run_process(["speed", "--law", law, "--p", "0.5"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        header, line = proc.stdout.splitlines()
        assert header == SWEEP_HEADER
        (pt,) = gwspeed.sweep(gwspeed.parse_law(law), [0.5])
        assert line == ",".join(format(v, ".12g") for v in (
            pt.p, pt.rho, pt.lam, pt.backbone_speed, pt.cluster_speed, pt.mean_delay)) + ",true"
        assert 0.0 < pt.cluster_speed <= pt.backbone_speed < 1.0

    def test_1100_weight_pmf_rho(self):
        law = "pmf:" + ",".join(["1"] * 1100)
        proc = run_process(["rho", "--law", law, "--p", "0.5"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        rho, lam = gwspeed.solve_rho(gwspeed.parse_law(law), 0.5)
        fields = proc.stdout.splitlines()[1].split(",")
        assert fields[1:3] == [format(rho, ".12g"), format(lam, ".12g")]

    @pytest.mark.parametrize("argv", [
        ["check-condition", "--law", "pmf:nan,0,1"],
        ["check-condition", "--law", "poisson:inf"],
        ["check-condition", "--law", "poisson:1e400"],
        ["speed", "--law", "pmf:inf,1", "--p", "0.9"],
        ["rho", "--law", "poisson:nan", "--p", "0.9"],
        # mean 0: 1/m, an end of the condition's interval, is not finite
        ["check-condition", "--law", "pmf:1"],
        ["check-condition", "--law", "pmf:1,0"],
    ], ids=lambda argv: argv[2])
    def test_non_finite_law_parameter_is_input_error(self, argv):
        proc = run_process(argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_overflowing_weight_sum_is_rescaled(self):
        # the weights' float sum overflows; the law is the uniform one
        proc = run_process(["speed", "--law", "pmf:1e308,1e308,1e308,1e308", "--p", "0.9"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == run_capture(["speed", "--law", "pmf:1,1,1,1", "--p", "0.9"])[1]


class TestHostileLaws:
    """Huge or near-degenerate parameters end fast with a row or a typed
    error."""

    @pytest.mark.parametrize("command", ["speed", "check-condition"])
    @pytest.mark.parametrize("law", ["poisson:1e19", "poisson:1e300", "geometric:0.999999",
                                     "binomial:100000,0.5",
                                     "binomial:100000000000000000000,0.5"])
    def test_ends_with_an_exit_code_not_a_traceback(self, command, law):
        argv = [command, "--law", law] + (["--p", "0.9999"] if command == "speed" else [])
        proc = run_process(argv, timeout=20)
        assert proc.returncode in (0, 1, 2)
        assert "Traceback" not in proc.stderr


class TestSupportCap:
    """A series reads at most SUPPORT_CAP terms of a law."""

    @pytest.mark.parametrize("law,p", [("poisson:1e19", "0.5"), ("geometric:0.999999", "0.9999"),
                                       ("binomial:1000000,0.5", "0.5"),
                                       ("binomial:200000,0.5", "0.5"),
                                       ("binomial:200000,0.5", "0.9999")])
    def test_mass_past_the_cap_is_a_numerical_error(self, law, p):
        proc = run_process(["speed", "--law", law, "--p", p], timeout=20)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("numerical error: ")
        assert "SUPPORT_CAP" in proc.stderr and len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("argv,row", [
        (["speed", "--law", "binomial:100000,0.5", "--p", "0.9999"],
         "0.9999,0,0.0001,0.999959996396,0.999959996396,0,true"),
        (["speed", "--law", "poisson:2000", "--p", "0.9"],
         "0.9,0,0.1,0.998888888889,0.998888888889,0,true"),
        # support past the cap, mass within it: the series stops at the cap
        (["speed", "--law", "binomial:200000,0.01", "--p", "0.9"],
         "0.9,0,0.1,0.998888894443,0.998888894443,0,true"),
        (["rho", "--law", "poisson:1e19", "--p", "0.5"], "0.5,0,0.5,-0"),
    ], ids=["binomial:100000,0.5", "poisson:2000", "binomial:200000,0.01", "rho-poisson:1e19"])
    def test_rows_within_the_cap_unchanged(self, argv, row):
        code, text = run_capture(argv)
        assert code == 0
        assert text.splitlines()[1] == row


class TestParserReuse:
    def test_rows_unchanged_after_a_failed_parse(self, capsys):
        argv = ["speed", "--law", "poisson:2", "--p", "0.8"]
        code, first = run_capture(argv)
        assert code == 0
        assert run_capture(["rho", "--p", "2"])[0] == 1
        code, again = run_capture(argv)
        assert code == 0
        assert again == first
