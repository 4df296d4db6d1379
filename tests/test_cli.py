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

    def test_grid_size_bounded(self):
        # in a child process: without the bound the grid grows until killed
        proc = run_process(
            ["check-condition", "--law", "poisson:2", "--grid-size", str(10**12)], timeout=20)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_grid_size_at_bound(self):
        code, text = run_capture(
            ["check-condition", "--law", "poisson:2", "--grid-size", str(10**6)])
        assert code == 0
        assert text.splitlines()[1].split(",")[1] == "true"


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

    @pytest.mark.parametrize("law", ["binomial:400,0.5", "poisson:200",
                                     "pmf:" + ",".join(["1"] * 200)],
                             ids=["binomial:400,0.5", "poisson:200", "pmf-200-weights"])
    def test_large_support_law_gets_a_row(self, law):
        # their derivatives f^(k) overflow a float; the Taylor coefficients do not
        proc = run_process(["speed", "--law", law, "--p", "0.5"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        header, line = proc.stdout.splitlines()
        assert header == SWEEP_HEADER
        (pt,) = gwspeed.sweep(gwspeed.parse_law(law), [0.5])
        assert line == ",".join(format(v, ".12g") for v in (
            pt.p, pt.rho, pt.lam, pt.backbone_speed, pt.cluster_speed, pt.mean_delay)) + ",true"
        assert 0.0 < pt.cluster_speed <= pt.backbone_speed < 1.0


class TestParserReuse:
    def test_rows_unchanged_after_a_failed_parse(self, capsys):
        argv = ["speed", "--law", "poisson:2", "--p", "0.8"]
        code, first = run_capture(argv)
        assert code == 0
        assert run_capture(["rho", "--p", "2"])[0] == 1
        code, again = run_capture(argv)
        assert code == 0
        assert again == first
