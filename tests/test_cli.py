import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ghzlattice.cli import (
    EXIT_IO,
    EXIT_MEMCAP,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_REGIME,
    EXIT_UNREACHABLE,
    EXIT_USAGE,
    run,
)

ALL_CODES = {0, 1, 2, 3, 4, 5, 6, 7}


def run_capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestPlanCommand:
    def test_tree_example(self):
        code, out, _ = run_capture(
            ["plan", "--alpha", "2.5", "--d", "1", "--r", "20", "--r0", "2"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["tree"]["m"] == 10
        assert payload["tree"]["t2"] == pytest.approx(
            math.pi * 20**2.5 / 4, rel=1e-13
        )
        assert payload["regime"] == "power"
        assert all(rec["ok"] for rec in payload["certificate"])

    def test_csv_format(self):
        code, out, _ = run_capture(
            ["plan", "--alpha", "2.5", "--r", "20", "--format", "csv"]
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "r,r1,m,t1,t2,t_total,forced"
        assert len(lines) == 3  # root and base

    def test_continuous_mode(self):
        code, out, _ = run_capture(
            ["plan", "--alpha", "1.5", "--r", "1000.5", "--mode",
             "continuous-analytic"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["mode"] == "continuous-analytic"

    def test_unreachable(self):
        code, _, err = run_capture(["plan", "--alpha", "2.5", "--r", "50"])
        assert code == EXIT_UNREACHABLE
        record = json.loads(err)
        assert record["error"]["name"] == "unreachable-target"


class TestSimulateCommand:
    def test_chain8(self):
        code, out, _ = run_capture(
            ["simulate", "--alpha", "2.5", "--d", "1", "--r", "8", "--r0", "2",
             "--force-m", "2,2", "--coeff", "0.6,0.8"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["final_fidelity"] >= 1 - 1e-9
        assert payload["total_time"] > 0
        assert payload["trace"][0]["step"] == 1

    def test_unsupported_regime(self):
        code, _, err = run_capture(
            ["simulate", "--alpha", "0.5", "--d", "1", "--r", "4",
             "--coeff", "1,0"]
        )
        assert code == EXIT_REGIME
        assert json.loads(err)["error"]["code"] == EXIT_REGIME

    def test_memory_cap(self):
        code, _, err = run_capture(
            ["simulate", "--alpha", "2.5", "--r", "64",
             "--force-m", "2,2,2,2,2", "--coeff", "1,0"]
        )
        assert code == EXIT_MEMCAP

    def test_bad_flag_value(self):
        code, _, _ = run_capture(["simulate", "--alpha", "abc", "--r", "4",
                                  "--coeff", "1,0"])
        assert code == EXIT_USAGE

    def test_qudit(self):
        code, out, _ = run_capture(
            ["simulate", "--alpha", "2.5", "--r", "4", "--q", "3",
             "--force-m", "2", "--coeff", "random:9"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["final_fidelity"] >= 1 - 1e-9

    def test_amplitude_dump(self, tmp_path):
        dump = tmp_path / "amps.csv"
        code, out, _ = run_capture(
            ["simulate", "--alpha", "2.5", "--r", "4", "--force-m", "2",
             "--coeff", "0.6,0.8", "--dump-amps", str(dump)]
        )
        assert code == EXIT_OK
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "basis,re,im"
        assert len(lines) == 3  # 0000 and 1111


class TestTransferCommand:
    def test_transfer(self):
        code, out, _ = run_capture(
            ["transfer", "--alpha", "2.5", "--r", "4", "--force-m", "2",
             "--coeff", "0.6,0.8", "--source", "0", "--target", "3"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["final_fidelity"] >= 1 - 1e-9
        # analytic time is exactly twice the plan total
        plan_code, plan_out, _ = run_capture(
            ["plan", "--alpha", "2.5", "--r", "4", "--force-m", "2"]
        )
        assert payload["total_time"] == 2 * json.loads(plan_out)["t_total"]

    def test_target_out_of_bounds(self):
        code, _, _ = run_capture(
            ["transfer", "--alpha", "2.5", "--r", "4", "--force-m", "2",
             "--coeff", "1,0", "--source", "0", "--target", "99"]
        )
        assert code == EXIT_PRECONDITION


class TestSweepAndBounds:
    def test_sweep_csv(self):
        code, out, _ = run_capture(
            ["sweep", "--alphas", "1.5,2.5", "--d", "1",
             "--r-values", "4,8,16", "--format", "csv"]
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 6

    def test_bounds_row(self):
        code, out, _ = run_capture(
            ["bounds", "--alpha", "2.5", "--d", "1", "--n-values", "10000"]
        )
        assert code == EXIT_OK
        row = json.loads(out)[0]
        assert row["t_star"] == pytest.approx(100.0, rel=1e-12)
        assert row["lower"] == 10000.0
        assert row["upper"] == pytest.approx(1e10, rel=1e-12)


class TestConfigAndOutput:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=2.5\nr=20\n# comment\nformat=json\n")
        code, out, _ = run_capture(["plan", "--config", str(cfg)])
        assert code == EXIT_OK
        assert json.loads(out)["tree"]["m"] == 10

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=2.5\nr=20\n")
        code, out, _ = run_capture(["plan", "--config", str(cfg), "--r", "200"])
        assert code == EXIT_OK
        assert json.loads(out)["tree"]["r"] == 200

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=2.5\nwibble=1\n")
        code, _, _ = run_capture(["plan", "--config", str(cfg), "--r", "20"])
        assert code == EXIT_USAGE

    def test_out_file_and_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GHZLATTICE_OUTDIR", str(tmp_path))
        code, out, _ = run_capture(
            ["plan", "--alpha", "2.5", "--r", "20", "--out", "tree.json"]
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads((tmp_path / "tree.json").read_text())["tree"]["m"] == 10

    def test_io_error(self):
        code, _, err = run_capture(
            ["plan", "--alpha", "2.5", "--r", "20",
             "--out", "/nonexistent-dir/x.json"]
        )
        assert code == EXIT_IO

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", "--alpha", "2.5", "--r", "8", "--force-m", "2,2",
                "--coeff", "random:42"]
        assert run_capture(argv + ["--out", str(a)])[0] == EXIT_OK
        assert run_capture(argv + ["--out", str(b)])[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0

    def test_deterministic_sweep(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--alphas", "1.5,2.0,2.5", "--r-values", "4,16,64",
                "--format", "csv"]
        run_capture(argv + ["--out", str(a)])
        run_capture(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


class TestBoundaryChecks:
    """Bad numeric inputs exit with a documented code, never 0 or 1, and never
    hang: each argv runs in a fresh process under a time limit."""

    @pytest.mark.parametrize("argv,code", [
        (["plan", "--alpha", "2.5", "--d", "1", "--r", "20", "--k-alpha", "nan"],
         EXIT_PRECONDITION),
        (["plan", "--alpha", "2.5", "--d", "1", "--r", "20", "--k-alpha", "inf"],
         EXIT_PRECONDITION),
        (["plan", "--alpha", "2.5", "--d", "1", "--r", "20", "--t-base", "nan"],
         EXIT_PRECONDITION),
        (["plan", "--alpha", "2.5", "--d", "1", "--r", "20", "--t-base", "-5"],
         EXIT_PRECONDITION),
        (["plan", "--alpha", "2.5", "--d", "1", "--r", "inf", "--mode",
          "continuous-analytic"], EXIT_PRECONDITION),
        (["plan", "--alpha", "2.0001", "--d", "1", "--r", "20"], EXIT_REGIME),
        (["bounds", "--alpha", "2.5", "--d", "1", "--n-values", "inf"],
         EXIT_PRECONDITION),
        (["bounds", "--alpha", "2.5", "--d", "1", "--n-values", "1e200"],
         EXIT_PRECONDITION),  # n**2.5 overflows a float
        (["plan", "--alpha", "2.5", "--d", "1", "--r", "20", "--k-alpha", "1e308"],
         EXIT_PRECONDITION),  # t_total overflows to inf: refused, not printed
    ])
    def test_refused_in_time(self, argv, code):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "ghzlattice.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        assert strict_json(proc.stderr)["error"]["code"] == code

    def test_coefficients_are_float_pairs(self):
        code, out, _ = run_capture(
            ["simulate", "--alpha", "2.5", "--r", "4", "--force-m", "2",
             "--coeff", "0.6,0.8j"]
        )
        assert code == EXIT_OK
        assert strict_json(out)["coeff"] == [[0.6, 0.0], [0.0, 0.8]]


class TestRobustness:
    def test_no_subcommand(self):
        assert run_capture([])[0] == EXIT_USAGE

    def test_help_exits_zero(self):
        assert run_capture(["--help"])[0] == 0

    def test_nan_coefficient_is_a_precondition_failure(self):
        code, out, err = run_capture(
            ["simulate", "--alpha", "2.5", "--d", "1", "--r", "4", "--r0", "2",
             "--force-m", "2", "--coeff", "nan,1"]
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert json.loads(err)["error"]["name"] == "precondition"

    def test_small_fuzz(self, tmp_path, monkeypatch):
        # the full 1e4-case fuzz lives in the acceptance suite
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GHZLATTICE_OUTDIR", str(tmp_path))
        tokens = [
            "plan", "simulate", "transfer", "sweep", "bounds",
            "--alpha", "--d", "--r", "--r0", "--q", "--coeff", "--force-m",
            "--mode", "--format", "--source", "--target", "--n-values",
            "--r-values", "--alphas", "--c-site", "--verify", "--no-verify",
            "2.5", "1.5", "0.5", "1", "2", "4", "8", "-1", "0", "abc",
            "0.6,0.8", "random:7", "2,2", "csv", "json", "nan", "1e9",
            "999999999999", "integer-exact", "",
        ]
        rng = np.random.default_rng(77)
        for _ in range(500):
            argv = [tokens[i] for i in rng.integers(0, len(tokens),
                                                    rng.integers(0, 8))]
            code, _, _ = run_capture(argv)
            assert code in ALL_CODES, argv
