import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import ghzlattice
import ghzlattice.protocol as protocol
from ghzlattice.cli import (
    _FLAGS,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_MEMCAP,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_REGIME,
    EXIT_UNREACHABLE,
    EXIT_USAGE,
    run,
)
from ghzlattice.scheduler import AssumptionWarning

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
        assert payload["nodes"][0]["m"] == 10
        assert payload["nodes"][0]["t2"] == pytest.approx(
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

    @pytest.mark.parametrize("alpha", [2.25, 2.5, 3.0])
    @pytest.mark.parametrize("r", [3.0, 37.3, 700.0])
    def test_continuous_power_json_where_csv(self, alpha, r):
        # the power base side r0/m**k may fall below 1: the JSON certificate
        # takes it, as the CSV always did
        argv = ["plan", "--alpha", str(alpha), "--r", str(r), "--mode",
                "continuous-analytic"]
        assert run_capture([*argv, "--format", "csv"])[0] == EXIT_OK
        code, out, err = run_capture(argv)
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert payload["nodes"][-1]["r"] < 1
        assert all(rec["ok"] for rec in payload["certificate"])

    @pytest.mark.parametrize("mode", ["integer-exact", "continuous-analytic"])
    @pytest.mark.parametrize("q", ["0", "1", "-3"])
    def test_q_below_two_refused(self, mode, q):
        code, out, err = run_capture(
            ["plan", "--alpha", "2.5", "--r", "20", "--q", q, "--mode", mode])
        assert code == EXIT_PRECONDITION and out == "", err
        assert "q must be >= 2" in strict_json(err)["error"]["message"]

    def test_notes_in_json(self):
        with pytest.warns(AssumptionWarning):
            code, out, _ = run_capture(
                ["plan", "--alpha", "1.5", "--r", "8", "--r0", "2", "--k-alpha", "1e-3"]
            )
        assert code == EXIT_OK
        notes = json.loads(out)["notes"]
        # K = 1e-3 fails both the K minimum and the polylog assumption
        assert any(note.startswith("K at r=8: ") for note in notes)
        assert any(note.startswith("polylog at r=8: ") and "not guaranteed" in note
                   for note in notes)
        code, out, _ = run_capture(["plan", "--alpha", "2.5", "--r", "20"])
        assert code == EXIT_OK
        assert json.loads(out)["notes"] == []

    def test_unreachable(self):
        code, _, err = run_capture(["plan", "--alpha", "2.5", "--r", "50"])
        assert code == EXIT_UNREACHABLE
        record = json.loads(err)
        assert record["error"]["name"] == "unreachable-target"

    @pytest.mark.parametrize("argv,code,name,message", [
        (["plan", "--alpha", "2.5", "--r", "20.9"], EXIT_UNREACHABLE,
         "unreachable-target", "side 20.9 is not reachable; nearest reachable sizes are "
         "20 (below) and 200 (above)"),
        (["plan", "--alpha", "2.5", "--r", "20.9", "--force-m", "10"], EXIT_UNREACHABLE,
         "unreachable-target", "side 20.9 is not reachable; the forced merge factors reach 20"),
        (["plan", "--alpha", "2.5", "--r", "50.0"], EXIT_UNREACHABLE,
         "unreachable-target", "side 50 is not reachable; nearest reachable sizes are "
         "20 (below) and 200 (above)"),
        (["sweep", "--alphas", "2.5", "--r-values", "20.9", "--mode", "integer-exact"],
         EXIT_UNREACHABLE, "unreachable-target", "side 20.9 is not reachable; nearest "
         "reachable sizes are 20 (below) and 200 (above)"),
        (["sweep", "--alphas", "2.5", "--r-values", "inf", "--mode", "integer-exact"],
         EXIT_PRECONDITION, "precondition", "target side must be finite, got inf"),
    ], ids=["plan", "plan-forced", "plan-integer-float", "sweep", "sweep-inf"])
    def test_integer_exact_target_not_truncated(self, argv, code, name, message):
        got, out, err = run_capture(argv)
        assert (got, out) == (code, "")
        assert strict_json(err)["error"] == {"code": code, "name": name, "message": message}


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

    def test_gather_output_bytes_match_dense(self, tmp_path, monkeypatch):
        # the benchmark's cold CLI session (simulate with an amplitude dump,
        # then transfer, on an 18-site chain) writes the same bytes whether
        # monomial blocks are gathered or built as dense gates (and inverted
        # as dense gates)
        plan_args = ["--alpha", "2.5", "--d", "1", "--r", "18", "--r0", "2",
                     "--force-m", "3,3"]
        make = protocol.Gate
        found = []

        def recorded(*args, **kwargs):
            gate = make(*args, **kwargs)
            found.append((gate._perm, gate._phases))
            return gate

        def densified(matrix, site, _perm=None, _phases=None):
            # a block given by its gather, held as its dense matrix instead
            if matrix is None:
                matrix = np.zeros((_perm.size,) * 2, dtype=np.complex128)
                matrix[np.arange(_perm.size), _perm] = 1 if _phases is None else _phases
            return recorded(matrix, site)

        def session(tag):
            # machines are cached by value across tests and sessions; compile
            # this session's own, gathered or dense
            protocol._machine.cache_clear()
            files = {}
            for token in (7, 2024, 918273645):
                coeff, out = f"random:{token}", tmp_path / f"{tag}-{token}"
                argvs = (["simulate", *plan_args, "--coeff", coeff,
                          "--dump-amps", f"{out}-amps.csv", "--out", f"{out}-sim.json"],
                         ["transfer", *plan_args, "--coeff", coeff, "--source", "0",
                          "--target", "17", "--out", f"{out}-xfer.json"])
                for argv in argvs:
                    assert run_capture(argv)[0] == EXIT_OK
                for name in ("amps.csv", "sim.json", "xfer.json"):
                    files[token, name] = (tmp_path / f"{tag}-{token}-{name}").read_bytes()
            return files

        monkeypatch.setattr(protocol, "Gate", recorded)
        gathered = session("gather")
        assert any(perm is not None for perm, _phases in found)
        found.clear()
        monkeypatch.setattr(protocol, "Gate", densified)
        assert session("dense") == gathered
        assert found and all(perm is None for perm, _phases in found)

    def test_target_out_of_bounds(self):
        code, _, _ = run_capture(
            ["transfer", "--alpha", "2.5", "--r", "4", "--force-m", "2",
             "--coeff", "1,0", "--source", "0", "--target", "99"]
        )
        assert code == EXIT_PRECONDITION


class TestOneCodePerKind:
    """A value outside a flag's choices is a usage error (2), and a site off
    the lattice a precondition failure (6), whichever flag names it."""

    RUN = ["--alpha", "2.5", "--r", "4", "--force-m", "2", "--coeff", "1,0"]

    @pytest.mark.parametrize("argv", [
        ["plan", "--alpha", "2.5", "--r", "20", "--mode", "x"],
        ["plan", "--alpha", "2.5", "--r", "20", "--format", "x"],
        ["sweep", "--alphas", "2.5", "--r-values", "4", "--mode", "x"],
        ["bounds", "--alpha", "2.5", "--n-values", "10", "--format", "x"],
        ["simulate", *RUN, "--gate-mode", "x"],
        ["transfer", *RUN, "--target", "3", "--gate-mode", "x"],
    ])
    def test_bad_choice_is_usage(self, argv):
        code, out, err = run_capture(argv)
        assert code == EXIT_USAGE and out == "", err
        assert "expected one of" in strict_json(err)["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["simulate", *RUN, "--c-site", "9"],
        ["simulate", *RUN, "--c-site", "-1"],
        ["transfer", *RUN, "--source", "9", "--target", "3"],
        ["transfer", *RUN, "--source", "0", "--target", "9"],
        ["transfer", *RUN, "--source", "0", "--target", "-1"],
    ])
    def test_site_off_the_lattice_is_a_precondition_failure(self, argv):
        code, out, err = run_capture(argv)
        assert code == EXIT_PRECONDITION and out == "", err
        assert "outside the lattice" in strict_json(err)["error"]["message"]


class TestSweepAndBounds:
    def test_sweep_csv(self):
        code, out, _ = run_capture(
            ["sweep", "--alphas", "1.5,2.5", "--d", "1",
             "--r-values", "4,8,16", "--format", "csv"]
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 6

    def test_sweep_continuous(self):
        code, out, err = run_capture(
            ["sweep", "--alphas", "1.5,2.5", "--r-values", "4,37.5,1000",
             "--mode", "continuous-analytic"])
        assert code == EXIT_OK, err
        rows = strict_json(out)
        assert len(rows) == 6
        assert all(row["mode"] == "continuous-analytic" and row["certified"] is False
                   for row in rows)

    def test_non_finite_result_refused(self, tmp_path):
        # t_bound overflows at r = 1e308: the JSON dump refuses it, and
        # neither stdout nor the --out file gets a partial table
        out_file = tmp_path / "sweep.json"
        for extra in ([], ["--out", str(out_file)]):
            code, out, err = run_capture(
                ["sweep", "--alphas", "3", "--r-values", "1e308", *extra])
            assert code == EXIT_PRECONDITION and out == "", err
            assert "result is not finite" in strict_json(err)["error"]["message"]
        assert not out_file.exists()

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
        assert json.loads(out)["nodes"][0]["m"] == 10

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=2.5\nr=20\n")
        code, out, _ = run_capture(["plan", "--config", str(cfg), "--r", "200"])
        assert code == EXIT_OK
        assert json.loads(out)["nodes"][0]["r"] == 200

    SIMULATE = ["simulate", "--alpha", "2.5", "--r", "4", "--force-m", "2",
                "--coeff", "0.6,0.8"]

    def test_config_boolean(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verify=no\n")
        code, out, _ = run_capture([*self.SIMULATE, "--config", str(cfg)])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["final_fidelity"] is None
        assert [rec["fidelity"] for rec in payload["trace"]] == [None] * 5

    def test_config_boolean_true(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verify=yes\n")
        code, out, _ = run_capture([*self.SIMULATE, "--config", str(cfg)])
        assert code == EXIT_OK
        assert all(rec["fidelity"] >= 1 - 1e-9 for rec in json.loads(out)["trace"])

    def test_bad_config_boolean(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verify=maybe\n")
        code, out, err = run_capture([*self.SIMULATE, "--config", str(cfg)])
        assert code == EXIT_USAGE and out == ""
        assert "not a boolean" in strict_json(err)["error"]["message"]

    def test_flag_beats_config_boolean(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verify=no\n")
        code, out, _ = run_capture([*self.SIMULATE, "--config", str(cfg), "--verify"])
        assert code == EXIT_OK
        assert all(rec["fidelity"] >= 1 - 1e-9 for rec in json.loads(out)["trace"])

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
        assert json.loads((tmp_path / "tree.json").read_text())["nodes"][0]["m"] == 10

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


# the valid argv templates of the acceptance fuzz (criterion 10)
FUZZ_TEMPLATES = [
    ["plan", "--alpha", "2.5", "--r", "20"],
    ["plan", "--alpha", "1.5", "--r", "12"],
    ["simulate", "--alpha", "2.5", "--r", "4", "--force-m", "2", "--coeff", "0.6,0.8"],
    ["transfer", "--alpha", "2.5", "--r", "4", "--force-m", "2", "--coeff", "1,0",
     "--source", "0", "--target", "3"],
    ["sweep", "--alphas", "1.5,2.5", "--r-values", "4,16"],
    ["bounds", "--alpha", "2.5", "--n-values", "100"],
]
BOUNDARY_TOKENS = ["inf", "-inf", "nan", "1e308", "1e300", "2.0001", "2.002", "2.03",
                   "4.0001"]
DEEP_PLANS = [  # 499 levels at d=1
    ["plan", "--alpha", "3.0", "--d", "1", "--r", "1e300", "--mode", "continuous-analytic"],
    ["plan", "--alpha", "5.0", "--d", "2", "--r", "1e300", "--mode", "continuous-analytic"],
]


def boundary_argvs() -> list[list[str]]:
    """Each template with one flag's value replaced by each boundary token (as
    ``--flag=token``, so ``-inf`` reaches the value parser), 4.0001 at d=2,
    plan and sweep also in continuous mode; plus the deep plans."""
    argvs = list(DEEP_PLANS)
    for template in FUZZ_TEMPLATES:
        for i in range(1, len(template), 2):
            for token in BOUNDARY_TOKENS:
                argv = template[:i] + [f"{template[i]}={token}"] + template[i + 2:]
                if token == "4.0001":
                    argv += ["--d", "2"]
                argvs.append(argv)
                if argv[0] in ("plan", "sweep"):
                    argvs.append(argv + ["--mode", "continuous-analytic"])
    return argvs


class _ArgvTimeout(BaseException):
    """Raised from SIGALRM; not an Exception, so run()'s safety net lets it through."""


def run_in_time(argv, seconds):
    """run_capture(argv), failing the test if it is still running after ``seconds``."""
    def expire(signum, frame):
        raise _ArgvTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return run_capture(argv)
    except _ArgvTimeout:
        pytest.fail(f"{argv} still running after {seconds} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# one valid template per command, and the values each flag of the table is set
# to on it
FLAG_BASES = {template[0]: template for template in FUZZ_TEMPLATES}
DEGENERATE_VALUES = ["", ",", " ", "nan", "inf", "-1", "1e308", str(2**63)]


def flag_argvs():
    """(flag help, argv): each command's template with one of its flags set, as
    ``--flag=value``, to each degenerate value, in flag-table order."""
    for name, commands, _conv, _default, help_text in _FLAGS:
        for command in commands:
            base = FLAG_BASES[command]
            if f"--{name}" in base:
                i = base.index(f"--{name}")
                base = base[:i] + base[i + 2:]
            for value in DEGENERATE_VALUES:
                yield help_text, [*base, f"--{name}={value}"]


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
        (["plan", "--alpha", "2.01", "--d", "1", "--r", "20"], EXIT_REGIME),
        (["plan", "--alpha", "2.03", "--d", "1", "--r", "20"], EXIT_REGIME),
        (["simulate", "--alpha", "2.5", "--r", "4", "--force-m", "2", "--coeff", "0.6,0.8",
          "--d", str(2**63)], EXIT_MEMCAP),  # refused before r**d is computed
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

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_boundary_fuzz(self, tmp_path, monkeypatch):
        """Every boundary argv ends within 30 s with a documented code other than
        internal; exit-0 output and every error record are strict JSON."""
        monkeypatch.chdir(tmp_path)
        for argv in boundary_argvs():
            code, out, err = run_in_time(argv, 30)
            assert code in ALL_CODES - {EXIT_INTERNAL}, (argv, err)
            if code == EXIT_OK:
                strict_json(out)
            else:
                assert strict_json(err)["error"]["code"] == code, argv

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_every_flag_at_degenerate_values(self, tmp_path, monkeypatch):
        """Every (command, flag) of the flag table, set to each degenerate value,
        ends with a documented code other than internal. A failure writes one
        strict-JSON error line to stderr; a success writes a non-empty strict-JSON
        value (to stdout, or to --out) and nothing to stderr. An empty entry in a
        comma-separated flag is a usage error, never an empty list."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GHZLATTICE_OUTDIR", str(tmp_path))
        for help_text, argv in flag_argvs():
            code, out, err = run_in_time(argv, 10)
            assert code in ALL_CODES - {EXIT_INTERNAL}, (argv, err)
            if code == EXIT_OK:
                assert err == "", argv
                if argv[-1].startswith("--out="):
                    out = (tmp_path / argv[-1][len("--out="):]).read_text()
                assert strict_json(out), argv
                continue
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
            assert strict_json(err)["error"]["code"] == code, argv
            if "comma-separated" in help_text and not argv[-1].split("=", 1)[1].strip(", "):
                assert code == EXIT_USAGE, (argv, err)

    @pytest.mark.parametrize("argv", [  # empties next to real entries
        ["sweep", "--alphas", "1.5,,2.5", "--r-values", "4"],
        ["bounds", "--alpha", "2.5", "--n-values", "10,"],
        ["plan", "--alpha", "2.5", "--r", "8", "--force-m", "2,,2"],
        ["simulate", "--alpha", "2.5", "--r", "8", "--force-m", ",2,2", "--coeff", "1,0"],
    ])
    def test_empty_list_entry_is_usage(self, argv):
        code, out, err = run_capture(argv)
        assert code == EXIT_USAGE and out == "", err
        assert "empty entry" in strict_json(err)["error"]["message"]

    def test_forced_shortfall_names_the_size_reached(self):
        # not a bracket with the target 8 as one end
        code, _, err = run_capture(["plan", "--alpha", "2.5", "--r", "8", "--force-m", "2"])
        assert code == EXIT_UNREACHABLE
        assert strict_json(err)["error"]["message"] == (
            "side 8 is not reachable; the forced merge factors reach 4")

    def test_deep_plan_json(self):
        code, out, _ = run_capture(DEEP_PLANS[0])
        assert code == EXIT_OK
        nodes = strict_json(out)["nodes"]
        assert len(nodes) == 499
        assert nodes[0]["r"] == 1e300 and nodes[-1]["m"] is None

    @pytest.mark.parametrize("coeff,code,want", [
        ("random:-1", EXIT_USAGE, None),  # default_rng refuses a negative seed
        ("0,0", EXIT_USAGE, None),
        # finite amplitudes whose squares overflow or underflow a float
        ("1e200,1e200j", EXIT_OK, [[2**-0.5, 0.0], [0.0, 2**-0.5]]),
        ("1e-170,0", EXIT_OK, [[1.0, 0.0], [0.0, 0.0]]),
        ("1e-320,0", EXIT_OK, [[1.0, 0.0], [0.0, 0.0]]),  # subnormal
    ])
    def test_coefficient_range(self, coeff, code, want):
        # in-process, so a leaked RuntimeWarning fails the run (pyproject filter)
        got, out, err = run_capture(["simulate", "--alpha", "2.5", "--r", "4",
                                     "--force-m", "2", "--coeff", coeff])
        assert got == code, err
        if code != EXIT_OK:
            assert out == "" and strict_json(err)["error"]["name"] == "usage"
            return
        assert err == ""
        payload = strict_json(out)
        assert np.allclose(payload["coeff"], want, rtol=1e-15, atol=0)
        assert payload["final_fidelity"] >= 1 - 1e-9

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

    @pytest.mark.parametrize("argv,code", [
        ([], EXIT_USAGE),
        (["plan", "--alpha", "0.5", "--r", "20"], EXIT_REGIME),
        (["plan", "--alpha", "2.5", "--r", "50"], EXIT_UNREACHABLE),
        (["simulate", "--alpha", "2.5", "--r", "64", "--force-m", "2,2,2,2,2",
          "--coeff", "1,0"], EXIT_MEMCAP),
        (["simulate", "--alpha", "2.5", "--r", "4", "--force-m", "2", "--coeff", "nan,1"],
         EXIT_PRECONDITION),
        (["plan", "--alpha", "2.5", "--r", "20", "--out", "/nonexistent-dir/x.json"],
         EXIT_IO),
    ])
    def test_error_record_is_one_line(self, argv, code):
        got, out, err = run_capture(argv)
        assert got == code and out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert strict_json(err)["error"]["code"] == code

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


def _python(*args):
    """A fresh interpreter running ``args`` against the source tree, unwritten:
    no bytecode lands next to the files it imports."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-B", *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


# the names the run stack (simulator and protocol) defines
RUN_NAMES = [name for name in ghzlattice.__all__
             if getattr(ghzlattice, name).__module__ in ("ghzlattice.simulator",
                                                         "ghzlattice.protocol")]


class TestDeferredRunStack:
    """numpy, simulator and protocol load only when a run reads them."""

    @pytest.mark.parametrize("argv,loads", [
        (["plan", "--alpha", "2.5", "--r", "20"], False),
        (["sweep", "--alphas", "1.5,2.0,2.5", "--r-values", "4,64,1024"], False),
        (["bounds", "--alpha", "2.5", "--n-values", "1e2,1e6"], False),
        (["simulate", "--alpha", "2.5", "--r", "4", "--force-m", "2", "--coeff", "0.6,0.8"],
         True),
    ], ids=["plan", "sweep", "bounds", "simulate"])
    def test_which_commands_load_numpy(self, argv, loads):
        err = _python("-X", "importtime", "-m", "ghzlattice.cli", *argv).stderr
        imported = {line.split("|")[-1].strip() for line in err.splitlines()
                    if line.startswith("import time:")}
        assert ("numpy" in imported) is loads

    def test_package_import_loads_no_numpy(self):
        out = _python("-c", "import sys, ghzlattice; print('numpy' in sys.modules)").stdout
        assert out.split() == ["False"]

    @pytest.mark.parametrize("name", RUN_NAMES)
    def test_a_run_name_loads_the_whole_stack(self, name):
        # type() reads a deferred module without running it: it stays a
        # LazyLoader module until its body runs
        script = f"""
import json, sys, types
import ghzlattice
stack = [sys.modules["ghzlattice." + m] for m in ("simulator", "protocol")]
before = [type(m) is types.ModuleType for m in stack]
ghzlattice.{name}
print(json.dumps([before, [type(m) is types.ModuleType for m in stack],
                  "numpy" in sys.modules]))
"""
        assert json.loads(_python("-c", script).stdout) == [[False, False], [True, True], True]

    def test_run_names_are_the_stack(self):
        assert len(RUN_NAMES) == 18

    def test_bench_tracer_wraps_the_deferred_stack(self):
        # bench/tracer.py's install wraps only the modules in sys.modules, and
        # reads each one's names, which runs a deferred module; so after
        # `import ghzlattice.cli` it still wraps the run stack
        script = """
import importlib.util, json
import ghzlattice.cli
spec = importlib.util.spec_from_file_location("tracer", "bench/tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install()
from ghzlattice import protocol, simulator
print(json.dumps([hasattr(f, "__wrapped__") for f in (protocol.encode, protocol.apply_gate,
                                                        simulator.Gate.__init__)]))
"""
        assert json.loads(_python("-c", script).stdout) == [True, True, True]
