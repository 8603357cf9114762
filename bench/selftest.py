"""The benchmark's own test: its output checks, quick mode, and a bare directory.

    python3 bench/selftest.py

Run from the root of a source checkout.  Prints one PASS/FAIL line per check
and exits non-zero if any fails.  Scratch files go under ./.bench_out.
"""
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def test_nan_state_fails_transfer_check():
    small = workloads.Small(seed=1, root=ROOT)
    inputs = small.prepare()
    outputs = small.op(inputs)
    assert small.check(inputs, outputs) is None
    amps = outputs[0].amps.copy()
    amps[3] = np.nan
    outputs[0] = types.SimpleNamespace(amps=amps)
    err = small.check(inputs, outputs)
    assert err is not None and "non-finite" in err, err


def test_unnormalized_or_wrong_state_fails():
    coeffs = np.array([0.6, 0.8j])
    good = np.zeros(2**4, dtype=np.complex128)
    good[[0, 8]] = coeffs  # coeffs at site 3, |0> elsewhere
    assert workloads.check_target_state(good, 2, 3, coeffs) is None
    assert workloads.check_target_state(2 * good, 2, 3, coeffs) is not None
    assert workloads.check_target_state(good, 2, 2, coeffs) is not None


def test_cli_output_check():
    assert workloads.check_cli_output('{"final_fidelity": 0.9999999999999}') is None
    for text in ('{"final_fidelity": NaN}', '{"final_fidelity": Infinity}',
                 '{"final_fidelity": 0.99}', '{"final_fidelity": null}', "not json"):
        assert workloads.check_cli_output(text) is not None, text


def test_dump_check():
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, "amps.csv")
    coeffs = np.array([0.6, 0.8j])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("basis,re,im\n000,0.6,0.0\n111,0.0,0.8\n")
    assert workloads.check_ghz_dump(path, coeffs, 3) is None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("basis,re,im\n000,0.6,0.0\n111,nan,0.8\n")
    assert workloads.check_ghz_dump(path, coeffs, 3) is not None


def test_cli_session_check():
    cli = workloads.CliCold(seed=1, root=ROOT)
    try:
        token = cli.prepare()
        codes = cli.op(token)
        assert cli.check(token, codes) is None
        assert cli.check(token, (0, 0, 0, 3)) is not None
        sweep = cli._path("sweep.json")
        with open(sweep, encoding="utf-8") as fh:
            text = fh.read()
        with open(sweep, "w", encoding="utf-8") as fh:
            fh.write(text.replace("2.0", "2.00001", 1))
        assert "differs" in cli.check(token, codes)
        with open(sweep, "w", encoding="utf-8") as fh:
            fh.write(text.replace("2.0", "NaN", 1))
        assert "bad JSON" in cli.check(token, codes)
    finally:
        cli.close()


def _result(argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def test_quick_mode():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        code, lines = _result([os.path.join(BENCH, "run.py"), "--workload", "all",
                               "--quick", "--trace", str(trace)])
        assert code == 0, lines[-5:]
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        want = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in declared}
        assert set(result["metrics"]) == want, set(result["metrics"]) ^ want


def test_bare_directory_fails():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines = _result(["bench/run.py", "--workload", "transfer-small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert code != 0
    assert not any(line.startswith("{") for line in lines), lines


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
            except Exception as exc:  # report every check, then fail
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            else:
                print(f"PASS {name}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
