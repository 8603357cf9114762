"""Golden CLI output digests: compute them, or rewrite ``digests.json``.

Each plan runs CLI ``simulate`` (JSON, CSV and the ``--dump-amps`` CSV) and
``transfer`` (JSON and CSV, from site 0 to the last site) for three ``random:``
tokens, and each once more with ``--no-verify`` (JSON, and the simulate's
amplitude dump), since a verify-off run may take its own op stream.  Each
table command (``plan``, ``sweep``, ``bounds``) runs once as JSON and once as
CSV.  Every output file is recorded as the SHA-256 of its bytes.  A
change that moves output bits on purpose reruns this script and says why the
listed digests moved:

    PYTHONPATH=src python tests/golden/regen.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from ghzlattice.cli import run

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# name -> (argv plan flags, number of sites); qutrit9, qutrit12 and q5-chain8
# hold dense single-site gates at low strides whose window exceeds 64
# amplitudes when widened to site 0; the last three are regime-true plans that
# certify (power at d=1 with m=10, power at d=2 with m=4, polylog with 2,2,2)
PLANS = {
    "chain18-3-3": (["--alpha", "2.5", "--d", "1", "--r", "18", "--force-m", "3,3"], 18),
    "chain20-2-5": (["--alpha", "2.5", "--d", "1", "--r", "20", "--force-m", "2,5"], 20),
    "chain16-2-2-2": (["--alpha", "2.5", "--d", "1", "--r", "16", "--force-m", "2,2,2"], 16),
    "grid4x4-2": (["--alpha", "4.5", "--d", "2", "--r", "4", "--force-m", "2"], 16),
    "ququart8-2-2": (["--alpha", "2.5", "--d", "1", "--r", "8", "--q", "4",
                      "--force-m", "2,2"], 8),
    "qutrit9-r0-3-3": (["--alpha", "2.5", "--d", "1", "--r", "9", "--q", "3", "--r0", "3",
                        "--force-m", "3"], 9),
    "qutrit12-r0-3-2-2": (["--alpha", "2.5", "--d", "1", "--r", "12", "--q", "3",
                           "--r0", "3", "--force-m", "2,2"], 12),
    "q5-chain8-2-2": (["--alpha", "2.5", "--d", "1", "--r", "8", "--q", "5",
                       "--force-m", "2,2"], 8),
    "certified-chain20": (["--alpha", "2.5", "--d", "1", "--r", "20"], 20),
    "certified-grid4x4-r0-1": (["--alpha", "5", "--d", "2", "--r", "4", "--r0", "1"], 16),
    "certified-polylog-chain16": (["--alpha", "1.5", "--d", "1", "--r", "16"], 16),
}
TOKENS = ("random:11", "random:123456", "random:2024")
PLAN_FILES = ("simulate.json", "simulate.csv", "amps.csv", "transfer.json", "transfer.csv",
              "simulate-noverify.json", "amps-noverify.csv", "transfer-noverify.json")

# name -> argv of a command that prints a plan or a row table; the sweep and
# bounds values are the benchmark's cold CLI session with its alphas fixed
TABLES = {
    "plan-integer": ["plan", "--alpha", "2.5", "--d", "1", "--r", "20", "--r0", "2"],
    "plan-continuous": ["plan", "--alpha", "1.5", "--d", "1", "--r", "1000.5",
                        "--mode", "continuous-analytic"],
    "plan-stretched-r0-2981": ["plan", "--alpha", "2.0", "--d", "1", "--r", "208670",
                               "--r0", "2981"],
    "sweep": ["sweep", "--alphas", "1.5,2.0,2.5", "--d", "1", "--mode", "auto",
              "--r-values", ",".join(str(2**k) for k in range(2, 31))],
    "bounds": ["bounds", "--alpha", "2.5", "--d", "1",
               "--n-values", ",".join(f"1e{k}" for k in range(2, 13))],
}
FORMATS = ("json", "csv")


def _cli(argv: list) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.getvalue()}")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def compute(plans=PLANS) -> dict:
    """{"<plan> <token> <file>": sha256 hex} for every plan and token."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (flags, n_sites) in plans.items():
            for token in TOKENS:
                files = {f: os.path.join(tmp, f) for f in PLAN_FILES}
                dump = ["--dump-amps", files["amps.csv"]]
                for fmt in FORMATS:
                    _cli(["simulate", *flags, "--coeff", token, "--format", fmt,
                          *(dump if fmt == "json" else []),
                          "--out", files[f"simulate.{fmt}"]])
                    _cli(["transfer", *flags, "--coeff", token, "--source", "0",
                          "--target", str(n_sites - 1), "--format", fmt,
                          "--out", files[f"transfer.{fmt}"]])
                _cli(["simulate", *flags, "--coeff", token, "--no-verify",
                      "--dump-amps", files["amps-noverify.csv"],
                      "--out", files["simulate-noverify.json"]])
                _cli(["transfer", *flags, "--coeff", token, "--no-verify", "--source", "0",
                      "--target", str(n_sites - 1), "--out", files["transfer-noverify.json"]])
                for f, path in files.items():
                    digests[f"{name} {token} {f}"] = _sha256(path)
    return digests


def compute_tables(tables=TABLES) -> dict:
    """{"<table>.<format>": sha256 hex} for every table command and format."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in tables.items():
            for fmt in FORMATS:
                path = os.path.join(tmp, f"{name}.{fmt}")
                _cli([*argv, "--format", fmt, "--out", path])
                digests[f"{name}.{fmt}"] = _sha256(path)
    return digests


def main() -> int:
    old = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            old = json.load(fh)
    new = {**compute(), **compute_tables()}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=2, sort_keys=True)
        fh.write("\n")
    moved = sorted(k for k in new if old.get(k) != new[k])
    for key in moved:
        print(f"moved: {key}" if key in old else f"added: {key}")
    for key in sorted(set(old) - set(new)):
        print(f"removed: {key}")
    print(f"{len(moved)} of {len(new)} digests moved or added")
    return 0


if __name__ == "__main__":
    sys.exit(main())
