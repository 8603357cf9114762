"""Golden CLI output digests: compute them, or rewrite ``digests.json``.

Each plan runs CLI ``simulate`` (JSON and ``--dump-amps`` CSV) and ``transfer``
(JSON, from site 0 to the last site) for three ``random:`` tokens, and each
output file is recorded as the SHA-256 of its bytes.  A change that moves
output bits on purpose reruns this script and says why the listed digests
moved:

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

# name -> (argv plan flags, number of sites); the last three hold dense
# single-site gates at low strides whose window exceeds 64 amplitudes when
# widened to site 0
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
}
TOKENS = ("random:11", "random:123456", "random:2024")


def _cli(argv: list) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.getvalue()}")


def compute(plans=PLANS) -> dict:
    """{"<plan> <token> <file>": sha256 hex} for every plan and token."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (flags, n_sites) in plans.items():
            for token in TOKENS:
                files = {f: os.path.join(tmp, f)
                         for f in ("simulate.json", "amps.csv", "transfer.json")}
                _cli(["simulate", *flags, "--coeff", token,
                      "--dump-amps", files["amps.csv"], "--out", files["simulate.json"]])
                _cli(["transfer", *flags, "--coeff", token, "--source", "0",
                      "--target", str(n_sites - 1), "--out", files["transfer.json"]])
                for f, path in files.items():
                    with open(path, "rb") as fh:
                        digests[f"{name} {token} {f}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def main() -> int:
    old = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            old = json.load(fh)
    new = compute()
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
