"""The benchmark's workloads: inputs from a seed, one timed op, an output check.

Each workload draws its inputs from ``numpy.random.default_rng(seed)`` (PCG64)
and hands the library only the generated values.  ``prepare`` builds one op's
input (untimed), ``op`` is the timed call, and ``check`` verifies the output
independently of the library's own ``fidelity`` (untimed); it returns None on
success or a one-line reason.
"""
from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np

FIDELITY_BAR = 1.0 - 1e-9  # the acceptance suite's bar


def haar(rng, q: int) -> np.ndarray:
    vec = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    return vec / np.linalg.norm(vec)


def check_target_state(amps, q: int, target: int, coeffs) -> str | None:
    """|<ref|out>|^2 against coeffs at the target site, |0> elsewhere.

    Computed here with numpy, never with the library's fidelity(), which
    reports 1.0 for a NaN state.  Non-finite amplitudes and a norm away from 1
    fail outright.
    """
    amps = np.asarray(amps)
    if not np.all(np.isfinite(amps)):
        return "output state has non-finite amplitudes"
    norm2 = float(np.vdot(amps, amps).real)
    if not abs(norm2 - 1.0) <= 1e-9:
        return f"output norm**2 {norm2!r} is not 1"
    stride = q**target
    overlap = np.vdot(np.asarray(coeffs, dtype=np.complex128), amps[: q * stride : stride])
    fid = abs(overlap) ** 2
    if not fid >= FIDELITY_BAR:
        return f"fidelity {fid!r} below 1 - 1e-9"
    return None


class TransferWorkload:
    """Warm, in-process state_transfer on one or more lattices, verify on.

    One plan object per lattice is built at setup and reused, so the library's
    per-plan machine cache stays warm after the first op.
    """

    # (d, r, q, alpha, forced_m, source, target)
    cases: tuple = ()
    cold_probes = 0  # cold-op probes run.py spawns before, and again after, the loop
    state_bytes = 0

    def __init__(self, seed: int, root: str, traced: bool = False):
        import ghzlattice as gl

        self.gl = gl
        self.rng = np.random.default_rng(seed)
        self.items = []
        for d, r, q, alpha, forced_m, src, dst in self.cases:
            lattice = gl.LatticeSpec(d, r, q)
            schedule = gl.plan(alpha, d, r, r0=2, q=q, forced_m=list(forced_m))
            self.items.append((lattice, schedule, src, dst))

    def prepare(self):
        gl = self.gl
        inputs = []
        for lattice, _schedule, src, _dst in self.items:
            coeffs = haar(self.rng, lattice.levels)
            sites = [gl.basis_vector(lattice.levels, 0)] * lattice.n_sites
            sites[src] = coeffs
            inputs.append((coeffs, gl.init_product(lattice, sites)))
        return inputs

    def op(self, inputs):
        gl = self.gl
        return [
            gl.state_transfer(state, src, dst, lattice.full_region(), schedule,
                              lattice=lattice, verify=True)[0]
            for (lattice, schedule, src, dst), (_c, state) in zip(self.items, inputs)
        ]

    def check(self, inputs, outputs) -> str | None:
        for (lattice, _s, _src, dst), (coeffs, _), out in zip(self.items, inputs, outputs):
            err = check_target_state(out.amps, lattice.levels, dst, coeffs)
            if err:
                return f"{lattice}: {err}"
        return None


class Chain20(TransferWorkload):
    name = "transfer-chain20"
    cases = ((1, 20, 2, 2.5, (2, 5), 0, 19),)
    cold_probes = 1
    state_bytes = 16 * 2**20


class Small(TransferWorkload):
    name = "transfer-small"
    cases = (
        (1, 16, 2, 2.5, (2, 2, 2), 0, 15),  # deepest recursion, criterion 1's chain
        (2, 4, 2, 4.5, (2,), 0, 15),  # the 2D geometry
        (1, 8, 4, 2.5, (2, 2), 0, 7),  # ququarts: q>2 gate layouts and slices
    )
    cold_probes = 3
    state_bytes = 16 * 2**16  # the largest of the three


def strict_json(text: str):
    """json.loads that refuses bare NaN / Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def check_cli_output(text: str) -> str | None:
    """Strict-JSON CLI output whose final_fidelity meets the bar."""
    try:
        fid = strict_json(text)["final_fidelity"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad JSON output: {exc}"
    if not isinstance(fid, float) or not fid >= FIDELITY_BAR:
        return f"final_fidelity {fid!r} below 1 - 1e-9"
    return None


def check_ghz_dump(path: str, coeffs, n: int) -> str | None:
    """The dumped amplitudes against sum_l c_l |l...l>, computed here."""
    ref = {str(level) * n: complex(c) for level, c in enumerate(coeffs)}
    overlap = 0j
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    for basis, re, im in rows:
        amp = complex(float(re), float(im))
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            return "dumped amplitude is not finite"
        overlap += ref.get(basis, 0j).conjugate() * amp
    fid = abs(overlap) ** 2
    if not FIDELITY_BAR <= fid <= 2.0 - FIDELITY_BAR:
        return f"dumped state fidelity {fid!r} outside 1 +- 1e-9"
    return None


class CliCold:
    """One op is a CLI session of four fresh `ghzlattice` processes: simulate
    (with an amplitude dump) and transfer on an 18-site chain (2^18
    amplitudes), then a scaling sweep and a gate-bound table.

    The sweep's polylog and power-law alphas are drawn from the seed inside
    fixed sub-intervals of their regimes, (1.25, 1.75) and (2.25, 2.75); the
    stretched one is 2.  Coefficient tokens are drawn per op.
    """

    name = "cli-cold"
    cold_probes = 0  # every op is cold
    n_sites = 18
    state_bytes = 16 * 2**18
    plan_args = ["--alpha", "2.5", "--d", "1", "--r", "18", "--r0", "2", "--force-m", "3,3"]
    outputs = ("sim.json", "amps.csv", "xfer.json", "sweep.json", "bounds.json")

    def __init__(self, seed: int, root: str, traced: bool = False):
        self.rng = np.random.default_rng(seed)
        polylog = round(1.25 + 0.5 * self.rng.random(), 6)
        power = round(2.25 + 0.5 * self.rng.random(), 6)
        self.sweep_args = [
            "--alphas", f"{polylog!r},2.0,{power!r}", "--d", "1", "--mode", "auto",
            "--r-values", ",".join(str(2**k) for k in range(2, 31)),
        ]
        self.bounds_args = ["--alpha", repr(power), "--d", "1",
                            "--n-values", ",".join(f"1e{k}" for k in range(2, 13))]
        self.root = root
        self.traced = traced
        self.tmp = os.path.join(root, ".bench_out", f"cli-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("GHZLATTICE_OUTDIR", None)
        self.trace_records = []  # per-process tracer summaries (traced mode)
        self.reference = None  # the first op's sweep and bounds outputs

    def _path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def prepare(self):
        for name in self.outputs:
            if os.path.exists(self._path(name)):
                os.remove(self._path(name))
        return int(self.rng.integers(0, 2**31 - 1))

    def _run(self, argv: list) -> int:
        if self.traced:
            summary = self._path("trace.json")
            if os.path.exists(summary):
                os.remove(summary)
            cmd = [sys.executable, os.path.join(self.root, "bench", "traced_cli.py"),
                   summary, *argv]
        else:
            cmd = [sys.executable, "-m", "ghzlattice.cli", *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=120,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if self.traced:
            with open(summary, encoding="utf-8") as fh:
                self.trace_records.append(json.load(fh))
        return proc.returncode

    def op(self, token):
        coeff = f"random:{token}"
        return (
            self._run(["simulate", *self.plan_args, "--coeff", coeff,
                       "--dump-amps", self._path("amps.csv"),
                       "--out", self._path("sim.json")]),
            self._run(["transfer", *self.plan_args, "--coeff", coeff,
                       "--source", "0", "--target", str(self.n_sites - 1),
                       "--out", self._path("xfer.json")]),
            self._run(["sweep", *self.sweep_args, "--out", self._path("sweep.json")]),
            self._run(["bounds", *self.bounds_args, "--out", self._path("bounds.json")]),
        )

    def output_bytes(self) -> int:
        return sum(os.path.getsize(self._path(n)) for n in self.outputs
                   if os.path.exists(self._path(n)))

    def _read(self, name: str) -> str:
        with open(self._path(name), encoding="utf-8") as fh:
            return fh.read()

    def check(self, token, codes) -> str | None:
        names = ("sim.json", "xfer.json", "sweep.json", "bounds.json")
        for code, name in zip(codes, names):
            if code != 0:
                return f"{name}: exit code {code}"
        for name in names[:2]:
            err = check_cli_output(self._read(name))
            if err:
                return f"{name}: {err}"
        tables = []
        for name in names[2:]:
            text = self._read(name)
            try:
                strict_json(text)
            except ValueError as exc:
                return f"{name}: bad JSON output: {exc}"
            tables.append(text)
        if self.reference is None:
            self.reference = tables
        elif tables != self.reference:
            return "sweep or bounds output differs from the first op's"
        # the same Haar draw the CLI makes for random:<token>
        coeffs = haar(np.random.default_rng(token), 2)
        return check_ghz_dump(self._path("amps.csv"), coeffs, self.n_sites)

    def close(self) -> None:
        for name in os.listdir(self.tmp):
            os.remove(self._path(name))
        os.rmdir(self.tmp)


WORKLOADS = {w.name: w for w in (Chain20, Small, CliCold)}
