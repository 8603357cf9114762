"""Command-line front end: plan, simulate, transfer, sweep, bounds.

Every option can also come from a ``key=value`` config file (``--config``);
explicit flags win over the file, which wins over built-in defaults.  Output
is CSV or JSON, to stdout or ``--out`` (relative paths land in
``$GHZLATTICE_OUTDIR`` when that is set).  Identical inputs and seeds produce
byte-identical output.

Exit codes (stderr carries a one-line JSON error record on failure):
  0 success                     4 unreachable target size
  1 internal error              5 memory cap exceeded
  2 usage / flag error          6 precondition or validation failure
  3 unsupported alpha regime    7 I/O failure
Non-finite inputs and results exit 6; JSON never holds NaN or Infinity, and
complex amplitudes are [re, im] pairs.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from . import analysis, protocol, scheduler, simulator
from .errors import (
    GhzLatticeError,
    MemoryCapError,
    OutOfBoundsError,
    PreconditionError,
    UnreachableTargetError,
    UnsupportedRegimeError,
)
from .geometry import LatticeSpec

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_UNREACHABLE = 4
EXIT_MEMCAP = 5
EXIT_PRECONDITION = 6
EXIT_IO = 7


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so run() can return a status code
    def error(self, message):
        raise _UsageError(message)


def _list(conv):
    """Converter of a comma-separated list of ``conv`` values, none of them empty."""
    def parse(text):
        entries = text.split(",")
        if not all(x.strip() for x in entries):
            raise ValueError(f"empty entry in {text!r}")
        return [conv(x) for x in entries]
    return parse


def _choice(*allowed):
    """Converter refusing any value but one of ``allowed``."""
    def parse(text):
        if text not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {text!r}")
        return text
    return parse


def _bool(text) -> bool:
    if str(text).lower() in ("1", "true", "yes", "on"):
        return True
    if str(text).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_REQUIRED = object()  # default of a key that a flag or the config file must set

# commands that share options: the protocol runs share one group, and plan
# shares the lattice and schedule entries with them
_RUNS = ("simulate", "transfer")
_PLANNED = ("plan", *_RUNS)
_ALL = (*_PLANNED, "sweep", "bounds")

# (name, commands, converter, default, help), in flag order (the order of
# --help and of the first bad value reported); shared across CLI flags and
# config keys
_FLAGS = (
    ("format", _ALL, _choice("json", "csv"), "json", "output format: json or csv"),
    ("out", _ALL, str, None,
     "output path (default stdout; relative paths use $GHZLATTICE_OUTDIR)"),
    ("config", _ALL, str, None, "key=value config file merged under explicit flags"),
    ("alphas", ("sweep",), _list(float), _REQUIRED, "comma-separated alpha values"),
    ("alpha", (*_PLANNED, "bounds"), float, _REQUIRED, "interaction exponent"),
    ("d", _ALL, int, 1, "lattice dimension"),
    ("r-values", ("sweep",), _list(float), _REQUIRED, "comma-separated side lengths"),
    ("n-values", ("bounds",), _list(float), _REQUIRED, "comma-separated site counts"),
    ("r", ("plan",), float, _REQUIRED, "target side length"),
    ("r", _RUNS, int, _REQUIRED, "lattice side length"),
    ("r0", (*_PLANNED, "sweep"), int, 2, "base-case side length"),
    ("q", _PLANNED, int, 2, "levels per site"),
    ("k-alpha", ("plan",), float, None, "envelope prefactor (default: regime minimum)"),
    ("t-base", ("plan",), float, None, "base-case time (default: envelope at r0)"),
    ("force-m", _PLANNED, _list(int), None, "comma-separated merge factors, base outward"),
    ("mode", ("plan",), _choice(scheduler.INTEGER_EXACT, scheduler.CONTINUOUS),
     scheduler.INTEGER_EXACT, "integer-exact or continuous-analytic"),
    ("mode", ("sweep",), _choice(analysis.AUTO, scheduler.INTEGER_EXACT, scheduler.CONTINUOUS),
     analysis.AUTO, "auto, integer-exact, or continuous-analytic"),
    ("coeff", _RUNS, str, _REQUIRED, "q comma-separated amplitudes, or random:SEED"),
    ("c-site", ("simulate",), int, 0, "flat index of the source site"),
    ("source", ("transfer",), int, 0, "flat index of the source site"),
    ("target", ("transfer",), int, _REQUIRED, "flat index of the destination site"),
    ("gate-mode", _RUNS, _choice(protocol.GATE_DFT, protocol.GATE_HADAMARD), protocol.GATE_DFT,
     "single-site rotation: dft or hadamard (q=2)"),
    ("verify", _RUNS, _bool, True, "record per-step fidelities against expected states"),
    ("dump-amps", ("simulate",), str, None, "also write an amplitude CSV to this path"),
    ("dump-threshold", ("simulate",), float, 1e-12, "amplitude magnitude cutoff for the dump"),
)
# command -> name -> (converter, default, help)
_OPTIONS = {cmd: {name: tuple(spec) for name, cmds, *spec in _FLAGS if cmd in cmds}
            for cmd in _ALL}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ghzlattice", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command")
    for name, opts in _OPTIONS.items():
        sp = sub.add_parser(name, description=f"{name} subcommand")
        for flag, (conv, default, help_text) in opts.items():
            if default is _REQUIRED:
                help_text += " (required)"
            if conv is _bool:
                group = sp.add_mutually_exclusive_group()
                group.add_argument(f"--{flag}", action="store_const", const=True, help=help_text)
                group.add_argument(f"--no-{flag}", dest=flag.replace("-", "_"),
                                   action="store_const", const=False)
            else:
                sp.add_argument(f"--{flag}", help=help_text, metavar="V")
    return parser


_PARSER = _build_parser()


def _read_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("_", "-")] = value.strip()
    return values


def _settle(args: argparse.Namespace, command: str) -> dict:
    """Convert flags, merge the config file and defaults, check required keys."""
    opts = _OPTIONS[command]
    raw = {k: getattr(args, k.replace("-", "_")) for k in opts}
    config = _read_config(raw["config"]) if raw["config"] is not None else {}
    for key in config:
        if key not in opts:
            raise _UsageError(f"unknown config key {key!r} for {command}")
    settled = {}
    for key, (conv, default, _help) in opts.items():
        value = raw[key]
        if value is None and key in config:
            value = config[key]
        if value is None:
            settled[key] = default
            continue
        try:
            settled[key] = conv(value) if not isinstance(value, bool) else value
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad value for --{key}: {exc}") from exc
    for key, value in settled.items():
        if value is _REQUIRED:
            raise _UsageError(f"{command} requires --{key}")
    return settled


def _parse_coefficients(text: str, q: int) -> np.ndarray:
    """Either q comma-separated complex numbers (normalized for the caller) or
    ``random:SEED`` for a Haar-uniform draw from a seeded PCG64 generator."""
    if text.startswith("random:"):
        try:  # a negative seed is refused by default_rng
            rng = np.random.default_rng(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise _UsageError(f"bad random seed: {exc}") from exc
        vec = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    else:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != q:
            raise _UsageError(f"--coeff needs {q} entries, got {len(parts)}")
        try:
            vec = np.array([complex(p) for p in parts], dtype=np.complex128)
        except ValueError as exc:
            raise _UsageError(f"bad coefficient: {exc}") from exc
    if not np.all(np.isfinite(vec)):
        raise PreconditionError(f"coefficients must be finite, got {text!r}")
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.sum(np.abs(vec) ** 2))
    if not 0 < norm < np.inf:
        # the squares left the float range: first divide the real and imaginary
        # parts by the largest of them (as floats, so subnormal ones stay finite)
        parts = vec.view(np.float64)
        scale = np.max(np.abs(parts))
        if scale == 0:
            raise _UsageError("coefficients cannot all be zero")
        vec = (parts / scale).view(np.complex128)
        norm = np.sqrt(np.sum(np.abs(vec) ** 2))
    return vec / norm


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    path = os.path.join(os.environ.get("GHZLATTICE_OUTDIR", "."), out)  # absolute out wins
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise PreconditionError(f"result is not finite: {exc}") from exc


def _csv(columns, records) -> str:
    """``records`` (dicts) as CSV with one column per key in ``columns``: floats
    by repr and None as an empty cell (csv.writer's rules), bools as 0/1, and
    CRLF row endings."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for rec in records:
        writer.writerow([int(rec[c]) if isinstance(rec[c], bool) else rec[c] for c in columns])
    return buf.getvalue()


def _cmd_plan(o: dict) -> str:
    p = scheduler.plan(
        o["alpha"], o["d"], o["r"], r0=o["r0"], t_base=o["t-base"], q=o["q"],
        K_alpha=o["k-alpha"], forced_m=o["force-m"], mode=o["mode"],
    )
    if o["format"] == "csv":
        return _csv(("r", "r1", "m", "t1", "t2", "t_total", "forced"), p.to_dict()["nodes"])
    return _dump_json({**p.to_dict(), "certificate": p.certify(), "notes": p.notes})


def _make_plan_and_state(o: dict, *sites: int):
    """The lattice, plan, coefficients and product state of a run whose source
    is ``sites[0]``; every site in ``sites`` must lie on the lattice."""
    lattice = LatticeSpec(o["d"], o["r"], o["q"])
    simulator.check_capacity(lattice)
    p = scheduler.plan(
        o["alpha"], o["d"], o["r"], r0=o["r0"], q=o["q"], forced_m=o["force-m"]
    )
    coeffs = _parse_coefficients(o["coeff"], o["q"])
    states = [simulator.basis_vector(o["q"], 0) for _ in range(lattice.n_sites)]
    for s in sites:
        if not 0 <= s < lattice.n_sites:
            raise OutOfBoundsError(f"site {s} outside the lattice")
    states[sites[0]] = coeffs
    state = simulator.init_product(lattice, states)
    return lattice, p, coeffs, state


def _trace_output(o: dict, trace: protocol.ProtocolTrace, coeffs, sites: dict) -> str:
    """A protocol trace as CSV, or as JSON with the run's inputs."""
    records = trace.to_dict()["records"]
    if o["format"] == "csv":
        return _csv(("step", "level", "inverse", "time", "fidelity"),
                    [{**rec, "time": rec["elapsed"]} for rec in records])
    return _dump_json({
        "alpha": o["alpha"], "d": o["d"], "q": o["q"], "r": o["r"],
        **sites,
        "coeff": [[float(c.real), float(c.imag)] for c in coeffs],
        "total_time": trace.total_time,
        "final_fidelity": trace.final_fidelity,
        "trace": records,
    })


def _table_output(o: dict, columns, records: list) -> str:
    """Row records as CSV with these columns, or as JSON."""
    if o["format"] == "csv":
        return _csv(columns, records)
    return _dump_json(records)


def _cmd_simulate(o: dict) -> str:
    lattice, p, coeffs, state = _make_plan_and_state(o, o["c-site"])
    req = protocol.EncodeRequest(lattice, lattice.full_region(), o["c-site"], coeffs, p)
    state, trace = protocol.encode(
        state, req, verify=o["verify"], gate_mode=o["gate-mode"]
    )
    if o["dump-amps"] is not None:
        columns = ("basis", "re", "im")
        rows = simulator.dump_amplitudes(state, o["dump-threshold"])
        _emit(_csv(columns, [dict(zip(columns, row)) for row in rows]), o["dump-amps"])
    return _trace_output(o, trace, coeffs, {"c_site": o["c-site"]})


def _cmd_transfer(o: dict) -> str:
    lattice, p, coeffs, state = _make_plan_and_state(o, o["source"], o["target"])
    state, trace = protocol.state_transfer(
        state, o["source"], o["target"], lattice.full_region(), p,
        lattice=lattice, verify=o["verify"], gate_mode=o["gate-mode"],
    )
    return _trace_output(o, trace, coeffs, {"source": o["source"], "target": o["target"]})


def _cmd_sweep(o: dict) -> str:
    rows = analysis.scaling_sweep(o["alphas"], o["d"], o["r-values"],
                                  mode=o["mode"], r0=o["r0"])
    columns = [f.name for f in dataclasses.fields(analysis.ScalingRow)]
    return _table_output(o, columns, [row.to_dict() for row in rows])


def _cmd_bounds(o: dict) -> str:
    rows = analysis.gate_bound_table(o["alpha"], o["d"], o["n-values"])
    return _table_output(o, list(rows[0]), rows)  # --n-values holds at least one entry


_HANDLERS = {
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "transfer": _cmd_transfer,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
}

# (exception type, exit code, record name), most specific first; anything
# else is an internal error
_ERRORS = (
    (_UsageError, EXIT_USAGE, "usage"),
    (UnsupportedRegimeError, EXIT_REGIME, "unsupported-regime"),
    (UnreachableTargetError, EXIT_UNREACHABLE, "unreachable-target"),
    (MemoryCapError, EXIT_MEMCAP, "memory-cap"),
    (GhzLatticeError, EXIT_PRECONDITION, "precondition"),
    (OverflowError, EXIT_PRECONDITION, "overflow"),  # an analytic formula left the float range
    (OSError, EXIT_IO, "io-error"),
)


def _error_record(code: int, name: str, message: str) -> None:
    record = {"error": {"code": code, "name": name, "message": message}}
    sys.stderr.write(json.dumps(record, allow_nan=False) + "\n")  # one line


def run(argv) -> int:
    """Parse argv, execute, return an exit status; never raises."""
    try:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if args.command is None:
            raise _UsageError(f"missing subcommand ({', '.join(_ALL)})")
        settled = _settle(args, args.command)
        _emit(_HANDLERS[args.command](settled), settled["out"])
        return EXIT_OK
    except Exception as exc:  # fuzz safety net: never crash the process
        for kind, code, name in _ERRORS:
            if isinstance(exc, kind):
                _error_record(code, name, str(exc))
                return code
        _error_record(EXIT_INTERNAL, "internal", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
