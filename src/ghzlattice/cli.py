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
import io
import json
import os
import sys

import numpy as np

from . import analysis, protocol, scheduler, simulator
from .errors import (
    GhzLatticeError,
    MemoryCapError,
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


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    if str(text).lower() in ("1", "true", "yes", "on"):
        return True
    if str(text).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# name -> (converter, default, help); shared across CLI flags and config keys
_COMMON = {
    "format": (str, "json", "output format: json or csv"),
    "out": (str, None, "output path (default stdout; relative paths use $GHZLATTICE_OUTDIR)"),
    "config": (str, None, "key=value config file merged under explicit flags"),
}
_OPTIONS = {
    "plan": {
        **_COMMON,
        "alpha": (float, None, "interaction exponent (required)"),
        "d": (int, 1, "lattice dimension"),
        "r": (float, None, "target side length (required)"),
        "r0": (int, 2, "base-case side length"),
        "q": (int, 2, "levels per site"),
        "k-alpha": (float, None, "envelope prefactor (default: regime minimum)"),
        "t-base": (float, None, "base-case time (default: envelope at r0)"),
        "force-m": (_ints, None, "comma-separated merge factors, base outward"),
        "mode": (str, "integer-exact", "integer-exact or continuous-analytic"),
        "kappa-factor": (float, 4.0, "polylog kappa numerator factor, in (3, 4]"),
    },
    "simulate": {
        **_COMMON,
        "alpha": (float, None, "interaction exponent (required)"),
        "d": (int, 1, "lattice dimension"),
        "r": (int, None, "lattice side length (required)"),
        "r0": (int, 2, "base-case side length"),
        "q": (int, 2, "levels per site"),
        "force-m": (_ints, None, "comma-separated merge factors, base outward"),
        "coeff": (str, None, "q comma-separated amplitudes, or random:SEED (required)"),
        "c-site": (int, 0, "flat index of the source site"),
        "gate-mode": (str, "dft", "single-site rotation: dft or hadamard (q=2)"),
        "verify": (_bool, True, "record per-step fidelities against expected states"),
        "dump-amps": (str, None, "also write an amplitude CSV to this path"),
        "dump-threshold": (float, 1e-12, "amplitude magnitude cutoff for the dump"),
        "max-amps": (int, simulator.DEFAULT_AMP_CAP, "statevector amplitude cap"),
    },
    "transfer": {
        **_COMMON,
        "alpha": (float, None, "interaction exponent (required)"),
        "d": (int, 1, "lattice dimension"),
        "r": (int, None, "lattice side length (required)"),
        "r0": (int, 2, "base-case side length"),
        "q": (int, 2, "levels per site"),
        "force-m": (_ints, None, "comma-separated merge factors, base outward"),
        "coeff": (str, None, "q comma-separated amplitudes, or random:SEED (required)"),
        "source": (int, 0, "flat index of the source site"),
        "target": (int, None, "flat index of the destination site (required)"),
        "gate-mode": (str, "dft", "single-site rotation: dft or hadamard (q=2)"),
        "verify": (_bool, True, "record per-step fidelities against expected states"),
        "max-amps": (int, simulator.DEFAULT_AMP_CAP, "statevector amplitude cap"),
    },
    "sweep": {
        **_COMMON,
        "alphas": (_floats, None, "comma-separated alpha values (required)"),
        "d": (int, 1, "lattice dimension"),
        "r-values": (_floats, None, "comma-separated side lengths (required)"),
        "r0": (int, 2, "base-case side length"),
        "mode": (str, "auto", "auto, integer-exact, or continuous-analytic"),
    },
    "bounds": {
        **_COMMON,
        "alpha": (float, None, "interaction exponent (required)"),
        "d": (int, 1, "lattice dimension"),
        "n-values": (_floats, None, "comma-separated site counts (required)"),
    },
}
_REQUIRED = {
    "plan": ("alpha", "r"),
    "simulate": ("alpha", "r", "coeff"),
    "transfer": ("alpha", "r", "coeff", "target"),
    "sweep": ("alphas", "r-values"),
    "bounds": ("alpha", "n-values"),
}

_PARSER = None


def _build_parser() -> _Parser:
    parser = _Parser(prog="ghzlattice", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command")
    for name, opts in _OPTIONS.items():
        sp = sub.add_parser(name, description=f"{name} subcommand")
        for flag, (conv, default, help_text) in opts.items():
            arg = f"--{flag}"
            if conv is _bool:
                group = sp.add_mutually_exclusive_group()
                group.add_argument(arg, dest=flag.replace("-", "_"),
                                   action="store_const", const=True, default=None,
                                   help=help_text)
                group.add_argument(f"--no-{flag}", dest=flag.replace("-", "_"),
                                   action="store_const", const=False, default=None)
            else:
                sp.add_argument(arg, dest=flag.replace("-", "_"), type=str,
                                default=None, help=help_text, metavar="V")
    return parser


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
    for key in _REQUIRED[command]:
        if settled[key] is None:
            raise _UsageError(f"{command} requires --{key}")
    return settled


def _parse_coefficients(text: str, q: int) -> np.ndarray:
    """Either q comma-separated complex numbers (normalized for the caller) or
    ``random:SEED`` for a Haar-uniform draw from a seeded PCG64 generator."""
    if text.startswith("random:"):
        try:
            seed = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise _UsageError(f"bad random seed: {exc}") from exc
        rng = np.random.default_rng(seed)
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
    norm = np.sqrt(np.sum(np.abs(vec) ** 2))
    if norm == 0:
        raise _UsageError("coefficients cannot all be zero")
    return vec / norm


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    path = out
    if not os.path.isabs(path):
        path = os.path.join(os.environ.get("GHZLATTICE_OUTDIR", "."), path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise PreconditionError(f"result is not finite: {exc}") from exc


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def _plan_csv(p: scheduler.SchedulePlan) -> str:
    buf = io.StringIO()
    buf.write("r,r1,m,t1,t2,t_total,forced\n")
    for node in p.nodes:
        row = [
            repr(node.r), "" if node.r1 is None else repr(node.r1),
            "" if node.m is None else repr(node.m),
            "" if node.t1 is None else repr(node.t1),
            "" if node.t2 is None else repr(node.t2),
            repr(node.t_total), int(node.forced),
        ]
        buf.write(",".join(str(x) for x in row) + "\n")
    return buf.getvalue()


def _cmd_plan(o: dict) -> tuple[int, str]:
    mode = o["mode"]
    if mode not in ("integer-exact", "continuous-analytic"):
        raise _UsageError(f"unknown mode {mode!r}")
    p = scheduler.plan(
        o["alpha"], o["d"], o["r"], r0=o["r0"], t_base=o["t-base"], q=o["q"],
        K_alpha=o["k-alpha"], forced_m=o["force-m"], mode=mode,
        kappa_factor=o["kappa-factor"],
    )
    if o["format"] == "csv":
        return EXIT_OK, _plan_csv(p)
    payload = p.to_dict()
    payload["certificate"] = p.certify()
    payload["notes"] = p.notes
    return EXIT_OK, _dump_json(payload)


def _make_plan_and_state(o: dict, c_site: int):
    lattice = LatticeSpec(o["d"], o["r"], o["q"])
    simulator.check_capacity(o["q"], lattice.n_sites, o["max-amps"])
    p = scheduler.plan(
        o["alpha"], o["d"], o["r"], r0=o["r0"], q=o["q"], forced_m=o["force-m"]
    )
    coeffs = _parse_coefficients(o["coeff"], o["q"])
    states = [simulator.basis_vector(o["q"], 0) for _ in range(lattice.n_sites)]
    if not 0 <= c_site < lattice.n_sites:
        raise _UsageError(f"site {c_site} outside the lattice")
    states[c_site] = coeffs
    state = simulator.init_product(lattice, states, max_amps=o["max-amps"])
    return lattice, p, coeffs, state


def _trace_payload(o: dict, trace: protocol.ProtocolTrace, extra: dict) -> dict:
    payload = {
        "alpha": o["alpha"], "d": o["d"], "q": o["q"], "r": o["r"],
        **extra,
        "total_time": trace.total_time,
        "final_fidelity": trace.final_fidelity,
        "trace": trace.to_dict()["records"],
    }
    return payload


def _cmd_simulate(o: dict) -> tuple[int, str]:
    lattice, p, coeffs, state = _make_plan_and_state(o, o["c-site"])
    req = protocol.EncodeRequest(lattice, lattice.full_region(), o["c-site"], coeffs, p)
    state, trace = protocol.encode(
        state, req, verify=o["verify"], gate_mode=o["gate-mode"]
    )
    if o["dump-amps"] is not None:
        buf = io.StringIO()
        simulator.write_amplitudes_csv(state, buf, threshold=o["dump-threshold"])
        _emit(buf.getvalue(), o["dump-amps"])
    if o["format"] == "csv":
        buf = io.StringIO()
        trace.write_csv(buf)
        return EXIT_OK, buf.getvalue()
    extra = {"c_site": o["c-site"], "coeff": _pairs(coeffs)}
    return EXIT_OK, _dump_json(_trace_payload(o, trace, extra))


def _cmd_transfer(o: dict) -> tuple[int, str]:
    lattice, p, coeffs, state = _make_plan_and_state(o, o["source"])
    state, trace = protocol.state_transfer(
        state, o["source"], o["target"], lattice.full_region(), p,
        lattice=lattice, verify=o["verify"], gate_mode=o["gate-mode"],
    )
    if o["format"] == "csv":
        buf = io.StringIO()
        trace.write_csv(buf)
        return EXIT_OK, buf.getvalue()
    extra = {"source": o["source"], "target": o["target"],
             "coeff": _pairs(coeffs)}
    return EXIT_OK, _dump_json(_trace_payload(o, trace, extra))


def _cmd_sweep(o: dict) -> tuple[int, str]:
    rows = analysis.scaling_sweep(o["alphas"], o["d"], o["r-values"],
                                  mode=o["mode"], r0=o["r0"])
    if o["format"] == "csv":
        buf = io.StringIO()
        analysis.write_scaling_csv(rows, buf)
        return EXIT_OK, buf.getvalue()
    return EXIT_OK, _dump_json([row.to_dict() for row in rows])


def _cmd_bounds(o: dict) -> tuple[int, str]:
    rows = analysis.gate_bound_table(o["alpha"], o["d"], o["n-values"])
    if o["format"] == "csv":
        buf = io.StringIO()
        analysis.write_gate_bound_csv(rows, buf)
        return EXIT_OK, buf.getvalue()
    return EXIT_OK, _dump_json(rows)


_HANDLERS = {
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "transfer": _cmd_transfer,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
}


def _error_record(code: int, name: str, message: str) -> None:
    sys.stderr.write(_dump_json({"error": {"code": code, "name": name,
                                           "message": message}}) + "\n")


def run(argv) -> int:
    """Parse argv, execute, return an exit status; never raises."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if args.command is None:
            raise _UsageError("missing subcommand (plan, simulate, transfer, sweep, bounds)")
        settled = _settle(args, args.command)
        if settled["format"] not in ("json", "csv"):
            raise _UsageError(f"unknown format {settled['format']!r}")
        code, text = _HANDLERS[args.command](settled)
        _emit(text, settled["out"])
        return code
    except _UsageError as exc:
        _error_record(EXIT_USAGE, "usage", str(exc))
        return EXIT_USAGE
    except UnsupportedRegimeError as exc:
        _error_record(EXIT_REGIME, "unsupported-regime", str(exc))
        return EXIT_REGIME
    except UnreachableTargetError as exc:
        _error_record(EXIT_UNREACHABLE, "unreachable-target", str(exc))
        return EXIT_UNREACHABLE
    except MemoryCapError as exc:
        _error_record(EXIT_MEMCAP, "memory-cap", str(exc))
        return EXIT_MEMCAP
    except GhzLatticeError as exc:
        _error_record(EXIT_PRECONDITION, "precondition", str(exc))
        return EXIT_PRECONDITION
    except OverflowError as exc:  # an analytic formula left the float range
        _error_record(EXIT_PRECONDITION, "overflow", str(exc))
        return EXIT_PRECONDITION
    except OSError as exc:
        _error_record(EXIT_IO, "io-error", str(exc))
        return EXIT_IO
    except Exception as exc:  # fuzz safety net: never crash the process
        _error_record(EXIT_INTERNAL, "internal", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
