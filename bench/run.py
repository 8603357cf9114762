"""ghzlattice benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; the package is imported from ./src.
NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each in
turn.  ``--quick`` runs a few ops per workload (the benchmark's smoke test).

With ``--trace 0`` a run spawns set-up probes (fresh interpreters that set up,
some also run the first, cold op) and then one fresh child that sets up, runs
the cold op and a closed loop of ops for S seconds.  With ``--trace 1`` it
calibrates copy bandwidth, then runs an untraced and a traced child for S/2
seconds each; per-layer metrics come from the traced one.  Report lines come
first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DEADLINE_S = 170.0  # every run ends within 180 s
SETUP_PROBES = 3  # per side of the measured loop

sys.path.insert(0, BENCH)
from tracer import MODULES, NAMED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns the children of one benchmark run, all against one deadline."""

    def __init__(self):
        self.deadline = monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def spawn(self, argv: list) -> tuple[float, dict]:
        """Run one child to completion; (spawn time, its last-line JSON)."""
        start = monotonic()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child {argv[:3]} ran past the deadline")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child {argv[:3]} exited {proc.returncode}: {err.strip()[-2000:]}")
        return start, json.loads(lines[-1])

    def child(self, name: str, seed: int, mode: str, seconds: float = 0.0,
              max_ops: int = 0, traced: bool = False) -> dict:
        start, res = self.spawn([os.path.join(BENCH, "child.py"), ROOT, name, str(seed),
                                 mode, repr(seconds), str(max_ops), "1" if traced else "0"])
        res["setup_s"] = res["ready"] - start
        return res

    def import_probe(self) -> float:
        """A fresh interpreter's `import ghzlattice.cli`, from spawn to done."""
        code = ("import time, json, ghzlattice.cli; "
                "print(json.dumps(time.clock_gettime(time.CLOCK_MONOTONIC)))")
        start, ready = self.spawn(["-c", code])
        return ready - start

    def host(self, state_bytes: int, reps: int) -> dict:
        return self.spawn([os.path.join(BENCH, "host.py"), str(state_bytes), str(reps)])[1]


def tail(samples: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10 samples
    beyond it, never below the median (the median when n < 20)."""
    s = sorted(samples)
    n = len(s)
    med = statistics.median(s)
    if n < 20 or s[n - 11] < med:
        return 50.0, med
    return 100.0 * (n - 10) / n, s[n - 11]


def end_to_end(name: str, seed: int, seconds: float, quick: bool, runner: Runner):
    """Untraced run: (metrics, notes, attempted, failed, errors)."""
    workload = WORKLOADS[name]
    setups, probes = [], []

    def spawn_probes():
        # half before the loop and half after it, so they sample the host twice
        for _ in range(1 if quick else SETUP_PROBES):
            if name == "cli-cold":
                setups.append(runner.import_probe())
            else:
                setups.append(runner.child(name, seed, "setup")["setup_s"])
        for _ in range(0 if quick else workload.cold_probes):
            probes.append(runner.child(name, seed, "cold"))

    spawn_probes()
    main = runner.child(name, seed, "run", seconds, 2 if quick else 0)
    if not quick:
        spawn_probes()
    if name != "cli-cold":
        setups += [p["setup_s"] for p in probes + [main]]
    ops = main["op_s"] or [main["cold_op_s"]]
    if name == "cli-cold":  # every op is cold
        colds = ops + [main["cold_op_s"]]
    else:
        colds = [p["cold_op_s"] for p in probes + [main]]
    pct, tail_s = tail(ops)
    metrics = {
        "op_p50_s": (statistics.median(ops), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "cold_op_s": (statistics.median(colds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (main["peak_rss_mib"], "MiB"),
    }
    attempted = sum(r["attempted"] for r in probes + [main])
    failed = sum(r["failed"] for r in probes + [main])
    kind = "ops, each cold" if name == "cli-cold" else "warm ops"
    notes = {
        "op_p50_s": f"median of n={len(ops)} {kind}",
        "op_tail_s": f"p{pct:.1f} of n={len(ops)} {kind}"
                     + (" (too few ops for a tail: median)" if len(ops) < 20 else ""),
        "ops_per_s": f"{len(ops)} ops / {sum(ops):.3f} s inside ops",
        "cold_op_s": f"median of n={len(colds)} cold ops",
        "setup_s": f"median of n={len(setups)} fresh set-ups",
        "peak_rss_mib": "ru_maxrss of the " + ("CLI processes" if name == "cli-cold"
                                               else "workload child"),
    }
    errors = [e for r in probes + [main] for e in r["errors"]]
    return metrics, notes, attempted, failed, errors


def layer_keys() -> set:
    """Every tracer metric key a per-layer name may be built on."""
    keys = set(NAMED.values()) | {f"{m}.other" for m in MODULES}
    keys |= {"simulator.controlled_increment", "simulator.evolve_phase.warm",
             "simulator.evolve_phase.cold"}
    keys |= {f"simulator.apply_gate.{lay}" for lay in ("lo1", "kron", "strided")}
    return keys


def per_layer(name: str, seed: int, seconds: float, quick: bool, runner: Runner,
              declared: list):
    """Traced run: (metrics, notes, attempted, failed, errors)."""
    workload = WORKLOADS[name]
    host = runner.host(workload.state_bytes, 1 if quick else 3)
    half = seconds / 2
    max_ops = 2 if quick else 0
    plain = runner.child(name, seed, "run", half, max_ops)
    traced = runner.child(name, seed, "run", half, max_ops, traced=True)
    layers = {"cli.import_s": 0.0, "cli.output_bytes": 0.0, **traced["layers"]}
    plain_p50 = statistics.median(plain["op_s"] or [plain["cold_op_s"]])
    traced_p50 = statistics.median(traced["op_s"] or [traced["cold_op_s"]])
    layers["trace.op_p50_s"] = traced_p50
    layers["trace.overhead_s"] = traced_p50 - plain_p50
    layers["machine.copy_gbps.state"] = host["copy_gbps_state"]
    layers["machine.copy_gbps.large"] = host["copy_gbps_large"]
    keys = layer_keys()
    metrics = {}
    for entry in declared:
        metric = entry["name"]
        if metric not in layers and metric.rsplit(".", 1)[0] not in keys:
            raise BenchError(f"per-layer metric {metric} has no source")
        metrics[metric] = (layers.get(metric, 0.0), entry["unit"])
    notes = {
        "host": json.dumps({k: v for k, v in host.items() if not k.startswith("copy")}),
        "copy": f"np.copyto at {host['state_mib']:.2f} MiB and {host['large_mib']:.0f} MiB "
                f"(LLC {host['llc_mib']:.1f} MiB): {host['copy_gbps_state']:.2f} and "
                f"{host['copy_gbps_large']:.2f} GB/s",
        "trace": f"traced op p50 {traced_p50:.4f} s vs untraced {plain_p50:.4f} s; "
                 f"layer self times cover {layers['trace.coverage']:.1%} of traced op wall",
    }
    runs = (plain, traced)
    errors = [e for r in runs for e in r["errors"]]
    return (metrics, notes, sum(r["attempted"] for r in runs),
            sum(r["failed"] for r in runs), errors)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few ops per workload: the benchmark's smoke test")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "ghzlattice", "__init__.py")):
        sys.stderr.write(f"no ghzlattice sources under {ROOT}/src: run from a checkout\n")
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")

    runner = Runner()
    total, attempted, failed = {}, 0, 0
    for name in names if args.workload == "all" else [args.workload]:
        try:
            if args.trace:
                got = per_layer(name, args.seed, seconds, args.quick, runner,
                                spec["per_layer"])
            else:
                got = end_to_end(name, args.seed, seconds, args.quick, runner)
        except BenchError as exc:
            sys.stderr.write(f"{name}: {exc}\n")
            return 1
        metrics, notes, n_att, n_fail, errors = got
        attempted += n_att
        failed += n_fail
        print(f"== {name} (seed {args.seed}, {seconds:g} s, trace {args.trace})")
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:40s} {value:14.6g} {unit:6s} {notes.get(metric, '')}")
        print(f"  {'fail_ratio':40s} {n_fail / n_att:14.6g} {'':6s} {n_fail} of {n_att} ops failed")
        for key in ("host", "copy", "trace"):
            if key in notes:
                print(f"  {key}: {notes[key]}")
        for err in errors:
            print(f"  failure: {err}")
        prefix = "" if args.workload != "all" else f"{name}."
        total.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
