"""One fresh workload process, driven by run.py.

    python child.py ROOT WORKLOAD SEED MODE SECONDS MAX_OPS TRACED

MODE is ``setup`` (set up, then exit), ``cold`` (set up and run the first op)
or ``run`` (set up, first op, then a closed loop of ops for SECONDS or until
MAX_OPS ops, whichever comes first; MAX_OPS 0 means no limit).  The last
stdout line is one JSON object; run.py subtracts its spawn time from
``ready`` (CLOCK_MONOTONIC, shared by both processes) to get set-up time.
"""
import json
import os
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


STEP_KEYS = ("base", "merge", "concentrate", "rotate", "redistribute")
KERNEL_PREFIXES = ("simulator.apply_gate.", "simulator.controlled_increment",
                   "simulator.evolve_phase.")


def layer_values(ops: int, wall: float, stats: dict, steps: dict) -> dict:
    """Per-op layer metrics from tracer stats {key: [calls, self_s, bytes]}."""
    out = {}
    for key, (calls, self_s, _b) in stats.items():
        if key != "op":
            out[f"{key}.calls"] = calls / ops
            out[f"{key}.self_s"] = self_s / ops
    kernels = [v for k, v in stats.items() if k.startswith(KERNEL_PREFIXES)]
    kernel_s = sum(v[1] for v in kernels)
    moved = sum(v[2] for v in kernels)
    out["simulator.full_state_passes"] = sum(v[0] for v in kernels) / ops
    out["simulator.bytes_moved_computed"] = moved / ops
    out["simulator.kernel_gbps"] = moved / kernel_s / 1e9 if kernel_s else 0.0
    for name in STEP_KEYS:
        out[f"protocol.step.{name}.wall_s"] = steps[name][0] / ops
        out[f"protocol.step.{name}.passes"] = steps[name][1] / ops
    layer_s = sum(v[1] for k, v in stats.items() if k != "op")
    named_s = sum(v[1] for k, v in stats.items() if k != "op" and not k.endswith(".other"))
    out["trace.coverage"] = layer_s / wall
    out["trace.named_coverage"] = named_s / wall
    return out


def merge_summaries(records: list) -> tuple[dict, dict, float]:
    """Sum traced-CLI process summaries into one stats / steps / import time."""
    stats, steps = {}, {name: [0.0, 0] for name in STEP_KEYS}
    import_s = 0.0
    for rec in records:
        import_s += rec["import_s"]
        for key, vals in rec["stats"].items():
            acc = stats.setdefault(key, [0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, (wall, passes) in rec["steps"].items():
            steps[name][0] += wall
            steps[name][1] += passes
    stats.pop("op", None)
    return stats, steps, import_s


def main() -> int:
    root, name, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    seconds, max_ops, traced = float(sys.argv[5]), int(sys.argv[6]), sys.argv[7] == "1"
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, root, traced=traced)
    inputs = workload.prepare()
    ready = now()
    result = {"ready": ready, "op_s": [], "attempted": 0, "failed": 0, "errors": []}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if traced and name != "cli-cold":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def run_one(inputs) -> float:
        result["attempted"] += 1
        t0 = time.perf_counter()
        try:
            out = tracer.run_op(workload.op, inputs) if tracer else workload.op(inputs)
        except Exception as exc:  # a failed op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        else:
            err = None
        elapsed = time.perf_counter() - t0
        if err is None:
            err = workload.check(inputs, out)
        if err is not None:
            result["failed"] += 1
            if len(result["errors"]) < 3:
                result["errors"].append(err)
        return elapsed

    result["cold_op_s"] = run_one(inputs)
    output_bytes = workload.output_bytes() if traced and name == "cli-cold" else 0
    if mode == "run":
        end = time.perf_counter() + seconds
        while time.perf_counter() < end and not (max_ops and len(result["op_s"]) >= max_ops):
            result["op_s"].append(run_one(workload.prepare()))
            if traced and name == "cli-cold":
                output_bytes += workload.output_bytes()

    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["state_bytes"] = workload.state_bytes
    ops = result["attempted"]
    if tracer is not None:
        _ops, wall, stats = tracer.layer_metrics()
        result["layers"] = layer_values(ops, wall, stats, tracer.steps)
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        tracer.write_spans(os.path.join(root, ".bench_out", f"spans-{name}.jsonl"))
    elif traced:
        stats, steps, import_s = merge_summaries(workload.trace_records)
        wall = result["cold_op_s"] + sum(result["op_s"])
        result["layers"] = layer_values(ops, wall, stats, steps)
        result["layers"]["cli.import_s"] = import_s / ops
        result["layers"]["cli.output_bytes"] = output_bytes / ops
    if hasattr(workload, "close"):
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
