"""Span tracer that wraps ghzlattice's public functions from outside the package.

Every public function and every public method (plus ``__init__``) of every
public class in the working modules is replaced by a wrapper that records a
span ``[key, parent, start, end, bytes]``.  The wrapper is installed where the
function is defined *and* everywhere it was imported by name (``protocol``
binds ``apply_gate``, ``evolve_phase``, ``fidelity``, ... at import), so
protocol-driven calls are seen too.  Methods are patched on their class.

Spans stay in memory; :meth:`Tracer.layer_metrics` derives per-layer self
times (span duration minus the time covered by its direct children) and
:meth:`Tracer.write_spans` writes them out at the end of a run.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
import weakref

MODULES = ("geometry", "scheduler", "simulator", "protocol", "analysis", "cli")

STEP_NAMES = {1: "base", 2: "merge", 3: "concentrate", 4: "rotate", 5: "redistribute"}

# span name -> layer metric key; names not listed fall into "<module>.other"
NAMED = {
    "simulator.apply_controlled_increment": "simulator.controlled_increment",
    "simulator.StateVector.__init__": "simulator.statevector_init",
    "simulator.Gate.__init__": "simulator.gate_init",
    "simulator.dump_amplitudes": "simulator.dump_amplitudes",
    "simulator.fidelity": "simulator.fidelity",
    "protocol.encode": "protocol.encode",
    "protocol.decode": "protocol.decode",
    "protocol.state_transfer": "protocol.state_transfer",
    "protocol.ExpectedStates.after": "protocol.expected_after",
    "geometry.partition": "geometry.partition",
    "geometry.site_mask": "geometry.site_mask",
    "scheduler.plan": "scheduler.plan",
    "scheduler.SchedulePlan.certify": "scheduler.certify",
    "scheduler.table1_curves": "scheduler.table1_curves",
    "scheduler.gate_count_upper": "scheduler.gate_count_upper",
    "analysis.scaling_sweep": "analysis.scaling_sweep",
    "analysis.gate_bound_table": "analysis.gate_bound_table",
    "cli.run": "cli.run",
}

KERNELS = ("simulator.apply_gate", "simulator.apply_controlled_increment",
           "simulator.evolve_phase")

OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.passes = 0
        self.steps: dict[str, list] = {name: [0.0, 0] for name in STEP_NAMES.values()}
        self._step_mark = (0.0, 0)
        self._phase_seen = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _open(self, key: str, nbytes: int = 0) -> list:
        rec = [key, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, nbytes]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def run_op(self, fn, *args):
        """Call fn(*args) inside a root "op" span; per-layer metrics count only
        spans under op spans."""
        rec = self._open(OP)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def _on_step(self, record, _state) -> None:
        now = time.perf_counter()
        acc = self.steps[STEP_NAMES[record.step]]
        acc[0] += now - self._step_mark[0]
        acc[1] += self.passes - self._step_mark[1]
        self._step_mark = (now, self.passes)

    # -- wrapping ----------------------------------------------------------

    def _key(self, name: str, args) -> tuple[str, int]:
        """Metric key and computed bytes moved for one call."""
        if name in KERNELS:
            state = args[0]
            self.passes += 1
            nbytes = 2 * state.amps.nbytes  # one read and one write of the state
            if name == "simulator.apply_gate":
                lo = state.q ** args[1].site
                layout = "lo1" if lo == 1 else "kron" if lo <= 64 else "strided"
                return f"simulator.apply_gate.{layout}", nbytes
            if name == "simulator.evolve_phase":
                seen = self._phase_seen.setdefault(args[1], set())
                token = (state.q, state.n, args[2])
                temp = "warm" if token in seen else "cold"
                seen.add(token)
                return f"simulator.evolve_phase.{temp}", nbytes
            return "simulator.controlled_increment", nbytes
        return NAMED.get(name, name.split(".", 1)[0] + ".other"), 0

    def _wrap(self, name: str, fn):
        tracer = self
        steps_hook = name in ("protocol.encode", "protocol.decode")

        def wrapper(*args, **kwargs):
            key, nbytes = tracer._key(name, args)
            rec = tracer._open(key, nbytes)
            try:
                if steps_hook and len(args) < 6 and kwargs.get("on_step") is None:
                    # the public on_step hook gives the per-step spans
                    kwargs["on_step"] = tracer._on_step
                    tracer._step_mark = (rec[2], tracer.passes)
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self) -> None:
        """Patch every loaded ghzlattice working module."""
        replaced = {}
        for short in MODULES:
            mod = sys.modules.get(f"ghzlattice.{short}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                            mname == "__init__" or not mname.startswith("_")
                        ):
                            setattr(obj, mname,
                                    self._wrap(f"{short}.{attr}.{mname}", meth))
        # rebind every name that still points at an original function
        for modname, mod in list(sys.modules.items()):
            if modname != "ghzlattice" and not modname.startswith("ghzlattice."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> tuple[int, float, dict]:
        """(op count, op wall seconds, {key: [calls, self_s, bytes]}) over op spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_op = [False] * len(spans)
        for i, (key, parent, start, end, _b) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_op[i] = in_op[parent]
            else:
                in_op[i] = key == OP
        ops, op_wall, stats = 0, 0.0, {}
        for i, (key, _parent, start, end, nbytes) in enumerate(spans):
            if not in_op[i]:
                continue
            if key == OP:
                ops += 1
                op_wall += end - start
            acc = stats.setdefault(key, [0, 0.0, 0])
            acc[0] += 1
            acc[1] += (end - start) - child_time[i]
            acc[2] += nbytes
        return ops, op_wall, stats

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for key, parent, start, end, nbytes in self.spans:
                fh.write(json.dumps([key, parent, start, end, nbytes]) + "\n")
