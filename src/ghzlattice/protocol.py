"""The recursive encode / decode / transfer routine run on a statevector.

The protocol is one fixed unitary: the applied ops depend on the geometry but
never on the encoded coefficients, so encoding is exactly linear in the input
state.  It is compiled once per (lattice, region, c, plan, gate mode) into a
flat list of steps, one per trace record, each holding its ops: single-site
gates, controlled increments and diagonal phase evolutions.  Encode replays
the steps forward.  Decode replays them in reverse order with every op
inverted (a gate by its conjugate transpose, an increment by a decrement, a
phase by its negated duration), and checks each step against the expected
state before it.  Transfer is an encode followed by a decode aimed at another
site.

Execution is level-synchronous: all base cubes encode first, then each merge
level runs its four steps (phase merge, target decode, single-site gate,
target re-encode) across every cube of that level at once.  Operations on
disjoint regions commute, so this is the same unitary as the depth-first
recursion, and it makes the intermediate state after every step a simple
product over same-level cubes that can be constructed analytically and
checked by fidelity.

Time accounting matches the schedule: the base record costs ``t_base`` and a
merge level's records cost ``(t2, t_child, 0, t_child)``, which telescopes to
the plan root's ``t_total = 3*t1 + t2`` recursion exactly.

Within a cube, the control child is the one containing the cube's information
site (the global source site if the cube contains it, the cube's anchor
otherwise); each target child concentrates onto its anchor site.
"""
from __future__ import annotations

import cmath
import csv
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    OutOfBoundsError,
    PlanMismatchError,
    PreconditionError,
    StatePreconditionError,
)
from .geometry import LatticeSpec, Region, euclidean_diameter_bound, partition, site_mask
from .scheduler import SchedulePlan, merge_duration
from .simulator import (
    Gate,
    PhaseCoupling,
    StateVector,
    apply_controlled_increment,
    apply_gate,
    basis_vector,
    dft_matrix,
    evolve_phase,
    fidelity,
    hadamard_matrix,
    init_product,
)

GATE_DFT = "dft"
GATE_HADAMARD = "hadamard"


@dataclass(frozen=True)
class EncodeRequest:
    """What to encode: which region, from which site, with which amplitudes."""

    lattice: LatticeSpec
    region: Region
    c: int  # flat site index holding the unknown state
    coefficients: np.ndarray
    plan: SchedulePlan

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128).reshape(-1)
        if coeffs.size != self.lattice.levels:
            raise PreconditionError(
                f"need {self.lattice.levels} coefficients, got {coeffs.size}"
            )
        if not abs(np.sum(np.abs(coeffs) ** 2) - 1.0) <= 1e-9:
            raise PreconditionError("coefficients are not normalized")
        object.__setattr__(self, "coefficients", coeffs)
        if not self.region.contains(self.lattice.coord(self.c)):
            raise OutOfBoundsError(f"site {self.c} lies outside the region")
        p = self.plan
        if p.mode != "integer-exact":
            raise PlanMismatchError("simulation needs an integer-exact plan")
        if p.root.r != self.region.side:
            raise PlanMismatchError(
                f"plan side {p.root.r} != region side {self.region.side}"
            )
        if p.params.d != self.lattice.dimension:
            raise PlanMismatchError("plan and lattice dimensions differ")
        if p.q != self.lattice.levels:
            raise PlanMismatchError(
                f"plan q={p.q} != lattice levels {self.lattice.levels}"
            )


@dataclass(frozen=True)
class StepRecord:
    level: int
    step: int
    inverse: bool
    elapsed: float
    fidelity: float | None
    regions: tuple[Region, ...]

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "step": self.step,
            "inverse": self.inverse,
            "elapsed": self.elapsed,
            "fidelity": self.fidelity,
            "regions": [{"anchor": list(r.anchor), "side": r.side} for r in self.regions],
        }


@dataclass
class ProtocolTrace:
    """Per-step record of one protocol run."""

    records: list = field(default_factory=list)
    total_time: float = 0.0
    final_fidelity: float | None = None
    forced: bool = False

    def elapsed_sum(self) -> float:
        return sum(rec.elapsed for rec in self.records)

    def to_dict(self) -> dict:
        return {
            "total_time": self.total_time,
            "final_fidelity": self.final_fidelity,
            "forced": self.forced,
            "records": [rec.to_dict() for rec in self.records],
        }

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(["step", "level", "inverse", "time", "fidelity"])
        for rec in self.records:
            writer.writerow(
                [
                    rec.step,
                    rec.level,
                    int(rec.inverse),
                    repr(rec.elapsed),
                    "" if rec.fidelity is None else repr(rec.fidelity),
                ]
            )


@dataclass(frozen=True)
class _Merge:
    """Merge structure of one cube above the base level."""

    control: Region
    targets: tuple[Region, ...]
    coupling: PhaseCoupling
    duration: float
    gate_sites: tuple[int, ...]  # designated site of each target


# Ops of the compiled stream.  Each kind has its own inverse: a gate op carries
# G and G^dagger and swaps them, an increment flips its direction, and a phase
# negates its duration.
_GATE = "gate"  # (_GATE, Gate, its inverse Gate)
_INC = "increment"  # (_INC, control site, target site, inverse flag)
_PHASE = "phase"  # (_PHASE, coupling, duration)


def _inverse(op: tuple) -> tuple:
    if op[0] == _GATE:
        return (_GATE, op[2], op[1])
    if op[0] == _INC:
        return (_INC, op[1], op[2], not op[3])
    return (_PHASE, op[1], -op[2])


def _inverted(ops: list) -> list:
    """The inverse unitary of an op list: reversed, each op inverted."""
    return [_inverse(op) for op in reversed(ops)]


class _Machine:
    """The protocol for one (lattice, region, c, plan, gate mode), compiled once.

    ``steps`` is the encode as a flat list with one entry per trace record,
    ``(level, step, elapsed, regions, ops)``; ``inverse_steps`` is the decode,
    the same list reversed with every op list inverted.  Both are independent
    of the encoded coefficients, so machines are cached on the plan and reused
    across runs (which also reuses the couplings' phase-vector caches).
    """

    def __init__(self, lattice: LatticeSpec, region: Region, c: int,
                 plan: SchedulePlan, gate_mode: str = GATE_DFT):
        self.lattice = lattice
        self.c = c
        self.q = lattice.levels
        self.c_coord = lattice.coord(c)
        if gate_mode not in (GATE_DFT, GATE_HADAMARD):
            raise PreconditionError(f"unknown gate mode {gate_mode!r}")
        if gate_mode == GATE_HADAMARD and self.q != 2:
            raise PreconditionError("the Hadamard gate path needs q = 2")
        self.gate = hadamard_matrix() if gate_mode == GATE_HADAMARD else dft_matrix(self.q)

        # nodes[level]: level 0 is the base case, level L the plan root
        self.nodes = list(reversed(plan.nodes()))
        self.n_levels = len(self.nodes) - 1
        # cubes[level]: every cube of that side inside the region; merges[cube]:
        # the merge structure of each cube above the base level
        self.cubes: list[list[Region]] = [[] for _ in range(self.n_levels + 1)]
        self.merges: dict[Region, _Merge] = {}
        self.cubes[self.n_levels] = [region]
        alpha = plan.params.alpha
        for level in range(self.n_levels, 0, -1):
            node = self.nodes[level]
            duration = merge_duration(alpha, plan.params.d, node.m, node.r1, q=plan.q)
            for cube in self.cubes[level]:
                kids = partition(cube, node.m, c=self.info_site(cube))
                control, targets = kids[0], tuple(kids[1:])
                coupling = PhaseCoupling(
                    control_mask=site_mask(control, lattice),
                    target_masks=tuple(site_mask(t, lattice) for t in targets),
                    strength=1.0 / euclidean_diameter_bound(cube) ** alpha,
                )
                coupling.check_power_law(lattice, alpha)
                gate_sites = tuple(lattice.flat_index(t.anchor) for t in targets)
                self.merges[cube] = _Merge(control, targets, coupling, duration,
                                           gate_sites)
                self.cubes[level - 1].extend([control, *targets])
        self.steps = self._compile()

    def info_site(self, cube: Region) -> tuple[int, ...]:
        return self.c_coord if cube.contains(self.c_coord) else cube.anchor

    def _compile(self) -> list[tuple]:
        gate_ops: dict[int, tuple] = {}
        unitaries: dict[Region, list] = {}

        def gate(site: int) -> tuple:
            op = gate_ops.get(site)
            if op is None:
                op = gate_ops[site] = (_GATE, Gate(self.gate, site),
                                       Gate(self.gate.conj().T, site))
            return op

        def merge_steps(cubes: list[Region], level: int) -> list[list]:
            """Steps 2-5 of a merge: phase, concentrate, rotate, redistribute."""
            merges = [self.merges[cube] for cube in cubes]
            targets = [t for mg in merges for t in mg.targets]
            return [
                [(_PHASE, mg.coupling, mg.duration) for mg in merges],
                [op for t in targets for op in _inverted(unitary(t, level - 1))],
                [gate(s) for mg in merges for s in mg.gate_sites],
                [op for t in targets for op in unitary(t, level - 1)],
            ]

        def unitary(cube: Region, level: int) -> list:
            """The bare encode U of one cube.

            U turns (sum_l psi_l |l>) at the cube's information site, rest |0>,
            into the GHZ-like sum over the cube.  Its step 1 prepares the target
            children symmetrically (gate on the child origin, then the child's
            own U), while the control child just runs its U on the incoming state.
            """
            ops = unitaries.get(cube)
            if ops is None:
                if level == 0:  # fan the origin's level out onto the cube
                    origin = self.lattice.flat_index(self.info_site(cube))
                    ops = [(_INC, origin, s, False)
                           for s in site_mask(cube, self.lattice).tolist() if s != origin]
                else:
                    mg = self.merges[cube]
                    ops = list(unitary(mg.control, level - 1))
                    for t, s in zip(mg.targets, mg.gate_sites):
                        ops += [gate(s), *unitary(t, level - 1)]
                    for step_ops in merge_steps([cube], level):
                        ops += step_ops
                unitaries[cube] = ops
            return ops

        # base level: every base cube encodes at once; symmetric cubes first
        # rotate their origin into the uniform superposition, the source cube
        # does not
        base = []
        for cube in self.cubes[0]:
            if not cube.contains(self.c_coord):
                base.append(gate(self.lattice.flat_index(cube.anchor)))
            base += unitary(cube, 0)
        steps = [(0, 1, self.nodes[0].t_total, tuple(self.cubes[0]), base)]
        for level in range(1, self.n_levels + 1):
            cubes = self.cubes[level]
            targets = tuple(t for cube in cubes for t in self.merges[cube].targets)
            t_child = self.nodes[level - 1].t_total
            ops2, ops3, ops4, ops5 = merge_steps(cubes, level)
            steps += [
                (level, 2, self.nodes[level].t2, tuple(cubes), ops2),
                (level, 3, t_child, targets, ops3),
                (level, 4, 0.0, targets, ops4),
                (level, 5, t_child, targets, ops5),
            ]
        return steps

    @cached_property
    def inverse_steps(self) -> list[tuple]:
        return [(level, step, elapsed, regions, _inverted(ops))
                for level, step, elapsed, regions, ops in reversed(self.steps)]


def _get_machine(req: EncodeRequest, gate_mode: str) -> _Machine:
    key = (req.lattice, req.region, req.c, gate_mode)
    cache = req.plan.__dict__.setdefault("_machine_cache", {})
    machine = cache.get(key)
    if machine is None:
        machine = _Machine(req.lattice, req.region, req.c, req.plan, gate_mode=gate_mode)
        if len(cache) < 32:
            cache[key] = machine
    return machine


class ExpectedStates:
    """Analytic intermediate states of the sweep, built term by term.

    The state after any step is a product over that level's cubes, each cube a
    small sum of all-same-level blocks (or the target-site phase ladder right
    after the merge).  Terms are assembled directly into flat amplitude
    indices, with everything outside the region in |0>.
    """

    def __init__(self, machine: _Machine, coefficients: np.ndarray):
        self.m = machine
        self.coefficients = np.asarray(coefficients, dtype=np.complex128)
        q, lattice = machine.q, machine.lattice
        self.powers = [q**s for s in range(lattice.n_sites)]
        self.omega = [cmath.exp(-2j * math.pi * k / q) for k in range(q)]

    def _cube_coeffs(self, cube: Region) -> np.ndarray:
        if cube.contains(self.m.c_coord):
            return self.coefficients
        q = self.m.q
        return np.full(q, 1.0 / math.sqrt(q), dtype=np.complex128)

    def _block_index(self, region: Region, level_value: int) -> int:
        if level_value == 0:
            return 0
        mask = site_mask(region, self.m.lattice)
        return int(sum(self.powers[int(s)] for s in mask)) * level_value

    def _cube_terms(self, cube: Region, level: int, step: int) -> list[tuple[int, complex]]:
        """(flat-index contribution, coefficient) pairs for one cube."""
        q = self.m.q
        coeffs = self._cube_coeffs(cube)
        if step == 5 or level == 0:
            return [
                (self._block_index(cube, lv), complex(coeffs[lv]))
                for lv in range(q)
                if coeffs[lv] != 0
            ]
        merge = self.m.merges[cube]
        ctrl_idx = [self._block_index(merge.control, lv) for lv in range(q)]
        terms = []
        norm = (1.0 / math.sqrt(q)) ** len(merge.targets)
        if step == 2 or step == 3:
            if step == 2:
                tgt_idx = [[self._block_index(t, x) for x in range(q)]
                           for t in merge.targets]
            else:  # each target concentrated onto its gate site
                tgt_idx = [[self.powers[s] * x for x in range(q)] for s in merge.gate_sites]
            for lv in range(q):
                if coeffs[lv] == 0:
                    continue
                for combo in itertools.product(range(q), repeat=len(merge.targets)):
                    idx = ctrl_idx[lv] + sum(tgt_idx[j][x] for j, x in enumerate(combo))
                    w = complex(coeffs[lv]) * norm
                    for x in combo:
                        w *= self.omega[(lv * x) % q]
                    terms.append((idx, w))
            return terms
        if step == 4:
            for lv in range(q):
                if coeffs[lv] == 0:
                    continue
                idx = ctrl_idx[lv] + sum(self.powers[s] * lv for s in merge.gate_sites)
                terms.append((idx, complex(coeffs[lv])))
            return terms
        raise PreconditionError(f"unknown step id {step}")

    def initial(self) -> StateVector:
        """Coefficients at the source site, |0> everywhere else."""
        lattice, q = self.m.lattice, self.m.q
        states = [basis_vector(q, 0) for _ in range(lattice.n_sites)]
        states[self.m.c] = self.coefficients
        return init_product(lattice, states)

    def after(self, level: int, step: int) -> StateVector:
        """Expected state once every cube of ``level`` finished ``step``."""
        if not 0 <= level <= self.m.n_levels:
            raise PreconditionError(f"level {level} outside 0..{self.m.n_levels}")
        if level == 0 and step != 1:
            raise PreconditionError("the base level only has step 1")
        if level > 0 and step not in (2, 3, 4, 5):
            raise PreconditionError(f"unknown step id {step}")
        size = self.m.q ** self.m.lattice.n_sites
        amps = np.zeros(size, dtype=np.complex128)
        term_lists = [
            self._cube_terms(cube, level, step) for cube in self.m.cubes[level]
        ]
        for combo in itertools.product(*term_lists):
            idx = sum(t[0] for t in combo)
            w = 1.0 + 0.0j
            for t in combo:
                w *= t[1]
            amps[idx] += w
        return StateVector(self.m.q, self.m.lattice.n_sites, amps)


def _check_stray_mass(state: StateVector, sites: tuple, kind: str, what: str) -> None:
    """Refuse a state with weight on disallowed basis states.

    kind "nonzero": any listed site away from |0>.
    kind "unequal": listed sites not all at the same level (outside GHZ span).
    The allowed mass is read off slices of the (q,)*n view.
    """
    q, n, psi = state.q, state.n, state.tensor()
    kept = 0.0
    for level in (0,) if kind == "nonzero" else range(q):
        sel: list = [slice(None)] * n
        for s in sites:
            sel[n - 1 - s] = level
        block = psi[tuple(sel)]
        kept += float(np.vdot(block, block).real)
    mass = float(np.vdot(state.amps, state.amps).real) - kept
    if not mass <= 1e-10:
        raise StatePreconditionError(f"{what}: stray mass {mass:.3e}")


def _run(state: StateVector, req: EncodeRequest, verify: bool, gate_mode: str,
         on_step, inverse: bool) -> tuple[StateVector, ProtocolTrace]:
    """Replay the compiled steps: forward to encode, inverted to decode.

    A forward step is checked against the expected state after it; an inverted
    step against the state before it, which is the expected state after the
    previous forward step, or the initial state for the first.
    """
    machine = _get_machine(req, gate_mode)
    expected = ExpectedStates(machine, req.coefficients) if verify else None
    trace = ProtocolTrace(total_time=req.plan.t_total, forced=req.plan.forced)
    steps = machine.inverse_steps if inverse else machine.steps
    for i, (level, step, elapsed, regions, ops) in enumerate(steps):
        # the kernels are looked up in this module on every call, never stored
        # in the ops, so rebinding them here reaches the whole stream
        for op in ops:
            if op[0] == _GATE:
                state = apply_gate(state, op[1])
            elif op[0] == _INC:
                state = apply_controlled_increment(state, op[1], op[2], op[3])
            else:
                state = evolve_phase(state, op[1], op[2])
        fid = None
        if verify:
            if not inverse:
                target = expected.after(level, step)
            elif i + 1 < len(steps):
                target = expected.after(*steps[i + 1][:2])
            else:
                target = expected.initial()
            fid = trace.final_fidelity = fidelity(state, target)
            del target  # free it before the next step allocates
        rec = StepRecord(level, step, inverse, elapsed, fid, regions)
        trace.records.append(rec)
        if on_step is not None:
            on_step(rec, state)
    return state, trace


def encode(
    state: StateVector,
    req: EncodeRequest,
    verify: bool = True,
    gate_mode: str = GATE_DFT,
    on_step=None,
) -> tuple[StateVector, ProtocolTrace]:
    """Encode the source site's state into a GHZ-like state over the region.

    Returns the new statevector and a trace whose step times sum to the plan's
    total.  With ``verify`` each step is checked against its analytic expected
    state; ``on_step(record, state)`` is called after each step if given.
    """
    others = tuple(s for s in site_mask(req.region, req.lattice).tolist() if s != req.c)
    _check_stray_mass(state, others, "nonzero", "region sites other than c are not in |0>")
    return _run(state, req, verify, gate_mode, on_step, inverse=False)


def decode(
    state: StateVector,
    req: EncodeRequest,
    verify: bool = True,
    gate_mode: str = GATE_DFT,
    on_step=None,
) -> tuple[StateVector, ProtocolTrace]:
    """Concentrate a GHZ-like region onto the request's site c (encode inverse).

    Works by linearity when the region is entangled with the outside, in which
    case the recorded fidelities against unentangled expected states are not
    meaningful and ``verify`` should be switched off.
    """
    sites = tuple(site_mask(req.region, req.lattice).tolist())
    _check_stray_mass(state, sites, "unequal", "region is not in the GHZ-like span")
    return _run(state, req, verify, gate_mode, on_step, inverse=True)


def verify_step(state: StateVector, level: int, step_id: int, context) -> float:
    """Fidelity of the live state against the analytic state after one step.

    ``context`` is an EncodeRequest (or a prebuilt ExpectedStates).
    """
    expected = context if isinstance(context, ExpectedStates) else expected_states(context)
    return fidelity(state, expected.after(level, step_id))


def expected_states(req: EncodeRequest, gate_mode: str = GATE_DFT) -> ExpectedStates:
    """Expected-state builder for the request (reusable across verify_step calls)."""
    return ExpectedStates(_get_machine(req, gate_mode), req.coefficients)


def _extract_site_coefficients(state: StateVector, site: int) -> np.ndarray:
    """Read off the source-site amplitudes when the rest of the region is |0>."""
    coeffs = np.array(
        [state.amps[state.q**site * lv] for lv in range(state.q)], dtype=np.complex128
    )
    norm = math.sqrt(float(np.sum(np.abs(coeffs) ** 2)))
    if not abs(norm - 1.0) <= 1e-8:
        raise StatePreconditionError(
            "cannot read source coefficients: region is not a product state "
            f"with |0> elsewhere (norm {norm:.6f})"
        )
    return coeffs / norm


def state_transfer(
    state: StateVector,
    c: int,
    c_prime: int,
    region: Region,
    plan: SchedulePlan,
    lattice: LatticeSpec | None = None,
    verify: bool = True,
    gate_mode: str = GATE_DFT,
) -> tuple[StateVector, ProtocolTrace]:
    """Move the (possibly unknown) state of site c to site c_prime in time 2t.

    Encodes from c into the GHZ-like state over the region, then runs the
    inverse encode targeted at c_prime.  The coefficients are read from the
    statevector only to build verification targets; the applied unitaries
    never depend on them.
    """
    if lattice is None:
        if plan.lattice is None:
            raise PlanMismatchError("state_transfer needs a lattice")
        lattice = plan.lattice
    for s in (c, c_prime):
        if not region.contains(lattice.coord(s)):
            raise OutOfBoundsError(f"site {s} lies outside the region")
    if c == c_prime:
        return state, ProtocolTrace(total_time=0.0, forced=plan.forced)
    coeffs = _extract_site_coefficients(state, c)
    req_in = EncodeRequest(lattice, region, c, coeffs, plan)
    state, trace_enc = encode(state, req_in, verify=verify, gate_mode=gate_mode)
    req_out = EncodeRequest(lattice, region, c_prime, coeffs, plan)
    state, trace_dec = decode(state, req_out, verify=verify, gate_mode=gate_mode)
    return state, ProtocolTrace(
        records=trace_enc.records + trace_dec.records,
        total_time=2 * plan.t_total,
        final_fidelity=trace_dec.final_fidelity,
        forced=plan.forced,
    )
