"""The recursive encode / decode / transfer routine run on a statevector.

The protocol is one fixed unitary: the applied ops depend on the geometry but
never on the encoded coefficients, so encoding is exactly linear in the input
state.  It is compiled once per (lattice, region, c, plan) into a flat list
of steps, one per trace record, each holding its ops: single-site gates,
controlled increments and diagonal phase evolutions.  Each step's ops are
then split into consecutive runs whose sites fit one window, each fused into
one window block.  A run of increments and phases only is monomial: it fuses
up to 256 amplitudes and is held as its gather (a permutation and phases),
built by running the ops on a k-site scratch state.  A run holding a dense
single-site gate fuses up to 64 amplitudes into a dense unitary, built by
running the ops on the identity.  A window starts at site 0 when its low
stride q**site is below 8.  The split is the one of least modelled cost,
found exactly by dynamic programming (:func:`_fuse`): a block costs one pass
over the state, and a dense block also its window's amplitudes over 32, the
multiplies it spends per amplitude.  So the stream that runs holds three op
kinds: window blocks, and the increments and phases too wide for a window.
Fusion never crosses a step, so every step ends on the same state as the
unfused ops would give, and a run reads the state's norm once per step.

Encode runs the steps forward.  Decode walks the same list backwards,
inverting each step's ops as it goes (a block by its conjugate transpose, an
increment by a decrement, a phase by its negated duration), and checks each
step against the expected state before it.  Transfer is an encode followed by
a decode aimed at another site, whose records extend the encode's trace.

Execution is level-synchronous: all base cubes encode first, then each merge
level runs its four steps (phase merge, target decode, single-site gate,
target re-encode) across every cube of that level at once.  Operations on
disjoint regions commute, so this is the same unitary as the depth-first
recursion, and it makes the intermediate state after every step a simple
product over same-level cubes that can be constructed analytically and
checked by fidelity.

Verification reads sparse term lists, never a dense expected state.  A
step's expected state has few nonzero terms (at most 1024 of 2**20 amplitudes
on a 20-site chain).  On its first verify-on run a machine compiles, for the
initial state and for the state after each step, the terms' flat amplitude
indices, the source cube's level ``lv`` behind each term, and each term's
weight with the coefficients factored out.  The protocol is linear in the
coefficients and exactly one cube per level holds the source site, so a run's
expected amplitudes are ``coefficients[label] * weight``.  A step's fidelity
is one gather of the live state at those indices, over the live norm.

Time accounting matches the schedule: the base record costs ``t_base`` and a
merge level's records cost ``(t2, t_child, 0, t_child)``, which telescopes to
the plan root's ``t_total = 3*t1 + t2`` recursion exactly.  A run reads these
off its own plan (:func:`_step_times`), never off the machine it shares.

Within a cube, the control child is the one containing the cube's information
site (the global source site if the cube contains it, the cube's anchor
otherwise); each target child concentrates onto its anchor site.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import (
    OutOfBoundsError,
    PlanMismatchError,
    PreconditionError,
    StatePreconditionError,
)
from .geometry import LatticeSpec, Region, euclidean_diameter_bound, partition, site_mask
from .scheduler import INTEGER_EXACT, SchedulePlan
from .simulator import (
    Gate,
    PhaseCoupling,
    StateVector,
    _roots,
    _vdot,
    apply_controlled_increment,
    apply_gate,
    basis_vector,
    check_capacity,
    dft_matrix,
    evolve_phase,
)

GATE_DFT = "dft"
GATE_HADAMARD = "hadamard"


@dataclass(frozen=True)
class EncodeRequest:
    """What to encode: which region, from which site, with which amplitudes.

    Coefficients whose norm**2 is within 1e-9 of 1 are accepted and stored
    divided by their norm.
    """

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
        norm2 = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(norm2 - 1.0) <= 1e-9:
            raise PreconditionError("coefficients are not normalized")
        object.__setattr__(self, "coefficients", coeffs / math.sqrt(norm2))
        if not self.region.contains(self.lattice.coord(self.c)):
            raise OutOfBoundsError(f"site {self.c} lies outside the region")
        p = self.plan
        if p.mode != INTEGER_EXACT:
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
        return asdict(self)


@dataclass
class ProtocolTrace:
    """Per-step record of one protocol run."""

    total_time: float = 0.0
    final_fidelity: float | None = None
    records: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class _Merge:
    """Merge structure of one cube above the base level."""

    control: Region
    targets: tuple[Region, ...]
    coupling: PhaseCoupling
    duration: float
    gate_sites: tuple[int, ...]  # designated site of each target


# Ops of the compiled stream.  Each kind has its own inverse: a block carries
# U and U^dagger and swaps them, an increment flips its direction, and a phase
# negates its duration.  _compile emits the single-site gates as q x q blocks,
# and _fuse merges each step's ops into window blocks.
_BLOCK = "block"  # (_BLOCK, window Gate, its inverse Gate)
_INC = "increment"  # (_INC, control site, target site, inverse flag)
_PHASE = "phase"  # (_PHASE, coupling, duration)

#: Largest window a block holding a dense gate may span, in amplitudes.
_DENSE_AMPS = 64
#: A dense block's window amplitudes per modelled pass of its multiplies.
_DENSE_COST = 32
#: Largest window a monomial block (increments and phases only) may span.
_GATHER_AMPS = 256
#: A window whose low stride q**site is below this starts at site 0.
_WIDEN_BELOW = 8


def _widened_site(q: int, site: int) -> int:
    """First site of the block window for ops starting at ``site``: site 0
    when the low stride q**site is below _WIDEN_BELOW, where a strided window
    is slow, else ``site`` itself."""
    return 0 if q**site < _WIDEN_BELOW else site


def _inverse(op: tuple) -> tuple:
    if op[0] == _BLOCK:
        return (_BLOCK, op[2], op[1])
    if op[0] == _INC:
        return (_INC, op[1], op[2], not op[3])
    return (_PHASE, op[1], -op[2])


def _inverted(ops: list) -> list:
    """The inverse unitary of an op list: reversed, each op inverted."""
    return [_inverse(op) for op in reversed(ops)]


def _apply(state: StateVector, op: tuple, out: np.ndarray | None = None,
           check: bool = True, kernels: tuple | None = None) -> StateVector:
    # the kernels are looked up in this module on every call, never stored in
    # the ops, so rebinding them here reaches the whole stream; every argument
    # goes positionally, as a rebound counter takes them, down to the kernels'
    # private trailing flag that, False, leaves the output's norm unread
    gate, increment, phase = kernels or (apply_gate, apply_controlled_increment,
                                         evolve_phase)
    if op[0] == _BLOCK:
        return gate(state, op[1], out, check)
    if op[0] == _INC:
        return increment(state, op[1], op[2], op[3], out, check)
    return phase(state, op[1], op[2], out, check)


# The same kernels, bound once for building blocks at compile.  There they act
# on a scratch state, never on the simulated state: at most 64**2 amplitudes
# for a dense block (the identity on 2k sites), at most 256 for a monomial
# block (k sites).  So a rebinding of the stream's kernel names (a full-state
# pass counter) does not reach them.
_SCRATCH_KERNELS = (apply_gate, apply_controlled_increment, evolve_phase)


def _op_sites(op: tuple) -> list[int]:
    if op[0] == _BLOCK:  # _compile's blocks are single-site gates
        return [op[1].site]
    if op[0] == _INC:
        return [op[1], op[2]]
    return [s for mask in (op[1].control_mask, *op[1].target_masks) for s in mask.tolist()]


def _shifted(op: tuple, lo: int) -> tuple:
    """The op moved down by ``lo`` sites, onto a state whose site 0 is site lo."""
    if op[0] == _BLOCK:
        return (_BLOCK, Gate(op[1].matrix, op[1].site - lo))
    if op[0] == _INC:
        return (_INC, op[1] - lo, op[2] - lo, op[3])
    c = op[1]
    coupling = PhaseCoupling(c.control_mask - lo, tuple(t - lo for t in c.target_masks),
                             c.strength)
    return (_PHASE, coupling, op[2])


def _scratch(q: int, n: int, amps: np.ndarray, ops: list) -> np.ndarray:
    state = StateVector(q, n, amps)
    for op in ops:
        state = _apply(state, op, kernels=_SCRATCH_KERNELS)
    return state.amps


def _unitary(q: int, k: int, ops: list) -> np.ndarray:
    """The q**k x q**k matrix of ops on sites 0..k-1: the kernels run on the
    identity of a 2k-site state (window sites low, k copies above), scaled to
    norm 1; the result reshaped is U transposed."""
    dim = q**k
    amps = _scratch(q, 2 * k, np.eye(dim).reshape(-1) / math.sqrt(dim), ops)
    return np.ascontiguousarray(amps.reshape(dim, dim).T) * math.sqrt(dim)


def _gather(q: int, k: int, ops: list) -> tuple:
    """``(perm, phases)`` of a monomial run of ops on sites 0..k-1, bit for
    bit what ``_monomial`` reads off ``_unitary(q, k, ops)``.

    The increments alone carry an index-coded k-site state, copying each
    amplitude exactly, so row i's column is the index whose code lands at i.
    All the ops carry the uniform state, whose amplitude at row i meets the
    same multiplications as the nonzero of the identity's matching column.
    """
    dim = q**k
    code = np.arange(1.0, dim + 1)
    code /= np.linalg.norm(code)
    moved = _scratch(q, k, code, [op for op in ops if op[0] == _INC])
    perm = np.searchsorted(code, moved.real)
    phases = _scratch(q, k, np.full(dim, 1 / math.sqrt(dim)), ops) * math.sqrt(dim)
    return perm, None if np.all(phases == 1) else phases


def _block(q: int, ops: list, lo: int, hi: int) -> tuple:
    """The ops on sites lo..hi as one window block from _widened_site(q, lo).

    A run holding a dense gate is built as its matrix by :func:`_unitary`;
    its inverse is the conjugate transpose, or for a real matrix the
    transpose, a view that costs no memory.  A monomial run (increments and
    phases only) is built as its gather by :func:`_gather` and never holds a
    matrix; its inverse gathers through ``argsort(perm)``.
    """
    lo = _widened_site(q, lo)
    k = hi - lo + 1
    ops = [_shifted(op, lo) for op in ops]
    if any(op[0] == _BLOCK for op in ops):
        u = _unitary(q, k, ops)
        return (_BLOCK, Gate(u, lo), Gate(u.conj().T if np.any(u.imag) else u.T, lo))
    perm, phases = _gather(q, k, ops)
    inv = np.argsort(perm)
    return (_BLOCK, Gate(None, lo, _perm=perm, _phases=phases),
            Gate(None, lo, _perm=inv, _phases=None if phases is None else phases.conj()[inv]))


def _fuse(q: int, ops: list) -> list:
    """Split a step's ops into consecutive runs at the least modelled cost and
    fuse each run into one window block.

    A run fits one window if it spans at most _GATHER_AMPS amplitudes when
    monomial, at most _DENSE_AMPS when it holds a dense gate; the window
    counts the low sites :func:`_block` widens it over.  An op wider than its
    cap on its own stays a single op.  Each block or single op costs one pass
    over the state, and a dense block also its window's amplitudes over
    _DENSE_COST: it spends that many complex multiplies per amplitude to save
    passes.  ``best[i]``, the least cost of the ops from i on, is the least
    cost of a first run ``ops[i:j]`` plus ``best[j]``, so the split is exact;
    a tie goes to the widest first run, as a greedy first fit would take it.
    """
    def cost(lo: int, hi: int, dense: bool) -> float | None:
        amps = q ** (hi - _widened_site(q, lo) + 1)
        if amps > (_DENSE_AMPS if dense else _GATHER_AMPS):
            return None
        return 1 + amps / _DENSE_COST if dense else 1

    spans = []  # (lowest site, highest site, dense) of each op
    for op in ops:
        sites = _op_sites(op)
        spans.append((min(sites), max(sites), op[0] == _BLOCK))
    n = len(ops)
    best, end = [0.0] * (n + 1), [n] * (n + 1)  # end[i]: where best[i]'s first run ends
    for i in range(n - 1, -1, -1):
        lo, hi, dense = spans[i]
        # the op alone: a block, or a single op (one pass) if too wide for one
        best[i], end[i] = best[i + 1] + (cost(lo, hi, dense) or 1), i + 1
        for j in range(i + 1, n):  # the run ops[i..j]; it only widens as j grows
            lo, hi, dense = min(lo, spans[j][0]), max(hi, spans[j][1]), dense or spans[j][2]
            run = cost(lo, hi, dense)
            if run is None:
                break
            if run + best[j + 1] <= best[i]:
                best[i], end[i] = run + best[j + 1], j + 1
    fused, i = [], 0
    while i < n:
        j = end[i]
        lo, hi = min(s[0] for s in spans[i:j]), max(s[1] for s in spans[i:j])
        if cost(lo, hi, any(s[2] for s in spans[i:j])) is None:
            fused.append(ops[i])  # one op, too wide for a window
        else:
            fused.append(_block(q, ops[i:j], lo, hi))
        i = j
    return fused


class _Machine:
    """The protocol for one (lattice, region, c, plan), compiled once.

    ``steps`` is the encode as a flat list with one entry per trace record,
    ``(level, step, regions, ops)``, each step's ops fused into window blocks
    (``_compile`` returns them unfused), which a decode walks backwards;
    ``terms`` are the verification terms.  All are independent of the encoded
    coefficients, so machines are shared by equal requests through
    :func:`_machine`; they hold nothing that differs in bits between equal
    plans, such as step times (a merge's ``t2``, a positive float, does not).
    """

    def __init__(self, lattice: LatticeSpec, region: Region, c: int, plan: SchedulePlan):
        self.lattice = lattice
        self.c = c
        self.q = lattice.levels
        self.c_coord = lattice.coord(c)

        # nodes[level]: level 0 is the base case, level L the plan root
        nodes = plan.nodes[::-1]
        self.n_levels = len(nodes) - 1
        # cubes[level]: every cube of that side inside the region; merges[cube]:
        # the merge structure of each cube above the base level
        self.cubes: list[list[Region]] = [[] for _ in range(self.n_levels + 1)]
        self.merges: dict[Region, _Merge] = {}
        self.cubes[self.n_levels] = [region]
        alpha = plan.params.alpha
        for level in range(self.n_levels, 0, -1):
            node = nodes[level]
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
                self.merges[cube] = _Merge(control, targets, coupling, node.t2, gate_sites)
                self.cubes[level - 1].extend([control, *targets])
        self.steps = [(level, step, regions, _fuse(self.q, ops))
                      for level, step, regions, ops in self._compile()]

    def info_site(self, cube: Region) -> tuple[int, ...]:
        return self.c_coord if cube.contains(self.c_coord) else cube.anchor

    def _compile(self) -> list[tuple]:
        @cache
        def rotation() -> np.ndarray:  # built on first use: a base-only plan has none
            return dft_matrix(self.q)

        @cache
        def gate(site: int) -> tuple:
            return (_BLOCK, Gate(rotation(), site), Gate(rotation().conj().T, site))

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

        @cache
        def unitary(cube: Region, level: int) -> list:
            """The bare encode U of one cube.

            U turns (sum_l psi_l |l>) at the cube's information site, rest |0>,
            into the GHZ-like sum over the cube.  Its step 1 prepares the target
            children symmetrically (gate on the child origin, then the child's
            own U), while the control child just runs its U on the incoming state.
            """
            if level == 0:  # fan the origin's level out onto the cube
                origin = self.lattice.flat_index(self.info_site(cube))
                return [(_INC, origin, s, False)
                        for s in site_mask(cube, self.lattice).tolist() if s != origin]
            mg = self.merges[cube]
            ops = list(unitary(mg.control, level - 1))
            for t, s in zip(mg.targets, mg.gate_sites):
                ops += [gate(s), *unitary(t, level - 1)]
            for step_ops in merge_steps([cube], level):
                ops += step_ops
            return ops

        # base level: every base cube encodes at once; symmetric cubes first
        # rotate their origin into the uniform superposition, the source cube
        # does not
        base = []
        for cube in self.cubes[0]:
            if not cube.contains(self.c_coord):
                base.append(gate(self.lattice.flat_index(cube.anchor)))
            base += unitary(cube, 0)
        steps = [(0, 1, tuple(self.cubes[0]), base)]
        for level in range(1, self.n_levels + 1):
            cubes = self.cubes[level]
            targets = tuple(t for cube in cubes for t in self.merges[cube].targets)
            ops2, ops3, ops4, ops5 = merge_steps(cubes, level)
            steps += [
                (level, 2, tuple(cubes), ops2),
                (level, 3, targets, ops3),
                (level, 4, targets, ops4),
                (level, 5, targets, ops5),
            ]
        return steps

    @cached_property
    def terms(self) -> tuple:
        """Sparse expected states: the initial state's terms, then the terms
        after each of ``steps``, each as ``(idx, label, weight)``.

        The expected amplitude at flat index ``idx[k]`` is
        ``coefficients[label[k]] * weight[k]``; every other amplitude is 0.
        """
        q = self.q
        levels = np.arange(q)
        terms = [(levels * q**self.c, levels, np.ones(q, dtype=np.complex128))]
        for level, step, *_ in self.steps:
            idx, label = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp)
            weight = np.ones(1, dtype=np.complex128)
            for cube in self.cubes[level]:
                # outer sums and products with this cube's terms; only the
                # source cube's level labels a term
                c_idx, c_label, c_weight = self._cube_terms(cube, level, step)
                source = cube.contains(self.c_coord)
                if not source:
                    c_weight = c_weight / math.sqrt(q)  # uniform coefficients
                idx = (idx[:, None] + c_idx.ravel()).ravel()
                label = (label[:, None] + source * c_label.ravel()).ravel()
                weight = (weight[:, None] * c_weight.ravel()).ravel()
            terms.append((idx, label, weight))
        size = q**self.lattice.n_sites
        for idx, label, weight in terms:
            ordered = np.sort(idx)
            assert ordered[0] >= 0 and ordered[-1] < size
            assert np.all(ordered[1:] != ordered[:-1])  # each basis state once
            norms = np.bincount(label, weights=np.abs(weight) ** 2, minlength=q)
            assert np.all(np.abs(norms - 1.0) <= 1e-12)
        return tuple(terms)

    def _cube_terms(self, cube: Region, level: int, step: int) -> tuple:
        """One cube's terms after ``step`` of ``level``, as (q, k) arrays of
        flat-index contributions, the cube's level lv (one row per lv) and
        weights without the cube's coefficient."""
        q = self.q
        lv = np.arange(q)[:, None]
        ones = np.ones((q, 1), dtype=np.complex128)

        def stride(region: Region) -> int:  # flat index of the region at level 1
            return sum(q**s for s in site_mask(region, self.lattice).tolist())

        if step == 5 or level == 0:  # all-same-level blocks over the cube
            return lv * stride(cube), lv, ones
        merge = self.merges[cube]
        if step == 4:  # the targets' gate sites rotated back to the control's lv
            return lv * (stride(merge.control) + sum(q**s for s in merge.gate_sites)), lv, ones
        # steps 2 and 3: each target in the phase ladder
        # sum_x omega**(lv*x) |x> / sqrt(q), over the whole target after the
        # merge (step 2) or concentrated onto its gate site (step 3)
        strides = ([stride(t) for t in merge.targets] if step == 2
                   else [q**s for s in merge.gate_sites])
        x_sum, tgt = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        for st in strides:
            x_sum = (x_sum[:, None] + np.arange(q)).ravel()
            tgt = (tgt[:, None] + np.arange(q) * st).ravel()
        weight = _roots(q)[(-lv * x_sum) % q] / math.sqrt(q) ** len(strides)
        return lv * stride(merge.control) + tgt, np.broadcast_to(lv, weight.shape), weight


#: ``_machine(lattice, region, c, plan)``: the compiled machine, shared by equal keys.
_machine = lru_cache(maxsize=32)(_Machine)


def _get_machine(req: EncodeRequest, gate_mode: str) -> _Machine:
    if gate_mode not in (GATE_DFT, GATE_HADAMARD):
        raise PreconditionError(f"unknown gate mode {gate_mode!r}")
    if gate_mode == GATE_HADAMARD and req.lattice.levels != 2:
        raise PreconditionError("the Hadamard gate path needs q = 2")
    # dft_matrix(2) is bitwise the Hadamard, so both modes run one machine
    return _machine(req.lattice, req.region, req.c, req.plan)


def _step_times(plan: SchedulePlan) -> list:
    """The encode records' elapsed times, read off ``plan`` itself, since equal
    plans may hold them as different bytes (``t_base=1`` and ``1.0``)."""
    times = [plan.nodes[-1].t_total]
    for node in reversed(plan.nodes[:-1]):
        times += [node.t2, node.t1, 0.0, node.t1]
    return times


def _check_fits(state: StateVector, lattice: LatticeSpec) -> None:
    """Refuse a state whose shape is not the lattice's: the ops, the start-state
    check and verification all index it by the lattice's sites."""
    if (state.q, state.n) != (lattice.levels, lattice.n_sites):
        raise PreconditionError(
            f"state (q={state.q}, n={state.n}) does not fit the lattice "
            f"(q={lattice.levels}, n={lattice.n_sites})"
        )


def _check_stray_mass(state: StateVector, req: EncodeRequest, inverse: bool) -> None:
    """Refuse a state the run cannot start from.

    An encode needs every region site other than c at level 0; a decode needs
    the whole region at one level, the GHZ-like span.  The allowed mass is read
    off slices of the (q,)*n view.
    """
    sites = site_mask(req.region, req.lattice).tolist()
    if not inverse:
        sites.remove(req.c)
    q, n, psi = state.q, state.n, state.tensor()
    kept = 0.0
    for level in range(q) if inverse else (0,):
        sel: list = [slice(None)] * n
        for s in sites:
            sel[n - 1 - s] = level
        block = psi[tuple(sel)].ravel()
        kept += _vdot(block, block).real
    mass = _vdot(state.amps, state.amps).real - kept
    if not mass <= 1e-10:
        what = ("region is not in the GHZ-like span" if inverse
                else "region sites other than c are not in |0>")
        raise StatePreconditionError(f"{what}: stray mass {mass:.3e}")


def _overlap(state: StateVector, terms: tuple, coefficients: np.ndarray,
             state_norm2: float | None = None) -> float:
    """Fidelity of the live state against the expected state given by ``terms``.

    ``state_norm2`` is the state's norm**2 as its constructor validated it;
    without it the live norm is read in full, since the gather sees only the
    support.
    """
    idx, label, weight = terms
    w = coefficients[label] * weight
    norm2 = _vdot(w, w).real
    if not abs(norm2 - 1.0) <= 1e-10:
        raise PreconditionError(f"expected state norm**2 = {norm2!r} deviates from 1")
    amps = state.amps
    if state_norm2 is None:
        state_norm2 = _vdot(amps, amps).real
    return float(np.minimum(1.0, abs(_vdot(w, amps[idx])) ** 2 / state_norm2))


def _run(state: StateVector, req: EncodeRequest, verify: bool, gate_mode: str,
         on_step, inverse: bool,
         overwrite: bool = False) -> tuple[StateVector, ProtocolTrace]:
    """Check the start state's shape, the run's memory, then the state's content;
    run the compiled steps: forward to encode, backwards inverted to decode.

    A forward step is checked against the expected state after it; an inverted
    step against the state before it, which is the expected state after the
    previous forward step, or the initial state for the first.  The check
    gathers the live amplitudes on the expected state's support and divides
    by the norm**2 that the step's last op computed when it validated its
    output, so a NaN anywhere, on the support or off it, was refused there.
    A step with no ops reads the live norm**2 in full instead, so a NaN
    planted through ``on_step`` gives fidelity NaN, never a value that passes
    a bar; the next step's norm read refuses it.

    Only each step's last op reads its output's norm, with or without
    ``verify``; the ops before it skip the read.  That one read covers the
    step: every block was checked unitary at compile, increments permute and
    phases have modulus 1, so an op moves the norm only by rounding, and a
    NaN or inf an op makes carries through every later kernel into it.

    The ops ping-pong between two working buffers allocated once per run: each
    writes into the one its source does not use.  The input is never written
    unless ``overwrite`` says no caller can see it, in which case it serves as
    one of the two.  A state handed to ``on_step`` is never overwritten: its
    buffer is given up to the hook, so the next op takes a fresh one.
    """
    _check_fits(state, req.lattice)
    check_capacity(req.lattice)
    _check_stray_mass(state, req, inverse)
    machine = _get_machine(req, gate_mode)
    trace = ProtocolTrace(total_time=req.plan.t_total)
    times = _step_times(req.plan)
    order = range(len(machine.steps))
    if verify:
        checks = machine.terms[:-1] if inverse else machine.terms[1:]
    spare, owned = None, overwrite  # the next op's output; whether state's is ours
    for i in reversed(order) if inverse else order:
        level, step, regions, ops = machine.steps[i]
        last = len(ops) - 1
        for j, op in enumerate(_inverted(ops) if inverse else ops):
            out = np.empty_like(state.amps) if spare is None else spare
            spare, owned = (state.amps if owned else None), True
            state = _apply(state, op, out, j == last)  # only the last op reads the norm
        fid = None
        if verify:
            fid = trace.final_fidelity = _overlap(
                state, checks[i], req.coefficients, state._norm2 if ops else None)
        rec = StepRecord(level, step, inverse, times[i], fid, regions)
        trace.records.append(rec)
        if on_step is not None:
            on_step(rec, state)
            owned = False
    return state, trace


def encode(
    state: StateVector,
    req: EncodeRequest,
    verify: bool = True,
    gate_mode: str = GATE_DFT,
    on_step=None,
) -> tuple[StateVector, ProtocolTrace]:
    """Encode the source site's state into a GHZ-like state over the region.

    Returns a new statevector, leaving the input unchanged, and a trace whose
    step times sum to the plan's total.  With ``verify`` each step is checked
    against its analytic expected state; ``on_step(record, state)`` is called
    after each step if given.
    """
    return _run(state, req, verify, gate_mode, on_step, inverse=False)


def decode(
    state: StateVector,
    req: EncodeRequest,
    verify: bool = True,
    gate_mode: str = GATE_DFT,
    on_step=None,
    *,
    _overwrite: bool = False,
) -> tuple[StateVector, ProtocolTrace]:
    """Concentrate a GHZ-like region onto the request's site c (encode inverse).

    Works by linearity when the region is entangled with the outside, in which
    case the recorded fidelities against unentangled expected states are not
    meaningful and ``verify`` should be switched off.  The input is left
    unchanged; only ``state_transfer``, whose encoded intermediate no caller
    sees, lets decode write into it.
    """
    return _run(state, req, verify, gate_mode, on_step, inverse=True, overwrite=_overwrite)


def _extract_site_coefficients(state: StateVector, site: int) -> np.ndarray:
    """Read off the source-site amplitudes when every other site is in |0>."""
    coeffs = np.array(
        [state.amps[state.q**site * lv] for lv in range(state.q)], dtype=np.complex128
    )
    norm = math.sqrt(float(np.sum(np.abs(coeffs) ** 2)))
    if not abs(norm - 1.0) <= 1e-8:
        raise StatePreconditionError(
            f"verify needs every site other than {site} in |0> to read the source "
            f"coefficients (norm {norm:.6f}); verify=False transfers anyway"
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
    inverse encode targeted at c_prime.  Only ``verify`` reads the coefficients
    off the state, so it needs every site but c in |0>; the applied unitaries
    never depend on them.  The decode writes into the encoded intermediate, so
    a transfer holds the input plus two working buffers.  The trace is the
    encode's, extended by the decode's records, time and final fidelity.
    """
    if lattice is None:
        if plan.lattice is None:
            raise PlanMismatchError("state_transfer needs a lattice")
        lattice = plan.lattice
    _check_fits(state, lattice)
    for s in (c, c_prime):
        if not region.contains(lattice.coord(s)):
            raise OutOfBoundsError(f"site {s} lies outside the region")
    if c == c_prime:
        return state, ProtocolTrace()
    coeffs = (_extract_site_coefficients(state, c) if verify
              else basis_vector(lattice.levels, 0))
    req_in = EncodeRequest(lattice, region, c, coeffs, plan)
    state, trace = encode(state, req_in, verify=verify, gate_mode=gate_mode)
    req_out = EncodeRequest(lattice, region, c_prime, coeffs, plan)
    state, back = decode(state, req_out, verify=verify, gate_mode=gate_mode, _overwrite=True)
    trace.records += back.records
    trace.total_time += back.total_time  # t + t is 2*t bit for bit
    trace.final_fidelity = back.final_fidelity
    return state, trace
