import cmath
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghzlattice.cli as cli
import ghzlattice.protocol as protocol
import ghzlattice.simulator as simulator

from ghzlattice.errors import (
    MemoryCapError,
    OutOfBoundsError,
    PlanMismatchError,
    PreconditionError,
    StatePreconditionError,
)
from ghzlattice.geometry import LatticeSpec, Region, partition, site_mask
from ghzlattice.protocol import (
    EncodeRequest,
    _Machine,
    decode,
    encode,
    state_transfer,
)
from ghzlattice.scheduler import merge_duration, plan
from ghzlattice.simulator import (
    PhaseCoupling,
    StateVector,
    apply_gate,
    basis_vector,
    evolve_phase,
    expected_ghz,
    fidelity,
    init_product,
)

FIDELITY_BAR = 1 - 1e-9


def chain(n, q=2):
    return LatticeSpec(1, n, q)


def source_state(lattice, c, coeffs):
    states = [basis_vector(lattice.levels, 0) for _ in range(lattice.n_sites)]
    states[c] = np.asarray(coeffs, dtype=complex)
    return init_product(lattice, states)


def request(lattice, coeffs, forced_m, alpha=2.5, c=0, r0=2):
    p = plan(alpha, lattice.dimension, lattice.side, r0=r0,
             forced_m=forced_m, q=lattice.levels)
    return EncodeRequest(lattice, lattice.full_region(), c,
                         np.asarray(coeffs, dtype=complex), p)


def step_terms(req, level, step):
    """The machine's verification terms of the expected state after one step."""
    machine = protocol._get_machine(req, protocol.GATE_DFT)
    i = [s[:2] for s in machine.steps].index((level, step))
    return machine.terms[1 + i]


def step_fidelity(state, req, level, step):
    """Fidelity of ``state`` against the expected state after one step, read
    as a run reads it, with the live norm read in full."""
    return protocol._overlap(state, step_terms(req, level, step), req.coefficients)


def haar_qubit(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


# Dense expected states: the oracle for the machine's sparse verification
# terms.  Each call to after() fills a q**n vector term by term.

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



class TestEncode:
    def test_chain4_worked_example(self):
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        out, trace = encode(source_state(lat, 0, [0.6, 0.8]), req)
        assert trace.final_fidelity >= FIDELITY_BAR
        want = expected_ghz(lat.full_region(), lat, [0.6, 0.8])
        assert fidelity(out, want) >= FIDELITY_BAR

    def test_zero_branch_exact(self):
        # (a, b) = (1, 0): the all-zeros input acquires no phase anywhere
        lat = chain(8)
        req = request(lat, [1.0, 0.0], [2, 2])
        out, trace = encode(source_state(lat, 0, [1.0, 0.0]), req)
        assert trace.final_fidelity >= 1 - 1e-12
        assert abs(out.amps[0]) == pytest.approx(1.0, abs=1e-12)

    def test_base_only_trace(self):
        lat = chain(2)
        req = request(lat, [0.6, 0.8], [])
        out, trace = encode(source_state(lat, 0, [0.6, 0.8]), req)
        assert len(trace.records) == 1
        assert trace.records[0].step == 1
        assert all(rec.step != 2 for rec in trace.records)
        assert fidelity(out, expected_ghz(lat.full_region(), lat, [0.6, 0.8])) >= \
            FIDELITY_BAR

    def test_source_site_not_at_anchor(self):
        lat = chain(8)
        p = plan(2.5, 1, 8, r0=2, forced_m=[2, 2])
        req = EncodeRequest(lat, lat.full_region(), 5, np.array([0.6, 0.8]), p)
        out, trace = encode(source_state(lat, 5, [0.6, 0.8]), req)
        assert trace.final_fidelity >= FIDELITY_BAR

    def test_2d_lattice(self):
        lat = LatticeSpec(2, 4, 2)
        p = plan(2.5, 2, 4, r0=2, forced_m=[2])
        req = EncodeRequest(lat, lat.full_region(), 0, np.array([0.6, 0.8]), p)
        out, trace = encode(source_state(lat, 0, [0.6, 0.8]), req)
        assert trace.final_fidelity >= FIDELITY_BAR

    def test_linearity(self):
        lat = chain(8)
        a, b = 0.6, 0.8j
        out_0, _ = encode(source_state(lat, 0, [1, 0]),
                          request(lat, [1, 0], [2, 2]), verify=False)
        out_1, _ = encode(source_state(lat, 0, [0, 1]),
                          request(lat, [0, 1], [2, 2]), verify=False)
        out_ab, _ = encode(source_state(lat, 0, [a, b]),
                           request(lat, [a, b], [2, 2]), verify=False)
        combined = a * out_0.amps + b * out_1.amps
        # fix global phase by the largest amplitude
        k = int(np.argmax(np.abs(combined)))
        combined = combined * (out_ab.amps[k] / combined[k])
        assert np.max(np.abs(combined - out_ab.amps)) < 1e-10

    def test_time_bookkeeping(self):
        lat = chain(16)
        req = request(lat, [0.6, 0.8], [2, 2, 2])
        _, trace = encode(source_state(lat, 0, [0.6, 0.8]), req)
        assert trace.total_time == req.plan.t_total
        assert sum(rec.elapsed for rec in trace.records) == pytest.approx(req.plan.t_total, rel=1e-12)
        assert all(
            rec.fidelity is not None and 0.0 <= rec.fidelity <= 1.0
            for rec in trace.records
        )

    def test_precondition_dirty_region(self):
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        states = [np.array([0.6, 0.8]), basis_vector(2, 0),
                  basis_vector(2, 1), basis_vector(2, 0)]
        with pytest.raises(StatePreconditionError):
            encode(init_product(lat, states), req)

    def test_plan_region_mismatch(self):
        lat = chain(8)
        p4 = plan(2.5, 1, 4, r0=2, forced_m=[2])
        with pytest.raises(PlanMismatchError):
            EncodeRequest(lat, lat.full_region(), 0, np.array([1.0, 0]), p4)

    def test_continuous_plan_rejected(self):
        lat = chain(4)
        p = plan(2.5, 1, 4.0, mode="continuous-analytic")
        with pytest.raises(PlanMismatchError):
            EncodeRequest(lat, lat.full_region(), 0, np.array([1.0, 0]), p)

    def test_trace_serialization(self, tmp_path):
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        _, trace = encode(source_state(lat, 0, [0.6, 0.8]), req)
        payload = json.loads(json.dumps(trace.to_dict()))
        assert payload["total_time"] == trace.total_time
        assert len(payload["records"]) == len(trace.records)
        # the CLI's CSV of a run: one CRLF row per record of its JSON trace
        argv = ["simulate", "--alpha", "2.5", "--r", "4", "--force-m", "2",
                "--coeff", "0.6,0.8", "--out"]
        assert cli.run([*argv, str(tmp_path / "trace.json")]) == 0
        assert cli.run([*argv, str(tmp_path / "trace.csv"), "--format", "csv"]) == 0
        records = json.loads((tmp_path / "trace.json").read_text())["trace"]
        want = ["step,level,inverse,time,fidelity"] + [
            f"{rec['step']},{rec['level']},{int(rec['inverse'])},{rec['elapsed']!r},"
            f"{rec['fidelity']!r}" for rec in records
        ]
        assert len(records) == len(trace.records)
        assert (tmp_path / "trace.csv").read_bytes().decode() == "".join(
            line + "\r\n" for line in want)


class TestMergePhaseSign:
    def test_b_branch_sign_per_level_and_target(self):
        # after each level's merge, the control-ones x target-ones amplitude
        # is exactly -1 times its value before the merge
        lat = chain(16)
        req = request(lat, [0.6, 0.8], [2, 2, 2])
        snapshots = []
        encode(source_state(lat, 0, [0.6, 0.8]), req,
               on_step=lambda rec, s: snapshots.append((rec.level, rec.step,
                                                        s.amps.copy())))
        for i, (level, step, after) in enumerate(snapshots):
            if step != 2:
                continue
            before = snapshots[i - 1][2]
            # reconstruct this level's cube split independently; the source
            # site 0 sits at the global anchor, so every cube's control child
            # is its lexicographically first child
            side = 2 * 2**level
            for anchor in range(0, 16, side):
                kids = partition(Region((anchor,), side), 2)
                control, target = kids[0], kids[1]
                idx = sum(
                    2 ** int(s) for s in
                    list(site_mask(control, lat)) + list(site_mask(target, lat))
                )
                assert abs(after[idx] + before[idx]) < 1e-10
                assert abs(before[idx]) > 0.01  # the check is not vacuous


class TestDecode:
    def test_decode_encode_identity_random(self):
        lat = chain(4)
        rng = np.random.default_rng(314)
        for _ in range(100):
            v = haar_qubit(rng)
            req = request(lat, v, [2])
            state = source_state(lat, 0, v)
            mid, _ = encode(state, req, verify=False)
            back, trace = decode(mid, req, verify=True)
            assert trace.final_fidelity >= FIDELITY_BAR
            assert fidelity(back, state) >= FIDELITY_BAR

    def test_all_zeros_unchanged(self):
        lat = chain(4)
        req = request(lat, [1.0, 0.0], [2])
        ghz0 = source_state(lat, 0, [1.0, 0.0])  # |0000> is its own GHZ
        out, trace = decode(ghz0, req)
        assert trace.final_fidelity >= 1 - 1e-12

    def test_entangled_ancilla_by_linearity(self):
        # region sites 1..4 of a 5-chain, entangled with the ancilla site 0:
        # (|0>_a |0000> + |1>_a |1111>)/sqrt(2) decodes to
        # (|0>_a |0> + |1>_a |1>)/sqrt(2) at c=1, rest |0>
        lat = chain(5)
        region = Region((1,), 4)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        amps = np.zeros(32, dtype=complex)
        amps[0b00000] = 1 / math.sqrt(2)
        amps[0b11111] = 1 / math.sqrt(2)
        req = EncodeRequest(lat, region, 1, np.array([1.0, 0.0]), p)
        out, _ = decode(StateVector(2, 5, amps), req, verify=False)
        want = np.zeros(32, dtype=complex)
        want[0b00000] = 1 / math.sqrt(2)
        want[0b00011] = 1 / math.sqrt(2)  # ancilla=1, c=1, others 0
        assert abs(np.vdot(want, out.amps)) ** 2 >= FIDELITY_BAR

    def test_decode_precondition(self):
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        not_ghz = source_state(lat, 1, [0.0, 1.0])  # site 1 excited only
        with pytest.raises(StatePreconditionError):
            decode(not_ghz, req)

    def test_encode_decode_identity_on_ghz_input(self):
        # the other composition order: starting from a GHZ-like state,
        # decode then encode reproduces it
        lat = chain(8)
        rng = np.random.default_rng(515)
        for _ in range(20):
            v = haar_qubit(rng)
            req = request(lat, v, [2, 2])
            ghz = expected_ghz(lat.full_region(), lat, v)
            mid, _ = decode(ghz, req, verify=False)
            back, _ = encode(mid, req, verify=False)
            assert fidelity(back, ghz) >= FIDELITY_BAR

    def test_subregion_leaves_complement_untouched(self):
        # encode over sites 0..3 of a 5-chain while site 4 sits in |1>
        lat = chain(5)
        region = Region((0,), 4)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        states = [np.array([0.6, 0.8])] + [basis_vector(2, 0)] * 3 + \
            [basis_vector(2, 1)]
        req = EncodeRequest(lat, region, 0, np.array([0.6, 0.8]), p)
        out, _ = encode(init_product(lat, states), req, verify=False)
        want = np.zeros(32)
        want[[0b10000, 0b11111]] = [0.6, 0.8]  # sites 0..3 at one level, site 4 at 1
        assert fidelity(out, StateVector(2, 5, want)) >= FIDELITY_BAR


# (plan arguments, merge factors) of regime-true plans that certify and fit a
# statevector, one per regime that has one; the golden corpus pins their CLI
# output
CERTIFIED = {
    "power-d1": (dict(alpha=2.5, d=1, target_r=20), [10]),
    "power-d2": (dict(alpha=5, d=2, target_r=4, r0=1), [4]),
    "polylog": (dict(alpha=1.5, d=1, target_r=16), [2, 2, 2]),
}


class TestCertifiedPlans:
    @pytest.mark.parametrize("name", list(CERTIFIED))
    def test_certified_plan_encodes_within_its_bound(self, name):
        kwargs, ms = CERTIFIED[name]
        p = plan(**kwargs)
        assert p.certified and p.notes == ()
        assert [node.m for node in p.nodes[:-1]] == ms
        lat = p.lattice
        coeffs = haar_qubit(np.random.default_rng(len(name)))
        req = EncodeRequest(lat, lat.full_region(), 0, coeffs, p)
        _, trace = encode(source_state(lat, 0, coeffs), req)
        r = kwargs["target_r"]
        assert trace.total_time == p.t_total <= p.params.bound(r) * (1 + 1e-9)
        assert trace.final_fidelity >= FIDELITY_BAR


class TestStateTransfer:
    def test_across_chain(self):
        lat = chain(4)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        state = source_state(lat, 0, [0.6, 0.8])
        out, trace = state_transfer(state, 0, 3, lat.full_region(), p, lattice=lat)
        want = source_state(lat, 3, [0.6, 0.8])
        assert fidelity(out, want) >= FIDELITY_BAR
        assert trace.total_time == 2 * p.t_total

    def test_noop_when_same_site(self):
        lat = chain(4)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        state = source_state(lat, 2, [0.6, 0.8])
        out, trace = state_transfer(state, 2, 2, lat.full_region(), p, lattice=lat)
        assert trace.total_time == 0.0
        assert fidelity(out, state) == pytest.approx(1.0, abs=1e-14)

    def test_transfer_of_zero(self):
        lat = chain(4)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        out, trace = state_transfer(
            source_state(lat, 0, [1.0, 0.0]), 0, 3, lat.full_region(), p, lattice=lat
        )
        assert fidelity(out, source_state(lat, 3, [1.0, 0.0])) >= 1 - 1e-12

    def test_site_outside_region(self):
        lat = chain(4)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        with pytest.raises(OutOfBoundsError):
            state_transfer(source_state(lat, 0, [1, 0]), 0, 9,
                           lat.full_region(), p, lattice=lat)

    def test_site_on_the_lattice_outside_region(self):
        lat = chain(4)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        with pytest.raises(OutOfBoundsError):  # site 3 is outside sites 0..1
            state_transfer(source_state(lat, 0, [1, 0]), 0, 3, Region((0,), 2), p, lattice=lat)

    def test_lattice_from_the_plan(self):
        lat = chain(4)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        out, trace = state_transfer(source_state(lat, 0, [0.6, 0.8]), 0, 3,
                                    lat.full_region(), p)
        assert trace.final_fidelity == 1.0
        assert fidelity(out, source_state(lat, 3, [0.6, 0.8])) >= FIDELITY_BAR
        continuous = plan(2.5, 1, 4.0, mode="continuous-analytic")
        with pytest.raises(PlanMismatchError):  # it has no lattice
            state_transfer(source_state(lat, 0, [1, 0]), 0, 3, lat.full_region(), continuous)

    @staticmethod
    def _outside_the_region(case):
        # an 8-chain whose region is sites 0..3: (input, moved state) with
        # site 5 in |1>, or with site 0 in a Bell pair with site 6
        lat = chain(8)
        if case == "excited":
            states = [basis_vector(2, 0) for _ in range(8)]
            states[5] = basis_vector(2, 1)
            moved = list(states)
            states[0] = moved[3] = np.array([0.6, 0.8], dtype=complex)
            return init_product(lat, states), init_product(lat, moved)
        bell = []
        for c in (0, 3):
            amps = np.zeros(2**8, dtype=complex)
            amps[[0, 2**c + 2**6]] = 1 / math.sqrt(2)
            bell.append(StateVector(2, 8, amps))
        return bell

    @pytest.mark.parametrize("case", ["excited", "bell"])
    def test_unverified_moves_a_state_tied_to_the_outside(self, case):
        state, want = self._outside_the_region(case)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        out, _ = state_transfer(state, 0, 3, Region((0,), 4), p, lattice=chain(8),
                                verify=False)
        assert fidelity(out, want) >= FIDELITY_BAR

    @pytest.mark.parametrize("case", ["excited", "bell"])
    def test_verified_refuses_a_state_tied_to_the_outside(self, case):
        state, _ = self._outside_the_region(case)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        with pytest.raises(StatePreconditionError, match="verify"):
            state_transfer(state, 0, 3, Region((0,), 4), p, lattice=chain(8))


class TestVerifyStep:
    """Each step's check: its record's fidelity, and ``_overlap`` of the
    captured state against the step's terms."""

    def test_a_branch_after_merge(self):
        # with (a, b) = (1, 0) nothing acquires a phase: fidelity 1 after step 2
        lat = chain(4)
        req = request(lat, [1.0, 0.0], [2])
        captured = {}
        encode(source_state(lat, 0, [1.0, 0.0]), req,
               on_step=lambda rec, s: captured.setdefault((rec.level, rec.step), s))
        fid = step_fidelity(captured[(1, 2)], req, 1, 2)
        assert fid >= 1 - 1e-12

    def test_after_step4(self):
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        captured = {}
        encode(source_state(lat, 0, [0.6, 0.8]), req,
               on_step=lambda rec, s: captured.setdefault((rec.level, rec.step), s))
        assert step_fidelity(captured[(1, 4)], req, 1, 4) >= FIDELITY_BAR

    def test_half_duration_detected(self):
        # merge run for half the prescribed time: overlap with the expected
        # post-merge state is |a^2 + b^2 (1+i)/2|^2 = 0.5648 for (0.6, 0.8)
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        captured = {}
        encode(source_state(lat, 0, [0.6, 0.8]), req,
               on_step=lambda rec, s: captured.setdefault((rec.level, rec.step), s))
        after_step1 = captured[(0, 1)]
        coupling = PhaseCoupling(
            control_mask=site_mask(Region((0,), 2), lat),
            target_masks=(site_mask(Region((2,), 2), lat),),
            strength=1.0 / 4.0**2.5,
        )
        half = evolve_phase(after_step1, coupling,
                            merge_duration(2.5, 1, 2, 2, q=2) / 2)
        fid = step_fidelity(half, req, 1, 2)
        want = abs(0.36 + 0.64 * (1 + 1j) / 2) ** 2
        assert fid == pytest.approx(want, abs=1e-9)
        assert fid < 1 - 1e-3

    def test_matches_the_records_of_a_hadamard_encode(self):
        # the expected states depend on the geometry alone, so the terms of
        # the DFT machine read each Hadamard-path step exactly as the step's
        # own record did
        lat = chain(16)
        req = request(lat, [0.6, 0.8], [2, 2, 2])
        captured = []
        encode(source_state(lat, 0, [0.6, 0.8]), req, gate_mode="hadamard",
               on_step=lambda rec, s: captured.append((rec, s)))
        assert len(captured) == 13
        for rec, s in captured:
            assert step_fidelity(s, req, rec.level, rec.step) == rec.fidelity

    def test_state_must_fit_the_lattice(self):
        req = request(chain(4), [0.6, 0.8], [2])
        with pytest.raises(PreconditionError, match="does not fit the lattice"):
            encode(source_state(chain(5), 0, [0.6, 0.8]), req)

    def test_decode_records_mirror_encode(self):
        lat = chain(8)
        req = request(lat, [0.6, 0.8], [2, 2])
        mid, _ = encode(source_state(lat, 0, [0.6, 0.8]), req, verify=False)
        _, trace = decode(mid, req, verify=True)
        assert [(rec.level, rec.step) for rec in trace.records] == [
            (2, 5), (2, 4), (2, 3), (2, 2), (1, 5), (1, 4), (1, 3), (1, 2), (0, 1)
        ]
        assert all(rec.inverse for rec in trace.records)
        assert all(rec.fidelity >= FIDELITY_BAR for rec in trace.records)


class TestEndToEndMatrix:
    @pytest.mark.parametrize(
        "d,side,q,forced",
        [
            (1, 4, 2, [2]),
            (1, 8, 2, [2, 2]),
            (1, 16, 2, [2, 2, 2]),
            (2, 4, 2, [2]),
            (1, 4, 3, [2]),
            (1, 8, 3, [2, 2]),
        ],
    )
    def test_haar_random_fidelity(self, d, side, q, forced):
        lat = LatticeSpec(d, side, q)
        p = plan(2.5 if d == 1 else 4.5, d, side, r0=2, forced_m=forced, q=q)
        region = lat.full_region()
        rng = np.random.default_rng(hash((d, side, q)) % 2**32)
        for _ in range(25):
            v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            v /= np.linalg.norm(v)
            req = EncodeRequest(lat, region, 0, v, p)
            out, trace = encode(source_state(lat, 0, v), req, verify=False)
            assert fidelity(out, expected_ghz(region, lat, v)) >= FIDELITY_BAR
            assert trace.total_time == p.t_total

    def test_plan_couplings_respect_power_law(self):
        # every coupling a plan produces (sides <= 8, d <= 2) stays within
        # 1/dist**alpha for all cross pairs; check_power_law raises otherwise
        for d, side, forced in [(1, 8, [2, 2]), (2, 4, [2]), (2, 8, [2, 2]),
                                (1, 8, [4]), (2, 8, [4])]:
            lat = LatticeSpec(d, side, 2)
            p = plan(2.5 if d == 1 else 4.5, d, side, r0=side // np.prod(forced),
                     forced_m=forced)
            machine = _Machine(lat, lat.full_region(), 0, p)
            for merge in machine.merges.values():
                merge.coupling.check_power_law(lat, p.params.alpha)


class TestQuditsAndGateModes:
    def test_q3_chain(self):
        lat = chain(4, q=3)
        rng = np.random.default_rng(27)
        for _ in range(10):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            req = request(lat, v, [2])
            out, trace = encode(source_state(lat, 0, v), req)
            assert trace.final_fidelity >= FIDELITY_BAR
            assert fidelity(out, expected_ghz(lat.full_region(), lat, v)) >= \
                FIDELITY_BAR

    def test_q3_decode_roundtrip(self):
        lat = chain(8, q=3)
        rng = np.random.default_rng(28)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        req = request(lat, v, [2, 2])
        state = source_state(lat, 0, v)
        mid, _ = encode(state, req, verify=False)
        back, _ = decode(mid, req, verify=False)
        assert fidelity(back, state) >= FIDELITY_BAR

    def test_hadamard_path_bit_matches_dft(self):
        lat = chain(8)
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = haar_qubit(rng)
            req = request(lat, v, [2, 2])
            out_dft, _ = encode(source_state(lat, 0, v), req,
                                verify=False, gate_mode="dft")
            out_had, _ = encode(source_state(lat, 0, v), req,
                                verify=False, gate_mode="hadamard")
            assert np.array_equal(out_dft.amps, out_had.amps)

    def test_hadamard_mode_compiles_no_second_machine(self):
        lat = chain(8)
        req = request(lat, [0.6, 0.8], [2, 2])
        encode(source_state(lat, 0, [0.6, 0.8]), req, gate_mode="dft")
        before = protocol._machine.cache_info()
        encode(source_state(lat, 0, [0.6, 0.8]), req, gate_mode="hadamard")
        after = protocol._machine.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert after.currsize == before.currsize

    def test_unknown_gate_mode(self):
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        with pytest.raises(PreconditionError, match="unknown gate mode"):
            encode(source_state(lat, 0, [0.6, 0.8]), req, gate_mode="x")

    def test_hadamard_mode_needs_q2(self):
        lat = chain(4, q=3)
        req = request(lat, np.ones(3) / math.sqrt(3), [2])
        with pytest.raises(PreconditionError):
            encode(source_state(lat, 0, np.ones(3) / math.sqrt(3)), req,
                   gate_mode="hadamard")


class TestLazyRotation:
    """A machine builds its q x q rotation on first use, once: a plan with no
    merge and a source-only base never builds one."""

    @pytest.mark.parametrize("lat,r0", [(LatticeSpec(1, 1, 1024), 1), (chain(4, q=3), 4)],
                             ids=["site-q1024", "chain4-q3"])
    def test_base_only_plan_builds_none(self, monkeypatch, lat, r0):
        def refuse(q):
            raise AssertionError("a base-only plan built a rotation")

        protocol._machine.cache_clear()  # no machine compiled before the patch
        monkeypatch.setattr(protocol, "dft_matrix", refuse)
        q, last = lat.levels, lat.n_sites - 1
        coeffs = np.zeros(q, dtype=complex)
        coeffs[[0, q - 1]] = [0.6, 0.8j]
        p = plan(2.5, 1, lat.side, r0=r0, q=q)
        req = EncodeRequest(lat, lat.full_region(), 0, coeffs, p)
        state = source_state(lat, 0, coeffs)
        mid, trace = encode(state, req)
        assert trace.final_fidelity >= FIDELITY_BAR
        assert fidelity(mid, expected_ghz(lat.full_region(), lat, coeffs)) >= FIDELITY_BAR
        back, trace = decode(mid, req)
        assert trace.final_fidelity >= FIDELITY_BAR and fidelity(back, state) >= FIDELITY_BAR
        out, trace = state_transfer(state, 0, last, lat.full_region(), p, lattice=lat)
        assert fidelity(out, source_state(lat, last, coeffs)) >= FIDELITY_BAR

    def test_plan_with_merges_builds_one_per_machine(self, monkeypatch):
        calls = []

        def counted(q, _dft=protocol.dft_matrix):
            calls.append(q)
            return _dft(q)

        protocol._machine.cache_clear()
        monkeypatch.setattr(protocol, "dft_matrix", counted)
        lat = chain(16)
        p = plan(2.5, 1, 16, r0=2, forced_m=[2, 2, 2])  # 15 gate sites per machine
        _, trace = state_transfer(source_state(lat, 0, [0.6, 0.8]), 0, 15,
                                  lat.full_region(), p, lattice=lat)
        assert trace.final_fidelity >= FIDELITY_BAR
        assert calls == [2, 2]  # the encode's machine and the decode's


class TestRequestValidation:
    def test_nan_coefficients_rejected(self):
        with pytest.raises(PreconditionError):
            request(chain(4), [np.nan, 1.0], [2])

    def test_near_unit_coefficients_stored_normalized(self):
        # norm**2 = 1 + 5e-10 is accepted, so verification must check against
        # the normalized coefficients, not refuse its own expected state
        lat = chain(8)
        v = np.array([0.6, 0.8j])
        req = request(lat, v * math.sqrt(1 + 5e-10), [2, 2])
        _, trace = encode(source_state(lat, 0, v), req)
        assert len(trace.records) == 9
        assert all(rec.fidelity >= FIDELITY_BAR for rec in trace.records)
        assert abs(np.vdot(req.coefficients, req.coefficients).real - 1.0) <= 1e-15


class TestCompiledStream:
    def test_kernel_calls_per_run(self, monkeypatch):
        # the 16-chain stream, fused: one kernel call per compiled op (window
        # blocks and the one phase too wide for a window), the same each way;
        # counted through the names the runner looks up in ghzlattice.protocol,
        # which compile's block building does not use
        lat = chain(16)
        req = request(lat, [0.6, 0.8], [2, 2, 2])
        kernels = {protocol._BLOCK: "apply_gate", protocol._INC: "apply_controlled_increment",
                   protocol._PHASE: "evolve_phase"}
        want = Counter(kernels[op[0]] for step in protocol._get_machine(
            req, protocol.GATE_DFT).steps for op in step[-1])
        assert want["evolve_phase"] == 1 and not want["apply_controlled_increment"]
        calls = Counter()
        for name in kernels.values():
            def counted(*args, _name=name, _kernel=getattr(protocol, name)):
                calls[_name] += 1
                return _kernel(*args)
            monkeypatch.setattr(protocol, name, counted)
        mid, _ = encode(source_state(lat, 0, [0.6, 0.8]), req, verify=False)
        assert calls == want
        calls.clear()
        decode(mid, req, verify=False)
        assert calls == want

    def test_machine_cache_is_lru(self):
        # 33 side-4 regions on a 40-site chain, machines only (no 2**40 state):
        # a hit moves its key to the end, a new key evicts the oldest; 32 new
        # keys in a row evict whatever earlier tests left in the cache
        lat = chain(40)
        p = plan(2.5, 1, 4, r0=2, forced_m=[2])
        reqs = [EncodeRequest(lat, Region((a,), 4), a, [1, 0], p) for a in range(33)]
        info = protocol._machine.cache_info

        def get(i):
            return protocol._get_machine(reqs[i], protocol.GATE_DFT)

        machines = [get(i) for i in range(32)]
        misses = info().misses
        assert get(0) is machines[0]  # a hit, now the most recent
        last = get(32)  # evicts key 1, the oldest
        assert info().currsize == info().maxsize == 32
        assert get(32) is last and get(0) is machines[0] and get(2) is machines[2]
        assert info().misses == misses + 1
        assert get(1) is not machines[1]  # rebuilt, evicting key 3
        assert get(3) is not machines[3]
        assert info().misses == misses + 3


class TestSharedMachines:
    """Machines are cached per process by value: equal plans share one, and
    each run still reports the times of its own plan."""

    def test_equal_plans_compile_one_machine(self):
        lat = chain(16)
        first, second = (plan(2.5, 1, 16, r0=2, forced_m=[2, 2, 2]) for _ in range(2))
        assert first is not second and first == second and hash(first) == hash(second)
        info = protocol._machine.cache_info
        misses = info().misses
        machine = protocol._get_machine(
            EncodeRequest(lat, lat.full_region(), 3, [1, 0], first), protocol.GATE_DFT)
        assert protocol._get_machine(
            EncodeRequest(lat, lat.full_region(), 3, [1, 0], second),
            protocol.GATE_DFT) is machine
        assert info().misses <= misses + 1  # none if an earlier test compiled it

    @pytest.mark.parametrize("t_bases", [(1, 1.0), (0.0, -0.0)], ids=["int-float", "signed-zero"])
    def test_equal_plans_print_their_own_times(self, t_bases):
        # equal plans whose times print differently: a run's trace bytes are
        # those of a run in a fresh process, whichever plan compiled first
        lat = chain(4)

        def trace_bytes(t_base):
            p = plan(2.5, 1, 4, r0=2, forced_m=[2], t_base=t_base)
            _, trace = state_transfer(source_state(lat, 0, [0.6, 0.8]), 0, 3,
                                      lat.full_region(), p, lattice=lat)
            return json.dumps(trace.to_dict())

        fresh = []  # by position: 0.0 and -0.0 are one dict key
        for t_base in t_bases:
            protocol._machine.cache_clear()
            fresh.append(trace_bytes(t_base))
        assert t_bases[0] == t_bases[1] and fresh[0] != fresh[1]
        for order in ((0, 1), (1, 0)):
            protocol._machine.cache_clear()
            assert [trace_bytes(t_bases[i]) for i in order] == [fresh[i] for i in order]
            assert protocol._machine.cache_info().misses == 2  # encode and decode machines

    def test_warm_transfers_miss_no_cache(self):
        # the benchmark's transfer-small lattices: after one transfer each,
        # further transfers compile no machine and build no weight block
        cases = [(chain(16), [2, 2, 2], 2.5), (LatticeSpec(2, 4), [2], 4.5),
                 (chain(8, q=4), [2, 2], 2.5)]
        runs = []
        for lat, forced, alpha in cases:
            p = plan(alpha, lat.dimension, lat.side, r0=2, forced_m=forced, q=lat.levels)
            state = source_state(lat, 0, np.eye(lat.levels)[1])
            runs.append((state, lat, p))

        def transfer_all():
            for state, lat, p in runs:
                _, trace = state_transfer(state, 0, lat.n_sites - 1, lat.full_region(), p,
                                          lattice=lat)
                assert trace.final_fidelity >= FIDELITY_BAR

        transfer_all()
        misses = (protocol._machine.cache_info().misses,
                  simulator._phase_weights.cache_info().misses)
        for _ in range(2):
            transfer_all()
        assert (protocol._machine.cache_info().misses,
                simulator._phase_weights.cache_info().misses) == misses


# (d, side, q, alpha, r0, forced_m, fewest monomial blocks per encode from
# site 0 and from the last site, most modelled passes per encode from site 0
# or None: those of the greedy first fit the least-cost split replaced)
FUSED_CASES = {
    "chain16": (1, 16, 2, 2.5, 2, [2, 2, 2], (10, 10), 44.0),
    "grid4x4": (2, 4, 2, 4.5, 2, [2], (6, 6), 15.5),
    "ququart8": (1, 8, 4, 2.5, 2, [2, 2], (9, 8), 31.375),
    "chain20": (1, 20, 2, 2.5, 2, [2, 5], (9, 9), 45.875),
    "chain18": (1, 18, 2, 2.5, 2, [3, 3], (9, 9), 37.625),
    "grid4x4_base": (2, 4, 2, 4.5, 4, [], (1, 1), None),  # increments too wide to fuse
    "qutrit8": (1, 8, 3, 2.5, 2, [2, 2], (9, 7), None),
}


def _fused_machine(name, c=0):
    d, side, q, alpha, r0, forced, *_ = FUSED_CASES[name]
    lat = LatticeSpec(d, side, q)
    req = request(lat, np.eye(q)[1], forced, alpha=alpha, r0=r0, c=c)
    return lat, req, protocol._get_machine(req, protocol.GATE_DFT)


def _inverse_steps(machine):
    """The steps a decode runs: the machine's steps backwards, each op list
    inverted."""
    return [(*step[:-1], protocol._inverted(step[-1])) for step in reversed(machine.steps)]


def _gather_matrix(gate):
    """The dense matrix of a gate given by its gather."""
    dim = gate._perm.size
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[np.arange(dim), gate._perm] = 1 if gate._phases is None else gate._phases
    return mat


def _read_gather(mat):
    """(perm, phases) read off a matrix with one nonzero per row: the column
    and the value of each, phases None when all are exactly 1."""
    nonzero = mat != 0
    assert np.all(np.count_nonzero(nonzero, axis=1) == 1)
    perm = np.argmax(nonzero, axis=1)
    phases = mat[np.arange(perm.size), perm]
    return perm, None if np.all(phases == 1) else phases


def _assert_blocks_fit(q, machine):
    """Every block spans at most 64 amplitudes if it holds a dense gate and at
    most 256 if it is a gather, from site 0 or from a low stride of at least
    8; every op left unfused is wider than a gather's window."""
    for steps in (machine.steps, _inverse_steps(machine)):
        for op in (op for step in steps for op in step[-1]):
            if op[0] == protocol._BLOCK:
                gate = op[1]
                if gate.matrix is None:
                    assert gate._perm.size <= 256
                else:
                    assert gate.matrix.shape[0] <= 64
                assert gate.site == 0 or q ** gate.site >= 8
                continue
            sites = protocol._op_sites(op)
            lo = 0 if q ** min(sites) < 8 else min(sites)
            assert q ** (max(sites) - lo + 1) > 256


def _run_cost(q, ops):
    """The modelled cost of one run of unfused ops, in passes: 1, plus a dense
    window's amplitudes / 32; None if the run fits no window (a lone op too
    wide for one costs its 1 pass)."""
    sites = [s for op in ops for s in protocol._op_sites(op)]
    amps = q ** (max(sites) - protocol._widened_site(q, min(sites)) + 1)
    dense = any(op[0] == protocol._BLOCK for op in ops)
    if amps > (64 if dense else 256):
        return 1 if len(ops) == 1 else None
    return 1 + amps / 32 if dense else 1


def _stream_cost(ops):
    """The modelled cost of a fused op list, read off its blocks."""
    return sum(1 + (op[1].matrix.shape[0] / 32 if op[0] == protocol._BLOCK
                    and op[1].matrix is not None else 0) for op in ops)


def _replay(state, ops):
    """The unfused ops one by one through the public kernels."""
    for op in ops:
        state = protocol._apply(state, op)
    return state


class TestFusedStream:
    """The compiled stream fuses each step's ops into window blocks: gathers
    of at most 256 amplitudes for runs of increments and phases, dense blocks
    of at most 64 for runs holding a single-site gate; the unfused ops are only
    _compile's output."""

    @pytest.mark.parametrize("name", list(FUSED_CASES))
    def test_matches_unfused_replay(self, name):
        lat, req, machine = _fused_machine(name)
        q = lat.levels
        rng = np.random.default_rng(len(name))
        coeffs = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        coeffs /= np.linalg.norm(coeffs)
        state = source_state(lat, 0, coeffs)
        unfused = [op for step in machine._compile() for op in step[-1]]
        fused, _ = encode(state, req, verify=False)
        want = _replay(state, unfused)
        assert np.max(np.abs(fused.amps - want.amps)) <= 1e-12
        back, _ = decode(fused, req, verify=False)
        want = _replay(fused, protocol._inverted(unfused))
        assert np.max(np.abs(back.amps - want.amps)) <= 1e-12

    @pytest.mark.parametrize("name", list(FUSED_CASES))
    def test_blocks_fit_the_window(self, name):
        lat, _req, machine = _fused_machine(name)
        _assert_blocks_fit(lat.levels, machine)

    @pytest.mark.parametrize("name", [n for n, c in FUSED_CASES.items() if c[-1]])
    def test_passes_per_encode(self, name):
        # modelled passes: one per op, and a dense block's window / 32 more
        _lat, _req, machine = _fused_machine(name)
        assert _stream_cost([op for step in machine.steps for op in step[-1]]) \
            <= FUSED_CASES[name][-1]

    @pytest.mark.parametrize("name", list(FUSED_CASES))
    def test_split_has_the_least_modelled_cost(self, name):
        # on every compiled step, and every 12-op stretch of a longer one, the
        # fused stream costs the minimum over all 2**(m - 1) splits into
        # consecutive runs
        lat, _req, machine = _fused_machine(name)
        q = lat.levels
        pieces = [ops[i:i + 12] for *_, ops in machine._compile()
                  for i in range(max(1, len(ops) - 11))]
        for ops in pieces:
            least = math.inf
            for cuts in itertools.product((False, True), repeat=len(ops) - 1):
                bounds = [0, *(i + 1 for i, cut in enumerate(cuts) if cut), len(ops)]
                costs = [_run_cost(q, ops[a:b]) for a, b in zip(bounds, bounds[1:])]
                if None not in costs:
                    least = min(least, sum(costs))
            assert _stream_cost(protocol._fuse(q, ops)) == least

    def test_real_blocks_share_their_inverse(self):
        # a transfer 0 -> 19 on chain20 runs 37 dense blocks, the encode's
        # and the inverses of the decode machine's; the 16 real ones at a
        # site > 0 hold the float64 copy apply_gate multiplies (re, im) pairs
        # by.  A real block's inverse is its transpose, a view of the same
        # matrix and float64 copy; a complex block's inverse is a conjugated
        # copy.  Each is derived once, and the decode runs that one
        def dense(steps):
            return [op[1] for step in steps for op in step[-1]
                    if op[0] == protocol._BLOCK and op[1].matrix is not None]

        n = FUSED_CASES["chain20"][1]
        decoder = _fused_machine("chain20", n - 1)[2]
        assert ([id(g._inverse) for g in reversed(dense(decoder.steps))]
                == [id(g) for g in dense(_inverse_steps(decoder))])
        blocks = dense(_fused_machine("chain20")[2].steps) + dense(decoder.steps)
        assert len(blocks) == 37
        strided_real = 0
        for gate in blocks:
            inverse = gate._inverse
            assert inverse is gate._inverse
            real = not np.any(gate.matrix.imag)
            assert np.array_equal(inverse.matrix, gate.matrix.conj().T)
            assert np.shares_memory(gate.matrix, inverse.matrix) == real
            for g in (gate, inverse):
                assert (g._real is not None) == (real and g.site > 0)
            if gate._real is not None:
                assert np.shares_memory(gate._real, inverse._real)
            strided_real += real and gate.site > 0
        assert strided_real == 16

    @pytest.mark.parametrize("name", list(FUSED_CASES))
    def test_monomial_blocks_gather_exactly(self, name):
        # apply_gate gathers every monomial block.  Against the dense matmul a
        # signed permutation is bit-exact; a block with other phases (merge
        # phases fused in) may differ by the rounding of one complex multiply,
        # which BLAS may fuse into an FMA
        lat, _req, _machine = _fused_machine(name)
        q, n = lat.levels, lat.n_sites
        rng = np.random.default_rng(len(name))
        v = rng.standard_normal(q**n) + 1j * rng.standard_normal(q**n)
        state = StateVector(q, n, v / np.linalg.norm(v))
        tol = 4 * np.finfo(float).eps * np.max(np.abs(state.amps))
        for c, fewest in zip((0, n - 1), FUSED_CASES[name][-2]):
            machine = _fused_machine(name, c)[2]
            forward, inverse = (
                [op[1] for step in steps for op in step[-1]
                 if op[0] == protocol._BLOCK and op[1]._perm is not None]
                for steps in (machine.steps, _inverse_steps(machine)))
            assert len(forward) == len(inverse) >= fewest
            for gate in forward + inverse:
                mat = _gather_matrix(gate)
                dim = mat.shape[0]
                got = apply_gate(state, gate).amps
                dense = np.matmul(mat, state.amps.reshape(-1, dim, q**gate.site))
                dense = dense.reshape(-1)
                if gate._phases is None or np.all(np.isin(gate._phases, (1, -1))):
                    assert np.array_equal(got, dense)
                else:
                    assert np.max(np.abs(got - dense)) <= tol

    @pytest.mark.parametrize("name", list(FUSED_CASES))
    def test_gathers_match_the_identity_build(self, name, monkeypatch):
        # a monomial run's gather, built on a k-site scratch state, is bit for
        # bit the gather read off the matrix the same ops build on the 2k-site
        # identity, and its derived inverse the gather read off that matrix's
        # conjugate transpose
        lat, req, _machine = _fused_machine(name)
        q = lat.levels
        runs, block = [], protocol._block

        def recorded(q, ops, lo, hi):
            runs.append((ops, block(q, ops, lo, hi)))
            return runs[-1][1]

        monkeypatch.setattr(protocol, "_block", recorded)
        for c in (0, lat.n_sites - 1):
            protocol._Machine(lat, req.region, c, req.plan)
        gathers = [(ops, op[1]) for ops, op in runs if op[1].matrix is None]
        assert gathers
        for ops, gate in gathers:
            k = round(math.log(gate._perm.size, q))
            u = protocol._unitary(q, k, [protocol._shifted(op, gate.site) for op in ops])
            for got, mat in ((gate, u), (gate._inverse, u.conj().T)):
                perm, phases = _read_gather(mat)
                assert np.array_equal(got._perm, perm)
                assert (got._phases is None) == (phases is None)
                if phases is not None:
                    assert np.array_equal(got._phases.view(np.int64), phases.view(np.int64))

    @pytest.mark.parametrize("name", list(FUSED_CASES))
    def test_blocks_undo_through_their_inverse(self, name):
        # every block of both machines, then the inverse its gate derives: a
        # signed-permutation gather gives the state back bit for bit, any
        # other block to within the rounding of its two multiplies, 8 eps of
        # the largest amplitude (chain16's complex 16-amplitude blocks come
        # back to 5 eps, every other block to 4)
        lat, _req, _machine = _fused_machine(name)
        q, n = lat.levels, lat.n_sites
        rng = np.random.default_rng(len(name))
        v = rng.standard_normal(q**n) + 1j * rng.standard_normal(q**n)
        state = StateVector(q, n, v / np.linalg.norm(v))
        tol = 8 * np.finfo(float).eps * np.max(np.abs(state.amps))
        kinds = set()
        for c in (0, n - 1):
            for gate in (op[1] for step in _fused_machine(name, c)[2].steps
                         for op in step[-1] if op[0] == protocol._BLOCK):
                back = apply_gate(apply_gate(state, gate), gate._inverse).amps
                signed = gate.matrix is None and (
                    gate._phases is None or np.all(np.isin(gate._phases, (1, -1))))
                kinds.add("signed" if signed else "gather" if gate.matrix is None else "dense")
                if signed:
                    assert np.array_equal(back, state.amps)
                else:
                    assert np.max(np.abs(back - state.amps)) <= tol
        assert "signed" in kinds and ("dense" in kinds or name == "grid4x4_base")

    def test_dense_gates_built_once(self, monkeypatch):
        # a verified two-site transfer at q = 256 from empty caches builds
        # each machine's one DFT gate, checked once; the inverses its decode
        # and its merges run are derived from it, not built and checked again
        lat = chain(2, q=256)
        req = request(lat, np.eye(256)[3], [2], r0=1)
        post_init, dense = simulator.Gate.__post_init__, []

        def counted(self):
            dense.append(self.matrix is not None)
            post_init(self)

        protocol._machine.cache_clear()
        monkeypatch.setattr(simulator.Gate, "__post_init__", counted)
        _, trace = state_transfer(source_state(lat, 0, req.coefficients), 0, 1,
                                  req.region, req.plan, lattice=lat)
        assert trace.final_fidelity >= FIDELITY_BAR
        assert dense == [True, True]

    def test_moved_gates_are_not_checked_again(self, monkeypatch):
        # compiling the two machines of a chain20 0 -> 19 transfer checks each
        # machine's DFT once per site and each fused dense block once; a
        # single-site gate moved into a block's window shares its checked
        # matrix and is not checked again
        lat = chain(20)
        p = plan(2.5, 1, 20, r0=2, forced_m=[2, 5])
        post_init, unitary = simulator.Gate.__post_init__, protocol._unitary
        dense, blocks = [], []

        def counted(self):
            dense.append(self.matrix is not None)
            post_init(self)

        def counted_unitary(*args):
            blocks.append(args)
            return unitary(*args)

        monkeypatch.setattr(simulator.Gate, "__post_init__", counted)
        monkeypatch.setattr(protocol, "_unitary", counted_unitary)
        machines = [protocol._Machine(lat, lat.full_region(), c, p) for c in (0, 19)]
        checked = dense.count(True)
        monkeypatch.undo()
        sites = [{op[1].site for *_, ops in m._compile() for op in ops
                  if op[0] == protocol._BLOCK} for m in machines]
        moved = sum(1 for args in blocks for op in args[2] if op[0] == protocol._BLOCK)
        assert moved > 0 and blocks
        assert checked == sum(map(len, sites)) + len(blocks)

    @pytest.mark.parametrize("c", [0, 15])
    def test_gathers_hold_no_matrix(self, c):
        # a compiled 4x4 machine holds each monomial block, both ways, as its
        # gather alone: no q**k x q**k array
        _lat, _req, machine = _fused_machine("grid4x4", c)
        gates = [gate for steps in (machine.steps, _inverse_steps(machine))
                 for step in steps for op in step[-1] if op[0] == protocol._BLOCK
                 for gate in op[1:] if gate._perm is not None]
        assert gates
        for gate in gates:
            assert gate.matrix is None
            assert all(np.ndim(value) < 2 for value in vars(gate).values())

    @pytest.mark.parametrize("q, side, r0, forced", [(3, 9, 3, [3]), (5, 8, 2, [2, 2])])
    def test_low_stride_gates_fit_their_caps(self, q, side, r0, forced):
        # lattices with dense gates at strides 8 <= q**s < 64 (a qutrit at
        # site 2 or 3, q = 5 at site 2), which stay strided: every block fits
        # its cap, and the encode matches the unfused replay
        lat = chain(side, q)
        req = request(lat, np.eye(q)[1], forced, r0=r0)
        machine = protocol._get_machine(req, protocol.GATE_DFT)
        _assert_blocks_fit(q, machine)
        state = source_state(lat, 0, np.eye(q)[1])
        unfused = [op for step in machine._compile() for op in step[-1]]
        fused, _ = encode(state, req, verify=False)
        assert np.max(np.abs(fused.amps - _replay(state, unfused).amps)) <= 1e-12

    def test_bench_tracer_counts_the_compiled_ops(self):
        # bench/tracer.py's Tracer, imported read-only, counts one full-state
        # pass per kernel call; around one cold encode, compile included, that
        # is the compiled op count.  It patches modules for good, so it runs
        # in a child.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = f"""
import json
import sys
sys.path.insert(0, {os.path.join(root, "bench")!r})
import numpy as np
from ghzlattice import LatticeSpec, basis_vector, init_product, plan
from ghzlattice.protocol import EncodeRequest, encode, _get_machine, GATE_DFT
from tracer import Tracer
tracer = Tracer()
tracer.install()
out = []
for d, side, alpha, r0, forced in [(1, 16, 2.5, 2, [2, 2, 2]), (2, 4, 4.5, 4, [])]:
    lat = LatticeSpec(d, side)
    states = [basis_vector(2, 0)] * lat.n_sites
    states[0] = np.array([0.6, 0.8])
    state = init_product(lat, states)
    req = EncodeRequest(lat, lat.full_region(), 0, states[0],
                        plan(alpha, d, side, r0=r0, forced_m=forced))
    before = tracer.passes
    tracer.run_op(encode, state, req)
    compiled = sum(len(step[-1]) for step in _get_machine(req, GATE_DFT).steps)
    out.append((tracer.passes - before, compiled))
print(json.dumps(out))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)
        assert len(counts) == 2 and all(passes == compiled > 0 for passes, compiled in counts)


def _step_support(req, level, step):
    """Flat indices of the expected state's nonzero terms after one step."""
    return step_terms(req, level, step)[0]


class TestSparseVerification:
    """Each step's fidelity comes from the machine's sparse term lists; the
    dense ExpectedStates above is the oracle."""

    @pytest.mark.parametrize("kick", [0.0, 1.0], ids=["true", "kicked"])
    @pytest.mark.parametrize("name", list(FUSED_CASES))
    def test_matches_dense_oracle(self, name, kick):
        # kick != 0 gives the source site the phase exp(1j*kick*l) on level l,
        # so every step's fidelity is below 1 and the comparison is not only
        # at 1.0
        d, side, q, alpha, r0, forced, *_ = FUSED_CASES[name]
        lat = LatticeSpec(d, side, q)
        rng = np.random.default_rng(len(name))
        v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        v /= np.linalg.norm(v)
        req = request(lat, v, forced, alpha=alpha, r0=r0)
        machine = protocol._get_machine(req, protocol.GATE_DFT)
        oracle = ExpectedStates(machine, req.coefficients)
        forward = [oracle.after(level, step) for level, step, *_ in machine.steps]
        captured = []

        def capture(rec, state):
            # a digest, not a copy, of each state: chain20 hands over 37 of 16 MiB
            captured.append((rec.fidelity, state, hashlib.sha256(state.amps).digest()))

        kicked = source_state(lat, 0, v * np.exp(1j * kick * np.arange(q)))
        mid, _ = encode(kicked, req, on_step=capture)
        decode(mid, req, on_step=capture)
        targets = forward + forward[-2::-1] + [oracle.initial()]
        assert len(captured) == len(targets)
        for (fid, state, digest), target in zip(captured, targets):
            # a state handed to the hook is never overwritten by a later op
            assert hashlib.sha256(state.amps).digest() == digest
            assert abs(fid - fidelity(state, target)) <= 1e-12
        if kick:
            assert max(fid for fid, *_ in captured) < 1 - 1e-3

    def test_nan_off_the_support_reads_nan(self):
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        captured = {}
        encode(source_state(lat, 0, [0.6, 0.8]), req,
               on_step=lambda rec, s: captured.setdefault((rec.level, rec.step), s))
        state = captured[(1, 2)]
        assert step_fidelity(state, req, 1, 2) >= FIDELITY_BAR
        off = sorted(set(range(16)) - set(_step_support(req, 1, 2).tolist()))[0]
        state.amps[off] = np.nan  # planted after the state was validated
        assert math.isnan(step_fidelity(state, req, 1, 2))

    def test_encode_refuses_a_planted_nan(self):
        lat = chain(8)
        req = request(lat, [0.6, 0.8], [2, 2])
        off = sorted(set(range(256)) - set(_step_support(req, 1, 2).tolist()))[0]
        seen = []

        def plant(rec, state):
            seen.append((rec.level, rec.step, rec.fidelity))
            if (rec.level, rec.step) == (1, 2):
                state.amps[off] = np.nan

        with pytest.raises(PreconditionError):
            encode(source_state(lat, 0, [0.6, 0.8]), req, on_step=plant)
        # nothing was recorded once the NaN was in the state
        assert [rec[:2] for rec in seen] == [(0, 1), (1, 2)]


class TestNormReads:
    """A run reads the state's norm once per step, after the step's last op;
    the ops before it leave their outputs unchecked."""

    def test_one_validation_per_step(self, monkeypatch):
        # a warm chain20 transfer: 18 steps of 57 ops, 18 norm reads
        lat, req, _machine = _fused_machine("chain20")
        state = source_state(lat, 0, [0.6, 0.8])

        def transfer():
            return state_transfer(state, 0, lat.n_sites - 1, req.region, req.plan,
                                  lattice=lat)

        transfer()  # compiles both machines, whose block builds validate scratch states
        reads = []
        post_init = StateVector.__post_init__

        def counted(self):
            reads.append(self.amps.size)
            post_init(self)

        monkeypatch.setattr(StateVector, "__post_init__", counted)
        _, trace = transfer()
        assert trace.final_fidelity >= FIDELITY_BAR
        assert len(reads) == len(trace.records) == 18
        ops = sum(len(step[-1]) for c in (0, lat.n_sites - 1)
                  for step in _fused_machine("chain20", c)[2].steps)
        assert ops > 3 * len(reads)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("verify", [True, False], ids=["verify", "noverify"])
    @pytest.mark.parametrize("inverse", [False, True], ids=["encode", "decode"])
    def test_value_planted_mid_step_fails_the_step(self, monkeypatch, value, verify, inverse):
        # the value goes into the unchecked output of the first op of the first
        # step of several ops after the first step; it carries through the
        # step's later ops into the one norm read, which refuses the step
        # before it is recorded
        lat, req, machine = _fused_machine("chain16")
        steps = _inverse_steps(machine) if inverse else machine.steps
        multi = next(i for i in range(1, len(steps)) if len(steps[i][-1]) > 1)
        planted_call = sum(len(step[-1]) for step in steps[:multi])
        start = source_state(lat, 0, req.coefficients)
        if inverse:
            start, _ = encode(start, req, verify=False)
        calls = []
        for name in ("apply_gate", "apply_controlled_increment", "evolve_phase"):
            def planted(*args, _kernel=getattr(protocol, name)):
                calls.append(args[-1])  # whether the kernel reads its output's norm
                out = _kernel(*args)
                if len(calls) == planted_call + 1:
                    out.amps[len(out.amps) // 3] = value
                return out
            monkeypatch.setattr(protocol, name, planted)
        seen = []
        run = decode if inverse else encode
        with pytest.raises(PreconditionError, match="norm"):
            run(start, req, verify=verify, on_step=lambda rec, _s: seen.append(rec))
        assert len(seen) == multi
        # one read per step: the planted op's output went unread, the refusal
        # came from the step's last op
        assert calls.count(True) == multi + 1
        assert len(calls) == planted_call + len(steps[multi][-1])
        assert calls[planted_call] is False and calls[-1] is True
        if verify:
            assert all(rec.fidelity >= FIDELITY_BAR for rec in seen)


    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("verify", [True, False], ids=["verify", "noverify"])
    @pytest.mark.parametrize("inverse", [False, True], ids=["encode", "decode"])
    def test_value_planted_between_steps_fails_the_next(self, value, verify, inverse):
        # a value planted through on_step after the first step: the kernels
        # that multiply it (inf * 0 is NaN) raise no RuntimeWarning, even with
        # warnings as errors, and the next step's norm read refuses it
        lat, req, _machine = _fused_machine("chain16")
        start = source_state(lat, 0, req.coefficients)
        if inverse:
            start, _ = encode(start, req, verify=False)
        seen = []

        def plant(rec, state):
            seen.append(rec)
            if len(seen) == 1:
                state.amps[len(state.amps) // 3] = value

        run = decode if inverse else encode
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="norm"):
                run(start, req, verify=verify, on_step=plant)
        assert len(seen) == 1


class TestWorkingBuffers:
    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    def test_full_size_allocations(self, monkeypatch, hooked):
        # an encode and a decode each allocate their two working buffers; a
        # hook takes each step's state, so the next op allocates a fresh one
        lat, req, _machine = _fused_machine("chain20")
        state = source_state(lat, 0, req.coefficients)
        sizes = []
        empty_like = np.empty_like

        def counted(*args, **kwargs):
            out = empty_like(*args, **kwargs)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(np, "empty_like", counted)
        hook = (lambda rec, s: None) if hooked else None
        mid, _ = encode(state, req, on_step=hook)
        decode(mid, req, on_step=hook)
        full = sizes.count(state.amps.size)
        assert full <= 20 if hooked else full == 4


class TestInputsUntouched:
    """encode, decode and state_transfer run on their own working buffers and
    never write into the caller's input."""

    @pytest.mark.parametrize("name", ["chain16", "grid4x4_base", "qutrit8"])
    @pytest.mark.parametrize("verify", [True, False])
    def test_input_bit_identical(self, name, verify):
        lat, req, _machine = _fused_machine(name)
        q, last = lat.levels, lat.n_sites - 1
        v = np.arange(1, q + 1) * np.exp(1j * np.arange(q))
        v = v / np.linalg.norm(v)
        req = EncodeRequest(lat, req.region, 0, v, req.plan)
        state = source_state(lat, 0, v)
        kept = state.amps.copy()
        mid, _ = encode(state, req, verify=verify)
        assert np.array_equal(state.amps, kept)
        kept_mid = mid.amps.copy()
        back, _ = decode(mid, req, verify=verify)
        assert np.array_equal(mid.amps, kept_mid)
        assert np.max(np.abs(back.amps - kept)) <= 1e-12
        out, _ = state_transfer(state, 0, last, req.region, req.plan, lattice=lat,
                                verify=verify)
        assert np.array_equal(state.amps, kept)
        assert fidelity(out, source_state(lat, last, v)) >= FIDELITY_BAR


class TestStateShape:
    """Every run refuses a state whose sites or levels are not the lattice's,
    with verify on or off, before it reads a coefficient or applies an op."""

    SHAPES = {"6-sites": chain(6), "10-sites": chain(10), "q3": chain(8, q=3)}

    @pytest.mark.parametrize("verify", [True, False], ids=["verify", "no-verify"])
    @pytest.mark.parametrize("kind", ["encode", "decode", "transfer"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_refused(self, shape, kind, verify):
        lat, other = chain(8), self.SHAPES[shape]
        coeffs = [0.6, 0.8, 0.0][:other.levels]
        # the start state each run expects, laid out on the other shape
        state = (expected_ghz(other.full_region(), other, coeffs) if kind == "decode"
                 else source_state(other, min(7, other.n_sites - 1) if kind == "transfer"
                                   else 0, coeffs))
        req = request(lat, [0.6, 0.8], [2, 2])
        with pytest.raises(PreconditionError, match="does not fit the lattice"):
            if kind == "transfer":  # from site 7, as the 8-site lattice numbers it
                state_transfer(state, 7, 0, lat.full_region(), req.plan, lattice=lat,
                               verify=verify)
            else:
                (encode if kind == "encode" else decode)(state, req, verify=verify)


class TestStrayMassGuard:
    """encode refuses weight off |0> on the region's other sites, decode
    refuses weight outside the GHZ-like span; both at 1e-10 stray mass."""

    CASES = [(chain(8), [2, 2], 2.5), (LatticeSpec(2, 4), [2], 4.5)]

    @staticmethod
    def with_stray(state, eps):
        # move mass eps onto site 3 at level 1, every other site at level 0
        amps = state.amps * math.sqrt(1 - eps)
        assert amps[2**3] == 0
        amps[2**3] = math.sqrt(eps)
        return StateVector(state.q, state.n, amps)

    @pytest.mark.parametrize("lat,forced,alpha", CASES)
    def test_encode_guard(self, lat, forced, alpha):
        req = request(lat, [0.6, 0.8], forced, alpha=alpha)
        clean = source_state(lat, 0, [0.6, 0.8])
        with pytest.raises(StatePreconditionError):
            encode(self.with_stray(clean, 1e-9), req, verify=False)
        encode(self.with_stray(clean, 1e-12), req, verify=False)

    @pytest.mark.parametrize("lat,forced,alpha", CASES)
    def test_decode_guard(self, lat, forced, alpha):
        req = request(lat, [0.6, 0.8], forced, alpha=alpha)
        ghz = expected_ghz(lat.full_region(), lat, [0.6, 0.8])
        with pytest.raises(StatePreconditionError):
            decode(self.with_stray(ghz, 1e-9), req, verify=False)
        decode(self.with_stray(ghz, 1e-12), req, verify=False)


def _encode_rss_child(n: int, forced: list[int], verify: bool = True,
                      target: int | None = None, from_input: bool = False,
                      q: int = 2, r0: int = 2) -> str:
    """Script that encodes 0.6|0> + 0.8i|1> into an n-site chain of q levels,
    or transfers it from site 0 to ``target``, printing its peak-RSS growth
    over the run, or with ``from_input`` over the input's build and the run."""
    if target is None:
        call = f"encode(state, req, verify={verify})"
    else:
        call = (f"state_transfer(state, 0, {target}, lat.full_region(), req.plan, "
                f"lattice=lat, verify={verify})")
    check = "trace.final_fidelity >= 1 - 1e-9" if verify else "trace.final_fidelity is None"
    return f"""
import numpy as np
from ghzlattice import LatticeSpec, basis_vector, init_product, plan
from ghzlattice.protocol import EncodeRequest, encode, state_transfer
lat = LatticeSpec(1, {n}, {q})
coeffs = np.zeros({q}, dtype=complex)
coeffs[:2] = [0.6, 0.8j]
states = [basis_vector({q}, 0)] * {n}
states[0] = coeffs
{"before = peak_rss()" if from_input else ""}
state = init_product(lat, states)
req = EncodeRequest(lat, lat.full_region(), 0, coeffs,
                    plan(2.5, 1, {n}, r0={r0}, q={q}, forced_m={forced}))
{"" if from_input else "before = peak_rss()"}
_, trace = {call}
after = peak_rss()
assert {check}
print(after - before)
"""


_ENCODE_RSS_CHILD = _encode_rss_child(20, [2, 5])


@pytest.mark.skipif(sys.platform != "linux", reason="peak_rss reads VmHWM from /proc")
def test_encode_peak_memory_2_20(rss_growth):
    """A 2^20 encode grows its process's peak RSS by at most 6 states (16 MiB
    each): merge phases hold only the masked axes, stray-mass checks read
    slices of the state, and no full-size index array is built."""
    assert rss_growth(_ENCODE_RSS_CHILD) <= 6 * 16 * 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="peak_rss reads VmHWM from /proc")
def test_encode_peak_memory_2_22(rss_growth):
    """The 2^22 encode (64 MiB states) also stays within 6 states of peak-RSS growth."""
    assert rss_growth(_encode_rss_child(22, [11])) <= 6 * 64 * 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="peak_rss reads VmHWM from /proc")
def test_transfer_verify_memory_2_22(rss_growth):
    """Verification adds at most 5% to the peak-RSS growth of a 2^22 transfer:
    it gathers each step's few thousand support amplitudes and builds no dense
    expected state."""
    off, on = (rss_growth(_encode_rss_child(22, [11], verify=v, target=21))
               for v in (False, True))
    assert on <= 1.05 * off, (on, off)


@pytest.mark.skipif(sys.platform != "linux", reason="peak_rss reads VmHWM from /proc")
def test_transfer_peak_memory_2_22(rss_growth):
    """A verified 2^22 transfer grows peak RSS by at most 3 states (64 MiB
    each): its ops ping-pong between two working buffers, decode reuses the
    encoded intermediate, and no full-size phase vector is cached."""
    assert rss_growth(_encode_rss_child(22, [11], target=21)) <= 3 * 64 * 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="peak_rss reads VmHWM from /proc")
@pytest.mark.parametrize("n,forced", [(20, [2, 5]), (22, [11])])
def test_transfer_peak_within_predicted_working_set(rss_growth, n, forced):
    """A verified transfer's peak-RSS growth, counted from before its input is
    built, stays within the working set check_capacity predicts plus one fixed
    overhead of 48 MiB: the interpreter's and the BLAS threads' own buffers."""
    growth = rss_growth(_encode_rss_child(n, forced, target=n - 1, from_input=True))
    assert growth <= simulator.check_capacity(chain(n)) + 48 * 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="peak_rss reads VmHWM from /proc")
def test_two_site_transfer_peak_within_predicted_working_set(rss_growth):
    """On two sites of 1024 levels the q-level builds outweigh the 2^20
    amplitudes of each state; a verified transfer still stays within the
    prediction, now their q**2 term, plus the fixed 48 MiB."""
    growth = rss_growth(_encode_rss_child(2, [2], target=1, from_input=True, q=1024, r0=1))
    assert growth <= simulator.check_capacity(chain(2, q=1024)) + 48 * 2**20


class TestMemoryBudget:
    """Every run asks check_capacity before it allocates a working buffer, so
    a state built directly, without init_product, is refused too."""

    LAT = chain(4)

    @pytest.fixture(autouse=True)
    def lowered_budget(self, monkeypatch):
        # the 4-site chain needs one byte more than the budget; any working
        # buffer allocated before the refusal fails the test
        monkeypatch.setattr(simulator, "_MEMORY_BUDGET", simulator.check_capacity(self.LAT) - 1)

        def no_buffer(*args, **kwargs):
            raise AssertionError("a working buffer was allocated")
        monkeypatch.setattr(np, "empty_like", no_buffer)

    def amps(self, *levels):
        """0.6|levels[0]> + 0.8|levels[1]> over the 4 sites, as flat indices."""
        v = np.zeros(16, dtype=complex)
        v[list(levels)] = [0.6, 0.8]
        return StateVector(2, 4, v)

    def test_encode(self):
        req = request(self.LAT, [0.6, 0.8], [2])
        with pytest.raises(MemoryCapError):
            encode(self.amps(0, 1), req)

    def test_decode(self):
        req = request(self.LAT, [0.6, 0.8], [2])
        with pytest.raises(MemoryCapError):
            decode(self.amps(0, 15), req)

    def test_state_transfer(self):
        p = plan(2.5, 1, 4, forced_m=[2])
        with pytest.raises(MemoryCapError):
            state_transfer(self.amps(0, 1), 0, 3, self.LAT.full_region(), p)


# (d, q, r0, forced_m) with at most 2**12 amplitudes
SMALL_SHAPES = [
    (d, q, r0, list(ms))
    for d in (1, 2)
    for q in (2, 3)
    for r0 in (1, 2, 3)
    for k in (1, 2, 3)
    for ms in itertools.product((2, 3, 4), repeat=k)
    if q ** ((r0 * math.prod(ms)) ** d) <= 1 << 12
]


@st.composite
def transfer_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    q = draw(st.sampled_from([2, 3]))
    _, _, r0, forced = draw(st.sampled_from(
        [shape for shape in SMALL_SHAPES if shape[:2] == (d, q)]))
    side = r0 * math.prod(forced)
    lat = LatticeSpec(d, side, q)
    p = plan(2.5 if d == 1 else 4.5, d, side, r0=r0, forced_m=forced, q=q)
    source = draw(st.integers(0, lat.n_sites - 1))
    target = draw(st.integers(0, lat.n_sites - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    return lat, p, source, target, v / np.linalg.norm(v)


class TestStreamProperties:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(transfer_cases())
    def test_transfer_and_roundtrip(self, case):
        lat, p, source, target, v = case
        state = source_state(lat, source, v)
        out, trace = state_transfer(state, source, target, lat.full_region(), p,
                                    lattice=lat, verify=True)
        assert all(rec.fidelity >= FIDELITY_BAR for rec in trace.records)
        assert fidelity(out, source_state(lat, target, v)) >= FIDELITY_BAR
        req = EncodeRequest(lat, lat.full_region(), source, v, p)
        mid, _ = encode(state, req, verify=False)
        back, _ = decode(mid, req, verify=False)
        assert np.max(np.abs(back.amps - state.amps)) <= 1e-12

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(transfer_cases(), st.integers(0, 2**32 - 1))
    def test_encode_linear_and_isometric(self, case, seed):
        lat, p, source, _, v = case
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(lat.levels) + 1j * rng.standard_normal(lat.levels)
        w /= np.linalg.norm(w)
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        scale = np.linalg.norm(a * v + b * w)
        a, b = a / scale, b / scale  # a*v + b*w is a unit vector

        def enc(coeffs):
            req = EncodeRequest(lat, lat.full_region(), source, coeffs, p)
            return encode(source_state(lat, source, coeffs), req, verify=False)[0].amps

        ex, ey = enc(v), enc(w)
        assert np.max(np.abs(enc(a * v + b * w) - (a * ex + b * ey))) <= 1e-12
        assert abs(np.vdot(ex, ey) - np.vdot(v, w)) <= 1e-12
