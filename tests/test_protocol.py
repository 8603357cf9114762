import io
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghzlattice.protocol as protocol

from ghzlattice.errors import (
    OutOfBoundsError,
    PlanMismatchError,
    PreconditionError,
    StatePreconditionError,
)
from ghzlattice.geometry import LatticeSpec, Region, partition, site_mask
from ghzlattice.protocol import (
    EncodeRequest,
    decode,
    encode,
    expected_states,
    state_transfer,
    verify_step,
)
from ghzlattice.scheduler import merge_duration, plan
from ghzlattice.simulator import (
    PhaseCoupling,
    StateVector,
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


def haar_qubit(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


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
        assert trace.elapsed_sum() == pytest.approx(req.plan.t_total, rel=1e-12)
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

    def test_trace_serialization(self):
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        _, trace = encode(source_state(lat, 0, [0.6, 0.8]), req)
        payload = json.loads(json.dumps(trace.to_dict()))
        assert payload["total_time"] == trace.total_time
        assert len(payload["records"]) == len(trace.records)
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "step,level,inverse,time,fidelity"
        assert len(lines) == 1 + len(trace.records)


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
        want = expected_ghz(region, lat, [0.6, 0.8], rest={4: basis_vector(2, 1)})
        assert fidelity(out, want) >= FIDELITY_BAR


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


class TestVerifyStep:
    def test_a_branch_after_merge(self):
        # with (a, b) = (1, 0) nothing acquires a phase: fidelity 1 after step 2
        lat = chain(4)
        req = request(lat, [1.0, 0.0], [2])
        captured = {}
        encode(source_state(lat, 0, [1.0, 0.0]), req,
               on_step=lambda rec, s: captured.setdefault((rec.level, rec.step), s))
        fid = verify_step(captured[(1, 2)], 1, 2, req)
        assert fid >= 1 - 1e-12

    def test_after_step4(self):
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        captured = {}
        encode(source_state(lat, 0, [0.6, 0.8]), req,
               on_step=lambda rec, s: captured.setdefault((rec.level, rec.step), s))
        assert verify_step(captured[(1, 4)], 1, 4, req) >= FIDELITY_BAR

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
        fid = verify_step(half, 1, 2, req)
        want = abs(0.36 + 0.64 * (1 + 1j) / 2) ** 2
        assert fid == pytest.approx(want, abs=1e-9)
        assert fid < 1 - 1e-3

    def test_unknown_step(self):
        lat = chain(4)
        req = request(lat, [0.6, 0.8], [2])
        builder = expected_states(req)
        with pytest.raises(PreconditionError):
            builder.after(1, 7)

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
        from ghzlattice.protocol import _Machine

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

    def test_hadamard_mode_needs_q2(self):
        lat = chain(4, q=3)
        req = request(lat, np.ones(3) / math.sqrt(3), [2])
        with pytest.raises(PreconditionError):
            encode(source_state(lat, 0, np.ones(3) / math.sqrt(3)), req,
                   gate_mode="hadamard")


class TestRequestValidation:
    def test_nan_coefficients_rejected(self):
        with pytest.raises(PreconditionError):
            request(chain(4), [np.nan, 1.0], [2])


class TestCompiledStream:
    def test_kernel_calls_per_run(self, monkeypatch):
        # the 16-chain stream: 42 gates, 64 controlled increments and 21
        # phases, the same each way; counted through the names the runner
        # looks up in ghzlattice.protocol
        calls = Counter()
        for name in ("apply_gate", "apply_controlled_increment", "evolve_phase"):
            def counted(*args, _name=name, _kernel=getattr(protocol, name)):
                calls[_name] += 1
                return _kernel(*args)
            monkeypatch.setattr(protocol, name, counted)
        lat = chain(16)
        req = request(lat, [0.6, 0.8], [2, 2, 2])
        want = {"apply_gate": 42, "apply_controlled_increment": 64, "evolve_phase": 21}
        mid, _ = encode(source_state(lat, 0, [0.6, 0.8]), req, verify=False)
        assert calls == want
        calls.clear()
        decode(mid, req, verify=False)
        assert calls == want


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


_ENCODE_RSS_CHILD = """
import resource
import numpy as np
from ghzlattice import LatticeSpec, basis_vector, init_product, plan
from ghzlattice.protocol import EncodeRequest, encode
lat = LatticeSpec(1, 20)
coeffs = np.array([0.6, 0.8j])
states = [basis_vector(2, 0)] * 20
states[0] = coeffs
state = init_product(lat, states)
req = EncodeRequest(lat, lat.full_region(), 0, coeffs,
                    plan(2.5, 1, 20, r0=2, forced_m=[2, 5]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_, trace = encode(state, req)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert trace.final_fidelity >= 1 - 1e-9
print((after - before) * 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_encode_peak_memory_2_20():
    """A 2^20 encode grows its process's peak RSS by at most 6 states (16 MiB
    each): merge phases hold only the masked axes, stray-mass checks read
    slices of the state, and no full-size index array is built."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _ENCODE_RSS_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 6 * 16 * 2**20


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
