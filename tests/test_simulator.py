import io
import math
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from ghzlattice.errors import MemoryCapError, OutOfBoundsError, PreconditionError
from ghzlattice.geometry import LatticeSpec, Region, site_mask
from ghzlattice.simulator import (
    Gate,
    PhaseCoupling,
    StateVector,
    apply_controlled_increment,
    apply_gate,
    basis_vector,
    check_capacity,
    dft_matrix,
    dump_amplitudes,
    evolve_phase,
    expected_ghz,
    fidelity,
    hadamard_matrix,
    init_product,
    write_amplitudes_csv,
    zero_state,
)

RNG = np.random.default_rng(20240817)


def random_state(q, n, rng=RNG):
    v = rng.standard_normal(q**n) + 1j * rng.standard_normal(q**n)
    return StateVector(q, n, v / np.linalg.norm(v))


def dense_coupling_hamiltonian(coupling, q, n):
    """Independent oracle: assemble J * sum_j sum_{mu,nu} N_mu N_nu as a dense
    matrix from explicit single-site operators (N = diag(0..q-1), little-endian
    kron order), with no shared code with evolve_phase."""
    levels = np.diag(np.arange(q).astype(complex))
    eye = np.eye(q, dtype=complex)
    dim = q**n
    ham = np.zeros((dim, dim), dtype=complex)
    for tmask in coupling.target_masks:
        for mu in coupling.control_mask:
            for nu in tmask:
                mats = [eye] * n
                mats[int(mu)] = levels
                mats[int(nu)] = levels
                term = reduce(np.kron, [mats[s] for s in reversed(range(n))])
                ham += coupling.strength * term
    return ham


class TestInitProduct:
    def test_all_zero(self):
        state = init_product(LatticeSpec(1, 2), [basis_vector(2, 0)] * 2)
        assert state.amps[0] == 1.0 and np.all(state.amps[1:] == 0)

    def test_single_site(self):
        state = init_product(LatticeSpec(1, 1), [np.array([0.6, 0.8])])
        assert np.allclose(state.amps, [0.6, 0.8])

    def test_base3_little_endian(self):
        # site 0 at level 1, site 1 at level 2 -> flat index 1 + 2*3 = 7
        state = init_product(
            LatticeSpec(1, 2, levels=3), [basis_vector(3, 1), basis_vector(3, 2)]
        )
        assert state.amps[7] == 1.0
        assert np.sum(np.abs(state.amps)) == 1.0

    def test_unnormalized_rejected(self):
        with pytest.raises(PreconditionError):
            init_product(LatticeSpec(1, 1), [np.array([1.0, 1.0])])

    def test_nan_site_rejected(self):
        with pytest.raises(PreconditionError):
            init_product(LatticeSpec(1, 1), [np.array([np.nan, 1.0])])

    def test_nan_statevector_rejected(self):
        with pytest.raises(PreconditionError):
            StateVector(2, 1, np.array([np.nan, 1.0]))


class TestGates:
    def test_hadamard_on_plus(self):
        plus = StateVector(2, 1, np.array([1, 1]) / math.sqrt(2))
        out = apply_gate(plus, Gate(hadamard_matrix(), 0))
        assert abs(out.amps[0] - 1) < 1e-15 and abs(out.amps[1]) < 1e-15

    def test_hadamard_involution(self):
        state = random_state(2, 4)
        gate = Gate(hadamard_matrix(), 2)
        out = apply_gate(apply_gate(state, gate), gate)
        assert fidelity(out, state) == pytest.approx(1.0, abs=1e-13)

    def test_dft3_on_zero(self):
        state = apply_gate(zero_state(LatticeSpec(1, 1, 3)), Gate(dft_matrix(3), 0))
        assert np.allclose(state.amps, np.ones(3) / math.sqrt(3), atol=1e-15)

    def test_dft2_bitwise_hadamard(self):
        assert np.array_equal(dft_matrix(2), hadamard_matrix())

    def test_dft_unitary(self):
        for q in (2, 3, 4, 5, 7):
            f = dft_matrix(q)
            assert np.max(np.abs(f.conj().T @ f - np.eye(q))) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(PreconditionError):
            Gate(np.array([[1, 0], [1, 1]], dtype=complex), 0)

    def test_site_out_of_range(self):
        state = zero_state(LatticeSpec(1, 2))
        with pytest.raises(OutOfBoundsError):
            apply_gate(state, Gate(hadamard_matrix(), 5))

    def test_every_site_position(self):
        # the three contraction layouts agree with the kron-built matrix
        state = random_state(2, 9)
        h = hadamard_matrix()
        eye = np.eye(2, dtype=complex)
        for site in range(9):
            mats = [h if s == site else eye for s in reversed(range(9))]
            full = reduce(np.kron, mats)
            got = apply_gate(state, Gate(h, site))
            assert np.allclose(got.amps, full @ state.amps, atol=1e-12)


class TestControlledIncrement:
    def test_cnot_fanout(self):
        state = init_product(
            LatticeSpec(1, 2), [np.array([0.6, 0.8]), basis_vector(2, 0)]
        )
        out = apply_controlled_increment(state, 0, 1)
        assert out.amps[0] == pytest.approx(0.6)
        assert out.amps[3] == pytest.approx(0.8)

    def test_q3_wraparound(self):
        lat = LatticeSpec(1, 2, 3)
        state = init_product(lat, [basis_vector(3, 2), basis_vector(3, 2)])
        out = apply_controlled_increment(state, 0, 1)
        # |2>|2> -> |2>|1>: flat 2 + 1*3 = 5
        assert out.amps[5] == 1.0

    def test_cnot_11(self):
        state = init_product(LatticeSpec(1, 2), [basis_vector(2, 1)] * 2)
        out = apply_controlled_increment(state, 0, 1)
        assert out.amps[1] == 1.0  # |1>|0>

    def test_q_applications_identity(self):
        for q in (2, 3):
            state = random_state(q, 3)
            out = state
            for _ in range(q):
                out = apply_controlled_increment(out, 2, 0)
            assert np.allclose(out.amps, state.amps, atol=1e-13)

    def test_inverse(self):
        state = random_state(3, 3)
        out = apply_controlled_increment(state, 1, 2)
        back = apply_controlled_increment(out, 1, 2, inverse=True)
        assert np.allclose(back.amps, state.amps, atol=1e-14)

    def test_control_equals_target(self):
        with pytest.raises(PreconditionError):
            apply_controlled_increment(random_state(2, 2), 1, 1)


class TestEvolvePhase:
    def coupling_2x2(self):
        return PhaseCoupling(
            control_mask=np.array([0, 1]),
            target_masks=(np.array([2, 3]),),
            strength=1.0,
        )

    def test_pi_on_all_ones(self):
        # duration * J * w_c * w_t = pi on the |1111> block flips its sign
        state = random_state(2, 4)
        out = evolve_phase(state, self.coupling_2x2(), math.pi / 4)
        assert out.amps[0b1111] == pytest.approx(-state.amps[0b1111], abs=1e-14)

    def test_zero_control_weight_unchanged(self):
        state = random_state(2, 4)
        out = evolve_phase(state, self.coupling_2x2(), 0.7183)
        for idx in (0b0000, 0b0100, 0b1100):  # sites 0,1 at level 0
            assert out.amps[idx] == state.amps[idx]

    def test_qudit_level_weights(self):
        # q=3, single control and target both at level 2: weight 4, so
        # duration * J = pi/4 gives phase exp(-i pi) = -1
        lat = LatticeSpec(1, 2, 3)
        state = init_product(lat, [basis_vector(3, 2), basis_vector(3, 2)])
        coupling = PhaseCoupling(np.array([0]), (np.array([1]),), strength=1.0)
        out = evolve_phase(state, coupling, math.pi / 4)
        assert out.amps[8] == pytest.approx(-1.0, abs=1e-14)

    def test_semigroup(self):
        state = random_state(2, 5)
        coup = PhaseCoupling(np.array([0, 1]), (np.array([2]), np.array([3, 4])), 0.37)
        one = evolve_phase(evolve_phase(state, coup, 0.21), coup, 0.54)
        two = evolve_phase(state, coup, 0.75)
        assert np.max(np.abs(one.amps - two.amps)) < 1e-12

    def test_commutes_with_outside_gate(self):
        state = random_state(2, 5)
        coup = PhaseCoupling(np.array([0, 1]), (np.array([2, 3]),), 0.9)
        gate = Gate(hadamard_matrix(), 4)  # outside both masks
        a = apply_gate(evolve_phase(state, coup, 0.61), gate)
        b = evolve_phase(apply_gate(state, gate), coup, 0.61)
        assert np.max(np.abs(a.amps - b.amps)) < 1e-13

    def test_backward_evolution_inverts(self):
        state = random_state(3, 3)
        coup = PhaseCoupling(np.array([0]), (np.array([1]), np.array([2])), 0.44)
        out = evolve_phase(evolve_phase(state, coup, 1.3), coup, -1.3)
        assert np.max(np.abs(out.amps - state.amps)) < 1e-13

    @pytest.mark.parametrize("q,n,masks", [
        (2, 3, ([0], [[1], [2]])),
        (2, 4, ([0, 1], [[2, 3]])),
        (3, 3, ([0], [[1, 2]])),
        (3, 4, ([0, 1], [[2], [3]])),
    ])
    def test_matches_expm_oracle(self, q, n, masks):
        control, targets = masks
        coup = PhaseCoupling(
            np.array(control), tuple(np.array(t) for t in targets), 0.313
        )
        ham = dense_coupling_hamiltonian(coup, q, n)
        for duration in (0.5, 2.33):
            state = random_state(q, n)
            want = expm(-1j * duration * ham) @ state.amps
            got = evolve_phase(state, coup, duration)
            assert np.max(np.abs(got.amps - want)) < 1e-10

    @staticmethod
    def digit_oracle(state, coupling, duration):
        """Independent oracle: the weight w_c * w_t of every flat index from
        full int64 base-q digit vectors, exponentiated through one table."""
        q, n = state.q, state.n
        idx = np.arange(q**n, dtype=np.int64)
        w_c = np.zeros(q**n, dtype=np.int64)
        for s in coupling.control_mask:
            w_c += (idx // q ** int(s)) % q
        w_t = np.zeros(q**n, dtype=np.int64)
        for tmask in coupling.target_masks:
            for s in tmask:
                w_t += (idx // q ** int(s)) % q
        w = w_c * w_t
        table = np.exp((-1j * duration * coupling.strength) * np.arange(int(w.max()) + 1))
        phases = table[w]  # named, so numpy cannot reuse it as the output and
        return state.amps * phases  # swap the operands of the complex product

    @pytest.mark.parametrize("q,n", [(2, 11), (3, 7), (4, 6)])
    def test_bitwise_digit_oracle_random_couplings(self, q, n):
        rng = np.random.default_rng(q * 100 + n)
        for _ in range(12):
            sites = rng.permutation(n)
            n_ctrl = int(rng.integers(1, n // 2))
            n_tgt = int(rng.integers(1, n - n_ctrl + 1))
            cuts = sorted(rng.choice(np.arange(1, n_tgt), size=min(2, n_tgt - 1),
                                     replace=False).tolist()) if n_tgt > 1 else []
            tgt_sites = sites[n_ctrl:n_ctrl + n_tgt]
            targets = tuple(np.sort(t) for t in np.split(tgt_sites, cuts))
            coup = PhaseCoupling(np.sort(sites[:n_ctrl]), targets, float(rng.uniform(0.01, 1)))
            state = random_state(q, n, rng)
            for duration in (float(rng.uniform(0.1, 5)), -float(rng.uniform(0.1, 5))):
                for _warm in range(2):  # cold build, then the cached block
                    got = evolve_phase(state, coup, duration)
                    assert np.array_equal(got.amps, self.digit_oracle(state, coup, duration))
            n_masked = n_ctrl + n_tgt
            assert all(block.size == q**n_masked
                       for block in coup.__dict__["_phase_cache"].values())

    @pytest.mark.parametrize("q", [2, 3])
    def test_bitwise_digit_oracle_2d_masks(self, q):
        lat = LatticeSpec(2, 4, q) if q == 2 else LatticeSpec(2, 3, q)
        half = lat.side // 2 or 1
        control = site_mask(Region((0, 0), half), lat)
        targets = (site_mask(Region((half, half), half), lat),
                   site_mask(Region((0, half), half), lat))
        coup = PhaseCoupling(control, targets, 0.37)
        state = random_state(q, lat.n_sites)
        for duration in (1.7, -0.9):
            got = evolve_phase(state, coup, duration)
            assert np.array_equal(got.amps, self.digit_oracle(state, coup, duration))

    def test_masks_must_be_disjoint(self):
        with pytest.raises(PreconditionError):
            PhaseCoupling(np.array([0, 1]), (np.array([1, 2]),), 1.0)

    def test_power_law_legality(self):
        lat = LatticeSpec(1, 4)
        legal = PhaseCoupling(
            np.array([0, 1]), (np.array([2, 3]),), strength=1.0 / 4.0**2.5
        )
        legal.check_power_law(lat, 2.5)  # diameter bound 4: fine
        illegal = PhaseCoupling(np.array([0, 1]), (np.array([2, 3]),), strength=0.2)
        with pytest.raises(PreconditionError):
            illegal.check_power_law(lat, 2.5)  # pair (0,3) at distance 3


class TestNormPreservation:
    def test_random_operation_stream(self):
        # 1e5 random operations, norm stays within 1e-10 of 1 after each
        rng = np.random.default_rng(99)
        q, n = 2, 8
        state = random_state(q, n, rng)
        gates = [hadamard_matrix(), dft_matrix(2)]
        couplings = [
            PhaseCoupling(np.array([0, 1]), (np.array([4, 5]),), 0.3),
            PhaseCoupling(np.array([2]), (np.array([6]), np.array([7])), 0.8),
        ]
        kinds = rng.integers(0, 3, size=100_000)
        sites = rng.integers(0, n, size=(100_000, 2))
        for kind, (s1, s2) in zip(kinds, sites):
            if kind == 0:
                state = apply_gate(state, Gate(gates[s1 % 2], int(s1)))
            elif kind == 1:
                if s1 == s2:
                    continue
                state = apply_controlled_increment(state, int(s1), int(s2))
            else:
                state = evolve_phase(state, couplings[s1 % 2], float(s2) / 3)
            # StateVector construction enforces the 1e-10 norm invariant; make
            # the check explicit anyway
            assert abs(state.norm2() - 1.0) < 1e-10


class TestFidelity:
    def test_self(self):
        state = random_state(2, 3)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal(self):
        a = zero_state(LatticeSpec(1, 1))
        b = StateVector(2, 1, np.array([0.0, 1.0]))
        assert fidelity(a, b) == 0.0

    def test_half(self):
        a = zero_state(LatticeSpec(1, 1))
        plus = StateVector(2, 1, np.array([1.0, 1.0]) / math.sqrt(2))
        assert fidelity(a, plus) == pytest.approx(0.5, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(PreconditionError):
            fidelity(random_state(2, 2), random_state(2, 3))

    def test_nan_state_is_not_perfect(self):
        state = random_state(2, 3)
        broken = random_state(2, 3)
        broken.amps[:] = np.nan  # mutated after validation
        assert not fidelity(state, broken) == 1.0
        assert math.isnan(fidelity(state, broken))


class TestExpectedGhz:
    def test_zero_branch(self):
        lat = LatticeSpec(1, 3)
        state = expected_ghz(lat.full_region(), lat, [1.0, 0.0])
        assert state.amps[0] == 1.0

    def test_symmetric(self):
        lat = LatticeSpec(1, 3)
        state = expected_ghz(lat.full_region(), lat, np.array([1, 1]) / math.sqrt(2))
        assert state.amps[0] == pytest.approx(1 / math.sqrt(2))
        assert state.amps[7] == pytest.approx(1 / math.sqrt(2))
        assert np.sum(np.abs(state.amps) > 0) == 2

    def test_qutrit(self):
        lat = LatticeSpec(1, 2, 3)
        state = expected_ghz(lat.full_region(), lat, np.ones(3) / math.sqrt(3))
        for idx in (0, 4, 8):  # |00>, |11>, |22>
            assert state.amps[idx] == pytest.approx(1 / math.sqrt(3))

    def test_subregion_with_background(self):
        lat = LatticeSpec(1, 3)
        region = Region((0,), 2)
        plus = np.array([1, 1]) / math.sqrt(2)
        state = expected_ghz(region, lat, [0.6, 0.8], rest={2: plus})
        # site 2 in |+>, GHZ over sites 0,1
        assert state.amps[0b000] == pytest.approx(0.6 / math.sqrt(2))
        assert state.amps[0b100] == pytest.approx(0.6 / math.sqrt(2))
        assert state.amps[0b011] == pytest.approx(0.8 / math.sqrt(2))
        assert state.amps[0b111] == pytest.approx(0.8 / math.sqrt(2))

    def test_unnormalized_rejected(self):
        lat = LatticeSpec(1, 2)
        with pytest.raises(PreconditionError):
            expected_ghz(lat.full_region(), lat, [1.0, 1.0])

    def test_nan_rejected(self):
        lat = LatticeSpec(1, 2)
        with pytest.raises(PreconditionError):
            expected_ghz(lat.full_region(), lat, [np.nan, 1.0])


class TestCapacityAndDump:
    def test_refusal(self):
        with pytest.raises(MemoryCapError):
            zero_state(LatticeSpec(1, 27))  # 2**27 > default cap

    def test_refusal_without_materializing(self):
        with pytest.raises(MemoryCapError):
            check_capacity(2, 10**9)

    def test_custom_cap(self):
        with pytest.raises(MemoryCapError):
            zero_state(LatticeSpec(1, 4), max_amps=8)
        assert zero_state(LatticeSpec(1, 4), max_amps=16).amps.size == 16

    def test_dump_rows(self):
        lat = LatticeSpec(1, 3)
        state = expected_ghz(lat.full_region(), lat, [0.6, 0.8])
        rows = dump_amplitudes(state)
        assert rows == [("000", 0.6, 0.0), ("111", 0.8, 0.0)]

    def test_dump_threshold(self):
        state = StateVector(2, 1, np.array([math.sqrt(1 - 1e-26), 1e-13]))
        assert len(dump_amplitudes(state, threshold=1e-12)) == 1
        with pytest.raises(PreconditionError):
            dump_amplitudes(state, threshold=math.nan)

    def test_csv_matches_reference_loop(self):
        """The CSV dump is byte-identical to a per-amplitude reference loop."""
        state = random_state(3, 7, np.random.default_rng(5))
        threshold = 0.02  # drops some rows, keeps others
        rows = []
        for flat in range(state.amps.size):
            a = state.amps[flat]
            if abs(a) < threshold:
                continue
            digits, x = [], flat
            for _ in range(state.n):
                x, level = divmod(x, state.q)
                digits.append(str(level))
            rows.append("".join(digits) + f",{float(a.real)!r},{float(a.imag)!r}\r\n")
        assert 0 < len(rows) < state.amps.size
        buf = io.StringIO()
        write_amplitudes_csv(state, buf, threshold=threshold)
        assert buf.getvalue() == "basis,re,im\r\n" + "".join(rows)

    def test_csv_shape(self):
        lat = LatticeSpec(1, 2)
        buf = io.StringIO()
        write_amplitudes_csv(zero_state(lat), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "basis,re,im"
        assert lines[1].startswith("00,")


class TestSiteMaskIntegration:
    def test_coupling_from_regions(self):
        lat = LatticeSpec(2, 4)
        left = Region((0, 0), 2)
        right = Region((2, 2), 2)
        coup = PhaseCoupling(
            site_mask(left, lat), (site_mask(right, lat),),
            strength=1.0 / (4 * math.sqrt(2)) ** 3.0,
        )
        coup.check_power_law(lat, 3.0)
