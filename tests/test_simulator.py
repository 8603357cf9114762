import itertools
import math
import sys
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from ghzlattice import cli, protocol, simulator
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
    init_product,
)

RNG = np.random.default_rng(20240817)

# the Hadamard, written out; dft_matrix(2) is it bit for bit
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


def ground(lattice):
    """Every site of ``lattice`` in level 0."""
    return init_product(lattice, [basis_vector(lattice.levels, 0)] * lattice.n_sites)


def cli_dump(path, *flags) -> int:
    """Exit code of a CLI encode of (0.6, 0.8) on a 4-site chain that dumps its
    amplitudes to ``path``."""
    return cli.run(["simulate", "--alpha", "2.5", "--r", "4", "--force-m", "2",
                    "--coeff", "0.6,0.8", "--dump-amps", str(path),
                    "--out", str(path.with_suffix(".json")), *flags])


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

    def test_statevector_wrong_size_rejected(self):
        with pytest.raises(PreconditionError, match="amplitude count 3"):
            StateVector(2, 2, np.ones(3) / math.sqrt(3))

    @pytest.mark.parametrize("states,message", [
        ([basis_vector(2, 0)] * 2, "need 1 site states, got 2"),
        ([np.array([1.0, 0.0, 0.0])], "site 0 state has 3 entries"),
    ], ids=["count", "size"])
    def test_wrong_shape_rejected(self, states, message):
        with pytest.raises(PreconditionError, match=message):
            init_product(LatticeSpec(1, 1), states)

    @staticmethod
    def kron_chain(states):
        """Reference product: one kron per site, site n-1 first."""
        amps = np.ones(1, dtype=np.complex128)
        for s in reversed(states):
            amps = np.kron(amps, s)
        return amps

    # q**n stays small: 3**16 would be a 688 MiB reference chain
    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 5), (2, 16),
                                     (3, 1), (3, 2), (3, 5), (3, 10)])
    def test_matches_kron_chain(self, q, n):
        rng = np.random.default_rng(100 * q + n)

        def unit():
            v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            return v / np.linalg.norm(v)

        lattice = LatticeSpec(1, n, q)
        # basis vectors plus one coefficient: every amplitude is the same
        # product in either grouping, so equal as a float (nonzero ones bit for
        # bit; a zero may differ in sign only)
        states = [basis_vector(q, int(level)) for level in rng.integers(q, size=n)]
        states[int(rng.integers(n))] = unit()
        got = init_product(lattice, states).amps
        assert np.array_equal(got, self.kron_chain(states))
        states = [unit() for _ in range(n)]
        got = init_product(lattice, states).amps
        assert np.max(np.abs(got - self.kron_chain(states))) <= 1e-15


_BUILD_RSS_CHILD = """
import numpy as np
from ghzlattice import LatticeSpec, expected_ghz, init_product
lat = LatticeSpec(1, 22)
states = [np.array([0.6, 0.8j])] + [np.array([1.0, 0.0])] * 21
before = peak_rss()
{build}
after = peak_rss()
print(after - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="peak_rss reads VmHWM from /proc")
@pytest.mark.parametrize("build,most", [
    ("init_product(lat, states)", 1.1),
    ("expected_ghz(lat.full_region(), lat, [0.6, 0.8j])", 3.1),
], ids=["init_product", "expected_ghz"])
def test_build_peak_memory_2_22(rss_growth, build, most):
    """A 2^22 product state (64 MiB) grows peak RSS by about one state: the
    halves' kron products hold 2^11 amplitudes each, and their outer product
    is written once.  A GHZ target adds its q branches into one sum."""
    assert rss_growth(_BUILD_RSS_CHILD.format(build=build)) <= most * 64 * 2**20


class TestGates:
    def test_hadamard_on_plus(self):
        plus = StateVector(2, 1, np.array([1, 1]) / math.sqrt(2))
        out = apply_gate(plus, Gate(HADAMARD, 0))
        assert abs(out.amps[0] - 1) < 1e-15 and abs(out.amps[1]) < 1e-15

    def test_hadamard_involution(self):
        state = random_state(2, 4)
        gate = Gate(HADAMARD, 2)
        out = apply_gate(apply_gate(state, gate), gate)
        assert fidelity(out, state) == pytest.approx(1.0, abs=1e-13)

    def test_dft3_on_zero(self):
        state = apply_gate(ground(LatticeSpec(1, 1, 3)), Gate(dft_matrix(3), 0))
        assert np.allclose(state.amps, np.ones(3) / math.sqrt(3), atol=1e-15)

    def test_dft2_bitwise_hadamard(self):
        # compared as bit patterns: array_equal takes -0.0 == 0.0, and the
        # protocol's Hadamard mode runs the DFT machine on this equality
        assert np.array_equal(dft_matrix(2).view(np.int64), HADAMARD.view(np.int64))

    def test_dft_unitary(self):
        for q in (2, 3, 4, 5, 7):
            f = dft_matrix(q)
            assert np.max(np.abs(f.conj().T @ f - np.eye(q))) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(PreconditionError):
            Gate(np.array([[1, 0], [1, 1]], dtype=complex), 0)

    def test_site_out_of_range(self):
        state = ground(LatticeSpec(1, 2))
        with pytest.raises(OutOfBoundsError):
            apply_gate(state, Gate(HADAMARD, 5))

    def test_every_site_position(self):
        # both contraction layouts, at low and high strides, agree with the
        # kron-built matrix
        state = random_state(2, 9)
        h = HADAMARD
        eye = np.eye(2, dtype=complex)
        for site in range(9):
            mats = [h if s == site else eye for s in reversed(range(9))]
            full = reduce(np.kron, mats)
            got = apply_gate(state, Gate(h, site))
            assert np.allclose(got.amps, full @ state.amps, atol=1e-12)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_window_gate_every_position(self, q, k):
        # a q**k x q**k unitary on sites site..site+k-1 at every position: at
        # site 0, with a low stride 1 < q**site < 64 (a strided matmul; a
        # protocol block is widened to site 0 only below a stride of 8) and
        # with a high stride q**site >= 64 (strided matmul)
        high = next(s for s in itertools.count() if q**s >= 64)
        n = high + k
        rng = np.random.default_rng(10 * q + k)
        dim = q**k
        u = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))[0]
        state = random_state(q, n, rng)
        kinds = set()
        for site in range(n - k + 1):
            full = reduce(np.kron, [np.eye(q ** (n - site - k)), u, np.eye(q**site)])
            got = apply_gate(state, Gate(u, site))
            assert np.max(np.abs(got.amps - full @ state.amps)) < 1e-12
            kinds.add("site0" if site == 0 else "widened" if q**site < 64 else "strided")
        assert kinds == {"site0", "widened", "strided"}

    @staticmethod
    def _cnot():
        # control on the window's low site, target on its high site
        u = np.zeros((4, 4), dtype=complex)
        for lo, hi in itertools.product(range(2), repeat=2):
            u[lo + 2 * (hi ^ lo), lo + 2 * hi] = 1
        return u

    @staticmethod
    def _qutrit_shift():
        # |j> -> omega**j |j+1 mod 3>
        omega = np.exp(2j * np.pi / 3)
        return np.roll(np.eye(3), 1, axis=0) @ np.diag(omega ** np.arange(3))

    @pytest.mark.parametrize("name", ["x", "z", "cnot", "qutrit_shift"])
    def test_monomial_gate_every_position(self, name):
        # the gather at site 0, at a low stride 1 < q**site < 64 (a protocol
        # block is widened to site 0 only below a stride of 8) and at a stride
        # of at least 64, against the kron-built matrix of
        # test_window_gate_every_position
        u = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
             "z": np.diag([1, -1]).astype(complex),
             "cnot": self._cnot(),
             "qutrit_shift": self._qutrit_shift()}[name]
        q = 3 if name == "qutrit_shift" else 2
        k = round(math.log(u.shape[0], q))
        high = next(s for s in itertools.count() if q**s >= 64)
        n = high + k
        state = random_state(q, n, np.random.default_rng(len(name)))
        strides = set()
        for site in range(n - k + 1):
            gate = Gate(u, site)
            assert gate._perm is not None
            assert (gate._phases is None) == (name in ("x", "cnot"))
            full = reduce(np.kron, [np.eye(q ** (n - site - k)), u, np.eye(q**site)])
            got = apply_gate(state, gate)
            assert np.max(np.abs(got.amps - full @ state.amps)) < 1e-12
            gather = Gate(None, site, _perm=gate._perm, _phases=gate._phases)
            assert np.array_equal(apply_gate(state, gather).amps, got.amps)
            strides.add("site0" if site == 0 else "low" if q**site < 64 else "high")
        assert strides == {"site0", "low", "high"}

    @pytest.mark.parametrize("q,u", [
        (2, np.kron(HADAMARD, HADAMARD)),
        (2, np.linalg.qr(np.random.default_rng(64).standard_normal((64, 64)))[0]),
        (3, np.linalg.qr(np.random.default_rng(27).standard_normal((27, 27)))[0]),
    ], ids=["hadamard-pair", "orthogonal-q2-k6", "orthogonal-q3-k3"])
    def test_real_gate_every_position(self, q, u, monkeypatch):
        # a real window at every site > 0 gives, bit for bit, the complex
        # matmul over the (hi, q**k, lo) view.  It runs as a float64 matmul
        # at the strides lo % 4 == 0 and complex at the others, where the two
        # round apart on some BLAS (for K >= 16 at lo = 2, 9 or 81 on OpenBLAS
        # 0.3.31), so the float path is seen through a wrapped np.matmul
        dim = u.shape[0]
        k = round(math.log(dim, q))
        n = next(s for s in itertools.count() if q**s >= 64) + k
        state = random_state(q, n, np.random.default_rng(dim))
        matmul, floats = np.matmul, []

        def spied(a, b, **kwargs):
            floats.append(a.dtype == np.float64)
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spied)
        for site in range(1, n - k + 1):
            gate = Gate(u, site)
            assert gate._perm is None and np.array_equal(gate._real, u.real)
            floats.clear()
            got = apply_gate(state, gate).amps
            assert floats == [q**site % 4 == 0]
            want = matmul(gate.matrix, state.amps.reshape(-1, dim, q**site))
            assert np.array_equal(got, want.reshape(-1))

    def test_real_copy_only_for_exactly_real_strided_gates(self):
        u = np.kron(HADAMARD, HADAMARD)
        assert Gate(u, 0)._real is None  # site 0 keeps its right-multiply
        assert Gate(np.kron(np.eye(2), [[0, 1], [1, 0]]), 3)._real is None  # a gather
        tiny = u.copy()
        tiny[1, 2] += 1e-300j
        assert Gate(tiny, 3)._real is None
        negzero = u.copy()
        negzero.imag = -0.0
        assert np.all(np.signbit(negzero.imag))
        assert np.array_equal(Gate(negzero, 3)._real, u.real)

    def test_real_gate_on_a_strided_state(self):
        # a state over a strided view has no float64 view of its (re, im)
        # pairs, so a real gate takes the complex matmul there
        buf = np.zeros(128, dtype=np.complex128)
        buf[::2] = random_state(2, 6).amps
        state = StateVector(2, 6, buf[::2])
        assert not state.amps.flags.c_contiguous
        gate = Gate(np.kron(HADAMARD, HADAMARD), 3)
        assert gate._real is not None
        got = apply_gate(state, gate).amps
        want = np.matmul(gate.matrix, state.amps.reshape(-1, 4, 8)).reshape(-1)
        assert np.array_equal(got, want)
        assert np.array_equal(got, apply_gate(StateVector(2, 6, state.amps.copy()), gate).amps)

    def test_near_monomial_gate_stays_dense(self):
        # one off-support entry of 1e-14 is a nonzero: no tolerance applies
        u = np.array([[1e-14, 1], [1, 0]], dtype=complex)
        gate = Gate(u, 3)
        assert gate._perm is None and gate._phases is None
        state = random_state(2, 8)
        full = reduce(np.kron, [np.eye(16), u, np.eye(8)])
        assert np.max(np.abs(apply_gate(state, gate).amps - full @ state.amps)) < 1e-12

    def test_gather_refuses_a_nan_input(self):
        state = random_state(2, 8)
        state.amps[5] = np.nan  # planted after the state was validated
        with pytest.raises(PreconditionError):
            apply_gate(state, Gate(self._cnot(), 2))

    def test_inverse_permutation_detected(self):
        u = self._cnot() @ np.kron(np.diag([1, 1j]), np.array([[0, 1], [1, 0]]))
        gate, inverse = Gate(u, 1), Gate(u.conj().T, 1)
        assert np.array_equal(inverse._perm, np.argsort(gate._perm))
        state = random_state(2, 6)
        back = apply_gate(apply_gate(state, gate), inverse)
        assert np.max(np.abs(back.amps - state.amps)) < 1e-15

    @pytest.mark.parametrize("u", [
        np.array([[1, 0], [1, 0]], dtype=complex),
        np.diag([1, (1 + 1e-9) * np.exp(0.3j)]),
    ], ids=["two-rows-one-column", "phase-modulus-1+1e-9"])
    def test_monomial_unitarity_check(self, u):
        # the O(q**k) check on the gather refuses what G^dagger G = I refuses,
        # given the matrix or the gather alone
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-12
        perm, phases = simulator._monomial(u)
        assert perm is not None
        with pytest.raises(PreconditionError, match="not unitary"):
            Gate(u, 0)
        with pytest.raises(PreconditionError, match="not unitary"):
            Gate(None, 0, _perm=perm, _phases=phases)

    def test_window_must_fit_the_state(self):
        with pytest.raises(OutOfBoundsError):
            apply_gate(random_state(2, 3), Gate(np.eye(4), 2))  # sites 2..3
        with pytest.raises(PreconditionError):
            apply_gate(random_state(3, 3), Gate(np.eye(2), 0))  # 2 is no power of 3


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
        gate = Gate(HADAMARD, 4)  # outside both masks
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
            hits = simulator._phase_weights.cache_info().hits
            block = simulator._phase_weights(q, n, tuple(coup.control_mask.tolist()),
                                             tuple(np.concatenate(targets).tolist()))
            assert simulator._phase_weights.cache_info().hits == hits + 1  # evolve_phase's
            assert block.size == q ** (n_ctrl + n_tgt)
            assert not block.flags.writeable  # shared by every coupling on these sites

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_strength_refused(self, bad):
        with pytest.raises(PreconditionError, match=str(bad)):
            PhaseCoupling(np.array([0]), (np.array([1]),), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_duration_refused(self, bad):
        with pytest.raises(PreconditionError, match=str(bad)):
            evolve_phase(random_state(2, 4), self.coupling_2x2(), bad)

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


def _unitary(dim, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))[0]


class TestOutBuffer:
    """Each kernel given ``out`` writes its result there, bit for bit what the
    allocating call returns, and refuses a buffer it cannot write safely."""

    @staticmethod
    def check(state, kernel, *args):
        want = kernel(state, *args)
        before = state.amps.copy()
        out = np.full_like(state.amps, np.nan)  # stale contents must not leak
        got = kernel(state, *args, out)
        assert np.shares_memory(got.amps, out)
        assert np.array_equal(got.amps, want.amps)
        assert np.array_equal(state.amps, before)

    @pytest.mark.parametrize("site,path", [
        (2, "gather"), (0, "site0"), (3, "widened"), (6, "strided"), (4, "real"),
    ])
    def test_apply_gate(self, site, path):
        # q=2, n=8: a gather, the dense site-0 layout, the strided matmul at a
        # low stride (2**3, the lowest a protocol block starts at without
        # widening to site 0) and a high one, and a real gate's float64 matmul
        u = {"gather": TestGates._cnot(),
             "real": np.kron(HADAMARD, HADAMARD)}.get(path)
        gate = Gate(_unitary(4, site) if u is None else u, site)
        assert (gate._perm is not None) == (path == "gather")
        assert (gate._real is not None) == (path == "real")
        self.check(random_state(2, 8), apply_gate, gate)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("control,target,inverse", [(0, 3, False), (4, 1, True)])
    def test_controlled_increment(self, q, control, target, inverse):
        self.check(random_state(q, 5), apply_controlled_increment, control, target, inverse)

    @pytest.mark.parametrize("q,n,control,targets", [
        (3, 6, [0, 4], [[1], [5]]),  # compact: a 3**4 weight block
        (2, 16, list(range(8)), [list(range(8, 12)), list(range(12, 16))]),  # slabs
    ])
    def test_evolve_phase(self, q, n, control, targets):
        coup = PhaseCoupling(np.array(control), tuple(np.array(t) for t in targets), 0.21)
        slabs = q ** (len(control) + sum(map(len, targets))) > simulator._PHASE_SLAB
        assert slabs == (n == 16)
        state = random_state(q, n)
        for duration in (0.7, -1.9):
            self.check(state, evolve_phase, coup, duration)
            # the same products as one full-size phase vector would give
            got = evolve_phase(state, coup, duration).amps
            assert np.array_equal(got, TestEvolvePhase.digit_oracle(state, coup, duration))
        hits = simulator._phase_weights.cache_info().hits
        w = simulator._phase_weights(q, n, tuple(control), tuple(sum(targets, [])))
        assert simulator._phase_weights.cache_info().hits == hits + 1  # evolve_phase's
        assert w.dtype == np.uint8 and w.size == q ** (len(control) + sum(map(len, targets)))

    def test_refusals(self):
        state = random_state(2, 6)
        gate = Gate(HADAMARD, 3)
        with pytest.raises(PreconditionError, match="share memory"):
            apply_gate(state, gate, state.amps)  # aliased
        big = np.zeros(2 * 64, dtype=np.complex128)
        big[:64] = state.amps
        viewed = StateVector(2, 6, big[:64])
        for out in (big[1:65], big[63:127]):  # overlapping views
            with pytest.raises(PreconditionError, match="share memory"):
                apply_controlled_increment(viewed, 0, 1, False, out)
        coup = PhaseCoupling(np.array([0]), (np.array([1]),), 1.0)
        frozen = np.empty(64, dtype=np.complex128)
        frozen.flags.writeable = False
        wrong = (np.empty(32, dtype=np.complex128), np.empty(64, dtype=np.complex64),
                 np.empty(128, dtype=np.complex128)[::2], [0j] * 64, frozen)
        for out in wrong:
            with pytest.raises(PreconditionError, match="C-contiguous complex128"):
                evolve_phase(state, coup, 0.5, out)
        # a disjoint view of the same buffer is fine
        evolve_phase(viewed, coup, 0.5, big[64:])


class TestNormPreservation:
    def test_random_operation_stream(self):
        # 1e5 random operations, norm stays within 1e-10 of 1 after each
        rng = np.random.default_rng(99)
        q, n = 2, 8
        state = random_state(q, n, rng)
        gates = [HADAMARD, dft_matrix(2)]
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
            assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-10


class TestFidelity:
    def test_self(self):
        state = random_state(2, 3)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal(self):
        a = ground(LatticeSpec(1, 1))
        b = StateVector(2, 1, np.array([0.0, 1.0]))
        assert fidelity(a, b) == 0.0

    def test_half(self):
        a = ground(LatticeSpec(1, 1))
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

    @pytest.mark.parametrize("rest,message", [
        ({2: [1, 0, 0]}, "site 2 state has 3 entries"),
        ({99: [1, 0]}, r"rest sites \[99\]"),
        ({-1: [1, 0]}, r"rest sites \[-1\]"),
        ({0: [1, 0]}, r"rest sites \[0\]"),
    ], ids=["wrong-size", "off-lattice", "negative", "inside-region"])
    def test_bad_rest_rejected(self, rest, message):
        # rest maps lattice sites outside the region to q-vectors
        with pytest.raises(PreconditionError, match=message):
            expected_ghz(Region((0,), 2), LatticeSpec(1, 3), [0.6, 0.8], rest=rest)

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
            ground(LatticeSpec(1, 27))  # 2**27 amplitudes, over the budget

    @pytest.mark.parametrize("q", range(2, 9))
    def test_budget_admits_exactly_2_pow_26_amplitudes(self, q):
        # the rule is arithmetic on the lattice: no state is built
        top = max(n for n in range(1, 27) if q**n <= 2**26)
        for n in range(top - 2, top + 3):
            lattice = LatticeSpec(1, n, q)
            if q**n <= 2**26:
                assert check_capacity(lattice) == 56 * q**n
            else:
                with pytest.raises(MemoryCapError, match="memory budget"):
                    check_capacity(lattice)

    def test_refusal_without_materializing(self):
        with pytest.raises(MemoryCapError):
            check_capacity(LatticeSpec(1, 10**9))
        with pytest.raises(MemoryCapError):  # 10**600 sites: too many bits to meet a float
            check_capacity(LatticeSpec(100, 10**6))

    @pytest.mark.parametrize("lattice", [
        LatticeSpec(100, 10**6),  # 10**600 sites: too many bits to meet a float
        LatticeSpec(2**63, 4),  # 4**(2**63) sites: never computed
    ], ids=["huge-site-count", "huge-dimension"])
    def test_refused_before_counting_sites(self, lattice):
        # a region of 2**63 coordinates cannot exist, and the refusal comes first
        for build in (lambda: init_product(lattice, []),
                      lambda: expected_ghz(None, lattice, [1, 0])):
            with pytest.raises(MemoryCapError):
                build()

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

    def test_csv_matches_reference_loop(self, tmp_path, monkeypatch):
        """The CLI's amplitude dump is byte-identical to a per-amplitude reference
        loop; the encode the CLI runs returns this state instead of its own."""
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
        monkeypatch.setattr(protocol, "encode",
                            lambda *args, **kwargs: (state, protocol.ProtocolTrace()))
        dump = tmp_path / "amps.csv"
        assert cli_dump(dump, "--dump-threshold", str(threshold)) == 0
        assert dump.read_bytes().decode() == "basis,re,im\r\n" + "".join(rows)

    def test_csv_shape(self, tmp_path):
        dump = tmp_path / "amps.csv"
        assert cli_dump(dump) == 0
        lines = dump.read_bytes().decode().split("\r\n")
        assert lines[0] == "basis,re,im"
        assert lines[1].startswith("0000,") and lines[2].startswith("1111,")
        assert lines[3:] == [""]


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
