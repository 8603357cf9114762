"""Dense statevector simulation over q-level lattice sites.

Amplitude layout is base-q little-endian over the lattice's flat site order:
site 0 is the least significant digit, so the basis state with site ``s`` at
level ``l_s`` lives at flat amplitude index ``sum_s l_s * q**s``.  Equivalently
``amps.reshape((q,)*n)`` puts site ``n-1`` on axis 0 and site 0 on axis n-1.

Operations are functional: they return a new StateVector and never mutate
their input.  Every operation validates that the output stays normalized to
1e-10, which is the module's running invariant.

The merge evolution (:func:`evolve_phase`) applies the diagonal coupling in
closed form, with no integrator: a basis state acquires phase
``exp(-1j * duration * J * w_c * sum_j w_j)`` where ``w_c`` / ``w_j`` are the
level sums over the control / j-th target mask (popcounts for qubits).  They
are built on the masked axes of the ``(q,)*n`` view only, never per basis state.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import MemoryCapError, OutOfBoundsError, PreconditionError
from .geometry import LatticeSpec, Region, site_mask

#: Refuse to allocate statevectors beyond this many amplitudes (configurable per call).
DEFAULT_AMP_CAP = 1 << 26

_NORM_TOL = 1e-10
_UNITARY_TOL = 1e-12


def check_capacity(q: int, n: int, max_amps: int | None = None) -> int:
    """Number of amplitudes q**n, or a MemoryCapError refusal if over the cap."""
    cap = DEFAULT_AMP_CAP if max_amps is None else max_amps
    if q < 2 or n < 1:
        raise PreconditionError(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    # refuse before materializing q**n, which may itself be astronomically large
    if n * math.log2(q) > 62:
        raise MemoryCapError(
            f"statevector of q**n = {q}**{n} amplitudes exceeds the cap {cap}"
        )
    size = q**n
    if size > cap:
        raise MemoryCapError(
            f"statevector of q**n = {q}**{n} = {size} amplitudes exceeds the cap {cap}"
        )
    return size


@dataclass(frozen=True, eq=False)
class StateVector:
    """q**n complex amplitudes over n sites with q levels each."""

    q: int
    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.q < 2 or self.n < 1:
            raise PreconditionError(f"need q >= 2 and n >= 1, got q={self.q}, n={self.n}")
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        if amps.size != self.q**self.n:
            raise PreconditionError(
                f"amplitude count {amps.size} != q**n = {self.q**self.n}"
            )
        object.__setattr__(self, "amps", amps)
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= _NORM_TOL:
            raise PreconditionError(f"state norm**2 = {norm2!r} deviates from 1")

    def copy(self) -> "StateVector":
        return StateVector(self.q, self.n, self.amps.copy())

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def tensor(self) -> np.ndarray:
        """View shaped (q,)*n; site s sits on axis n-1-s."""
        return self.amps.reshape((self.q,) * self.n)


def init_product(
    lattice: LatticeSpec, site_states, max_amps: int | None = None
) -> StateVector:
    """Tensor product of per-site states, one q-vector per site in flat order."""
    q, n = lattice.levels, lattice.n_sites
    check_capacity(q, n, max_amps)
    states = [np.asarray(s, dtype=np.complex128).reshape(-1) for s in site_states]
    if len(states) != n:
        raise PreconditionError(f"need {n} site states, got {len(states)}")
    for i, s in enumerate(states):
        if s.size != q:
            raise PreconditionError(f"site {i} state has {s.size} entries, expected {q}")
        if not abs(np.sum(np.abs(s) ** 2) - 1.0) <= _NORM_TOL:
            raise PreconditionError(f"site {i} state is not normalized")
    amps = np.ones(1, dtype=np.complex128)
    for s in reversed(states):  # site n-1 is the most significant digit
        amps = np.kron(amps, s)
    return StateVector(q, n, amps)


def zero_state(lattice: LatticeSpec, max_amps: int | None = None) -> StateVector:
    """All sites in level 0."""
    q, n = lattice.levels, lattice.n_sites
    size = check_capacity(q, n, max_amps)
    amps = np.zeros(size, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(q, n, amps)


def basis_vector(q: int, level: int) -> np.ndarray:
    v = np.zeros(q, dtype=np.complex128)
    v[level] = 1.0
    return v


@dataclass(frozen=True, eq=False)
class Gate:
    """A single-site q x q unitary bound to a target site."""

    matrix: np.ndarray
    site: int

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise PreconditionError(f"gate matrix must be square, got shape {mat.shape}")
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if not dev <= _UNITARY_TOL:
            raise PreconditionError(f"gate is not unitary: max |G+G - I| = {dev:.3e}")
        object.__setattr__(self, "matrix", mat)

    @property
    def q(self) -> int:
        return self.matrix.shape[0]


def hadamard_matrix() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


def _root_of_unity(k: int, q: int) -> complex:
    # exact values at quarter angles so dft_matrix(2) is bitwise the Hadamard
    k %= q
    if (4 * k) % q == 0:
        return (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[(4 * k) // q]
    return complex(np.exp(2j * np.pi * k / q))


def dft_matrix(q: int) -> np.ndarray:
    """Discrete Fourier transform F[j, k] = omega**(j*k) / sqrt(q), omega = e^(2 pi i / q).

    Maps the phase ladder sum_k omega**(-l*k) |k> / sqrt(q) back to |l>; its
    q=2 instance is exactly the Hadamard.
    """
    mat = np.array(
        [[_root_of_unity(j * k, q) for k in range(q)] for j in range(q)],
        dtype=np.complex128,
    )
    return mat / np.sqrt(float(q))


_KRON_CACHE: dict = {}


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply a single-site unitary to its target site."""
    if gate.q != state.q:
        raise PreconditionError(f"gate acts on {gate.q} levels, state has {state.q}")
    if not 0 <= gate.site < state.n:
        raise OutOfBoundsError(f"gate site {gate.site} outside 0..{state.n - 1}")
    q, n, s = state.q, state.n, gate.site
    lo, hi = q**s, q ** (n - 1 - s)
    # three contraction layouts, picked by where the site digit sits
    if lo == 1:
        out = state.amps.reshape(hi, q) @ gate.matrix.T
    elif lo <= 64:
        key = (gate.matrix.tobytes(), lo)
        gk = _KRON_CACHE.get(key)
        if gk is None:
            gk = np.kron(gate.matrix, np.eye(lo)).T.copy()
            if len(_KRON_CACHE) < 64:
                _KRON_CACHE[key] = gk
        out = state.amps.reshape(hi, q * lo) @ gk
    else:
        out = np.matmul(gate.matrix, state.amps.reshape(hi, q, lo))
    return StateVector(q, n, out.reshape(-1))


def apply_controlled_increment(
    state: StateVector, control: int, target: int, inverse: bool = False
) -> StateVector:
    """|l>_control |x>_target -> |l>|x + l mod q>  (CNOT at q=2)."""
    if control == target:
        raise PreconditionError("control and target sites must differ")
    for s in (control, target):
        if not 0 <= s < state.n:
            raise OutOfBoundsError(f"site {s} outside 0..{state.n - 1}")
    q, n = state.q, state.n
    # flatten around the two acting digits: (outer, q, mid, q, inner)
    hi, lo = max(control, target), min(control, target)
    inner, mid, outer = q**lo, q ** (hi - lo - 1), q ** (n - 1 - hi)
    psi = state.amps.reshape(outer, q, mid, q, inner)
    axc, axt = (1, 3) if control == hi else (3, 1)
    out = np.empty_like(psi)
    sel_out: list = [slice(None)] * 5
    sel_in: list = [slice(None)] * 5
    for lc in range(q):
        sel_out[axc] = sel_in[axc] = lc
        for a in range(q):
            sel_out[axt] = a
            sel_in[axt] = (a + lc) % q if inverse else (a - lc) % q
            out[tuple(sel_out)] = psi[tuple(sel_in)]
    return StateVector(q, n, out.reshape(-1))


@dataclass(frozen=True, eq=False)
class PhaseCoupling:
    """The diagonal merge coupling: one control mask against several targets.

    ``strength`` is the uniform per-pair coefficient 1/(m*r1*sqrt(d))**alpha;
    the per-basis-state weight is the product of level sums (l*l' summed over
    cross pairs), which reduces to the |1><1| x |1><1| form for qubits.
    """

    control_mask: np.ndarray
    target_masks: tuple
    strength: float

    def __post_init__(self):
        control = np.asarray(self.control_mask, dtype=np.int64).reshape(-1)
        targets = tuple(
            np.asarray(t, dtype=np.int64).reshape(-1) for t in self.target_masks
        )
        object.__setattr__(self, "control_mask", control)
        object.__setattr__(self, "target_masks", targets)
        if self.strength <= 0:
            raise PreconditionError(f"coupling strength must be > 0, got {self.strength}")
        seen = set(control.tolist())
        for t in targets:
            for s in t.tolist():
                if s in seen:
                    raise PreconditionError(f"site {s} appears in two coupling masks")
                seen.add(s)

    def check_power_law(self, lattice: LatticeSpec, alpha: float) -> None:
        """Verify strength <= 1/dist(mu, nu)**alpha for every cross pair."""
        coords = {s: lattice.coord(int(s)) for s in self.control_mask}
        for tmask in self.target_masks:
            for nu in tmask:
                cnu = lattice.coord(int(nu))
                for mu, cmu in coords.items():
                    dist = math.dist(cmu, cnu)
                    if self.strength > 1.0 / dist**alpha + 1e-15:
                        raise PreconditionError(
                            f"strength {self.strength:.3e} exceeds 1/dist**alpha for "
                            f"sites {mu}, {int(nu)} at distance {dist:.3f}"
                        )


def _axis_level_sum(q: int, n: int, sites: list, dtype) -> np.ndarray:
    """Sum of the sites' levels (popcount at q=2) shaped to broadcast against
    the (q,)*n view: length q on each listed site's axis, 1 elsewhere."""
    total = np.zeros((1,) * n, dtype=dtype)
    levels = np.arange(q, dtype=dtype)
    for s in sites:
        shape = [1] * n
        shape[n - 1 - s] = q
        total = total + levels.reshape(shape)
    return total


def evolve_phase(
    state: StateVector, coupling: PhaseCoupling, duration: float
) -> StateVector:
    """Exact diagonal evolution under the merge coupling for the given duration.

    The phase vector is built on the (q,)*n view as a compact block with
    length q only on the masked sites' axes, and broadcast against the state.
    Negative durations run the evolution backward (the inverse unitary).
    """
    for mask in (coupling.control_mask, *coupling.target_masks):
        if mask.size and (mask.min() < 0 or mask.max() >= state.n):
            raise OutOfBoundsError("coupling mask site outside the state")
    q, n = state.q, state.n
    cache = coupling.__dict__.setdefault("_phase_cache", {})
    key = (q, n, duration)
    phases = cache.get(key)
    if phases is None:
        control = coupling.control_mask.tolist()
        targets = [s for t in coupling.target_masks for s in t.tolist()]
        # w_c * w_t on the masked axes only, in the smallest dtype that holds it
        dtype = np.min_scalar_type((q - 1) ** 2 * len(control) * len(targets))
        w = _axis_level_sum(q, n, control, dtype) * _axis_level_sum(q, n, targets, dtype)
        # weights are small integers; exponentiate the few distinct values once
        table = np.exp(
            (-1j * duration * coupling.strength) * np.arange(int(w.max()) + 1)
        )
        phases = table[w]
        if len(cache) < 8:
            cache[key] = phases
    return StateVector(q, n, (state.tensor() * phases).reshape(-1))


def fidelity(x: StateVector, y: StateVector) -> float:
    """|<x|y>|**2, clipped to at most 1; NaN amplitudes give NaN, never 1."""
    if x.q != y.q or x.n != y.n:
        raise PreconditionError(
            f"state shapes differ: (q={x.q}, n={x.n}) vs (q={y.q}, n={y.n})"
        )
    return float(np.minimum(1.0, abs(np.vdot(x.amps, y.amps)) ** 2))


def expected_ghz(
    region: Region,
    lattice: LatticeSpec,
    coefficients,
    rest=None,
    max_amps: int | None = None,
) -> StateVector:
    """sum_l a_l |l...l>_region tensored with a product background elsewhere.

    ``rest`` optionally maps complement flat indices to q-vectors; unlisted
    complement sites stay in |0>.
    """
    q, n = lattice.levels, lattice.n_sites
    check_capacity(q, n, max_amps)
    coeffs = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    if coeffs.size != q:
        raise PreconditionError(f"need {q} coefficients, got {coeffs.size}")
    if not abs(np.sum(np.abs(coeffs) ** 2) - 1.0) <= _NORM_TOL:
        raise PreconditionError("coefficients are not normalized")
    region_sites = set(site_mask(region, lattice).tolist())
    rest = {} if rest is None else {int(k): v for k, v in rest.items()}
    amps = np.zeros(q**n, dtype=np.complex128)
    for level in range(q):
        if coeffs[level] == 0:
            continue
        branch = np.ones(1, dtype=np.complex128)
        for s in reversed(range(n)):
            if s in region_sites:
                v = basis_vector(q, level)
            else:
                v = np.asarray(rest.get(s, basis_vector(q, 0)), dtype=np.complex128)
            branch = np.kron(branch, v)
        amps += coeffs[level] * branch
    return StateVector(q, n, amps)


def dump_amplitudes(state: StateVector, threshold: float = 1e-12) -> list[tuple]:
    """Rows (basis_string, real, imag) for amplitudes with |amp| >= threshold.

    The basis string lists site levels in flat site order, site 0 first.
    """
    if math.isnan(threshold):
        raise PreconditionError("dump threshold is NaN")
    keep = np.flatnonzero(np.abs(state.amps) >= threshold)
    digits = (keep[:, None] // state.q ** np.arange(state.n)) % state.q
    basis = ["".join(map(str, row)) for row in digits.tolist()]
    kept = state.amps[keep]
    return list(zip(basis, kept.real.tolist(), kept.imag.tolist()))


def write_amplitudes_csv(state: StateVector, fh, threshold: float = 1e-12) -> None:
    writer = csv.writer(fh)
    writer.writerow(["basis", "re", "im"])
    for row in dump_amplitudes(state, threshold):
        writer.writerow([row[0], repr(row[1]), repr(row[2])])
