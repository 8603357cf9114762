"""Dense statevector simulation over q-level lattice sites.

Amplitude layout is base-q little-endian over the lattice's flat site order:
site 0 is the least significant digit, so the basis state with site ``s`` at
level ``l_s`` lives at flat amplitude index ``sum_s l_s * q**s``.  Equivalently
``amps.reshape((q,)*n)`` puts site ``n-1`` on axis 0 and site 0 on axis n-1.

Operations never mutate their input.  Each kernel returns a new StateVector
over a fresh array, or, given ``out``, writes its result into that array and
returns a StateVector over it; ``out`` must be a C-contiguous complex128 array
of the state's size that shares no memory with the input.  A protocol run
ping-pongs between two such buffers, so it holds the input plus two working
buffers, about 3x the state in bytes.  With the merge phase weights that is
the working set :func:`check_capacity` predicts, at 56 bytes per amplitude,
or at 384 bytes per q**2 where the q-level builds outweigh the states; it
refuses above 56 * 2**26 bytes, and every run and every full-size builder
asks it first.  Every operation validates that the output stays normalized
to 1e-10, which is the module's running invariant, unless a caller passes
the private trailing ``_check=False``: a protocol run does so on every op of
a step but the last, whose one norm read covers the step.  Every full-state
or large reduction (the norm, :func:`fidelity`, the protocol's overlaps)
goes through :func:`_vdot`, whose bits no BLAS thread count changes.

A :class:`Gate` is a q**k x q**k unitary on the k consecutive sites
``site .. site+k-1``.  A monomial gate (exactly one nonzero per row:
increments, shifts, phases) is held as its gather, a permutation and phases,
and may hold no matrix at all.  :func:`apply_gate` applies it as one gather
along the window axis of the (hi, q**k, lo) view with lo = q**site, times its
phases unless they are all exactly 1.  Any other gate is dense: a window at
site 0 right-multiplies the (hi, q**k) view, any other window is a batched
matmul over the (hi, q**k, lo) view.  A real dense window at site > 0 (every
qubit block without a merge phase: Hadamards and CNOTs) multiplies real and
imaginary parts alike, so where lo % 4 == 0 it runs as one float64 matmul over
the (hi, q**k, 2*lo) view of the (re, im) pairs: half the multiplies.  On
OpenBLAS 0.3.31 that gives the complex product's bits; at other strides the
two round apart, so those stay complex.  The layout follows from the gate and
the stride; apply_gate never rewrites a gate.

The merge evolution (:func:`evolve_phase`) applies the diagonal coupling in
closed form, with no integrator: a basis state acquires phase
``exp(-1j * duration * J * w_c * sum_j w_j)`` where ``w_c`` / ``w_j`` are the
level sums over the control / j-th target mask (popcounts for qubits).  They
are built on the masked axes of the ``(q,)*n`` view only, never per basis state,
and only that integer block is cached (:func:`_phase_weights`); its complex
phases are looked up slab by slab, so no full-size phase array exists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import MemoryCapError, OutOfBoundsError, PreconditionError
from .geometry import LatticeSpec, Region, site_mask

# bytes per amplitude of a run's working set: the input and two working
# buffers, the phase weights of a merge spanning the lattice (uint32 holds
# every weight under the budget) and as many again for the sums that build
# them; the budget is 2**26 amplitudes of it
_RUN_BYTES_PER_AMP = 3 * 16 + 2 * 4
# bytes per q**2 of a run whose q-level builds outweigh its states (on two
# sites: the rotations, the phase table and the verification terms); a verified
# two-site transfer grew peak RSS by 370 bytes per q**2 from q = 256 to 1024
_LEVEL_BYTES = 384
_MEMORY_BUDGET = _RUN_BYTES_PER_AMP << 26

_NORM_TOL = 1e-10
_UNITARY_TOL = 1e-12
# largest phase block evolve_phase looks up at once; a wider one goes slab by slab
_PHASE_SLAB = 1 << 14
# amplitudes per partial sum of _vdot: OpenBLAS splits a longer dot product
# over its threads, so its bits depend on their count
_DOT_CHUNK = 1 << 13


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> of two flat arrays of one size, the same bits at any BLAS thread
    count: one ``np.vdot`` per _DOT_CHUNK amplitudes, the partials added
    exactly by ``math.fsum``."""
    parts = [np.vdot(a[i:i + _DOT_CHUNK], b[i:i + _DOT_CHUNK])
             for i in range(0, a.size, _DOT_CHUNK)]
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))


def check_capacity(lattice: LatticeSpec) -> int:
    """Predicted peak bytes of an encode, decode or transfer over ``lattice``,
    or a MemoryCapError refusal above the module's memory budget.

    The prediction is the larger of two terms.  q**n amplitudes times 56
    bytes: the input and the two working buffers (16 bytes each), and the
    merge phase weights with their build's partial sums (at most 8).  And q**2
    times 384 bytes: the q-level builds, the q x q rotations, the merge phase
    table and the verification terms, which outweigh the states on a lattice
    of few sites and many levels.  The budget is 56 * 2**26 bytes, so a
    lattice of q <= 8 is refused exactly when it has more than 2**26
    amplitudes, and a two-site one above q = 3128.  The refusal reads
    d * log2(max(side, 2)) first, then n * log2(q), so neither side**d nor
    q**n is computed unless it fits: either may be too large to ever finish.
    """
    q = lattice.levels
    if (lattice.dimension * math.log2(max(lattice.side, 2)) > 62
            or lattice.n_sites * math.log2(q) > 62
            or (need := max(q**lattice.n_sites * _RUN_BYTES_PER_AMP,
                            q**2 * _LEVEL_BYTES)) > _MEMORY_BUDGET):
        raise MemoryCapError(f"a run over {lattice} needs more than the memory "
                             f"budget of {_MEMORY_BUDGET} bytes")
    return need


@dataclass(frozen=True, eq=False)
class StateVector:
    """q**n complex amplitudes over n sites with q levels each."""

    q: int
    n: int
    amps: np.ndarray
    # the validated norm**2, read once here; stale if amps is later mutated,
    # NaN on a kernel's unchecked output
    _norm2: float = field(init=False, repr=False, default=1.0)

    def __post_init__(self):
        if self.q < 2 or self.n < 1:
            raise PreconditionError(f"need q >= 2 and n >= 1, got q={self.q}, n={self.n}")
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        if amps.size != self.q**self.n:
            raise PreconditionError(
                f"amplitude count {amps.size} != q**n = {self.q**self.n}"
            )
        object.__setattr__(self, "amps", amps)
        norm2 = _vdot(amps, amps).real
        if not abs(norm2 - 1.0) <= _NORM_TOL:
            raise PreconditionError(f"state norm**2 = {norm2!r} deviates from 1")
        object.__setattr__(self, "_norm2", norm2)

    def tensor(self) -> np.ndarray:
        """View shaped (q,)*n; site s sits on axis n-1-s."""
        return self.amps.reshape((self.q,) * self.n)


def _result(state: StateVector, res: np.ndarray, check: bool) -> StateVector:
    """A kernel's output over ``res``, shaped like ``state``: validated, or
    with ``check`` False built without reading its norm (``_norm2`` is NaN)."""
    if check:
        return StateVector(state.q, state.n, res.reshape(-1))
    out = object.__new__(StateVector)
    vars(out).update(q=state.q, n=state.n, amps=res.reshape(-1), _norm2=math.nan)
    return out


def init_product(lattice: LatticeSpec, site_states) -> StateVector:
    """Tensor product of per-site states, one q-vector per site in flat order.

    The only builder of a product state: the kron products of the high and of
    the low half of the sites are each about sqrt(q**n) amplitudes, and their
    outer product is written once, so the build peaks at about one state.
    """
    check_capacity(lattice)
    q, n = lattice.levels, lattice.n_sites
    states = [np.asarray(s, dtype=np.complex128).reshape(-1) for s in site_states]
    if len(states) != n:
        raise PreconditionError(f"need {n} site states, got {len(states)}")
    for i, s in enumerate(states):
        if s.size != q:
            raise PreconditionError(f"site {i} state has {s.size} entries, expected {q}")
        if not abs(np.sum(np.abs(s) ** 2) - 1.0) <= _NORM_TOL:
            raise PreconditionError(f"site {i} state is not normalized")
    # site n-1 is the most significant digit
    high, low = (reduce(np.kron, reversed(half), np.ones(1, dtype=np.complex128))
                 for half in (states[n // 2:], states[:n // 2]))
    return StateVector(q, n, np.multiply.outer(high, low).reshape(-1))


def basis_vector(q: int, level: int) -> np.ndarray:
    v = np.zeros(q, dtype=np.complex128)
    v[level] = 1.0
    return v


@dataclass(frozen=True, eq=False)
class Gate:
    """A q**k x q**k unitary on the k consecutive sites site .. site+k-1.

    A q x q matrix is a single-site gate.  The window's own sites are
    little-endian like the state's: site ``site`` is the least significant
    digit of the matrix index.

    A monomial gate (exactly one nonzero per row) also holds its gather:
    ``_perm``, the column of each row's nonzero, and ``_phases``, those
    entries unless all are exactly 1.  Its unitarity check is O(q**k): perm
    is a bijection and every |phase| is 1; any other gate's is G^dagger G = I.
    ``Gate(None, site, _perm=..., _phases=...)`` is a monomial gate given by
    its gather alone, with no matrix.  Any other gate at site > 0 whose matrix
    has no nonzero imaginary part (-0.0 counts as zero) also holds ``_real``,
    a C-contiguous float64 copy of it for :func:`apply_gate`'s real layout.
    """

    matrix: np.ndarray | None
    site: int
    _perm: np.ndarray | None = field(default=None, repr=False, kw_only=True)
    _phases: np.ndarray | None = field(default=None, repr=False, kw_only=True)
    _real: np.ndarray | None = field(default=None, repr=False, init=False)

    def __post_init__(self):
        if self.matrix is None:
            if self._perm is None:
                raise PreconditionError("a gate needs a matrix or a gather")
            perm, phases = np.asarray(self._perm), self._phases
        else:
            mat = np.asarray(self.matrix, dtype=np.complex128)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise PreconditionError(f"gate matrix must be square, got shape {mat.shape}")
            object.__setattr__(self, "matrix", mat)
            perm, phases = _monomial(mat)
        if perm is None:
            dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        elif not np.array_equal(np.sort(perm), np.arange(perm.size)):
            dev = 1.0  # two rows share a column, so another column is empty
        else:  # the diagonal of G^dagger G is |phase|**2, the rest is 0
            dev = 0.0 if phases is None else np.max(np.abs((phases.conj() * phases).real - 1))
        if not dev <= _UNITARY_TOL:
            raise PreconditionError(f"gate is not unitary: max |G+G - I| = {dev:.3e}")
        object.__setattr__(self, "_perm", perm)
        object.__setattr__(self, "_phases", phases)
        if perm is None and self.site > 0 and not np.any(mat.imag):
            object.__setattr__(self, "_real", np.ascontiguousarray(mat.real))


def _monomial(mat: np.ndarray) -> tuple:
    """(perm, phases) if every row of ``mat`` has exactly one entry != 0, so
    ``mat @ x == phases * x[perm]``, with phases None when all are exactly 1;
    else (None, None)."""
    nonzero = mat != 0
    if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
        return None, None
    perm = np.argmax(nonzero, axis=1)
    phases = mat[np.arange(perm.size), perm]
    return perm, None if np.all(phases == 1) else phases


def _roots(q: int) -> np.ndarray:
    """The q roots of unity omega**k, k = 0..q-1, omega = e^(2 pi i / q), each
    from the scalar exp, or exact at quarter angles so dft_matrix(2) is
    bitwise the Hadamard."""
    quarter = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
    return np.array([quarter[4 * k // q] if (4 * k) % q == 0
                     else complex(np.exp(2j * np.pi * k / q)) for k in range(q)])


def dft_matrix(q: int) -> np.ndarray:
    """Discrete Fourier transform F[j, k] = omega**(j*k) / sqrt(q), omega = e^(2 pi i / q).

    Maps the phase ladder sum_k omega**(-l*k) |k> / sqrt(q) back to |l>; its
    q=2 instance is exactly the Hadamard.  Each entry is looked up in the one
    table of the q roots.
    """
    k = np.arange(q)
    return _roots(q)[np.outer(k, k) % q] / np.sqrt(float(q))


def _output(state: StateVector, out: np.ndarray | None) -> np.ndarray:
    """The flat array a kernel writes its result into: ``out``, checked, or a
    new one."""
    if out is None:
        return np.empty_like(state.amps)
    if not (isinstance(out, np.ndarray) and out.dtype == np.complex128
            and out.size == state.amps.size and out.flags.c_contiguous
            and out.flags.writeable):
        raise PreconditionError(
            f"out must be a writeable C-contiguous complex128 array of "
            f"{state.amps.size} amplitudes"
        )
    if np.may_share_memory(out, state.amps):
        raise PreconditionError("out may share memory with the input state")
    return out.reshape(-1)


def apply_gate(state: StateVector, gate: Gate, out: np.ndarray | None = None,
               _check: bool = True) -> StateVector:
    """Apply a window unitary to its k consecutive sites.

    A monomial gate is one gather along axis 1 of the (hi, q**k, lo) view,
    then an in-place multiply by its phases if it has any.  Other gates are
    dense: a window starting at site 0 is a right-multiply of the (hi, q**k)
    view; any other window is a batched matmul over the (hi, q**k, lo) view,
    lo = q**site.  A gate holding ``_real`` on a C-contiguous state at a
    stride lo % 4 == 0 runs that matmul in float64 over the (hi, q**k, 2*lo)
    view of the (re, im) pairs.  The result goes into ``out`` if given (see
    the module docstring).
    """
    q, n, s = state.q, state.n, gate.site
    mat = gate.matrix
    dim = (mat if gate._perm is None else gate._perm).shape[0]
    k = round(math.log(dim, q))
    if k < 1 or q**k != dim:
        raise PreconditionError(
            f"gate dimension {dim} is not a power of the state's q={q}"
        )
    if not (0 <= s and s + k <= n):
        raise OutOfBoundsError(f"gate sites {s}..{s + k - 1} outside 0..{n - 1}")
    shape = (q ** (n - s - k), q**k, q**s)
    psi, res = state.amps.reshape(shape), _output(state, out).reshape(shape)
    if gate._perm is not None:
        # _perm is in range, so "wrap" never wraps; "raise" would buffer res
        np.take(psi, gate._perm, axis=1, out=res, mode="wrap")
        if gate._phases is not None:
            res *= gate._phases[:, None]
    elif s == 0:
        np.matmul(psi.reshape(shape[:2]), mat.T, out=res.reshape(shape[:2]))
    elif gate._real is not None and shape[2] % 4 == 0 and psi.flags.c_contiguous:
        # a real matrix acts on re and im alike: one float64 matmul over the
        # (hi, q**k, 2*lo) view of the (re, im) pairs
        floats = shape[:2] + (2 * shape[2],)
        np.matmul(gate._real, psi.view(np.float64).reshape(floats),
                  out=res.view(np.float64).reshape(floats))
    else:
        np.matmul(mat, psi, out=res)
    return _result(state, res, _check)


def apply_controlled_increment(
    state: StateVector, control: int, target: int, inverse: bool = False,
    out: np.ndarray | None = None, _check: bool = True,
) -> StateVector:
    """|l>_control |x>_target -> |l>|x + l mod q>  (CNOT at q=2), into ``out``
    if given."""
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
    res = _output(state, out).reshape(psi.shape)
    sel_out: list = [slice(None)] * 5
    sel_in: list = [slice(None)] * 5
    for lc in range(q):
        sel_out[axc] = sel_in[axc] = lc
        for a in range(q):
            sel_out[axt] = a
            sel_in[axt] = (a + lc) % q if inverse else (a - lc) % q
            res[tuple(sel_out)] = psi[tuple(sel_in)]
    return _result(state, res, _check)


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
        if not (math.isfinite(self.strength) and self.strength > 0):
            raise PreconditionError(
                f"coupling strength must be finite and > 0, got {self.strength}"
            )
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


@lru_cache(maxsize=64)
def _phase_weights(q: int, n: int, control: tuple, targets: tuple) -> np.ndarray:
    """The read-only block w_c * w_t of these sites, in the smallest dtype holding it."""
    dtype = np.min_scalar_type((q - 1) ** 2 * len(control) * len(targets))
    w = _axis_level_sum(q, n, control, dtype) * _axis_level_sum(q, n, targets, dtype)
    w.flags.writeable = False
    return w


def evolve_phase(
    state: StateVector, coupling: PhaseCoupling, duration: float,
    out: np.ndarray | None = None, _check: bool = True,
) -> StateVector:
    """Exact diagonal evolution under the merge coupling for the given duration.

    The weights w_c * w_t are an integer block on the (q,)*n view with length
    q only on the masked sites' axes, from :func:`_phase_weights`.  The
    phases are looked up from it and broadcast against the state, slab by
    slab over its outer axes when the block is wide, into ``out`` if given.
    Negative durations run the evolution backward (the inverse unitary).
    """
    if not math.isfinite(duration):
        raise PreconditionError(f"evolution duration must be finite, got {duration}")
    for mask in (coupling.control_mask, *coupling.target_masks):
        if mask.size and (mask.min() < 0 or mask.max() >= state.n):
            raise OutOfBoundsError("coupling mask site outside the state")
    q, n = state.q, state.n
    targets = tuple(s for t in coupling.target_masks for s in t.tolist())
    w = _phase_weights(q, n, tuple(coupling.control_mask.tolist()), targets)
    top = (q - 1) ** 2 * coupling.control_mask.size * len(targets)  # the largest weight
    # weights are small integers; exponentiate the few distinct values once
    table = np.exp((-1j * duration * coupling.strength) * np.arange(top + 1))
    psi = state.tensor()
    res = _output(state, out).reshape(psi.shape)
    lead, inner = 0, w.size
    while inner > _PHASE_SLAB:
        inner //= w.shape[lead]
        lead += 1
    phases = np.empty(w.shape[lead:], dtype=np.complex128)
    for idx in np.ndindex(*w.shape[:lead]):
        # one slab: w's leading axes fixed, the unmasked ones among them whole;
        # the weights are in range, so "wrap" never wraps
        sel = tuple(i if size > 1 else slice(None) for i, size in zip(idx, w.shape))
        np.take(table, w[idx], out=phases, mode="wrap")
        np.multiply(psi[sel], phases, out=res[sel])
    return _result(state, res, _check)


def fidelity(x: StateVector, y: StateVector) -> float:
    """|<x|y>|**2, clipped to at most 1; NaN amplitudes give NaN, never 1."""
    if x.q != y.q or x.n != y.n:
        raise PreconditionError(
            f"state shapes differ: (q={x.q}, n={x.n}) vs (q={y.q}, n={y.n})"
        )
    return float(np.minimum(1.0, abs(_vdot(x.amps, y.amps)) ** 2))


def expected_ghz(region: Region, lattice: LatticeSpec, coefficients) -> StateVector:
    """sum_l a_l |l...l>_region, every site outside the region in |0>.

    The state has q nonzero amplitudes: a_l at flat index l * sum_{s in region}
    q**s, written into one zero state.  A lattice :func:`check_capacity`
    refuses is refused.
    """
    check_capacity(lattice)
    q, n = lattice.levels, lattice.n_sites
    coeffs = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    if coeffs.size != q:
        raise PreconditionError(f"need {q} coefficients, got {coeffs.size}")
    if not abs(np.sum(np.abs(coeffs) ** 2) - 1.0) <= _NORM_TOL:
        raise PreconditionError("coefficients are not normalized")
    amps = np.zeros(q**n, dtype=np.complex128)
    amps[np.arange(q) * sum(q**s for s in site_mask(region, lattice).tolist())] = coeffs
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
