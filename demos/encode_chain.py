"""Encode an unknown qubit into a GHZ-like state across a 16-site chain.

The source site holds (a, b) = (0.6, 0.8); everything else starts in |0>.
At alpha = 1.5 the scheduler's own plan merges by 2 at every level
(2 -> 4 -> 8 -> 16 sites) and certifies: every node's time meets its bound.
The trace shows the analytic time and the fidelity against the expected
state after every step.
"""
import numpy as np

from ghzlattice import (
    EncodeRequest,
    LatticeSpec,
    basis_vector,
    dump_amplitudes,
    encode,
    expected_ghz,
    fidelity,
    init_product,
    plan,
)

lattice = LatticeSpec(dimension=1, side=16, levels=2)
schedule = plan(alpha=1.5, d=1, target_r=16)

coeffs = np.array([0.6, 0.8])
sites = [basis_vector(2, 0) for _ in range(lattice.n_sites)]
sites[0] = coeffs
state = init_product(lattice, sites)

request = EncodeRequest(lattice, lattice.full_region(), c=0,
                        coefficients=coeffs, plan=schedule)
state, trace = encode(state, request)

print("schedule: levels", schedule.levels, " total time %.4f" % schedule.t_total,
      " certified", schedule.certified)
print("step trace (level, step, elapsed, fidelity):")
for rec in trace.records:
    print(f"  level {rec.level}  step {rec.step}  "
          f"elapsed {rec.elapsed:12.4f}  fidelity {rec.fidelity:.12f}")
print(f"final fidelity vs a|0...0> + b|1...1>: {trace.final_fidelity:.12f}")

target = expected_ghz(lattice.full_region(), lattice, coeffs)
print("independent check:", fidelity(state, target))
print("surviving amplitudes:")
for basis, re, im in dump_amplitudes(state, threshold=1e-6):
    print(f"  |{basis}>  {re:+.6f} {im:+.6f}j")
