"""ghzlattice: GHZ-like encoding and state transfer in power-law lattices.

An analytic recursion scheduler (merge factors, step times, total-time
envelopes, comparison curves, gate-count bounds) paired with an exact dense
statevector simulator that executes the recursive protocol at desk scale.
"""

import importlib.util
import sys

from .errors import (
    DivisibilityError,
    GhzLatticeError,
    MemoryCapError,
    OutOfBoundsError,
    PlanMismatchError,
    PoleError,
    PreconditionError,
    StatePreconditionError,
    UnreachableTargetError,
    UnsupportedRegimeError,
)
from .geometry import LatticeSpec, Region, euclidean_diameter_bound, partition, site_mask
from .scheduler import (
    RegimeParams,
    ScheduleNode,
    SchedulePlan,
    bound_kernel,
    choose_m,
    gate_count_upper,
    k_alpha_min,
    make_params,
    merge_duration,
    plan,
    protocol_time,
    regime,
    t_star,
    table1_curves,
)
from .analysis import (
    ScalingRow,
    decade_exponents,
    fit_loglog_slope,
    fit_sqrtlog_slope,
    fitted_exponent,
    gate_bound_table,
    scaling_sweep,
    speedup_report,
)

# The run stack (simulator and protocol, and numpy with them) loads on first
# use: both modules sit in sys.modules at once, deferred, and each runs its
# body on its first attribute read.  So the analytic commands never load
# numpy, and a tracer that reads every loaded module's names still reaches
# them.
def _deferred(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


simulator = _deferred("simulator")
protocol = _deferred("protocol")

# the run names each module defines, bound here on the first read of any
_RUN_NAMES = {
    "protocol": ("EncodeRequest", "ProtocolTrace", "StepRecord", "decode", "encode",
                 "state_transfer"),
    "simulator": ("Gate", "PhaseCoupling", "StateVector", "apply_controlled_increment",
                  "apply_gate", "basis_vector", "dft_matrix", "dump_amplitudes",
                  "evolve_phase", "expected_ghz", "fidelity", "init_product"),
}

__version__ = "0.1.0"

__all__ = [
    "DivisibilityError",
    "EncodeRequest",
    "Gate",
    "GhzLatticeError",
    "LatticeSpec",
    "MemoryCapError",
    "OutOfBoundsError",
    "PhaseCoupling",
    "PlanMismatchError",
    "PoleError",
    "PreconditionError",
    "ProtocolTrace",
    "Region",
    "RegimeParams",
    "ScalingRow",
    "ScheduleNode",
    "SchedulePlan",
    "StatePreconditionError",
    "StateVector",
    "StepRecord",
    "UnreachableTargetError",
    "UnsupportedRegimeError",
    "apply_controlled_increment",
    "apply_gate",
    "basis_vector",
    "bound_kernel",
    "choose_m",
    "decade_exponents",
    "decode",
    "dft_matrix",
    "dump_amplitudes",
    "encode",
    "euclidean_diameter_bound",
    "evolve_phase",
    "expected_ghz",
    "fidelity",
    "fit_loglog_slope",
    "fit_sqrtlog_slope",
    "fitted_exponent",
    "gate_bound_table",
    "gate_count_upper",
    "init_product",
    "k_alpha_min",
    "make_params",
    "merge_duration",
    "partition",
    "plan",
    "protocol_time",
    "regime",
    "scaling_sweep",
    "site_mask",
    "speedup_report",
    "state_transfer",
    "t_star",
    "table1_curves",
]


def __getattr__(name: str):
    """Load the run stack as one piece on the first read of a run name:
    protocol first, whose body imports simulator."""
    if not any(name in names for names in _RUN_NAMES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _RUN_NAMES.items():
        globals().update((n, getattr(globals()[module], n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
