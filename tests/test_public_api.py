"""The package's public names: exactly these, each one resolving."""
import inspect

import pytest

import ghzlattice
from ghzlattice import analysis, protocol, scheduler, simulator

PUBLIC = [
    "DEFAULT_AMP_CAP", "DivisibilityError", "EncodeRequest", "Gate", "GhzLatticeError",
    "LatticeSpec", "MemoryCapError", "OutOfBoundsError", "PhaseCoupling",
    "PlanMismatchError", "PoleError", "PreconditionError", "ProtocolTrace",
    "RegimeParams", "Region", "ScalingRow", "ScheduleNode", "SchedulePlan",
    "StatePreconditionError", "StateVector", "StepRecord", "UnreachableTargetError",
    "UnsupportedRegimeError", "apply_controlled_increment", "apply_gate", "basis_vector",
    "bound_kernel", "choose_m", "decade_exponents", "decode", "dft_matrix",
    "dump_amplitudes", "encode", "euclidean_diameter_bound", "evolve_phase",
    "expected_ghz", "fidelity", "fit_loglog_slope", "fit_sqrtlog_slope",
    "fitted_exponent", "gate_bound_table", "gate_count_upper", "init_product",
    "k_alpha_min", "make_params", "merge_duration", "partition", "plan",
    "protocol_time", "regime", "scaling_sweep", "site_mask", "speedup_report",
    "state_transfer", "t_star", "table1_curves",
]

# names that had no caller outside the tests, and the modules that held them
REMOVED = [
    (simulator, "zero_state"),
    (simulator, "hadamard_matrix"),
    (protocol, "verify_step"),
    (analysis, "speedup_crossover"),
]


def test_all_is_pinned_and_resolves():
    assert sorted(ghzlattice.__all__) == PUBLIC
    assert len(set(ghzlattice.__all__)) == len(PUBLIC) == 56
    assert [name for name in PUBLIC if not hasattr(ghzlattice, name)] == []


@pytest.mark.parametrize("module,name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_name_is_gone(module, name):
    assert not hasattr(ghzlattice, name)
    assert not hasattr(module, name)


def test_gate_count_upper_takes_alpha_d_n():
    assert list(inspect.signature(scheduler.gate_count_upper).parameters) == [
        "alpha", "d", "n"]
