"""The package's public names: exactly these, each one resolving."""
import dataclasses
import inspect

import pytest

import ghzlattice
from ghzlattice import analysis, cli, protocol, scheduler, simulator

PUBLIC = [
    "DivisibilityError", "EncodeRequest", "Gate", "GhzLatticeError",
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
    (simulator, "DEFAULT_AMP_CAP"),
]


def test_all_is_pinned_and_resolves():
    assert sorted(ghzlattice.__all__) == PUBLIC
    assert len(set(ghzlattice.__all__)) == len(PUBLIC) == 55
    assert [name for name in PUBLIC if not hasattr(ghzlattice, name)] == []


@pytest.mark.parametrize("module,name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_name_is_gone(module, name):
    assert not hasattr(ghzlattice, name)
    assert not hasattr(module, name)


def test_gate_count_upper_takes_alpha_d_n():
    assert list(inspect.signature(scheduler.gate_count_upper).parameters) == [
        "alpha", "d", "n"]


# the parameters of the scheduler's entry points, in order: kappa is fixed at
# log 4/log(2d/alpha), so none takes a kappa factor
SIGNATURES = [
    (scheduler.plan, ["alpha", "d", "target_r", "r0", "t_base", "q", "K_alpha",
                      "forced_m", "mode"]),
    (scheduler.make_params, ["alpha", "d", "r0", "K_alpha", "t_base"]),
    (scheduler.k_alpha_min, ["alpha", "d", "m", "r0"]),
    (scheduler.bound_kernel, ["alpha", "d", "r"]),
]


@pytest.mark.parametrize("func,params", SIGNATURES, ids=[f.__name__ for f, _ in SIGNATURES])
def test_scheduler_parameters(func, params):
    assert list(inspect.signature(func).parameters) == params


# each stored field is one a caller sets or reads
FIELDS = [
    (scheduler.RegimeParams, ["alpha", "d", "K_alpha", "r0", "t_base"]),
    (scheduler.SchedulePlan, ["params", "nodes", "mode", "q", "lattice"]),
    (protocol.ProtocolTrace, ["total_time", "final_fidelity", "records"]),
]


@pytest.mark.parametrize("cls,names", FIELDS, ids=[c.__name__ for c, _ in FIELDS])
def test_fields(cls, names):
    assert [f.name for f in dataclasses.fields(cls)] == names


# the memory budget is one private constant: no library function takes a cap
CAPLESS = [
    (simulator.check_capacity, ["lattice"]),
    (simulator.init_product, ["lattice", "site_states"]),
]


@pytest.mark.parametrize("func,params", CAPLESS, ids=[f.__name__ for f, _ in CAPLESS])
def test_no_cap_parameter(func, params):
    assert list(inspect.signature(func).parameters) == params


def _assert_option_refused(tmp_path, capsys, argv, key, value):
    """``--key value`` and the config key ``key`` are both usage errors."""
    assert cli.run([*argv, f"--{key}", value]) == cli.EXIT_USAGE == 2
    assert f"--{key}" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}={value}\n")
    assert cli.run([*argv, "--config", str(config)]) == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_no_kappa_factor_flag_or_config_key(tmp_path, capsys):
    _assert_option_refused(tmp_path, capsys, ["plan", "--alpha", "1.5", "--r", "8"],
                           "kappa-factor", "3.5")


@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha", "2.5", "--r", "4", "--coeff", "1,0"],
    ["transfer", "--alpha", "2.5", "--r", "4", "--coeff", "1,0", "--target", "3"],
], ids=["simulate", "transfer"])
def test_no_max_amps_flag_or_config_key(tmp_path, capsys, argv):
    _assert_option_refused(tmp_path, capsys, argv, "max-amps", "8")
