import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ghzlattice.analysis import scaling_sweep
from ghzlattice.errors import (
    PoleError,
    PreconditionError,
    UnreachableTargetError,
    UnsupportedRegimeError,
)
from ghzlattice.geometry import LatticeSpec
from ghzlattice.scheduler import (
    AssumptionWarning,
    RegimeParams,
    ScheduleNode,
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

PI = math.pi


class TestRegime:
    def test_classification(self):
        assert regime(1.5, 1) == "polylog"
        assert regime(2.0, 1) == "stretched"
        assert regime(2.5, 1) == "power"
        assert regime(3.0, 1) == "power"  # alpha = 2d+1 included
        assert regime(3.9, 2) == "polylog"

    @pytest.mark.parametrize("alpha,d", [(1.0, 1), (0.5, 1), (3.1, 1), (2.0, 2)])
    def test_out_of_scope(self, alpha, d):
        with pytest.raises(UnsupportedRegimeError):
            regime(alpha, d)


class TestChooseM:
    def test_polylog_example(self):
        # interval (4**(1/3), 2*4**(1/3)] = (1.5874, 3.1748]
        lower = 4.0 ** (2.0 / 1.5 - 1.0)
        m = choose_m(1.5, 1, 4)
        assert m == 2
        assert lower < m <= 2 * lower

    def test_stretched_example(self):
        # smallest integer >= exp(1.5 * sqrt(log 2981)); log 2981 ~ 8.000
        lower = math.exp(1.5 * math.sqrt(math.log(2981)))
        m = choose_m(2.0, 1, 2981)
        assert m == math.ceil(lower) == 70
        assert lower <= m <= 2 * lower

    def test_power_example(self):
        # smallest integer strictly above 3**(1/0.5) = 9
        assert choose_m(2.5, 1, 4) == 10

    def test_power_constant_in_r1(self):
        ms = {choose_m(2.5, 1, r1) for r1 in (1, 2, 7, 100, 10**6)}
        assert ms == {10}

    def test_unsupported(self):
        with pytest.raises(UnsupportedRegimeError):
            choose_m(0.8, 1, 4)

    def test_stretched_small_r1_rejected(self):
        with pytest.raises(PreconditionError):
            choose_m(2.0, 1, 2)

    def test_interval_property_random(self):
        # 1e4 draws per regime: the returned integer sits inside the interval
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            d = int(rng.integers(1, 4))
            alpha = d + (d - 1e-6) * rng.uniform(0.01, 0.99)
            r1 = int(rng.integers(1, 1000))
            lam = 2 * d / alpha
            lower = r1 ** (lam - 1)
            m = choose_m(alpha, d, r1)
            assert lower < m <= 2 * lower
        for _ in range(10_000):
            d = int(rng.integers(1, 4))
            r1 = int(math.ceil(math.exp(8 / d))) + int(rng.integers(0, 100_000))
            m = choose_m(2 * d, d, r1)
            lower = math.exp(3 * math.sqrt(d) / (2 * d) * math.sqrt(math.log(r1)))
            assert lower <= m <= 2 * lower
        for _ in range(10_000):
            d = int(rng.integers(1, 4))
            alpha = 2 * d + rng.uniform(0.02, 1.0)
            m = choose_m(alpha, d, int(rng.integers(1, 1000)))
            assert m > 3 ** (1 / (alpha - 2 * d))
            assert m == choose_m(alpha, d, 1)


class TestStep2Time:
    def test_worked_values(self):
        assert merge_duration(3.0, 1, 2, 2, q=2) == pytest.approx(16 * PI, rel=1e-14)
        assert merge_duration(2.0, 2, 2, 2, q=2) == pytest.approx(2 * PI, rel=1e-14)
        assert merge_duration(1.7, 1, 1, 1, q=2) == pytest.approx(PI, rel=1e-14)

    def test_m_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 3))
            alpha = rng.uniform(d + 0.05, 2 * d + 1)
            m = int(rng.integers(1, 30))
            r1 = int(rng.integers(1, 50))
            ratio = (merge_duration(alpha, d, 2 * m, r1, q=2)
                     / merge_duration(alpha, d, m, r1, q=2))
            assert ratio == pytest.approx(2.0**alpha, rel=1e-12)

    def test_qudit_duration(self):
        # q=2 reproduces the qubit merge time exactly; q=3 takes 2/3 of it
        assert merge_duration(2.5, 1, 2, 2, q=2) == PI * 2.0**2.5 * 2.0**0.5
        assert merge_duration(2.5, 1, 2, 2, q=3) == pytest.approx(
            2 / 3 * merge_duration(2.5, 1, 2, 2, q=2), rel=1e-15
        )

    @pytest.mark.parametrize("m,r1", [(0, 2), (2, 0), (-1, 2), (math.nan, 2),
                                      (2, math.inf)])
    def test_rejects_non_finite_or_non_positive(self, m, r1):
        with pytest.raises(PreconditionError):
            merge_duration(2.5, 1, m, r1)


class TestKAlphaMin:
    def test_power_value(self):
        want = PI * 10**2.5 / (10**0.5 - 3)
        assert k_alpha_min(2.5, 1, m=10) == pytest.approx(want, rel=1e-14)

    def test_stretched_value(self):
        want = 4 * PI / (math.e**2 - 3)
        assert k_alpha_min(2.0, 1) == pytest.approx(want, rel=1e-14)

    def test_pole(self):
        with pytest.raises(PoleError):
            k_alpha_min(2.5, 1, m=9)  # 9**0.5 = 3 exactly

    def test_pole_in_log_space(self):
        # m**(alpha-2d) - 3 rounds to one ulp above 0, but log(m)*(alpha-2d)
        # <= log 3: the m choose_m returns here is not resolvably above the pole
        m = choose_m(2.031, 1, 2)
        assert float(m) ** (2.031 - 2) - 3.0 > 0
        with pytest.raises(PoleError):
            k_alpha_min(2.031, 1, m=m)

    def test_polylog_assumption_at_base(self):
        # the returned K makes K * log(r0)**kappa equal pi*(2 sqrt d)**alpha
        for alpha, d, r0 in [(1.5, 1, 2), (1.2, 1, 2), (3.0, 2, 2), (2.5, 2, 4)]:
            k = k_alpha_min(alpha, d, r0=r0)
            kappa = math.log(4) / math.log(2 * d / alpha)
            assert k * math.log(r0) ** kappa == pytest.approx(
                PI * (2 * math.sqrt(d)) ** alpha, rel=1e-12
            )


class TestBoundT:
    def test_polylog_at_1(self):
        params = make_params(1.5, 1, K_alpha=1.0)
        assert params.bound(1) == 0.0

    def test_power(self):
        params = make_params(2.5, 1, K_alpha=1.0)
        assert params.bound(16) == pytest.approx(4.0, rel=1e-14)

    def test_stretched(self):
        params = make_params(2.0, 1, K_alpha=1.0)
        assert params.bound(math.e**4) == pytest.approx(
            math.exp(6.0), rel=1e-12
        )

    def test_monotone_in_r(self):
        for alpha, d in [(1.3, 1), (2.0, 1), (2.7, 1), (3.1, 2), (4.0, 2), (4.6, 2)]:
            params = make_params(alpha, d)
            values = [params.bound(r) for r in np.logspace(0.01, 12, 120)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_unsupported(self):
        params = make_params(2.5, 1)
        with pytest.raises(UnsupportedRegimeError):
            bound_kernel(0.9, 1, 10)
        with pytest.raises(UnsupportedRegimeError):
            replace(params, alpha=3.2).bound(10)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_r_refused(self, alpha, r):
        # NaN fails every comparison, so the guards test for a valid r, not a bad one
        with pytest.raises(PreconditionError, match="finite"):
            bound_kernel(alpha, 1, r)
        with pytest.raises(PreconditionError, match="finite"):
            make_params(alpha, 1).bound(r)


class TestRegimeParams:
    def test_fields_are_the_chosen_values(self):
        assert [f.name for f in fields(RegimeParams)] == [
            "alpha", "d", "K_alpha", "r0", "t_base"]

    def test_derived_constants(self):
        params = make_params(1.5, 1)
        assert params.regime == "polylog"
        assert params.gamma == 3.0
        assert params.lam == 2 / 1.5
        assert params.kappa_alpha == math.log(4) / math.log(2 / 1.5)
        assert replace(params, alpha=2.5).regime == "power"
        assert replace(params, alpha=2.5).kappa_alpha is None
        with pytest.raises(AttributeError):
            params.lam = 2.0


def ladder_target(alpha, d, r0, depth):
    r = r0
    for _ in range(depth):
        r *= choose_m(alpha, d, r)
    return r


class TestPlan:
    def test_single_level_power(self):
        p = plan(2.5, 1, 20, r0=2)
        assert p.levels == [10]
        k = k_alpha_min(2.5, 1, m=10)
        assert p.params.t_base == pytest.approx(k * math.sqrt(2), rel=1e-13)
        root = p.root
        assert root.t2 == pytest.approx(PI * 20**2.5 / 4, rel=1e-13)
        assert root.t_total == pytest.approx(3 * p.params.t_base + root.t2, rel=1e-13)

    def test_base_only(self):
        p = plan(2.5, 1, 2, r0=2)
        assert p.root.is_base
        assert p.t_total == p.params.t_base
        assert p.levels == []

    def test_polylog_level(self):
        # r0=4, one level with m=2 -> r=8; V = 4 so t2 = pi*8**1.5/16
        p = plan(1.5, 1, 8, r0=4)
        assert p.levels == [2]
        assert p.root.t2 == pytest.approx(PI * 8**1.5 / 16, rel=1e-13)
        assert p.root.t_total == pytest.approx(
            3 * p.params.t_base + PI * 8**1.5 / 16, rel=1e-13
        )

    def test_unreachable_reports_bracket(self):
        with pytest.raises(UnreachableTargetError) as err:
            plan(2.5, 1, 50, r0=2)
        assert err.value.below == 20
        assert err.value.above == 200

    def test_forced_m_mismatch(self):
        # a forced list reaches one size; the side it misses on stays None
        with pytest.raises(UnreachableTargetError) as err:
            plan(2.5, 1, 10, r0=2, forced_m=[2, 2])
        assert (err.value.below, err.value.above) == (8, None)
        with pytest.raises(UnreachableTargetError) as err:
            plan(2.5, 1, 10, r0=2, forced_m=[2, 3])
        assert (err.value.below, err.value.above) == (None, 12)
        assert str(err.value) == "side 10 is not reachable; the forced merge factors reach 12"

    def test_forced_m_tree(self):
        p = plan(2.5, 1, 16, r0=2, forced_m=[2, 2, 2])
        assert [n.r for n in p.nodes] == [16, 8, 4, 2]
        assert all(not n.is_base and n.forced for n in p.nodes[:-1])
        assert not p.nodes[-1].forced
        assert not any(n.forced for n in plan(2.5, 1, 20, r0=2).nodes)

    def test_node_recursion_identity(self):
        p = plan(2.5, 1, 200, r0=2)
        for node in p.nodes:
            if node.is_base:
                continue
            assert node.r == node.m * node.r1
            assert node.t_total == pytest.approx(3 * node.t1 + node.t2, rel=1e-15)

    def test_children_share_schedule(self):
        p = plan(4.5, 2, 20, r0=2)
        assert p.to_dict()["nodes"][0]["n_children"] == 100

    @pytest.mark.parametrize(
        "alpha,d,r0",
        [
            (1.2, 1, 2),
            (1.5, 1, 2),
            (2.5, 1, 2),
            (3.0, 1, 2),
            (2.0, 1, 2981),
            (2.5, 2, 2),
            (4.0, 2, 55),
            (4.5, 2, 2),
        ],
    )
    def test_bound_certificate_depth4(self, alpha, d, r0):
        # Recursion-bound certificate: with K at the regime minimum, every
        # node's total time sits on or under the envelope.
        target = ladder_target(alpha, d, r0, 4)
        p = plan(alpha, d, target, r0=r0)
        for rec in p.certify():
            assert rec["preconditions_met"], rec
            assert rec["t_total"] <= rec["bound"] * (1 + 1e-9), rec
        assert p.certified

    def test_power_certificate_is_tight(self):
        # with default K and constant m the power-regime recursion closes with
        # equality at every node
        p = plan(2.5, 1, 2000, r0=2)
        for rec in p.certify():
            assert rec["t_total"] == pytest.approx(rec["bound"], rel=1e-12)

    def test_assumption_warning_surfaces(self):
        # an undersized K breaks the polylog simplifying assumption; the plan
        # builds but warns instead of silently claiming the envelope
        with pytest.warns(AssumptionWarning):
            p = plan(1.5, 1, 8, r0=2, K_alpha=1e-3)
        assert p.notes
        assert not p.certified

    @pytest.mark.parametrize("kw", [
        {"K_alpha": math.nan}, {"K_alpha": math.inf}, {"K_alpha": 0.0},
        {"t_base": math.nan}, {"t_base": math.inf}, {"t_base": -5.0},
    ])
    def test_non_finite_or_negative_constants_rejected(self, kw):
        with pytest.raises(PreconditionError):
            plan(2.5, 1, 20, r0=2, **kw)

    @pytest.mark.parametrize("target", [math.inf, math.nan])
    @pytest.mark.parametrize("mode", ["integer-exact", "continuous-analytic"])
    def test_non_finite_target_rejected(self, target, mode):
        with pytest.raises(PreconditionError):
            plan(2.5, 1, target, r0=2, mode=mode)

    def test_near_pole_merge_factor_unsupported(self):
        # 3**(1/(alpha-2d)) = 3**10000 overflows a float
        with pytest.raises(UnsupportedRegimeError):
            choose_m(2.0001, 1, 2)
        with pytest.raises(UnsupportedRegimeError):
            plan(2.0001, 1, 20, r0=2)

    @pytest.mark.parametrize("alpha", [2.002, 2.004, 2.01, 2.03])
    def test_near_pole_default_plan_unsupported(self, alpha):
        # choose_m's m is not resolvably above the pole in double precision
        with pytest.raises(UnsupportedRegimeError, match="resolvably above the pole"):
            plan(alpha, 1, 20, r0=2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_near_pole_default_k_finite_or_unsupported(self, d):
        for k in np.linspace(0.3, 6.0, 60):
            try:
                params = make_params(2 * d + 10.0 ** -float(k), d)
            except UnsupportedRegimeError:
                continue
            assert 0 < params.K_alpha < math.inf

    def test_near_pole_forced_plan_certifies(self):
        p = plan(2.0001, 1, 20, r0=2, K_alpha=1.0, forced_m=[10])
        assert [rec["preconditions_met"] for rec in p.certify()] == [False, True]

    def test_target_below_base(self):
        with pytest.raises(PreconditionError):
            plan(2.5, 1, 1, r0=2)

    def test_nodes_are_flat_root_first(self):
        assert [f.name for f in fields(ScheduleNode)] == [
            "r", "r1", "m", "t1", "t2", "t_total", "forced"]
        p = plan(2.5, 1, 200, r0=2)
        assert isinstance(p.nodes, tuple)
        assert p.root is p.nodes[0]
        assert [n.r for n in p.nodes] == [200, 20, 2]
        assert p.levels == [10, 10]

    def test_deep_plan(self):
        # 499 levels: nothing may recurse once per level
        p = plan(3.0, 1, 1e300, mode="continuous-analytic")
        assert len(p.nodes) == 499 and len(p.levels) == 498
        assert p == plan(3.0, 1, 1e300, mode="continuous-analytic")
        assert repr(p).startswith("SchedulePlan(")
        assert hash(p.nodes) == hash(tuple(replace(n) for n in p.nodes))
        nodes = json.loads(json.dumps(p.to_dict(), allow_nan=False))["nodes"]
        assert len(nodes) == 499 and nodes[-1]["n_children"] == 0

    def test_to_dict_roundtrips_json(self):
        p = plan(2.5, 1, 200, r0=2)
        payload = json.loads(json.dumps(p.to_dict()))
        assert payload["nodes"][0]["r"] == 200
        assert payload["nodes"][0]["m"] == 10
        assert payload["nodes"][0]["n_children"] == 10
        assert payload["nodes"][1]["r"] == 20
        assert payload["levels"] == [10, 10]
        assert payload["regime"] == "power"


class TestContinuousMode:
    def test_power_is_exact_envelope(self):
        # the continuous chain telescopes to exactly K * r**(alpha-2d)
        params_k = k_alpha_min(2.5, 1, m=10)
        for r in (3.7, 128.0, 5000.0, 1e12):
            t = protocol_time(2.5, 1, r)
            assert t == pytest.approx(params_k * r**0.5, rel=1e-12)

    def test_matches_integer_exact_at_reachable_sizes(self):
        for target in (20, 200, 2000):
            exact = plan(2.5, 1, target, r0=2).t_total
            cont = protocol_time(2.5, 1, target)
            assert cont == pytest.approx(exact, rel=1e-12)

    def test_polylog_smooth_and_under_envelope(self):
        params = make_params(1.5, 1)
        rs = np.logspace(0.5, 25, 300)
        ts = [protocol_time(1.5, 1, r) for r in rs]
        assert all(b >= a - 1e-12 for a, b in zip(ts, ts[1:]))
        for r, t in zip(rs, ts):
            assert t <= params.bound(r) * (1 + 1e-9)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    def test_polylog_monotone_for_qudits(self, alpha, q):
        # the base extension must add the q-level merge time of every level
        ts = [plan(alpha, 1, r, q=q, mode="continuous-analytic").t_total
              for r in np.geomspace(3, 1e12, 4000)]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_reports_real_valued_m(self):
        p = plan(1.5, 1, 1000.0, mode="continuous-analytic")
        assert p.mode == "continuous-analytic"
        assert any(not float(m).is_integer() for m in p.levels)
        for node in p.nodes:
            if not node.is_base:
                assert node.r == pytest.approx(node.m * node.r1, rel=1e-12)
                assert node.t_total == pytest.approx(
                    3 * node.t1 + node.t2, rel=1e-14
                )

    def test_huge_r_stays_finite(self):
        for alpha in (1.5, 2.0, 2.5):
            t = protocol_time(alpha, 1, 1e300)
            assert math.isfinite(t) and t > 0

    def test_power_envelope_takes_any_positive_r(self):
        # a continuous power plan's base side r0/m**k can fall below 1
        assert bound_kernel(3.0, 1, 0.25) == 0.25
        for alpha, r in ((3.0, 0.0), (3.0, -1.0), (2.0, 0.5), (1.5, 0.5)):
            with pytest.raises(PreconditionError):
                bound_kernel(alpha, 1, r)

    def test_target_below_base_refused_in_every_mode(self):
        for mode in ("integer-exact", "continuous-analytic"):
            with pytest.raises(PreconditionError, match="below base side"):
                plan(2.5, 1, 1.5, mode=mode)


@st.composite
def plan_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    reg = draw(st.sampled_from(["polylog", "stretched", "power"]))
    if reg == "polylog":
        alpha = draw(st.floats(d + 0.05, 2 * d - 0.05))
    elif reg == "stretched":
        alpha = 2.0 * d
    else:
        alpha = draw(st.floats(2 * d + 0.05, 2 * d + 1))
    q = draw(st.sampled_from([2, 3, 4]))
    r0 = draw(st.sampled_from([1, 2, 3]))
    forced = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    return reg, alpha, d, q, r0, forced


def quiet_plan(*args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        return plan(*args, **kw)


class TestPlanTelescoping:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(plan_cases())
    def test_integer_exact(self, case):
        _, alpha, d, q, r0, forced = case
        # the polylog minimum K needs r0 > 1
        p = quiet_plan(alpha, d, r0 * math.prod(forced), r0=r0, q=q, forced_m=forced,
                       K_alpha=1.0 if r0 == 1 else None)
        assert p.root.r == r0 * math.prod(forced)
        for node, below in zip(p.nodes, p.nodes[1:]):
            assert node.r1 == below.r
            assert node.t1 == below.t_total
            assert node.t2 == merge_duration(alpha, d, node.m, node.r1, q)
            assert node.t_total == 3 * node.t1 + node.t2

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(plan_cases(), st.floats(0.0, 1.0))
    def test_continuous(self, case, frac):
        reg, alpha, d, q, r0, _ = case
        assume(not (reg == "polylog" and r0 == 1))  # needs base r0 > 1
        r = r0 * (1e12 / r0) ** frac
        p = plan(alpha, d, r, r0=r0, q=q, mode="continuous-analytic")
        for node, below in zip(p.nodes, p.nodes[1:]):
            assert node.r1 == below.r
            assert node.t_total == 3 * node.t1 + node.t2


def failed_checks(p):
    """The check names a plan's notes carry: "pole" from "pole at r=20: ..."."""
    return {note.split(" at r=")[0] for note in p.notes}


def assert_notes_match_certificate(p):
    """preconditions_met is false exactly where the plan notes a node."""
    for rec in p.certify():
        noted = any(f" at r={rec['r']}: " in note for note in p.notes)
        assert rec["preconditions_met"] == (not noted), (rec, p.notes)


# (plan args, plan keywords, the checks its audit fails)
AUDIT_CASES = [
    ((2.5, 1, 20), {"forced_m": [2, 5]}, {"pole"}),
    ((2.5, 1, 20), {"K_alpha": 1e-3}, {"K"}),  # m = 10 sits above the pole
    ((1.5, 1, 6), {"forced_m": [3]}, {"m"}),  # the interval at r1 = 2 ends at 2.52
    ((1.5, 1, 8), {"K_alpha": 1e-3}, {"K", "polylog"}),
    ((1.5, 1, 8), {"r0": 1, "K_alpha": 1.0}, {"K", "polylog"}),  # no minimum at r0 = 1
    ((2.0, 1, 8), {"forced_m": [4]}, {"r1"}),  # m = 4 is in [3.49, 6.97]
    ((2.0, 1, 4), {"forced_m": [2]}, {"m", "r1"}),
    ((2.5, 1, 20), {}, set()),
    ((1.5, 1, ladder_target(1.5, 1, 2, 3)), {}, set()),
    ((2.0, 1, 208670), {"r0": 2981}, set()),
]


# (plan args, plan keywords, the checks a continuous plan's audit fails)
CONTINUOUS_AUDIT_CASES = [
    ((1.5, 1, 1000.5), {}, {"m", "polylog"}),  # m is the interval's open lower end
    ((1.5, 1, 1000.5), {"K_alpha": 1e-3}, {"K", "m", "polylog"}),
    ((2.0, 1, 1e6), {}, {"r1"}),
    ((2.5, 1, 1e6), {}, set()),
    ((4.5, 2, 1e4), {}, set()),
]


class TestAudit:
    @pytest.mark.parametrize("args,kw,checks", AUDIT_CASES)
    def test_failed_checks_named(self, args, kw, checks):
        p = quiet_plan(*args, **kw)
        assert failed_checks(p) == checks
        assert p.certified == (not checks)
        assert_notes_match_certificate(p)

    def test_only_the_polylog_assumption_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AssumptionWarning)
            for args, kw, checks in AUDIT_CASES:
                if "polylog" not in checks:
                    assert failed_checks(plan(*args, **kw)) == checks
        with pytest.warns(AssumptionWarning, match="not guaranteed") as caught:
            p = plan(1.5, 1, 8, r0=2, K_alpha=1e-3)
        assert [str(w.message) for w in caught] == [
            note for note in p.notes if note.startswith("polylog")]

    @pytest.mark.parametrize("args,kw,checks", CONTINUOUS_AUDIT_CASES)
    def test_continuous_notes_match_the_certificate(self, args, kw, checks):
        # a continuous plan claims no certificate and never warns, but its
        # notes name each check its nodes fail, as an integer plan's do
        with warnings.catch_warnings():
            warnings.simplefilter("error", AssumptionWarning)
            p = plan(*args, mode="continuous-analytic", **kw)
        assert failed_checks(p) == checks
        assert_notes_match_certificate(p)
        assert "notes" not in {f.name for f in fields(p)}  # derived, never stored


class TestIntegerExactTargets:
    """An integer-exact target is never truncated: a side that is not an
    integer is unreachable, and the plan's lattice is the side it reaches."""

    @pytest.mark.parametrize("call,error,match", [
        (lambda: plan(2.5, 1, 20.9), UnreachableTargetError, r"20 \(below\) and 200"),
        (lambda: plan(2.5, 1, 20.9, forced_m=[10]), UnreachableTargetError, "reach 20$"),
        (lambda: scaling_sweep([2.5], 1, [20.9], mode="integer-exact"),
         UnreachableTargetError, r"20 \(below\) and 200"),
        (lambda: scaling_sweep([2.5], 1, [math.inf], mode="integer-exact"),
         PreconditionError, "must be finite"),
    ], ids=["plan", "plan-forced", "sweep", "sweep-inf"])
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @pytest.mark.parametrize("r", [20, 20.0, np.float64(20.0), np.int64(20)])
    def test_integer_valued_targets(self, r):
        p = plan(2.5, 1, r)
        assert p == plan(2.5, 1, 20)
        assert type(p.lattice.side) is int and p.lattice == LatticeSpec(1, 20)


class TestTStar:
    def test_power(self):
        assert t_star(2.5, 1, 100) == pytest.approx(10.0, rel=1e-14)

    def test_polylog_n1(self):
        assert t_star(1.5, 1, 1) == 0.0

    def test_stretched(self):
        want = math.exp(3 * math.sqrt(2) * math.sqrt(8 / 2))
        assert t_star(4.0, 2, math.e**8) == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            t_star(2.5, 1, 0)
        with pytest.raises(UnsupportedRegimeError):
            t_star(3.5, 1, 10)


class TestGateCountUpper:
    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_overflow_is_a_precondition_failure(self, alpha):
        with pytest.raises(PreconditionError):
            gate_count_upper(alpha, 1, 1e200)

    def test_low_alpha(self):
        # n**2 up to and including alpha = 2d
        assert gate_count_upper(1.5, 1, 10) == 100.0
        assert gate_count_upper(2.0, 1, 10) == 100.0

    def test_high_alpha(self):
        assert gate_count_upper(4.5, 2, 10) == pytest.approx(10**2.25, rel=1e-13)

    def test_unit(self):
        assert gate_count_upper(1.5, 1, 1) == 1.0
        assert gate_count_upper(2.5, 1, 1) == 1.0

    def test_at_t_star(self):
        assert gate_count_upper(2.5, 1, 10**4) == pytest.approx(10**10.0, rel=1e-12)
        assert gate_count_upper(1.5, 1, 50) == 2500.0

    def test_domain(self):
        # t_star, where the bound is taken, exists only for d < alpha <= 2d+1
        for alpha in (1.0, 3.5):
            with pytest.raises(UnsupportedRegimeError):
                gate_count_upper(alpha, 1, 10)
        for n in (0, math.nan, math.inf):
            with pytest.raises(PreconditionError):
                gate_count_upper(2.5, 1, n)


class TestTable1:
    def test_polylog_point(self):
        curves = table1_curves(1.5, 1, math.e)
        assert curves["encode_prev_best"] == pytest.approx(math.e**0.5, rel=1e-14)
        assert curves["encode_lightcone"] == pytest.approx(1.0, rel=1e-14)
        assert curves["regime"] == "polylog"

    def test_power_point_d1(self):
        curves = table1_curves(2.5, 1, 16)
        assert curves["encode_lightcone"] == pytest.approx(4.0, rel=1e-14)  # r**(a-2)
        assert curves["encode_prev_best"] == 16.0  # linear, alpha >= d+1
        assert curves["encode_protocol"] == pytest.approx(4.0, rel=1e-14)

    def test_r1_degenerate(self):
        curves = table1_curves(2.2, 2, 1)
        for key, value in curves.items():
            if key == "regime" or value is None:
                continue
            assert value in (0.0, 1.0)

    def test_universal_row(self):
        curves = table1_curves(2.2, 1, 100.0)
        # d=1 tightening: r**(alpha-1.5) beats r**((a-2d)/(a-d)) for a in (2, 2.5]
        assert curves["universal_lightcone"] == pytest.approx(100.0**0.7, rel=1e-13)
        assert curves["universal_prev_best"] == 100.0
        assert curves["universal_protocol"] is None

    def test_row_consistency(self):
        curves = table1_curves(2.7, 2, 50.0)
        assert curves["known_ghz_prev_best"] == curves["encode_prev_best"]
        assert curves["transfer_lightcone"] == curves["encode_lightcone"]
        assert curves["transfer_protocol"] == curves["encode_protocol"]

    def test_domain(self):
        with pytest.raises(UnsupportedRegimeError):
            table1_curves(3.0, 1, 10)  # table is open at 2d+1
        with pytest.raises(UnsupportedRegimeError):
            table1_curves(1.0, 1, 10)
