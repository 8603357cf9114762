import json
import math

import numpy as np
import pytest

from ghzlattice.errors import (
    PoleError,
    PreconditionError,
    UnreachableTargetError,
    UnsupportedRegimeError,
)
from ghzlattice.scheduler import (
    AssumptionWarning,
    bound_kernel,
    bound_t,
    choose_m,
    gate_count_upper,
    k_alpha_min,
    make_params,
    merge_duration,
    plan,
    protocol_time,
    regime,
    step2_time,
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
        assert step2_time(3.0, 1, 2, 2) == pytest.approx(16 * PI, rel=1e-14)
        assert step2_time(2.0, 2, 2, 2) == pytest.approx(2 * PI, rel=1e-14)
        assert step2_time(1.7, 1, 1, 1) == pytest.approx(PI, rel=1e-14)

    def test_m_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 3))
            alpha = rng.uniform(d + 0.05, 2 * d + 1)
            m = int(rng.integers(1, 30))
            r1 = int(rng.integers(1, 50))
            ratio = step2_time(alpha, d, 2 * m, r1) / step2_time(alpha, d, m, r1)
            assert ratio == pytest.approx(2.0**alpha, rel=1e-12)

    def test_qudit_duration(self):
        # q=2 reproduces the qubit merge time exactly; q=3 takes 2/3 of it
        assert merge_duration(2.5, 1, 2, 2, q=2) == step2_time(2.5, 1, 2, 2)
        assert merge_duration(2.5, 1, 2, 2, q=3) == pytest.approx(
            2 / 3 * step2_time(2.5, 1, 2, 2), rel=1e-15
        )


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
        assert bound_t(1.5, 1, 1, params) == 0.0

    def test_power(self):
        params = make_params(2.5, 1, K_alpha=1.0)
        assert bound_t(2.5, 1, 16, params) == pytest.approx(4.0, rel=1e-14)

    def test_stretched(self):
        params = make_params(2.0, 1, K_alpha=1.0)
        assert bound_t(2.0, 1, math.e**4, params) == pytest.approx(
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
            bound_t(3.2, 1, 10, params)


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
        with pytest.raises(UnreachableTargetError):
            plan(2.5, 1, 10, r0=2, forced_m=[2, 2])

    def test_forced_m_tree(self):
        p = plan(2.5, 1, 16, r0=2, forced_m=[2, 2, 2])
        assert [n.r for n in p.nodes()] == [16, 8, 4, 2]
        assert p.forced and all(not n.is_base and n.forced for n in p.nodes()[:-1])

    def test_node_recursion_identity(self):
        p = plan(2.5, 1, 200, r0=2)
        for node in p.nodes():
            if node.is_base:
                continue
            assert node.r == node.m * node.r1
            assert node.t_total == pytest.approx(3 * node.t1 + node.t2, rel=1e-15)

    def test_children_share_schedule(self):
        p = plan(4.5, 2, 20, r0=2)
        root = p.root
        assert root.n_children == 100
        assert len(set(id(c) for c in root.children)) == 1

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

    def test_kappa_factor_knob(self):
        # tightening log4 -> log3.5 raises K but keeps the certificate valid
        target = ladder_target(1.5, 1, 2, 3)
        tight = plan(1.5, 1, target, r0=2, kappa_factor=3.5)
        default = plan(1.5, 1, target, r0=2)
        assert tight.params.K_alpha > default.params.K_alpha
        assert tight.params.kappa_alpha < default.params.kappa_alpha
        assert tight.certified

    def test_kappa_factor_validation(self):
        with pytest.raises(PreconditionError):
            plan(1.5, 1, 8, r0=2, kappa_factor=3.0)
        with pytest.raises(PreconditionError):  # checked even with K given
            plan(1.5, 1, 8, r0=2, K_alpha=1.0, kappa_factor=math.nan)

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

    def test_near_pole_forced_plan_certifies(self):
        p = plan(2.0001, 1, 20, r0=2, K_alpha=1.0, forced_m=[10])
        assert [rec["preconditions_met"] for rec in p.certify()] == [False, True]

    def test_target_below_base(self):
        with pytest.raises(PreconditionError):
            plan(2.5, 1, 1, r0=2)

    def test_to_dict_roundtrips_json(self):
        p = plan(2.5, 1, 200, r0=2)
        payload = json.loads(json.dumps(p.to_dict()))
        assert payload["tree"]["r"] == 200
        assert payload["tree"]["m"] == 10
        assert payload["tree"]["n_children"] == 10
        assert payload["tree"]["children"][0]["r"] == 20
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

    def test_reports_real_valued_m(self):
        p = plan(1.5, 1, 1000.0, mode="continuous-analytic")
        assert p.mode == "continuous-analytic"
        assert any(not float(m).is_integer() for m in p.levels)
        for node in p.nodes():
            if not node.is_base:
                assert node.r == pytest.approx(node.m * node.r1, rel=1e-12)
                assert node.t_total == pytest.approx(
                    3 * node.t1 + node.t2, rel=1e-14
                )

    def test_huge_r_stays_finite(self):
        for alpha in (1.5, 2.0, 2.5):
            t = protocol_time(alpha, 1, 1e300)
            assert math.isfinite(t) and t > 0


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
    def test_low_alpha(self):
        assert gate_count_upper(1.5, 1, 10, 2.0) == pytest.approx(200.0, rel=1e-14)

    def test_high_alpha(self):
        want = 10 ** (1 + 1 / 1.5)
        assert gate_count_upper(2.5, 1, 10, 1.0) == pytest.approx(want, rel=1e-13)

    def test_unit(self):
        assert gate_count_upper(1.5, 1, 1, 1.0) == 1.0
        assert gate_count_upper(2.5, 1, 1, 1.0) == 1.0

    def test_at_t_star(self):
        assert gate_count_upper(2.5, 1, 10**4, at_t_star=True) == pytest.approx(
            10**10.0, rel=1e-12
        )
        assert gate_count_upper(1.5, 1, 50, at_t_star=True) == 2500.0

    def test_alpha_above_band_allowed_for_general_t(self):
        # the Trotter bound's second case applies to any alpha > 2d
        assert gate_count_upper(6.0, 1, 10, 1.0) == pytest.approx(
            10 ** (1 + 1 / 5), rel=1e-13
        )


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
