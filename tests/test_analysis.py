import csv
import math
import warnings

import numpy as np
import pytest

from ghzlattice.analysis import (
    decade_exponents,
    fit_loglog_slope,
    fit_sqrtlog_slope,
    fitted_exponent,
    gate_bound_table,
    scaling_sweep,
    speedup_report,
)
from ghzlattice.cli import run
from ghzlattice.errors import (
    PreconditionError,
    UnreachableTargetError,
    UnsupportedRegimeError,
)
from ghzlattice.scheduler import (
    choose_m,
    k_alpha_min,
    merge_duration,
    plan,
    protocol_time,
    t_star,
)


def cli_csv(tmp_path, argv) -> list[list[str]]:
    """The rows of a CLI table written as CSV, after checking its CRLF endings."""
    out = tmp_path / "table.csv"
    assert run([*argv, "--format", "csv", "--out", str(out)]) == 0
    text = out.read_bytes().decode()
    assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n")
    return list(csv.reader(text.splitlines()))


def csv_cell(value) -> str:
    """A value as the CLI writes it in a CSV cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class TestScalingSweep:
    def test_power_tail_slope(self):
        rows = scaling_sweep([2.5], 1, [2.0**k for k in range(2, 11)])
        tail = [row for row in rows if row.r >= 128]
        slope = fit_loglog_slope([r.r for r in tail], [r.t_protocol for r in tail])
        assert abs(slope - 0.5) <= 0.05

    def test_row_fields(self):
        rows = scaling_sweep([2.5], 1, [20, 24])
        by_r = {row.r: row for row in rows}
        assert by_r[20.0].mode == "integer-exact"  # 20 = 2 * 10 is reachable
        assert by_r[20.0].certified
        assert by_r[24.0].mode == "continuous-analytic"
        assert not by_r[24.0].certified
        for row in rows:
            assert row.regime == "power"
            assert row.t_protocol <= row.t_bound * (1 + 1e-9)
            assert row.t_lightcone is not None and row.t_prev_best is not None

    def test_base_rows(self):
        rows = scaling_sweep([1.5, 2.5], 1, [2])
        for row in rows:
            p = plan(row.alpha, 1, 2)
            assert row.t_protocol == p.params.t_base

    def test_alpha_at_2dp1_has_no_table_columns(self):
        rows = scaling_sweep([3.0], 1, [8])
        assert rows[0].t_prev_best is None and rows[0].t_lightcone is None
        assert rows[0].t_protocol > 0

    def test_polylog_ratio_decay(self):
        # t(r) / r**eps falls toward zero for every sampled eps > 0
        for eps in (0.1, 0.05):
            ratios = [
                protocol_time(1.5, 1, r) / r**eps for r in (1e50, 1e150, 1e300)
            ]
            assert ratios[0] > ratios[1] > ratios[2]
            assert ratios[2] < 1.0

    def test_integer_exact_mode_raises_on_unreachable(self):
        with pytest.raises(UnreachableTargetError):
            scaling_sweep([2.5], 1, [24], mode="integer-exact")

    def test_csv_emission(self, tmp_path):
        # the CLI's sweep CSV: one row per sample, floats by repr, None empty,
        # bools as 0/1
        header, *cells = cli_csv(tmp_path, ["sweep", "--alphas", "2.5", "--d", "1",
                                            "--r-values", "20,24"])
        rows = scaling_sweep([2.5], 1, [20, 24])
        assert header == list(rows[0].to_dict())
        assert cells == [[csv_cell(v) for v in row.to_dict().values()] for row in rows]


class TestExponentFits:
    @pytest.mark.parametrize("alpha", [2.2, 2.5, 2.8])
    def test_power_exponent(self, alpha):
        slope = fitted_exponent(alpha, 1, 128, 131072, n_points=24)
        assert abs(slope - (alpha - 2)) <= 0.05

    def test_stretched_sqrtlog_slope(self):
        rs = np.logspace(3, 15, 40)
        ts = [protocol_time(2.0, 1, r) for r in rs]
        slope = fit_sqrtlog_slope(rs, ts)
        assert abs(slope - 3.0) <= 0.3  # within 10% of gamma = 3*sqrt(1)

    @pytest.mark.parametrize("fit", [fit_loglog_slope, fit_sqrtlog_slope])
    def test_one_point_refused(self, fit):
        for rs, ts in (([2.0], [1.0]), ([2, 4, 8], [1, 2])):  # one t per r, too
            with pytest.raises(PreconditionError, match="two points"):
                fit(rs, ts)

    @pytest.mark.parametrize("fit,rs,ts", [
        (fit_loglog_slope, [2, 4], [1, -1]),  # returned NaN, with a RuntimeWarning
        (fit_loglog_slope, [2, 4], [1, 0]),
        (fit_loglog_slope, [2, 4], [1, math.inf]),
        (fit_loglog_slope, [2, 4], [1, math.nan]),
        (fit_loglog_slope, [0, 4], [1, 2]),  # raised LinAlgError
        (fit_loglog_slope, [-2, 4], [1, 2]),
        (fit_loglog_slope, [2, math.inf], [1, 2]),
        (fit_sqrtlog_slope, [0.5, 2, 4], [1, 2, 3]),  # sqrt(log 0.5): LinAlgError
        (fit_sqrtlog_slope, [2, math.nan, 4], [1, 2, 3]),
        (fit_sqrtlog_slope, [2, 4], [1, -1]),
        (fit_loglog_slope, [2, 2], [1, 2]),  # returned 0.25, with a RankWarning
        (fit_sqrtlog_slope, [1, 1, 1], [1, 2, 3]),  # raised LinAlgError
    ], ids=["log-t-negative", "log-t-zero", "log-t-inf", "log-t-nan", "log-r-zero",
            "log-r-negative", "log-r-inf", "sqrtlog-r-below-1", "sqrtlog-r-nan",
            "sqrtlog-t-negative", "log-r-one-value", "sqrtlog-r-one-value"])
    def test_bad_input_refused(self, fit, rs, ts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy warns
            with pytest.raises(PreconditionError, match="^[rt] must"):
                fit(rs, ts)

    def test_domain_edges_fit(self):
        assert fit_loglog_slope([1e-3, 1], [1e-3, 1]) == pytest.approx(1.0, rel=1e-12)
        assert fit_sqrtlog_slope([1, math.e], [1, math.e]) == pytest.approx(1.0, rel=1e-12)

    def test_polylog_decades_decreasing(self):
        exps = decade_exponents(1.5, 1, 2, 8)
        assert all(b < a for a, b in zip(exps, exps[1:]))
        assert exps[-1] < 0.2


class TestSpeedupReport:
    def test_power_polynomial(self):
        report = speedup_report(2.5, 1, 1e8)
        assert report["classification"] == "polynomial"
        assert report["prev_best_exponent"] == 1.0
        for exp in report["window_exponents"]:
            assert exp == pytest.approx(0.5, abs=0.02)
        assert report["ratio"] == pytest.approx(
            1e8 / protocol_time(2.5, 1, 1e8), rel=1e-12
        )

    def test_polylog_superpolynomial(self):
        report = speedup_report(1.5, 1, 1e6)
        assert report["classification"] == "superpolynomial"
        exps = report["window_exponents"]
        assert all(b < a for a, b in zip(exps, exps[1:]))
        assert all(b > a for a, b in zip(report["window_ratios"],
                                         report["window_ratios"][1:]))

    def test_stretched_superpolynomial(self):
        assert speedup_report(2.0, 1, 1e6)["classification"] == "superpolynomial"

    def test_r1_convention(self):
        assert speedup_report(2.5, 1, 1)["ratio"] == 1.0

    def test_domain(self):
        with pytest.raises(UnsupportedRegimeError):
            speedup_report(3.0, 1, 100)


class TestGateBoundTable:
    def test_overflow_is_a_precondition_failure(self):
        # n**(alpha/d) = 1e500 leaves the float range
        with pytest.raises(PreconditionError):
            gate_bound_table(2.5, 1, [1e200])

    def test_power_row(self):
        row = gate_bound_table(2.5, 1, [10**4])[0]
        assert row["t_star"] == pytest.approx(100.0, rel=1e-12)
        assert row["lower"] == 10**4
        assert row["upper"] == pytest.approx(1e10, rel=1e-12)
        assert row["gap_factor"] == pytest.approx(1e6, rel=1e-12)

    def test_polylog_row(self):
        row = gate_bound_table(1.5, 1, [math.e])[0]
        assert row["upper"] == pytest.approx(math.e**2, rel=1e-12)
        assert row["lower"] == pytest.approx(math.e, rel=1e-15)

    def test_unit_row(self):
        row = gate_bound_table(1.5, 1, [1])[0]
        assert row["t_star"] == 0.0
        assert row["lower"] == 1.0 and row["upper"] == 1.0

    def test_csv(self, tmp_path):
        header, *cells = cli_csv(tmp_path, ["bounds", "--alpha", "2.5", "--d", "1",
                                            "--n-values", "10,100"])
        assert header == ["n", "t_star", "lower", "upper", "gap_factor"]
        rows = gate_bound_table(2.5, 1, [10, 100])
        assert cells == [[csv_cell(row[k]) for k in header] for row in rows]


@pytest.mark.parametrize("helper,args,kw", [
    (fitted_exponent, (2.5, 1, 0, 10), {}),  # log10(0): a math domain error
    (choose_m, (1.5, 1, math.nan), {}),
    (choose_m, (1.5, 1, math.inf), {}),  # floor(inf) overflows
    (merge_duration, (2.5, 1, 2, 2), {"q": 0}),  # 2/q divides by zero
    (t_star, (2.5, 1, math.nan), {}),  # returned nan
    (k_alpha_min, (2.5, 1), {"m": math.nan}),  # raised PoleError
    (k_alpha_min, (2.5, 1), {"m": 0}),  # raised PoleError
    (k_alpha_min, (2.5, 1), {"m": -2}),  # compared a complex power: TypeError
    (k_alpha_min, (2.5, 1), {"m": math.inf}),
], ids=["fitted_exponent-r_lo-0", "choose_m-nan", "choose_m-inf", "merge_duration-q-0",
        "t_star-nan", "k_alpha_min-m-nan", "k_alpha_min-m-0", "k_alpha_min-m-negative",
        "k_alpha_min-m-inf"])
def test_analytic_helper_domain_is_a_precondition(helper, args, kw):
    with pytest.raises(PreconditionError):
        helper(*args, **kw)
