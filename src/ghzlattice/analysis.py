"""Scaling tables, exponent fits, speedup classification, gate-count tables.

Everything here evaluates the scheduler; nothing touches a statevector.  All
comparison curves carry unit prefactors and are leading-order only, so ratios
and crossovers are indicative, not sharp constants.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import PreconditionError, UnreachableTargetError, UnsupportedRegimeError
from .scheduler import (
    SchedulePlan,
    gate_count_upper,
    plan,
    t_star,
    table1_curves,
)

AUTO = "auto"
INTEGER_EXACT = "integer-exact"
CONTINUOUS = "continuous-analytic"


@dataclass(frozen=True)
class ScalingRow:
    """One (alpha, d, r) sample of protocol time against the reference curves."""

    alpha: float
    d: int
    r: float
    t_protocol: float
    t_bound: float
    t_prev_best: float | None
    t_lightcone: float | None
    regime: str
    mode: str
    certified: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _resolve_plan(alpha: float, d: int, r, mode: str, r0: int, **plan_kw) -> SchedulePlan:
    if mode == CONTINUOUS:
        return plan(alpha, d, r, r0=r0, mode=CONTINUOUS, **plan_kw)
    if mode == INTEGER_EXACT:
        return plan(alpha, d, int(r), r0=r0, mode=INTEGER_EXACT, **plan_kw)
    if mode != AUTO:
        raise PreconditionError(f"unknown sweep mode {mode!r}")
    try:
        if float(r).is_integer():
            return plan(alpha, d, int(r), r0=r0, mode=INTEGER_EXACT, **plan_kw)
    except (UnreachableTargetError, PreconditionError):
        # unreachable size, or a merge-rule precondition (e.g. the alpha = 2d
        # rule needs r0 >= exp(8/d)); sample the continuous curve instead
        pass
    return plan(alpha, d, r, r0=r0, mode=CONTINUOUS, **plan_kw)


def scaling_sweep(
    alphas, d: int, r_values, mode: str = AUTO, r0: int = 2, **plan_kw
) -> list[ScalingRow]:
    """Protocol time rows over an (alpha, r) grid.

    ``mode`` is ``integer-exact``, ``continuous-analytic``, or ``auto``
    (integer-exact where the size is reachable, continuous otherwise; each row
    records which one it got).  Table reference columns are left empty at
    alpha = 2d+1, which the comparison table does not cover.
    """
    rows = []
    for alpha in alphas:
        for r in r_values:
            p = _resolve_plan(alpha, d, r, mode, r0, **plan_kw)
            if alpha < 2 * d + 1:
                curves = table1_curves(alpha, d, r)
                prev, cone = curves["encode_prev_best"], curves["encode_lightcone"]
            else:
                prev = cone = None
            rows.append(
                ScalingRow(
                    alpha=alpha,
                    d=d,
                    r=float(r),
                    t_protocol=p.t_total,
                    t_bound=p.params.bound(r),
                    t_prev_best=prev,
                    t_lightcone=cone,
                    regime=p.params.regime,
                    mode=p.mode,
                    certified=p.certified if p.mode == INTEGER_EXACT else False,
                )
            )
    return rows


def write_scaling_csv(rows, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(
        [
            "alpha", "d", "r", "t_protocol", "t_bound", "t_prev_best",
            "t_lightcone", "regime", "mode", "certified",
        ]
    )
    for row in rows:
        writer.writerow(
            [
                repr(row.alpha), row.d, repr(row.r), repr(row.t_protocol),
                repr(row.t_bound),
                "" if row.t_prev_best is None else repr(row.t_prev_best),
                "" if row.t_lightcone is None else repr(row.t_lightcone),
                row.regime, row.mode, int(row.certified),
            ]
        )


def fit_loglog_slope(rs, ts) -> float:
    """Least-squares slope of log t against log r."""
    rs, ts = np.asarray(rs, dtype=float), np.asarray(ts, dtype=float)
    if rs.size < 2:
        raise PreconditionError("need at least two points to fit a slope")
    return float(np.polyfit(np.log(rs), np.log(ts), 1)[0])


def fit_sqrtlog_slope(rs, ts) -> float:
    """Least-squares slope of log t against sqrt(log r)."""
    rs, ts = np.asarray(rs, dtype=float), np.asarray(ts, dtype=float)
    return float(np.polyfit(np.sqrt(np.log(rs)), np.log(ts), 1)[0])


def fitted_exponent(
    alpha: float, d: int, r_lo: float, r_hi: float,
    n_points: int = 16, r0: int = 2, mode: str = CONTINUOUS, **plan_kw
) -> float:
    """Power-law exponent of t(r) fitted on a log-spaced window."""
    rs = np.logspace(math.log10(r_lo), math.log10(r_hi), n_points)
    ts = [plan(alpha, d, r, r0=r0, mode=mode, **plan_kw).t_total for r in rs]
    return fit_loglog_slope(rs, ts)


def decade_exponents(
    alpha: float, d: int, first_decade: int, n_decades: int,
    r0: int = 2, points_per_decade: int = 12,
) -> list[float]:
    """Fitted exponents over successive decades [10^j, 10^(j+1)]."""
    return [
        fitted_exponent(alpha, d, 10.0**j, 10.0 ** (j + 1),
                        n_points=points_per_decade, r0=r0)
        for j in range(first_decade, first_decade + n_decades)
    ]


def _prev_best_exponent(alpha: float, d: int) -> float:
    return alpha - d if alpha < d + 1 else 1.0


def speedup_crossover(
    alpha: float, d: int, r0: int = 2, r_max: float = 1e100,
    points_per_decade: int = 4,
) -> float | None:
    """Smallest sampled r from which t_prev_best / t_protocol stays >= 1.

    Returns None when the sampled grid never reaches a stable crossover.
    """
    n = int(points_per_decade * math.log10(r_max / r0)) + 1
    rs = np.logspace(math.log10(float(r0)), math.log10(r_max), n)
    ratios = [
        table1_curves(alpha, d, r)["encode_prev_best"]
        / plan(alpha, d, r, r0=r0, mode=CONTINUOUS).t_total
        for r in rs
    ]
    crossover = None
    for r, ratio in zip(rs, ratios):
        if ratio >= 1.0:
            if crossover is None:
                crossover = float(r)
        else:
            crossover = None
    return crossover


def speedup_report(alpha: float, d: int, r, r0: int = 2) -> dict:
    """Speedup over the previous best protocol at size r, with its growth class.

    The polynomial / superpolynomial call follows fitted-exponent evidence:
    windows of the protocol exponent moving right and the ratio along them.
    It is reported as evidence, not a proof.
    """
    if not d < alpha < 2 * d + 1:
        raise UnsupportedRegimeError(
            f"speedup comparison covers d < alpha < 2d+1, got alpha={alpha}, d={d}"
        )
    if r < 1:
        raise PreconditionError(f"r must be >= 1, got {r}")
    if r == 1:
        ratio = 1.0
        t_prev = t_proto = None
    else:
        t_prev = table1_curves(alpha, d, r)["encode_prev_best"]
        t_proto = plan(alpha, d, max(float(r), float(r0)), r0=r0, mode=CONTINUOUS).t_total
        ratio = t_prev / t_proto

    anchors = [max(float(r), 10.0 * r0), 1e3 * max(float(r), 10.0 * r0),
               1e6 * max(float(r), 10.0 * r0)]
    window_exponents = [
        fitted_exponent(alpha, d, a, 32.0 * a, n_points=8, r0=r0) for a in anchors
    ]
    window_ratios = [
        table1_curves(alpha, d, a)["encode_prev_best"]
        / plan(alpha, d, a, r0=r0, mode=CONTINUOUS).t_total
        for a in anchors
    ]
    drifting_to_zero = all(
        b < a - 1e-3 for a, b in zip(window_exponents, window_exponents[1:])
    )
    ratio_unbounded = all(
        b > a * (1 + 1e-9) for a, b in zip(window_ratios, window_ratios[1:])
    )
    classification = (
        "superpolynomial" if (drifting_to_zero and ratio_unbounded) else "polynomial"
    )
    return {
        "alpha": alpha,
        "d": d,
        "r": float(r),
        "t_prev_best": t_prev,
        "t_protocol": t_proto,
        "ratio": ratio,
        "prev_best_exponent": _prev_best_exponent(alpha, d),
        "window_exponents": window_exponents,
        "window_ratios": window_ratios,
        "classification": classification,
    }


def gate_bound_table(alpha: float, d: int, n_values) -> list[dict]:
    """Rows (n, t_star, gate-count lower bound n, Trotter upper bound at t_star).

    ``gap_factor`` = upper / lower flags how far the best known upper bound
    sits above the lower bound.
    """
    rows = []
    for n in n_values:
        if not 1 <= n < math.inf:
            raise PreconditionError(f"n must be finite and >= 1, got {n}")
        ts = t_star(alpha, d, n)
        lower = float(n)
        upper = gate_count_upper(alpha, d, n, at_t_star=True)
        rows.append(
            {
                "n": float(n),
                "t_star": ts,
                "lower": lower,
                "upper": upper,
                "gap_factor": upper / lower,
            }
        )
    return rows


def write_gate_bound_csv(rows, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["n", "t_star", "lower", "upper", "gap_factor"])
    for row in rows:
        writer.writerow([repr(row["n"]), repr(row["t_star"]), repr(row["lower"]),
                         repr(row["upper"]), repr(row["gap_factor"])])
