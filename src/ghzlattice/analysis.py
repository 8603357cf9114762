"""Scaling tables, exponent fits, speedup classification, gate-count tables.

Everything here evaluates the scheduler; nothing touches a statevector.  All
comparison curves carry unit prefactors and are leading-order only, so ratios
and crossovers are indicative, not sharp constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .errors import PreconditionError, UnreachableTargetError, UnsupportedRegimeError
from .scheduler import (
    CONTINUOUS,
    INTEGER_EXACT,
    SchedulePlan,
    _prev_best_exponent,
    gate_count_upper,
    plan,
    protocol_time,
    t_star,
    table1_curves,
)

AUTO = "auto"


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


def _resolve_plan(alpha: float, d: int, r, mode: str, r0: int) -> SchedulePlan:
    if mode in (INTEGER_EXACT, CONTINUOUS):
        return plan(alpha, d, r, r0=r0, mode=mode)
    if mode != AUTO:
        raise PreconditionError(f"unknown sweep mode {mode!r}")
    try:
        if float(r).is_integer():
            return plan(alpha, d, r, r0=r0, mode=INTEGER_EXACT)
    except (UnreachableTargetError, PreconditionError):
        # unreachable size, or a merge-rule precondition (e.g. the alpha = 2d
        # rule needs r0 >= exp(8/d)); sample the continuous curve instead
        pass
    return plan(alpha, d, r, r0=r0, mode=CONTINUOUS)


def scaling_sweep(
    alphas, d: int, r_values, mode: str = AUTO, r0: int = 2
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
            p = _resolve_plan(alpha, d, r, mode, r0)
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


def _slope(rs, ts, x, r_ok, r_domain: str) -> float:
    """Least-squares slope of log t against x(r), refusing an r outside x's
    domain (``r_ok`` false or r infinite), a t that is not finite and > 0, and
    r without two distinct values (no line has a slope there)."""
    import numpy as np
    rs, ts = np.asarray(rs, dtype=float), np.asarray(ts, dtype=float)
    if rs.size < 2 or ts.shape != rs.shape:
        raise PreconditionError("need one t per r and at least two points to fit a "
                                f"slope, got {rs.size} r and {ts.size} t")
    for name, v, ok, domain in (("r", rs, r_ok(rs), r_domain), ("t", ts, ts > 0, "> 0")):
        bad = v[~(ok & (v < np.inf))]  # NaN fails both comparisons
        if bad.size:
            raise PreconditionError(f"{name} must be finite and {domain}, got {bad[0]}")
    if np.all(rs == rs[0]):
        raise PreconditionError(f"r must take two distinct values, got {rs[0]} only")
    return float(np.polyfit(x(rs), np.log(ts), 1)[0])


def fit_loglog_slope(rs, ts) -> float:
    """Least-squares slope of log t against log r."""
    import numpy as np
    return _slope(rs, ts, np.log, lambda rs: rs > 0, "> 0")


def fit_sqrtlog_slope(rs, ts) -> float:
    """Least-squares slope of log t against sqrt(log r)."""
    import numpy as np
    return _slope(rs, ts, lambda rs: np.sqrt(np.log(rs)), lambda rs: rs >= 1, ">= 1")


def fitted_exponent(alpha: float, d: int, r_lo: float, r_hi: float, n_points: int = 16) -> float:
    """Power-law exponent of the continuous-analytic t(r) from base side 2,
    fitted on a log-spaced window 0 < r_lo < r_hi."""
    if not 0 < r_lo < r_hi < math.inf:
        raise PreconditionError(f"need a window 0 < r_lo < r_hi < inf, got {r_lo} to {r_hi}")
    import numpy as np
    rs = np.logspace(math.log10(r_lo), math.log10(r_hi), n_points)
    ts = [protocol_time(alpha, d, r) for r in rs]
    return fit_loglog_slope(rs, ts)


def decade_exponents(alpha: float, d: int, first_decade: int, n_decades: int) -> list[float]:
    """Fitted exponents over successive decades [10^j, 10^(j+1)], 12 points
    each, from base side 2."""
    return [
        fitted_exponent(alpha, d, 10.0**j, 10.0 ** (j + 1), n_points=12)
        for j in range(first_decade, first_decade + n_decades)
    ]


def _speedup(alpha: float, d: int, r) -> tuple[float, float, float]:
    """(t_prev_best, t_protocol, their ratio) at side r; the protocol curve
    starts at base side 2, so it is sampled at max(r, 2)."""
    t_prev = table1_curves(alpha, d, r)["encode_prev_best"]
    t_proto = protocol_time(alpha, d, max(float(r), 2.0))
    return t_prev, t_proto, t_prev / t_proto


def speedup_report(alpha: float, d: int, r) -> dict:
    """Speedup over the previous best protocol at size r, with its growth class,
    for the protocol from base side 2.

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
        t_prev, t_proto, ratio = _speedup(alpha, d, r)

    anchors = [max(float(r), 20.0) * f for f in (1.0, 1e3, 1e6)]
    window_exponents = [fitted_exponent(alpha, d, a, 32.0 * a, n_points=8) for a in anchors]
    window_ratios = [_speedup(alpha, d, a)[2] for a in anchors]
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
        ts = t_star(alpha, d, n)
        lower = float(n)
        upper = gate_count_upper(alpha, d, n)
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
