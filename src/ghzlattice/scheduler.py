"""Recursion scheduling for GHZ-like encoding in power-law lattices.

The protocol builds a GHZ-like state over a side-``r`` hypercube by merging
``m**d`` already-encoded side-``r1`` cubes (``r = m * r1``) and recursing.
One merge level costs ``t = 3*t1 + t2`` where ``t1`` is the child encode time
and ``t2 = pi * d**(alpha/2) * (m*r1)**alpha / V**2`` (``V = r1**d``) is the
duration of the controlled-phase merge.

Three regimes of the interaction exponent ``alpha`` are supported, each with
its own merge-factor rule and total-time envelope::

    polylog    d < alpha < 2d      t(r) <= K * log(r)**kappa
    stretched  alpha = 2d          t(r) <= K * exp(gamma*sqrt(log r))
    power      2d < alpha <= 2d+1  t(r) <= K * r**(alpha-2d)

with ``gamma = 3*sqrt(d)``, ``kappa = log(4)/log(2d/alpha)`` and a regime
minimum for the prefactor ``K`` (see :func:`k_alpha_min`).  ``alpha <= d`` is
out of scope.

Plans come in two modes.  ``integer-exact`` uses integer merge factors, so
side lengths multiply out exactly and the per-node bound certificate is
meaningful.  ``continuous-analytic`` relaxes integrality so the total time
can be sampled at arbitrary real ``r`` (for scaling curves); it reports
real-valued merge factors and claims no certificate.
"""
from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import asdict, dataclass, replace

from .errors import (
    PoleError,
    PreconditionError,
    UnreachableTargetError,
    UnsupportedRegimeError,
)
from .geometry import LatticeSpec

POLYLOG = "polylog"
STRETCHED = "stretched"
POWER = "power"

INTEGER_EXACT = "integer-exact"
CONTINUOUS = "continuous-analytic"

# the protocol's single-site rotation, kept here so the CLI states its choices
# without loading the run stack
GATE_DFT = "dft"
GATE_HADAMARD = "hadamard"

# Relative slack for float comparisons in certificates.
_REL_EPS = 1e-9


class AssumptionWarning(UserWarning):
    """A simplifying assumption behind the polylog envelope fails at small r1."""


def regime(alpha: float, d: int) -> str:
    """Classify alpha into polylog / stretched / power, or raise."""
    if d < 1:
        raise UnsupportedRegimeError(f"dimension must be >= 1, got {d}")
    if not alpha > d:
        raise UnsupportedRegimeError(f"alpha={alpha} <= d={d} is out of scope")
    if alpha < 2 * d:
        return POLYLOG
    if alpha == 2 * d:
        return STRETCHED
    if alpha <= 2 * d + 1:
        return POWER
    raise UnsupportedRegimeError(f"alpha={alpha} > 2d+1={2*d+1} is out of scope")


def _lam(alpha: float, d: int) -> float:
    return 2.0 * d / alpha


def _kappa(alpha: float, d: int, base: float = 4.0) -> float:
    """log(base)/log(2d/alpha): at base 4 the polylog envelope exponent kappa,
    at base 3 the exponent beta of the continuous polylog base case."""
    return math.log(base) / math.log(_lam(alpha, d))


def _gamma(d: int) -> float:
    """gamma = 3*sqrt(d), the stretched envelope rate."""
    return 3.0 * math.sqrt(d)


def _stretched_rate(d: int) -> float:
    """g = gamma/(2d): the alpha = 2d merge factor grows like exp(g*sqrt(log r1))."""
    return _gamma(d) / (2.0 * d)


def _merge_interval(alpha: float, d: int, r1) -> tuple[float, float]:
    """The (lower, upper) ends of the merge-factor interval at child side r1.

    polylog:   (r1**(lam-1), 2*r1**(lam-1)], open below
    stretched: [exp(g*sqrt(log r1)), 2*exp(g*sqrt(log r1))]
    """
    if alpha < 2 * d:
        lower = float(r1) ** (_lam(alpha, d) - 1.0)
    else:
        lower = math.exp(_stretched_rate(d) * math.sqrt(math.log(r1)))
    return lower, 2.0 * lower


def _polylog_threshold(alpha: float, d: int) -> float:
    return math.pi * (2.0 * math.sqrt(d)) ** alpha


def _audit(params: RegimeParams, node: ScheduleNode) -> dict[str, str]:
    """Each failed precondition of a merge node by check name: ``pole`` (power m
    at or below the pole), ``K`` (below its regime minimum), ``m`` (outside its
    interval), ``polylog`` (the simplifying assumption) or ``r1`` (stretched,
    below exp(8/d)); each as the note ``"<check> at r=<r>: <why>"``."""
    if node.is_base:
        return {}  # the base case holds by fiat
    p, m, r1 = params, node.m, node.r1
    slack = 1 + 1e-12
    failed = {}
    try:
        kmin = k_alpha_min(p.alpha, p.d, m=m, r0=p.r0)
        if not p.K_alpha * slack >= kmin:
            failed["K"] = f"K={p.K_alpha:.4g} is below the regime minimum {kmin:.4g}"
    except PoleError as exc:
        failed["pole"] = str(exc)
    except PreconditionError as exc:  # the polylog minimum needs r0 > 1
        failed["K"] = f"K={p.K_alpha:.4g} has no regime minimum: {exc}"
    if p.regime != POWER:
        lower, upper = _merge_interval(p.alpha, p.d, r1)
        above = lower < m if p.regime == POLYLOG else lower / slack <= m  # polylog: open
        if not (above and m <= upper * slack):
            failed["m"] = f"m={m} is outside the interval {lower:.4g} to {upper:.4g} at r1={r1}"
    if p.regime == POLYLOG:
        lhs = p.K_alpha * math.log(r1) ** p.kappa_alpha
        rhs = _polylog_threshold(p.alpha, p.d)
        if not lhs * slack >= rhs:
            failed["polylog"] = (
                f"K*log(r1)**kappa = {lhs:.4g} < pi*(2*sqrt(d))**alpha = {rhs:.4g} "
                f"at r1={r1}; the polylog envelope is not guaranteed here")
    elif p.regime == STRETCHED and not r1 * slack >= math.exp(8.0 / p.d):
        failed["r1"] = f"r1={r1} is below exp(8/d) ~ {math.exp(8.0 / p.d):.4g}"
    return {check: f"{check} at r={node.r}: {why}" for check, why in failed.items()}


def choose_m(alpha: float, d: int, r1) -> int:
    """Smallest integer merge factor in the regime's prescribed interval.

    polylog:   m in (r1**(lam-1), 2*r1**(lam-1)],  lam = 2d/alpha
    stretched: m in [exp(g*sqrt(log r1)), 2*exp(g*sqrt(log r1))], g = gamma/(2d);
               requires r1 >= exp(8/d)
    power:     smallest integer strictly above 3**(1/(alpha-2d)), independent of r1;
               unsupported where alpha is so close to 2d that this overflows
    """
    reg = regime(alpha, d)
    if not 1 <= r1 < math.inf:
        raise PreconditionError(f"r1 must be finite and >= 1, got {r1}")
    if reg == POWER:
        try:
            return math.floor(3.0 ** (1.0 / (alpha - 2 * d))) + 1
        except OverflowError:
            raise UnsupportedRegimeError(f"alpha={alpha} is too close to 2d={2 * d}: "
                                         "3**(1/(alpha-2d)) overflows") from None
    if reg == STRETCHED and r1 < math.exp(8.0 / d):
        raise PreconditionError(
            f"alpha=2d merge rule needs r1 >= exp(8/d) ~ {math.exp(8.0/d):.1f}, got {r1}"
        )
    lower, _ = _merge_interval(alpha, d, r1)
    return math.floor(lower) + 1 if reg == POLYLOG else math.ceil(lower)


def merge_duration(alpha: float, d: int, m, r1, q: int = 2) -> float:
    """Duration of the controlled-phase merge of m**d side-r1 cubes, q-level sites.

    Chosen so each control/target all-ones cube pair accumulates phase 2*pi/q:
    (2/q) * pi * d**(a/2) * (m*r1)**a / V**2 with V = r1**d.  Computed as
    (2/q) * pi * d**(a/2) * m**a * r1**(a-2d), which stays finite for the huge
    r1 reached by continuous-mode sweeps.
    """
    if not (0 < m < math.inf and 0 < r1 < math.inf):
        raise PreconditionError(f"m and r1 must be finite and > 0, got m={m}, r1={r1}")
    if q < 2:
        raise PreconditionError(f"q must be >= 2, got {q}")
    return (2.0 / q) * (math.pi * d ** (alpha / 2.0) * float(m) ** alpha
                        * float(r1) ** (alpha - 2.0 * d))


def k_alpha_min(
    alpha: float,
    d: int,
    m=None,
    r0: int = 2,
) -> float:
    """Minimum envelope prefactor K for which the level recursion closes.

    power:     pi * d**(a/2) * m**a / (m**(a-2d) - 3); pole at m**(a-2d) <= 3,
               for a finite merge factor m > 0
    stretched: 2**a * pi * d**(a/2) / (e**2 - 3)
    polylog:   smallest K with K*log(r0)**kappa >= pi*(2*sqrt(d))**a, i.e. the
               simplifying assumption holds from the base size up, with
               kappa = log 4/log(2d/a)

    The power and stretched numerators are the qubit merge time at r1 = 1.
    """
    reg = regime(alpha, d)
    if reg == POWER:
        if m is None or not 0 < m < math.inf:
            raise PreconditionError(
                f"power regime needs a finite merge factor m > 0, got {m}")
        rise = float(m) ** (alpha - 2 * d)
        # above the pole both in float and in log space (no overflow near it)
        if not (rise > 3.0 and math.log(m) * (alpha - 2 * d) > math.log(3.0)):
            raise PoleError(
                f"m={m} is at or below the pole m**(alpha-2d) <= 3 for alpha={alpha}, d={d}"
            )
        return merge_duration(alpha, d, m, 1) / (rise - 3.0)
    if reg == STRETCHED:
        return merge_duration(alpha, d, 2, 1) / (math.e**2 - 3.0)
    if r0 <= 1:
        raise PreconditionError(f"polylog minimum needs base r0 > 1, got {r0}")
    return _polylog_threshold(alpha, d) / math.log(r0) ** _kappa(alpha, d)


def bound_kernel(alpha: float, d: int, r) -> float:
    """The envelope with unit prefactor: log**kappa r, e**(g*sqrt(log r)), r**(a-2d).

    The power envelope takes any finite r > 0, which a continuous plan's base
    side can be; the others need a finite r >= 1.
    """
    reg = regime(alpha, d)
    if reg == POWER:
        if not 0 < r < math.inf:
            raise PreconditionError(f"r must be finite and > 0, got {r}")
        return float(r) ** (alpha - 2 * d)
    if not 1 <= r < math.inf:
        raise PreconditionError(f"r must be finite and >= 1, got {r}")
    if reg == POLYLOG:
        return math.log(r) ** _kappa(alpha, d)
    return math.exp(_gamma(d) * math.sqrt(math.log(r)))


@dataclass(frozen=True)
class RegimeParams:
    """The chosen constants of one (alpha, d) regime and its base case.

    ``K_alpha`` is stored as given; whether it meets the regime minimum is a
    certificate question (see :meth:`SchedulePlan.certify`), not a construction
    error, so envelopes with unit prefactor remain expressible.  The regime and
    its derived constants (``kappa_alpha`` = log 4/log(2d/alpha), polylog only)
    are read-only properties.
    """

    alpha: float
    d: int
    K_alpha: float
    r0: int
    t_base: float

    @property
    def regime(self) -> str:
        return regime(self.alpha, self.d)

    @property
    def gamma(self) -> float:
        return _gamma(self.d)

    @property
    def lam(self) -> float:
        return _lam(self.alpha, self.d)

    @property
    def kappa_alpha(self) -> float | None:
        polylog = self.regime == POLYLOG
        return _kappa(self.alpha, self.d) if polylog else None

    def bound(self, r) -> float:
        """The total-time envelope K * kernel(r)."""
        return self.K_alpha * bound_kernel(self.alpha, self.d, r)


def make_params(
    alpha: float,
    d: int,
    r0: int = 2,
    K_alpha: float | None = None,
    t_base: float | None = None,
) -> RegimeParams:
    """RegimeParams with defaults: K = regime minimum, t_base = envelope at r0.

    Without K, the power-regime minimum is taken at the m of
    :func:`choose_m`; where that m is not resolvably above the pole in double
    precision, raises UnsupportedRegimeError.
    """
    reg = regime(alpha, d)
    if not 1 <= r0 < math.inf:
        raise PreconditionError(f"base side r0 must be finite and >= 1, got {r0}")
    if K_alpha is not None and not 0.0 < K_alpha < math.inf:
        raise PreconditionError(f"K_alpha must be finite and > 0, got {K_alpha}")
    if t_base is not None and not 0.0 <= t_base < math.inf:
        raise PreconditionError(f"t_base must be finite and >= 0, got {t_base}")
    if K_alpha is None and reg == POWER:
        m = choose_m(alpha, d, r0)
        try:
            K_alpha = k_alpha_min(alpha, d, m=m)
        except (PoleError, OverflowError):
            K_alpha = math.inf
        if not K_alpha < math.inf:
            raise UnsupportedRegimeError(
                f"alpha={alpha} is too close to 2d={2 * d}: m={m:.6g} is not resolvably "
                "above the pole m**(alpha-2d) = 3 in double precision; pass K_alpha "
                "and forced_m"
            )
    elif K_alpha is None:
        K_alpha = k_alpha_min(alpha, d, r0=r0)
    params = RegimeParams(alpha=alpha, d=d, K_alpha=K_alpha, r0=r0, t_base=t_base)
    if t_base is None:
        params = replace(params, t_base=params.bound(r0))
    return params


@dataclass(frozen=True)
class ScheduleNode:
    """One recursion level: a side-``r`` cube built from ``m**d`` side-``r1`` cubes.

    All ``m**d`` sub-cubes share one schedule, the next node of the plan.  A
    base-case node has ``m is None`` and ``t_total`` equal to the base encode time.
    """

    r: int | float
    r1: int | float | None
    m: int | float | None
    t1: float | None
    t2: float | None
    t_total: float
    forced: bool = False

    @property
    def is_base(self) -> bool:
        return self.m is None


@dataclass(frozen=True)
class SchedulePlan:
    """One node per recursion level, root first and base last, plus the regime
    constants the plan was built with; an immutable value, hashed by value."""

    params: RegimeParams
    nodes: tuple[ScheduleNode, ...]
    mode: str
    q: int = 2
    lattice: LatticeSpec | None = None

    @property
    def root(self) -> ScheduleNode:
        return self.nodes[0]

    @property
    def levels(self) -> list:
        """Merge factors, ordered from the base outward."""
        return [node.m for node in reversed(self.nodes) if not node.is_base]

    @property
    def t_total(self) -> float:
        return self.root.t_total

    def certify(self) -> list[dict]:
        """Per-node bound check: t_total <= K*kernel(r), plus precondition audit.

        The inequality is the per-level recursion guarantee; it is only claimed
        where ``preconditions_met``: the node's audit finds no failed check (m
        above the power pole, K at or above its regime minimum, m in its
        interval, the polylog assumption, the stretched r1 >= exp(8/d)).
        :attr:`notes` names each failed check of each node.
        """
        recs = []
        for node in self.nodes:
            bound = self.params.bound(node.r)
            recs.append(
                {
                    "r": node.r,
                    "t_total": node.t_total,
                    "bound": bound,
                    "ok": node.t_total <= bound * (1 + _REL_EPS),
                    "preconditions_met": not _audit(self.params, node),
                }
            )
        return recs

    @property
    def certified(self) -> bool:
        return all(rec["ok"] and rec["preconditions_met"] for rec in self.certify())

    @property
    def notes(self) -> tuple[str, ...]:
        """Each node's failed precondition checks, root first, as :func:`_audit`
        words them; empty exactly where every node meets its preconditions."""
        return tuple(note for node in self.nodes for note in _audit(self.params, node).values())

    def to_dict(self) -> dict:
        """JSON-ready plan; ``nodes`` lists the levels root first, like the CSV rows.

        All ``m**d`` sub-cubes of a level share the next node's schedule, so each
        level is serialized once; ``n_children`` records the multiplicity (m**d,
        0 at the base, None for a real-valued m).
        """

        def n_children(m) -> int | None:
            if m is None:
                return 0
            return int(m) ** self.params.d if float(m).is_integer() else None

        return {
            "alpha": self.params.alpha,
            "d": self.params.d,
            "q": self.q,
            "regime": self.params.regime,
            "mode": self.mode,
            "K_alpha": self.params.K_alpha,
            "gamma": self.params.gamma,
            "lambda": self.params.lam,
            "kappa_alpha": self.params.kappa_alpha,
            "r0": self.params.r0,
            "t_base": self.params.t_base,
            "levels": self.levels,
            "t_total": self.t_total,
            "nodes": [{**asdict(node), "n_children": n_children(node.m)}
                      for node in self.nodes],
        }


def _ladder(alpha: float, d: int, target_r: int, r0: int) -> list[int]:
    """Merge factors from choose_m, base outward; raises with the bracketing
    reachable sizes if target_r is not on the reachable sequence."""
    r, ms = r0, []
    while r < target_r:
        m = choose_m(alpha, d, r)
        if r * m > target_r:
            raise UnreachableTargetError(target_r, below=r, above=r * m)
        ms.append(m)
        r *= m
    return ms


def plan(
    alpha: float,
    d: int,
    target_r,
    r0: int = 2,
    t_base: float | None = None,
    *,
    q: int = 2,
    K_alpha: float | None = None,
    forced_m: list[int] | None = None,
    mode: str = INTEGER_EXACT,
) -> SchedulePlan:
    """Build the recursion plan reaching side ``target_r`` from base side ``r0``.

    integer-exact: target_r must equal r0 times a product of integer merge
    factors (from choose_m, or the ``forced_m`` override); otherwise raises
    UnreachableTargetError carrying the nearest reachable sizes (for
    ``forced_m``, the one size it reaches).

    continuous-analytic: target_r may be any real >= r0; merge factors are the
    real-valued upper ends of the regime intervals (constant integer in the
    power regime) and the base time is the envelope evaluated at the real
    base size.
    """
    if not math.isfinite(target_r):
        raise PreconditionError(f"target side must be finite, got {target_r}")
    params = make_params(alpha, d, r0=r0, K_alpha=K_alpha, t_base=t_base)
    if q < 2:
        raise PreconditionError(f"q must be >= 2, got {q}")
    if target_r < r0:
        raise PreconditionError(f"target side {target_r} below base side {r0}")
    if mode == CONTINUOUS:
        return _continuous_plan(params, target_r, q=q)
    if mode != INTEGER_EXACT:
        raise PreconditionError(f"unknown mode {mode!r}")
    if float(target_r).is_integer():
        target_r = int(target_r)  # a refusal names side 50, not 50.0; 20.9 stays 20.9

    if forced_m is not None:
        ms = [int(m) for m in forced_m]
        if any(m < 2 for m in ms):
            raise PreconditionError("forced merge factors must be >= 2")
    else:
        ms = _ladder(alpha, d, target_r, r0)
    sizes = list(itertools.accumulate(ms, operator.mul, initial=r0))
    if sizes[-1] != target_r:  # a forced schedule's one size; _ladder raises its own
        reached = sizes[-1]
        raise UnreachableTargetError(target_r, below=reached if reached < target_r else None,
                                     above=reached if reached > target_r else None)

    nodes = _chain(params, r0, params.t_base, zip(sizes[1:], ms), q,
                   forced=forced_m is not None)
    for node in nodes:  # only the polylog assumption warns; every failed check notes
        if "polylog" in (audit := _audit(params, node)):
            warnings.warn(audit["polylog"], AssumptionWarning, stacklevel=2)
    return SchedulePlan(
        params=params,
        nodes=nodes,
        mode=INTEGER_EXACT,
        q=q,
        lattice=LatticeSpec(d, sizes[-1], q),
    )


def _chain(params: RegimeParams, base_r, t_base: float, levels, q: int,
           forced: bool = False) -> tuple[ScheduleNode, ...]:
    """The plan's nodes, root first: a base node of side base_r and time t_base,
    then one merge node per (r, m) in levels, base outward, each taking r1 and
    t1 from the node below it."""
    nodes = [ScheduleNode(r=base_r, r1=None, m=None, t1=None, t2=None, t_total=t_base)]
    for r, m in levels:
        below = nodes[-1]
        t2 = merge_duration(params.alpha, params.d, m, below.r, q=q)
        nodes.append(ScheduleNode(r=r, r1=below.r, m=m, t1=below.t_total, t2=t2,
                                  t_total=3.0 * below.t_total + t2, forced=forced))
    return tuple(reversed(nodes))


def _continuous_split(params: RegimeParams, r: float):
    """(m, r1) for one continuous level above base size r.

    Polylog uses the lower end of the merge-factor interval (m = r1**(lam-1),
    so r1 = r**(1/lam) and the merge time per level is the constant
    pi*d**(a/2)); stretched uses the upper end (m = 2*exp(g*sqrt(log r1)));
    power keeps its constant integer factor.
    """
    if params.regime == POWER:
        m = choose_m(params.alpha, params.d, max(int(params.r0), 1))
        return float(m), r / m
    if params.regime == POLYLOG:
        r1 = r ** (1.0 / params.lam)
        return r / r1, r1
    beta = _stretched_rate(params.d)
    s = max(math.log(r / 2.0), 0.0)  # r <= 2 degenerates to a single halving
    u = (-beta + math.sqrt(beta * beta + 4.0 * s)) / 2.0
    r1 = math.exp(u * u)
    return r / r1, r1


def _continuous_base(params: RegimeParams, rho: float, q: int) -> float:
    """Base time at real size rho <= r0.

    power:     K * rho**(a-2d) for any rho > 0, which makes the whole chain
               telescope to exactly K * r**(a-2d).
    polylog:   the recursion-consistent extension
               (t0 + A/2) * (log rho / log r0)**beta - A/2, with
               A = (2/q)*pi*d**(a/2), the merge time of every level,
               beta = log3/log(lam); it satisfies
               B(rho) = 3*B(rho**(1/lam)) + A exactly, so the sampled total
               time is a smooth function of r (no depth-quantization ripple)
               that starts on the envelope at r0 and stays below it.
    stretched: the envelope at max(rho, 1).
    """
    if params.regime == POWER:
        return params.K_alpha * rho ** (params.alpha - 2.0 * params.d)
    if params.regime == POLYLOG:
        a_merge = merge_duration(params.alpha, params.d, 1, 1, q=q)  # t2 of any level
        beta = _kappa(params.alpha, params.d, 3.0)
        t0 = params.t_base
        x = math.log(max(rho, 1.0)) / math.log(params.r0)
        return max((t0 + a_merge / 2.0) * x**beta - a_merge / 2.0, 0.0)
    return params.bound(max(rho, 1.0))


def _continuous_plan(params: RegimeParams, target_r, q: int = 2) -> SchedulePlan:
    target_r = float(target_r)
    if params.regime == POLYLOG and params.r0 <= 1:
        raise PreconditionError("polylog continuous mode needs base r0 > 1")

    levels = []  # (r, m), root first
    r = target_r
    while r > params.r0:
        m, r1 = _continuous_split(params, r)
        levels.append((r, m))
        r = r1
    return SchedulePlan(
        params=params,
        nodes=_chain(params, r, _continuous_base(params, r, q), reversed(levels), q),
        mode=CONTINUOUS,
        q=q,
    )


def protocol_time(alpha: float, d: int, r) -> float:
    """Total encode time t(r) of the continuous-analytic plan from base side 2."""
    return plan(alpha, d, r, r0=2, mode=CONTINUOUS).t_total


def t_star(alpha: float, d: int, n) -> float:
    """Evolution time beyond which simulating n sites needs Omega(n) gates.

    Unit-constant case values: log(n)**kappa, exp(gamma*sqrt(log(n)/d)),
    n**(alpha/d - 2).
    """
    if not 1 <= n < math.inf:  # before the regime: a bounds row names its bad n first
        raise PreconditionError(f"n must be finite and >= 1, got {n}")
    reg = regime(alpha, d)
    if reg == POLYLOG:
        return math.log(n) ** _kappa(alpha, d)
    if reg == STRETCHED:
        return math.exp(_gamma(d) * math.sqrt(math.log(n) / d))
    return float(n) ** (alpha / d - 2.0)


def gate_count_upper(alpha: float, d: int, n) -> float:
    """Leading-order Trotter gate-count upper bound at t = t_star (o(1) exponents
    dropped): n**2 for d < alpha <= 2d, n**(alpha/d) above."""
    reg = regime(alpha, d)  # t_star only exists for d < alpha <= 2d+1
    if not 1 <= n < math.inf:
        raise PreconditionError(f"n must be finite and >= 1, got {n}")
    try:
        return float(n) ** 2 if reg != POWER else float(n) ** (alpha / d)
    except OverflowError:
        raise PreconditionError(f"gate-count bound overflows at n={n}") from None


def _prev_best_exponent(alpha: float, d: int) -> float:
    """Exponent of the previous best encode time r**(alpha-d), or r above alpha = d+1."""
    return alpha - d if alpha < d + 1 else 1.0


def table1_curves(alpha: float, d: int, r) -> dict:
    """Evaluate the known-bound / previous-best / this-protocol scalings at (alpha, d, r).

    All curves carry unit prefactors.  Light cones are lower bounds on t(r);
    where several published cones apply, the tightest (largest) is reported.
    Rows: encoding an unknown state into a GHZ-like state, preparing a known
    GHZ-like state, state transfer with initialized sites, and universal state
    transfer (for which this protocol is not applicable).
    """
    if not d < alpha < 2 * d + 1:
        raise UnsupportedRegimeError(
            f"the comparison table covers d < alpha < 2d+1, got alpha={alpha}, d={d}"
        )
    if r < 1:
        raise PreconditionError(f"r must be >= 1, got {r}")
    r = float(r)
    logr = math.log(r)
    proto = bound_kernel(alpha, d, r)

    if alpha <= 2 * d:
        encode_lc = logr
    elif d == 1:
        encode_lc = r ** (alpha - 2.0)
    else:
        encode_lc = r ** ((alpha - 2 * d) / (alpha - d))
    encode_prev = r ** _prev_best_exponent(alpha, d)

    known_lc = logr if alpha <= 2 * d else r ** ((alpha - 2 * d) / (alpha - d + 1))

    transfer_prev = (
        r ** (alpha * (alpha - d) / (alpha + d))
        if alpha < d + 1
        else r ** (alpha / (2 * d + 1))
    )

    universal_candidates = []
    if alpha <= 2 * d:
        universal_candidates.append(r ** ((2 * alpha - 2 * d) / (2 * alpha - d + 1)))
    else:
        universal_candidates.append(r ** ((alpha - 2 * d) / (alpha - d)))
        if d == 1:
            universal_candidates.append(r ** (alpha - 1.5) if alpha <= 2.5 else r)
    universal_lc = max(universal_candidates)

    return {
        "regime": regime(alpha, d),
        "encode_lightcone": encode_lc,
        "encode_prev_best": encode_prev,
        "encode_protocol": proto,
        "known_ghz_lightcone": known_lc,
        "known_ghz_prev_best": encode_prev,
        "known_ghz_protocol": proto,
        "transfer_lightcone": encode_lc,
        "transfer_prev_best": transfer_prev,
        "transfer_protocol": proto,
        "universal_lightcone": universal_lc,
        "universal_prev_best": r,
        "universal_protocol": None,
    }
