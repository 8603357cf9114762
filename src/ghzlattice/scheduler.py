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

import math
import warnings
from dataclasses import dataclass, field

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


def choose_m(alpha: float, d: int, r1) -> int:
    """Smallest integer merge factor in the regime's prescribed interval.

    polylog:   m in (r1**(lam-1), 2*r1**(lam-1)],  lam = 2d/alpha
    stretched: m in [exp(g*sqrt(log r1)), 2*exp(g*sqrt(log r1))], g = gamma/(2d);
               requires r1 >= exp(8/d)
    power:     smallest integer strictly above 3**(1/(alpha-2d)), independent of r1;
               unsupported where alpha is so close to 2d that this overflows
    """
    reg = regime(alpha, d)
    if r1 < 1:
        raise PreconditionError(f"r1 must be >= 1, got {r1}")
    if reg == POWER:
        try:
            return math.floor(3.0 ** (1.0 / (alpha - 2 * d))) + 1
        except OverflowError:
            raise UnsupportedRegimeError(f"alpha={alpha} is too close to 2d={2 * d}: "
                                         "3**(1/(alpha-2d)) overflows") from None
    if reg == POLYLOG:
        lam = 2.0 * d / alpha
        return math.floor(float(r1) ** (lam - 1.0)) + 1
    if r1 < math.exp(8.0 / d):
        raise PreconditionError(
            f"alpha=2d merge rule needs r1 >= exp(8/d) ~ {math.exp(8.0/d):.1f}, got {r1}"
        )
    gamma = 3.0 * math.sqrt(d)
    return math.ceil(math.exp(gamma / (2.0 * d) * math.sqrt(math.log(r1))))


def step2_time(alpha: float, d: int, m, r1) -> float:
    """Duration of the controlled-phase merge: pi * d**(a/2) * (m*r1)**a / V**2.

    Computed as pi * d**(a/2) * m**a * r1**(a-2d) (identical since V = r1**d),
    which stays finite for the huge r1 reached by continuous-mode sweeps.
    """
    if m < 1 or r1 < 1:
        raise PreconditionError(f"m and r1 must be >= 1, got m={m}, r1={r1}")
    return (
        math.pi
        * d ** (alpha / 2.0)
        * float(m) ** alpha
        * float(r1) ** (alpha - 2.0 * d)
    )


def merge_duration(alpha: float, d: int, m, r1, q: int = 2) -> float:
    """Merge-phase duration for q-level sites.

    Chosen so each control/target all-ones cube pair accumulates phase 2*pi/q
    (pi for qubits, reproducing :func:`step2_time` exactly at q=2).
    """
    return (2.0 / q) * step2_time(alpha, d, m, r1)


def k_alpha_min(
    alpha: float,
    d: int,
    m=None,
    r0: int = 2,
    kappa_factor: float = 4.0,
) -> float:
    """Minimum envelope prefactor K for which the level recursion closes.

    power:     pi * d**(a/2) * m**a / (m**(a-2d) - 3); pole at m**(a-2d) <= 3
    stretched: 2**a * pi * d**(a/2) / (e**2 - 3)
    polylog:   smallest K with K*log(r0)**kappa >= pi*(2*sqrt(d))**a, i.e. the
               simplifying assumption holds from the base size up
    """
    reg = regime(alpha, d)
    if reg == POWER:
        if m is None:
            raise PreconditionError("power regime needs the merge factor m")
        denom = float(m) ** (alpha - 2 * d) - 3.0
        if denom <= 0:
            raise PoleError(
                f"m={m} is at or below the pole m**(alpha-2d) <= 3 for alpha={alpha}, d={d}"
            )
        return math.pi * d ** (alpha / 2.0) * float(m) ** alpha / denom
    if reg == STRETCHED:
        return 2.0**alpha * math.pi * d ** (alpha / 2.0) / (math.e**2 - 3.0)
    if not 3.0 < kappa_factor <= 4.0:
        raise PreconditionError(f"kappa_factor must be in (3, 4], got {kappa_factor}")
    if r0 <= 1:
        raise PreconditionError(f"polylog minimum needs base r0 > 1, got {r0}")
    kappa = math.log(kappa_factor) / math.log(2.0 * d / alpha)
    return (
        math.pi
        * (2.0 * math.sqrt(d)) ** alpha
        / ((kappa_factor - 3.0) * math.log(r0) ** kappa)
    )


def bound_kernel(alpha: float, d: int, r, kappa_factor: float = 4.0) -> float:
    """The envelope with unit prefactor: log**kappa r, e**(g*sqrt(log r)), r**(a-2d)."""
    reg = regime(alpha, d)
    if r < 1:
        raise PreconditionError(f"r must be >= 1, got {r}")
    if reg == POLYLOG:
        kappa = math.log(kappa_factor) / math.log(2.0 * d / alpha)
        return math.log(r) ** kappa
    if reg == STRETCHED:
        return math.exp(3.0 * math.sqrt(d) * math.sqrt(math.log(r)))
    return float(r) ** (alpha - 2 * d)


@dataclass(frozen=True)
class RegimeParams:
    """Constants of one (alpha, d) regime plus the chosen base case.

    ``K_alpha`` is stored as given; whether it meets the regime minimum is a
    certificate question (see :meth:`SchedulePlan.certify`), not a construction
    error, so envelopes with unit prefactor remain expressible.
    """

    alpha: float
    d: int
    regime: str
    gamma: float
    lam: float
    kappa_alpha: float | None
    K_alpha: float
    r0: int
    t_base: float
    kappa_factor: float = 4.0

    def bound(self, r) -> float:
        return self.K_alpha * bound_kernel(self.alpha, self.d, r, self.kappa_factor)


def make_params(
    alpha: float,
    d: int,
    r0: int = 2,
    K_alpha: float | None = None,
    t_base: float | None = None,
    kappa_factor: float = 4.0,
    m=None,
) -> RegimeParams:
    """RegimeParams with defaults: K = regime minimum, t_base = envelope at r0."""
    reg = regime(alpha, d)
    if r0 < 1:
        raise PreconditionError(f"base side r0 must be >= 1, got {r0}")
    if K_alpha is not None and not 0.0 < K_alpha < math.inf:
        raise PreconditionError(f"K_alpha must be finite and > 0, got {K_alpha}")
    if t_base is not None and not 0.0 <= t_base < math.inf:
        raise PreconditionError(f"t_base must be finite and >= 0, got {t_base}")
    if reg == POLYLOG and not 3.0 < kappa_factor <= 4.0:
        raise PreconditionError(f"kappa_factor must be in (3, 4], got {kappa_factor}")
    lam = 2.0 * d / alpha
    kappa = math.log(kappa_factor) / math.log(lam) if reg == POLYLOG else None
    if K_alpha is None:
        if reg == POWER and m is None:
            m = choose_m(alpha, d, r0)
        K_alpha = k_alpha_min(alpha, d, m=m, r0=r0, kappa_factor=kappa_factor)
    if t_base is None:
        t_base = K_alpha * bound_kernel(alpha, d, r0, kappa_factor)
    return RegimeParams(
        alpha=alpha,
        d=d,
        regime=reg,
        gamma=3.0 * math.sqrt(d),
        lam=lam,
        kappa_alpha=kappa,
        K_alpha=K_alpha,
        r0=r0,
        t_base=t_base,
        kappa_factor=kappa_factor,
    )


def bound_t(alpha: float, d: int, r, params: RegimeParams) -> float:
    """Total-time envelope K * kernel(r) for the given parameters."""
    return params.K_alpha * bound_kernel(alpha, d, r, params.kappa_factor)


@dataclass(frozen=True)
class ScheduleNode:
    """One recursion level: a side-``r`` cube built from ``m**d`` side-``r1`` cubes.

    All ``m**d`` children share one schedule, so ``child`` stores it once;
    ``children`` expands to the full reference tuple.  A base-case node has
    ``child is None`` and ``t_total`` equal to the base encode time.
    """

    r: int | float
    r1: int | float | None
    m: int | float | None
    t1: float | None
    t2: float | None
    t_total: float
    child: "ScheduleNode | None"
    dim: int = 1
    forced: bool = False

    @property
    def is_base(self) -> bool:
        return self.child is None

    @property
    def n_children(self) -> int | None:
        """m**d for integer merge factors, None for continuous ones."""
        if self.is_base:
            return 0
        if isinstance(self.m, int) or float(self.m).is_integer():
            return int(round(self.m)) ** self.dim
        return None

    @property
    def children(self) -> tuple:
        if self.is_base:
            return ()
        n = self.n_children
        return (self.child,) * (n if n else 1)


@dataclass
class SchedulePlan:
    """A full recursion tree plus the regime constants it was built with."""

    params: RegimeParams
    root: ScheduleNode
    levels: list  # merge factors, ordered from the base outward
    mode: str
    q: int = 2
    forced: bool = False
    lattice: LatticeSpec | None = None
    notes: list = field(default_factory=list)

    @property
    def t_total(self) -> float:
        return self.root.t_total

    def nodes(self) -> list[ScheduleNode]:
        """Distinct nodes, root first, base last."""
        out, node = [], self.root
        while node is not None:
            out.append(node)
            node = node.child
        return out

    def certify(self) -> list[dict]:
        """Per-node bound check: t_total <= K*kernel(r), plus precondition audit.

        The inequality is the per-level recursion guarantee; it is only claimed
        when K meets the regime minimum and the merge factor of every level sits
        in the prescribed interval (``preconditions_met``).
        """
        recs = []
        for node in self.nodes():
            bound = self.params.bound(node.r)
            recs.append(
                {
                    "r": node.r,
                    "t_total": node.t_total,
                    "bound": bound,
                    "ok": node.t_total <= bound * (1 + _REL_EPS),
                    "preconditions_met": self._node_preconditions(node),
                }
            )
        return recs

    @property
    def certified(self) -> bool:
        return all(rec["ok"] and rec["preconditions_met"] for rec in self.certify())

    def _node_preconditions(self, node: ScheduleNode) -> bool:
        p = self.params
        if node.is_base:
            return True  # base case holds by fiat
        m, r1 = node.m, node.r1
        slack = 1 + 1e-12
        try:
            if p.regime == POWER:
                kmin = k_alpha_min(p.alpha, p.d, m=m)
                # m > 3**(1/(alpha-2d)), in log space: no overflow near the pole
                return (
                    math.log(m) * (p.alpha - 2 * p.d) > math.log(3.0)
                    and p.K_alpha * slack >= kmin
                )
            if p.regime == POLYLOG:
                lower = float(r1) ** (p.lam - 1.0)
                assumption = (
                    p.K_alpha * math.log(r1) ** p.kappa_alpha * slack
                    >= math.pi * (2.0 * math.sqrt(p.d)) ** p.alpha
                )
                kmin = k_alpha_min(p.alpha, p.d, r0=p.r0, kappa_factor=p.kappa_factor)
            else:
                lower = math.exp(p.gamma / (2.0 * p.d) * math.sqrt(math.log(r1)))
                assumption = r1 * slack >= math.exp(8.0 / p.d)
                kmin = k_alpha_min(p.alpha, p.d)
        except (PoleError, PreconditionError):
            return False
        in_interval = lower / slack <= m <= 2.0 * lower * slack
        if p.regime == POLYLOG:
            in_interval = lower < m <= 2.0 * lower * slack
        return in_interval and assumption and p.K_alpha * slack >= kmin

    def to_dict(self) -> dict:
        """JSON-ready tree.

        All ``m**d`` children of a node are identical by construction, so the
        shared child subtree is serialized once; ``n_children`` records the
        multiplicity.
        """

        def node_dict(node: ScheduleNode) -> dict:
            return {
                "r": node.r,
                "r1": node.r1,
                "m": node.m,
                "t1": node.t1,
                "t2": node.t2,
                "t_total": node.t_total,
                "forced": node.forced,
                "n_children": node.n_children,
                "children": [] if node.is_base else [node_dict(node.child)],
            }

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
            "levels": list(self.levels),
            "t_total": self.t_total,
            "tree": node_dict(self.root),
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
    mode: str = "integer-exact",
    kappa_factor: float = 4.0,
) -> SchedulePlan:
    """Build the recursion tree reaching side ``target_r`` from base side ``r0``.

    integer-exact: target_r must equal r0 times a product of integer merge
    factors (from choose_m, or the ``forced_m`` override); otherwise raises
    UnreachableTargetError carrying the nearest reachable sizes.

    continuous-analytic: target_r may be any real >= r0; merge factors are the
    real-valued upper ends of the regime intervals (constant integer in the
    power regime) and the base time is the envelope evaluated at the real
    base size.
    """
    if not math.isfinite(target_r):
        raise PreconditionError(f"target side must be finite, got {target_r}")
    params = make_params(
        alpha, d, r0=r0, K_alpha=K_alpha, t_base=t_base, kappa_factor=kappa_factor
    )
    if mode == "continuous-analytic":
        return _continuous_plan(params, target_r, q=q)
    if mode != "integer-exact":
        raise PreconditionError(f"unknown mode {mode!r}")
    if q < 2:
        raise PreconditionError(f"q must be >= 2, got {q}")
    target_r = int(target_r)
    if target_r < r0:
        raise PreconditionError(f"target side {target_r} below base side {r0}")

    if forced_m is not None:
        ms = [int(m) for m in forced_m]
        if any(m < 2 for m in ms):
            raise PreconditionError("forced merge factors must be >= 2")
        prod = r0
        for m in ms:
            prod *= m
        if prod != target_r:
            raise UnreachableTargetError(
                target_r, below=min(prod, target_r), above=max(prod, target_r)
            )
    else:
        ms = _ladder(alpha, d, target_r, r0)

    node = ScheduleNode(
        r=r0, r1=None, m=None, t1=None, t2=None, t_total=params.t_base,
        child=None, dim=d,
    )
    for m in ms:
        r1, t1 = node.r, node.t_total
        t2 = merge_duration(alpha, d, m, r1, q=q)
        node = ScheduleNode(
            r=m * r1,
            r1=r1,
            m=m,
            t1=t1,
            t2=t2,
            t_total=3.0 * t1 + t2,
            child=node,
            dim=d,
            forced=forced_m is not None,
        )

    out = SchedulePlan(
        params=params,
        root=node,
        levels=ms,
        mode="integer-exact",
        q=q,
        forced=forced_m is not None,
        lattice=LatticeSpec(d, target_r, q),
    )
    _warn_on_weak_assumptions(out)
    return out


def _warn_on_weak_assumptions(p: SchedulePlan) -> None:
    """Surface (rather than guess around) the polylog small-r1 assumption."""
    if p.params.regime != POLYLOG:
        return
    rhs = math.pi * (2.0 * math.sqrt(p.params.d)) ** p.params.alpha
    for node in p.nodes():
        if node.is_base:
            continue
        lhs = p.params.K_alpha * math.log(node.r1) ** p.params.kappa_alpha
        if lhs < rhs * (1 - 1e-12):
            msg = (
                f"K*log(r1)**kappa = {lhs:.4g} < pi*(2*sqrt(d))**alpha = {rhs:.4g} "
                f"at r1={node.r1}; the polylog envelope is not guaranteed here"
            )
            p.notes.append(msg)
            warnings.warn(msg, AssumptionWarning, stacklevel=3)


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
    beta = params.gamma / (2.0 * params.d)
    s = max(math.log(r / 2.0), 0.0)  # r <= 2 degenerates to a single halving
    u = (-beta + math.sqrt(beta * beta + 4.0 * s)) / 2.0
    r1 = math.exp(u * u)
    return r / r1, r1


def _raw_step2(alpha: float, d: int, m: float, r1: float) -> float:
    # step2_time without the r1 >= 1 guard; continuous chains may pass r1 < 1
    return math.pi * d ** (alpha / 2.0) * m**alpha * r1 ** (alpha - 2.0 * d)


def _continuous_base(params: RegimeParams, rho: float) -> float:
    """Base time at real size rho <= r0.

    power:     K * rho**(a-2d) for any rho > 0, which makes the whole chain
               telescope to exactly K * r**(a-2d).
    polylog:   the recursion-consistent extension
               (t0 + A/2) * (log rho / log r0)**beta - A/2, with
               A = pi*d**(a/2), beta = log3/log(lam); it satisfies
               B(rho) = 3*B(rho**(1/lam)) + A exactly, so the sampled total
               time is a smooth function of r (no depth-quantization ripple)
               that starts on the envelope at r0 and stays below it.
    stretched: the envelope at max(rho, 1).
    """
    if params.regime == POWER:
        return params.K_alpha * rho ** (params.alpha - 2.0 * params.d)
    if params.regime == POLYLOG:
        a_merge = math.pi * params.d ** (params.alpha / 2.0)
        beta = math.log(3.0) / math.log(params.lam)
        t0 = params.t_base
        x = math.log(max(rho, 1.0)) / math.log(params.r0)
        return max((t0 + a_merge / 2.0) * x**beta - a_merge / 2.0, 0.0)
    return params.K_alpha * bound_kernel(
        params.alpha, params.d, max(rho, 1.0), params.kappa_factor
    )


def _continuous_plan(params: RegimeParams, target_r, q: int = 2) -> SchedulePlan:
    target_r = float(target_r)
    if target_r < params.r0:
        raise PreconditionError(f"target side {target_r} below base side {params.r0}")
    if params.regime == POLYLOG and params.r0 <= 1:
        raise PreconditionError("polylog continuous mode needs base r0 > 1")

    splits = []
    r = target_r
    while r > params.r0:
        m, r1 = _continuous_split(params, r)
        splits.append((r, m, r1))
        r = r1
    node = ScheduleNode(
        r=r,
        r1=None,
        m=None,
        t1=None,
        t2=None,
        t_total=_continuous_base(params, r),
        child=None,
        dim=params.d,
    )
    for r_here, m, r1 in reversed(splits):
        t1 = node.t_total
        t2 = (2.0 / q) * _raw_step2(params.alpha, params.d, m, r1)
        node = ScheduleNode(
            r=r_here, r1=r1, m=m, t1=t1, t2=t2, t_total=3.0 * t1 + t2,
            child=node, dim=params.d,
        )
    return SchedulePlan(
        params=params,
        root=node,
        levels=[m for _, m, _ in reversed(splits)],
        mode="continuous-analytic",
        q=q,
        lattice=None,
    )


def protocol_time(
    alpha: float, d: int, r, r0: int = 2, mode: str = "continuous-analytic", **kw
) -> float:
    """Total encode time t(r); convenience wrapper around :func:`plan`."""
    return plan(alpha, d, r, r0=r0, mode=mode, **kw).t_total


def t_star(alpha: float, d: int, n) -> float:
    """Evolution time beyond which simulating n sites needs Omega(n) gates.

    Unit-constant case values: log(n)**kappa, exp(gamma*sqrt(log(n)/d)),
    n**(alpha/d - 2).
    """
    reg = regime(alpha, d)
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    if reg == POLYLOG:
        kappa = math.log(4.0) / math.log(2.0 * d / alpha)
        return math.log(n) ** kappa
    if reg == STRETCHED:
        return math.exp(3.0 * math.sqrt(d) * math.sqrt(math.log(n) / d))
    return float(n) ** (alpha / d - 2.0)


def gate_count_upper(
    alpha: float, d: int, n, t: float = 1.0, at_t_star: bool = False
) -> float:
    """Leading-order Trotter gate-count upper bound (o(1) exponents dropped).

    General t: n**2 * t for d < alpha <= 2d, (n*t)**(1 + d/(alpha-d)) above.
    With ``at_t_star`` the bound is specialized at t = t_star: n**2 below 2d,
    n**(alpha/d) above.
    """
    if not alpha > d:
        raise UnsupportedRegimeError(f"alpha={alpha} <= d={d} is out of scope")
    if n < 1 or t < 0:
        raise PreconditionError(f"need n >= 1 and t >= 0, got n={n}, t={t}")
    if at_t_star:
        regime(alpha, d)  # t_star only exists for alpha <= 2d+1
        return float(n) ** 2 if alpha <= 2 * d else float(n) ** (alpha / d)
    if alpha <= 2 * d:
        return float(n) ** 2 * t
    return (float(n) * t) ** (1.0 + d / (alpha - d))


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
    encode_prev = r ** (alpha - d) if alpha < d + 1 else r

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
