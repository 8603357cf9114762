"""Exception hierarchy shared by all ghzlattice modules.

Every error the library raises deliberately derives from GhzLatticeError so
callers (and the CLI) can map failures to stable categories.
"""


class GhzLatticeError(Exception):
    """Base class for all ghzlattice errors."""


class DivisibilityError(GhzLatticeError, ValueError):
    """A region side is not divisible by the requested merge factor."""


class OutOfBoundsError(GhzLatticeError, ValueError):
    """A region or site does not fit inside its parent lattice/region."""


class UnsupportedRegimeError(GhzLatticeError, ValueError):
    """The interaction exponent alpha lies outside the supported range."""


class PreconditionError(GhzLatticeError, ValueError):
    """An operation's stated precondition does not hold for the inputs."""


class PoleError(GhzLatticeError, ValueError):
    """The minimum-prefactor formula is evaluated at or below its pole."""


class UnreachableTargetError(GhzLatticeError, ValueError):
    """The target side length is not a product of the scheduled merge factors.

    Carries the nearest reachable sizes bracketing the target, or, for a forced
    schedule, the one size it reaches (the other side is None).
    """

    def __init__(self, target, below, above):
        self.target = target
        self.below = below
        self.above = above
        if below is None or above is None:
            reach = f"the forced merge factors reach {above if below is None else below}"
        else:
            reach = f"nearest reachable sizes are {below} (below) and {above} (above)"
        super().__init__(f"side {target} is not reachable; {reach}")


class MemoryCapError(GhzLatticeError, ValueError):
    """The requested statevector would exceed the amplitude cap (a refusal)."""


class PlanMismatchError(GhzLatticeError, ValueError):
    """A schedule plan does not match the region/lattice it is applied to."""


class StatePreconditionError(GhzLatticeError, ValueError):
    """The live statevector violates a protocol precondition."""
