"""Exception types shared by all rzspec modules."""


class RZError(Exception):
    """Base class for every error raised by this package."""


class PoleError(RZError):
    """Evaluation was requested at a pole of the function."""


class ToleranceNotMet(RZError):
    """An adaptive scheme stalled before reaching the requested tolerance."""


class ConsistencyError(RZError):
    """An internal cross-check exceeded its tolerance."""


class MissedZeroError(RZError):
    """A sign-change scan disagrees with the counting formula."""


class FormatError(RZError):
    """Malformed input file."""


class MonotonicityError(RZError):
    """A sequence that must be strictly increasing is not."""


class OnZeroError(RZError):
    """Operation is undefined on (or too close to) a zero ordinate."""


class SubcriticalEnergy(RZError):
    """Energy too low for a bounded classical orbit."""


class UnimodularReflection(RZError):
    """Reflection amplitude on the unit circle; matching matrices degenerate."""


class ZeroModulus(RZError):
    """Phase of an exactly vanishing complex number is undefined."""


class NotAZero(RZError):
    """Argument must be a verified zero ordinate."""


class OnZeroAmbiguity(RZError):
    """Expansion point sits on a zero that the residue series' table does not hold."""


class NoSimpleZero(RZError):
    """A higher-order zero was met where simple zeros are assumed."""


class BadCharacter(RZError):
    """Value table is not a completely multiplicative Dirichlet character."""
