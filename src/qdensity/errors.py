"""Exception types shared across the package.

Every error derives from exactly one of three bases, and the CLI maps each
base onto one process exit code: :class:`ValidationError` exits 1,
:class:`PrecisionExhausted` exits 2 and :class:`SoundnessError` exits 3.  A
new refusal picks its exit code by picking its base here.
"""


class QDensityError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QDensityError):
    """A run parameter or input literal is outside its allowed range."""


class PrecisionExhausted(QDensityError):
    """The tracked error bound is too large to certify the requested answer.

    Raised instead of returning a possibly-wrong value; retry with more
    fractional bits.
    """


class SoundnessError(QDensityError):
    """Internal re-verification of an emitted result failed.

    This is the tripwire for bugs in the solver pipeline; it must never fire
    in a correct build.
    """


class RationalDetected(ValidationError):
    """A value turned out to be rational where an irrational is required."""


class AllRational(ValidationError):
    """Every candidate direction produced a rational value."""


class AlphaZero(ValidationError):
    """The leading coordinate is indistinguishable from zero, so the lifted
    shift, which adds t/(4*alpha) to gamma, is undefined for a nonzero t."""


class CapExceeded(ValidationError):
    """A brute-force enumeration was asked to scan beyond its hard cap."""
