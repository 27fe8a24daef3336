"""Exception types shared across the package.

Every refusal raises one of three bases, and the CLI maps each base onto one
process exit code: :class:`ValidationError` exits 1, :class:`PrecisionExhausted`
exits 2 and :class:`SoundnessError` exits 3.  A refusal says what went wrong in
its message and picks its exit code by picking its base; no subclass restates
an exit code.
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

