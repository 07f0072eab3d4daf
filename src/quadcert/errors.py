"""Exception types shared across the package."""


class QuadcertError(Exception):
    """Base class for all package-specific errors."""


class EvenCharacteristicError(QuadcertError):
    """The characteristic 2 is excluded everywhere in this package."""


class NotPrimeError(QuadcertError):
    """A composite number was offered as a field characteristic."""


class UsageError(QuadcertError, ValueError):
    """An input is outside what a command accepts: a malformed field spec, a
    field beyond the size limit, n too small, or a lift longer than that
    limit. The CLI reports it with exit code 4; a plain ValueError is an
    internal fault and is not caught there."""


class DimensionMismatchError(QuadcertError):
    """Matrix or vector dimensions do not line up."""


class SizeMismatchError(QuadcertError):
    """A permutation or map was applied to a point of the wrong length."""


class InvalidProfileError(QuadcertError):
    """The binary presentation of n does not support the block construction."""


class NotOnQuadricError(QuadcertError):
    """The point does not satisfy both defining power-sum equations."""


class OnDiscriminantError(QuadcertError):
    """The point has two equal coordinates, so a denominator vanishes."""


class JacobianIdentityError(QuadcertError):
    """A generator Jacobian row fails J.1 = 0 or J.x = 0 at a point, so the
    Jacobian or the field arithmetic is wrong. An internal fault, not an
    input error: the CLI does not catch it."""


class NoPointFoundError(QuadcertError):
    """Sampling exhausted its budget without finding a valid point."""
