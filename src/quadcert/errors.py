"""Exception types shared across the package."""


class QuadcertError(Exception):
    """Base class for all package-specific errors."""


class UsageError(QuadcertError, ValueError):
    """An input is outside what a command accepts: a malformed field spec, a
    field beyond the size limit, n too small, or a lift longer than that
    limit. The CLI reports it with exit code 4; a plain ValueError is an
    internal fault and is not caught there."""


class EvenCharacteristicError(UsageError):
    """The characteristic 2 is excluded everywhere in this package."""


class NotPrimeError(UsageError):
    """A composite number was offered as a field characteristic."""


class RefusalError(QuadcertError):
    """A valid input that the construction does not cover over the field
    `ctx`. The CLI writes a refusal document over that field and exits 2."""

    def __init__(self, message: str, ctx):
        super().__init__(message)
        self.ctx = ctx


class SizeMismatchError(QuadcertError):
    """A permutation or map was applied to a point of the wrong length."""


class InvalidProfileError(RefusalError):
    """The gate refuses (n, p): p does not divide n, or the binary
    presentation of n has fewer than four terms. `ctx` is GF(p)."""


class NotOnQuadricError(QuadcertError):
    """The point does not satisfy both defining power-sum equations."""


class OnDiscriminantError(QuadcertError):
    """The point has two equal coordinates, so a denominator vanishes."""


class JacobianIdentityError(QuadcertError):
    """A generator Jacobian row fails J.1 = 0 or J.x = 0 at a point, so the
    Jacobian or the field arithmetic is wrong. An internal fault, not an
    input error: the CLI does not catch it."""


class NoPointFoundError(RefusalError):
    """Sampling over `ctx` exhausted its budget without finding a valid point."""
