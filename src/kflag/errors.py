"""Exception taxonomy shared across the package.

The command line front end maps these onto its exit-code contract; see
``kflag.cli``.
"""


class KflagError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(KflagError, ValueError):
    """A precondition on supplied data failed (rank mismatch, bad syntax, ...)."""


class LimitExceededError(InvalidInputError):
    """An operation was asked to run beyond a configured rank or term bound."""


class NotDivisibleError(KflagError, ArithmeticError):
    """Exact division has no quotient in the Laurent ring."""


class NotRegularError(KflagError):
    """The reduction level sits on a wall, so kernel enumeration refuses to run."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotInSpanError(KflagError):
    """A localized class is not a Laurent-coefficient combination of the basis."""


class SoundnessFailureError(KflagError):
    """A kernel generator violated its half-space inequality at a support point."""


class InternalInvariantError(KflagError, RuntimeError):
    """An internal algebraic invariant broke (e.g. gkm.decompose left a nonzero residue)."""
