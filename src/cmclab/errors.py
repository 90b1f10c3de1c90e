"""Exception types shared across the package, and `naming`, the one place
a refusal names the file it refuses.

The hierarchy matters for the command line front end: ConfigError maps to
exit code 2, NumericalError (and subclasses) to exit code 3.
"""


class CmcLabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CmcLabError, ValueError):
    """An argument violates an operation's precondition."""


class ConfigError(CmcLabError):
    """A run configuration is malformed or violates its invariants."""


class NumericalError(CmcLabError):
    """A numerical procedure failed or produced inconsistent output."""


class IntegrationBlowupError(NumericalError):
    """An ODE solution left the representable range.

    Carries the coordinate `x` where the blowup was detected.
    """

    def __init__(self, message, x):
        super().__init__(message)
        self.x = x


class IncompatibleDataError(NumericalError):
    """Surface data violates the Gauss equation beyond tolerance."""


class IntegrationFailureError(NumericalError):
    """Frame integration drifted off the unimodular group."""


class InternalConsistencyError(NumericalError):
    """An invariant that should hold by construction was violated."""


class naming:
    """Run a reader of the file at `path`: an InvalidInputError or
    ConfigError raised inside is raised again as "<path>: <message>", of
    its own type, and a UnicodeDecodeError as an InvalidInputError."""

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, (InvalidInputError, ConfigError)):
            raise type(exc)(f"{self.path}: {exc}") from None
        if isinstance(exc, UnicodeDecodeError):
            raise InvalidInputError(f"{self.path}: {exc}") from None
