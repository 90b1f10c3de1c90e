"""Exception types shared across the package.

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
