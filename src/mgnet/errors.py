"""Exception types shared across the package."""


class MgnetError(Exception):
    """Base class for package errors."""


class ConfigError(MgnetError):
    """Scenario or input file is malformed or violates the schema."""


class InfeasibleTopologyError(MgnetError):
    """The requested communication graph cannot be built."""


class SynthesisError(MgnetError):
    """Weight synthesis exhausted its retry budget or the supplied weights fail."""


class DecodeError(MgnetError):
    """Base class for recovery-stage failures."""


class DecodeInconsistencyError(DecodeError):
    """Observations are not explained by the declared fault set."""


class DecodeFailureError(DecodeError):
    """No candidate fault set within the bound explains the observations."""


class InternalInvariantError(MgnetError):
    """A condition the algorithms guarantee was violated at runtime."""


# Each ends only its decision period, recorded as its error (CLI exit 2); a ConfigError aborts.
PERIOD_FAILURES = (InfeasibleTopologyError, SynthesisError, DecodeError, InternalInvariantError)
