"""Exception and warning types shared across the simulation modules."""


class SimulationError(Exception):
    """Base class for domain errors raised by this package."""


class TruncationError(SimulationError):
    """A Fock-space cutoff is too small for the requested amplitude."""


class IntegrationError(SimulationError):
    """The ODE integrator failed to meet its tolerances."""


class EstimationError(SimulationError):
    """A spectral estimate cannot be formed from the given samples."""


class ConditioningError(SimulationError):
    """A conditional-state projection is degenerate or carries no weight."""


class ConfigError(ValueError):
    """A configuration file is malformed or contains unknown keys."""


class RegimeWarning(UserWarning):
    """A regime ratio is out of range; ``sim --strict`` makes it an error."""
