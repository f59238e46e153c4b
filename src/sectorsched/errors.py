"""Exception types shared across the package."""


class SectorSchedError(Exception):
    """Base class for all sectorsched errors."""


class InvalidInputError(SectorSchedError, ValueError):
    """An argument violates a documented precondition."""


class InfeasibleScenarioError(SectorSchedError):
    """No valid assignment exists under the given resources and field of view."""


class LimitsExceededError(SectorSchedError):
    """Instance is larger than the configured exact-search limits allow."""


class ScenarioFormatError(InvalidInputError):
    """A scenario, partition, trace or load-report file could not be parsed;
    the message names the file, or the field path or row at fault."""


class ScenarioValidationError(InvalidInputError):
    """A parsed or supplied scenario violates its invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
