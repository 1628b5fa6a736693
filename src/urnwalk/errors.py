"""Exception types shared across the package."""

from __future__ import annotations


class UrnwalkError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(UrnwalkError, ValueError):
    """An input value violates a structural constraint."""


class ConfigurationError(ValidationError):
    """A ball placement is malformed (wrong length, urn index out of range)."""


class DomainError(UrnwalkError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class IdenticalConfigurationsError(DomainError):
    """Start and target placements coincide where a strictly positive move is required."""


class BudgetExceededError(UrnwalkError):
    """A state space is too large for the requested exhaustive or exact computation."""

    def __init__(self, states: int, budget: int, what: str = "exact solve"):
        self.states = states
        self.budget = budget
        self.what = what
        super().__init__(
            f"state space has {states} states, exceeding the {what} budget of {budget}"
        )


class SingularSystemError(UrnwalkError):
    """A linear system that must be uniquely solvable turned out singular."""


class SimulationTruncatedError(UrnwalkError):
    """Every replication hit the step cap, so no estimate can be formed."""

    def __init__(self, truncated: int, requested: int, max_steps: int):
        self.truncated = truncated
        self.requested = requested
        self.max_steps = max_steps
        super().__init__(
            f"all {requested} replications were truncated at {max_steps} steps; "
            "raise the step cap or check the plan"
        )
