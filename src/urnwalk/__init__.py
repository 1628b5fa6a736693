"""Exact hitting times for the n-urn ball-transfer (Ehrenfest-type) walk.

M labelled balls sit in n labelled urns; each move relocates a uniformly
chosen ball to a uniformly chosen other urn.  The package computes the
expected time for the walk to first reach one placement from another three
independent ways (closed forms and recursions, exact linear solves over
the full state space, seeded Monte Carlo) and cross-checks them exactly.
"""

from .checks import CheckResult, run_verification
from .errors import (
    BudgetExceededError,
    ConfigurationError,
    DomainError,
    IdenticalConfigurationsError,
    SimulationTruncatedError,
    SingularSystemError,
    UrnwalkError,
    ValidationError,
)
from .exact import (
    HittingQuery,
    first_visit_probability,
    full_transfer_time,
    full_transfer_time_by_ball_induction,
    general_hitting_time,
    passage_increment,
    passage_increments,
    transfer_time_terms,
)
from .model import (
    Configuration,
    ModelParams,
    lump_classes,
    lumped_kernel,
    parse_configuration,
)
from .occupancy import (
    OccupancyChain,
    aggregation_matches_full_walk,
    build_occupancy_chain,
    passage_increments_by_solve,
)
from .oracle import (
    TargetFiber,
    expected_hitting_time,
    expected_hitting_time_float,
    lumped_first_visit_probs,
    target_fiber,
)
from .simulate import HittingEstimate, SimulationPlan, run

__version__ = "0.1.0"
