"""Cross-module verification sweeps.

Each function certifies one family of identities over a parameter grid by
comparing values produced through genuinely different routes (closed form,
recursion, exact linear solve, exhaustive aggregation).  All comparisons
are exact equality of rationals; there are no tolerances anywhere in this
module.  The CLI's ``verify`` command and the acceptance test suite are
both thin layers over these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import exact, occupancy, oracle
from .errors import InternalCheckError
from .model import (
    ModelParams,
    config_at,
    lump_class_of,
    lumped_kernel,
    neighbors,
    transition_probability,
)

DEFAULT_MAX_URNS = 6
DEFAULT_MAX_BALLS = 8
DEFAULT_ORACLE_BUDGET = 1024
DEFAULT_OCCUPANCY_BUDGET = 10_000
DEFAULT_LUMPING_BUDGET = 2_048


@dataclass(frozen=True)
class CheckResult:
    """One row of the suite.  A row that covered no cell certified nothing,
    so it never passes, whatever its check found."""

    name: str
    passed: bool
    detail: str
    cells: int = 0

    def __post_init__(self) -> None:
        if self.cells == 0:
            object.__setattr__(self, "passed", False)


def grid_cells(
    max_urns: int, max_balls: int, state_limit: int | None = None
) -> list[ModelParams]:
    """All (urns, balls) cells of the grid, optionally capped by state count."""
    cells = []
    for urns in range(2, max_urns + 1):
        for balls in range(1, max_balls + 1):
            params = ModelParams(urns=urns, balls=balls)
            if state_limit is None or params.state_count <= state_limit:
                cells.append(params)
    return cells


def formula_route_agreement(cells: list[ModelParams]) -> CheckResult:
    """Closed form, ball-count induction, and summed increments all agree."""
    bad = []
    for params in cells:
        closed = exact.full_transfer_time(params)
        inducted = exact.full_transfer_time_by_ball_induction(params)
        summed = sum(exact.passage_increments(params), Fraction(0))
        if not closed == inducted == summed:
            bad.append(params)
    return CheckResult(
        name="transfer-time-routes",
        passed=not bad,
        detail=f"{len(cells)} cells" + (f", first failure {bad[0]}" if bad else ""),
        cells=len(cells),
    )


def increment_recursion_agreement(cells: list[ModelParams]) -> CheckResult:
    """Recursion and closed form give the same increment at every index."""
    bad = []
    for params in cells:
        by_recursion = exact.passage_increments(params)
        by_formula = [exact.passage_increment(params, k) for k in range(params.balls)]
        if by_recursion != by_formula:
            bad.append(params)
    return CheckResult(
        name="increment-routes",
        passed=not bad,
        detail=f"{len(cells)} cells",
        cells=len(cells),
    )


def distance_formula_collapse(cells: list[ModelParams]) -> CheckResult:
    """At full distance the pairwise formula equals the transfer time."""
    bad = []
    for params in cells:
        query = exact.HittingQuery(params=params, hamming_distance=params.balls)
        if exact.general_hitting_time(query) != exact.full_transfer_time(params):
            bad.append(params)
    return CheckResult(
        name="distance-collapse",
        passed=not bad,
        detail=f"{len(cells)} cells",
        cells=len(cells),
    )


def sum_identity(cells: list[ModelParams]) -> CheckResult:
    """Both closed-form totals agree exactly on every cell."""
    bad = []
    for params in cells:
        if not exact.sum_identity_report(params).matches:
            bad.append(params)
    return CheckResult(
        name="sum-identity",
        passed=not bad,
        detail=f"{len(cells)} cells",
        cells=len(cells),
    )


def termwise_difference_witness(params: ModelParams) -> CheckResult:
    """The identity holds in total while at least one term differs."""
    report = exact.sum_identity_report(params)
    ok = report.matches and not report.termwise_matches
    return CheckResult(
        name="termwise-witness",
        passed=ok,
        detail=f"at {params}: totals equal, terms differ" if ok else f"failed at {params}",
        cells=1,
    )


def oracle_transfer_agreement(
    cells: list[ModelParams], budget: int | None = None
) -> CheckResult:
    """Dense solve of the full walk reproduces the closed-form transfer time."""
    from .model import SOURCE_URN, TARGET_URN, all_in_urn

    bad = []
    for params in cells:
        solved = oracle.expected_hitting_time(
            params,
            all_in_urn(params, SOURCE_URN),
            all_in_urn(params, TARGET_URN),
            budget=budget,
        )
        if solved != exact.full_transfer_time(params):
            bad.append(params)
    return CheckResult(
        name="oracle-transfer",
        passed=not bad,
        detail=f"{len(cells)} cells",
        cells=len(cells),
    )


def distance_agreement(
    params: ModelParams, budget: int | None = None, pairs_per_class: int = 3
) -> tuple[bool, int]:
    """Solve the full walk against the pairwise formula at every distance.

    Targets are taken in state-index order, each contributing one exact
    solve that yields the hitting time from every start; starts are also
    scanned in index order.  Per distance the check covers
    ``pairs_per_class`` distinct (start, target) pairs, or every existing
    pair when fewer exist.  Returns (all pairs agreed, pairs checked).
    """
    n, m = params.urns, params.balls
    total_by_distance = {
        L: params.state_count * math.comb(m, L) * (n - 1) ** L for L in range(1, m + 1)
    }
    quota = {L: min(pairs_per_class, total) for L, total in total_by_distance.items()}
    counts = {L: 0 for L in quota}
    expected = {
        L: exact.general_hitting_time(
            exact.HittingQuery(params=params, hamming_distance=L)
        )
        for L in quota
    }
    checked = 0
    agreed = True
    configs = [config_at(g, params) for g in range(params.state_count)]
    for target_index in range(params.state_count):
        if all(counts[L] >= quota[L] for L in quota):
            break
        times = oracle.hitting_times_to_target(
            params, configs[target_index], budget=budget
        )
        target = configs[target_index]
        for start_index in range(params.state_count):
            distance = sum(
                1 for a, b in zip(configs[start_index], target) if a != b
            )
            if distance == 0 or counts[distance] >= quota[distance]:
                continue
            counts[distance] += 1
            checked += 1
            if times[start_index] != expected[distance]:
                agreed = False
    return agreed and all(counts[L] >= quota[L] for L in quota), checked


def oracle_distance_agreement(
    cells: list[ModelParams], budget: int | None = None, pairs_per_class: int = 3
) -> CheckResult:
    bad = []
    pairs = 0
    for params in cells:
        ok, checked = distance_agreement(
            params, budget=budget, pairs_per_class=pairs_per_class
        )
        pairs += checked
        if not ok:
            bad.append(params)
    return CheckResult(
        name="oracle-distance",
        passed=not bad,
        detail=f"{len(cells)} cells, {pairs} pairs",
        cells=len(cells),
    )


def first_visit_triple_agreement(
    cells: list[ModelParams], budget: int | None = None
) -> CheckResult:
    """Closed form, lumped solve, and full-graph harmonic solve coincide."""
    bad = []
    used = [params for params in cells if params.balls >= 2]
    for params in used:
        formula = exact.first_visit_probability(params)
        lumped = oracle.lumped_first_visit_probs(params)[0]
        harmonic = oracle.first_visit_success_prob(params, budget=budget)
        if not formula == lumped == harmonic:
            bad.append(params)
    return CheckResult(
        name="first-visit-triple",
        passed=not bad,
        detail=f"{len(used)} cells",
        cells=len(used),
    )


def fiber_checks(cells: list[ModelParams], budget: int | None = None) -> CheckResult:
    """Fiber segment time, stationary return gap, and escape ratio."""
    bad = []
    used = [params for params in cells if params.balls >= 2]
    for params in used:
        n, k = params.urns, params.balls
        shrunk = ModelParams(urns=n, balls=k - 1)
        segment = oracle.expected_time_to_target_fiber(params, budget=budget)
        want_segment = Fraction(k, k - 1) * exact.full_transfer_time(shrunk)
        gap = oracle.mean_return_gap_to_target_fiber(params, budget=budget)
        try:
            ratio = exact.fiber_escape_ratio(params).ratio
        except InternalCheckError:
            bad.append(params)
            continue
        if segment != want_segment or gap != n ** (k - 1) or ratio != n - 1:
            bad.append(params)
    return CheckResult(
        name="fiber-checks",
        passed=not bad,
        detail=f"{len(used)} cells",
        cells=len(used),
    )


def lumping_is_exact(params: ModelParams) -> bool:
    """Exhaustively confirm the class partition aggregates the full walk.

    For every state, the summed transition probability into each class must
    equal the lumped kernel entry of the state's own class.
    """
    kernel = lumped_kernel(params)
    size = 2 * params.balls
    for config in product(range(1, params.urns + 1), repeat=params.balls):
        own = lump_class_of(config, params).index
        sums = [Fraction(0)] * size
        for destination in neighbors(config, params):
            sums[lump_class_of(destination, params).index - 1] += (
                transition_probability(config, destination, params)
            )
        if tuple(sums) != kernel[own - 1]:
            return False
    return True


def lumping_exactness(cells: list[ModelParams]) -> CheckResult:
    bad = [params for params in cells if not lumping_is_exact(params)]
    return CheckResult(
        name="lump-aggregation",
        passed=not bad,
        detail=f"{len(cells)} cells",
        cells=len(cells),
    )


def occupancy_aggregation(
    cells: list[ModelParams], budget: int = DEFAULT_OCCUPANCY_BUDGET
) -> CheckResult:
    bad = [
        params
        for params in cells
        if not occupancy.aggregation_matches_full_walk(params, max_states=budget)
    ]
    return CheckResult(
        name="occupancy-aggregation",
        passed=not bad,
        detail=f"{len(cells)} cells",
        cells=len(cells),
    )


def occupancy_route_agreement(cells: list[ModelParams]) -> CheckResult:
    """Occupancy-chain solve equals the formulas; detailed balance holds."""
    bad = []
    for params in cells:
        chain = occupancy.build_occupancy_chain(params)
        solved = occupancy.passage_increments_by_solve(chain)
        if solved != exact.passage_increments(params):
            bad.append(params)
            continue
        pi = occupancy.stationary_distribution(chain)
        balanced = all(
            pi[k] * chain.up[k] == pi[k + 1] * chain.down[k + 1]
            for k in range(params.balls)
        )
        if not balanced:
            bad.append(params)
    return CheckResult(
        name="occupancy-routes",
        passed=not bad,
        detail=f"{len(cells)} cells",
        cells=len(cells),
    )


def run_verification(
    max_urns: int = DEFAULT_MAX_URNS,
    max_balls: int = DEFAULT_MAX_BALLS,
    oracle_budget: int = DEFAULT_ORACLE_BUDGET,
    occupancy_budget: int = DEFAULT_OCCUPANCY_BUDGET,
    lumping_budget: int = DEFAULT_LUMPING_BUDGET,
) -> list[CheckResult]:
    """The full invariant suite over the given grid.

    Every row is exact.  A failed row means the build is wrong, or that the
    grid and budgets left the row no cell to check.
    """
    cells = grid_cells(max_urns, max_balls)
    oracle_cells = grid_cells(max_urns, max_balls, state_limit=oracle_budget)
    distance_cells = grid_cells(
        max_urns, max_balls, state_limit=min(512, oracle_budget)
    )
    occupancy_cells = grid_cells(max_urns, max_balls, state_limit=occupancy_budget)
    lumping_cells = grid_cells(max_urns, max_balls, state_limit=lumping_budget)

    witness = ModelParams(urns=5, balls=3)
    results = [
        formula_route_agreement(cells),
        increment_recursion_agreement(cells),
        distance_formula_collapse(cells),
        sum_identity(cells),
        termwise_difference_witness(witness),
        occupancy_route_agreement(cells),
        occupancy_aggregation(occupancy_cells, budget=occupancy_budget),
        lumping_exactness(lumping_cells),
        oracle_transfer_agreement(oracle_cells, budget=oracle_budget),
        oracle_distance_agreement(distance_cells, budget=oracle_budget),
    ]
    # The first-visit and fiber identities need two balls, so a one-ball
    # grid holds no instance of them and gets no such rows.  Rows left
    # empty by the budget or an empty grid do appear, and fail.
    if max_balls >= 2:
        results += [
            first_visit_triple_agreement(oracle_cells, budget=oracle_budget),
            fiber_checks(oracle_cells, budget=oracle_budget),
        ]
    return results
