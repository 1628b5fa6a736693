"""Cross-module verification sweeps.

Each function certifies one family of identities over a parameter grid by
comparing values produced through genuinely different routes (closed form,
recursion, exact linear solve, exhaustive aggregation).  The route modules
only compute; every identity is asserted here, so a failed identity is a FAIL
row naming its cell, never an exception that ends the run.  The sum identity,
for one, compares two sequences :mod:`urnwalk.exact` hands out.  Every
comparison is exact equality of rationals.  A row runs its identity on every
cell and names the first cell that fails.  Both aggregation rows go through
the one certifier, :func:`urnwalk.model.is_exactly_lumpable`, each with its
own classification and kernel.  ``verify`` and the acceptance tests are thin
layers over these functions.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

from . import exact, occupancy, oracle
from .model import (
    SOURCE_URN,
    TARGET_URN,
    ModelParams,
    all_in_urn,
    config_at,
    hamming_distance,
    is_exactly_lumpable,
    lump_class_of,
    lumped_kernel,
)

DEFAULT_MAX_URNS = 6
DEFAULT_MAX_BALLS = 8
DEFAULT_ORACLE_BUDGET = 1024
OCCUPANCY_STATE_LIMIT = 10_000
LUMPING_STATE_LIMIT = 2_048
PAIRS_PER_CLASS = 3


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


def _sweep(
    name: str, cells: list[ModelParams], holds: Callable[[ModelParams], bool]
) -> CheckResult:
    """One row: ``holds`` on every cell, naming the first cell that fails."""
    bad = [params for params in cells if not holds(params)]
    return CheckResult(
        name=name,
        passed=not bad,
        detail=f"{len(cells)} cells" + (f", first failure {bad[0]}" if bad else ""),
        cells=len(cells),
    )


def formula_route_agreement(cells: list[ModelParams]) -> CheckResult:
    """Closed form, ball-count induction, and summed increments all agree."""

    def holds(params: ModelParams) -> bool:
        closed = exact.full_transfer_time(params)
        inducted = exact.full_transfer_time_by_ball_induction(params)
        summed = sum(exact.passage_increments(params), Fraction(0))
        return closed == inducted == summed

    return _sweep("transfer-time-routes", cells, holds)


def _increments(params: ModelParams) -> list[Fraction]:
    """The closed-form passage increments e[0..M-1]."""
    return [exact.passage_increment(params, k) for k in range(params.balls)]


def increment_recursion_agreement(cells: list[ModelParams]) -> CheckResult:
    """Recursion and closed form give the same increment at every index."""
    return _sweep(
        "increment-routes",
        cells,
        lambda params: exact.passage_increments(params) == _increments(params),
    )


def distance_formula_collapse(cells: list[ModelParams]) -> CheckResult:
    """At full distance the pairwise formula equals the transfer time."""

    def holds(params: ModelParams) -> bool:
        query = exact.HittingQuery(params=params, hamming_distance=params.balls)
        return exact.general_hitting_time(query) == exact.full_transfer_time(params)

    return _sweep("distance-collapse", cells, holds)


def sum_identity(cells: list[ModelParams]) -> CheckResult:
    """The closed-form increments and the closed form's terms have one total."""
    return _sweep(
        "sum-identity",
        cells,
        lambda params: sum(_increments(params)) == sum(exact.transfer_time_terms(params)),
    )


def termwise_difference_witness(params: ModelParams) -> CheckResult:
    """The identity holds in total while at least one term differs."""
    increments, terms = _increments(params), exact.transfer_time_terms(params)
    ok = sum(increments) == sum(terms) and increments != terms
    return CheckResult(
        name="termwise-witness",
        passed=ok,
        detail=f"at {params}: totals equal, terms differ" if ok else f"failed at {params}",
        cells=1,
    )


def oracle_transfer_agreement(cells: list[ModelParams], budget: int) -> CheckResult:
    """The exact solve of the full walk reproduces the closed-form transfer time."""

    def holds(params: ModelParams) -> bool:
        solved = oracle.expected_hitting_time(
            params,
            all_in_urn(params, SOURCE_URN),
            all_in_urn(params, TARGET_URN),
            budget=budget,
        )
        return solved == exact.full_transfer_time(params)

    return _sweep("oracle-transfer", cells, holds)


def distance_agreement(params: ModelParams, budget: int) -> tuple[bool, int]:
    """Solve the full walk against the pairwise formula at every distance.

    Targets are taken in state-index order, each contributing one exact
    solve that yields the hitting time from every start; starts are also
    scanned in index order.  Per distance the check covers
    ``PAIRS_PER_CLASS`` distinct (start, target) pairs, or every existing
    pair when fewer exist.  Returns (all pairs agreed, pairs checked).
    """
    n, m = params.urns, params.balls
    expected = {
        L: exact.general_hitting_time(exact.HittingQuery(params, L))
        for L in range(1, m + 1)
    }
    quota = {
        L: min(PAIRS_PER_CLASS, params.state_count * math.comb(m, L) * (n - 1) ** L)
        for L in expected
    }
    counts = dict.fromkeys(expected, 0)
    configs = [config_at(g, params) for g in range(params.state_count)]
    agreed = True
    for target in configs:
        if counts == quota:
            break
        times = oracle.hitting_times_to_target(params, target, budget=budget)
        for start, value in zip(configs, times):
            L = hamming_distance(start, target)
            if L and counts[L] < quota[L]:
                counts[L] += 1
                agreed &= value == expected[L]
    return agreed and counts == quota, sum(counts.values())


def oracle_distance_agreement(cells: list[ModelParams], budget: int) -> CheckResult:
    pairs = 0

    def holds(params: ModelParams) -> bool:
        nonlocal pairs
        agreed, checked = distance_agreement(params, budget=budget)
        pairs += checked
        return agreed

    row = _sweep("oracle-distance", cells, holds)
    return replace(row, detail=f"{row.detail}, {pairs} pairs")


def first_visit_triple_agreement(cells: list[ModelParams], budget: int) -> CheckResult:
    """Closed form, lumped solve, and full-graph harmonic solve coincide,
    and the lumped probabilities obey their two structural identities: the
    first and last classes agree, and ``(n-1) * p[2i-2] + p[2i-1] == 1``
    for every off-fiber pair i in 1..k-1."""

    def holds(params: ModelParams) -> bool:
        n, k = params.urns, params.balls
        formula = exact.first_visit_probability(params)
        lumped = oracle.lumped_first_visit_probs(params)
        harmonic = oracle.target_fiber(params, budget=budget).first_visit_probability
        return formula == lumped[0] == lumped[-1] == harmonic and all(
            (n - 1) * lumped[2 * i - 2] + lumped[2 * i - 1] == 1 for i in range(1, k)
        )

    used = [params for params in cells if params.balls >= 2]
    return _sweep("first-visit-triple", used, holds)


def fiber_checks(cells: list[ModelParams], budget: int) -> CheckResult:
    """Fiber segment time, stationary return gap, and escape ratio.

    The escape ratio ``first_miss / (1 - repeat_miss)`` equals ``n - 1``,
    checked without a division: the closed-form miss probability
    ``1 - first_visit_probability`` equals ``n - 1`` times the lumped
    success probability from the fiber's off-target class 2k-1.
    """

    def holds(params: ModelParams) -> bool:
        n, k = params.urns, params.balls
        shrunk = ModelParams(urns=n, balls=k - 1)
        fiber = oracle.target_fiber(params, budget=budget)
        want_segment = Fraction(k, k - 1) * exact.full_transfer_time(shrunk)
        first_miss = 1 - exact.first_visit_probability(params)
        repeat_hit = oracle.lumped_first_visit_probs(params)[2 * k - 2]
        return (
            fiber.time_to_fiber == want_segment
            and fiber.mean_return_gap == n ** (k - 1)
            and first_miss == (n - 1) * repeat_hit
        )

    used = [params for params in cells if params.balls >= 2]
    return _sweep("fiber-checks", used, holds)


def lumping_exactness(cells: list[ModelParams]) -> CheckResult:
    """The 2k classes lump the full walk exactly onto :func:`lumped_kernel`."""

    def holds(params: ModelParams) -> bool:
        kernel = lumped_kernel(params)
        return is_exactly_lumpable(
            params,
            lambda config: lump_class_of(config, params),
            lambda label: kernel[label - 1],
        )

    return _sweep("lump-aggregation", cells, holds)


def occupancy_aggregation(cells: list[ModelParams]) -> CheckResult:
    return _sweep("occupancy-aggregation", cells, occupancy.aggregation_matches_full_walk)


def occupancy_route_agreement(cells: list[ModelParams]) -> CheckResult:
    """Occupancy-chain solve equals the formulas; detailed balance holds."""

    def holds(params: ModelParams) -> bool:
        chain = occupancy.build_occupancy_chain(params)
        if occupancy.passage_increments_by_solve(chain) != exact.passage_increments(params):
            return False
        pi = occupancy.stationary_distribution(chain)
        return all(
            pi[k] * chain.up[k] == pi[k + 1] * chain.down[k + 1]
            for k in range(params.balls)
        )

    return _sweep("occupancy-routes", cells, holds)


def run_verification(
    max_urns: int = DEFAULT_MAX_URNS,
    max_balls: int = DEFAULT_MAX_BALLS,
    oracle_budget: int = DEFAULT_ORACLE_BUDGET,
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
    occupancy_cells = grid_cells(max_urns, max_balls, state_limit=OCCUPANCY_STATE_LIMIT)
    lumping_cells = grid_cells(max_urns, max_balls, state_limit=LUMPING_STATE_LIMIT)

    witness = ModelParams(urns=5, balls=3)
    results = [
        formula_route_agreement(cells),
        increment_recursion_agreement(cells),
        distance_formula_collapse(cells),
        sum_identity(cells),
        termwise_difference_witness(witness),
        occupancy_route_agreement(cells),
        occupancy_aggregation(occupancy_cells),
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
