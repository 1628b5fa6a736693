"""Ground-truth quantities computed by exact linear solves on the full walk.

Nothing here evaluates a closed form.  Expected hitting times, first-visit
probabilities, and fiber return gaps are obtained by building the absorbing
system over the actual state space (or over the 2k lump classes) and
solving it exactly, so agreement with :mod:`urnwalk.exact` is meaningful
verification rather than circularity.

Exact solves are gated by a state budget (default 4096 states, overridable
per call or through the ``URNWALK_ORACLE_BUDGET`` environment variable).
Beyond the budget, :func:`expected_hitting_time_float` offers a
floating-point fallback by conjugate gradient up to ~20000 states that
reports its residual.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linsolve
from .errors import (
    BudgetExceededError,
    DomainError,
    InternalCheckError,
    SingularSystemError,
)
from .model import (
    SOURCE_URN,
    TARGET_URN,
    Configuration,
    ModelParams,
    all_in_urn,
    check_configuration,
    index_of,
    lumped_kernel,
)

ENV_BUDGET = "URNWALK_ORACLE_BUDGET"
DEFAULT_EXACT_BUDGET = 4096
FLOAT_FALLBACK_LIMIT = 20_000


def default_exact_budget(default: int = DEFAULT_EXACT_BUDGET) -> int:
    """The state budget set by ``URNWALK_ORACLE_BUDGET``, or ``default`` when unset.

    The one parser of the variable: a value that is not a positive integer
    raises ValueError.
    """
    raw = os.environ.get(ENV_BUDGET)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_BUDGET} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{ENV_BUDGET} must be positive, got {value}")
    return value


def _check_budget(params: ModelParams, budget: int | None, what: str) -> None:
    limit = default_exact_budget() if budget is None else budget
    if params.state_count > limit:
        raise BudgetExceededError(params.state_count, limit, what=what)


def _neighbor_indices(params: ModelParams) -> list[list[int]]:
    """Adjacency lists over state indices, built by digit arithmetic."""
    n, m = params.urns, params.balls
    powers = [n**i for i in range(m)]
    out: list[list[int]] = []
    for state in range(params.state_count):
        digits = []
        rest = state
        for _ in range(m):
            rest, digit = divmod(rest, n)
            digits.append(digit)
        adjacent = []
        for i in range(m):
            base = state - digits[i] * powers[i]
            for urn_digit in range(n):
                if urn_digit != digits[i]:
                    adjacent.append(base + urn_digit * powers[i])
        out.append(adjacent)
    return out


@dataclass(frozen=True)
class AbsorbingSystem:
    """The linear system whose solution is a hitting quantity.

    ``rows`` hold the matrix I - Q over the transient states in ascending
    index order (Q the substochastic transient-to-transient kernel), and
    ``absorbing_edges[i]`` lists the absorbing state indices one move away
    from the i-th transient state.  Construction certifies that the
    absorbing set is reachable from every transient state, which makes the
    system uniquely solvable.
    """

    params: ModelParams
    transient_states: tuple[int, ...]
    absorbing_states: frozenset[int]
    rows: tuple[dict[int, Fraction], ...]
    absorbing_edges: tuple[tuple[int, ...], ...]

    def position(self, state: int) -> int:
        from bisect import bisect_left

        i = bisect_left(self.transient_states, state)
        if i == len(self.transient_states) or self.transient_states[i] != state:
            raise ValueError(f"state {state} is not transient")
        return i

    def hitting_time_vector(self) -> list[Fraction]:
        """Expected steps to absorption from each transient state."""
        rhs = [Fraction(1)] * len(self.transient_states)
        return linsolve.solve_exact(self.rows, rhs)

    def absorption_probability_vector(self, goal: frozenset[int]) -> list[Fraction]:
        """Probability of being absorbed inside ``goal`` from each transient state."""
        step = Fraction(1, self.params.degree)
        rhs = [
            step * sum(1 for s in edges if s in goal)
            for edges in self.absorbing_edges
        ]
        return linsolve.solve_exact(self.rows, rhs)


def build_absorbing_system(
    params: ModelParams, absorbing: frozenset[int]
) -> AbsorbingSystem:
    total = params.state_count
    if not absorbing and total > 0:
        raise SingularSystemError("absorbing set is empty")
    adjacency = _neighbor_indices(params)

    # reachability certificate: the walk's graph is connected, so a breadth
    # first search from the absorbing set must cover every state
    seen = [False] * total
    queue = deque(absorbing)
    for s in absorbing:
        seen[s] = True
    while queue:
        g = queue.popleft()
        for nb in adjacency[g]:
            if not seen[nb]:
                seen[nb] = True
                queue.append(nb)
    if not all(seen):
        raise SingularSystemError(
            "absorbing set unreachable from some state; hitting system singular"
        )

    transients = tuple(g for g in range(total) if g not in absorbing)
    position = {g: i for i, g in enumerate(transients)}
    # a state's neighbours are distinct, so each off-diagonal entry is one -1/degree
    diagonal, off_diagonal = Fraction(1), Fraction(-1, params.degree)
    rows: list[dict[int, Fraction]] = []
    edges: list[tuple[int, ...]] = []
    for g in transients:
        row: dict[int, Fraction] = {position[g]: diagonal}
        hit: list[int] = []
        for nb in adjacency[g]:
            if nb in absorbing:
                hit.append(nb)
            else:
                row[position[nb]] = off_diagonal
        rows.append(row)
        edges.append(tuple(hit))
    return AbsorbingSystem(
        params=params,
        transient_states=transients,
        absorbing_states=absorbing,
        rows=tuple(rows),
        absorbing_edges=tuple(edges),
    )


def hitting_times_to_target(
    params: ModelParams, target: Configuration, budget: int | None = None
) -> list[Fraction]:
    """Exact expected hitting times to ``target`` from every state.

    Indexed by state index; the target entry is 0.
    """
    check_configuration(target, params)
    _check_budget(params, budget, "exact solve")
    system = build_absorbing_system(params, frozenset({index_of(target, params)}))
    solved = system.hitting_time_vector()
    out = [Fraction(0)] * params.state_count
    for position, state in enumerate(system.transient_states):
        out[state] = solved[position]
    return out


def expected_hitting_time(
    params: ModelParams,
    start: Configuration,
    target: Configuration,
    budget: int | None = None,
) -> Fraction:
    """Exact expected number of moves from ``start`` until first at ``target``.

    Zero when the placements coincide (the walk is already there).
    """
    check_configuration(start, params)
    check_configuration(target, params)
    if start == target:
        return Fraction(0)
    times = hitting_times_to_target(params, target, budget=budget)
    return times[index_of(start, params)]


def expected_hitting_time_float(
    params: ModelParams,
    start: Configuration,
    target: Configuration,
    budget: int = FLOAT_FALLBACK_LIMIT,
) -> tuple[float, float]:
    """Floating-point hitting time for sizes beyond the exact budget.

    Returns (value, relative residual of the solved system).  Callers
    comparing against exact values should use a relative tolerance around
    1e-9 and inspect the residual.
    """
    check_configuration(start, params)
    check_configuration(target, params)
    if start == target:
        return 0.0, 0.0
    if params.state_count > budget:
        raise BudgetExceededError(params.state_count, budget, what="float solve")
    system = build_absorbing_system(params, frozenset({index_of(target, params)}))
    rhs = [Fraction(1)] * len(system.transient_states)
    values, residual = linsolve.solve_float(system.rows, rhs)
    return float(values[system.position(index_of(start, params))]), residual


def _fiber_indices(params: ModelParams) -> frozenset[int]:
    """States whose first balls - 1 coordinates are all urn 2."""
    n, m = params.urns, params.balls
    target_digit = TARGET_URN - 1
    base = sum(target_digit * n**i for i in range(m - 1))
    return frozenset(base + last * n ** (m - 1) for last in range(n))


@lru_cache(maxsize=16)
def _fiber_hitting_vector(urns: int, balls: int) -> tuple[Fraction, ...]:
    """Expected time to reach the target fiber, from every state (0 on the fiber)."""
    params = ModelParams(urns=urns, balls=balls)
    system = build_absorbing_system(params, _fiber_indices(params))
    solved = system.hitting_time_vector()
    out = [Fraction(0)] * params.state_count
    for position, state in enumerate(system.transient_states):
        out[state] = solved[position]
    return tuple(out)


def first_visit_success_prob(
    params: ModelParams, budget: int | None = None
) -> Fraction:
    """Probability that the walk from all-in-urn-1 first meets the target
    fiber exactly at the all-in-urn-2 point, by a harmonic solve.

    With one ball the fiber is the whole space and the start already sits
    on it away from the target, so the probability is 0.
    """
    _check_budget(params, budget, "exact solve")
    fiber = _fiber_indices(params)
    start = index_of(all_in_urn(params, SOURCE_URN), params)
    target = index_of(all_in_urn(params, TARGET_URN), params)
    if start in fiber:
        return Fraction(1) if start == target else Fraction(0)
    system = build_absorbing_system(params, fiber)
    probabilities = system.absorption_probability_vector(frozenset({target}))
    return probabilities[system.position(start)]


def expected_time_to_target_fiber(
    params: ModelParams, budget: int | None = None
) -> Fraction:
    """Expected moves from all-in-urn-1 until the front balls all sit in urn 2."""
    if params.balls < 2:
        raise DomainError("fiber segment analysis needs at least 2 balls")
    _check_budget(params, budget, "exact solve")
    times = _fiber_hitting_vector(params.urns, params.balls)
    return times[index_of(all_in_urn(params, SOURCE_URN), params)]


def mean_return_gap_to_target_fiber(
    params: ModelParams, budget: int | None = None
) -> Fraction:
    """Expected return time to the target fiber, started uniformly on it.

    One step plus the average remaining hitting time over all moves out of
    the fiber.  Stationarity of the uniform law makes this the reciprocal
    of the fiber's stationary mass, i.e. urns ** (balls - 1).
    """
    _check_budget(params, budget, "exact solve")
    fiber = sorted(_fiber_indices(params))
    times = _fiber_hitting_vector(params.urns, params.balls)
    adjacency = _neighbor_indices(params)
    total = Fraction(0)
    for state in fiber:
        for nb in adjacency[state]:
            total += times[nb]
    return 1 + total / (len(fiber) * params.degree)


def lumped_first_visit_probs(params: ModelParams) -> list[Fraction]:
    """First-visit success probabilities for each of the 2k lump classes.

    Entry m-1 is the probability that a walk whose state lies in class m
    makes its next visit to the target fiber at the all-in-urn-2 point.
    Solved from the lumped kernel: the 2k-2 off-fiber classes form the
    unknowns, and the two fiber classes follow by one-step conditioning.
    Two structural identities are verified before returning: the first and
    last classes agree, and (urns-1) * p[2i-1] + p[2i] == 1 for every
    off-fiber pair.
    """
    n, k = params.urns, params.balls
    if k < 2:
        raise DomainError("lumped first-visit analysis needs at least 2 balls")
    kernel = lumped_kernel(params)
    size = 2 * k
    fiber_classes = (size - 1, size)  # class labels 2k-1 and 2k
    unknowns = size - 2

    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for m in range(1, unknowns + 1):
        row = {m - 1: Fraction(1)}
        b = Fraction(0)
        for m2 in range(1, size + 1):
            q = kernel[m - 1][m2 - 1]
            if not q:
                continue
            if m2 == size:
                b += q  # absorbed at the target point
            elif m2 == size - 1:
                pass  # fiber visit that misses the target
            else:
                row[m2 - 1] = row.get(m2 - 1, Fraction(0)) - q
        rows.append(row)
        rhs.append(b)
    solved = linsolve.solve_exact(rows, rhs)

    probs = list(solved)
    for m in fiber_classes:
        value = Fraction(0)
        for m2 in range(1, size + 1):
            q = kernel[m - 1][m2 - 1]
            if not q:
                continue
            if m2 == size:
                value += q
            elif m2 == size - 1:
                pass
            else:
                value += q * probs[m2 - 1]
        probs.append(value)

    if probs[0] != probs[size - 1]:
        raise InternalCheckError(
            f"first and last class probabilities differ for {params}: "
            f"{probs[0]} vs {probs[size - 1]}"
        )
    for i in range(1, k):
        if (n - 1) * probs[2 * i - 2] + probs[2 * i - 1] != 1:
            raise InternalCheckError(
                f"cross-class relation fails at pair {i} for {params}"
            )
    return probs
