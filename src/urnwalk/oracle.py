"""Ground-truth quantities computed by exact linear solves on the full walk.

Nothing here evaluates a closed form.  Expected hitting times and the
three target-fiber quantities of :func:`target_fiber` (first-visit
probability, time to the fiber, mean return gap) are obtained by building
the absorbing system over the actual state space and solving it exactly;
the first-visit probabilities of :func:`lumped_first_visit_probs` solve the
2k lump classes.  Agreement with :mod:`urnwalk.exact` is therefore
verification rather than circularity.  :func:`target_system` is the one
builder of the walk absorbed at a single target, for the pair queries and
the distance sweep of :mod:`urnwalk.checks`, which reads its solved vector
in place.

Exact solves are gated by a state budget, passed per call (default 4096
states); every function here is a pure function of its arguments.  Beyond
the budget, :func:`expected_hitting_time_float` offers up to 20000 states
the exact solver's first certified conjugate-gradient round, which reports
its residual and refuses a system the certificate does not accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linsolve
from .errors import (
    BudgetExceededError,
    DomainError,
    SingularSystemError,
    ValidationError,
)
from .model import (
    SOURCE_URN,
    TARGET_URN,
    Configuration,
    ModelParams,
    all_in_urn,
    as_integer,
    check_configuration,
    index_of,
    lumped_kernel,
    neighbor_indices,
)

DEFAULT_EXACT_BUDGET = 4096
FLOAT_FALLBACK_LIMIT = 20_000


def _check_budget(params: ModelParams, budget: int, what: str) -> None:
    if params.state_count > budget:
        raise BudgetExceededError(params.state_count, budget, what=what)


@dataclass(frozen=True)
class AbsorbingSystem:
    """The integer linear system whose solution is a hitting quantity.

    ``rows`` hold ``degree * I - A`` over the transient states in ascending
    index order, ``A`` their 0/1 adjacency: ``degree`` on the diagonal and
    -1 at each transient neighbour.  They are int64 CSR arrays, which the
    integer solvers read as they are, at every size; ``rows[i]`` reads row
    ``i`` as a ``{column: value}`` mapping.  The matrix is ``degree`` times
    ``I - Q`` (``Q`` the substochastic transient kernel), so right-hand sides
    count moves rather than weigh them by ``1 / degree``.  ``absorbing_edges[i]``
    lists the absorbing state indices one move away from the i-th
    transient state.  The walk's graph is connected, so every transient
    state reaches a nonempty absorbing set and the system is uniquely
    solvable; the chained-dominance certificate of
    :func:`urnwalk.linsolve.solve_exact` starts its search from the rows
    with an absorbing edge, the only strict ones.
    """

    params: ModelParams
    transient_states: tuple[int, ...]
    rows: linsolve.IntegerRows
    absorbing_edges: tuple[tuple[int, ...], ...]

    def position(self, state: int) -> int:
        from bisect import bisect_left

        i = bisect_left(self.transient_states, state)
        if i == len(self.transient_states) or self.transient_states[i] != state:
            raise ValueError(f"state {state} is not transient")
        return i

    def hitting_time_vector(self) -> linsolve.RationalVector:
        """Expected steps to absorption from each transient state."""
        rhs = [self.params.degree] * len(self.transient_states)
        return linsolve.solve_exact(self.rows, rhs)

    def absorption_probability_vector(self, goal: frozenset[int]) -> linsolve.RationalVector:
        """Probability of being absorbed inside ``goal`` from each transient state."""
        rhs = [sum(1 for s in edges if s in goal) for edges in self.absorbing_edges]
        return linsolve.solve_exact(self.rows, rhs)


def build_absorbing_system(
    params: ModelParams, absorbing: frozenset[int]
) -> AbsorbingSystem:
    """The system of the walk absorbed at the given state indices.

    Raises SingularSystemError for an empty set and ValidationError for an
    index that is no integer or lies outside the state space, before
    anything is built.  Bools and numpy ints are the indices they equal.
    """
    total = params.state_count
    if not absorbing:
        raise SingularSystemError("absorbing set is empty")
    indices = [as_integer(s, "absorbing state index") for s in absorbing]
    outside = sorted(s for s in indices if not 0 <= s < total)
    if outside:
        raise ValidationError(
            f"absorbing state index {outside[0]} outside 0..{total - 1}"
        )
    is_absorbing = np.zeros(total, dtype=bool)
    is_absorbing[indices] = True
    transients = np.flatnonzero(~is_absorbing)
    # each state's position among the transient states, -1 when absorbing
    position = np.where(is_absorbing, -1, np.cumsum(~is_absorbing) - 1)
    moves = neighbor_indices(params)[transients]
    # each row's columns are its transient neighbours, which are distinct,
    # and its diagonal; sorted, the absorbing ones come first as -1 and go
    diagonal = np.arange(len(transients))[:, None]
    columns = np.concatenate((position[moves], diagonal), axis=1)
    columns.sort(axis=1)
    kept = columns >= 0
    indptr = np.zeros(len(transients) + 1, dtype=np.int64)
    np.cumsum(kept.sum(axis=1), out=indptr[1:])
    data = np.where(columns == diagonal, params.degree, -1)[kept]
    hits = is_absorbing[moves]
    edges = [()] * len(transients)
    for i in np.flatnonzero(hits.any(axis=1)).tolist():
        edges[i] = tuple(moves[i][hits[i]].tolist())
    return AbsorbingSystem(
        params=params,
        transient_states=tuple(transients.tolist()),
        rows=linsolve.IntegerRows(indptr, columns[kept], data),
        absorbing_edges=tuple(edges),
    )


def target_system(
    params: ModelParams, target: Configuration, budget: int = DEFAULT_EXACT_BUDGET
) -> AbsorbingSystem:
    """The walk absorbed at ``target``: its hitting times from every other
    state.  A malformed target or a state count past the budget raises
    before anything is built."""
    absorbing = frozenset({index_of(target, params)})
    _check_budget(params, budget, "exact solve")
    return build_absorbing_system(params, absorbing)


def _pair_system(
    params: ModelParams, start: Configuration, target: Configuration, budget: int, what: str
) -> tuple[AbsorbingSystem, int] | None:
    """The target's absorbing system and the start's row in it; None for an
    identical pair, which returns before the budget is checked."""
    start = check_configuration(start, params)
    target = check_configuration(target, params)
    if start == target:
        return None
    _check_budget(params, budget, what)
    system = target_system(params, target, budget)
    return system, system.position(index_of(start, params))


def expected_hitting_time(
    params: ModelParams,
    start: Configuration,
    target: Configuration,
    budget: int = DEFAULT_EXACT_BUDGET,
) -> Fraction:
    """Exact expected number of moves from ``start`` until first at ``target``.

    Zero when the placements coincide (the walk is already there).
    """
    pair = _pair_system(params, start, target, budget, "exact solve")
    if pair is None:
        return Fraction(0)
    system, row = pair
    return system.hitting_time_vector()[row]


def expected_hitting_time_float(
    params: ModelParams, start: Configuration, target: Configuration
) -> tuple[float, float]:
    """Floating-point hitting time up to ``FLOAT_FALLBACK_LIMIT`` states.

    Returns (value, relative residual) of :func:`urnwalk.linsolve.solve_float`.
    Compare with exact values to a relative tolerance around 1e-9.
    """
    pair = _pair_system(params, start, target, FLOAT_FALLBACK_LIMIT, "float solve")
    if pair is None:
        return 0.0, 0.0
    system, row = pair
    values, residual = linsolve.solve_float(system.rows, [params.degree] * len(system.rows))
    return float(values[row]), residual


def _fiber_indices(params: ModelParams) -> frozenset[int]:
    """States whose first balls - 1 coordinates are all urn 2."""
    front = (TARGET_URN,) * (params.balls - 1)
    return frozenset(
        index_of(front + (last,), params) for last in range(1, params.urns + 1)
    )


@dataclass(frozen=True)
class TargetFiber:
    """Three solved quantities of the target fiber, the states whose first
    ``balls - 1`` balls all sit in urn 2, from the walk absorbed on it.

    ``first_visit_probability`` is the chance that the walk from
    all-in-urn-1 first meets the fiber at the all-in-urn-2 point, by a
    harmonic solve; ``time_to_fiber`` the expected moves from all-in-urn-1
    to the fiber.  ``mean_return_gap`` is the expected return time to the
    fiber started uniformly on it: one step plus the mean hitting time over
    all moves out of it.  Stationarity of the uniform law makes it the
    reciprocal of the fiber's stationary mass, ``urns ** (balls - 1)``.
    With one ball the fiber is the whole space and the start sits on it
    away from the target: the three are 0, 0 and 1.
    """

    first_visit_probability: Fraction
    time_to_fiber: Fraction
    mean_return_gap: Fraction


def target_fiber(params: ModelParams, budget: int = DEFAULT_EXACT_BUDGET) -> TargetFiber:
    """The :class:`TargetFiber` of the walk, within the state budget."""
    _check_budget(params, budget, "exact solve")
    return _fiber_hitting_vector(params.urns, params.balls)


# Named and cleared as `_fiber_hitting_vector` by the benchmark, which
# empties it before every op.  It holds three rationals a cell, so it keeps
# every cell of a verify run.
@lru_cache(maxsize=None)
def _fiber_hitting_vector(urns: int, balls: int) -> TargetFiber:
    """The one build and solve of the fiber system, behind :func:`target_fiber`."""
    if balls == 1:
        return TargetFiber(Fraction(0), Fraction(0), Fraction(1))
    params = ModelParams(urns=urns, balls=balls)
    fiber = _fiber_indices(params)
    system = build_absorbing_system(params, fiber)
    times = system.hitting_time_vector()
    target = index_of(all_in_urn(params, TARGET_URN), params)
    probabilities = system.absorption_probability_vector(frozenset({target}))
    start = system.position(index_of(all_in_urn(params, SOURCE_URN), params))
    # each move out of the fiber is a transient state's absorbing edge
    # reversed, so every row's time counts once per absorbing edge; only
    # the rows with one are read
    edges = system.absorbing_edges
    out = sum((times[i] * len(e) for i, e in enumerate(edges) if e), Fraction(0))
    return TargetFiber(
        first_visit_probability=probabilities[start],
        time_to_fiber=times[start],
        mean_return_gap=1 + out / (len(fiber) * params.degree),
    )


def lumped_first_visit_probs(params: ModelParams) -> list[Fraction]:
    """First-visit success probabilities for each of the 2k lump classes.

    Entry m-1 is the probability that a walk whose state lies in class m
    makes its next visit to the target fiber at the all-in-urn-2 point.
    Solved by dense elimination, the solver of rational systems, over the
    non-symmetric rows of the lumped kernel: the 2k-2 off-fiber classes
    form the unknowns, and the two fiber classes follow by one-step
    conditioning.  The identities these values obey are asserted by
    :func:`urnwalk.checks.first_visit_triple_agreement`, not here.
    """
    if params.balls < 2:
        raise DomainError("lumped first-visit analysis needs at least 2 balls")
    kernel = lumped_kernel(params)
    # classes 1..2k-2 lie off the fiber; class 2k-1 holds the fiber states
    # that miss the target and class 2k is the all-in-urn-2 point
    off_fiber, target = 2 * params.balls - 2, 2 * params.balls
    rows = []
    for m, kernel_row in enumerate(kernel[:off_fiber]):
        row = {label - 1: -q for label, q in kernel_row.items() if label <= off_fiber}
        row[m] = 1 + row.get(m, Fraction(0))
        rows.append(row)
    rhs = [kernel_row.get(target, Fraction(0)) for kernel_row in kernel[:off_fiber]]
    probs = linsolve.solve_dense(rows, rhs)
    for kernel_row in kernel[off_fiber:]:
        value = kernel_row.get(target, Fraction(0))
        for label, q in kernel_row.items():
            if label <= off_fiber:
                value += q * probs[label - 1]
        probs.append(value)
    return probs
