"""Ground-truth quantities computed by exact linear solves on the full walk.

Nothing here evaluates a closed form.  Expected hitting times and the
three target-fiber quantities of :func:`target_fiber` (first-visit
probability, time to the fiber, mean return gap) are obtained by building
the absorbing system over the actual state space and solving it exactly;
the first-visit probabilities of :func:`lumped_first_visit_probs` condition
the walk on its 2k lump classes pair by pair, with no linear solver.
Agreement with :mod:`urnwalk.exact` is therefore
verification rather than circularity.  Right-hand sides count moves into
a set by :func:`urnwalk.model.neighbour_counts` on its boolean mask.
:func:`target_system` builds the walk absorbed at one target for the
distance sweep of :mod:`urnwalk.checks`, which reads its solved vector in
place; the pair queries build it after their own budget check.

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
    WalkOperator,
    all_in_urn,
    as_integer,
    index_of,
    lumped_kernel,
    neighbour_counts,
)

DEFAULT_EXACT_BUDGET = 4096
FLOAT_FALLBACK_LIMIT = 20_000


def _check_budget(params: ModelParams, budget: int, what: str) -> None:
    if params.state_count > budget:
        raise BudgetExceededError(params.state_count, budget, what=what)


@dataclass(frozen=True)
class AbsorbingSystem:
    """The integer linear system whose solution is a hitting quantity.

    ``rows`` is the :class:`urnwalk.model.WalkOperator` of the absorbing
    set: ``degree * I - A`` over the transient states in ascending index
    order, ``A`` their 0/1 adjacency.  It stores no entry: the integer
    solvers read it through its products, and ``rows[i]`` reads row ``i``
    as a ``{column: value}`` mapping.  The matrix is ``degree`` times
    ``I - Q`` (``Q`` the substochastic transient kernel), so right-hand
    sides count moves, such as :func:`urnwalk.model.neighbour_counts`.
    The walk's graph is connected, so with a nonempty absorbing set the
    system is symmetric positive definite and uniquely solvable; the
    operator's ``certificate`` says so, in closed form from its size, to
    the gate of :func:`urnwalk.linsolve.solve_exact`.
    """

    params: ModelParams
    rows: WalkOperator

    @property
    def transient_states(self) -> tuple[int, ...]:
        """The transient state indices, ascending, as ints."""
        return tuple(self.rows.states.tolist())

    def position(self, state: int) -> int:
        states = self.rows.states
        i = int(np.searchsorted(states, state))
        if i == len(states) or states[i] != state:
            raise ValueError(f"state {state} is not transient")
        return i

    def hitting_time_vector(self) -> linsolve.RationalVector:
        """Expected steps to absorption from each transient state."""
        return linsolve.solve_exact(self.rows, _degrees(self))

    def absorption_probability_vector(self, goal: frozenset[int]) -> linsolve.RationalVector:
        """Probability of being absorbed inside ``goal`` from each transient
        state.  ValidationError names a goal index that is no integer, out
        of range or transient; bools and numpy ints are the ints they equal."""
        inside = _state_mask(self.params, goal, "goal state index")
        transient = self.rows.states[inside[self.rows.states]]
        if len(transient):
            raise ValidationError(f"goal state index {transient[0]} is transient")
        rhs = neighbour_counts(self.params, inside)[self.rows.states]
        return linsolve.solve_exact(self.rows, rhs)


def _degrees(system: AbsorbingSystem) -> np.ndarray:
    """The hitting-time right-hand side: ``degree`` moves per transient state, int64."""
    return np.full(len(system.rows), system.params.degree, dtype=np.int64)


def _state_mask(params: ModelParams, indices, what: str) -> np.ndarray:
    """The boolean mask of ``indices``; ValidationError names one that is no
    integer or lies outside the state space."""
    total = params.state_count
    indices = [as_integer(s, what) for s in indices]
    outside = sorted(s for s in indices if not 0 <= s < total)
    if outside:
        raise ValidationError(f"{what} {outside[0]} outside 0..{total - 1}")
    mask = np.zeros(total, dtype=bool)
    mask[indices] = True
    return mask


def build_absorbing_system(
    params: ModelParams, absorbing: frozenset[int]
) -> AbsorbingSystem:
    """The system of the walk absorbed at the given state indices.

    Raises SingularSystemError for an empty set and ValidationError for an
    index that is no integer or lies outside the state space, before
    anything is built.  Bools and numpy ints are the indices they equal.
    """
    if not absorbing:
        raise SingularSystemError("absorbing set is empty")
    mask = _state_mask(params, absorbing, "absorbing state index")
    return AbsorbingSystem(params, WalkOperator(params, mask))


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
    start_index, target_index = index_of(start, params), index_of(target, params)
    if start_index == target_index:
        return None
    _check_budget(params, budget, what)
    system = build_absorbing_system(params, frozenset({target_index}))
    return system, system.position(start_index)


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
    values, residual = linsolve.solve_float(system.rows, _degrees(system))
    return float(values[row]), residual


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
    front = (TARGET_URN,) * (balls - 1)
    fiber = frozenset(index_of(front + (last,), params) for last in range(1, urns + 1))
    system = build_absorbing_system(params, fiber)
    times = system.hitting_time_vector()
    target = index_of(all_in_urn(params, TARGET_URN), params)
    probabilities = system.absorption_probability_vector(frozenset({target}))
    start = system.position(index_of(all_in_urn(params, SOURCE_URN), params))
    # each move out of the fiber is a transient state's move into it
    # reversed, so every row's time counts once per fiber neighbour
    moves_in = neighbour_counts(params, _state_mask(params, fiber, "fiber state index"))
    weights = moves_in[system.rows.states].tolist()
    out = Fraction(sum(t * w for t, w in zip(times.numerators, weights)), times.denominator)
    return TargetFiber(
        first_visit_probability=probabilities[start],
        time_to_fiber=times[start],
        mean_return_gap=1 + out / (len(fiber) * params.degree),
    )


def lumped_first_visit_probs(params: ModelParams) -> list[Fraction]:
    """First-visit success probabilities for each of the 2k lump classes.

    Entry m-1 is the probability that a walk whose state lies in class m
    makes its next visit to the target fiber at the all-in-urn-2 point.
    The classes come in pairs (2i-1, 2i), and the lumped kernel moves only
    within a pair or to a neighbouring one, so the walk is conditioned
    pair by pair, by the first-passage recursion of quasi-birth-death
    chains (Latouche & Ramaswami, *Introduction to Matrix Analytic Methods
    in Stochastic Modeling*, SIAM 1999).  With ``L_i``, ``D_i`` and
    ``U_i`` the kernel's 2x2 blocks of integer move counts within pair i,
    down one pair and up one, ``G_i = (D I - L_i - D_i G_{i-1})^-1 U_i``
    for ``D = degree`` gives the class in which the walk from pair i first
    enters pair i+1.  Multiplied back from the fiber, pair k, where class
    2k scores 1 and class 2k-1 scores 0, they give the off-fiber classes;
    the two fiber classes follow by one-step conditioning, over ``D``.  An
    entry more than one pair away raises DomainError, and a pair the walk
    never leaves SingularSystemError.  The identities these values obey are
    asserted by :func:`urnwalk.checks.first_visit_triple_agreement`, not
    here.
    """
    k = params.balls
    if k < 2:
        raise DomainError("lumped first-visit analysis needs at least 2 balls")
    zero, degree = Fraction(0), params.degree
    # blocks[i][d][a][b]: moves from class 2i+1+a to 2(i+d)+1+b, pairs from 0
    blocks = [{d: [[0, 0], [0, 0]] for d in (-1, 0, 1)} for _ in range(k)]
    for m, kernel_row in enumerate(lumped_kernel(params)):
        i, a = divmod(m, 2)
        for label, count in kernel_row.items():
            j, b = divmod(label - 1, 2)
            if not (0 <= j < k and abs(j - i) <= 1):
                raise DomainError(
                    f"lumped class {m + 1} moves to class {label}, "
                    "outside its pair and the pairs beside it"
                )
            blocks[i][j - i][a][b] = count
    passages = []
    passage = [[zero, zero], [zero, zero]]  # no pair lies below pair 1
    for i, block in enumerate(blocks[:-1], start=1):
        below = _times(block[-1], passage)
        (s00, s01), (s10, s11) = (
            [degree * (a == b) - block[0][a][b] - below[a][b] for b in (0, 1)] for a in (0, 1)
        )
        det = s00 * s11 - s01 * s10
        if not det:
            raise SingularSystemError(f"the lumped walk never leaves pair {i}")
        passage = _times([[s11 / det, -s01 / det], [-s10 / det, s00 / det]], block[1])
        passages.append(passage)
    # pair k, the fiber: class 2k-1 scores 0 and class 2k scores 1
    scores = [[zero], [Fraction(1)]]
    column, probs = scores, []
    for passage in reversed(passages):
        column = _times(passage, column)
        probs[:0] = column
    # the fiber's rows, [D_k L_k], on pair k-1's values and the scores
    down, within = blocks[-1][-1], blocks[-1][0]
    fiber = _times([d + w for d, w in zip(down, within)], probs[-2:] + scores)
    return [value for value, in probs] + [value / degree for value, in fiber]


def _times(left: list[list[Fraction]], right: list[list[Fraction]]) -> list[list[Fraction]]:
    """The product of two matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
