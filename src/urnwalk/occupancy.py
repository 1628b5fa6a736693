"""The urn-2 occupancy count as a birth-death chain.

Watching only how many balls sit in urn 2 turns the full walk into a chain
on {0, ..., M} that moves by at most one ball per step:

* down: k/M (one of the k urn-2 balls is picked, it must leave),
* stay: (n-2)(M-k) / ((n-1)M) (another ball is picked, lands elsewhere),
* up:   (M-k) / ((n-1)M) (another ball is picked, lands in urn 2).

:func:`aggregation_matches_full_walk` certifies, state by state, that the
full walk really does aggregate to these rates.

The chain is stored as its three bands, each a tuple of M+1 exact rates
indexed by the current occupancy, so building, validating and solving it
all take O(M) rational operations.  Nothing here reads the closed forms of
:mod:`urnwalk.exact`; the two routes are compared by the checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, ValidationError
from .model import TARGET_URN, ModelParams, neighbors

DEFAULT_AGGREGATION_BUDGET = 100_000


@dataclass(frozen=True)
class OccupancyChain:
    """The occupancy kernel by bands: from occupancy k the chain moves to
    k-1, k and k+1 with probabilities ``down[k]``, ``stay[k]`` and ``up[k]``.

    Validated like a dense :class:`~urnwalk.model.TransitionMatrix`: every
    rate lies in [0, 1], every row sums to exactly 1, and no rate leaves
    {0, ..., M}.
    """

    params: ModelParams
    down: tuple[Fraction, ...]
    stay: tuple[Fraction, ...]
    up: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        size = self.params.balls + 1
        if not len(self.down) == len(self.stay) == len(self.up) == size:
            raise ValidationError(f"each band must hold {size} rates")
        if self.down[0] != 0 or self.up[-1] != 0:
            raise ValidationError("a rate leaves the occupancy range")
        for row in zip(self.down, self.stay, self.up):
            for entry in row:
                if entry < 0 or entry > 1:
                    raise ValidationError(f"probability {entry} outside [0, 1]")
            if sum(row) != 1:
                raise ValidationError(f"row sums to {sum(row)}, expected exactly 1")


def build_occupancy_chain(params: ModelParams) -> OccupancyChain:
    """Tridiagonal kernel of the occupancy count, exact rationals."""
    n, m = params.urns, params.balls
    degree = params.degree
    occupancies = range(m + 1)
    return OccupancyChain(
        params=params,
        down=tuple(Fraction(k, m) for k in occupancies),
        stay=tuple(Fraction((n - 2) * (m - k), degree) for k in occupancies),
        up=tuple(Fraction(m - k, degree) for k in occupancies),
    )


def passage_increments_by_solve(chain: OccupancyChain) -> list[Fraction]:
    """Passage increments from the kernel by one-step conditioning.

    Starting from occupancy k, the time to first reach k+1 satisfies
    e[k] = 1 + down * (e[k-1] + e[k]) + stay * e[k], which solves forward
    as e[k] = (1 + down * e[k-1]) / up.  Independent of the closed forms
    in :mod:`urnwalk.exact`, which it must reproduce exactly.
    """
    out: list[Fraction] = []
    previous = Fraction(0)
    for k in range(chain.params.balls):
        previous = (1 + chain.down[k] * previous) / chain.up[k]
        out.append(previous)
    return out


def stationary_distribution(chain: OccupancyChain) -> list[Fraction]:
    """The reversing measure: weight C(M,k) * (n-1)**(M-k), normalized.

    Detailed balance pi[k] * up[k] == pi[k+1] * down[k+1] holds exactly;
    the tests assert it.  This is a structural property of the rates, used
    as a sanity check rather than quoted from anywhere.
    """
    import math

    n, m = chain.params.urns, chain.params.balls
    weights = [math.comb(m, k) * (n - 1) ** (m - k) for k in range(m + 1)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def aggregation_matches_full_walk(
    params: ModelParams, max_states: int = DEFAULT_AGGREGATION_BUDGET
) -> bool:
    """Exhaustively certify the occupancy rates against the full walk.

    For every placement, group its one-move destinations by their urn-2
    occupancy and compare the summed transition probabilities with the
    kernel row of the placement's own occupancy.  True means every state
    matched.  Raises when the state space exceeds ``max_states``.
    """
    import itertools

    n, m = params.urns, params.balls
    if params.state_count > max_states:
        raise BudgetExceededError(
            params.state_count, max_states, what="exhaustive aggregation check"
        )
    chain = build_occupancy_chain(params)
    degree = params.degree
    for config in itertools.product(range(1, n + 1), repeat=m):
        k = config.count(TARGET_URN)
        moves_to: dict[int, int] = {}
        for destination in neighbors(config, params):
            j = destination.count(TARGET_URN)
            moves_to[j] = moves_to.get(j, 0) + 1
        bands = zip((k - 1, k, k + 1), (chain.down[k], chain.stay[k], chain.up[k]))
        row = {j: rate for j, rate in bands if rate}
        if {j: Fraction(c, degree) for j, c in moves_to.items()} != row:
            return False
    return True
