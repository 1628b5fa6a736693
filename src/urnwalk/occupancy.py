"""The urn-2 occupancy count as a birth-death chain.

Watching only how many balls sit in urn 2 turns the full walk into a chain
on {0, ..., M} that moves by at most one ball per step:

* down: k/M (one of the k urn-2 balls is picked, it must leave),
* stay: (n-2)(M-k) / ((n-1)M) (another ball is picked, lands elsewhere),
* up:   (M-k) / ((n-1)M) (another ball is picked, lands in urn 2).

:func:`aggregation_matches_full_walk` certifies that the full walk really
does aggregate to these rates, through the certifier
:func:`urnwalk.model.is_exactly_lumpable` with this module's own
classification (the urn-2 count of every placement, in one array
expression) and kernel (the three bands).

The chain is stored as its three bands, each a tuple of M+1 exact rates
indexed by the current occupancy, so building, validating and solving it
all take O(M) rational operations.  Nothing here reads the closed forms of
:mod:`urnwalk.exact`; the two routes are compared by the checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .model import TARGET_URN, ModelParams, is_exactly_lumpable


@dataclass(frozen=True)
class OccupancyChain:
    """The occupancy kernel by bands: from occupancy k the chain moves to
    k-1, k and k+1 with probabilities ``down[k]``, ``stay[k]`` and ``up[k]``.

    Validated on construction: every rate lies in [0, 1], every row sums
    to exactly 1, and no rate leaves {0, ..., M}.
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


def aggregation_matches_full_walk(params: ModelParams) -> bool:
    """Certify that the urn-2 count lumps the full walk exactly onto the
    three bands.

    Raises BudgetExceededError past the certifier's state budget
    (:data:`~urnwalk.model.LUMPABILITY_BUDGET`).
    """
    chain = build_occupancy_chain(params)
    return is_exactly_lumpable(
        params,
        lambda placements: (placements == TARGET_URN).sum(axis=1),
        lambda k: {k - 1: chain.down[k], k: chain.stay[k], k + 1: chain.up[k]},
    )
