"""The urn-2 occupancy count as a birth-death chain.

Watching only how many balls sit in urn 2 turns the full walk into a chain
on {0, ..., M} that moves by at most one ball per step.  Of the
``degree = (n-1)M`` equally likely moves from occupancy k,

* down: k(n-1) take one of the k urn-2 balls elsewhere,
* stay: (n-2)(M-k) take another ball to a third urn,
* up:   M-k take another ball to urn 2

(Keilson, *Markov Chain Models -- Rarity and Exponentiality*, 1979, scales
the chain the same way).  :func:`aggregation_matches_full_walk` certifies
that the full walk really does aggregate to these rates, through the
certifier :func:`urnwalk.model.is_exactly_lumpable` with this module's own
classification (the urn-2 count of every placement, in one array
expression) and kernel (the three bands, as they are).

The chain is stored as its three bands, each a tuple of M+1 integer move
counts indexed by the current occupancy, so building and validating it
take O(M) integer operations and solving it O(M) rational ones.  Nothing
here reads the closed forms of :mod:`urnwalk.exact`; the two routes are
compared by the checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .model import TARGET_URN, ModelParams, is_exactly_lumpable


@dataclass(frozen=True)
class OccupancyChain:
    """The occupancy kernel by bands: of the ``params.degree`` equally
    likely moves from occupancy k, ``down[k]``, ``stay[k]`` and ``up[k]``
    lead to k-1, k and k+1.

    Validated on construction: every count is a non-negative integer (bools
    and numpy ints are stored as the ints they equal), every row sums to
    exactly ``degree``, and no move leaves {0, ..., M}.
    """

    params: ModelParams
    down: tuple[int, ...]
    stay: tuple[int, ...]
    up: tuple[int, ...]

    def __post_init__(self) -> None:
        size = self.params.balls + 1
        if not len(self.down) == len(self.stay) == len(self.up) == size:
            raise ValidationError(f"each band must hold {size} counts")
        try:
            bands = [tuple(map(operator.index, band)) for band in (self.down, self.stay, self.up)]
        except TypeError:
            raise ValidationError("every move count must be an integer") from None
        for field, band in zip(("down", "stay", "up"), bands):
            object.__setattr__(self, field, band)
            if min(band) < 0:
                raise ValidationError(f"negative move count {min(band)}")
        if self.down[0] or self.up[-1]:
            raise ValidationError("a move leaves the occupancy range")
        degree = self.params.degree
        for row in zip(*bands):
            if sum(row) != degree:
                raise ValidationError(f"row counts {sum(row)} moves, expected {degree}")


def build_occupancy_chain(params: ModelParams) -> OccupancyChain:
    """Tridiagonal kernel of the occupancy count, as integer move counts."""
    n, m = params.urns, params.balls
    occupancies = range(m + 1)
    return OccupancyChain(
        params=params,
        down=tuple(k * (n - 1) for k in occupancies),
        stay=tuple((n - 2) * (m - k) for k in occupancies),
        up=tuple(m - k for k in occupancies),
    )


def passage_increments_by_solve(chain: OccupancyChain) -> list[Fraction]:
    """Passage increments from the kernel by one-step conditioning.

    Starting from occupancy k, the time to first reach k+1 satisfies
    D e[k] = D + down * (e[k-1] + e[k]) + stay * e[k] in moves out of
    ``D = degree``, which solves forward as e[k] = (D + down * e[k-1]) / up.
    Independent of the closed forms in :mod:`urnwalk.exact`, which it must
    reproduce exactly.
    """
    degree = chain.params.degree
    out: list[Fraction] = []
    previous = Fraction(0)
    for down, up in zip(chain.down, chain.up[:-1]):
        previous = (degree + down * previous) / up
        out.append(previous)
    return out


def stationary_distribution(chain: OccupancyChain) -> list[int]:
    """The reversing measure in units of ``n**-M``: the integer weights
    C(M,k) * (n-1)**(M-k), which sum to ``n**M``.

    Detailed balance w[k] * up[k] == w[k+1] * down[k+1] holds exactly in
    integers; the checks assert it.  This is a structural property of the
    rates, used as a sanity check rather than quoted from anywhere.
    """
    n, m = chain.params.urns, chain.params.balls
    return [math.comb(m, k) * (n - 1) ** (m - k) for k in range(m + 1)]


def aggregation_matches_full_walk(params: ModelParams) -> bool:
    """Certify that the urn-2 count lumps the full walk exactly onto the
    three bands, whose integer move counts out of ``degree`` are the
    certifier's kernel rows as they are.

    Raises BudgetExceededError past the certifier's state budget
    (:data:`~urnwalk.model.LUMPABILITY_BUDGET`).
    """
    chain = build_occupancy_chain(params)
    return is_exactly_lumpable(
        params,
        lambda placements: (placements == TARGET_URN).sum(axis=1),
        lambda k: {k - 1: chain.down[k], k: chain.stay[k], k + 1: chain.up[k]},
    )
