"""Core model of the n-urn ball-transfer walk.

The state space is every placement of ``balls`` labelled balls into
``urns`` labelled urns, written as a tuple of 1-based urn indices, one per
ball.  A move picks a ball uniformly at random and re-places it in one of
the other ``urns - 1`` urns uniformly at random, so every state has exactly
``(urns - 1) * balls`` neighbors, each reached with the same probability.

By convention urn 1 is the "source" urn and urn 2 the "target" urn: the
quantities computed elsewhere in the package concern the walk travelling
from all-balls-in-urn-1 to all-balls-in-urn-2.

This module owns the state-index encoding (:func:`index_of`,
:func:`config_at` and the index adjacency :func:`neighbor_indices`, the
package's only adjacency: one int64 array computed from the digits of every
index at once) and the one certifier of exact aggregation,
:func:`is_exactly_lumpable`, which the occupancy chain and the 2k-class
lumped chain are both checked by.  Each of those two keeps its own
classification and its own kernel.

Everything in this module is a pure function of immutable values and is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Hashable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigurationError,
    DomainError,
    ValidationError,
)

SOURCE_URN = 1
TARGET_URN = 2
LUMPABILITY_BUDGET = 100_000

Configuration = tuple[int, ...]


@dataclass(frozen=True)
class ModelParams:
    """Number of urns and balls, validated on construction.

    At least two urns are required (a ball must have somewhere else to
    go), and at least one ball (an empty walk has no hitting times).  Bools
    and numpy ints are stored as the ints they equal.
    """

    urns: int
    balls: int

    def __post_init__(self) -> None:
        for field in ("urns", "balls"):
            object.__setattr__(self, field, as_integer(getattr(self, field), field))
        if self.urns < 2:
            raise ValidationError(f"need at least 2 urns, got {self.urns}")
        if self.balls < 1:
            raise ValidationError(f"need at least 1 ball, got {self.balls}")

    @property
    def state_count(self) -> int:
        return self.urns**self.balls

    @property
    def degree(self) -> int:
        """Number of neighbors of every state: (urns - 1) * balls."""
        return (self.urns - 1) * self.balls


def as_integer(value, what: str) -> int:
    """``value`` as the int it equals, bools and numpy ints included;
    ValidationError for anything ``operator.index`` refuses, such as 1.5."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def check_configuration(config: Configuration, params: ModelParams) -> Configuration:
    """``config``, a sequence or a 1-D numpy array, as a tuple of ints;
    ConfigurationError unless it is a valid placement.  Bools and numpy ints
    are the urn indices they equal."""
    vector = isinstance(config, np.ndarray) and config.ndim == 1
    if not (vector or isinstance(config, Sequence)):
        raise ConfigurationError(f"placement must be a sequence, got {config!r}")
    if len(config) != params.balls:
        raise ConfigurationError(
            f"placement has {len(config)} entries, expected {params.balls}"
        )
    try:
        placement = tuple(as_integer(entry, "urn index") for entry in config)
    except ValidationError as error:
        raise ConfigurationError(str(error)) from None
    for entry in placement:
        if not 1 <= entry <= params.urns:
            raise ConfigurationError(f"urn index {entry} outside 1..{params.urns}")
    return placement


def all_in_urn(params: ModelParams, urn: int) -> Configuration:
    """The placement with every ball in the given urn."""
    if not 1 <= urn <= params.urns:
        raise ConfigurationError(f"urn index {urn} outside 1..{params.urns}")
    return (urn,) * params.balls


def distance_pair(
    params: ModelParams, distance: int
) -> tuple[Configuration, Configuration]:
    """Canonical placement pair differing in exactly ``distance`` balls.

    Start is all-in-urn-1; the target moves the last ``distance`` balls to
    urn 2.  By the walk's relabelling symmetry every pair at the same
    distance has the same expected hitting time, so this choice is
    representative.
    """
    if not 1 <= distance <= params.balls:
        raise DomainError(f"distance {distance} outside 1..{params.balls}")
    start = all_in_urn(params, SOURCE_URN)
    target = start[: params.balls - distance] + (TARGET_URN,) * distance
    return start, target


def parse_configuration(text: str, params: ModelParams) -> Configuration:
    """Parse a comma-separated list of 1-based urn indices, e.g. "1,1,2"."""
    parts = [piece.strip() for piece in text.split(",")]
    try:
        config = tuple(int(piece) for piece in parts)
    except ValueError:
        raise ConfigurationError(f"cannot parse placement {text!r}") from None
    return check_configuration(config, params)


def format_configuration(config: Configuration) -> str:
    return ",".join(str(entry) for entry in config)


def index_of(config: Configuration, params: ModelParams) -> int:
    """Base-``urns`` encoding of a placement; ball 1 is the least significant digit."""
    config = check_configuration(config, params)
    index = 0
    for entry in reversed(config):
        index = index * params.urns + (entry - 1)
    return index


def config_at(index: int, params: ModelParams) -> Configuration:
    """Inverse of :func:`index_of`: the placement as a tuple of ints."""
    index = as_integer(index, "state index")
    if not 0 <= index < params.state_count:
        raise ValidationError(f"state index {index} outside 0..{params.state_count - 1}")
    digits = []
    for _ in range(params.balls):
        index, digit = divmod(index, params.urns)
        digits.append(digit + 1)
    return tuple(digits)


def hamming_distance(a: Configuration, b: Configuration) -> int:
    """Number of balls placed differently by the two placements."""
    if len(a) != len(b):
        raise ConfigurationError(
            f"placements have different lengths ({len(a)} vs {len(b)})"
        )
    return sum(1 for x, y in zip(a, b) if x != y)


def _digits(params: ModelParams) -> np.ndarray:
    """The ``(states, balls)`` array of urn digits: entry ``[g, i]`` is
    ``config_at(g, params)[i] - 1``."""
    powers = params.urns ** np.arange(params.balls, dtype=np.int64)
    return np.arange(params.state_count, dtype=np.int64)[:, None] // powers % params.urns


def neighbor_indices(params: ModelParams) -> np.ndarray:
    """The ``(states, degree)`` int64 adjacency over state indices.

    Row ``g`` holds, in ascending order, the indices of the placements one
    move away from ``config_at(g, params)``, built by index arithmetic:
    moving ball ``i`` from urn digit ``d`` to ``u`` shifts the index by
    ``(u - d) * urns**i``.
    """
    n, states = params.urns, params.state_count
    digits = _digits(params)[:, :, None]
    # each ball's n - 1 other digits, reached by adding 1..n-1 modulo n;
    # updated in place, so that one (states, degree) array is ever held
    adjacency = digits + np.arange(1, n)
    adjacency %= n
    adjacency -= digits
    adjacency *= n ** np.arange(params.balls, dtype=np.int64)[:, None]
    adjacency += np.arange(states, dtype=np.int64)[:, None, None]
    adjacency = adjacency.reshape(states, -1)
    adjacency.sort(axis=1)
    return adjacency


def lump_class_of(config: Configuration, params: ModelParams) -> int:
    """Label of the one block of the 2k-class partition that holds the placement.

    A placement with ``p`` of its first ``balls - 1`` balls in urn 2 belongs
    to class ``2p + 1`` when its last ball is elsewhere and to class
    ``2p + 2`` when its last ball is also in urn 2.  Labels run 1..2k and
    the blocks partition the whole state space.
    """
    config = check_configuration(config, params)
    prefix_twos = config[:-1].count(TARGET_URN)
    return 2 * prefix_twos + (2 if config[-1] == TARGET_URN else 1)


def lumped_kernel(params: ModelParams) -> tuple[dict[int, Fraction], ...]:
    """Kernel of the walk observed through the 2k classes, as sparse rows.

    Row m-1 maps each class label reachable from class m to its
    probability; zero entries are left out.  That is the ``row_of``
    mapping of :func:`is_exactly_lumpable`, which certifies the
    aggregation (and so that every row is stochastic) in the checks.
    """
    k, n = params.balls, params.urns
    rows: tuple[dict[int, Fraction], ...] = tuple({} for _ in range(2 * k))

    def at(row_class: int, col_class: int, value: Fraction) -> None:
        if value:  # each (row, column) pair is set at most once
            rows[row_class - 1][col_class] = value

    for i in range(1, k + 1):
        odd, even = 2 * i - 1, 2 * i
        # last ball leaves / enters urn 2
        at(even, even - 1, Fraction(1, k))
        at(odd, odd + 1, Fraction(1, k * (n - 1)))
        # one of the i-1 front balls leaves urn 2
        at(even, even - 2, Fraction(i - 1, k))
        at(odd, odd - 2, Fraction(i - 1, k))
        # one of the k-i non-target front balls enters urn 2
        at(even, even + 2, Fraction(k - i, k * (n - 1)))
        at(odd, odd + 2, Fraction(k - i, k * (n - 1)))
        # moves that stay outside urn 2 keep the class
        at(even, even, Fraction((k - i) * (n - 2), k * (n - 1)))
        at(odd, odd, Fraction((k - i + 1) * (n - 2), k * (n - 1)))
    return rows


def is_exactly_lumpable(
    params: ModelParams,
    classify: Callable[[Configuration], Hashable],
    row_of: Callable[[Hashable], Mapping[Hashable, Fraction]],
) -> bool:
    """Whether the walk aggregates exactly onto a smaller chain.

    ``classify`` maps each placement to its class label and ``row_of``
    gives a class's kernel row as ``{label: probability}`` (zero entries
    may be left out).  By the Kemeny-Snell criterion (*Finite Markov
    Chains*, 1960, section 6.3) the classes lump the walk onto that kernel
    exactly when every state's one-step mass into each class equals its own
    class's row.  Every move has probability ``1 / degree``, so each row is
    written out as ``degree`` class ids, ``probability * degree`` of each,
    and compared with the sorted classes of every state's row of
    :func:`neighbor_indices`, all states at once.  The placements passed to
    ``classify`` come from the digit array, not from decoding each index.
    Raises BudgetExceededError past ``LUMPABILITY_BUDGET`` states, before
    anything is built.
    """
    if params.state_count > LUMPABILITY_BUDGET:
        raise BudgetExceededError(
            params.state_count, LUMPABILITY_BUDGET, what="exhaustive lumpability check"
        )
    degree = params.degree
    ids: dict[Hashable, int] = {}
    placements = zip(*(_digits(params) + 1).T.tolist())  # one tuple per state, in index order
    classes = np.array(
        [ids.setdefault(classify(config), len(ids)) for config in placements],
        dtype=np.int32,
    )
    written_out = []
    for label in ids:  # in id order
        row: list[int] = []
        for other, p in row_of(label).items():
            if not p:
                continue
            count = p * degree
            if other not in ids or count < 0 or count.denominator != 1:
                return False  # no state's neighbour counts can match
            row += [ids[other]] * int(count)
        if len(row) != degree:
            return False
        written_out.append(sorted(row))
    observed = classes[neighbor_indices(params)]
    observed.sort(axis=1)
    return np.array_equal(observed, np.array(written_out, dtype=np.int32)[classes])
