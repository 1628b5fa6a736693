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
:func:`config_at`, the walk's generator :class:`WalkOperator` and
:func:`neighbour_counts` in a set, with no table of neighbours) and the
one certifier of exact aggregation, :func:`is_exactly_lumpable`, which
the occupancy chain and the 2k-class lumped chain are both checked by.
The certifier hands a classification the array of every placement in one
call and takes back one integer label per state.  Each of the two chains
keeps its own classification (:func:`lump_classes` is the 2k classes')
and its own kernel, in integer move counts out of ``degree``.

Everything in this module is a pure function of immutable values and is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

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
# Float products act on runs of balls of at most _RUN_STATES placements,
# one BLAS call per run where sums take two numpy calls per ball (2x9: 13
# against 68 us), in calls of at most _MATMUL_SIZE multiply-adds, under
# which OpenBLAS stays on one thread (threaded calls took up to 16 ms).
_RUN_STATES, _MATMUL_SIZE = 32, 2**18

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


def _placements(params: ModelParams) -> np.ndarray:
    """The int64 ``(states, balls)`` array of urn numbers in index order:
    row ``g`` is ``config_at(g, params)``."""
    powers = params.urns ** np.arange(params.balls, dtype=np.int64)
    return np.arange(params.state_count, dtype=np.int64)[:, None] // powers % params.urns + 1


def _moves(state: int, params: ModelParams) -> list[int]:
    """The indices one move from state ``state``: moving ball ``i`` from urn
    digit ``d`` to ``u`` shifts the index by ``(u - d) * urns**i``."""
    n, powers = params.urns, [params.urns**i for i in range(params.balls)]
    digits = [(state // p % n, p) for p in powers]
    return [state + (u - d) * p for d, p in digits for u in range(n) if u != d]


def _axis_sums(full: np.ndarray, urns: int, balls: int) -> np.ndarray:
    """``sum_b S_b full`` for an array whose first axis runs over all
    placements in index order (any further axes are carried along):
    ``S_b`` sums over ball b's axis, the ``urns`` placements that differ at
    most in ball b.  The sums are formed in ``full``'s dtype."""
    total = np.zeros_like(full)
    for ball in range(balls):
        grid = full.reshape(-1, urns, urns**ball, *full.shape[1:])  # axis 1: the ball's urn
        view = total.reshape(grid.shape)
        view += grid.sum(axis=1, keepdims=True, dtype=full.dtype)
    return total


def _check_mask(params: ModelParams, mask: np.ndarray) -> None:
    if mask.dtype != bool or mask.shape != (params.state_count,):
        raise ValueError(f"need a boolean mask of {params.state_count} states")


def neighbour_counts(params: ModelParams, inside: np.ndarray) -> np.ndarray:
    """Each placement's int64 number of neighbours inside the boolean mask:
    ``sum_b S_b 1 - M 1`` on its indicator ``1``, since each ``S_b`` of
    :func:`_axis_sums` counts the placement itself once."""
    _check_mask(params, inside)
    indicator = inside.astype(np.int64)
    return _axis_sums(indicator, params.urns, params.balls) - params.balls * indicator


# The runs depend on (urns, balls) alone, so every operator of a walk
# shares them; the cache keeps the last 32 walks' runs.
@functools.lru_cache(maxsize=32)
def _ball_runs(params: ModelParams) -> tuple[tuple[int, np.ndarray], ...]:
    """The balls cut into runs of at most ``_RUN_STATES`` placements (one
    ball at least), as ``(urns**first ball, generator)``: the dense float64
    ``n g I - sum_b S_b`` of the run's ``g`` balls alone, read-only.  The
    walk's ``n M I - sum_b S_b`` is the sum of the runs' generators."""
    n, m = params.urns, params.balls
    size = max([1] + [g for g in range(1, m + 1) if n**g <= _RUN_STATES])
    runs = []
    for first in range(0, m, size):
        count = min(size, m - first)
        eye = np.eye(n**count)
        generator = n * count * eye - _axis_sums(eye, n, count)
        generator.flags.writeable = False
        runs.append((n**first, generator))
    return tuple(runs)


def _run_product(full: np.ndarray, runs: tuple[tuple[int, np.ndarray], ...]) -> np.ndarray:
    """``(n M I - sum_b S_b) full`` for a float64 vector over all
    placements: each run's generator multiplies the run's axes, put last."""
    total = np.zeros_like(full)
    for low, generator in runs:
        size = len(generator)
        view = total.reshape(-1, size, low).transpose(0, 2, 1)
        flat = full.reshape(-1, size, low).transpose(0, 2, 1).reshape(-1, size)
        part = np.empty_like(flat)
        rows = max(1, _MATMUL_SIZE // size**2)
        for start in range(0, len(flat), rows):  # the generator is symmetric
            np.matmul(flat[start : start + rows], generator, out=part[start : start + rows])
        view += part.reshape(view.shape)
    return total


class WalkOperator(Sequence):
    """The walk absorbed on the states of the boolean mask ``absorbing``, as
    the operator ``P (n M I - sum_b S_b) P`` over the other states.

    With ``S_b`` as in :func:`_axis_sums`, ``sum_b S_b`` is ``M I`` plus the
    0/1 adjacency ``A``, so this is ``degree * I - A`` over the transient
    states (``states``, ascending); ``P`` zeroes the absorbed entries.  No
    entry is stored.  ``times`` multiplies a 1-D int64, float64 or
    Python-int vector by it, in its dtype (floats by the runs of
    :func:`_ball_runs`); no value it forms exceeds ``bound = 2 n M`` times
    ``max|x|``.  ``certificate``, the solvers' verdict on it, depends on
    ``params`` and ``len(states)`` alone.  Indexing gives row ``i`` as
    ``{column: value}``.
    """

    def __init__(self, params: ModelParams, absorbing: np.ndarray) -> None:
        _check_mask(params, absorbing)
        self.params, self._transient = params, ~absorbing
        self.states = np.flatnonzero(self._transient)
        self._transient.flags.writeable = self.states.flags.writeable = False
        self.bound = 2 * params.urns * params.balls
        self._runs = _ball_runs(params)

    @property
    def certificate(self) -> int | bool:
        """The solvers' verdict, from the operator's shape alone: False when
        nothing is absorbed, as ``degree * I - A`` then has the all-ones
        vector in its kernel.  Else the operator is symmetric positive
        definite by construction: each ``S_b`` is symmetric and ``P``
        diagonal, every row is weakly dominant, and as the walk's graph is
        connected, every row reaches through transient neighbours one with
        an absorbed neighbour, where dominance is strict (Shivakumar & Chew
        1974).  The verdict is then ``ceil(log2)`` of a Hadamard bound on
        ``det**2``: row ``i``, with ``a_i`` absorbed neighbours, holds
        ``degree`` and ``degree - a_i`` entries -1, so its sum of squares,
        ``degree**2 + degree - a_i``, is at most ``degree**2 + degree``.
        """
        if len(self.states) == self.params.state_count:
            return False
        d = self.params.degree
        return math.ceil(len(self.states) * math.log2(d * d + d))

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> dict[int, int]:
        i = range(len(self))[operator.index(i)]  # negative from the end; IndexError past it
        moves = [s for s in _moves(int(self.states[i]), self.params) if self._transient[s]]
        row = dict.fromkeys(np.searchsorted(self.states, moves).tolist(), -1)
        return row | {i: self.params.degree}

    def times(self, x: np.ndarray) -> np.ndarray:
        full = np.zeros(self.params.state_count, dtype=x.dtype)
        full[self._transient] = x
        if x.dtype == np.float64:
            return _run_product(full, self._runs)[self._transient]
        n, m = self.params.urns, self.params.balls
        return n * m * x - _axis_sums(full, n, m)[self._transient]


def lump_classes(placements: np.ndarray) -> np.ndarray:
    """The 2k-class label of each row of a ``(states, balls)`` array of urn
    numbers, as int64.

    A placement with ``p`` of its first ``balls - 1`` balls in urn 2 belongs
    to class ``2p + 1`` when its last ball is elsewhere and to class
    ``2p + 2`` when its last ball is also in urn 2.  Labels run 1..2k and
    the blocks partition the whole state space.
    """
    in_target = placements == TARGET_URN
    return 2 * in_target[:, :-1].sum(axis=1) + 1 + in_target[:, -1]


def lumped_kernel(params: ModelParams) -> tuple[dict[int, int], ...]:
    """Kernel of the walk observed through the 2k classes, as sparse rows.

    Row m-1 maps each class label reachable from class m to its integer
    move count out of ``degree``; zero entries are left out.  That is the
    ``row_of`` mapping of :func:`is_exactly_lumpable`, which certifies the
    aggregation (and so that every row sums to ``degree``) in the checks.
    """
    k, n = params.balls, params.urns
    rows: tuple[dict[int, int], ...] = tuple({} for _ in range(2 * k))

    def at(row_class: int, col_class: int, count: int) -> None:
        if count:  # each (row, column) pair is set at most once
            rows[row_class - 1][col_class] = count

    for i in range(1, k + 1):
        odd, even = 2 * i - 1, 2 * i
        # last ball leaves / enters urn 2
        at(even, even - 1, n - 1)
        at(odd, odd + 1, 1)
        # one of the i-1 front balls leaves urn 2
        at(even, even - 2, (i - 1) * (n - 1))
        at(odd, odd - 2, (i - 1) * (n - 1))
        # one of the k-i non-target front balls enters urn 2
        at(even, even + 2, k - i)
        at(odd, odd + 2, k - i)
        # moves that stay outside urn 2 keep the class
        at(even, even, (k - i) * (n - 2))
        at(odd, odd, (k - i + 1) * (n - 2))
    return rows


def is_exactly_lumpable(
    params: ModelParams,
    classify: Callable[[np.ndarray], np.ndarray],
    row_of: Callable[[int], Mapping[int, int]],
) -> bool:
    """Whether the walk aggregates exactly onto a smaller chain.

    ``classify`` is called once, on the ``(states, balls)`` array of urn
    numbers whose row ``g`` is the placement of state ``g``, and returns one
    integer or bool class label per state; ``row_of`` gives a class's kernel
    row as ``{label: count}``, how many of the ``degree`` equally likely
    moves lead into each class (zero entries may be left out).  By the
    Kemeny-Snell criterion (*Finite Markov Chains*, 1960, section 6.3) the
    classes lump the walk onto that kernel exactly when every state's
    neighbour count in each class equals its own class's row, checked for
    every class at once: one :func:`_axis_sums` pass over the ``(states,
    classes)`` class-indicator matrix, in the narrowest unsigned dtype that
    holds ``urns * balls``, the largest sum the pass forms.  A count that
    is no int (bools and numpy ints are the ints they equal) returns False.
    Raises BudgetExceededError past ``LUMPABILITY_BUDGET`` states, before
    anything is built, and ValueError unless the labels are a 1-D integer
    or bool array with one entry per state.
    """
    if params.state_count > LUMPABILITY_BUDGET:
        raise BudgetExceededError(
            params.state_count, LUMPABILITY_BUDGET, what="exhaustive lumpability check"
        )
    labels = np.asarray(classify(_placements(params)))
    if labels.shape != (params.state_count,) or labels.dtype.kind not in "biu":
        raise ValueError(
            f"need one integer or bool label for each of {params.state_count} states"
        )
    names, classes = np.unique(labels, return_inverse=True)
    ids = {label: k for k, label in enumerate(names.tolist())}
    degree = params.degree
    # counts[k, c]: the moves from a state of class k into class c
    counts = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for label, k in ids.items():
        for other, count in row_of(label).items():
            if not count:
                continue
            integral = isinstance(count, (int, np.integer))
            if other not in ids or not integral or not 0 < count <= degree:
                return False  # no state's neighbour counts can match
            counts[k, ids[other]] = count
        if counts[k].sum() != degree:
            return False
    # Each S_b counts a state once among its ball's placements, so over all
    # balls each state also counts M times in its own class; no sum then
    # exceeds n M.
    dtype = np.min_scalar_type(params.urns * params.balls)
    expected = (counts + params.balls * np.eye(len(ids), dtype=np.int64)).astype(dtype)
    indicator = np.eye(len(ids), dtype=dtype)[classes]
    return np.array_equal(
        _axis_sums(indicator, params.urns, params.balls), expected[classes]
    )
