"""Seeded Monte Carlo estimation of hitting times on the full walk.

Replication r of a plan draws from its own counter-based random stream
keyed by (seed, r), so the estimate is a pure function of the plan: the
worker count changes wall-clock time but never the result, byte for byte.
Pooling works on exact integer sums of the per-replication step counts,
which makes the reduction order immaterial.

Each step consumes one uniform draw over ball-and-destination pairs; the
destination component is an index into the urns other than the current one
(skip-adjusted), so every alternative urn is exactly equally likely.
Replications that fail to hit within the step cap are counted separately
and excluded from the mean, never silently folded in.

The stream of replication r is the one ``Generator(Philox(key=(seed, r)))``
yields through ``integers(0, span)`` with ``span = balls * (urns - 1)``.
Rather than build that generator once per replication, the kernel walks a
batch of replications in lockstep on a numpy emulation of the stream, the
only source of draws in this module:

- Philox4x64-10 (Salmon et al., SC'11) of the counters 1, 2, ... under the
  key (seed, r), with its 64x64 -> 128-bit products formed from 32-bit
  limbs;
- each output word split into its 32-bit halves, low half first, and each
  half ``x`` turned into a draw by Lemire's bounded method (ACM TOMACS
  29(1), 2019): ``x`` is kept iff ``(x * span) mod 2**32`` is at least
  ``(2**32 - span) mod span``, and the draw is ``(x * span) >> 32``.

This is what numpy does for spans below ``2**32`` (wider spans take its
64-bit path, so plans with such spans are rejected).  Numpy draws nothing
for span 1; the emulation does, but every draw is then 0, so no step
changes.

Batches hold at most ``_BATCH`` replications, walked in one loop over
blocks of draws.  A block spends the same whole counters of every stream
of the batch.  Its rejected halves (each half is rejected with a chance
below span / 2**32) are drawn as ``span`` before any walk: that is ball
number ``balls``, a scratch cell past the balls whose goal no urn matches,
so a rejected half takes no step.  Each row is then walked in lockstep,
or, once ``_TAIL`` or fewer rows walk, one at a time in the scalar loop;
both walkers return the column of each row's first arrival.  One
accounting turns that column into the row's step count, less its rejected
halves, and applies the step cap to it.  Rows that hit or reach the cap
leave the batch at block boundaries, in whole groups of ``_ROW_GRAIN``.

``tests/_reference.py`` keeps the per-replication loop on numpy's own
generator that this kernel replaced.  The tests check the kernel against
it step count for step count, and the draws against
``Generator.integers``; CI checks digests of the ``simulate`` JSON taken
before the kernel existed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    IdenticalConfigurationsError,
    SimulationTruncatedError,
    ValidationError,
)
from .model import Configuration, ModelParams, as_integer, check_configuration

_SEED_LIMIT = 2**64
_SPAN_LIMIT = 2**32
# lockstep kernel: replications per batch, placement cells per batch, draws
# per block (a block spends at least one counter, 8 draws, per row, so a
# full batch takes 2**16), and the active count at or below which each
# replication walks its block alone in the scalar loop, over the same row
# of draws, rejected halves included, as lockstep
_BATCH = 2**13
_BATCH_CELLS = 2**20
_BLOCK_DRAWS = 2**15
_TAIL = 48
# finished rows leave the batch in whole groups of this many rows, so that
# the arrays of a batch take few distinct sizes: numpy keeps up to seven
# freed buffers of each size under 1 KiB for reuse, and rows shrinking one
# at a time would leave megabytes there
_ROW_GRAIN = 64

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


@dataclass(frozen=True)
class SimulationPlan:
    params: ModelParams
    start: Configuration
    target: Configuration
    replications: int
    seed: int
    workers: int = 1
    max_steps: int | None = None

    def __post_init__(self) -> None:
        for field in ("replications", "seed", "workers", "max_steps"):
            value = getattr(self, field)
            if value is not None or field != "max_steps":
                object.__setattr__(self, field, as_integer(value, field))
        if self.params.degree >= _SPAN_LIMIT:
            raise ValidationError(
                "balls * (urns - 1) must be below 2**32 for the seeded draws"
            )
        for field in ("start", "target"):
            placement = check_configuration(getattr(self, field), self.params)
            object.__setattr__(self, field, placement)
        if self.start == self.target:
            raise IdenticalConfigurationsError(
                "plan start and target placements are identical"
            )
        if self.replications < 1:
            raise ValidationError("need at least one replication")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        if self.workers < 1:
            raise ValidationError("need at least one worker")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValidationError("step cap must be positive")

    @property
    def step_cap(self) -> int:
        """``max_steps``, else a cap far above the expectation: 100 * states * balls."""
        if self.max_steps is not None:
            return self.max_steps
        return 100 * self.params.state_count * self.params.balls


@dataclass(frozen=True)
class HittingEstimate:
    """Pooled estimate of an expected hitting time.

    ``replications_completed`` counts only replications that actually hit;
    ``truncated_count`` the ones stopped by the cap.  The interval is the
    plain normal one, mean +/- 1.96 standard errors.
    """

    mean: float
    std_error: float
    replications_completed: int
    truncated_count: int
    ci95_low: float
    ci95_high: float
    seed: int


def _mulhilo(a: np.ndarray, multiplier: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of ``a * multiplier``, from 32-bit limbs.

    No partial sum overflows: ``(2**32 - 1)**2 + 2 * (2**32 - 1) < 2**64``.
    """
    m_lo = np.uint64(multiplier & 0xFFFFFFFF)
    m_hi = np.uint64(multiplier >> 32)
    a_lo = a & _LOW32
    a_hi = a >> _SHIFT32
    cross = a_hi * m_lo + ((a_lo * m_lo) >> _SHIFT32)
    upper = a_lo * m_hi + (cross & _LOW32)
    high = a_hi * m_hi + (cross >> _SHIFT32) + (upper >> _SHIFT32)
    return high, a * np.uint64(multiplier)


def _philox_words(seeds, reps, counters) -> np.ndarray:
    """Philox4x64-10 of the counters ``(c, 0, 0, 0)`` under keys ``(seed, rep)``.

    The three arguments broadcast against each other; the result has their
    broadcast shape plus a last axis of the four output words, in the order
    ``Philox.random_raw`` emits them.
    """
    # arrays even for scalar keys: array sums wrap silently, numpy scalars warn
    k0 = np.array(seeds, dtype=np.uint64, ndmin=1)
    k1 = np.array(reps, dtype=np.uint64, ndmin=1)
    c0 = np.asarray(counters, dtype=np.uint64)
    shape = np.broadcast_shapes(k0.shape, k1.shape, c0.shape)
    c0 = np.broadcast_to(c0, shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    for round_ in range(_PHILOX_ROUNDS):
        if round_:
            k0 = k0 + np.uint64(_PHILOX_WEYL[0])
            k1 = k1 + np.uint64(_PHILOX_WEYL[1])
        hi0, lo0 = _mulhilo(c0, _PHILOX_MULTIPLIERS[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_MULTIPLIERS[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1)


def _bounded_draws(seeds, reps, counters, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire draws in ``[0, span)`` from the Philox words of ``counters``.

    The arguments broadcast to ``(rows, k)``: one row per stream, ``k``
    consecutive counters.  Returns ``(draws, kept)``, both ``(rows, 8 * k)``:
    one entry per 32-bit half in stream order (each word low half first),
    the draw as uint32 and whether Lemire's rejection test keeps it.  The
    kept draws of counters 1, 2, ..., in order, are the values of
    ``Generator(Philox(key=(seed, rep))).integers(0, span)``.
    """
    words = _philox_words(seeds, reps, counters)
    # little-endian 32-bit view: each word's low half comes first
    halves = words.astype("<u8", copy=False).view("<u4").reshape(words.shape[0], -1)
    # uint32 products wrap: they are (x * span) mod 2**32
    kept = halves * np.uint32(span) >= np.uint32((_SPAN_LIMIT - span) % span)
    wide = halves.astype(np.uint64)
    wide *= np.uint64(span)
    wide >>= _SHIFT32
    return wide.astype(np.uint32), kept


def _walk_scalar(
    alternatives: int, goal: list[int], config: list[int], draws: list[int]
) -> int:
    """Walk ``config`` (updated in place, scratch cell last) one step per draw.

    Returns the column after which it first sits at ``goal``, or -1; it
    stops walking there.
    """
    mismatches = sum(a != b for a, b in zip(config[:-1], goal))
    for i, value in enumerate(draws):
        ball = value // alternatives
        draw = value - ball * alternatives + 1
        current = config[ball]
        destination = draw if draw < current else draw + 1
        config[ball] = destination
        wanted = goal[ball]
        if current == wanted:
            mismatches += 1
        elif destination == wanted:
            mismatches -= 1
            if not mismatches:
                return i
    return -1


def _walk_block(
    place: np.ndarray,
    mismatches: np.ndarray,
    draws: np.ndarray,
    alternatives: int,
    goal: np.ndarray,
) -> np.ndarray:
    """Advance every row of ``place`` one step per column of ``draws``.

    ``place`` (rows, cells) and ``mismatches`` (rows,) are updated in
    place.  Returns, per row, the column after which it first sat at
    ``goal``, or -1.
    """
    rows, balls = place.shape
    cols = draws.shape[1]
    ball, urn_draw = np.divmod(np.ascontiguousarray(draws.T), alternatives)
    urn_draw = urn_draw.astype(place.dtype)
    urn_draw += 1
    wanted = goal[ball]
    cell = ball + np.arange(rows) * balls
    del ball
    flat = place.reshape(-1)
    arrived = np.empty((cols, rows), dtype=bool)
    for j in range(cols):
        at = cell[j]
        current = flat[at]
        draw = urn_draw[j]
        destination = draw + (draw >= current)
        flat[at] = destination
        mismatches += current == wanted[j]
        mismatches -= destination == wanted[j]
        np.equal(mismatches, 0, out=arrived[j])
    return np.where(arrived.any(axis=0), arrived.argmax(axis=0), -1)


def _batch_steps(
    urns: int,
    balls: int,
    start: Configuration,
    target: Configuration,
    max_steps: int,
    seed: int,
    rep_lo: int,
    rep_hi: int,
) -> np.ndarray:
    """Steps to hit for replications ``rep_lo..rep_hi-1``; -1 when truncated."""
    alternatives = urns - 1
    span = balls * alternatives
    max_steps = min(max_steps, np.iinfo(np.int64).max)  # no walk gets that far
    dtype = np.min_scalar_type(urns)  # unsigned: the kernel never subtracts
    # the scratch cell past the balls, whose goal no urn matches
    goal = np.array((*target, 0), dtype=dtype)
    steps = np.full(rep_hi - rep_lo, -1, dtype=np.int64)
    ids = np.arange(rep_hi - rep_lo)
    reps = np.arange(rep_lo, rep_hi, dtype=np.uint64)
    place = np.tile(np.array((*start, 1), dtype=dtype), (len(ids), 1))
    mismatches = np.full(
        len(ids), sum(a != b for a, b in zip(start, target)), dtype=np.int32
    )
    taken = np.zeros(len(ids), dtype=np.int64)
    counter = 1
    while True:
        walking = (steps[ids] < 0) & (taken < max_steps)
        count = np.count_nonzero(walking)
        if not count:
            return steps
        tail = count <= _TAIL
        if len(ids) - count >= (1 if tail else _ROW_GRAIN):
            # drop finished rows, all of them in the tail, else keeping a
            # multiple of _ROW_GRAIN rows; the finished rows kept walk on,
            # but their steps are already counted
            spare = 0 if tail else -count % _ROW_GRAIN
            keep = walking | (np.cumsum(~walking) <= spare)
            ids, place, taken = ids[keep], place[keep], taken[keep]
            mismatches = mismatches[keep]
            continue
        remaining = max_steps - taken[walking].min()
        width = max(1, min(_BLOCK_DRAWS // (8 * len(ids)), -(-remaining // 8)))
        draws, kept = _bounded_draws(
            seed, reps[ids, None], counter + np.arange(width), span
        )
        counter += width
        # rejected halves, rare: as ball `balls`, each moves only the scratch cell
        lost_rows, lost_cols = np.divmod(np.flatnonzero(~kept), kept.shape[1])
        draws[lost_rows, lost_cols] = span
        if tail:
            first = np.empty(len(ids), dtype=np.int64)
            for i, row in enumerate(draws.tolist()):
                config = place[i].tolist()
                first[i] = _walk_scalar(alternatives, goal.tolist(), config, row)
                place[i] = config
        else:
            first = _walk_block(place, mismatches, draws, alternatives, goal)
        # a hit's step counts the row's kept halves up to its column
        hit = walking & (first >= 0)
        skipped = lost_rows[lost_cols <= first[lost_rows]]
        at = taken + first + 1 - np.bincount(skipped, minlength=len(ids))
        within = hit & (at <= max_steps)
        steps[ids[within]] = at[within]
        taken += kept.shape[1] - np.bincount(lost_rows, minlength=len(ids))
        del draws, kept  # hold one block at a time


def _chunk_steps(
    urns: int,
    balls: int,
    start: Configuration,
    target: Configuration,
    max_steps: int,
    seed: int,
    rep_lo: int,
    rep_hi: int,
) -> list[int]:
    """Steps to hit for each replication of the chunk, batch by batch."""
    batch = max(1, min(_BATCH, _BATCH_CELLS // balls))
    out: list[int] = []
    for lo in range(rep_lo, rep_hi, batch):
        hi = min(lo + batch, rep_hi)
        out += _batch_steps(urns, balls, start, target, max_steps, seed, lo, hi).tolist()
    return out


def _chunk_stats(args: tuple) -> tuple[int, int, int, int]:
    """Exact integer summary (sum, sum of squares, completed, truncated)."""
    hit_sum = 0
    hit_sumsq = 0
    completed = 0
    truncated = 0
    for steps in _chunk_steps(*args):
        if steps < 0:
            truncated += 1
        else:
            hit_sum += steps
            hit_sumsq += steps * steps
            completed += 1
    return hit_sum, hit_sumsq, completed, truncated


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run(plan: SimulationPlan) -> HittingEstimate:
    """Estimate the expected hitting time of the plan's target from its start."""
    params = plan.params
    cap = plan.step_cap
    # one chunk per process: a chunk walks its replications in lockstep, so
    # more chunks than CPUs only shrink the batches
    chunks = min(plan.workers, plan.replications, _available_cpus())
    chunk_args = [
        (
            params.urns, params.balls, plan.start, plan.target, cap, plan.seed,
            plan.replications * w // chunks, plan.replications * (w + 1) // chunks,
        )
        for w in range(chunks)
    ]
    if chunks == 1:
        summaries = [_chunk_stats(chunk_args[0])]
    else:
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            summaries = list(pool.map(_chunk_stats, chunk_args))

    hit_sum = sum(s[0] for s in summaries)
    hit_sumsq = sum(s[1] for s in summaries)
    completed = sum(s[2] for s in summaries)
    truncated = sum(s[3] for s in summaries)
    if completed == 0:
        raise SimulationTruncatedError(truncated, plan.replications, cap)

    mean = hit_sum / completed
    if completed >= 2:
        # exact integers until the one division: no cancellation, never negative
        variance = (completed * hit_sumsq - hit_sum * hit_sum) / (
            completed * (completed - 1)
        )
    else:
        variance = 0.0
    std_error = math.sqrt(variance / completed)
    return HittingEstimate(
        mean=mean,
        std_error=std_error,
        replications_completed=completed,
        truncated_count=truncated,
        ci95_low=mean - 1.96 * std_error,
        ci95_high=mean + 1.96 * std_error,
        seed=plan.seed,
    )
