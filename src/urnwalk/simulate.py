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
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    IdenticalConfigurationsError,
    SimulationTruncatedError,
    ValidationError,
)
from .model import (
    SOURCE_URN,
    TARGET_URN,
    Configuration,
    ModelParams,
    all_in_urn,
    check_configuration,
)

_FIRST_BLOCK = 256
_MAX_BLOCK = 65_536
_SEED_LIMIT = 2**64


def default_max_steps(params: ModelParams) -> int:
    """Step cap far above the expectation: 100 * states * balls."""
    return 100 * params.state_count * params.balls


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
        check_configuration(self.start, self.params)
        check_configuration(self.target, self.params)
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
        if self.max_steps is not None:
            return self.max_steps
        return default_max_steps(self.params)


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


def step(
    config: Configuration, params: ModelParams, ball_index: int, urn_draw: int
) -> Configuration:
    """Apply one move given the two uniform draws that define it.

    ``ball_index`` picks the moving ball (0-based, uniform over the balls)
    and ``urn_draw`` in 1..urns-1 picks the destination among the other
    urns: destinations below the current urn keep their number, the rest
    shift up by one.
    """
    check_configuration(config, params)
    if not 0 <= ball_index < params.balls:
        raise DomainError(f"ball index {ball_index} outside 0..{params.balls - 1}")
    if not 1 <= urn_draw <= params.urns - 1:
        raise DomainError(f"urn draw {urn_draw} outside 1..{params.urns - 1}")
    current = config[ball_index]
    destination = urn_draw if urn_draw < current else urn_draw + 1
    return config[:ball_index] + (destination,) + config[ball_index + 1 :]


def _replication_stream(seed: int, replication: int) -> np.random.Generator:
    """The dedicated counter-based stream for one replication."""
    key = np.array([seed, replication], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _hitting_steps(
    urns: int,
    balls: int,
    start: Configuration,
    target: Configuration,
    max_steps: int,
    seed: int,
    replication: int,
) -> int:
    """Steps until the walk first sits at ``target``; -1 when truncated."""
    gen = _replication_stream(seed, replication)
    alternatives = urns - 1
    span = balls * alternatives
    config = list(start)
    mismatches = sum(1 for a, b in zip(config, target) if a != b)
    done = 0
    block = _FIRST_BLOCK
    while done < max_steps:
        take = min(block, max_steps - done)
        draws = gen.integers(0, span, size=take).tolist()
        i = 0
        for value in draws:
            ball = value // alternatives
            draw = value - ball * alternatives + 1
            current = config[ball]
            destination = draw if draw < current else draw + 1
            config[ball] = destination
            i += 1
            wanted = target[ball]
            if current == wanted:
                mismatches += 1
            elif destination == wanted:
                mismatches -= 1
                if not mismatches:
                    return done + i
        done += take
        block = min(block * 4, _MAX_BLOCK)
    return -1


def _chunk_stats(args: tuple) -> tuple[int, int, int, int]:
    """Exact integer summary (sum, sum of squares, completed, truncated)."""
    urns, balls, start, target, max_steps, seed, rep_lo, rep_hi = args
    hit_sum = 0
    hit_sumsq = 0
    completed = 0
    truncated = 0
    for replication in range(rep_lo, rep_hi):
        steps = _hitting_steps(
            urns, balls, start, target, max_steps, seed, replication
        )
        if steps < 0:
            truncated += 1
        else:
            hit_sum += steps
            hit_sumsq += steps * steps
            completed += 1
    return hit_sum, hit_sumsq, completed, truncated


def run(plan: SimulationPlan) -> HittingEstimate:
    """Estimate the expected hitting time of the plan's target from its start."""
    params = plan.params
    cap = plan.step_cap
    workers = min(plan.workers, plan.replications)
    bounds = [
        (
            plan.replications * w // workers,
            plan.replications * (w + 1) // workers,
        )
        for w in range(workers)
    ]
    chunk_args = [
        (params.urns, params.balls, plan.start, plan.target, cap, plan.seed, lo, hi)
        for lo, hi in bounds
        if hi > lo
    ]
    if len(chunk_args) == 1:
        summaries = [_chunk_stats(chunk_args[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunk_args)) as pool:
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


def estimate_for_distance(
    params: ModelParams,
    distance: int,
    replications: int,
    seed: int,
    workers: int = 1,
    max_steps: int | None = None,
) -> HittingEstimate:
    """Run the canonical pair at the given distance."""
    start, target = distance_pair(params, distance)
    plan = SimulationPlan(
        params=params,
        start=start,
        target=target,
        replications=replications,
        seed=seed,
        workers=workers,
        max_steps=max_steps,
    )
    return run(plan)
