import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import FIRST_BLOCK, MAX_BLOCK, hitting_steps, replication_stream, step
from urnwalk import cli, exact, simulate
from urnwalk.errors import (
    DomainError,
    IdenticalConfigurationsError,
    SimulationTruncatedError,
    ValidationError,
)
from urnwalk.model import ModelParams, TARGET_URN, distance_pair


class TestStep:
    def test_two_urns_always_flips(self):
        params = ModelParams(2, 1)
        assert step((1,), params, 0, 1) == (2,)
        assert step((2,), params, 0, 1) == (1,)

    def test_skip_adjustment(self):
        params = ModelParams(4, 1)
        # current urn 2: draws 1,2,3 land on urns 1,3,4
        assert step((2,), params, 0, 1) == (1,)
        assert step((2,), params, 0, 2) == (3,)
        assert step((2,), params, 0, 3) == (4,)

    def test_rejects_bad_draws(self):
        params = ModelParams(3, 2)
        with pytest.raises(DomainError):
            step((1, 1), params, 2, 1)
        with pytest.raises(DomainError):
            step((1, 1), params, 0, 3)

    @given(
        st.integers(2, 5), st.integers(1, 4), st.data()
    )
    def test_changes_exactly_one_ball(self, urns, balls, data):
        params = ModelParams(urns, balls)
        config = tuple(
            data.draw(st.lists(st.integers(1, urns), min_size=balls, max_size=balls))
        )
        ball = data.draw(st.integers(0, balls - 1))
        draw = data.draw(st.integers(1, urns - 1))
        moved = step(config, params, ball, draw)
        assert sum(1 for a, b in zip(config, moved) if a != b) == 1
        assert moved[ball] != config[ball]

    def test_one_step_frequencies(self):
        # a million draws from (1,1) must hit each neighbor about equally
        params = ModelParams(3, 2)
        draws = 1_000_000
        gen = np.random.Generator(np.random.Philox(key=7))
        balls = gen.integers(0, 2, size=draws)
        urn_draws = gen.integers(1, 3, size=draws)
        combo_counts = np.bincount(balls * 2 + (urn_draws - 1), minlength=4)
        neighbor_counts = {}
        for combo, count in enumerate(combo_counts):
            ball, draw = divmod(combo, 2)
            dest = step((1, 1), params, ball, draw + 1)
            neighbor_counts[dest] = neighbor_counts.get(dest, 0) + int(count)
        assert set(neighbor_counts) == {(2, 1), (3, 1), (1, 2), (1, 3)}
        sigma = math.sqrt(draws * 0.25 * 0.75)
        for count in neighbor_counts.values():
            assert abs(count - draws * 0.25) < 4 * sigma


class TestPlanValidation:
    def test_identical_pair_rejected(self):
        with pytest.raises(IdenticalConfigurationsError):
            simulate.SimulationPlan(
                params=ModelParams(3, 2),
                start=(1, 1),
                target=(1, 1),
                replications=10,
                seed=0,
            )

    @pytest.mark.parametrize("start", [[1, 2], (np.int64(1), np.uint8(2)), (True, 2)])
    def test_identical_pair_in_any_sequence_rejected(self, start):
        # a list and a tuple of one placement are one pair, not a walk
        # that returns to (1, 2)
        with pytest.raises(IdenticalConfigurationsError):
            simulate.SimulationPlan(ModelParams(3, 2), start, (1, 2), 200, 1)

    def test_placements_are_stored_as_int_tuples(self):
        plan = simulate.SimulationPlan(
            ModelParams(3, 2), [np.int64(1), True], [2, np.uint8(3)], 10, 0
        )
        assert (plan.start, plan.target) == ((1, 1), (2, 3))
        assert all(type(v) is int for v in plan.start + plan.target)

    def test_seed_range(self):
        with pytest.raises(ValidationError):
            simulate.SimulationPlan(
                params=ModelParams(3, 2),
                start=(1, 1),
                target=(2, 2),
                replications=10,
                seed=2**64,
            )

    def test_positive_replications_and_workers(self):
        with pytest.raises(ValidationError):
            simulate.SimulationPlan(
                params=ModelParams(3, 2),
                start=(1, 1),
                target=(2, 2),
                replications=0,
                seed=0,
            )
        with pytest.raises(ValidationError):
            simulate.SimulationPlan(
                params=ModelParams(3, 2),
                start=(1, 1),
                target=(2, 2),
                replications=5,
                seed=0,
                workers=0,
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("replications", 2.5),
            ("replications", None),
            ("seed", 1.5),
            ("workers", 1.5),
            ("max_steps", 50.5),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        # a seed of 1.5 would otherwise run seed 1's streams and echo 1.5
        counts = dict(replications=10, seed=1, workers=1, max_steps=50)
        counts[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            simulate.SimulationPlan(
                params=ModelParams(3, 2), start=(1, 1), target=(2, 2), **counts
            )

    def test_integer_like_counts_are_the_ints_they_equal(self):
        plan = simulate.SimulationPlan(
            params=ModelParams(3, 2),
            start=(1, 1),
            target=(2, 2),
            replications=np.int64(10),
            seed=np.uint64(7),
            workers=True,
            max_steps=np.int32(50),
        )
        counts = (plan.replications, plan.seed, plan.workers, plan.max_steps)
        assert counts == (10, 7, 1, 50)
        assert all(type(v) is int for v in counts)

    def test_rejects_spans_of_two_to_the_32(self):
        # numpy draws such spans by its 64-bit path, which the kernel does
        # not emulate
        for urns, balls in ((2**32 + 1, 1), (2**31 + 1, 2)):
            with pytest.raises(ValidationError):
                simulate.SimulationPlan(
                    params=ModelParams(urns, balls),
                    start=(1,) * balls,
                    target=(2,) * balls,
                    replications=1,
                    seed=0,
                )
        widest = simulate.SimulationPlan(
            params=ModelParams(2**32, 1), start=(1,), target=(2,),
            replications=1, seed=0,
        )
        assert widest.params.degree == 2**32 - 1

    def test_wide_span_exits_2_on_the_cli(self, capsys):
        code = cli.main(
            ["simulate", "--urns", str(2**32 + 1), "--balls", "1", "--reps", "1"]
        )
        assert code == 2
        assert "2**32" in capsys.readouterr().err

    def test_cap_past_int64_on_the_cli(self, capsys):
        code = cli.main(
            ["simulate", "--urns", "2", "--balls", "2", "--reps", "10", "--seed", "3",
             "--max-steps", str(10**20)]
        )
        assert code == 0
        assert capsys.readouterr().out

    def test_default_step_cap(self):
        plan = simulate.SimulationPlan(
            params=ModelParams(5, 3),
            start=(1, 1, 1),
            target=(2, 2, 2),
            replications=1,
            seed=0,
        )
        assert plan.step_cap == 100 * 125 * 3


class TestRunLoopMatchesStep:
    def test_trajectory_equivalence(self):
        # replay each replication's combined draws through step() and
        # compare with the kernel's step counts
        params = ModelParams(4, 3)
        start, target = (1, 1, 1), (2, 2, 2)
        cap = 10_000
        fast = simulate._chunk_steps(4, 3, start, target, cap, 99, 0, 40)
        for rep in range(40):
            gen = replication_stream(99, rep)
            config = start
            steps = 0
            block = FIRST_BLOCK
            done = 0
            replay = None
            while done < cap and replay is None:
                take = min(block, cap - done)
                for value in gen.integers(0, 3 * 3, size=take).tolist():
                    ball, draw = divmod(value, 3)
                    config = step(config, params, ball, draw + 1)
                    steps += 1
                    if config == target:
                        replay = steps
                        break
                done += take
                block = min(block * 4, MAX_BLOCK)
            assert fast[rep] == replay


# Spans whose Lemire rejection rate runs from none to 25-50%.
REJECTION_SPANS = (1, 2, 9, 15, 3 * 2**30, 2**31 + 1, 2**32 - 5)


@st.composite
def walk_plans(draw):
    """Urns, balls and a start/target pair at any distance from 1 to balls."""
    urns = draw(st.integers(2, 7))
    balls = draw(st.integers(1, 6))
    start = draw(st.lists(st.integers(1, urns), min_size=balls, max_size=balls))
    distance = draw(st.integers(1, balls))
    moved = draw(st.permutations(range(balls)))[:distance]
    target = list(start)
    for ball in moved:
        shift = draw(st.integers(1, urns - 1))
        target[ball] = (start[ball] - 1 + shift) % urns + 1
    return urns, balls, tuple(start), tuple(target)


class TestLockstepKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        walk_plans(),
        st.integers(0, 2**64 - 1),
        st.integers(0, 1000),
        st.integers(1, 80),
        st.integers(1, 2000),
        st.integers(0, 80),
    )
    def test_matches_scalar_reference(self, walk, seed, rep_lo, count, cap, tail):
        # caps from 1 step up truncate many walks; the tail cut-off moves
        # the hand-over to the scalar loop to any point of the walk
        urns, balls, start, target = walk
        with mock.patch.object(simulate, "_TAIL", tail):
            got = simulate._chunk_steps(
                urns, balls, start, target, cap, seed, rep_lo, rep_lo + count
            )
        want = [
            hitting_steps(urns, balls, start, target, cap, seed, rep)
            for rep in range(rep_lo, rep_lo + count)
        ]
        assert got == want

    def test_philox_words_match_random_raw(self):
        seed, reps = 2**64 - 3, np.array([[0], [5], [2**63]], dtype=np.uint64)
        words = simulate._philox_words(seed, reps, np.arange(1, 6))
        for row, rep in enumerate(reps[:, 0]):
            raw = np.random.Philox(key=np.array([seed, rep], dtype=np.uint64))
            assert words[row].reshape(-1).tolist() == raw.random_raw(20).tolist()

    @pytest.mark.parametrize("span", REJECTION_SPANS)
    def test_draws_match_numpy_across_blocks(self, span):
        # consecutive counter blocks per row, against numpy drawing the same
        # stream in calls of other sizes: pending halves and rejections
        # must carry over every boundary on both sides
        seed = 0xDEADBEEF12345678
        reps = np.array([[0], [1], [77], [2**40]], dtype=np.uint64)
        kept_draws = [[] for _ in reps]
        for first in range(1, 13, 3):
            counters = np.arange(first, first + 3)
            draws, kept = simulate._bounded_draws(seed, reps, counters, span)
            for row in range(len(reps)):
                kept_draws[row] += draws[row][kept[row]].tolist()
        for row, rep in enumerate(reps[:, 0]):
            gen = replication_stream(seed, int(rep))
            want = []
            while len(want) < len(kept_draws[row]):
                want += gen.integers(0, span, size=5).tolist()
                want += gen.integers(0, span, size=1).tolist()
            assert kept_draws[row] == want[: len(kept_draws[row])]
        if span == 2**31 + 1:
            assert sum(map(len, kept_draws)) < 0.6 * 4 * 12 * 8

    @pytest.mark.parametrize("tail", (0, 600))
    @pytest.mark.parametrize("cap", (5000, 20))
    def test_rejected_halves_take_no_step(self, cap, tail):
        # no walk plan has a span wide enough to see rejections in practice,
        # so flag about one half in 60 as rejected and spoil its draw, as a
        # function of the stream position alone: every walk, in lockstep or
        # in the tail, must take one step per kept half and none per
        # rejected one
        bounded_draws = simulate._bounded_draws
        flagged = []

        def with_rejections(seeds, reps, counters, span):
            draws, kept = bounded_draws(seeds, reps, counters, span)
            halves = 8 * (np.asarray(counters)[:, None] - 1) + np.arange(8)
            salt = halves.reshape(-1) + reps.astype(np.int64)
            rejected = (draws * 7 + salt) % 61 == 0
            flagged.append(int(rejected.any(axis=1).sum()))
            return np.where(rejected, (draws + 1) % span, draws), kept & ~rejected

        params, start, target = ModelParams(4, 3), (1, 2, 3), (2, 2, 2)
        seed = 2**63 + 11
        with mock.patch.object(simulate, "_bounded_draws", with_rejections), \
                mock.patch.object(
                    simulate, "_walk_scalar", wraps=simulate._walk_scalar
                ) as walk_scalar, \
                mock.patch.object(simulate, "_TAIL", tail):
            got = simulate._chunk_steps(4, 3, start, target, cap, seed, 0, 600)
        assert sum(flagged) > 100
        # with no tail, rows with a rejected half stay in lockstep
        assert walk_scalar.called == bool(tail)

        def kept_walk(rep):
            # one replication at a time, over the kept halves of its stream
            rows = np.array([[rep]], dtype=np.uint64)
            draws, kept = with_rejections(seed, rows, np.arange(1, 701), params.degree)
            values = draws[0][kept[0]].tolist()
            assert len(values) >= cap
            config = start
            for steps, value in enumerate(values[:cap], 1):
                ball, draw = divmod(value, 3)
                config = step(config, params, ball, draw + 1)
                if config == target:
                    return steps
            return -1

        assert got == [kept_walk(rep) for rep in range(600)]
        if cap == 20:
            # the cap is reached in the middle of blocks that hold rejections
            assert got.count(-1) == 461 and got.count(cap) == 3

    def test_walkers_share_one_contract(self):
        # one block, rejected halves drawn as span: the row at distance d
        # wanders, idles on rejected halves and arrives in the last column;
        # the last row never arrives.  Both walkers must return the same
        # first-arrival columns and leave the same placements.
        urns, balls, cols = 4, 5, 12
        alternatives, span = urns - 1, balls * (urns - 1)
        target = (2, 3, 4, 1, 2)
        goal = np.array((*target, 0), dtype=np.uint8)

        def move(ball, current, destination):
            return ball * alternatives + destination - 1 - (destination > current)

        def other(urn, *avoid):
            return next(u for u in range(1, urns + 1) if u != urn and u not in avoid)

        starts, rows = [], []
        for distance in range(1, balls + 1):
            start = [other(t) if b < distance else t for b, t in enumerate(target)]
            wander = [other(start[b], target[b]) for b in range(distance)]
            rows.append(
                [move(b, start[b], wander[b]) for b in range(distance)]
                + [span] * (cols - 2 * distance)
                + [move(b, wander[b], target[b]) for b in range(distance)]
            )
            starts.append(start)
        start = [other(target[0]), *target[1:]]
        away = other(start[0], target[0])
        rows.append([span, move(0, start[0], away), span, move(0, away, start[0])] * 3)
        starts.append(start)

        place = np.array([(*s, 1) for s in starts], dtype=np.uint8)
        mismatches = (place[:, :-1] != goal[:-1]).sum(axis=1).astype(np.int32)
        draws = np.array(rows, dtype=np.uint32)
        block = simulate._walk_block(place, mismatches, draws, alternatives, goal)
        assert block.tolist() == [cols - 1] * balls + [-1]
        for i, row in enumerate(rows):
            config = [*starts[i], 1]
            column = simulate._walk_scalar(alternatives, goal.tolist(), config, row)
            assert column == block[i]
            assert config == place[i].tolist()

    @pytest.mark.parametrize("tail", (0, 48, 1000))
    def test_caps_past_int64(self, tail):
        args = (2, 2, (1, 1), (2, 2), 10**30, 3, 0, 100)
        with mock.patch.object(simulate, "_TAIL", tail):
            got = simulate._chunk_steps(*args)
        assert got == [hitting_steps(*args[:6], rep) for rep in range(100)]

    def test_rows_leave_in_whole_groups(self):
        # after the batch's first block, every block walks a multiple of
        # _ROW_GRAIN rows, so its arrays come in few distinct sizes
        walk_block = simulate._walk_block
        rows = []

        def recording(place, *args):
            rows.append(len(place))
            return walk_block(place, *args)

        with mock.patch.object(simulate, "_walk_block", recording):
            with mock.patch.object(simulate, "_TAIL", 0):
                simulate._chunk_steps(4, 3, (1, 1, 1), (2, 2, 2), 10**6, 3, 0, 1000)
        assert rows[0] == 1000 and len(set(rows)) > 2
        assert all(n % simulate._ROW_GRAIN == 0 for n in rows[1:] if n != 1000)

    def test_batches_bound_the_placement_cells(self):
        # many balls shrink the batch, so a batch's placements stay within
        # _BATCH_CELLS cells
        balls = 2**12
        batch_steps = simulate._batch_steps
        sizes = []

        def recording(urns, balls, start, target, max_steps, seed, lo, hi):
            sizes.append(hi - lo)
            return batch_steps(urns, balls, start, target, max_steps, seed, lo, hi)

        start, target = (1,) * balls, (2,) + (1,) * (balls - 1)
        with mock.patch.object(simulate, "_batch_steps", recording):
            got = simulate._chunk_steps(3, balls, start, target, 40, 5, 0, 600)
        assert sizes == [256, 256, 88]
        assert got == [hitting_steps(3, balls, start, target, 40, 5, r) for r in range(600)]

    @pytest.mark.parametrize(
        "urns, start, target, cap",
        [
            (128, (1,), (2,), 10**6),
            (128, (128,), (2,), 10**6),
            (128, (1, 1), (2, 2), 3000),
            (128, (128, 1), (1, 128), 3000),
            (255, (255, 1), (256 - 2, 255), 3000),
            (256, (256, 256), (1, 2), 3000),
            (32_768, (32_768,), (1,), 2000),
            (32_768, (1,), (32_768,), 2000),
        ],
    )
    def test_urn_numbers_at_dtype_boundaries(self, urns, start, target, cap):
        # the placement dtype is the smallest that holds the urn numbers:
        # walks that start at, aim for or pass through the highest urn must
        # keep it exact, past the tail cut-off
        balls = len(start)
        count = 2 * simulate._TAIL + 4
        got = simulate._chunk_steps(urns, balls, start, target, cap, 9, 0, count)
        want = [hitting_steps(urns, balls, start, target, cap, 9, r) for r in range(count)]
        assert got == want
        assert any(steps > 0 for steps in got)

    @pytest.mark.parametrize("cap", (10_000, 12))
    def test_tail_cut_off_extremes_agree(self, cap):
        # more replications than one batch holds, all in lockstep against
        # all in the scalar loop
        replications = simulate._BATCH + 700
        args = (3, 2, (1, 1), (2, 3), cap, 31, 5, 5 + replications)
        with mock.patch.object(simulate, "_TAIL", 0):
            lockstep = simulate._chunk_steps(*args)
        with mock.patch.object(simulate, "_TAIL", replications):
            scalar = simulate._chunk_steps(*args)
        assert lockstep == scalar
        assert len(lockstep) == replications
        if cap == 12:
            assert 0 < lockstep.count(-1) < replications


def distance_plan(params, distance, replications, seed, workers=1):
    start, target = distance_pair(params, distance)
    return simulate.SimulationPlan(
        params=params,
        start=start,
        target=target,
        replications=replications,
        seed=seed,
        workers=workers,
    )


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


class TestRun:
    def test_deterministic_across_worker_counts(self):
        params = ModelParams(5, 3)
        estimates = [
            simulate.run(
                simulate.SimulationPlan(
                    params=params,
                    start=(1, 1, 1),
                    target=(2, 2, 2),
                    replications=2000,
                    seed=11,
                    workers=workers,
                )
            )
            for workers in (1, 2, 3)
        ]
        assert estimates[0] == estimates[1] == estimates[2]

    def test_pool_capped_at_available_cpus(self):
        # the plan splits into at most one chunk per CPU, and a single chunk
        # runs in-process; the recorder starts no process
        params = ModelParams(3, 2)
        cpus = simulate._available_cpus()
        assert 1 <= cpus <= os.cpu_count()
        single = simulate.run(distance_plan(params, 2, 640, 21))
        for available, sizes in ((1, []), (3, [3])):
            RecordingPool.sizes = []
            with mock.patch.object(simulate, "ProcessPoolExecutor", RecordingPool):
                with mock.patch.object(simulate, "_available_cpus", lambda: available):
                    pooled = simulate.run(distance_plan(params, 2, 640, 21, workers=64))
            assert RecordingPool.sizes == sizes
            assert pooled == single

    def test_never_builds_numpys_generator(self):
        # every draw comes from the module's own Philox/Lemire emulation, in
        # lockstep and in the tail alike
        refuse = AssertionError("numpy's generator built")
        with mock.patch("numpy.random.Philox", side_effect=refuse), \
                mock.patch("numpy.random.Generator", side_effect=refuse), \
                mock.patch.object(
                    simulate, "_walk_block", wraps=simulate._walk_block
                ) as walk_block, \
                mock.patch.object(
                    simulate, "_walk_scalar", wraps=simulate._walk_scalar
                ) as walk_scalar:
            estimate = simulate.run(distance_plan(ModelParams(4, 3), 3, 300, 8))
        assert walk_block.called and walk_scalar.called
        assert estimate.replications_completed == 300

    def test_interval_structure(self):
        estimate = simulate.run(distance_plan(ModelParams(3, 2), 2, 500, 5))
        assert estimate.ci95_low == estimate.mean - 1.96 * estimate.std_error
        assert estimate.ci95_high == estimate.mean + 1.96 * estimate.std_error

    def test_estimate_consistent_with_exact_value(self):
        params = ModelParams(5, 3)
        estimate = simulate.run(distance_plan(params, 1, 20_000, 3))
        expected = float(
            exact.general_hitting_time(
                exact.HittingQuery(params=params, hamming_distance=1)
            )
        )
        assert estimate.truncated_count == 0
        z = (estimate.mean - expected) / estimate.std_error
        assert abs(z) < 4

    def test_mid_distance_on_larger_space(self):
        # state space well beyond the exact-solve budget; the formula is
        # the only exact reference
        params = ModelParams(6, 6)
        expected = float(
            exact.general_hitting_time(
                exact.HittingQuery(params=params, hamming_distance=3)
            )
        )
        assert expected == 48705.0
        estimate = simulate.run(distance_plan(params, 3, 400, 7, workers=2))
        z = (estimate.mean - expected) / estimate.std_error
        assert abs(z) < 3

    def test_constant_steps_give_zero_std_error(self):
        # with 2 urns and 1 ball every move reaches the other urn at once
        plan = simulate.SimulationPlan(
            params=ModelParams(2, 1),
            start=(1,),
            target=(2,),
            replications=1000,
            seed=9,
        )
        estimate = simulate.run(plan)
        assert estimate.mean == 1.0
        assert estimate.std_error == 0.0

    def test_all_truncated_raises(self):
        # a distance-3 target cannot be reached in two moves
        plan = simulate.SimulationPlan(
            params=ModelParams(5, 3),
            start=(1, 1, 1),
            target=(2, 2, 2),
            replications=50,
            seed=0,
            max_steps=2,
        )
        with pytest.raises(SimulationTruncatedError) as info:
            simulate.run(plan)
        assert info.value.truncated == 50

    def test_partial_truncation_reported(self):
        plan = simulate.SimulationPlan(
            params=ModelParams(5, 3),
            start=(1, 1, 1),
            target=(2, 2, 2),
            replications=300,
            seed=1,
            max_steps=60,
        )
        estimate = simulate.run(plan)
        assert estimate.truncated_count > 0
        assert estimate.replications_completed + estimate.truncated_count == 300

    def test_distance_pair_shape(self):
        start, target = distance_pair(ModelParams(5, 4), 2)
        assert start == (1, 1, 1, 1)
        assert target == (1, 1, 2, 2)
        with pytest.raises(DomainError):
            distance_pair(ModelParams(5, 4), 5)


class TestFirstFiberVisitFrequency:
    def test_matches_closed_form(self):
        # drive the raw step function until the walk first has its front
        # ball in urn 2, and record whether that visit lands on the target
        params = ModelParams(3, 2)
        expected = float(exact.first_visit_probability(params))
        replications = 20_000
        successes = 0
        gen = np.random.Generator(np.random.Philox(key=1234))
        for _ in range(replications):
            config = (1, 1)
            while True:
                value = int(gen.integers(0, 4))
                ball, draw = divmod(value, 2)
                config = step(config, params, ball, draw + 1)
                if config[0] == TARGET_URN:
                    successes += int(config == (2, 2))
                    break
        sigma = math.sqrt(replications * expected * (1 - expected))
        assert abs(successes - replications * expected) < 4 * sigma
