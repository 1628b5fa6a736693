import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urnwalk import exact, simulate
from urnwalk.errors import (
    DomainError,
    IdenticalConfigurationsError,
    SimulationTruncatedError,
    ValidationError,
)
from urnwalk.model import ModelParams, TARGET_URN


class TestStep:
    def test_two_urns_always_flips(self):
        params = ModelParams(2, 1)
        assert simulate.step((1,), params, 0, 1) == (2,)
        assert simulate.step((2,), params, 0, 1) == (1,)

    def test_skip_adjustment(self):
        params = ModelParams(4, 1)
        # current urn 2: draws 1,2,3 land on urns 1,3,4
        assert simulate.step((2,), params, 0, 1) == (1,)
        assert simulate.step((2,), params, 0, 2) == (3,)
        assert simulate.step((2,), params, 0, 3) == (4,)

    def test_rejects_bad_draws(self):
        params = ModelParams(3, 2)
        with pytest.raises(DomainError):
            simulate.step((1, 1), params, 2, 1)
        with pytest.raises(DomainError):
            simulate.step((1, 1), params, 0, 3)

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
        moved = simulate.step(config, params, ball, draw)
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
            dest = simulate.step((1, 1), params, ball, draw + 1)
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
        # replay the run loop's combined draws through step() and compare
        params = ModelParams(4, 3)
        start, target = (1, 1, 1), (2, 2, 2)
        cap = 10_000
        for rep in range(40):
            fast = simulate._hitting_steps(4, 3, start, target, cap, 99, rep)
            gen = simulate._replication_stream(99, rep)
            config = start
            steps = 0
            block = simulate._FIRST_BLOCK
            done = 0
            replay = None
            while done < cap and replay is None:
                take = min(block, cap - done)
                for value in gen.integers(0, 3 * 3, size=take).tolist():
                    ball, draw = divmod(value, 3)
                    config = simulate.step(config, params, ball, draw + 1)
                    steps += 1
                    if config == target:
                        replay = steps
                        break
                done += take
                block = min(block * 4, simulate._MAX_BLOCK)
            assert fast == replay


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

    def test_interval_structure(self):
        estimate = simulate.estimate_for_distance(
            ModelParams(3, 2), 2, replications=500, seed=5
        )
        assert estimate.ci95_low == estimate.mean - 1.96 * estimate.std_error
        assert estimate.ci95_high == estimate.mean + 1.96 * estimate.std_error

    def test_estimate_consistent_with_exact_value(self):
        params = ModelParams(5, 3)
        estimate = simulate.estimate_for_distance(
            params, 1, replications=20_000, seed=3
        )
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
        estimate = simulate.estimate_for_distance(
            params, 3, replications=400, seed=7, workers=2
        )
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
        start, target = simulate.distance_pair(ModelParams(5, 4), 2)
        assert start == (1, 1, 1, 1)
        assert target == (1, 1, 2, 2)
        with pytest.raises(DomainError):
            simulate.distance_pair(ModelParams(5, 4), 5)


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
                config = simulate.step(config, params, ball, draw + 1)
                if config[0] == TARGET_URN:
                    successes += int(config == (2, 2))
                    break
        sigma = math.sqrt(replications * expected * (1 - expected))
        assert abs(successes - replications * expected) < 4 * sigma
