import random
from fractions import Fraction

import pytest

from urnwalk import exact, linsolve, oracle
from urnwalk.errors import BudgetExceededError, DomainError
from urnwalk.model import ModelParams, config_at

from _reference import reference_hitting_time


class TestExpectedHittingTime:
    def test_five_urns_three_balls(self):
        params = ModelParams(5, 3)
        assert oracle.expected_hitting_time(params, (1, 1, 1), (2, 2, 2)) == 142

    def test_start_equals_target(self):
        params = ModelParams(3, 2)
        assert oracle.expected_hitting_time(params, (1, 2), (1, 2)) == 0

    def test_three_urns_two_balls(self):
        params = ModelParams(3, 2)
        value = oracle.expected_hitting_time(params, (1, 1), (2, 2))
        assert value == 10
        assert value == reference_hitting_time(3, 2, (1, 1), (2, 2))

    def test_matches_reference_solver_everywhere(self):
        params = ModelParams(2, 3)
        target = (2, 1, 2)
        times = oracle.hitting_times_to_target(params, target)
        for g in range(params.state_count):
            start = config_at(g, params)
            assert times[g] == reference_hitting_time(2, 3, start, target)

    def test_depends_only_on_distance(self):
        params = ModelParams(3, 3)
        for target_g in (0, 5, 13):
            target = config_at(target_g, params)
            times = oracle.hitting_times_to_target(params, target)
            by_distance = {}
            for g in range(params.state_count):
                start = config_at(g, params)
                distance = sum(1 for a, b in zip(start, target) if a != b)
                by_distance.setdefault(distance, set()).add(times[g])
            for distance, values in by_distance.items():
                assert len(values) == 1, f"distance {distance} gave {values}"

    def test_matches_pairwise_formula(self):
        params = ModelParams(4, 3)
        times = oracle.hitting_times_to_target(params, (2, 2, 2))
        for g in range(params.state_count):
            start = config_at(g, params)
            distance = sum(1 for a, b in zip(start, (2, 2, 2)) if a != b)
            if distance == 0:
                assert times[g] == 0
            else:
                query = exact.HittingQuery(params=params, hamming_distance=distance)
                assert times[g] == exact.general_hitting_time(query)

    def test_budget_error_carries_state_count(self):
        params = ModelParams(10, 10)
        with pytest.raises(BudgetExceededError) as info:
            oracle.expected_hitting_time(
                params, (1,) * 10, (2,) * 10
            )
        assert info.value.states == 10**10

    def test_env_var_budget(self, monkeypatch):
        params = ModelParams(3, 2)
        monkeypatch.setenv(oracle.ENV_BUDGET, "8")
        with pytest.raises(BudgetExceededError):
            oracle.expected_hitting_time(params, (1, 1), (2, 2))
        monkeypatch.setenv(oracle.ENV_BUDGET, "9")
        assert oracle.expected_hitting_time(params, (1, 1), (2, 2)) == 10


class TestRefinedSolves:
    def test_two_urns_twelve_balls(self):
        params = ModelParams(2, 12)  # 4096 states, the default budget
        value = oracle.expected_hitting_time(params, (1,) * 12, (2,) * 12)
        assert value == exact.full_transfer_time(params)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_absorbing_sets_match_modular_path(self, seed):
        rng = random.Random(seed)
        params = ModelParams(2, 9)
        absorbing = frozenset(rng.sample(range(params.state_count), 4))
        goal = frozenset({min(absorbing)})
        system = oracle.build_absorbing_system(params, absorbing)
        step = Fraction(1, params.degree)
        for solved, rhs in (
            (system.hitting_time_vector(), [Fraction(1)] * len(system.rows)),
            (
                system.absorption_probability_vector(goal),
                [step * sum(s in goal for s in e) for e in system.absorbing_edges],
            ),
        ):
            assert max(v.denominator for v in solved) > 10**6
            int_rows, int_rhs = linsolve._integer_rows(system.rows, rhs)
            assert solved == linsolve._solve_modular(int_rows, int_rhs)


class TestFloatFallback:
    def test_mid_size_agrees_with_formula(self):
        params = ModelParams(3, 7)  # 2187 states, beyond the exact default
        value, residual = oracle.expected_hitting_time_float(
            params, (1,) * 7, (2,) * 7
        )
        expected = float(exact.full_transfer_time(params))
        assert residual < 1e-9
        assert abs(value - expected) <= 1e-9 * expected

    def test_budget_guard(self):
        params = ModelParams(4, 8)  # 65536 states
        with pytest.raises(BudgetExceededError):
            oracle.expected_hitting_time_float(params, (1,) * 8, (2,) * 8)


class TestFirstVisitSuccessProb:
    def test_three_urns_two_balls(self):
        assert oracle.first_visit_success_prob(ModelParams(3, 2)) == Fraction(1, 4)

    def test_two_urns_three_balls(self):
        assert oracle.first_visit_success_prob(ModelParams(2, 3)) == Fraction(3, 7)

    def test_single_ball(self):
        assert oracle.first_visit_success_prob(ModelParams(4, 1)) == 0

    @pytest.mark.parametrize("urns,balls", [(2, 2), (2, 5), (3, 3), (4, 2), (5, 2)])
    def test_matches_closed_form(self, urns, balls):
        params = ModelParams(urns, balls)
        assert oracle.first_visit_success_prob(
            params
        ) == exact.first_visit_probability(params)


class TestLumpedFirstVisitProbs:
    def test_three_urns_two_balls(self):
        probs = oracle.lumped_first_visit_probs(ModelParams(3, 2))
        assert probs == [
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(3, 8),
            Fraction(1, 4),
        ]

    def test_four_urns_three_balls_endpoint(self):
        probs = oracle.lumped_first_visit_probs(ModelParams(4, 3))
        assert probs[0] == Fraction(5, 21)  # (16 - 1) / (64 - 1)

    @pytest.mark.parametrize("urns,balls", [(2, 4), (3, 3), (4, 2), (6, 3)])
    def test_cross_class_relation(self, urns, balls):
        probs = oracle.lumped_first_visit_probs(ModelParams(urns, balls))
        assert probs[0] == probs[-1]
        for i in range(1, balls):
            assert (urns - 1) * probs[2 * i - 2] + probs[2 * i - 1] == 1

    def test_needs_two_balls(self):
        with pytest.raises(DomainError):
            oracle.lumped_first_visit_probs(ModelParams(3, 1))


class TestFiberQuantities:
    def test_return_gap_examples(self):
        assert oracle.mean_return_gap_to_target_fiber(ModelParams(3, 2)) == 3
        assert oracle.mean_return_gap_to_target_fiber(ModelParams(2, 3)) == 4

    def test_return_gap_single_ball(self):
        assert oracle.mean_return_gap_to_target_fiber(ModelParams(5, 1)) == 1

    def test_first_segment_examples(self):
        assert oracle.expected_time_to_target_fiber(ModelParams(3, 2)) == 4
        assert oracle.expected_time_to_target_fiber(ModelParams(5, 3)) == 42
        assert oracle.expected_time_to_target_fiber(ModelParams(2, 2)) == 2

    def test_first_segment_needs_two_balls(self):
        with pytest.raises(DomainError):
            oracle.expected_time_to_target_fiber(ModelParams(3, 1))

    @pytest.mark.parametrize("urns,balls", [(2, 4), (3, 3), (4, 2), (2, 6)])
    def test_segment_matches_shrunken_transfer_time(self, urns, balls):
        params = ModelParams(urns, balls)
        smaller = ModelParams(urns, balls - 1)
        assert oracle.expected_time_to_target_fiber(params) == Fraction(
            balls, balls - 1
        ) * exact.full_transfer_time(smaller)


class TestAbsorbingSystem:
    def test_position_lookup(self):
        params = ModelParams(2, 2)
        system = oracle.build_absorbing_system(params, frozenset({3}))
        assert system.transient_states == (0, 1, 2)
        assert system.position(2) == 2
        with pytest.raises(ValueError):
            system.position(3)

    def test_empty_absorbing_set_rejected(self):
        from urnwalk.errors import SingularSystemError

        with pytest.raises(SingularSystemError):
            oracle.build_absorbing_system(ModelParams(2, 2), frozenset())
