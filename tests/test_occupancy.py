from fractions import Fraction

import pytest

from urnwalk import exact, occupancy, oracle
from urnwalk.errors import BudgetExceededError, ValidationError
from urnwalk.model import ModelParams


class TestKernel:
    def test_three_urns_two_balls_middle_row(self):
        chain = occupancy.build_occupancy_chain(ModelParams(3, 2))
        row = (chain.down[1], chain.stay[1], chain.up[1])
        assert row == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_two_urns_has_no_self_loops(self):
        chain = occupancy.build_occupancy_chain(ModelParams(2, 4))
        for k in range(5):
            assert chain.stay[k] == 0

    def test_large_chain_row_sums(self):
        chain = occupancy.build_occupancy_chain(ModelParams(6, 10))
        for row in zip(chain.down, chain.stay, chain.up):
            assert sum(row, Fraction(0)) == 1

    def test_top_state_reflects(self):
        chain = occupancy.build_occupancy_chain(ModelParams(4, 3))
        assert chain.down[3] == 1
        assert chain.stay[3] == 0

    def test_bands_are_validated(self):
        good = occupancy.build_occupancy_chain(ModelParams(3, 2))
        half, zero = Fraction(1, 2), Fraction(0)
        bad_bands = [
            # a row that sums to 5/4
            (good.down, good.stay, (half, half, zero)),
            # a negative rate, with the row still summing to 1
            (
                good.down,
                (Fraction(-1, 4),) + good.stay[1:],
                (Fraction(5, 4),) + good.up[1:],
            ),
            # a band one rate short
            (good.down[:2], good.stay, good.up),
            # a move below occupancy 0
            ((half,) + good.down[1:], (zero,) + good.stay[1:], good.up),
        ]
        for down, stay, up in bad_bands:
            with pytest.raises(ValidationError):
                occupancy.OccupancyChain(good.params, down, stay, up)


class TestPassageIncrementsBySolve:
    def test_five_urns_three_balls(self):
        chain = occupancy.build_occupancy_chain(ModelParams(5, 3))
        assert occupancy.passage_increments_by_solve(chain) == [4, 14, 124]

    def test_two_urns_two_balls_by_hand(self):
        chain = occupancy.build_occupancy_chain(ModelParams(2, 2))
        assert occupancy.passage_increments_by_solve(chain) == [1, 3]

    @pytest.mark.parametrize("urns", [2, 3, 5, 8])
    def test_single_ball(self, urns):
        chain = occupancy.build_occupancy_chain(ModelParams(urns, 1))
        assert occupancy.passage_increments_by_solve(chain) == [urns - 1]

    def test_matches_formulas_on_grid(self):
        for urns in range(2, 9):
            for balls in range(1, 13):
                params = ModelParams(urns, balls)
                chain = occupancy.build_occupancy_chain(params)
                assert occupancy.passage_increments_by_solve(
                    chain
                ) == exact.passage_increments(params)


class TestStationaryDistribution:
    @pytest.mark.parametrize("urns,balls", [(2, 3), (3, 4), (5, 3), (6, 5)])
    def test_detailed_balance(self, urns, balls):
        chain = occupancy.build_occupancy_chain(ModelParams(urns, balls))
        pi = occupancy.stationary_distribution(chain)
        assert sum(pi, Fraction(0)) == 1
        for k in range(balls):
            assert pi[k] * chain.up[k] == pi[k + 1] * chain.down[k + 1]


class TestAggregation:
    @pytest.mark.parametrize("urns,balls", [(3, 3), (2, 4), (4, 1), (4, 3), (2, 8)])
    def test_small_spaces_aggregate_exactly(self, urns, balls):
        assert occupancy.aggregation_matches_full_walk(ModelParams(urns, balls))

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError) as info:
            occupancy.aggregation_matches_full_walk(ModelParams(6, 10))
        assert info.value.states == 6**10


class TestBridgeToFullWalk:
    @pytest.mark.parametrize("urns,balls", [(2, 3), (3, 2), (2, 4), (4, 2)])
    def test_increment_total_equals_dense_hitting_time(self, urns, balls):
        params = ModelParams(urns, balls)
        chain = occupancy.build_occupancy_chain(params)
        total = sum(occupancy.passage_increments_by_solve(chain), Fraction(0))
        solved = oracle.expected_hitting_time(
            params, (1,) * balls, (2,) * balls
        )
        assert total == solved
