from fractions import Fraction

import numpy as np
import pytest

from urnwalk import exact, occupancy, oracle
from urnwalk.errors import BudgetExceededError, ValidationError
from urnwalk.model import ModelParams


class TestKernel:
    def test_three_urns_two_balls_middle_row(self):
        chain = occupancy.build_occupancy_chain(ModelParams(3, 2))
        row = (chain.down[1], chain.stay[1], chain.up[1])
        assert row == (2, 1, 1)
        assert tuple(Fraction(count, chain.params.degree) for count in row) == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 4),
        )

    def test_two_urns_has_no_self_loops(self):
        chain = occupancy.build_occupancy_chain(ModelParams(2, 4))
        for k in range(5):
            assert chain.stay[k] == 0

    def test_large_chain_row_sums(self):
        chain = occupancy.build_occupancy_chain(ModelParams(6, 10))
        for row in zip(chain.down, chain.stay, chain.up):
            assert sum(Fraction(count, chain.params.degree) for count in row) == 1

    def test_top_state_reflects(self):
        chain = occupancy.build_occupancy_chain(ModelParams(4, 3))
        assert Fraction(chain.down[3], chain.params.degree) == 1
        assert chain.stay[3] == 0

    def test_bands_are_validated(self):
        # moves out of degree 4: down (0, 2, 4), stay (2, 1, 0), up (2, 1, 0)
        good = occupancy.build_occupancy_chain(ModelParams(3, 2))
        bad_bands = [
            # a row that counts 5 moves out of 4
            (good.down, good.stay, (2, 2, 0)),
            # a negative count, with the row still counting 4 moves
            (good.down, (-1,) + good.stay[1:], (5,) + good.up[1:]),
            # a band one count short
            (good.down[:2], good.stay, good.up),
            # a move below occupancy 0
            ((2,) + good.down[1:], (0,) + good.stay[1:], good.up),
            # a count that is no integer, with the row still counting 4 moves
            (good.down, (2, 1.5, 0), (2, 0.5, 0)),
        ]
        for down, stay, up in bad_bands:
            with pytest.raises(ValidationError):
                occupancy.OccupancyChain(good.params, down, stay, up)

    def test_counts_are_stored_as_ints(self):
        good = occupancy.build_occupancy_chain(ModelParams(3, 2))
        chain = occupancy.OccupancyChain(
            good.params, np.array(good.down), (2, True, False), good.up
        )
        assert chain == good
        assert {type(count) for band in (chain.down, chain.stay) for count in band} == {int}


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
        weights = occupancy.stationary_distribution(chain)
        assert sum(weights) == urns**balls
        for k in range(balls):
            assert weights[k] * chain.up[k] == weights[k + 1] * chain.down[k + 1]


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
