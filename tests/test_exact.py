from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urnwalk import checks, exact, occupancy, oracle
from urnwalk.errors import (
    DomainError,
    IdenticalConfigurationsError,
    ValidationError,
)
from urnwalk.model import ModelParams


class TestFullTransferTime:
    def test_five_urns_three_balls(self):
        assert exact.full_transfer_time(ModelParams(5, 3)) == 142

    def test_four_urns_four_balls(self):
        assert exact.full_transfer_time(ModelParams(4, 4)) == 292

    @pytest.mark.parametrize("urns", range(2, 9))
    def test_single_ball_is_geometric(self, urns):
        assert exact.full_transfer_time(ModelParams(urns, 1)) == urns - 1

    @pytest.mark.parametrize("balls", range(1, 11))
    def test_three_urn_series(self, balls):
        # known three-urn value: (2M/3) * sum(3**k / k)
        expected = Fraction(2 * balls, 3) * sum(
            Fraction(3**k, k) for k in range(1, balls + 1)
        )
        assert exact.full_transfer_time(ModelParams(3, balls)) == expected


class TestPassageIncrements:
    def test_five_urns_three_balls_terms(self):
        params = ModelParams(5, 3)
        assert [exact.passage_increment(params, k) for k in range(3)] == [4, 14, 124]

    def test_four_urns_four_balls_terms(self):
        params = ModelParams(4, 4)
        assert [exact.passage_increment(params, k) for k in range(4)] == [3, 7, 27, 255]

    @pytest.mark.parametrize("urns,balls", [(2, 3), (3, 1), (5, 4), (8, 2)])
    def test_first_increment_is_geometric(self, urns, balls):
        assert exact.passage_increment(ModelParams(urns, balls), 0) == urns - 1

    def test_recursion_examples(self):
        assert exact.passage_increments(ModelParams(5, 3)) == [4, 14, 124]
        assert exact.passage_increments(ModelParams(2, 2)) == [1, 3]
        assert exact.passage_increments(ModelParams(3, 1)) == [2]

    def test_recursion_matches_closed_form(self):
        for urns in range(2, 9):
            for balls in range(1, 13):
                params = ModelParams(urns, balls)
                assert exact.passage_increments(params) == [
                    exact.passage_increment(params, k) for k in range(balls)
                ]

    def test_index_out_of_range(self):
        params = ModelParams(3, 2)
        with pytest.raises(DomainError):
            exact.passage_increment(params, 2)
        with pytest.raises(DomainError):
            exact.passage_increment(params, -1)

    def test_strictly_increasing_on_grid(self):
        for urns in range(2, 9):
            for balls in range(2, 13):
                increments = exact.passage_increments(ModelParams(urns, balls))
                assert all(a < b for a, b in zip(increments, increments[1:]))


class TestGeneralHittingTime:
    def test_full_distance_is_transfer_time(self):
        query = exact.HittingQuery(params=ModelParams(5, 3), hamming_distance=3)
        assert exact.general_hitting_time(query) == 142

    def test_distance_one(self):
        query = exact.HittingQuery(params=ModelParams(5, 3), hamming_distance=1)
        assert exact.general_hitting_time(query) == 124

    def test_distance_two(self):
        query = exact.HittingQuery(params=ModelParams(4, 4), hamming_distance=2)
        assert exact.general_hitting_time(query) == 282

    def test_zero_distance_rejected(self):
        with pytest.raises(IdenticalConfigurationsError):
            exact.HittingQuery(params=ModelParams(5, 3), hamming_distance=0)
        with pytest.raises(IdenticalConfigurationsError):
            exact.HittingQuery.from_configurations(
                ModelParams(5, 3), (1, 2, 3), (1, 2, 3)
            )

    def test_distance_beyond_balls_rejected(self):
        with pytest.raises(DomainError):
            exact.HittingQuery(params=ModelParams(5, 3), hamming_distance=4)

    @pytest.mark.parametrize("distance", [1.5, Fraction(3, 2), "2"])
    def test_non_integer_distance_rejected(self, distance):
        # 1.5 would otherwise give the distance-1 time
        with pytest.raises(ValidationError, match="distance must be an integer"):
            exact.HittingQuery(params=ModelParams(3, 4), hamming_distance=distance)

    @pytest.mark.parametrize("distance,equal", [(True, 1), (np.int64(2), 2)])
    def test_integer_like_distance_is_the_int_it_equals(self, distance, equal):
        params = ModelParams(3, 4)
        query = exact.HittingQuery(params=params, hamming_distance=distance)
        assert type(query.hamming_distance) is int
        assert query == exact.HittingQuery(params=params, hamming_distance=equal)
        assert exact.general_hitting_time(query) == exact.general_hitting_time(
            exact.HittingQuery(params=params, hamming_distance=equal)
        )

    def test_from_configurations(self):
        query = exact.HittingQuery.from_configurations(
            ModelParams(5, 3), (1, 1, 1), (1, 1, 2)
        )
        assert query.hamming_distance == 1

    def test_from_configurations_reads_any_sequence(self):
        params = ModelParams(3, 2)
        with pytest.raises(IdenticalConfigurationsError):
            exact.HittingQuery.from_configurations(params, [1, 2], (np.int64(1), 2))
        query = exact.HittingQuery.from_configurations(params, [True, 2], (1, np.uint8(3)))
        assert query == exact.HittingQuery(params=params, hamming_distance=1)

    def test_collapse_to_transfer_time_on_grid(self):
        for urns in range(2, 9):
            for balls in range(1, 13):
                params = ModelParams(urns, balls)
                query = exact.HittingQuery(params=params, hamming_distance=balls)
                assert exact.general_hitting_time(query) == exact.full_transfer_time(
                    params
                )


class TestBallInduction:
    def test_examples(self):
        assert exact.full_transfer_time_by_ball_induction(ModelParams(5, 3)) == 142
        assert exact.full_transfer_time_by_ball_induction(ModelParams(2, 1)) == 1

    def test_three_urns_two_balls_by_hand(self):
        # s(1) = 2, s(2) = 2*2 + 2*3 = 10
        assert exact.full_transfer_time_by_ball_induction(ModelParams(3, 2)) == 10
        assert exact.full_transfer_time(ModelParams(3, 2)) == 10

    def test_matches_closed_form_on_grid(self):
        for urns in range(2, 9):
            for balls in range(1, 13):
                params = ModelParams(urns, balls)
                assert exact.full_transfer_time_by_ball_induction(
                    params
                ) == exact.full_transfer_time(params)

    def test_large_ball_count_exact(self):
        params = ModelParams(3, 64)
        closed = exact.full_transfer_time(params)
        assert exact.full_transfer_time_by_ball_induction(params) == closed
        assert sum(exact.passage_increments(params), Fraction(0)) == closed


def closed_form_increments(params):
    return [exact.passage_increment(params, k) for k in range(params.balls)]


class TestSumIdentity:
    """The closed-form increments and the closed form's terms have one total."""

    def test_five_urns_three_balls(self):
        params = ModelParams(5, 3)
        increments = closed_form_increments(params)
        terms = exact.transfer_time_terms(params)
        assert increments == [4, 14, 124]
        assert terms == [12, 30, 100]
        assert sum(increments) == sum(terms) == 142
        assert checks.termwise_difference_witness(params).passed

    def test_four_urns_four_balls(self):
        params = ModelParams(4, 4)
        total = sum(exact.transfer_time_terms(params))
        assert total == sum(closed_form_increments(params)) == 292

    def test_two_urns_five_balls(self):
        params = ModelParams(2, 5)
        assert sum(exact.transfer_time_terms(params)) == sum(
            closed_form_increments(params)
        )

    def test_holds_across_grid(self):
        row = checks.sum_identity(checks.grid_cells(8, 12))
        assert row.passed and row.cells == 7 * 12


class TestFirstVisitProbability:
    def test_single_ball_zero(self):
        assert exact.first_visit_probability(ModelParams(7, 1)) == 0

    def test_small_values(self):
        assert exact.first_visit_probability(ModelParams(2, 2)) == Fraction(1, 3)
        assert exact.first_visit_probability(ModelParams(3, 2)) == Fraction(1, 4)

    def test_two_urns_escape_components(self):
        # the first fiber visit misses with probability 8/15; from the
        # fiber's off-target class the next visit hits with the same 8/15
        params = ModelParams(2, 4)
        first_miss = 1 - exact.first_visit_probability(params)
        repeat_hit = oracle.lumped_first_visit_probs(params)[6]
        assert first_miss == Fraction(8, 15) == repeat_hit

    def test_escape_ratio_is_urns_minus_one(self):
        cells = [ModelParams(3, 2), ModelParams(4, 3)]
        assert checks.fiber_checks(cells, budget=1024).passed


class TestClassicalTwoUrnReduction:
    @pytest.mark.parametrize("balls", range(1, 9))
    def test_matches_dense_solve(self, balls):
        params = ModelParams(2, balls)
        assert exact.full_transfer_time(params) == oracle.expected_hitting_time(
            params, (1,) * balls, (2,) * balls
        )


class TestLinearTimeRoutes:
    """The closed form, the forward recursion and the occupancy solve are
    three separate O(M) routes to the same increments."""

    @given(st.integers(2, 9), st.integers(1, 60), st.data())
    def test_routes_agree(self, urns, balls, data):
        params = ModelParams(urns, balls)
        recursion = exact.passage_increments(params)
        distance = data.draw(st.integers(1, balls))
        query = exact.HittingQuery(params=params, hamming_distance=distance)
        assert exact.general_hitting_time(query) == sum(
            recursion[balls - distance :], Fraction(0)
        )
        assert [exact.passage_increment(params, k) for k in range(balls)] == recursion
        chain = occupancy.build_occupancy_chain(params)
        for row in zip(chain.down, chain.stay, chain.up):
            assert sum(row, Fraction(0)) == 1
        assert occupancy.passage_increments_by_solve(chain) == recursion

    def test_thousand_balls(self):
        params = ModelParams(5, 1000)
        recursion = exact.passage_increments(params)
        assert list(exact._closed_form_increments(params)) == recursion
        chain = occupancy.build_occupancy_chain(params)
        assert occupancy.passage_increments_by_solve(chain) == recursion
        query = exact.HittingQuery(params=params, hamming_distance=1000)
        assert exact.general_hitting_time(query) == exact.full_transfer_time(params)
        assert exact.passage_increment(params, 999) == recursion[999]
