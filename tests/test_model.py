import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urnwalk import model, oracle
from urnwalk.errors import BudgetExceededError, ConfigurationError, ValidationError
from urnwalk.model import (
    ModelParams,
    check_configuration,
    config_at,
    format_configuration,
    hamming_distance,
    index_of,
    is_exactly_lumpable,
    lump_class_of,
    lumped_kernel,
    parse_configuration,
)
from urnwalk.occupancy import build_occupancy_chain

from _reference import neighbors


@st.composite
def params_and_config(draw):
    urns = draw(st.integers(2, 5))
    balls = draw(st.integers(1, 4))
    params = ModelParams(urns=urns, balls=balls)
    config = tuple(
        draw(st.lists(st.integers(1, urns), min_size=balls, max_size=balls))
    )
    return params, config


@st.composite
def params_and_two_configs(draw):
    urns = draw(st.integers(2, 5))
    balls = draw(st.integers(1, 4))
    params = ModelParams(urns=urns, balls=balls)
    entries = st.lists(st.integers(1, urns), min_size=balls, max_size=balls)
    return params, tuple(draw(entries)), tuple(draw(entries))


def step_probability(source, destination, params):
    """One-step probability as the oracle's hitting system holds it.

    With every state but ``source`` absorbing, the system has one row: its
    diagonal is the degree times one minus the self-loop probability, and
    its absorbing edges list each state one move away, each with
    probability 1/degree.
    """
    a, b = index_of(source, params), index_of(destination, params)
    others = frozenset(range(params.state_count)) - {a}
    system = oracle.build_absorbing_system(params, others)
    if a == b:
        return 1 - Fraction(system.rows[0][0], params.degree)
    return Fraction(system.absorbing_edges[0].count(b), params.degree)


class TestModelParams:
    def test_rejects_single_urn(self):
        with pytest.raises(ValidationError):
            ModelParams(urns=1, balls=3)

    def test_rejects_zero_balls(self):
        with pytest.raises(ValidationError):
            ModelParams(urns=3, balls=0)

    def test_counts(self):
        params = ModelParams(urns=5, balls=3)
        assert params.state_count == 125
        assert params.degree == 12

    @pytest.mark.parametrize("field", ["urns", "balls"])
    @pytest.mark.parametrize("value", [1.5, Fraction(3, 1), "3", None])
    def test_non_integer_counts_rejected(self, field, value):
        counts = dict(urns=3, balls=2)
        counts[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            ModelParams(**counts)

    @pytest.mark.parametrize(
        "urns,balls,equal",
        [
            (np.int64(3), 2, (3, 2)),
            (3, np.uint8(2), (3, 2)),
            (3, True, (3, 1)),
            (np.int32(4), np.int16(3), (4, 3)),
        ],
    )
    def test_integer_like_counts_are_the_ints_they_equal(self, urns, balls, equal):
        params = ModelParams(urns, balls)
        assert params == ModelParams(*equal)
        assert (params.urns, params.balls) == equal
        assert type(params.urns) is int and type(params.balls) is int


class TestConfigurationIO:
    def test_parse_round_trip(self):
        params = ModelParams(urns=4, balls=3)
        config = parse_configuration(" 1, 3 ,2", params)
        assert config == (1, 3, 2)
        assert format_configuration(config) == "1,3,2"

    def test_parse_rejects_garbage(self):
        params = ModelParams(urns=4, balls=3)
        with pytest.raises(ConfigurationError):
            parse_configuration("1,x,2", params)

    def test_parse_rejects_wrong_length(self):
        params = ModelParams(urns=4, balls=3)
        with pytest.raises(ConfigurationError):
            parse_configuration("1,2", params)

    def test_parse_rejects_out_of_range(self):
        params = ModelParams(urns=4, balls=2)
        with pytest.raises(ConfigurationError):
            parse_configuration("1,5", params)

    @pytest.mark.parametrize(
        "config,equal",
        [
            ((np.int64(1), 2), (1, 2)),
            ([True, np.uint8(3)], (1, 3)),
            ([2, 2], (2, 2)),
        ],
    )
    def test_integer_like_entries_are_the_urns_they_equal(self, config, equal):
        params = ModelParams(urns=3, balls=2)
        placement = check_configuration(config, params)
        assert placement == equal
        assert type(placement) is tuple and all(type(v) is int for v in placement)
        assert index_of(config, params) == index_of(equal, params)
        assert lump_class_of(config, params) == lump_class_of(equal, params)

    @pytest.mark.parametrize("entry", [1.5, Fraction(3, 2), "1", None])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(ConfigurationError, match="urn index must be an integer"):
            check_configuration((entry, 2), ModelParams(urns=3, balls=2))

    @pytest.mark.parametrize("entry", [0, 4, np.int64(4), -1])
    def test_entries_outside_the_urns_rejected(self, entry):
        with pytest.raises(ConfigurationError, match=f"urn index {int(entry)} outside 1..3"):
            check_configuration((entry, 2), ModelParams(urns=3, balls=2))

    @given(params_and_config())
    def test_index_round_trip(self, pc):
        params, config = pc
        assert config_at(index_of(config, params), params) == config

    def test_index_is_bijective_small(self):
        params = ModelParams(urns=3, balls=3)
        indices = {
            index_of(config, params)
            for config in itertools.product((1, 2, 3), repeat=3)
        }
        assert indices == set(range(27))


class TestNeighbors:
    def test_two_urns_one_ball(self):
        params = ModelParams(urns=2, balls=1)
        assert neighbors((1,), params) == [(2,)]

    def test_three_urns_two_balls(self):
        params = ModelParams(urns=3, balls=2)
        assert set(neighbors((1, 1), params)) == {(2, 1), (3, 1), (1, 2), (1, 3)}

    def test_degree_exhaustive(self):
        # cross-check against a per-coordinate enumeration done from scratch
        params = ModelParams(urns=5, balls=3)
        for config in itertools.product(range(1, 6), repeat=3):
            found = neighbors(config, params)
            expected = {
                config[:i] + (urn,) + config[i + 1 :]
                for i in range(3)
                for urn in range(1, 6)
                if urn != config[i]
            }
            assert len(found) == 12
            assert len(set(found)) == 12
            assert set(found) == expected
            assert config not in found

    @given(params_and_config())
    def test_each_neighbor_one_move_away(self, pc):
        params, config = pc
        for other in neighbors(config, params):
            assert hamming_distance(config, other) == 1

    @given(params_and_config())
    def test_index_adjacency_matches_neighbors(self, pc):
        params, config = pc
        expected = sorted(index_of(other, params) for other in neighbors(config, params))
        adjacency = model.neighbor_indices(params)
        assert adjacency.shape == (params.state_count, params.degree)
        assert adjacency[index_of(config, params)].tolist() == expected


class TestTransitionProbability:
    def test_one_move(self):
        params = ModelParams(urns=3, balls=2)
        assert step_probability((1, 1), (2, 1), params) == Fraction(1, 4)

    def test_self_loop_zero(self):
        params = ModelParams(urns=3, balls=2)
        assert step_probability((1, 2), (1, 2), params) == 0

    def test_two_moves_zero(self):
        params = ModelParams(urns=5, balls=3)
        assert step_probability((1, 1, 1), (2, 2, 1), params) == 0

    def test_length_mismatch(self):
        params = ModelParams(urns=3, balls=2)
        with pytest.raises(ConfigurationError):
            step_probability((1, 1), (1, 1, 1), params)

    @given(params_and_config())
    def test_rows_sum_to_one(self, pc):
        params, config = pc
        total = sum(
            (step_probability(config, other, params)
             for other in neighbors(config, params)),
            Fraction(0),
        )
        assert total == 1

    @given(params_and_two_configs())
    def test_symmetric(self, pcc):
        params, a, b = pcc
        assert step_probability(a, b, params) == step_probability(
            b, a, params
        )


class TestLumpClasses:
    def test_all_source(self):
        params = ModelParams(urns=3, balls=4)
        assert lump_class_of((1, 1, 1, 1), params) == 1

    def test_all_target(self):
        params = ModelParams(urns=3, balls=4)
        assert lump_class_of((2, 2, 2, 2), params) == 8

    def test_mixed(self):
        params = ModelParams(urns=4, balls=3)
        assert lump_class_of((2, 1, 2), params) == 4

    def test_classes_partition_state_space(self):
        params = ModelParams(urns=3, balls=3)
        by_class = {}
        for config in itertools.product((1, 2, 3), repeat=3):
            label = lump_class_of(config, params)
            assert type(label) is int
            by_class.setdefault(label, []).append(config)
        assert set(by_class) == set(range(1, 7))
        assert sum(len(v) for v in by_class.values()) == 27


class TestLumpedKernel:
    def test_row_sums_enforced(self):
        kernel = lumped_kernel(ModelParams(urns=4, balls=4))
        assert len(kernel) == 8
        for row in kernel:
            assert sum(row.values(), Fraction(0)) == 1
            assert all(row.values())  # zero entries are left out

    @pytest.mark.parametrize("urns,balls", [(3, 2), (4, 4), (2, 5), (6, 3)])
    def test_bottom_rate(self, urns, balls):
        kernel = lumped_kernel(ModelParams(urns=urns, balls=balls))
        size = 2 * balls
        assert kernel[size - 1][size - 2] == Fraction(balls - 1, balls)

    def test_matches_aggregated_full_kernel(self):
        params = ModelParams(urns=3, balls=2)
        kernel = lumped_kernel(params)
        assert is_exactly_lumpable(
            params,
            lambda config: lump_class_of(config, params),
            lambda label: kernel[label - 1],
        )


def occupancy(config):
    return config.count(2)


def band_rows(chain):
    return lambda k: {k - 1: chain.down[k], k: chain.stay[k], k + 1: chain.up[k]}


class TestLumpabilityCertifier:
    def test_occupancy_bands_are_lumpable(self):
        params = ModelParams(urns=3, balls=3)
        chain = build_occupancy_chain(params)
        assert is_exactly_lumpable(params, occupancy, band_rows(chain))

    def test_perturbed_band_rate_is_rejected(self):
        params = ModelParams(urns=3, balls=3)
        rows = band_rows(build_occupancy_chain(params))

        def perturbed(k):
            row = rows(k)
            if k == 1:
                row[2] += Fraction(1, 100)  # up[1]
            return row

        assert not is_exactly_lumpable(params, occupancy, perturbed)

    def test_non_lumpable_partition_is_rejected(self):
        # {target} against the rest: states next to the target send mass
        # 1/degree into it, the others none, so no row fits the rest.
        params = ModelParams(urns=3, balls=2)
        target = (2, 2)
        step = Fraction(1, params.degree)
        rows_of_the_rest = ({False: 1}, {False: 1 - step, True: step})
        for rest_row in rows_of_the_rest:
            assert not is_exactly_lumpable(
                params,
                lambda config: config == target,
                lambda label: {False: Fraction(1)} if label else rest_row,
            )

    def test_budget_guard_builds_nothing(self, monkeypatch):
        def build(*args):
            raise AssertionError("built past the budget")

        monkeypatch.setattr(model, "neighbor_indices", build)
        monkeypatch.setattr(model, "_digits", build)
        with pytest.raises(BudgetExceededError) as info:
            is_exactly_lumpable(ModelParams(6, 10), build, build)
        assert info.value.states == 6**10

