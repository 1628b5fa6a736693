import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnwalk import linsolve, model, oracle
from urnwalk.errors import BudgetExceededError, ConfigurationError, ValidationError
from urnwalk.model import (
    ModelParams,
    check_configuration,
    config_at,
    format_configuration,
    hamming_distance,
    index_of,
    is_exactly_lumpable,
    lump_classes,
    lumped_kernel,
    parse_configuration,
)
from urnwalk import occupancy as occupancy_module
from urnwalk.occupancy import aggregation_matches_full_walk, build_occupancy_chain

from _reference import (
    absorbing_rows,
    integer_rows,
    lump_class,
    lumpable_by_class,
    neighbor_indices,
    neighbors,
    rows_times,
)


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
    the chance of being absorbed at ``destination`` is the one-step
    probability, which must be the reference adjacency's count of
    ``destination`` over the degree.
    """
    a, b = index_of(source, params), index_of(destination, params)
    others = frozenset(range(params.state_count)) - {a}
    system = oracle.build_absorbing_system(params, others)
    if a == b:
        return 1 - Fraction(system.rows[0][0], params.degree)
    probability = system.absorption_probability_vector(frozenset({b}))[0]
    moves = neighbor_indices(params)[a].tolist()
    assert probability == Fraction(moves.count(b), params.degree)
    return probability


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
        labels = [lump_classes(np.array([placement])).tolist() for placement in (config, equal)]
        assert labels[0] == labels[1]

    @pytest.mark.parametrize("entry", [1.5, Fraction(3, 2), "1", None])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(ConfigurationError, match="urn index must be an integer"):
            check_configuration((entry, 2), ModelParams(urns=3, balls=2))

    @pytest.mark.parametrize(
        "config", [5, None, np.int64(3), np.array(3), 1.5, {1, 2}, {1: 1, 2: 2}]
    )
    def test_placement_that_is_no_sequence_rejected(self, config):
        params = ModelParams(urns=3, balls=2)
        for check in (check_configuration, index_of):
            with pytest.raises(ConfigurationError, match="placement must be a sequence"):
                check(config, params)

    @pytest.mark.parametrize("entry", [0, 4, np.int64(4), -1])
    def test_entries_outside_the_urns_rejected(self, entry):
        with pytest.raises(ConfigurationError, match=f"urn index {int(entry)} outside 1..3"):
            check_configuration((entry, 2), ModelParams(urns=3, balls=2))

    @given(params_and_config())
    def test_index_round_trip(self, pc):
        params, config = pc
        assert config_at(index_of(config, params), params) == config

    @pytest.mark.parametrize("index", [1.5, 1.0, Fraction(1), "1", None])
    def test_non_integer_state_index_rejected(self, index):
        with pytest.raises(ValidationError, match="state index must be an integer"):
            config_at(index, ModelParams(urns=3, balls=2))

    @pytest.mark.parametrize("index", [np.int64(5), np.uint16(5), 5])
    def test_state_index_gives_a_tuple_of_ints(self, index):
        config = config_at(index, ModelParams(urns=3, balls=2))
        assert config == (3, 2)
        assert all(type(entry) is int for entry in config)

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
        adjacency = neighbor_indices(params)
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


def reference_placements(params):
    """Every placement in index order, ball 1 changing fastest."""
    urns = range(1, params.urns + 1)
    return [config[::-1] for config in itertools.product(urns, repeat=params.balls)]


class TestLumpClasses:
    def test_all_source(self):
        assert lump_classes(np.array([(1, 1, 1, 1)])).tolist() == [1]

    def test_all_target(self):
        assert lump_classes(np.array([(2, 2, 2, 2)])).tolist() == [8]

    def test_mixed(self):
        assert lump_classes(np.array([(2, 1, 2), (2, 2, 1), (3, 4, 1)])).tolist() == [4, 5, 1]

    def test_classes_partition_state_space(self):
        labels = lump_classes(model._placements(ModelParams(urns=3, balls=3)))
        assert labels.dtype == np.int64 and labels.shape == (27,)
        assert set(labels.tolist()) == set(range(1, 7))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 6))
    def test_classifiers_match_the_per_placement_rules(self, urns, balls):
        # lump_classes and the occupancy row's urn-2 count, on every
        # placement of the walk, against one-placement-at-a-time references
        params = ModelParams(urns, balls)
        configs = reference_placements(params)
        placements = model._placements(params)
        assert placements.tolist() == [list(config) for config in configs]
        assert lump_classes(placements).tolist() == [lump_class(c) for c in configs]
        seen = []

        def spy(params, classify, row_of):
            seen.append(classify(placements).tolist())
            return True

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(occupancy_module, "is_exactly_lumpable", spy)
            aggregation_matches_full_walk(params)
        assert seen == [[config.count(2) for config in configs]]


class TestLumpedKernel:
    def test_row_sums_enforced(self):
        params = ModelParams(urns=4, balls=4)
        kernel = lumped_kernel(params)
        assert len(kernel) == 8
        for row in kernel:
            assert all(type(count) is int for count in row.values())
            assert sum(row.values()) == params.degree
            assert all(row.values())  # zero entries are left out

    @pytest.mark.parametrize("urns,balls", [(3, 2), (4, 4), (2, 5), (6, 3)])
    def test_bottom_rate(self, urns, balls):
        kernel = lumped_kernel(ModelParams(urns=urns, balls=balls))
        size = 2 * balls
        # (balls - 1) / balls of the degree (urns - 1) * balls
        assert kernel[size - 1][size - 2] == (balls - 1) * (urns - 1)

    def test_matches_aggregated_full_kernel(self):
        params = ModelParams(urns=3, balls=2)
        kernel = lumped_kernel(params)
        assert is_exactly_lumpable(params, lump_classes, lambda label: kernel[label - 1])


def occupancy(placements):
    return (placements == 2).sum(axis=1)


def band_rows(chain):
    return lambda k: {k - 1: chain.down[k], k: chain.stay[k], k + 1: chain.up[k]}


@st.composite
def labelled_kernels(draw):
    """A walk of at most 300 states, an int or bool labelling of its
    placements (one class up to one per state; random, or one of the
    lumpable occupancy, 2k-class, last-ball and one-per-state labellings)
    and the kernel of move counts read off each class's first state, with
    one count moved within one row half of the time."""
    params = draw(st.sampled_from(WALKS_UP_TO_300))
    states, placements = params.state_count, model._placements(params)
    in_target = placements == 2
    kind = draw(st.sampled_from(["int", "occupancy", "2k", "every state", "bool", "last"]))
    if kind == "int":
        size = draw(st.integers(1, states))
        labels = st.lists(st.integers(0, size - 1), min_size=states, max_size=states)
        labels = np.array(draw(labels))
    elif kind == "occupancy":
        labels = in_target.sum(axis=1)
    elif kind == "2k":
        labels = lump_classes(placements)
    elif kind == "every state":
        labels = np.arange(states)
    elif kind == "bool":
        labels = np.array(draw(st.lists(st.booleans(), min_size=states, max_size=states)))
    else:
        labels = in_target[:, -1]
    if labels.dtype != bool:  # any distinct integers name the classes
        labels = labels * draw(st.sampled_from([1, -1, 7])) + draw(st.integers(-5, 5))
    adjacency = neighbor_indices(params)
    names, first = np.unique(labels, return_index=True)
    rows = {}
    for label, state in zip(names.tolist(), first.tolist()):
        row = rows[label] = {}
        for other in labels[adjacency[state]].tolist():
            row[other] = row.get(other, 0) + 1
    if len(names) > 1 and draw(st.booleans()):
        row = rows[draw(st.sampled_from(names.tolist()))]
        source = draw(st.sampled_from(sorted(row)))
        destination = draw(st.sampled_from([x for x in names.tolist() if x != source]))
        row[source] -= 1
        row[destination] = row.get(destination, 0) + 1
    return params, labels, rows


class TestLumpabilityCertifier:
    def test_occupancy_bands_are_lumpable(self):
        params = ModelParams(urns=3, balls=3)
        chain = build_occupancy_chain(params)
        assert is_exactly_lumpable(params, occupancy, band_rows(chain))

    def test_perturbed_band_rate_is_rejected(self):
        params = ModelParams(urns=3, balls=3)
        rows = band_rows(build_occupancy_chain(params))

        # up[1] off by a whole move, or by part of one: a count that is no
        # integer is refused, not raised on
        for change in (1, Fraction(1, 2), 0.5, 1.0):

            def perturbed(k):
                row = rows(k)
                if k == 1:
                    row[2] += change  # up[1]
                return row

            assert not is_exactly_lumpable(params, occupancy, perturbed)
        # one count moved within a kernel row: each row still sums to the
        # degree, so only the states' neighbour counts can tell, on the
        # occupancy bands and on the 2k classes alike; the last three walks
        # (up to 65,536 states) sit at the budget's edge
        for urns, balls in ((3, 4), (4, 5), (2, 16), (3, 10), (4, 8)):
            params = ModelParams(urns, balls)
            rows = band_rows(build_occupancy_chain(params))
            kernel = lumped_kernel(params)

            def moved_band(k):
                row = rows(k)
                if k == 1:
                    row[1], row[2] = row[1] + 1, row[2] - 1  # stay, up
                return row

            def moved_class(label):
                row = dict(kernel[label - 1])
                if label == 2:
                    row[1], row[2] = row[1] - 1, row.get(2, 0) + 1
                return row

            assert is_exactly_lumpable(params, occupancy, rows)
            assert not is_exactly_lumpable(params, occupancy, moved_band)
            assert is_exactly_lumpable(params, lump_classes, lambda label: kernel[label - 1])
            assert not is_exactly_lumpable(params, lump_classes, moved_class)

    def test_bool_and_numpy_counts_are_the_ints_they_equal(self):
        params = ModelParams(urns=3, balls=3)
        kernel = lumped_kernel(params)
        rows = band_rows(build_occupancy_chain(params))

        def as_numpy(row):  # counts of 1 as True, the others as uint8
            return {c: np.uint8(n) if n > 1 else bool(n) for c, n in row.items()}

        assert any(count == 1 for row in kernel for count in row.values())  # a True
        assert is_exactly_lumpable(params, lump_classes, lambda c: as_numpy(kernel[c - 1]))
        assert is_exactly_lumpable(params, occupancy, lambda k: as_numpy(rows(k)))

    def test_non_lumpable_partition_is_rejected(self):
        # {target} against the rest: states next to the target send one
        # move into it, the others none, so no row fits the rest.
        params = ModelParams(urns=3, balls=2)
        target, degree = (2, 2), params.degree
        rows_of_the_rest = ({False: degree}, {False: degree - 1, True: 1})
        for rest_row in rows_of_the_rest:
            assert not is_exactly_lumpable(
                params,
                lambda placements: (placements == target).all(axis=1),
                lambda label: {False: degree} if label else rest_row,
            )

    def test_budget_guard_builds_nothing(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("built past the budget")

        for name in ("neighbour_counts", "_placements", "_axis_sums"):
            monkeypatch.setattr(model, name, build)
        # the labels, their classes, the move counts, the indicator matrix
        # and the expected counts
        for name in ("asarray", "unique", "zeros", "eye"):
            monkeypatch.setattr(model.np, name, build)
        with pytest.raises(BudgetExceededError) as info:
            is_exactly_lumpable(ModelParams(6, 10), build, build)
        assert info.value.states == 6**10

    def test_counts_neighbours_without_a_walk_operator(self, monkeypatch):
        def build(*args):
            raise AssertionError("built a walk operator")

        monkeypatch.setattr(model, "WalkOperator", build)
        params = ModelParams(urns=3, balls=4)
        kernel = lumped_kernel(params)
        assert is_exactly_lumpable(params, occupancy, band_rows(build_occupancy_chain(params)))
        assert is_exactly_lumpable(params, lump_classes, lambda c: kernel[c - 1])

    def test_classify_is_called_once_on_every_placement(self):
        params = ModelParams(urns=3, balls=4)
        kernel = lumped_kernel(params)
        calls = []

        def spy(placements):
            calls.append(placements.tolist())
            return lump_classes(placements)

        assert is_exactly_lumpable(params, spy, lambda c: kernel[c - 1])
        assert calls == [[list(config) for config in reference_placements(params)]]

    @settings(max_examples=80, deadline=None)
    @given(labelled_kernels())
    def test_one_pass_verdict_matches_the_per_class_reference(self, case):
        params, labels, rows = case
        verdict = is_exactly_lumpable(params, lambda placements: labels, rows.__getitem__)
        assert verdict == lumpable_by_class(
            params, lambda placements: labels, rows.__getitem__
        )

    @pytest.mark.parametrize(
        "labels",
        [
            lambda p: lump_classes(p)[:-1],  # one label short
            lambda p: lump_classes(p)[:, None],  # 2-D
            lambda p: lump_classes(p).astype(float),
            lambda p: lump_classes(p).astype(object),
        ],
        ids=["length", "2-D", "float", "object"],
    )
    def test_refuses_labels_that_are_no_integer_vector(self, labels):
        params = ModelParams(urns=3, balls=4)
        kernel = lumped_kernel(params)
        with pytest.raises(ValueError, match="one integer or bool label for each of 81"):
            is_exactly_lumpable(params, labels, lambda c: kernel[c - 1])


@st.composite
def walk_cases(draw):
    """A walk of at most 300 states, a set of absorbed states (none, a few,
    or all, which leaves no unknowns) and an integer vector over the rest."""
    params = draw(st.sampled_from(WALKS_UP_TO_300))
    states = st.integers(0, params.state_count - 1)
    absorbing = draw(
        st.one_of(
            st.frozensets(states, max_size=8),
            st.just(frozenset(range(params.state_count))),
        )
    )
    size = params.state_count - len(absorbing)
    x = draw(st.lists(st.integers(-(10**6), 10**6), min_size=size, max_size=size))
    return params, absorbing, x


WALKS_UP_TO_300 = [ModelParams(n, m) for n in range(2, 8) for m in range(1, 9) if n**m <= 300]


def state_mask(params, states):
    mask = np.zeros(params.state_count, dtype=bool)
    mask[list(states)] = True
    return mask


def walk_operator(params, absorbing):
    return model.WalkOperator(params, state_mask(params, absorbing))


def counts_match_reference(params, inside):
    """Whether each placement's ``neighbour_counts`` in the set ``inside``
    is the reference adjacency's."""
    counts = np.isin(neighbor_indices(params), list(inside)).sum(axis=1)
    return model.neighbour_counts(params, state_mask(params, inside)).tolist() == counts.tolist()


def matches_reference(params, absorbing, x):
    """Whether the walk operator's rows and its int64, Python-int and float
    products equal the dict-row reference on ``x``, and the neighbour counts
    in the absorbed set the reference adjacency's."""
    walk = walk_operator(params, absorbing)
    rows = absorbing_rows(params, absorbing)
    want = rows_times(rows, [Fraction(v) for v in x])
    exact = walk.times(np.array(x, dtype=object)).tolist()
    return (
        len(walk) == len(rows)
        and list(walk) == rows
        and walk.times(np.array(x, dtype=np.int64)).tolist() == want
        and exact == want
        and all(type(v) is int for v in exact)
        # every value stays below 2**53, so the float product is exact too
        and walk.times(np.array(x, dtype=np.float64)).tolist() == want
        and counts_match_reference(params, absorbing)
    )


def skips_ball_one(axis_sums):
    """A mutant of ``model._axis_sums`` that leaves ball 1's axis out."""

    def mutant(full, urns, balls):
        grid = full.reshape(-1, urns, *full.shape[1:])  # ball 1: the least significant digit
        left_out = np.broadcast_to(grid.sum(axis=1, keepdims=True), grid.shape)
        return axis_sums(full, urns, balls) - left_out.reshape(full.shape)

    return mutant


def refused(solver, rows):
    """Whether ``solver`` refuses ``rows`` at its certificate gate."""
    try:
        solver(rows, [1] * len(rows))
    except ValueError as error:
        return "needs a certified" in str(error)
    return False


def closed_form_bits(params, unknowns):
    """``ceil(unknowns * log2(degree**2 + degree))``, in exact integers."""
    d = params.degree
    return ((d * d + d) ** unknowns - 1).bit_length()


def verdict_matches_reference(make_operator, params, mask):
    """Whether the verdict of ``make_operator(params, mask)`` is False exactly
    when nothing is absorbed and when the generic certificate search's on
    the reference rows is, and otherwise the closed form, which bounds
    every row's sum of squares by ``degree**2 + degree`` and so is at least
    the search's bit count; and whether every refused operator is refused
    by both solvers at their gate."""
    walk = make_operator(params, mask)
    want = integer_rows(absorbing_rows(params, np.flatnonzero(mask).tolist())).certificate
    got = walk.certificate
    if not (got is False) == (want is False) == (not mask.any()):
        return False
    if want is not False:
        return got == closed_form_bits(params, len(walk)) >= want
    return refused(linsolve.solve_exact, walk) and refused(linsolve.solve_float, walk)


class ClaimsEveryVerdict(model.WalkOperator):
    """A walk operator that claims a bit count of 0, which equals False, for
    the empty mask, whose matrix has the all-ones vector in its kernel."""

    @property
    def certificate(self):
        verdict = super().certificate
        return 0 if verdict is False else verdict


@st.composite
def absorbing_masks(draw):
    """A walk of at most 243 states and a random mask of absorbed states."""
    params = draw(st.sampled_from([p for p in WALKS_UP_TO_300 if p.state_count <= 243]))
    size = params.state_count
    return params, np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))


class TestWalkOperatorVerdict:
    """The walk operator's verdict, which no solve searches for, against the
    generic certificate search on the reference rows."""

    @given(absorbing_masks())
    @example((ModelParams(2, 1), np.zeros(2, dtype=bool)))  # nothing absorbed
    @example((ModelParams(3, 2), np.zeros(9, dtype=bool)))
    @example((ModelParams(2, 1), np.ones(2, dtype=bool)))  # no unknowns
    @example((ModelParams(2, 1), np.array([True, False])))  # 1 bit; the search's 0
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_the_search(self, case):
        assert verdict_matches_reference(model.WalkOperator, *case)

    @pytest.mark.parametrize("urns, balls", [(2, 1), (3, 2), (2, 4)])
    def test_comparison_catches_a_verdict_for_the_empty_mask(self, urns, balls):
        params = ModelParams(urns, balls)
        some = np.arange(params.state_count) % 3 == 0
        assert verdict_matches_reference(ClaimsEveryVerdict, params, some)
        empty = np.zeros(params.state_count, dtype=bool)
        assert not verdict_matches_reference(ClaimsEveryVerdict, params, empty)


class TestWalkOperator:
    """The matrix-free walk operator and the neighbour counts against the
    rows and counts built from the reference adjacency table."""

    @given(walk_cases())
    @example((ModelParams(2, 1), frozenset({0, 1}), []))  # no unknowns
    @example((ModelParams(3, 2), frozenset(), list(range(9))))  # nothing absorbed
    @settings(max_examples=60, deadline=None)
    def test_rows_and_products_match_the_reference(self, case):
        assert matches_reference(*case)

    @pytest.mark.parametrize("urns, balls", [(2, 4), (3, 3), (2, 7)])
    def test_comparison_catches_an_operator_that_skips_an_axis(
        self, monkeypatch, request, urns, balls
    ):
        # integer products sum axis by axis; float ones multiply by run
        # kernels built from the same sums (2x7: a run of 5 balls and one of 2),
        # which the cache keeps: it is emptied so that the mutant builds them,
        # and again after, so that no later test reads the mutant's
        params = ModelParams(urns, balls)
        case = (params, frozenset({0}), list(range(1, params.state_count)))
        assert matches_reference(*case)
        model._ball_runs.cache_clear()
        request.addfinalizer(model._ball_runs.cache_clear)
        monkeypatch.setattr(model, "_axis_sums", skips_ball_one(model._axis_sums))
        floats = walk_operator(params, frozenset({0})).times(np.array(case[2], dtype=np.float64))
        want = rows_times(absorbing_rows(params, frozenset({0})), [Fraction(v) for v in case[2]])
        assert floats.tolist() != want
        assert not matches_reference(*case)
        assert not counts_match_reference(params, frozenset({0}))

    @pytest.mark.parametrize("urns, balls", [(2, 9), (3, 5), (7, 2)])
    def test_float_products_in_small_matrix_calls(self, monkeypatch, urns, balls):
        # 49 multiply-adds a call: every run's rows split into several calls
        monkeypatch.setattr(model, "_MATMUL_SIZE", 49)
        params = ModelParams(urns, balls)
        case = (params, frozenset({0, 5}), list(range(-2, params.state_count - 4)))
        assert matches_reference(*case)

    def test_runs_hold_at_most_32_placements(self):
        runs = model._ball_runs
        assert [(low, len(kernel)) for low, kernel in runs(ModelParams(2, 12))] == [
            (1, 32), (32, 32), (1024, 4)
        ]
        assert [len(kernel) for _, kernel in runs(ModelParams(3, 7))] == [27, 27, 3]
        assert [len(kernel) for _, kernel in runs(ModelParams(40, 2))] == [40, 40]

    def test_operators_of_one_walk_share_read_only_runs(self):
        params = ModelParams(2, 7)
        first = walk_operator(params, frozenset({0}))
        second = walk_operator(params, frozenset({5, 9}))
        assert first._runs is second._runs is model._ball_runs(ModelParams(2, 7))
        assert walk_operator(ModelParams(3, 4), frozenset({0}))._runs is not first._runs
        for _, generator in first._runs:
            with pytest.raises(ValueError, match="read-only"):
                generator[0, 0] = 0.0

    def test_symmetric_with_a_positive_diagonal(self):
        walk = walk_operator(ModelParams(3, 3), frozenset({4, 13}))
        assert walk.bound == 18
        dense = [[row.get(j, 0) for j in range(len(walk))] for row in walk]
        assert [dense[i][i] for i in range(len(walk))] == [6] * 25
        assert dense == [list(column) for column in zip(*dense)]

    def test_mask_must_cover_every_state(self):
        params = ModelParams(2, 3)
        for mask in (np.zeros(7, dtype=bool), np.zeros(8, dtype=np.int64)):
            for build in (model.WalkOperator, model.neighbour_counts):
                with pytest.raises(ValueError, match="boolean mask of 8 states"):
                    build(params, mask)
