import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import urnwalk
from urnwalk import checks, exact, linsolve, oracle
from urnwalk.errors import (
    BudgetExceededError,
    ConfigurationError,
    DomainError,
    SingularSystemError,
    ValidationError,
)
from urnwalk.model import ModelParams, config_at, hamming_distance, index_of, neighbor_indices

from _reference import absorbing_rows, neighbors, reference_hitting_time, rows_times


@st.composite
def params_and_absorbing_set(draw):
    params = ModelParams(draw(st.integers(2, 5)), draw(st.integers(1, 4)))
    states = st.integers(0, params.state_count - 1)
    return params, draw(st.frozensets(states, min_size=1))


def neighbour_set(params, state):
    """The indices one move away from ``state``, by the reference neighbour list."""
    return frozenset(index_of(c, params) for c in neighbors(config_at(state, params), params))


@st.composite
def absorbing_cases(draw):
    """A walk, a nonempty absorbing set and a nonempty goal inside it.

    The set is a few random states; or it holds every neighbour of one
    transient state, whose row then holds only the diagonal; or it is every
    state, and the system is empty.
    """
    params = ModelParams(draw(st.integers(2, 5)), draw(st.integers(1, 5)))
    states = st.integers(0, params.state_count - 1)
    absorbing = draw(st.frozensets(states, min_size=1, max_size=6))
    shape = draw(st.sampled_from(("random", "isolated", "all")))
    if shape == "isolated":
        state = draw(states)
        absorbing = (absorbing - {state}) | neighbour_set(params, state)
    elif shape == "all":
        absorbing = frozenset(range(params.state_count))
    goal = draw(st.frozensets(st.sampled_from(sorted(absorbing)), min_size=1, max_size=3))
    return params, absorbing, goal


SMALL_WALKS = [ModelParams(n, m) for n in range(2, 7) for m in range(1, 9) if n**m <= 256]


@st.composite
def target_in_a_small_walk(draw):
    """A walk of at most 256 states and a target in it."""
    params = draw(st.sampled_from(SMALL_WALKS))
    return params, config_at(draw(st.integers(0, params.state_count - 1)), params)


def target_times(params, target):
    """``{start index: hitting time}`` over the target system's transient states."""
    system = oracle.target_system(params, target)
    return dict(zip(system.transient_states, system.hitting_time_vector()))


class TestExpectedHittingTime:
    def test_five_urns_three_balls(self):
        params = ModelParams(5, 3)
        assert oracle.expected_hitting_time(params, (1, 1, 1), (2, 2, 2)) == 142

    def test_start_equals_target(self):
        params = ModelParams(3, 2)
        assert oracle.expected_hitting_time(params, (1, 2), (1, 2)) == 0
        # past the budget too: the identical pair returns before the budget
        # is checked, and a malformed placement is refused before either
        params = ModelParams(4, 8)  # 65536 states
        assert oracle.expected_hitting_time(params, (3,) * 8, (3,) * 8) == 0
        with pytest.raises(ConfigurationError):
            oracle.expected_hitting_time(params, (1,) * 8, (5,) * 8)

    @pytest.mark.parametrize(
        "start,target",
        [([1, 2], (1, 2)), ((1, 2), [1, 2]), ((np.int64(1), np.uint8(2)), (1, 2))],
    )
    def test_identical_pair_in_any_sequence_is_zero(self, start, target):
        params = ModelParams(3, 2)
        assert oracle.expected_hitting_time(params, start, target) == 0
        assert oracle.expected_hitting_time_float(params, start, target) == (0.0, 0.0)

    def test_three_urns_two_balls(self):
        params = ModelParams(3, 2)
        value = oracle.expected_hitting_time(params, (1, 1), (2, 2))
        assert value == 10
        assert value == reference_hitting_time(3, 2, (1, 1), (2, 2))

    def test_matches_reference_solver_everywhere(self):
        params = ModelParams(2, 3)
        target = (2, 1, 2)
        times = target_times(params, target)
        assert sorted(times) == [
            g for g in range(params.state_count) if g != index_of(target, params)
        ]
        for g, value in times.items():
            assert value == reference_hitting_time(2, 3, config_at(g, params), target)

    def test_depends_only_on_distance(self):
        params = ModelParams(3, 3)
        for target_g in (0, 5, 13):
            target = config_at(target_g, params)
            by_distance = {}
            for g, value in target_times(params, target).items():
                distance = hamming_distance(config_at(g, params), target)
                by_distance.setdefault(distance, set()).add(value)
            assert sorted(by_distance) == [1, 2, 3]
            for distance, values in by_distance.items():
                assert len(values) == 1, f"distance {distance} gave {values}"

    @given(target_in_a_small_walk())
    @example((ModelParams(4, 3), (2, 2, 2)))
    @settings(max_examples=40, deadline=None)
    def test_matches_pairwise_formula(self, case):
        # every start, where the distance sweep of `verify` samples three
        # pairs per distance
        params, target = case
        times = target_times(params, target)
        assert len(times) == params.state_count - 1
        for g, value in times.items():
            distance = hamming_distance(config_at(g, params), target)
            query = exact.HittingQuery(params=params, hamming_distance=distance)
            assert value == exact.general_hitting_time(query)

    @pytest.mark.parametrize("start,target", [(5, (2, 2)), ((1, 1), None)])
    def test_placement_that_is_no_sequence_rejected(self, start, target):
        params = ModelParams(3, 2)
        for query in (oracle.expected_hitting_time, oracle.expected_hitting_time_float):
            with pytest.raises(ConfigurationError, match="placement must be a sequence"):
                query(params, start, target)

    def test_target_system_rejects_a_target_that_is_no_sequence(self):
        with pytest.raises(ConfigurationError, match="placement must be a sequence"):
            oracle.target_system(ModelParams(3, 2), 5)

    def test_budget_error_carries_state_count(self):
        params = ModelParams(10, 10)
        with pytest.raises(BudgetExceededError) as info:
            oracle.expected_hitting_time(
                params, (1,) * 10, (2,) * 10
            )
        assert info.value.states == 10**10

    def test_budget_is_an_argument_not_the_environment(self, monkeypatch):
        # only the CLI reads the variable; the library takes its budget
        monkeypatch.setenv("URNWALK_ORACLE_BUDGET", "1")
        params = ModelParams(3, 2)
        assert oracle.expected_hitting_time(params, (1, 1), (2, 2)) == 10
        with pytest.raises(BudgetExceededError):
            oracle.expected_hitting_time(params, (1, 1), (2, 2), budget=8)


class TestRefinedSolves:
    def test_two_urns_twelve_balls(self):
        params = ModelParams(2, 12)  # 4096 states, the default budget
        value = oracle.expected_hitting_time(params, (1,) * 12, (2,) * 12)
        assert value == exact.full_transfer_time(params)

    @pytest.mark.parametrize("urns,balls", [(3, 5), (4, 4)])
    def test_pair_query_reads_one_entry(self, urns, balls, monkeypatch):
        # the solution holds numerators over one denominator; a pair query
        # makes the Fraction of its start's row and of no other
        reads = []
        getitem = linsolve.RationalVector.__getitem__

        def spy(vector, i):
            reads.append(i)
            return getitem(vector, i)

        def no_iteration(vector):
            raise AssertionError("the pair query iterated the solution")

        monkeypatch.setattr(linsolve.RationalVector, "__getitem__", spy)
        monkeypatch.setattr(linsolve.RationalVector, "__iter__", no_iteration)
        params = ModelParams(urns, balls)
        start, target = (1,) * balls, (2,) * balls
        value = oracle.expected_hitting_time(params, start, target)
        assert value == exact.full_transfer_time(params)
        assert len(reads) == 1

    @pytest.mark.parametrize("seed", [3, 11])
    def test_absorbing_sets_satisfy_every_row(self, seed):
        rng = random.Random(seed)
        params = ModelParams(2, 9)
        absorbing = frozenset(rng.sample(range(params.state_count), 4))
        goal = frozenset({min(absorbing)})
        system = oracle.build_absorbing_system(params, absorbing)
        for solved, rhs in (
            (system.hitting_time_vector(), [params.degree] * len(system.rows)),
            (
                system.absorption_probability_vector(goal),
                [sum(s in goal for s in e) for e in system.absorbing_edges],
            ),
        ):
            assert max(v.denominator for v in solved) > 10**6
            for row, b in zip(system.rows, rhs):
                assert sum((c * solved[j] for j, c in row.items()), Fraction(0)) == b


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

    def test_pair_is_checked_before_the_limit(self):
        params = ModelParams(4, 8)  # 65536 states
        assert oracle.expected_hitting_time_float(params, (3,) * 8, (3,) * 8) == (0.0, 0.0)
        for start in ((1,) * 7, (0,) * 8):
            with pytest.raises(ConfigurationError):
                oracle.expected_hitting_time_float(params, start, (2,) * 8)


class TestFirstVisitSuccessProb:
    def test_three_urns_two_balls(self):
        fiber = oracle.target_fiber(ModelParams(3, 2))
        assert fiber.first_visit_probability == Fraction(1, 4)

    def test_two_urns_three_balls(self):
        fiber = oracle.target_fiber(ModelParams(2, 3))
        assert fiber.first_visit_probability == Fraction(3, 7)

    def test_single_ball(self):
        assert oracle.target_fiber(ModelParams(4, 1)).first_visit_probability == 0

    @pytest.mark.parametrize("urns,balls", [(2, 2), (2, 5), (3, 3), (4, 2), (5, 2)])
    def test_matches_closed_form(self, urns, balls):
        params = ModelParams(urns, balls)
        fiber = oracle.target_fiber(params)
        assert fiber.first_visit_probability == exact.first_visit_probability(params)


class TestFiberQuantities:
    def test_return_gap_examples(self):
        assert oracle.target_fiber(ModelParams(3, 2)).mean_return_gap == 3
        assert oracle.target_fiber(ModelParams(2, 3)).mean_return_gap == 4

    def test_return_gap_single_ball(self):
        assert oracle.target_fiber(ModelParams(5, 1)).mean_return_gap == 1

    def test_first_segment_examples(self):
        assert oracle.target_fiber(ModelParams(3, 2)).time_to_fiber == 4
        assert oracle.target_fiber(ModelParams(5, 3)).time_to_fiber == 42
        assert oracle.target_fiber(ModelParams(2, 2)).time_to_fiber == 2

    @pytest.mark.parametrize("urns", [2, 3, 5])
    def test_single_ball_fiber_is_the_whole_space(self, urns):
        # the start already sits on the fiber, away from the target
        assert oracle.target_fiber(ModelParams(urns, 1)) == oracle.TargetFiber(0, 0, 1)

    @pytest.mark.parametrize("urns,balls", [(2, 4), (3, 3), (4, 2), (2, 6)])
    def test_segment_matches_shrunken_transfer_time(self, urns, balls):
        params = ModelParams(urns, balls)
        smaller = ModelParams(urns, balls - 1)
        assert oracle.target_fiber(params).time_to_fiber == Fraction(
            balls, balls - 1
        ) * exact.full_transfer_time(smaller)

    @pytest.mark.parametrize("urns", range(2, 6))
    @pytest.mark.parametrize("balls", range(2, 6))
    def test_matches_the_closed_forms(self, urns, balls):
        params = ModelParams(urns, balls)
        fiber = oracle.target_fiber(params)
        assert fiber.first_visit_probability == exact.first_visit_probability(params)
        shrunk = exact.full_transfer_time(ModelParams(urns, balls - 1))
        assert fiber.time_to_fiber == Fraction(balls, balls - 1) * shrunk
        assert fiber.mean_return_gap == urns ** (balls - 1)

    def test_budget_is_checked_before_the_cache(self):
        params = ModelParams(3, 2)
        oracle.target_fiber(params)
        with pytest.raises(BudgetExceededError):
            oracle.target_fiber(params, budget=8)

    def test_checks_build_each_fiber_system_once(self, monkeypatch):
        # the first-visit row and the fiber row read the same cached query,
        # so the default verify grid's 21 fiber cells cost 21 builds
        built = []
        build = oracle.build_absorbing_system

        def spy(params, absorbing):
            built.append(params)
            return build(params, absorbing)

        monkeypatch.setattr(oracle, "build_absorbing_system", spy)
        oracle._fiber_hitting_vector.cache_clear()
        cells = [
            params
            for params in checks.grid_cells(
                checks.DEFAULT_MAX_URNS,
                checks.DEFAULT_MAX_BALLS,
                state_limit=checks.DEFAULT_ORACLE_BUDGET,
            )
            if params.balls >= 2
        ]
        assert len(cells) == 21
        budget = checks.DEFAULT_ORACLE_BUDGET
        assert checks.first_visit_triple_agreement(cells, budget=budget).passed
        assert checks.fiber_checks(cells, budget=budget).passed
        assert built == cells

    def test_fiber_system_certified_once(self, monkeypatch):
        # the hitting and absorption solves read one system, 78 unknowns,
        # whose rows keep the certificate of the first
        params = ModelParams(3, 4)
        calls = []
        is_certified = linsolve._is_certified

        def spy(*args):
            calls.append(args[0].shape)
            return is_certified(*args)

        monkeypatch.setattr(linsolve, "_is_certified", spy)
        oracle._fiber_hitting_vector.cache_clear()
        fiber = oracle.target_fiber(params)
        assert calls == [(78, 78)]
        assert fiber.first_visit_probability == exact.first_visit_probability(params)


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

    def test_twelve_balls_take_the_dense_fallback(self, monkeypatch):
        # 22 rational, non-symmetric unknowns: not refinable, so they go
        # to dense elimination, the solver of rational systems
        sizes = []
        dense = linsolve.solve_dense

        def spy(rows, rhs):
            sizes.append(len(rows))
            return dense(rows, rhs)

        monkeypatch.setattr(linsolve, "solve_dense", spy)
        params = ModelParams(5, 12)
        probs = oracle.lumped_first_visit_probs(params)
        assert probs[0] == exact.first_visit_probability(params)
        assert sizes == [22]


class TestAbsorbingSystem:
    def test_position_lookup(self):
        params = ModelParams(2, 2)
        system = oracle.build_absorbing_system(params, frozenset({3}))
        assert system.transient_states == (0, 1, 2)
        assert system.position(2) == 2
        with pytest.raises(ValueError):
            system.position(3)

    def test_empty_absorbing_set_rejected(self):
        with pytest.raises(SingularSystemError):
            oracle.build_absorbing_system(ModelParams(2, 2), frozenset())

    @pytest.mark.parametrize(
        "absorbing,named", [({-1, 3}, -1), ({-1}, -1), ({8}, 8)]
    )
    def test_absorbing_indices_are_validated(self, absorbing, named):
        # 2x3 has the 8 states 0..7
        with pytest.raises(ValidationError, match=f"index {named} outside 0..7"):
            oracle.build_absorbing_system(ModelParams(2, 3), frozenset(absorbing))

    @pytest.mark.parametrize("absorbing", [{1.5}, {0, 1.5}, {"1"}])
    def test_non_integer_indices_rejected(self, absorbing):
        with pytest.raises(ValidationError, match="index must be an integer"):
            oracle.build_absorbing_system(ModelParams(2, 3), frozenset(absorbing))

    @pytest.mark.parametrize("params", [ModelParams(2, 1), ModelParams(2, 2)])
    def test_bool_and_numpy_indices_are_the_ints_they_equal(self, params):
        # bools would otherwise reach numpy as a mask, which leaves state 0
        # transient
        expected = oracle.build_absorbing_system(params, frozenset({0, 1}))
        for absorbing in ({False, True}, {np.int64(0), np.uint8(1)}):
            system = oracle.build_absorbing_system(params, frozenset(absorbing))
            assert system.transient_states == expected.transient_states
            assert list(system.rows) == list(expected.rows)
            assert system.absorbing_edges == expected.absorbing_edges

    @given(params_and_absorbing_set())
    @settings(max_examples=60, deadline=None)
    def test_rows_are_degree_minus_transient_adjacency(self, case):
        params, absorbing = case
        system = oracle.build_absorbing_system(params, absorbing)
        assert system.transient_states == tuple(
            g for g in range(params.state_count) if g not in absorbing
        )
        for i, (g, row, edges) in enumerate(
            zip(system.transient_states, system.rows, system.absorbing_edges)
        ):
            moves = [index_of(c, params) for c in neighbors(config_at(g, params), params)]
            expected = {system.position(h): -1 for h in moves if h not in absorbing}
            expected[i] = params.degree
            assert row == expected
            assert all(type(c) is int for c in row.values())
            assert sorted(edges) == sorted(h for h in moves if h in absorbing)


class TestIntegerRows:
    """The oracle's CSR arrays against the dict rows they replaced."""

    @given(absorbing_cases())
    @example((ModelParams(2, 1), frozenset({0, 1}), frozenset({1})))  # no unknowns
    @example((ModelParams(3, 2), neighbour_set(ModelParams(3, 2), 4), frozenset({1})))
    @example((ModelParams(2, 4), frozenset({15}), frozenset({15})))  # 15 unknowns
    @example((ModelParams(3, 3), frozenset({0, 26}), frozenset({26})))  # 25 unknowns
    @settings(max_examples=40, deadline=None)
    def test_rows_and_solves_match_the_dict_row_reference(self, case):
        params, absorbing, goal = case
        system = oracle.build_absorbing_system(params, absorbing)
        reference = absorbing_rows(params, absorbing)
        assert len(system.rows) == len(reference)
        for i, row in enumerate(reference):
            assert system.rows[i] == row
        # every system is nonsingular, so a zero exact residual against the
        # reference rows pins each solve
        moves = neighbor_indices(params)[list(system.transient_states)]
        hits = np.isin(moves, list(goal)).sum(axis=1).tolist()
        degrees = [params.degree] * len(reference)
        assert rows_times(reference, system.hitting_time_vector()) == degrees
        assert rows_times(reference, system.absorption_probability_vector(goal)) == hits

    def test_row_with_only_absorbing_neighbours_holds_the_diagonal(self):
        params = ModelParams(3, 2)
        system = oracle.build_absorbing_system(params, neighbour_set(params, 4))
        i = system.position(4)
        assert system.rows[i] == {i: params.degree}
        assert system.hitting_time_vector()[i] == 1

    def test_rows_read_as_a_sequence(self):
        system = oracle.build_absorbing_system(ModelParams(2, 2), frozenset({3}))
        assert list(system.rows) == [{0: 2, 1: -1, 2: -1}, {0: -1, 1: 2}, {0: -1, 2: 2}]
        assert system.rows[-1] == {0: -1, 2: 2}
        with pytest.raises(IndexError):
            system.rows[3]

    def test_small_solve_loads_no_scipy(self):
        # the lumped first-visit system is solved by elimination alone, so
        # it imports no scipy, however many unknowns it has
        code = (
            "import sys\n"
            "from urnwalk import oracle\n"
            "from urnwalk.model import ModelParams\n"
            "print(oracle.lumped_first_visit_probs(ModelParams(5, 12))[0])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(urnwalk.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        first_visit, loaded = out.stdout.splitlines()
        assert Fraction(first_visit) == exact.first_visit_probability(ModelParams(5, 12))
        assert loaded == "[]"
