import json
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest

from urnwalk import checks, cli, exact, oracle
from urnwalk.errors import BudgetExceededError
from urnwalk.linsolve import RationalVector
from urnwalk.model import ModelParams, config_at, hamming_distance, index_of

# the pairs each cell checks and their count, at a budget of 1024
DISTANCE_AGREEMENT = {
    (2, 1): (True, 2),
    (2, 3): (True, 9),
    (3, 2): (True, 6),
    (2, 5): (True, 15),
    (4, 3): (True, 9),
}
CELLS = pytest.mark.parametrize(
    "cell", sorted(DISTANCE_AGREEMENT), ids="{0[0]}x{0[1]}".format
)


DEFAULT_DISTANCE_CELLS = checks.grid_cells(
    checks.DEFAULT_MAX_URNS,
    checks.DEFAULT_MAX_BALLS,
    state_limit=min(512, checks.DEFAULT_ORACLE_BUDGET),
)


def reference_distance_pairs(params):
    """The (target, start) index pairs the distance sweep reads, sorted:
    targets and starts in index order, each start decoded and its distance
    counted on its own, ``PAIRS_PER_CLASS`` pairs a distance, until every
    distance has them or the targets run out."""
    pairs, counts = [], dict.fromkeys(range(1, params.balls + 1), 0)
    for target in range(params.state_count):
        if min(counts.values()) == checks.PAIRS_PER_CLASS:
            break
        for start in range(params.state_count):
            distance = hamming_distance(config_at(start, params), config_at(target, params))
            if start != target and counts[distance] < checks.PAIRS_PER_CLASS:
                counts[distance] += 1
                pairs.append((target, start))
    return sorted(pairs)


class RecordingNumerators(Sequence):
    """Zero numerators that report each position read."""

    def __init__(self, record, size):
        self.record, self.size = record, size

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        self.record(i)
        return 0


class TestDistanceAgreement:
    @CELLS
    def test_pairs_checked(self, cell):
        result = checks.distance_agreement(ModelParams(*cell), budget=1024)
        assert result == DISTANCE_AGREEMENT[cell]

    @CELLS
    def test_wrong_solve_fails(self, cell, monkeypatch):
        params = ModelParams(*cell)
        build = oracle.target_system

        def off_by_one(params, target, budget):
            system = build(params, target, budget=budget)
            if target != config_at(0, params):
                return system
            # state 1 is the first start checked at distance 1 from state 0
            assert hamming_distance(config_at(1, params), target) == 1
            times = system.hitting_time_vector()
            numerators = list(times.numerators)
            numerators[system.position(1)] += times.denominator  # one step more
            wrong = RationalVector(times.denominator, numerators)
            return SimpleNamespace(rows=system.rows, hitting_time_vector=lambda: wrong)

        monkeypatch.setattr(oracle, "target_system", off_by_one)
        _, count = DISTANCE_AGREEMENT[cell]
        assert checks.distance_agreement(params, budget=1024) == (False, count)

    @pytest.mark.parametrize(
        "cell", DEFAULT_DISTANCE_CELLS, ids=lambda params: f"{params.urns}x{params.balls}"
    )
    def test_reads_the_pairs_of_a_per_state_reference(self, cell, monkeypatch):
        # every numerator read is recorded as its (target, start) pair; the
        # solves are left out, so no pair agrees
        read = []
        build = oracle.target_system

        def recording(params, target, budget):
            system = build(params, target, budget=budget)
            states, target_index = system.rows.states.tolist(), index_of(target, params)
            numerators = RecordingNumerators(
                lambda i: read.append((target_index, states[i])), len(states)
            )
            vector = SimpleNamespace(denominator=1, numerators=numerators)
            return SimpleNamespace(rows=system.rows, hitting_time_vector=lambda: vector)

        monkeypatch.setattr(oracle, "target_system", recording)
        _, count = checks.distance_agreement(cell, budget=checks.DEFAULT_ORACLE_BUDGET)
        pairs = reference_distance_pairs(cell)
        assert sorted(read) == pairs and count == len(pairs)

    def test_budget_refused_before_any_build(self):
        with mock.patch.object(
            oracle, "build_absorbing_system", wraps=oracle.build_absorbing_system
        ) as build:
            with pytest.raises(BudgetExceededError):
                checks.distance_agreement(ModelParams(3, 2), budget=8)
            # 4**10 placements: the first target's check refuses before the
            # others are decoded
            with mock.patch.object(checks, "config_at", wraps=checks.config_at) as decode:
                with pytest.raises(BudgetExceededError):
                    checks.distance_agreement(ModelParams(4, 10), budget=1024)
            assert decode.call_count <= 1
        build.assert_not_called()


class TestSumIdentity:
    """`exact` hands out both sequences; only `checks` compares them."""

    def test_wrong_term_fails_its_rows(self, monkeypatch, capsys):
        terms = exact.transfer_time_terms

        def one_off(params):
            out = terms(params)
            out[-1] += 1
            return out

        monkeypatch.setattr(exact, "transfer_time_terms", one_off)
        result = checks.sum_identity(checks.grid_cells(3, 2))
        assert not result.passed
        assert result.detail.endswith("first failure ModelParams(urns=2, balls=1)")
        assert cli.main(["verify", "--max-urns", "3", "--max-balls", "2"]) == 1
        rows = json.loads(capsys.readouterr().out)["checks"]
        failed = [row["name"] for row in rows if not row["passed"]]
        assert failed == ["sum-identity", "termwise-witness"]

    def test_equal_sequences_fail_the_witness(self, monkeypatch):
        params = ModelParams(5, 3)
        assert checks.termwise_difference_witness(params).passed
        monkeypatch.setattr(
            exact,
            "transfer_time_terms",
            lambda params: [exact.passage_increment(params, k) for k in range(params.balls)],
        )
        assert checks.sum_identity([params]).passed
        assert not checks.termwise_difference_witness(params).passed


class TestFirstVisitRows:
    """The lumped first-visit probabilities are read by one row, whose last
    pair identity is the fiber escape ratio."""

    def test_escape_pair_fails_the_first_visit_row(self, monkeypatch):
        # p[2k-2], class 2k-1's probability, enters only the pair i == k
        lumped = oracle.lumped_first_visit_probs

        def off_escape(params):
            probs = lumped(params)
            probs[2 * params.balls - 2] += Fraction(1, 100)
            return probs

        monkeypatch.setattr(oracle, "lumped_first_visit_probs", off_escape)
        cells = [ModelParams(3, 2), ModelParams(4, 3)]
        row = checks.first_visit_triple_agreement(cells, budget=1024)
        assert not row.passed
        assert row.detail == "2 cells, first failure ModelParams(urns=3, balls=2)"
        assert checks.fiber_checks(cells, budget=1024).passed

    def test_default_verify_solves_each_lumped_system_once(self, monkeypatch):
        # 21 fiber cells in the default grid, one lumped solve each, and
        # none of them for the fiber row
        calls, under_fiber = [], []
        lumped, fiber_checks = oracle.lumped_first_visit_probs, checks.fiber_checks

        def spy(params):
            calls.append((params, bool(under_fiber)))
            return lumped(params)

        def fiber_spy(cells, budget):
            under_fiber.append(True)
            try:
                return fiber_checks(cells, budget=budget)
            finally:
                under_fiber.pop()

        monkeypatch.setattr(oracle, "lumped_first_visit_probs", spy)
        monkeypatch.setattr(checks, "fiber_checks", fiber_spy)
        results = checks.run_verification()
        assert all(row.passed for row in results)
        assert len(calls) == 21 == len({params for params, _ in calls})
        assert not any(in_fiber_row for _, in_fiber_row in calls)
