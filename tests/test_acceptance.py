"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every numeric comparison is exact equality unless the
criterion itself is statistical.
"""

import dataclasses
import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from urnwalk import checks, exact, linsolve, occupancy, oracle, simulate
from urnwalk.model import ModelParams

GRID_MAX_URNS = 8
GRID_MAX_BALLS = 12


@contextmanager
def criterion(name, time_limit):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < time_limit, f"{name} took {elapsed:.2f}s, limit {time_limit}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {time_limit}s)")


@pytest.fixture
def integer_solves(monkeypatch):
    """Sizes of the integer systems that ``solve_exact`` receives.

    The fiber vectors' cache is cleared first, so that every solve of the
    criterion runs under the spy.  A refinement that stalls raises, so a
    criterion that passes with solves recorded was solved by refinement.
    """
    sizes = []
    solve_exact = linsolve.solve_exact

    def spy(rows, rhs):
        sizes.append(len(rows))
        return solve_exact(rows, rhs)

    monkeypatch.setattr(linsolve, "solve_exact", spy)
    oracle._fiber_hitting_vector.cache_clear()
    return sizes


def four_route_values(params):
    closed = exact.full_transfer_time(params)
    inducted = exact.full_transfer_time_by_ball_induction(params)
    summed = sum(exact.passage_increments(params), Fraction(0))
    solved = oracle.expected_hitting_time(
        params, (1,) * params.balls, (2,) * params.balls
    )
    return closed, inducted, summed, solved


def test_criterion_1_five_urns_three_balls_all_routes():
    with criterion("example-5-urns-3-balls", 1.0):
        values = four_route_values(ModelParams(5, 3))
        assert values == (142, 142, 142, 142)


def test_criterion_2_four_urns_four_balls_all_routes():
    with criterion("example-4-urns-4-balls", 1.0):
        values = four_route_values(ModelParams(4, 4))
        assert values == (292, 292, 292, 292)


def test_criterion_3_three_urn_series():
    with criterion("three-urn-series", 1.0):
        for balls in range(1, 11):
            expected = Fraction(2 * balls, 3) * sum(
                Fraction(3**k, k) for k in range(1, balls + 1)
            )
            assert exact.full_transfer_time(ModelParams(3, balls)) == expected


def test_criterion_4_sum_identity_sweep():
    with criterion("sum-identity-sweep", 5.0):
        cells = checks.grid_cells(GRID_MAX_URNS, GRID_MAX_BALLS)
        result = checks.sum_identity(cells)
        assert result.passed and result.cells == len(cells)
        witness = checks.termwise_difference_witness(ModelParams(5, 3))
        assert witness.passed


def test_criterion_5_pairwise_formula_vs_dense_solve(integer_solves):
    with criterion("distance-formula-vs-oracle", 60.0):
        cells = checks.grid_cells(GRID_MAX_URNS, GRID_MAX_BALLS, state_limit=1024)
        assert cells
        for params in cells:
            agreed, pairs = checks.distance_agreement(params, budget=1024)
            assert agreed, f"mismatch at {params}"
            assert pairs >= min(3, params.balls)
    assert integer_solves


def two_ball_cells():
    return [
        params
        for params in checks.grid_cells(GRID_MAX_URNS, GRID_MAX_BALLS, state_limit=1024)
        if params.balls >= 2
    ]


def test_criterion_6_first_visit_triple_agreement(integer_solves):
    with criterion("first-visit-triple", 30.0):
        cells = two_ball_cells()
        assert cells
        result = checks.first_visit_triple_agreement(cells, budget=1024)
        assert result.passed, result.detail
        assert result.cells == len(cells)
    assert integer_solves


def test_criterion_7_fiber_segment_gap_and_ratio(integer_solves):
    """Fiber segment time and return gap.  Criterion 6's row now asserts
    the escape ratio, as the last pair identity of
    :func:`checks.first_visit_triple_agreement`."""
    with criterion("fiber-segment-gap-ratio", 30.0):
        cells = two_ball_cells()
        assert cells
        result = checks.fiber_checks(cells, budget=1024)
        assert result.passed, result.detail
        assert result.cells == len(cells)
    assert integer_solves


def test_criterion_8_monte_carlo_consistency():
    with criterion("monte-carlo-consistency", 60.0):
        for urns, balls in ((5, 3), (4, 4)):
            params = ModelParams(urns, balls)
            plans = [
                simulate.SimulationPlan(
                    params=params,
                    start=(1,) * balls,
                    target=(2,) * balls,
                    replications=100_000,
                    seed=42,
                    workers=workers,
                )
                for workers in (1, 2)
            ]
            estimates = [simulate.run(plan) for plan in plans]
            assert estimates[0] == estimates[1]
            blobs = [
                json.dumps(dataclasses.asdict(e), sort_keys=True) for e in estimates
            ]
            assert blobs[0] == blobs[1]
            estimate = estimates[0]
            assert estimate.truncated_count == 0
            expected = float(exact.full_transfer_time(params))
            z = (estimate.mean - expected) / estimate.std_error
            assert abs(z) < 4, f"z={z} at {params}"


def test_criterion_9_occupancy_aggregation_sweep():
    with criterion("occupancy-aggregation-sweep", 30.0):
        cells = checks.grid_cells(GRID_MAX_URNS, GRID_MAX_BALLS, state_limit=10_000)
        assert cells
        for params in cells:
            assert occupancy.aggregation_matches_full_walk(params), (
                f"aggregation failed at {params}"
            )
