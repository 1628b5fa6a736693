"""The mutant catalogue: one fault in one function of one route, injected by
monkeypatch, against the rows of the default ``checks.run_verification()``
that fail under it.

Each case asserts the exact set of failing rows.  A row missing from the
set is a check that stopped catching the fault; an extra one, a check that
now fails for it too.  A mutant that no row catches is a finding, and
stays in the catalogue.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from urnwalk import checks, exact, model, occupancy, oracle
from urnwalk.model import ModelParams


def wrong_where(function, where, change):
    """``function``, with ``change`` applied to its value on the cells ``where`` holds."""

    def mutant(params, *args):
        value = function(params, *args)
        return change(value) if where(params) else value

    return mutant


def at(urns, balls):
    return lambda params: params == ModelParams(urns, balls)


def count_moved(rows, label, source, destination):
    """The lumped kernel ``rows`` with one of class ``label``'s move counts
    moved from ``source`` to ``destination``: every row still sums to the
    degree."""
    rows = [dict(row) for row in rows]
    row = rows[label - 1]
    row[source] -= 1
    row[destination] = row.get(destination, 0) + 1
    return tuple(rows)


def stay_to_up(chain, k):
    """The occupancy chain with one of ``stay[k]``'s moves counted in ``up[k]``."""
    stay, up = list(chain.stay), list(chain.up)
    stay[k], up[k] = stay[k] - 1, up[k] + 1
    return replace(chain, stay=tuple(stay), up=tuple(up))


MUTANTS = {
    "full-transfer-time-plus-one-3x4": (
        exact,
        "full_transfer_time",
        lambda f: wrong_where(f, at(3, 4), lambda v: v + 1),
        {"transfer-time-routes", "distance-collapse", "oracle-transfer", "fiber-checks"},
    ),
    "increment-sum-off-by-1e-9-4x5": (
        exact,
        "_increment_sum",
        lambda f: wrong_where(f, at(4, 5), lambda v: v + Fraction(1, 10**9)),
        # general_hitting_time sums its increments by the same function
        {"increment-routes", "sum-identity", "distance-collapse"},
    ),
    "recursion-e3-plus-one-3x6": (
        exact,
        "passage_increments",
        lambda f: wrong_where(f, at(3, 6), lambda e: e[:3] + [e[3] + 1] + e[4:]),
        {"transfer-time-routes", "increment-routes", "occupancy-routes"},
    ),
    "first-visit-doubled-at-3-balls": (
        exact,
        "first_visit_probability",
        lambda f: wrong_where(f, lambda params: params.balls == 3, lambda v: 2 * v),
        {"first-visit-triple"},
    ),
    "lumped-mass-moved-3x4": (
        oracle,
        "lumped_first_visit_probs",
        # one hundredth of the first class's probability given to the second
        lambda f: wrong_where(
            f, at(3, 4), lambda p: [p[0] - Fraction(1, 100), p[1] + Fraction(1, 100), *p[2:]]
        ),
        {"first-visit-triple"},
    ),
    "lumped-count-moved-3x4": (
        checks,
        "lumped_kernel",
        # class 2's move into class 1 counted as one that keeps the class
        lambda f: wrong_where(f, at(3, 4), lambda rows: count_moved(rows, 2, 1, 2)),
        {"lump-aggregation"},
    ),
    "occupancy-stay-counted-up-3x4": (
        occupancy,
        "build_occupancy_chain",
        # OccupancyChain accepts it: row 1 still sums to the degree
        lambda f: wrong_where(f, at(3, 4), lambda chain: stay_to_up(chain, 1)),
        {"occupancy-routes", "occupancy-aggregation"},
    ),
    "axis-sums-skip-a-ball": (
        model,
        "_axis_sums",
        lambda f: lambda full, urns, balls: f(full, urns, balls - 1),  # no last ball
        # the four oracle rows and both aggregation rows
        {"oracle-transfer", "oracle-distance", "first-visit-triple", "fiber-checks"}
        | {"occupancy-aggregation", "lump-aggregation"},
    ),
}


def clear_caches():
    # the float runs are built by _axis_sums and the fiber's values solved
    # once per cell: neither may carry a mutant's values into another run
    model._ball_runs.cache_clear()
    oracle._fiber_hitting_vector.cache_clear()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_exactly_its_rows(monkeypatch, request, name):
    module, attribute, mutate, rows = MUTANTS[name]
    clear_caches()
    request.addfinalizer(clear_caches)
    monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    failed = {row.name for row in checks.run_verification() if not row.passed}
    assert failed == rows
