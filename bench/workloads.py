"""The benchmark's workloads: the ops of one round and the check of each op.

Every op is timed alone; its check runs afterwards, untimed, and compares
the op's output with a route other than the one that produced it.  A round
is the workload's fixed set of ops.  Its inputs come from a
``random.Random`` the caller seeds, and nothing else: the same seed gives
the same placements, absorbing sets and Monte Carlo seeds.

Why each workload exists is recorded in ``BENCHMARK.json``; the cases the
benchmark deliberately leaves out are listed in ``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from speed import InlineProbe, PinnedThreadProbe
from urnwalk import cli, exact, occupancy, oracle, simulate
from urnwalk.model import ModelParams

FLOAT_MAX = Fraction(sys.float_info.max)

# oracle-ladder: exact CLI queries up the state-count ladder to the default
# 4096-state budget, two of them at the top, plus six queries at 6x4.  Six
# ops of a round are faster and seven slower than those six, so the median
# op is one of them.
ORACLE_LADDER = ((3, 5), (2, 8), (4, 4), (5, 4), (3, 6), (4, 5), (3, 7))
TOP_SIZE = (4, 6)
MEDIAN_SIZE = (6, 4)
MEDIAN_QUERIES = 6
# Absorbing sets this size mostly fail the float snap and reach the modular path.
ABSORBING_SIZE = (2, 9)
ABSORBING_SETS = 3
ABSORBING_STATES = 4
# `oracle --approx` past a lowered budget, on the size of the largest-but-one
# exact query: past the default budget every size takes 9 s or more.
APPROX_SIZE = (3, 7)
APPROX_BUDGET = 2048
APPROX_RTOL = 1e-9

# `urnwalk verify --format json` on the default grid, at the commit that
# introduced this benchmark.  The JSON carries no timings, so it must not change.
VERIFY_DIGEST = "8ea9278653bd4e8a998d3c6a8436b432f0c4e3f00ed08011aa62efc0b30b3314"

# montecarlo plans: (urns, balls, replications).  Every plan walks between
# placements at full Hamming distance.
MC_LONG = (4, 5, 1_500)  # about 1,133 steps per replication
MC_SHORT = (2, 2, 4_000)  # about 4 steps per replication
MC_SHORT_OPS = 4  # the median op of a round is then always a short plan
MC_SPLIT = (4, 4, 4_000)  # run with 1 worker and again with 2
MC_Z_LIMIT = 5.0

# formulas-large-m: at 5 urns floats overflow from M = 442 on.  Six ops
# of a round are faster and nine slower than the eight `general` queries
# at M = 200, so the median op is one of those eight.
FORMULA_URNS = 5
FORMULA_BALLS = (300, 441, 442)
FORMULA_MEDIAN = (200, 100)  # (M, L)
FORMULA_MEDIAN_QUERIES = 8


class CheckFailed(Exception):
    """An op's output disagrees with the independent route."""


@dataclass
class Op:
    """One timed call.

    ``check`` validates the output and returns work counts such as Monte
    Carlo steps.  ``known_defect`` names an exception class the op is
    documented to raise at this input; raising it counts as reproducing the
    defect, while returning a correct output is also accepted.  ``parallel``
    marks an op whose work runs in worker processes.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    known_defect: type[BaseException] | None = None
    parallel: bool = False


@dataclass
class Workload:
    """``probe`` samples the machine's speed for the ``ref`` metrics (``speed.py``).

    A workload that spends most of its time inside long C calls uses the
    pinned-thread probe; the others the inline one.
    """

    warm: Callable[[], None]
    round: Callable[[random.Random], list[Op]]
    probe: type = InlineProbe


def reset_caches() -> None:
    """Empty the package's memo caches, so every op pays what a fresh call pays."""
    oracle._fiber_hitting_vector.cache_clear()


def _import_scipy() -> None:
    # linsolve imports scipy lazily, on the first non-dense solve
    import scipy.sparse.linalg  # noqa: F401


def _no_lazy_setup() -> None:
    pass


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def run_cli(*argv) -> tuple[int, str]:
    """``urnwalk <argv> --format json`` in this process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv] + ["--format", "json"])
    return code, out.getvalue()


def _cli_results(output) -> tuple[dict, dict]:
    """The JSON payload of a successful CLI call, and its results by label."""
    code, text = output
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    payload = json.loads(text)
    return payload, {entry["label"]: entry for entry in payload["results"]}


def _rational(entry: dict) -> Fraction:
    return Fraction(entry["rational"])


def _placement(rng, urns: int, balls: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, urns) for _ in range(balls))


def _distinct_pair(rng, urns: int, balls: int):
    start = _placement(rng, urns, balls)
    while True:
        target = _placement(rng, urns, balls)
        if target != start:
            return start, target


def _full_distance_pair(rng, urns: int, balls: int):
    """A random start and a target that moves every ball to another urn."""
    start = _placement(rng, urns, balls)
    target = tuple(rng.choice([u for u in range(1, urns + 1) if u != s]) for s in start)
    return start, target


def _hamming(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def _formula(urns: int, balls: int, distance: int) -> Fraction:
    query = exact.HittingQuery(ModelParams(urns=urns, balls=balls), distance)
    return exact.general_hitting_time(query)


def _text(config) -> str:
    return ",".join(map(str, config))


def _spread(ops: list[Op], extra: list[Op]) -> None:
    """Insert ``extra`` into ``ops`` at even gaps, from its start to its end.

    The ops of the median kind go in this way, so that their mean samples
    the machine's speed over the whole round.
    """
    total = len(ops) + len(extra)
    for i, op in enumerate(extra):
        ops.insert(round(i * (total - 1) / (len(extra) - 1)), op)


# ---------------------------------------------------------------------------
# oracle-ladder
# ---------------------------------------------------------------------------


def _oracle_op(rng, urns: int, balls: int) -> Op:
    start, target = _distinct_pair(rng, urns, balls)

    def check(output) -> dict:
        _, results = _cli_results(output)
        got = _rational(results["oracle_hitting_time"])
        want = _formula(urns, balls, _hamming(start, target))
        if got != want:
            raise CheckFailed(f"oracle {got} != formula {want}")
        return {}

    return Op(
        f"oracle {urns}x{balls}",
        lambda: run_cli(
            "oracle", "--urns", urns, "--balls", balls,
            "--from", _text(start), "--to", _text(target),
        ),
        check,
    )


def _state_neighbors(state: int, urns: int, balls: int) -> list[int]:
    """Indices differing from ``state`` in exactly one base-``urns`` digit."""
    out = []
    power = 1
    for _ in range(balls):
        digit = state // power % urns
        for other in range(urns):
            if other != digit:
                out.append(state + (other - digit) * power)
        power *= urns
    return out


def _absorbing_op(rng, index: int) -> Op:
    urns, balls = ABSORBING_SIZE
    params = ModelParams(urns=urns, balls=balls)
    absorbing = frozenset(rng.sample(range(params.state_count), ABSORBING_STATES))
    goal = frozenset({rng.choice(sorted(absorbing))})

    def run():
        system = oracle.build_absorbing_system(params, absorbing)
        times = system.hitting_time_vector()
        probabilities = system.absorption_probability_vector(goal)
        return system.transient_states, times, probabilities

    def check(output) -> dict:
        transients, times, probabilities = output
        expected_states = tuple(s for s in range(params.state_count) if s not in absorbing)
        if tuple(transients) != expected_states:
            raise CheckFailed("transient states differ from the complement of the set")
        t = dict(zip(transients, times))
        p = dict(zip(transients, probabilities))
        step = Fraction(1, params.degree)
        for s in transients:
            nbs = _state_neighbors(s, urns, balls)
            # expected steps: x_s = 1 + mean over moves of x_next (0 when absorbed)
            if t[s] - step * sum(t[nb] for nb in nbs if nb in t) != 1:
                raise CheckFailed(f"hitting-time equation fails at state {s}")
            # absorption in goal: y_s = mean over moves of y_next (1 on goal, 0 elsewhere)
            into_goal = step * sum(1 for nb in nbs if nb in goal)
            if p[s] - step * sum(p[nb] for nb in nbs if nb in p) != into_goal:
                raise CheckFailed(f"absorption equation fails at state {s}")
        return {}

    return Op(f"absorbing {urns}x{balls} #{index}", run, check)


def _approx_op(rng) -> Op:
    urns, balls = APPROX_SIZE
    start, target = _distinct_pair(rng, urns, balls)

    def check(output) -> dict:
        _, results = _cli_results(output)
        got = results["oracle_hitting_time_approx"]["value"]
        want = float(_formula(urns, balls, _hamming(start, target)))
        if not abs(got - want) <= APPROX_RTOL * abs(want):
            raise CheckFailed(f"approx {got} not within {APPROX_RTOL} of {want}")
        return {}

    return Op(
        f"oracle --approx {urns}x{balls}",
        lambda: run_cli(
            "oracle", "--urns", urns, "--balls", balls,
            "--from", _text(start), "--to", _text(target),
            "--budget", APPROX_BUDGET, "--approx",
        ),
        check,
    )


def oracle_ladder_round(rng) -> list[Op]:
    ops = [_oracle_op(rng, urns, balls) for urns, balls in ORACLE_LADDER]
    ops.append(_oracle_op(rng, *TOP_SIZE))
    ops += [_absorbing_op(rng, i) for i in range(ABSORBING_SETS)]
    ops.append(_approx_op(rng))
    ops.append(_oracle_op(rng, *TOP_SIZE))
    _spread(ops, [_oracle_op(rng, *MEDIAN_SIZE) for _ in range(MEDIAN_QUERIES)])
    return ops


# ---------------------------------------------------------------------------
# verify-grid
# ---------------------------------------------------------------------------


def _verify_check(output) -> dict:
    payload, _ = _cli_results(output)
    _, text = output
    for row in payload["checks"]:
        if not row["passed"]:
            raise CheckFailed(f"verify row {row['name']} failed")
        covered = re.match(r"(\d+) cells", row["detail"])
        # the termwise witness covers the single cell its detail names
        cells = int(covered.group(1)) if covered else row["detail"].count("ModelParams(")
        if cells < 1:
            raise CheckFailed(f"verify row {row['name']} covered no cells")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != VERIFY_DIGEST:
        raise CheckFailed(f"verify JSON digest {digest} differs from the recorded one")
    return {}


def verify_grid_round(rng) -> list[Op]:
    return [Op("verify", lambda: run_cli("verify"), _verify_check)]


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def _plan(rng, urns: int, balls: int, replications: int):
    start, target = _full_distance_pair(rng, urns, balls)
    return simulate.SimulationPlan(
        params=ModelParams(urns=urns, balls=balls),
        start=start,
        target=target,
        replications=replications,
        seed=rng.getrandbits(63),
    )


def _estimate_check(plan) -> Callable[[object], dict]:
    def check(estimate) -> dict:
        if estimate.truncated_count or estimate.replications_completed != plan.replications:
            raise CheckFailed(f"{estimate.truncated_count} truncated replications")
        want = float(_formula(plan.params.urns, plan.params.balls, plan.params.balls))
        if estimate.std_error <= 0:
            raise CheckFailed("zero standard error")
        z = (estimate.mean - want) / estimate.std_error
        if abs(z) > MC_Z_LIMIT:
            raise CheckFailed(f"|z| = {abs(z):.2f} exceeds {MC_Z_LIMIT}")
        return {
            "steps": round(estimate.mean * estimate.replications_completed),
            "reps": estimate.replications_completed,
        }

    return check


def _mc_op(kind: str, plan) -> Op:
    return Op(kind, lambda: simulate.run(plan), _estimate_check(plan))


def montecarlo_round(rng) -> list[Op]:
    long_plan = _plan(rng, *MC_LONG)
    ops = [_mc_op("mc long", long_plan)]
    for _ in range(MC_SHORT_OPS):
        ops.append(_mc_op("mc short", _plan(rng, *MC_SHORT)))
    one = _plan(rng, *MC_SPLIT)
    two = dataclasses.replace(one, workers=2)
    first: list = []

    def check_one(estimate) -> dict:
        first.append(estimate)
        return _estimate_check(one)(estimate)

    def check_two(estimate) -> dict:
        if not first or repr(first[0]) != repr(estimate):
            raise CheckFailed("2-worker estimate differs from the 1-worker one")
        return _estimate_check(two)(estimate)

    ops.append(Op("mc split workers=1", lambda: simulate.run(one), check_one))
    ops.append(Op("mc split workers=2", lambda: simulate.run(two), check_two, parallel=True))
    return ops


# ---------------------------------------------------------------------------
# formulas-large-m
# ---------------------------------------------------------------------------


def _past_float_range(*values: Fraction) -> bool:
    return any(abs(v) > FLOAT_MAX for v in values)


def _exact_op(balls: int) -> Op:
    params = ModelParams(urns=FORMULA_URNS, balls=balls)
    total = exact.full_transfer_time_by_ball_induction(params)
    increments = exact.passage_increments(params)

    def check(output) -> dict:
        _, results = _cli_results(output)
        if _rational(results["transfer_time"]) != total:
            raise CheckFailed("transfer time differs from the ball-count induction")
        got = [_rational(results[f"increment_{k}"]) for k in range(balls)]
        if sum(got, Fraction(0)) != total:
            raise CheckFailed("increments do not sum to the ball-count induction")
        return {}

    return Op(
        f"exact 5x{balls}",
        lambda: run_cli("exact", "--urns", FORMULA_URNS, "--balls", balls),
        check,
        OverflowError if _past_float_range(total, *increments) else None,
    )


def _general_op(balls: int, distance: int) -> Op:
    params = ModelParams(urns=FORMULA_URNS, balls=balls)
    want = sum(exact.passage_increments(params)[balls - distance :], Fraction(0))

    def check(output) -> dict:
        _, results = _cli_results(output)
        if results["hamming_distance"]["value"] != distance:
            raise CheckFailed("wrong Hamming distance")
        if _rational(results["hitting_time"]) != want:
            raise CheckFailed("hitting time differs from the increment suffix sum")
        return {}

    return Op(
        f"general 5x{balls} L={distance}",
        lambda: run_cli(
            "general", "--urns", FORMULA_URNS, "--balls", balls, "--hamming", distance
        ),
        check,
        OverflowError if _past_float_range(want) else None,
    )


def _occupancy_op(balls: int) -> Op:
    params = ModelParams(urns=FORMULA_URNS, balls=balls)

    def run():
        chain = occupancy.build_occupancy_chain(params)
        return occupancy.passage_increments_by_solve(chain)

    def check(output) -> dict:
        if output != exact.passage_increments(params):
            raise CheckFailed("occupancy-chain increments differ from the recursion")
        return {}

    return Op(f"occupancy 5x{balls}", run, check)


def formulas_round(rng) -> list[Op]:
    ops = [_exact_op(balls) for balls in FORMULA_BALLS]
    for share in (lambda m: 1, lambda m: m // 2, lambda m: m):
        ops += [_general_op(balls, share(balls)) for balls in FORMULA_BALLS]
    ops += [_occupancy_op(balls) for balls in FORMULA_BALLS]
    _spread(ops, [_general_op(*FORMULA_MEDIAN) for _ in range(FORMULA_MEDIAN_QUERIES)])
    return ops


WORKLOADS = {
    "oracle-ladder": Workload(_import_scipy, oracle_ladder_round, PinnedThreadProbe),
    "verify-grid": Workload(_import_scipy, verify_grid_round),
    "montecarlo": Workload(_no_lazy_setup, montecarlo_round),
    "formulas-large-m": Workload(_no_lazy_setup, formulas_round),
}
