"""Command-line frontend.

Five subcommands: ``exact`` (closed forms), ``general`` (pairwise hitting
time), ``verify`` (the invariant suite), ``oracle`` (exact linear solve
over all states), and ``simulate`` (seeded Monte Carlo).  The three pair
commands resolve their placements in one place (:func:`_pair`).  Every
handler returns a :class:`RunReport`, and :func:`render` alone writes it:
a table on a terminal and JSON lines when piped; ``--format`` overrides, and
``simulate`` also writes CSV.  Exact values are always printed losslessly as
``numerator/denominator`` next to their decimal approximation.

The argument parser is built once per process (:func:`build_parser` is
cached), so each :func:`main` call only parses.

Exit codes: 0 success, 1 any check failure, 2 usage or validation error,
3 resource or size error.  The state budget of ``oracle`` and ``verify``
is resolved here alone (:func:`_budget`); the library takes it as an argument.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import checks, exact, oracle, simulate
from .errors import (
    BudgetExceededError,
    SimulationTruncatedError,
    UrnwalkError,
    ValidationError,
)
from .model import (
    SOURCE_URN,
    TARGET_URN,
    Configuration,
    ModelParams,
    all_in_urn,
    distance_pair,
    format_configuration,
    hamming_distance,
    parse_configuration,
)

SCHEMA_VERSION = 1
ENV_BUDGET = "URNWALK_ORACLE_BUDGET"
SIMULATE_CSV_HEADER = "mean,std_error,reps,truncated,ci95_low,ci95_high,seed"
FLOAT_COMPARE_RTOL = 1e-9


@dataclass
class RunReport:
    """One command's outcome: ``results`` maps each label to its value, in
    output order, and ``checks`` holds ``(name, passed, detail)`` rows."""

    command: str
    params: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)


def _entry(label: str, value) -> dict:
    """A result as printed: a ``Fraction`` as ``rational`` and ``decimal``
    (None past the float range), anything else as ``value``.  A rational
    past the interpreter's int-to-str digit limit needs the limit lifted,
    as :func:`render` does."""
    if not isinstance(value, Fraction):
        return {"label": label, "value": value}
    try:
        decimal = float(value)
    except OverflowError:
        decimal = None
    return {
        "label": label,
        "rational": f"{value.numerator}/{value.denominator}",
        "decimal": decimal,
    }


def render(report: RunReport, fmt: str, elapsed_ms: int) -> str:
    """The report as a table, one JSON line or (``simulate`` only) CSV."""
    if fmt == "auto":
        fmt = "table" if sys.stdout.isatty() else "json"
    if fmt == "csv":
        row = [repr(report.results[label]) for label in SIMULATE_CSV_HEADER.split(",")]
        return SIMULATE_CSV_HEADER + "\n" + ",".join(row) + "\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # every rational in full, at any size
    try:
        entries = [_entry(label, value) for label, value in report.results.items()]
    finally:
        sys.set_int_max_str_digits(limit)
    ok = all(passed for _, passed, _ in report.checks)
    if fmt == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "command": report.command,
            "params": report.params,
            "results": entries,
            "checks": [
                {"name": name, "passed": passed, "detail": detail}
                for name, passed, detail in report.checks
            ],
            "ok": ok,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    lines = [
        f"command: {report.command}",
        "params: " + " ".join(f"{k}={v}" for k, v in report.params.items()),
    ]
    for entry in entries:
        if "rational" in entry:
            decimal = entry["decimal"]
            approx = "" if decimal is None else f" ({decimal:g})"
            lines.append(f"  {entry['label']} = {entry['rational']}{approx}")
        else:
            lines.append(f"  {entry['label']} = {entry['value']}")
    for name, passed, detail in report.checks:
        mark = "PASS" if passed else "FAIL"
        lines.append(f"  [{mark}] {name}" + (f"  {detail}" if detail else ""))
    lines.append(f"ok: {'yes' if ok else 'no'}")
    lines.append(f"elapsed: {elapsed_ms} ms")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _pair(args) -> tuple[ModelParams, Configuration, Configuration, dict]:
    """The model, start and target of a pair command, and their four params.

    The pair is ``--hamming``'s canonical one, else ``--from``/``--to``, each
    defaulting to all balls in the source (target) urn.
    """
    params = ModelParams(urns=args.urns, balls=args.balls)
    if args.hamming is not None:
        if args.start is not None or args.target is not None:
            raise ValidationError("give either --hamming or --from/--to, not both")
        start, target = distance_pair(params, args.hamming)
    else:
        start, target = (
            all_in_urn(params, urn) if text is None else parse_configuration(text, params)
            for text, urn in ((args.start, SOURCE_URN), (args.target, TARGET_URN))
        )
    return params, start, target, {
        "urns": params.urns,
        "balls": params.balls,
        "from": format_configuration(start),
        "to": format_configuration(target),
    }


def _formula(params: ModelParams, start, target) -> tuple[int, Fraction]:
    """The pair's Hamming distance and its closed-form hitting time, for
    placements :func:`_pair` has already checked."""
    query = exact.HittingQuery(params, hamming_distance(start, target))
    return query.hamming_distance, exact.general_hitting_time(query)


def handle_exact(args) -> RunReport:
    params = ModelParams(urns=args.urns, balls=args.balls)
    results = {"transfer_time": exact.full_transfer_time(params)}
    for k, increment in enumerate(exact.passage_increments(params)):
        results[f"increment_{k}"] = increment
    return RunReport("exact", {"urns": params.urns, "balls": params.balls}, results)


def handle_general(args) -> RunReport:
    params, start, target, pair = _pair(args)
    distance, value = _formula(params, start, target)
    return RunReport(
        "general", pair, {"hamming_distance": distance, "hitting_time": value}
    )


def _budget(flag: int | None, default: int) -> int:
    """The command's flag, else ``URNWALK_ORACLE_BUDGET``, else its default."""
    if flag is not None:
        return flag
    raw = os.environ.get(ENV_BUDGET)
    if not raw:
        return default
    try:
        return _budget_flag(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(f"{ENV_BUDGET}: {exc}") from None


def handle_verify(args) -> RunReport:
    budget = _budget(args.oracle_budget, checks.DEFAULT_ORACLE_BUDGET)
    rows = checks.run_verification(
        max_urns=args.max_urns, max_balls=args.max_balls, oracle_budget=budget
    )
    return RunReport(
        "verify",
        {"max_urns": args.max_urns, "max_balls": args.max_balls, "oracle_budget": budget},
        checks=[(row.name, row.passed, row.detail) for row in rows],
    )


def handle_oracle(args) -> RunReport:
    params, start, target, pair = _pair(args)
    budget = _budget(args.budget, oracle.DEFAULT_EXACT_BUDGET)
    _, formula = _formula(params, start, target)
    report = RunReport("oracle", {**pair, "budget": budget}, {"states": params.state_count})
    if params.state_count > budget and args.approx:
        value, residual = oracle.expected_hitting_time_float(params, start, target)
        report.results["oracle_hitting_time_approx"] = value
        report.results["solver_residual"] = residual
        matches = abs(value - float(formula)) <= FLOAT_COMPARE_RTOL * max(
            1.0, abs(float(formula))
        )
        check = ("matches-formula", matches, f"relative tolerance {FLOAT_COMPARE_RTOL}")
    else:
        value = oracle.expected_hitting_time(params, start, target, budget=budget)
        report.results["oracle_hitting_time"] = value
        check = ("matches-formula", value == formula, "exact equality")
    report.results["formula_hitting_time"] = formula
    report.checks.append(check)
    return report


def handle_simulate(args) -> RunReport:
    params, start, target, pair = _pair(args)
    # the plan validates the pair first: an identical pair gets the plan's error
    plan = simulate.SimulationPlan(
        params=params,
        start=start,
        target=target,
        replications=args.reps,
        seed=args.seed,
        workers=args.workers,
        max_steps=args.max_steps,
    )
    estimate = simulate.run(plan)
    _, value = _formula(params, start, target)
    # the CSV row is the first seven results, in SIMULATE_CSV_HEADER's order
    results = {
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "reps": estimate.replications_completed,
        "truncated": estimate.truncated_count,
        "ci95_low": estimate.ci95_low,
        "ci95_high": estimate.ci95_high,
        "seed": estimate.seed,
        "exact_value": value,
    }
    if estimate.std_error > 0:
        results["standardized_error"] = (estimate.mean - float(value)) / estimate.std_error
    # the worker count is deliberately not echoed: output is identical for
    # any worker split, and the report must be too
    return RunReport("simulate", {**pair, "reps": args.reps, "seed": args.seed}, results)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _budget_flag(text: str) -> int:
    """A positive state count, from a budget flag or ``URNWALK_ORACLE_BUDGET``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive state count, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="urnwalk",
        description="Exact hitting times for the n-urn ball-transfer walk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, pair=False):
        sp.add_argument("--urns", type=int, required=True, help="number of urns (>= 2)")
        sp.add_argument("--balls", type=int, required=True, help="number of balls (>= 1)")
        if pair:
            sp.add_argument(
                "--from", dest="start", default=None,
                help='start placement, e.g. "1,1,1" (default: all balls in urn 1)',
            )
            sp.add_argument(
                "--to", dest="target", default=None,
                help='target placement (default: all balls in urn 2)',
            )
            sp.add_argument(
                "--hamming", type=int, default=None,
                help="use the canonical pair at this distance instead of --from/--to",
            )

    sp = sub.add_parser("exact", help="closed-form transfer time and increments")
    common(sp)

    sp = sub.add_parser("general", help="hitting time between two placements")
    common(sp, pair=True)

    sp = sub.add_parser("verify", help="run the exact invariant suite")
    sp.add_argument("--max-urns", type=int, default=checks.DEFAULT_MAX_URNS)
    sp.add_argument("--max-balls", type=int, default=checks.DEFAULT_MAX_BALLS)
    sp.add_argument(
        "--oracle-budget", type=_budget_flag, default=None,
        help="state-count cap for oracle solves "
        f"(default: ${ENV_BUDGET} or {checks.DEFAULT_ORACLE_BUDGET})",
    )

    sp = sub.add_parser("oracle", help="exact hitting time, solved over all states")
    common(sp, pair=True)
    sp.add_argument(
        "--budget", type=_budget_flag, default=None,
        help=f"exact-solve state budget (default: ${ENV_BUDGET} or "
        f"{oracle.DEFAULT_EXACT_BUDGET})",
    )
    sp.add_argument(
        "--approx", action="store_true",
        help="allow the floating-point fallback beyond the exact budget",
    )

    sp = sub.add_parser("simulate", help="seeded Monte Carlo estimate")
    common(sp, pair=True)
    sp.add_argument("--reps", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--max-steps", type=int, default=None)

    # csv has one row shape, the simulate estimate's
    for name, sp in sub.choices.items():
        csv = ("csv",) if name == "simulate" else ()
        sp.add_argument(
            "--format",
            choices=("auto", "table", "json") + csv,
            default="auto",
            help="output format (auto: table on a terminal, json otherwise)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        # looked up per call: the cached parser holds no handler
        report = globals()[f"handle_{args.command}"](args)
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        sys.stdout.write(render(report, args.format, elapsed_ms))
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SimulationTruncatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UrnwalkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(passed for _, passed, _ in report.checks) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
