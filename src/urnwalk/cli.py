"""Command-line frontend.

Five subcommands: ``exact`` (closed forms), ``general`` (pairwise hitting
time), ``verify`` (the invariant suite), ``oracle`` (exact linear solve
over all states), and ``simulate`` (seeded Monte Carlo).  Output is a human-readable table on
a terminal and JSON lines when piped; ``--format`` overrides.  Exact values
are always printed losslessly as ``numerator/denominator`` next to their
decimal approximation.

Exit codes: 0 success, 1 any check failure, 2 usage or validation error,
3 resource or size error.  The state budget of ``oracle`` and ``verify``
is resolved here alone (:func:`_budget`); the library takes it as an argument.
"""

from __future__ import annotations

import argparse
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
    ModelParams,
    all_in_urn,
    format_configuration,
    parse_configuration,
)

SCHEMA_VERSION = 1
ENV_BUDGET = "URNWALK_ORACLE_BUDGET"
SIMULATE_CSV_HEADER = "mean,std_error,reps,truncated,ci95_low,ci95_high,seed"
FLOAT_COMPARE_RTOL = 1e-9


@dataclass
class RunReport:
    command: str
    params: dict
    results: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    ok: bool = True
    elapsed_ms: int = 0


def rational_entry(label: str, value: Fraction) -> dict:
    """An exact value; its ``decimal`` is None past the float range."""
    try:
        decimal = float(value)
    except OverflowError:
        decimal = None
    return {
        "label": label,
        "rational": f"{_digits(value.numerator)}/{_digits(value.denominator)}",
        "decimal": decimal,
    }


def _digits(value: int) -> str:
    """``str(value)`` at any size, past the interpreter's int-to-str digit limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python before 3.11
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def scalar_entry(label: str, value) -> dict:
    return {"label": label, "value": value}


def check_entry(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": passed, "detail": detail}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def report_json(report: RunReport) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "command": report.command,
        "params": report.params,
        "results": report.results,
        "checks": report.checks,
        "ok": report.ok,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def report_table(report: RunReport) -> str:
    lines = [f"command: {report.command}"]
    if report.params:
        lines.append(
            "params: " + " ".join(f"{k}={v}" for k, v in report.params.items())
        )
    for entry in report.results:
        if "rational" in entry:
            decimal = entry["decimal"]
            approx = "" if decimal is None else f" ({decimal:g})"
            lines.append(f"  {entry['label']} = {entry['rational']}{approx}")
        else:
            lines.append(f"  {entry['label']} = {entry['value']}")
    for row in report.checks:
        mark = "PASS" if row["passed"] else "FAIL"
        detail = f"  {row['detail']}" if row.get("detail") else ""
        lines.append(f"  [{mark}] {row['name']}{detail}")
    lines.append(f"ok: {'yes' if report.ok else 'no'}")
    lines.append(f"elapsed: {report.elapsed_ms} ms")
    return "\n".join(lines) + "\n"


def report_csv(report: RunReport) -> str:
    row = {entry["label"]: entry for entry in report.results}
    values = [
        repr(row["mean"]["value"]),
        repr(row["std_error"]["value"]),
        str(row["reps"]["value"]),
        str(row["truncated"]["value"]),
        repr(row["ci95_low"]["value"]),
        repr(row["ci95_high"]["value"]),
        str(row["seed"]["value"]),
    ]
    return SIMULATE_CSV_HEADER + "\n" + ",".join(values) + "\n"


def render(report: RunReport, fmt: str) -> str:
    if fmt == "auto":
        fmt = "table" if sys.stdout.isatty() else "json"
    if fmt == "json":
        return report_json(report)
    if fmt == "csv":
        return report_csv(report)
    return report_table(report)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _params(args) -> ModelParams:
    return ModelParams(urns=args.urns, balls=args.balls)


def _pair_from_args(args, params: ModelParams):
    has_pair = args.start is not None or args.target is not None
    if getattr(args, "hamming", None) is not None:
        if has_pair:
            raise ValidationError("give either --hamming or --from/--to, not both")
        return simulate.distance_pair(params, args.hamming)
    start = (
        parse_configuration(args.start, params)
        if args.start is not None
        else all_in_urn(params, SOURCE_URN)
    )
    target = (
        parse_configuration(args.target, params)
        if args.target is not None
        else all_in_urn(params, TARGET_URN)
    )
    return start, target


def handle_exact(args) -> RunReport:
    params = _params(args)
    value = exact.full_transfer_time(params)
    report = RunReport(
        command="exact", params={"urns": params.urns, "balls": params.balls}
    )
    report.results.append(rational_entry("transfer_time", value))
    for k, increment in enumerate(exact.passage_increments(params)):
        report.results.append(rational_entry(f"increment_{k}", increment))
    return report


def handle_general(args) -> RunReport:
    params = _params(args)
    start, target = _pair_from_args(args, params)
    query = exact.HittingQuery.from_configurations(params, start, target)
    value = exact.general_hitting_time(query)
    report = RunReport(
        command="general",
        params={
            "urns": params.urns,
            "balls": params.balls,
            "from": format_configuration(start),
            "to": format_configuration(target),
        },
    )
    report.results.append(scalar_entry("hamming_distance", query.hamming_distance))
    report.results.append(rational_entry("hitting_time", value))
    return report


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
    report = RunReport(
        command="verify",
        params={
            "max_urns": args.max_urns,
            "max_balls": args.max_balls,
            "oracle_budget": budget,
        },
    )
    for row in rows:
        report.checks.append(check_entry(row.name, row.passed, row.detail))
    report.ok = all(row.passed for row in rows)
    return report


def handle_oracle(args) -> RunReport:
    params = _params(args)
    start, target = _pair_from_args(args, params)
    budget = _budget(args.budget, oracle.DEFAULT_EXACT_BUDGET)
    query = exact.HittingQuery.from_configurations(params, start, target)
    formula = exact.general_hitting_time(query)
    report = RunReport(
        command="oracle",
        params={
            "urns": params.urns,
            "balls": params.balls,
            "from": format_configuration(start),
            "to": format_configuration(target),
            "budget": budget,
        },
    )
    report.results.append(scalar_entry("states", params.state_count))
    if params.state_count > budget and args.approx:
        value, residual = oracle.expected_hitting_time_float(params, start, target)
        report.results.append(scalar_entry("oracle_hitting_time_approx", value))
        report.results.append(scalar_entry("solver_residual", residual))
        report.results.append(rational_entry("formula_hitting_time", formula))
        matches = abs(value - float(formula)) <= FLOAT_COMPARE_RTOL * max(
            1.0, abs(float(formula))
        )
        report.checks.append(
            check_entry(
                "matches-formula", matches, f"relative tolerance {FLOAT_COMPARE_RTOL}"
            )
        )
    else:
        value = oracle.expected_hitting_time(params, start, target, budget=budget)
        report.results.append(rational_entry("oracle_hitting_time", value))
        report.results.append(rational_entry("formula_hitting_time", formula))
        matches = value == formula
        report.checks.append(
            check_entry("matches-formula", matches, "exact equality")
        )
    report.ok = all(row["passed"] for row in report.checks)
    return report


def handle_simulate(args) -> RunReport:
    params = _params(args)
    start, target = _pair_from_args(args, params)
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
    # the worker count is deliberately not echoed: output is identical for
    # any worker split, and the report must be too
    report = RunReport(
        command="simulate",
        params={
            "urns": params.urns,
            "balls": params.balls,
            "from": format_configuration(start),
            "to": format_configuration(target),
            "reps": args.reps,
            "seed": args.seed,
        },
    )
    report.results.append(scalar_entry("mean", estimate.mean))
    report.results.append(scalar_entry("std_error", estimate.std_error))
    report.results.append(scalar_entry("reps", estimate.replications_completed))
    report.results.append(scalar_entry("truncated", estimate.truncated_count))
    report.results.append(scalar_entry("ci95_low", estimate.ci95_low))
    report.results.append(scalar_entry("ci95_high", estimate.ci95_high))
    report.results.append(scalar_entry("seed", estimate.seed))

    query = exact.HittingQuery.from_configurations(params, start, target)
    value = exact.general_hitting_time(query)
    report.results.append(rational_entry("exact_value", value))
    if estimate.std_error > 0:
        z = (estimate.mean - float(value)) / estimate.std_error
        report.results.append(scalar_entry("standardized_error", z))
    return report


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


def build_parser() -> argparse.ArgumentParser:
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
    sp.set_defaults(handler=handle_exact)

    sp = sub.add_parser("general", help="hitting time between two placements")
    common(sp, pair=True)
    sp.set_defaults(handler=handle_general)

    sp = sub.add_parser("verify", help="run the exact invariant suite")
    sp.add_argument("--max-urns", type=int, default=checks.DEFAULT_MAX_URNS)
    sp.add_argument("--max-balls", type=int, default=checks.DEFAULT_MAX_BALLS)
    sp.add_argument(
        "--oracle-budget", type=_budget_flag, default=None,
        help="state-count cap for oracle solves "
        f"(default: ${ENV_BUDGET} or {checks.DEFAULT_ORACLE_BUDGET})",
    )
    sp.set_defaults(handler=handle_verify)

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
    sp.set_defaults(handler=handle_oracle)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo estimate")
    common(sp, pair=True)
    sp.add_argument("--reps", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--max-steps", type=int, default=None)
    sp.set_defaults(handler=handle_simulate)

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
        report = args.handler(args)
        report.elapsed_ms = int((time.perf_counter() - started) * 1000)
        sys.stdout.write(render(report, args.format))
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SimulationTruncatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UrnwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
