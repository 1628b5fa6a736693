import json
import re
import sys
from fractions import Fraction

import pytest

from urnwalk import cli, exact, model


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    payload = json.loads(out)
    assert payload["schema"] == 1
    return payload


def results_by_label(payload):
    return {entry["label"]: entry for entry in payload["results"]}


def table_lines(out):
    """The table's lines but its last, the elapsed time."""
    *lines, elapsed = out.split("\n")[:-1]
    assert re.fullmatch(r"elapsed: \d+ ms", elapsed)
    return lines


class TestExactCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--urns", "5", "--balls", "3")
        assert code == 0
        payload = parse_json(out)
        rows = results_by_label(payload)
        assert rows["transfer_time"]["rational"] == "142/1"
        assert rows["transfer_time"]["decimal"] == 142.0
        assert rows["increment_2"]["rational"] == "124/1"

    def test_second_example(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--urns", "4", "--balls", "4")
        assert code == 0
        assert results_by_label(parse_json(out))["transfer_time"]["rational"] == "292/1"

    def test_minimal_case(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--urns", "2", "--balls", "1")
        assert code == 0
        assert results_by_label(parse_json(out))["transfer_time"]["rational"] == "1/1"

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--urns", "5", "--balls", "3", "--format", "table"
        )
        assert code == 0
        assert "transfer_time = 142/1" in out
        assert "elapsed:" in out

    def test_rational_strings_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--urns", "6", "--balls", "5")
        payload = parse_json(out)
        from urnwalk.model import ModelParams

        rows = results_by_label(payload)
        assert Fraction(rows["transfer_time"]["rational"]) == exact.full_transfer_time(
            ModelParams(6, 5)
        )

    def test_bad_flags(self, capsys):
        code, _, _ = run_cli(capsys, "exact", "--urns", "5")
        assert code == 2
        code, _, err = run_cli(capsys, "exact", "--urns", "1", "--balls", "3")
        assert code == 2
        assert "error" in err


class TestPastFloatRange:
    # at 5 urns the values leave the float range from 442 balls on
    def test_exact_keeps_rational_and_nulls_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--urns", "5", "--balls", "442")
        assert code == 0
        rows = results_by_label(parse_json(out))
        from urnwalk.model import ModelParams

        total = exact.full_transfer_time(ModelParams(5, 442))
        assert Fraction(rows["transfer_time"]["rational"]) == total
        assert rows["transfer_time"]["decimal"] is None
        assert rows["increment_0"]["decimal"] == float(
            Fraction(rows["increment_0"]["rational"])
        )

    def test_general_at_full_distance(self, capsys):
        code, out, _ = run_cli(
            capsys, "general", "--urns", "5", "--balls", "442",
            "--hamming", "442", "--format", "table",
        )
        assert code == 0
        assert "hitting_time = " in out


class TestPastDigitLimit:
    # the transfer time at 5 urns and 7000 balls has more than 4300 digits,
    # the interpreter's default limit for converting an int to a string
    def test_exact_prints_every_digit(self, capsys):
        import sys

        from urnwalk.model import ModelParams

        code, out, _ = run_cli(capsys, "exact", "--urns", "5", "--balls", "7000")
        assert code == 0
        rational = results_by_label(parse_json(out))["transfer_time"]["rational"]
        assert len(rational) > 4300
        if hasattr(sys, "set_int_max_str_digits"):
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        try:
            parsed = Fraction(rational)
        finally:
            if hasattr(sys, "set_int_max_str_digits"):
                sys.set_int_max_str_digits(limit)
        assert parsed == exact.full_transfer_time(ModelParams(5, 7000))

    def test_render_lifts_the_limit_once_and_restores_it(self, monkeypatch):
        limits, set_limit = [], sys.set_int_max_str_digits
        before = sys.get_int_max_str_digits()

        def spy(limit):
            limits.append(limit)
            set_limit(limit)

        monkeypatch.setattr(sys, "set_int_max_str_digits", spy)
        results = {f"x{k}": Fraction(k, k + 1) for k in range(1, 6)}
        out = cli.render(cli.RunReport("exact", {}, results), "json", 0)
        assert limits == [0, before] and sys.get_int_max_str_digits() == before
        assert '"rational":"5/6"' in out


class TestGeneralCommand:
    def test_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "general", "--urns", "5", "--balls", "3",
            "--from", "1,1,1", "--to", "1,1,2",
        )
        assert code == 0
        rows = results_by_label(parse_json(out))
        assert rows["hamming_distance"]["value"] == 1
        assert rows["hitting_time"]["rational"] == "124/1"

    def test_full_distance_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "general", "--urns", "5", "--balls", "3",
            "--from", "1,1,1", "--to", "2,2,2",
        )
        rows = results_by_label(parse_json(out))
        assert rows["hamming_distance"]["value"] == 3
        assert rows["hitting_time"]["rational"] == "142/1"

    def test_hamming_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "general", "--urns", "4", "--balls", "4", "--hamming", "2"
        )
        assert code == 0
        assert results_by_label(parse_json(out))["hitting_time"]["rational"] == "282/1"

    def test_identical_pair_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "general", "--urns", "3", "--balls", "2",
            "--from", "1,2", "--to", "1,2",
        )
        assert code == 2
        assert "identical" in err

    @pytest.mark.parametrize(
        "pair, checks",
        [(["--from", "1,2", "--to", "2,3"], 2), (["--hamming", "2"], 0)],
        ids=["from-to", "hamming"],
    )
    def test_each_placement_checked_once(self, capsys, monkeypatch, pair, checks):
        # parsing checks each placement; the canonical pair needs no check,
        # and the formula's query takes the distance the pair command
        # resolved (exact reads no placement)
        calls = []
        check = model.check_configuration

        def spy(config, params):
            calls.append(config)
            return check(config, params)

        monkeypatch.setattr(model, "check_configuration", spy)
        code, out, _ = run_cli(
            capsys, "general", "--urns", "3", "--balls", "2", *pair, "--format", "json"
        )
        assert code == 0 and len(calls) == checks
        assert results_by_label(parse_json(out))["hamming_distance"]["value"] == 2

    def test_parse_failure(self, capsys):
        code, _, _ = run_cli(
            capsys, "general", "--urns", "3", "--balls", "2",
            "--from", "1,banana", "--to", "2,2",
        )
        assert code == 2

    def test_hamming_conflicts_with_pair(self, capsys):
        code, _, _ = run_cli(
            capsys, "general", "--urns", "3", "--balls", "2",
            "--from", "1,1", "--to", "2,2", "--hamming", "1",
        )
        assert code == 2


class TestOracleCommand:
    def test_small_solve_matches(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--urns", "3", "--balls", "2",
            "--from", "1,1", "--to", "2,2",
        )
        assert code == 0
        payload = parse_json(out)
        rows = results_by_label(payload)
        assert rows["oracle_hitting_time"]["rational"] == "10/1"
        assert payload["checks"][0]["passed"] is True

    def test_example_solve(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--urns", "5", "--balls", "3",
            "--from", "1,1,1", "--to", "2,2,2",
        )
        assert code == 0
        assert (
            results_by_label(parse_json(out))["oracle_hitting_time"]["rational"]
            == "142/1"
        )

    def test_size_error(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--urns", "10", "--balls", "10",
            "--from", ",".join(["1"] * 10), "--to", ",".join(["2"] * 10),
        )
        assert code == 3
        assert "10000000000" in err

    def test_approx_fallback(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--urns", "3", "--balls", "7",
            "--budget", "1024", "--approx",
        )
        assert code == 0
        payload = parse_json(out)
        rows = results_by_label(payload)
        assert rows["solver_residual"]["value"] < 1e-9
        assert payload["checks"][0]["passed"] is True


class TestSimulateCommand:
    def test_byte_identical_repeat_and_workers(self, capsys):
        args = (
            "simulate", "--urns", "3", "--balls", "2",
            "--reps", "400", "--seed", "9",
        )
        code1, out1, _ = run_cli(capsys, *args, "--workers", "1")
        code2, out2, _ = run_cli(capsys, *args, "--workers", "1")
        code3, out3, _ = run_cli(capsys, *args, "--workers", "2")
        assert code1 == code2 == code3 == 0
        assert out1 == out2 == out3

    def test_csv_header_and_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--urns", "3", "--balls", "2",
            "--reps", "200", "--seed", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mean,std_error,reps,truncated,ci95_low,ci95_high,seed"
        fields = lines[1].split(",")
        assert len(fields) == 7
        assert int(fields[2]) == 200
        assert int(fields[6]) == 4

    def test_reports_standardized_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--urns", "5", "--balls", "3",
            "--reps", "2000", "--seed", "42",
        )
        assert code == 0
        rows = results_by_label(parse_json(out))
        assert rows["exact_value"]["rational"] == "142/1"
        assert abs(rows["standardized_error"]["value"]) < 4

    def test_truncation_failure_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--urns", "5", "--balls", "3",
            "--reps", "20", "--seed", "0", "--max-steps", "2",
        )
        assert code == 1
        assert "truncated" in err


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-urns", "3", "--max-balls", "2",
        )
        assert code == 0
        payload = parse_json(out)
        assert payload["ok"] is True
        assert payload["checks"]
        assert all(row["passed"] for row in payload["checks"])

    def test_minimal_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-urns", "2", "--max-balls", "1",
        )
        assert code == 0
        assert parse_json(out)["ok"] is True

    def test_empty_grid_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-urns", "1")
        assert code == 1
        payload = parse_json(out)
        assert payload["ok"] is False
        for row in payload["checks"]:
            assert row["passed"] is (row["name"] == "termwise-witness")

    def test_rows_emptied_by_the_budget_fail(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--oracle-budget", "1",
            "--max-urns", "3", "--max-balls", "2",
        )
        assert code == 1
        rows = {row["name"]: row for row in parse_json(out)["checks"]}
        oracle_rows = ["oracle-transfer", "oracle-distance",
                       "first-visit-triple", "fiber-checks"]
        for name in oracle_rows:
            assert rows[name]["passed"] is False
            assert rows[name]["detail"].startswith("0 cells")
        others = [row for name, row in rows.items() if name not in oracle_rows]
        assert all(row["passed"] for row in others)

    def test_injected_fault_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(
            exact, "full_transfer_time", lambda params: Fraction(999)
        )
        code, out, _ = run_cli(
            capsys, "verify", "--max-urns", "3", "--max-balls", "2",
        )
        assert code == 1
        payload = parse_json(out)
        assert payload["ok"] is False
        assert any(not row["passed"] for row in payload["checks"])


    def test_wrong_lumped_kernel_fails_its_rows(self, capsys, monkeypatch):
        # rows still sum to the degree but are not the walk's kernel: at
        # three or more urns, one of class 1's self-moves goes to class 3
        from urnwalk import model, oracle

        def wrong_kernel(params):
            rows = model.lumped_kernel(params)
            if params.urns >= 3:
                rows[0][1] -= 1
                rows[0][3] = rows[0].get(3, 0) + 1
            return rows

        monkeypatch.setattr(oracle, "lumped_kernel", wrong_kernel)
        code, out, _ = run_cli(
            capsys, "verify", "--max-urns", "3", "--max-balls", "3", "--format", "json",
        )
        assert code == 1
        rows = {row["name"]: row for row in parse_json(out)["checks"]}
        # the first-visit row reads the lumped solve; the fiber row reads
        # only the full walk and the closed form
        failed = {name for name, row in rows.items() if not row["passed"]}
        assert failed == {"first-visit-triple"}
        assert rows["fiber-checks"]["passed"] is True
        assert "first failure ModelParams(urns=3, balls=2)" in rows["first-visit-triple"]["detail"]

    def test_unsolvable_cells_fail_their_rows(self, capsys, monkeypatch, request):
        # a walk that leaves the last ball's axis out once it has three
        # balls: refinement stalls on some cells, 4x3 among them, as the
        # float products no longer match the exact ones, and gives wrong
        # values on others.  Either fails its cell; the run goes on.
        from urnwalk import oracle

        axis_sums = model._axis_sums
        monkeypatch.setattr(
            model,
            "_axis_sums",
            # the first M - 1 balls' axes are the same at M - 1 balls
            lambda full, urns, balls: axis_sums(full, urns, balls - (balls >= 3)),
        )
        for cache in (model._ball_runs, oracle._fiber_hitting_vector):
            cache.cache_clear()
            request.addfinalizer(cache.cache_clear)
        params = model.ModelParams(4, 3)
        with pytest.raises(ValueError, match="refinement stalled"):
            oracle.expected_hitting_time(params, (1, 1, 1), (2, 2, 2))
        code, out, err = run_cli(capsys, "verify", "--max-urns", "4", "--max-balls", "3")
        assert (code, err) == (1, "")
        rows = {row["name"]: row for row in parse_json(out)["checks"]}
        for name in ("oracle-transfer", "oracle-distance", "first-visit-triple", "fiber-checks"):
            assert rows[name]["passed"] is False
            assert ", first failure ModelParams(urns=2, balls=3)" in rows[name]["detail"]


class TestBudgetValidation:
    def test_nonpositive_env_budget_rejected(self, capsys, monkeypatch):
        for raw in ("-5", "0", "many"):
            monkeypatch.setenv(cli.ENV_BUDGET, raw)
            code, out, err = run_cli(
                capsys, "verify", "--max-urns", "2", "--max-balls", "1",
            )
            assert code == 2
            assert out == ""
            assert cli.ENV_BUDGET in err
            code, _, _ = run_cli(capsys, "oracle", "--urns", "2", "--balls", "2")
            assert code == 2

    def test_nonpositive_flag_budget_rejected(self, capsys):
        for value in ("0", "-5"):
            code, out, _ = run_cli(capsys, "verify", "--oracle-budget", value)
            assert (code, out) == (2, "")
            code, out, _ = run_cli(
                capsys, "oracle", "--urns", "2", "--balls", "2", "--budget", value,
            )
            assert (code, out) == (2, "")

    def test_env_budget_reaches_verify(self, capsys, monkeypatch):
        from urnwalk import checks

        monkeypatch.setenv(cli.ENV_BUDGET, "9")
        code, out, _ = run_cli(capsys, "verify", "--max-urns", "3", "--max-balls", "2")
        assert code == 0
        assert parse_json(out)["params"]["oracle_budget"] == 9
        monkeypatch.delenv(cli.ENV_BUDGET)
        code, out, _ = run_cli(capsys, "verify", "--max-urns", "3", "--max-balls", "2")
        assert parse_json(out)["params"]["oracle_budget"] == checks.DEFAULT_ORACLE_BUDGET

    def test_env_budget_reaches_oracle(self, capsys, monkeypatch):
        # 3x2 has 9 states: a budget of 8 is a size error, 9 solves
        monkeypatch.setenv(cli.ENV_BUDGET, "8")
        code, out, err = run_cli(capsys, "oracle", "--urns", "3", "--balls", "2")
        assert (code, out) == (3, "")
        assert "budget of 8" in err
        monkeypatch.setenv(cli.ENV_BUDGET, "9")
        code, out, _ = run_cli(capsys, "oracle", "--urns", "3", "--balls", "2")
        assert code == 0
        payload = parse_json(out)
        assert payload["params"]["budget"] == 9
        assert results_by_label(payload)["oracle_hitting_time"]["rational"] == "10/1"

    def test_flag_overrides_env_budget(self, capsys, monkeypatch):
        # the variable is not read, so even a bad value is ignored
        monkeypatch.setenv(cli.ENV_BUDGET, "many")
        code, out, _ = run_cli(
            capsys, "oracle", "--urns", "3", "--balls", "2", "--budget", "9",
        )
        assert code == 0
        assert parse_json(out)["params"]["budget"] == 9


class TestFormats:
    def test_csv_rejected_outside_simulate(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--urns", "3", "--balls", "2", "--format", "csv"
        )
        assert code == 2
        assert "csv" in err

    def test_verify_rejects_csv_before_running(self, capsys, monkeypatch):
        from urnwalk import checks

        def unexpected(**kwargs):
            raise AssertionError("verify ran its suite")

        monkeypatch.setattr(checks, "run_verification", unexpected)
        code, out, err = run_cli(capsys, "verify", "--format", "csv")
        assert (code, out) == (2, "")
        assert "csv" in err

    def test_json_has_stable_schema_fields(self, capsys):
        for argv in (
            ("exact", "--urns", "3", "--balls", "2"),
            ("general", "--urns", "3", "--balls", "2", "--hamming", "1"),
            ("oracle", "--urns", "3", "--balls", "2"),
            ("simulate", "--urns", "3", "--balls", "2", "--reps", "50", "--seed", "1"),
            ("verify", "--max-urns", "2", "--max-balls", "2"),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            payload = parse_json(out)
            assert set(payload) == {
                "schema", "command", "params", "results", "checks", "ok",
            }


# verify's rows on the 3x2 grid; the budget-1 grid fails the last four
VERIFY_ROWS = [
    "  [PASS] transfer-time-routes  4 cells",
    "  [PASS] increment-routes  4 cells",
    "  [PASS] distance-collapse  4 cells",
    "  [PASS] sum-identity  4 cells",
    "  [PASS] termwise-witness  at ModelParams(urns=5, balls=3): totals equal, terms differ",
    "  [PASS] occupancy-routes  4 cells",
    "  [PASS] occupancy-aggregation  4 cells",
    "  [PASS] lump-aggregation  4 cells",
]


class TestTableFormat:
    def test_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--urns", "3", "--balls", "2", "--format", "table"
        )
        assert code == 0
        assert table_lines(out) == [
            "command: oracle",
            "params: urns=3 balls=2 from=1,1 to=2,2 budget=4096",
            "  states = 9",
            "  oracle_hitting_time = 10/1 (10)",
            "  formula_hitting_time = 10/1 (10)",
            "  [PASS] matches-formula  exact equality",
            "ok: yes",
        ]

    def test_simulate(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--urns", "5", "--balls", "3",
            "--reps", "300", "--seed", "4", "--format", "table",
        )
        assert code == 0
        assert table_lines(out) == [
            "command: simulate",
            "params: urns=5 balls=3 from=1,1,1 to=2,2,2 reps=300 seed=4",
            "  mean = 139.64",
            "  std_error = 7.643797348446966",
            "  reps = 300",
            "  truncated = 0",
            "  ci95_low = 124.65815719704393",
            "  ci95_high = 154.62184280295605",
            "  seed = 4",
            "  exact_value = 142/1 (142)",
            "  standardized_error = -0.30874706542024016",
            "ok: yes",
        ]

    def test_passing_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-urns", "3", "--max-balls", "2", "--format", "table"
        )
        assert code == 0
        assert table_lines(out) == [
            "command: verify",
            "params: max_urns=3 max_balls=2 oracle_budget=1024",
            *VERIFY_ROWS,
            "  [PASS] oracle-transfer  4 cells",
            "  [PASS] oracle-distance  4 cells, 17 pairs",
            "  [PASS] first-visit-triple  2 cells",
            "  [PASS] fiber-checks  2 cells",
            "ok: yes",
        ]

    def test_failing_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-urns", "3", "--max-balls", "2",
            "--oracle-budget", "1", "--format", "table",
        )
        assert code == 1
        assert table_lines(out) == [
            "command: verify",
            "params: max_urns=3 max_balls=2 oracle_budget=1",
            *VERIFY_ROWS,
            "  [FAIL] oracle-transfer  0 cells",
            "  [FAIL] oracle-distance  0 cells, 0 pairs",
            "  [FAIL] first-visit-triple  0 cells",
            "  [FAIL] fiber-checks  0 cells",
            "ok: no",
        ]

    def test_auto_is_table_on_a_terminal(self, capsys, monkeypatch):
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        code, out, _ = run_cli(capsys, "exact", "--urns", "5", "--balls", "3")
        assert code == 0
        assert table_lines(out) == [
            "command: exact",
            "params: urns=5 balls=3",
            "  transfer_time = 142/1 (142)",
            "  increment_0 = 4/1 (4)",
            "  increment_1 = 14/1 (14)",
            "  increment_2 = 124/1 (124)",
            "ok: yes",
        ]


def test_plain_value_error_is_a_usage_error(capsys, monkeypatch):
    def handler(args):
        raise ValueError("not a number")

    monkeypatch.setattr(cli, "handle_exact", handler)
    code, out, err = run_cli(capsys, "exact", "--urns", "5", "--balls", "3")
    assert (code, out, err) == (2, "", "error: not a number\n")


class TestCachedParser:
    """``build_parser`` is built once per process; no call leaks into the next."""

    def spy(self, monkeypatch, name):
        """Record the namespace each ``handle_<name>`` call gets."""
        seen = []
        handler = getattr(cli, f"handle_{name}")

        def record(args):
            seen.append(args)
            return handler(args)

        monkeypatch.setattr(cli, f"handle_{name}", record)
        return seen

    def fresh(self, capsys, *argv):
        """The call's exit code and output on a newly built parser."""
        cli.build_parser.cache_clear()
        return run_cli(capsys, *argv)

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_pair_flag_does_not_carry_over(self, capsys, monkeypatch):
        seen = self.spy(monkeypatch, "oracle")
        assert run_cli(capsys, "general", "--urns", "3", "--balls", "3", "--hamming", "2")[0] == 0
        code, out, _ = run_cli(capsys, "oracle", "--urns", "3", "--balls", "2", "--format", "json")
        assert code == 0
        assert seen[0].hamming is None
        assert parse_json(out)["params"]["to"] == "2,2"

    def test_format_does_not_carry_over(self, capsys, monkeypatch):
        seen = self.spy(monkeypatch, "exact")
        code, out, _ = run_cli(
            capsys, "simulate", "--urns", "2", "--balls", "2", "--reps", "10", "--format", "csv"
        )
        assert code == 0 and out.startswith(cli.SIMULATE_CSV_HEADER)
        code, out, _ = run_cli(capsys, "exact", "--urns", "5", "--balls", "3")
        assert code == 0
        assert seen[0].format == "auto"
        assert parse_json(out)["command"] == "exact"

    def test_call_after_a_usage_error_matches_a_fresh_one(self, capsys):
        argv = ("general", "--urns", "4", "--balls", "4", "--hamming", "2", "--format", "json")
        want = self.fresh(capsys, *argv)
        code, _, err = run_cli(capsys, "general", "--urns", "4", "--balls", "x")
        assert code == 2 and "invalid int value" in err
        assert run_cli(capsys, *argv) == want

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0 and out.startswith("usage: urnwalk")
        code, out, _ = run_cli(capsys, "general", "--help")
        assert code == 0 and "--hamming" in out
