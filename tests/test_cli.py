import json
from fractions import Fraction

from urnwalk import cli, exact


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


class TestBudgetValidation:
    def test_nonpositive_env_budget_rejected(self, capsys, monkeypatch):
        from urnwalk import oracle

        for raw in ("-5", "0", "many"):
            monkeypatch.setenv(oracle.ENV_BUDGET, raw)
            code, out, err = run_cli(
                capsys, "verify", "--max-urns", "2", "--max-balls", "1",
            )
            assert code == 2
            assert out == ""
            assert oracle.ENV_BUDGET in err
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
        from urnwalk import checks, oracle

        monkeypatch.setenv(oracle.ENV_BUDGET, "9")
        code, out, _ = run_cli(capsys, "verify", "--max-urns", "3", "--max-balls", "2")
        assert code == 0
        assert parse_json(out)["params"]["oracle_budget"] == 9
        monkeypatch.delenv(oracle.ENV_BUDGET)
        code, out, _ = run_cli(capsys, "verify", "--max-urns", "3", "--max-balls", "2")
        assert parse_json(out)["params"]["oracle_budget"] == checks.DEFAULT_ORACLE_BUDGET


class TestFormats:
    def test_csv_rejected_outside_simulate(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--urns", "3", "--balls", "2", "--format", "csv"
        )
        assert code == 2
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
