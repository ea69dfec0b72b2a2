import csv
import io
import json
import math

import pytest
from click.testing import CliRunner

from circkit.cli import main
from circkit.report import CSV_COLUMNS, InvariantResult


@pytest.fixture
def runner():
    return CliRunner()


def _lines(output):
    return [json.loads(line) for line in output.strip().splitlines() if line]


def test_compute_resistance_closed(runner):
    result = runner.invoke(main, [
        "compute", "--n", "5", "--delete", "1", "--quantity", "resistance",
        "--u", "0", "--v", "2", "--method", "closed", "--exact",
    ])
    assert result.exit_code == 0, result.output
    record = _lines(result.output)[0]
    assert record["value"] == "4/5"
    assert record["representation"] == "rational"
    assert record["metadata"]["q"] == 2


def test_compute_trees_closed_exact(runner):
    result = runner.invoke(main, [
        "compute", "--n", "7", "--delete", "1", "--quantity", "trees",
        "--method", "closed", "--exact",
    ])
    assert result.exit_code == 0
    assert _lines(result.output)[0]["value"] == "1183"


def test_compute_even_n_closed_rejected(runner):
    result = runner.invoke(main, [
        "compute", "--n", "6", "--delete", "1", "--quantity", "trees", "--method", "closed",
    ])
    assert result.exit_code == 2
    assert "odd" in result.output


def test_compute_disconnected_exit_code(runner):
    result = runner.invoke(main, [
        "compute", "--n", "6", "--delete", "1,2", "--quantity", "resistance",
        "--u", "0", "--v", "1", "--method", "spectral",
    ])
    assert result.exit_code == 3


def test_compute_gcd_violation(runner):
    result = runner.invoke(main, [
        "compute", "--n", "9", "--delete", "3", "--quantity", "resistance",
        "--q", "1", "--method", "closed",
    ])
    assert result.exit_code == 2


def test_compute_defaults_to_all_distances(runner):
    result = runner.invoke(main, [
        "compute", "--n", "7", "--delete", "1", "--quantity", "resistance",
        "--method", "spectral",
    ])
    records = _lines(result.output)
    assert [r["metadata"]["q"] for r in records] == [1, 2, 3]


def test_compute_monte_carlo(runner):
    result = runner.invoke(main, [
        "compute", "--n", "5", "--delete", "1", "--quantity", "hitting",
        "--method", "monte-carlo", "--u", "0", "--v", "2",
        "--walks", "20000", "--seed", "42",
    ])
    assert result.exit_code == 0
    record = _lines(result.output)[0]
    assert abs(record["value"] - 4.0) < 4 * record["metadata"]["stderr"]
    assert record["metadata"]["walks"] == 20000


def test_compute_monte_carlo_wrong_quantity(runner):
    result = runner.invoke(main, [
        "compute", "--n", "5", "--delete", "1", "--quantity", "trees",
        "--method", "monte-carlo",
    ])
    assert result.exit_code == 2


def test_compute_csv_schema(runner):
    result = runner.invoke(main, [
        "compute", "--n", "5", "--delete", "1", "--quantity", "resistance",
        "--method", "oracle", "--format", "csv",
    ])
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert rows[0]["exact_value"] == "6/5"


def test_compute_round_trips_through_result_type(runner):
    result = runner.invoke(main, [
        "compute", "--n", "9", "--delete", "2", "--quantity", "kirchhoff",
        "--method", "spectral",
    ])
    record = _lines(result.output)[0]
    parsed = InvariantResult.from_dict(record)
    assert parsed.to_dict() == record


def test_eig_dump(runner):
    result = runner.invoke(main, ["eig", "--n", "5"])
    records = _lines(result.output)
    assert len(records) == 5
    assert records[0]["value"] == 0.0
    assert all(r["value"] == pytest.approx(5.0) for r in records[1:])


def test_verify_passes(runner):
    result = runner.invoke(main, ["verify", "--n-min", "5", "--n-max", "9", "--odd-only"])
    assert result.exit_code == 0
    assert "failed=0" in result.output


def test_verify_transport_case(runner):
    result = runner.invoke(main, ["verify", "--n", "9", "--r", "2"])
    assert result.exit_code == 0


def test_verify_even_spec_skips_closed(runner):
    result = runner.invoke(main, ["verify", "--n", "6", "--delete", "3"])
    assert result.exit_code == 0
    report = json.loads(result.output[: result.output.rindex("}") + 1])
    methods = set()
    for case in report["cases"]:
        methods.update(case["values"])
    assert "closed" not in methods


def test_verify_failure_exit_code(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "verify", "--n", "5", "--tol", "resistance=0", "--output", str(out),
    ])
    assert result.exit_code == 1
    assert out.exists()
    assert json.loads(out.read_text())["summary"]["failed"] >= 1


def test_sweep_csv_and_footer(runner):
    result = runner.invoke(main, [
        "sweep", "--quantity", "tree-ratio", "--n-min", "5", "--n-max", "12",
        "--step", "1", "--format", "csv",
    ])
    assert result.exit_code == 0
    body = result.output.splitlines()
    rows = list(csv.DictReader(io.StringIO("\n".join(
        line for line in body if not line.startswith("skipped")
    ))))
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert "skipped 4 even n values" in result.output


def test_sweep_resistance_scaled_example(runner):
    result = runner.invoke(main, [
        "sweep", "--quantity", "resistance-scaled", "--q", "3", "--n-max", "501",
    ])
    rows = _lines(result.output)
    assert abs(rows[-1]["value"] - 1.0) < 1e-2


def test_output_dir_env(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("CIRCKIT_OUTPUT_DIR", str(tmp_path))
    result = runner.invoke(main, [
        "compute", "--n", "5", "--delete", "1", "--quantity", "trees",
        "--method", "oracle", "--output", "trees.jsonl",
    ])
    assert result.exit_code == 0
    saved = _lines((tmp_path / "trees.jsonl").read_text())
    assert saved[0]["value"] == "5"


def test_weighted_spec_flag(runner):
    result = runner.invoke(main, [
        "compute", "--n", "6", "--weights", "1=1/2,3=2", "--quantity", "resistance",
        "--u", "0", "--v", "3", "--method", "oracle",
    ])
    assert result.exit_code == 0
    record = _lines(result.output)[0]
    assert record["representation"] == "rational"


def test_compute_sparse_cycle_is_connected(runner):
    # the cycle's smallest eigenvalue 4 sin^2(pi/n) is far below 1e-9*n, yet it is connected
    result = runner.invoke(main, [
        "compute", "--n", "4001", "--weights", "1=1", "--quantity", "resistance",
        "--u", "0", "--v", "1000", "--method", "spectral",
    ])
    assert result.exit_code == 0, result.output
    record = _lines(result.output)[0]
    assert record["value"] == pytest.approx(1000 * 3001 / 4001, rel=1e-12)


def test_compute_tiny_weight_trees(runner):
    # tau of the 7-cycle with weight w is 7 w^6, here 7e-72, not zero
    result = runner.invoke(main, [
        "compute", "--n", "7", "--weights", "1=1/1000000000000", "--quantity", "trees",
        "--method", "spectral",
    ])
    assert result.exit_code == 0, result.output
    record = _lines(result.output)[0]
    assert record["value"] == pytest.approx(math.log(7) - 72 * math.log(10), rel=1e-12)
    assert "integer" not in record["metadata"]


def test_compute_records_carry_sparse_weights(runner):
    result = runner.invoke(main, [
        "compute", "--n", "9", "--weights", "1=1", "--quantity", "resistance",
        "--method", "spectral",
    ])
    assert result.exit_code == 0, result.output
    records = _lines(result.output)
    assert len(records) == 4
    for record in records:
        assert record["spec"] == {"n": 9, "weights": {"1": "1"}}


def test_compute_weight_below_float_range_exits_2(runner):
    # 1e-400 is a positive weight, so the graph is connected, but it is 0.0 as a float
    result = runner.invoke(main, [
        "compute", "--n", "9", "--weights", "1=1/1" + "0" * 400, "--quantity", "resistance",
        "--method", "spectral",
    ])
    assert result.exit_code == 2, result.output
    assert "float range" in result.output
