"""Command-line surface: exit codes, artifacts, report rendering."""

import json

import pytest

from meandimlab.cli import main
from meandimlab.config import config_to_json, default_config, save_config


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    save_config(default_config(), path)
    return path


def test_widim_calibration(capsys):
    assert main(["widim"]) == 0
    out = capsys.readouterr().out
    assert "widim_upper = 1" in out
    assert "widim_upper = 2" in out
    assert "widim_upper = 3" in out


def test_widim_exact_certifies(capsys):
    assert main(["widim", "--mode", "exact", "--dim-max", "1", "--cells", "8"]) == 0
    out = capsys.readouterr().out
    assert "certified_lower = 1" in out


def test_marker_subcommand(capsys, config_file):
    assert main(["marker", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "M = 2584, M1 = 5474" in out
    assert "[PASS] marker-separation" in out


def test_tile_writes_csv(tmp_path, capsys):
    assert main(["tile", "--out", str(tmp_path)]) == 0
    header = (tmp_path / "tiling.csv").read_text().splitlines()[0]
    assert header == "label,lo,hi"


def test_pipeline_artifacts_and_report_rendering(tmp_path, capsys):
    assert main(["pipeline", "--seed", "7", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "overall     PASS" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] is True
    assert doc["config"]["sampling"]["seed"] == 7
    assert (tmp_path / "phi_trace.csv").exists()
    assert (tmp_path / "fibers.csv").exists()

    assert main(["report", "--out", str(tmp_path)]) == 0
    rendered = capsys.readouterr().out
    assert "verdict: violated" in rendered
    assert "overall     PASS" in rendered


def test_report_exit_one_on_failed_report(tmp_path, capsys):
    doc = {
        "stages": [
            {
                "name": "tiling",
                "checks": [{"id": "coverage", "passed": False, "detail": "gap"}],
            }
        ],
        "passed": False,
        "generated_at": "2026-01-01T00:00:00+00:00",
    }
    (tmp_path / "report.json").write_text(json.dumps(doc))
    assert main(["report", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] coverage" in out


def test_exit_two_on_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["verify", "--config", str(missing)]) == 2

    bad_schema = tmp_path / "bad.json"
    doc = config_to_json(default_config())
    doc["schema"] = "meandimlab/v0"
    bad_schema.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(bad_schema)]) == 2

    small_m = tmp_path / "small.json"
    doc = config_to_json(default_config())
    doc["marker"] = {"arc_center": "0", "arc_radius": "1/400", "inner_radius": "1/800"}
    small_m.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(small_m)]) == 2
    err = capsys.readouterr().err
    assert "tiling:" in err and "too small" in err

    assert main(["report", "--out", str(tmp_path / "missing")]) == 2


def test_exit_one_on_runtime_failure(tmp_path, capsys):
    doc = config_to_json(default_config())
    doc["system"]["window_radius"] = 4
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lemma failure at")


def test_products_cli(tmp_path, capsys):
    assert main(["products", "--count", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "product-budget" in out
    doc = json.loads((tmp_path / "products.json").read_text())
    assert doc["count"] == 2 and doc["passed"] is True
    rows = (tmp_path / "factors.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + two factors
    assert main(["products", "--count", "9"]) == 2


def test_flags_only_on_subcommands_that_read_them():
    with pytest.raises(SystemExit) as exc:
        main(["marker", "--mode", "exact"])
    assert exc.value.code == 2
