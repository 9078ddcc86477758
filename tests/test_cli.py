"""Command-line surface: exit codes, artifacts, report rendering."""

import contextlib
import io
import json

import pytest

from meandimlab import pipeline
from meandimlab.cli import main
from meandimlab.config import config_to_json, default_config, save_config


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    save_config(default_config(), path)
    return path


def _edited_config(tmp_path, section, values):
    """Path of the default config with one section updated."""
    doc = config_to_json(default_config())
    doc[section].update(values)
    path = tmp_path / f"{section}.json"
    path.write_text(json.dumps(doc))
    return path


SMALL_ARC = {"arc_radius": "1/400", "inner_radius": "1/800"}  # M = 144
SHORT_WINDOW = {"window_radius": 4}


def test_widim_calibration(capsys):
    assert main(["widim"]) == 0
    out = capsys.readouterr().out
    assert "widim_upper = 1" in out
    assert "widim_upper = 2" in out
    assert "widim_upper = 3" in out


def test_widim_exact_certifies(capsys):
    assert main(["widim", "--mode", "exact", "--dim-max", "2", "--cells", "6"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[-1,1]^1 grid 6: widim_upper = 1, certified_lower = 1 (exact, 7 nodes)",
        "[-1,1]^2 grid 6: widim_upper = 2, certified_lower = 2 (exact, 2155 nodes)",
    ]


def test_marker_subcommand(capsys, config_file):
    assert main(["marker", "--config", str(config_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "M = 2584" in lines
    assert "M1 = 5474" in lines


def test_marker_subcommand_exit_one_on_failed_gap_check(monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "marker_separation_check", lambda seq: (False, 17))
    assert main(["marker"]) == 1
    assert capsys.readouterr().err.startswith("lemma failure at marker")


@pytest.fixture(scope="module")
def verify_seed3_lines():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--seed", "3"]) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize(
    "command, stage", [("marker", "marker"), ("tile", "tiling"), ("phi", "phi"), ("fmap", "fmap")]
)
def test_stage_subcommand_prints_the_verify_lines(command, stage, capsys, verify_seed3_lines):
    assert main([command, "--seed", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    expected = [line for line in verify_seed3_lines if line.split()[0] == stage]
    assert out[: len(expected)] == expected
    assert all(" = " in line for line in out[len(expected) :])  # the stage's info


def test_tile_writes_csv(tmp_path, capsys):
    assert main(["tile", "--out", str(tmp_path / "tile")]) == 0
    assert main(["pipeline", "--out", str(tmp_path / "pipeline")]) == 0
    written = (tmp_path / "tile" / "tiling.csv").read_bytes()
    assert written.splitlines()[0] == b"label,lo,hi"
    assert written == (tmp_path / "pipeline" / "tiling.csv").read_bytes()


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

    small_m = _edited_config(tmp_path, "marker", SMALL_ARC)
    assert main(["verify", "--config", str(small_m)]) == 2
    err = capsys.readouterr().err
    assert "tiling:" in err and "too small" in err

    assert main(["report", "--out", str(tmp_path / "missing")]) == 2


def test_stage_subcommand_names_the_stage_of_a_config_error(tmp_path, capsys):
    config = _edited_config(tmp_path, "marker", SMALL_ARC)
    assert main(["tile", "--config", str(config)]) == 2
    assert "tiling:" in capsys.readouterr().err


def test_stage_subcommand_exit_one_on_runtime_failure(tmp_path, capsys):
    config = _edited_config(tmp_path, "system", SHORT_WINDOW)
    assert main(["fmap", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("lemma failure at fmap")


def test_exit_one_on_runtime_failure(tmp_path, capsys):
    path = _edited_config(tmp_path, "system", SHORT_WINDOW)
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
    for argv in (["marker", "--mode", "exact"], ["phi", "--mode", "exact"], ["phi", "--out", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
