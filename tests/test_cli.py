"""Config validation and the command-line pipelines end to end."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from woldlab.cli import DEFAULT_TOLERANCES, _schema, validate_config
from woldlab.errors import SchemaError
from woldlab.pairs import construct_example, verdict_battery

HALF = {"symbol": {"kind": "polynomial", "coeffs": [[0.0, 0.0], [0.5, 0.0]]}}
INNER = {"symbol": {"kind": "blaschke", "zeros": [[0.5, 0.0]]}}


def _invoke(command, config, tmp_path, *extra):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"out-{command}"
    proc = subprocess.run(
        [sys.executable, "-m", "woldlab", command,
         "--config", str(cfg), "--out", str(out), *extra],
        capture_output=True, text=True)
    return proc, out


def _report(out_dir):
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_validate_config_applies_defaults():
    cfg = validate_config("{}")
    assert cfg.degree == 16
    assert cfg.levels == (16,)
    assert cfg.seed == 0
    assert cfg.k_max == 12
    assert cfg.unitary_dim == 2
    assert not cfg.emit_csv
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.symbol is None


def test_validate_config_rejects_malformed_json():
    with pytest.raises(SchemaError, match="JSON"):
        validate_config("{")


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_validate_config_rejects_non_finite_numbers(number):
    # json.loads accepts these, and a NaN tolerance passes every bound
    # check, decides no verdict and writes invalid JSON into report.json.
    with pytest.raises(SchemaError, match="not valid JSON: non-finite"):
        validate_config(f'{{"tolerances": {{"verdict": {number}}}}}')


def test_validate_config_rejects_undecodable_bytes():
    with pytest.raises(SchemaError, match="not valid JSON: 'utf-8' codec"):
        validate_config(b"\xff{}")


def test_validate_config_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="unexpected"):
        validate_config('{"unexpected": 1}')


def test_validate_config_rejects_small_degree():
    with pytest.raises(SchemaError, match="degree"):
        validate_config('{"degree": 4}')


def test_validate_config_rejects_decreasing_levels():
    with pytest.raises(SchemaError, match="levels"):
        validate_config('{"levels": [16, 12]}')


def test_validate_config_rejects_unknown_tolerance():
    with pytest.raises(SchemaError,
                       match="tolerances.*'verdct' was unexpected"):
        validate_config('{"tolerances": {"verdct": 1e-6}}')
    tolerances = _schema()["properties"]["tolerances"]["properties"]
    assert sorted(tolerances) == sorted(DEFAULT_TOLERANCES)


def test_validate_config_overrides_tolerances():
    cfg = validate_config('{"tolerances": {"verdict": 1e-6}}')
    assert cfg.tolerances["verdict"] == 1e-6
    assert cfg.tolerances["wold"] == DEFAULT_TOLERANCES["wold"]


def test_wold_command_reports_clean_ladder(tmp_path):
    proc, out = _invoke("wold", {}, tmp_path)
    assert proc.returncode == 0
    rep = _report(out)
    level = rep["levels"][0]
    assert level["ladder_dims"] == [1] * 17
    assert level["hyper_range_dim"] == 2
    assert level["wandering_dim"] == 1
    assert level["completeness_residual"]["value"] <= 1e-10


def test_wold_command_warns_when_symbol_is_ignored(tmp_path):
    proc, out = _invoke("wold", HALF, tmp_path)
    assert proc.returncode == 0
    assert any("ignored" in w for w in _report(out)["warnings"])


def test_wold_csv_request_yields_warning_not_files(tmp_path):
    proc, out = _invoke("wold", {}, tmp_path, "--csv")
    assert proc.returncode == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    assert any("no csv series" in w for w in _report(out)["warnings"])


def test_verdict_command_flags_noninner_symbol(tmp_path):
    proc, out = _invoke("verdict", HALF, tmp_path, "--csv")
    assert proc.returncode == 2
    rep = _report(out)
    level = rep["levels"][0]
    assert level["verdict"] is False
    assert abs(level["r_iii"]["value"] - 0.8660254037844386) < 1e-10
    names = sorted(p.name for p in out.iterdir())
    assert names == ["boundary.csv", "decay.csv", "report.json"]
    with open(out / "decay.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "s1", "s2", "s3", "s4", "s5"]
    assert rows[1][0] == "16"
    for cell in rows[1][1:]:
        assert cell == "%.17g" % float(cell)
    with open(out / "boundary.csv", newline="", encoding="utf-8") as fh:
        brows = list(csv.reader(fh))
    assert brows[0] == ["theta", "modulus_squared"]
    assert len(brows) == 257


def test_verdict_command_applies_the_configured_tolerance(tmp_path):
    # r_iii of z/2 is sqrt(3)/2, inside a tolerance of 1.0 only
    loose = dict(HALF, tolerances={"verdict": 1.0})
    proc, out = _invoke("verdict", loose, tmp_path)
    assert proc.returncode == 0
    level = _report(out)["levels"][0]
    assert level["verdict"] is True
    assert level["r_iii"]["tolerance"] == 1.0
    strict = tmp_path / "strict"
    strict.mkdir()
    proc, out = _invoke("verdict", HALF, strict)
    assert proc.returncode == 2
    assert _report(out)["levels"][0]["verdict"] is False


def _packages_loaded_by_cli_import(roots):
    code = ("import woldlab.cli, sys; print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] in {roots!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _packages_loaded_by_cli_import({"scipy"}) == "[]"


def test_cli_import_loads_no_jsonschema():
    assert _packages_loaded_by_cli_import(
        {"jsonschema", "referencing", "attrs"}) == "[]"


def test_verdict_command_accepts_inner_symbol(tmp_path):
    proc, out = _invoke("verdict", INNER, tmp_path)
    assert proc.returncode == 0
    rep = _report(out)
    assert rep["levels"][0]["verdict"] is True
    assert any("truncated" in w for w in rep["warnings"])


def test_config_command_mismatch_warns_and_cli_wins(tmp_path):
    cfg = dict(HALF)
    cfg["command"] = "wold"
    proc, out = _invoke("verdict", cfg, tmp_path)
    assert proc.returncode == 2
    rep = _report(out)
    assert rep["command"] == "verdict"
    assert any("wins" in w for w in rep["warnings"])


def test_missing_config_file_fails_cleanly(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "woldlab", "wold",
         "--config", str(tmp_path / "absent.json")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "woldlab:" in proc.stderr


def test_invalid_config_fails_cleanly(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    proc = subprocess.run(
        [sys.executable, "-m", "woldlab", "wold", "--config", str(cfg)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "SchemaError" in proc.stderr


def test_model_decompose_rejects_failed_verdict(tmp_path):
    proc, _ = _invoke("model-decompose", HALF, tmp_path)
    assert proc.returncode == 1
    assert "PreconditionError" in proc.stderr


def test_model_decompose_handles_inner_symbol(tmp_path):
    cfg = dict(INNER)
    cfg["levels"] = [32]
    proc, out = _invoke("model-decompose", cfg, tmp_path)
    assert proc.returncode == 0
    level = _report(out)["levels"][0]
    assert level["reconstruction_residual"]["value"] <= 1e-8


def test_model_decompose_warns_on_residual_above_tolerance(tmp_path):
    # one zero at 0.4: the dropped coefficient tail shows as residual at
    # level 16 (about 3.9e-7) and has decayed below 1e-8 by level 24
    cfg = {"symbol": {"kind": "blaschke", "zeros": [[0.4, 0.0]]},
           "levels": [16, 24]}
    proc, out = _invoke("model-decompose", cfg, tmp_path)
    assert proc.returncode == 0
    rep = _report(out)
    low, high = rep["levels"]
    value = low["reconstruction_residual"]["value"]
    assert value > 1e-8 >= high["reconstruction_residual"]["value"]
    assert high["toeplitz_residual"]["value"] <= 1e-8
    flagged = [w for w in rep["warnings"] if "exceeds" in w]
    assert flagged == [f"degree 16: reconstruction_residual {value:.3e} "
                       f"exceeds its tolerance 1.000e-08"]


@pytest.mark.parametrize("command, config", [("verdict", HALF),
                                             ("model-decompose", INNER)])
def test_decay_rows_are_the_battery_top_level_r_v(tmp_path, command, config):
    cfg = dict(config, levels=[16, 24])
    proc, out = _invoke(command, cfg, tmp_path, "--csv")
    assert proc.returncode in (0, 2)
    with open(out / "decay.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    sym = validate_config(json.dumps(cfg)).symbol
    assert [row[0] for row in rows] == ["16", "24"]
    for row, level in zip(rows, (16, 24)):
        top = verdict_battery(construct_example(sym, level)).r_v[-1]
        assert row[1:] == ["%.17g" % x for x in top]


def test_moments_report_is_deterministic(tmp_path):
    cfg = dict(HALF)
    cfg["k_max"] = 8
    proc1, out1 = _invoke("moments", cfg, tmp_path, "--csv")
    assert proc1.returncode == 0
    rep1 = _report(out1)
    (out1 / "report.json").unlink()
    again = tmp_path / "again"
    again.mkdir()
    proc2, out2 = _invoke("moments", cfg, again, "--csv")
    assert proc2.returncode == 0
    rep2 = _report(out2)
    rep1["provenance"].pop("wall_time_seconds")
    rep2["provenance"].pop("wall_time_seconds")
    assert rep1 == rep2
    assert (out1 / "moments.csv").read_bytes() == \
        (out2 / "moments.csv").read_bytes()


def test_forcing_defaults_to_grid_atoms_with_warning(tmp_path):
    cfg = dict(HALF)
    cfg["k_max"] = 6
    proc, out = _invoke("forcing", cfg, tmp_path)
    assert proc.returncode == 0
    rep = _report(out)
    assert any("no atoms" in w for w in rep["warnings"])
    level = rep["levels"][0]
    assert level["atom_count"] == 4
    assert level["forced_trivial"] is True


def test_forcing_accepts_explicit_atoms(tmp_path):
    cfg = dict(HALF)
    cfg["k_max"] = 6
    theta = 2 * np.pi * np.arange(13) / 13
    cfg["atoms"] = [[float(np.cos(t)), float(np.sin(t))] for t in theta]
    proc, out = _invoke("forcing", cfg, tmp_path)
    assert proc.returncode == 0
    level = _report(out)["levels"][0]
    assert level["forced_trivial"] is False
    assert level["residual"]["value"] <= 1e-6


def test_slocinski_four_block_dims_match(tmp_path):
    proc, out = _invoke("slocinski", {"levels": [8]}, tmp_path)
    assert proc.returncode == 0
    level = _report(out)["levels"][0]
    assert level["dims_match"] is True
    assert level["dims"] == level["expected_dims"]
