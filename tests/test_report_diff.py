"""The report comparison tool: a tree against itself, and what it flags."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "report_diff.py"


def _tool():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_compared_with_itself_differs_nowhere():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--case", "half",
         "--command", "construct-example", "verdict"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "half/construct-example: exit 0/0 stdout same " \
                       "stderr same"
    files = [line.strip() for line in lines if line.startswith("  ")]
    assert sorted(f.split(":")[0] for f in files) == \
        ["boundary.csv", "boundary.csv", "decay.csv", "report.json",
         "report.json"]
    assert all(f.endswith("max relative difference 0") for f in files)
    assert lines[-1] == \
        "0 failing line(s); largest relative difference 0 over 5 files"


def test_numbers_differ_relatively_and_anything_else_mismatches():
    tool = _tool()
    old = {"r": [1.0, 2e-20, 300.0], "verdict": False, "provenance": {}}
    new = {"r": [1.0 + 1e-15, 0.0, 300.0 * (1 + 2e-15)], "verdict": False,
           "provenance": {}}
    # relative with a floor of 1: 2e-20 against 0 is a difference of 2e-20
    assert tool._diff(old, new, "report") == pytest.approx(2e-15, rel=1e-3)
    for other in (dict(new, verdict=True), dict(new, r=[1.0, 0.0]),
                  {"r": new["r"], "verdict": False}):
        with pytest.raises(tool.Mismatch):
            tool._diff(old, other, "report")
