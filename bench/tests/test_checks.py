"""Each output check passes on the library's real output and rejects a
deliberately wrong value."""

import dataclasses
import json
import os

import numpy as np
import pytest

import woldlab as wl

import checks
import workloads
from checks import CheckFailed


def test_verdict_check_rejects_perturbed_r_iii_and_flipped_verdict():
    spec = {"kind": "polynomial", "coeffs": np.array([0.3, 0.4, 0.2j])}
    pair = wl.construct_example(workloads.make_symbol(spec), 12)
    report = wl.verdict_battery(pair)
    checks.check_verdict(spec, False, pair, report)
    with pytest.raises(CheckFailed, match="r_iii"):
        bad = dataclasses.replace(report, r_iii=report.r_iii + 1e-6)
        checks.check_verdict(spec, False, pair, bad)
    with pytest.raises(CheckFailed, match="verdict"):
        checks.check_verdict(spec, True, pair, report)


def test_structure_checks_reject_wrong_truth():
    pair, truth = wl.three_part_pair(0)
    md = wl.model_decomposition(pair)
    checks.check_model(md, truth)
    with pytest.raises(CheckFailed, match="psi"):
        checks.check_model(md, dict(truth, psi=truth["psi"] + 1e-6))
    with pytest.raises(CheckFailed, match="h_uu"):
        checks.check_model(md, dict(truth, uu_dim=1))
    eigs = list(np.linalg.eigvals(truth["v1"])) + [truth["psi"]]
    fc = wl.finiteness_checks(pair)
    checks.check_finiteness(fc, eigs)
    with pytest.raises(CheckFailed, match="cardinality"):
        checks.check_finiteness(fc, eigs[:2])
    ps = wl.point_spectrum_part(pair)
    checks.check_point_spectrum(ps, eigs, 59)
    with pytest.raises(CheckFailed, match="missed"):
        checks.check_point_spectrum(ps, eigs[:2] + [eigs[2] * 1j], 59)
    four, expected = wl.four_block_pair(1)
    sl = wl.slocinski(four)
    checks.check_slocinski(sl, expected)
    with pytest.raises(CheckFailed, match="part dimensions"):
        checks.check_slocinski(sl, dict(expected, ss=expected["ss"] + 1))


def _nudge_json(edit):
    def apply(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        edit(data)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return apply


def _nudge_first_moment(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_cli_checks_pass_real_runs_and_reject_edits(tmp_path):
    w = workloads.CliPipeline(7, in_process=True, workdir=str(tmp_path))
    ops = {op.name: op for op in w.round(0)}
    # configured tolerances do not reach the library yet
    with pytest.raises(workloads.OpFailed, match="exit 2, documented 0"):
        ops.pop("cli/tolerance").call()
    for op in ops.values():
        op.check(op.call())
    edits = {
        "cli/verdict": ("report.json", _nudge_json(
            lambda d: d["levels"][0]["r_iii"].update(
                value=d["levels"][0]["r_iii"]["value"] + 1e-6))),
        "cli/forcing": ("report.json", _nudge_json(
            lambda d: d["levels"][0]["masses"].__setitem__(
                0, d["levels"][0]["masses"][0] + 1e-6))),
        "cli/wold": ("report.json", _nudge_json(
            lambda d: d["levels"][0].update(hyper_range_dim=2))),
        "cli/moments": ("moments.csv", _nudge_first_moment),
    }
    for name, (fname, edit) in edits.items():
        out = ops[name].call()
        edit(os.path.join(out, fname))
        with pytest.raises(CheckFailed):
            ops[name].check(out)
    w.close()
