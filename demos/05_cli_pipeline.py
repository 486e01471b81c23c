"""Driving the command-line pipelines programmatically.

Each subcommand reads a JSON config, writes a deterministic report.json
(and optional CSV series) and exits 0 on success, 2 when a verdict
fails, 1 on errors. Reports are byte-stable across runs except for the
wall-time entry.
"""

import json
import pathlib
import tempfile

from woldlab.cli import main

with tempfile.TemporaryDirectory(prefix="woldlab-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    config = workdir / "config.json"
    config.write_text(json.dumps({
        "symbol": {"kind": "polynomial", "coeffs": [[0.5, 0.0], [0.5, 0.0]]},
        "levels": [16, 24],
        "k_max": 12,
    }))

    for command in ("verdict", "moments"):
        out = workdir / command
        code = main([command, "--config", str(config), "--out", str(out),
                     "--csv"])
        report = json.loads((out / "report.json").read_text())
        print(f"{command}: exit {code}")
        for warning in report["warnings"]:
            print(f"  warning: {warning}")
        for level in report["levels"]:
            keys = sorted(k for k in level if isinstance(level[k], dict)
                          and "value" in level[k])
            shown = ", ".join(f"{k}={level[k]['value']:.3e}" for k in keys[:3])
            print(f"  degree {level['degree']}: {shown}")
        print(f"  files: {sorted(p.name for p in out.iterdir())}")
        print()
