"""Compare the command-line outputs of two woldlab source trees.

    python tools/report_diff.py OLD_TREE NEW_TREE [--case NAME ...]
        [--command NAME ...]

Runs ``python -m woldlab <command> --csv`` for every command and config
case, once with each tree's ``src`` on ``PYTHONPATH``, from the same
relative paths so that stdout and stderr can be compared as text. Prints
one line per output file: the largest relative difference of its numbers,
``|a - b| / max(1, |a|, |b|)``, with ``provenance.wall_time_seconds``
dropped from ``report.json``, and a line per run saying whether exit
codes, stdout and stderr agree. Any other difference (a string, a
boolean, a key, a file present on one side only) is a mismatch. The
last line sums up: ``N failing line(s); largest relative difference D
over F files``, D being the largest difference over the F files
compared. The runs happen in a temporary directory, removed afterwards.

Exit status 0 when nothing mismatches and no difference exceeds ``TOL``
(1e-14); 1 otherwise.

``CASES`` is a chosen spread of configs (the example symbols, level
lists up to degree 48, a loose tolerance, atoms and the other fixtures). It is its own
list, not a mirror of the configs of the command-line tests.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

TOL = 1e-14
COMMANDS = ("wold", "construct-example", "verdict", "model-decompose",
            "slocinski", "moments", "forcing")
HALF = {"symbol": {"kind": "polynomial", "coeffs": [[0.0, 0.0], [0.5, 0.0]]}}
INNER = {"symbol": {"kind": "blaschke", "zeros": [[0.5, 0.0]]}}
ATOMS = [[math.cos(2 * math.pi * k / 13), math.sin(2 * math.pi * k / 13)]
         for k in range(13)]
CASES = {
    "default": {},
    "half": HALF,
    "inner": INNER,
    "half-16-24": dict(HALF, levels=[16, 24]),
    "half-48": dict(HALF, levels=[40, 48]),
    "inner-32": dict(INNER, levels=[32]),
    "blaschke-04": {"symbol": {"kind": "blaschke", "zeros": [[0.4, 0.0]]},
                    "levels": [16, 24]},
    "half-loose": dict(HALF, tolerances={"verdict": 1.0}),
    "half-k8": dict(HALF, k_max=8),
    "half-atoms": dict(HALF, k_max=6, atoms=ATOMS),
    "levels-8": {"levels": [8]},
    "tensor": {"fixture": "tensor", "levels": [8]},
    "four-block-3": {"fixture": "four-block", "seed": 3, "levels": [8]},
}


class Mismatch(Exception):
    """A difference that is not a difference of two numbers."""


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _diff(a, b, where: str) -> float:
    """Largest relative difference of the numbers of two JSON values."""
    if _number(a) and _number(b):
        return abs(a - b) / max(1.0, abs(a), abs(b))
    if type(a) is not type(b):
        raise Mismatch(f"{where}: {a!r} vs {b!r}")
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"{where}: keys {sorted(a)} vs {sorted(b)}")
        return max((_diff(a[k], b[k], f"{where}.{k}") for k in a),
                   default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: lengths {len(a)} vs {len(b)}")
        return max((_diff(x, y, f"{where}[{i}]")
                    for i, (x, y) in enumerate(zip(a, b))), default=0.0)
    if a != b:
        raise Mismatch(f"{where}: {a!r} vs {b!r}")
    return 0.0


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        report = json.loads(text)
        report.get("provenance", {}).pop("wall_time_seconds", None)
        return report
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def _run(tree: str, work: str, command: str, config: dict) -> tuple:
    """Run one command in ``work``; return exit code, stdout, stderr."""
    os.makedirs(work, exist_ok=True)
    with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree),
                                                   "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "woldlab", command, "--config", "config.json",
         "--out", "out", "--csv"],
        cwd=work, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def compare(old: str, new: str, cases, commands,
            work: str) -> tuple[int, float, int]:
    """Print the comparison table; return the number of failing lines,
    the largest relative difference and the number of files compared."""
    failures, largest, files = 0, 0.0, 0
    for case in cases:
        for command in commands:
            runs = [_run(tree, os.path.join(work, side, case, command),
                         command, CASES[case])
                    for side, tree in (("old", old), ("new", new))]
            same = [x == y for x, y in zip(*runs)]
            label = f"{case}/{command}"
            print(f"{label}: exit {runs[0][0]}/{runs[1][0]} "
                  f"stdout {'same' if same[1] else 'DIFFERS'} "
                  f"stderr {'same' if same[2] else 'DIFFERS'}")
            failures += not all(same)
            outs = [os.path.join(work, side, case, command, "out")
                    for side in ("old", "new")]
            names = [sorted(os.listdir(d)) if os.path.isdir(d) else []
                     for d in outs]
            for name in sorted(set(names[0]) | set(names[1])):
                files += 1
                try:
                    if name not in names[0] or name not in names[1]:
                        raise Mismatch("present on one side only")
                    d = _diff(*(_load(os.path.join(o, name)) for o in outs),
                              name)
                    ok = d <= TOL
                    largest = max(largest, d)
                    print(f"  {name}: max relative difference {d:.3g}")
                except Mismatch as exc:
                    ok = False
                    print(f"  {name}: MISMATCH {exc}")
                failures += not ok
    return failures, largest, files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--case", nargs="+", choices=sorted(CASES),
                        default=list(CASES))
    parser.add_argument("--command", nargs="+", choices=COMMANDS,
                        default=list(COMMANDS))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        failures, largest, files = compare(args.old, args.new, args.case,
                                           args.command, work)
    print(f"{failures} failing line(s); largest relative difference "
          f"{largest:.3g} over {files} files")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
