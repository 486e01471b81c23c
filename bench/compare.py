"""Summarise or compare benchmark runs recorded by ``bench/run.py``.

    python3 bench/compare.py RUNS.jsonl              # one set: medians, spreads
    python3 bench/compare.py BASE.jsonl NEW.jsonl    # two sets: change vs bound

Each input holds one JSON record per run (``bench/out/runs.jsonl`` by
default). Runs are grouped by workload and trace mode. For every metric
it prints the median, the quartiles and the quartile spread as a share of
the median; with two sets it also prints the change of the median and,
for end-to-end metrics, whether it stays within the bound fixed in
``BENCHMARK.json``. It refuses (exit 2) to put side by side runs whose
machine records differ: nproc, Python, numpy, scipy and BLAS versions and
the pinned BLAS thread count must all agree.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def groups(records: list) -> dict:
    out: dict = {}
    for rec in records:
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def summary(runs: list) -> dict:
    names = runs[0]["result"]["metrics"]
    rows = {}
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(vals)
        rows[name] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / abs(med) if med else 0.0}
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    correct = all(r["result"]["correct"] for r in runs)
    return {"rows": rows, "failed": failed, "attempted": attempted,
            "correct": correct, "runs": len(runs)}


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    machines = {json.dumps(r["machine"], sort_keys=True)
                for records in sets for r in records}
    if len(machines) > 1:
        print("compare: machine records differ; refusing to compare:",
              file=sys.stderr)
        for m in sorted(machines):
            print(f"  {m}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"machine: {machines.pop() if machines else '{}'}")
    worse = 0
    grouped = [groups(records) for records in sets]
    for key in sorted(set().union(*grouped)):
        sides = [g[key] for g in grouped if key in g]
        if len(sides) != len(grouped):
            print(f"\n{key[0]} trace={key[1]}: missing from one set")
            continue
        sums = [summary(s) for s in sides]
        print(f"\n{key[0]} trace={key[1]}: " + "; ".join(
            f"{s['runs']} runs, failed {s['failed']}/{s['attempted']}, "
            f"correct={s['correct']}" for s in sums))
        for name, row in sums[0]["rows"].items():
            line = (f"  {name:42s} median {row['median']:.6g} "
                    f"[{row['q1']:.6g}, {row['q3']:.6g}] "
                    f"spread {100 * row['spread']:.1f}%")
            if len(sums) == 2:
                new = sums[1]["rows"][name]
                change = (new["median"] - row["median"]) / row["median"] \
                    if row["median"] else 0.0
                line += (f" -> {new['median']:.6g} ({100 * change:+.1f}%, "
                         f"spread {100 * new['spread']:.1f}%)")
                if name in bounds:
                    sign = 1 if bounds[name]["better"] == "lower" else -1
                    over = sign * change > bounds[name]["bound"]
                    worse += over
                    line += " WORSE than bound" if over else " within bound"
            elif name in bounds and name != "setup_s":
                line += (" ok" if row["spread"] <= bounds[name]["bound"] / 3
                         else " above a third of its bound")
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
