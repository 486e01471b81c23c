"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload verdict-sweep --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and benchmarks the woldlab package under
its ``src`` directory; it refuses to run (exit 2, no result) when that
source is missing. Every measured process is a child started with that
``src`` on ``PYTHONPATH`` and BLAS threads pinned to ``BLAS_THREADS``;
this process itself imports neither numpy nor woldlab.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics named in ``BENCHMARK.json``; ``setup_s`` is the median
over ``SETUP_SAMPLES`` fresh processes of the wall time from process start
until woldlab is imported and the first round's inputs exist. With
``--trace 1`` it carries the per-layer metrics, including ``cli.import_s``,
the median over ``IMPORT_SAMPLES`` fresh interpreters of ``import
woldlab.cli``. The line before it is the machine record, and the whole
run (record, result and details) is appended to ``bench/out/runs.jsonl``
for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RECORDS = os.path.join(BENCH, "out", "runs.jsonl")

BLAS_THREADS = 1
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import woldlab.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def time_setup(workload: str, seed: int, env: dict) -> float:
    """Wall time from spawning a worker until it reports ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--setup-only"], stdout=subprocess.PIPE, text=True, env=env,
        cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise SystemExit(f"bench: set-up of {workload} failed")
    return elapsed


def time_import(env: dict) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return float(proc.stdout.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "woldlab", "__init__.py")):
        print(f"bench: no woldlab source under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env()

    # An unmeasured start first: it compiles bytecode and warms the file
    # cache, which users pay once per install, not once per run.
    time_setup(args.workload, args.seed, env)
    own = {}
    if args.trace:
        own["cli.import_s"] = statistics.median(
            time_import(env) for _ in range(IMPORT_SAMPLES))
    else:
        own["setup_s"] = statistics.median(
            time_setup(args.workload, args.seed, env)
            for _ in range(SETUP_SAMPLES))
    asked = [m["name"] for m in metrics if m["name"] not in own]
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--metrics", ",".join(asked)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    if proc.returncode != 0:
        print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["woldlab"].startswith(SRC + os.sep):
        print(f"bench: measured {out['woldlab']}, not {SRC}", file=sys.stderr)
        return 1
    values = dict(out["values"], **own)
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    os.makedirs(os.path.dirname(RECORDS), exist_ok=True)
    with open(RECORDS, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": out["machine"], "result": result,
            "detail": out["detail"],
            "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }) + "\n")
    print("machine: " + json.dumps(out["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
