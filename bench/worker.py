"""One workload in a fresh process; prints its result as one JSON line.

``run.py`` starts this file with the checkout's ``src`` on ``PYTHONPATH``
and BLAS threads pinned. With ``--setup-only`` it imports woldlab, builds
the first round's inputs, prints ``ready`` and exits, which is what
``setup_s`` times. Otherwise it runs whole rounds until ``--seconds`` of
operation time and at least ``MIN_OPS`` operations are done, checks every
output outside the timed region, and reports either the end-to-end
metrics (``--trace 0``) or, from rounds run untraced and replayed traced,
the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

import woldlab

import checks
import workloads
from tracer import LAYERS, Tracer

#: every run reports a tail latency, which needs ten operations beyond it
#: and at least forty in all
MIN_OPS = 40
TAIL_BEYOND = 10
BENCH = os.path.dirname(os.path.abspath(__file__))


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Pass:
    """Whole rounds of one workload, timed operation by operation."""

    def __init__(self, workload, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list = []
        self.names: list = []
        self.failures: list = []
        self.wrong: list = []
        self.rounds = 0

    @property
    def op_time(self) -> float:
        return float(sum(self.latencies))

    def by_name(self) -> dict:
        """Median latency of each kind of operation."""
        grouped: dict = {}
        for name, t in zip(self.names, self.latencies):
            grouped.setdefault(name, []).append(t)
        return {k: float(np.median(v)) for k, v in sorted(grouped.items())}

    def run_round(self) -> None:
        for op in self.workload.round(self.rounds):
            if self.tracer is not None:
                self.tracer.op = len(self.latencies)
            self.names.append(op.name)
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # an operation failure is a result
                self.latencies.append(time.perf_counter() - t0)
                self.failures.append(f"{op.name}: {type(exc).__name__}: "
                                     f"{exc}")
                continue
            self.latencies.append(time.perf_counter() - t0)
            try:
                op.check(out)
            except checks.CheckFailed as exc:
                self.wrong.append(f"{op.name}: {exc}")
        self.rounds += 1


def end_to_end(workload, seconds: float) -> tuple:
    run = Pass(workload)
    while run.op_time < seconds or len(run.latencies) < MIN_OPS:
        run.run_round()
    lat = np.sort(np.array(run.latencies))
    n = lat.size
    done = n - len(run.failures)
    if workload.name == "cli-pipeline":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "ops_per_s": done / run.op_time,
        "op_p50_s": float(np.median(lat)),
        "op_tail_s": float(lat[n - TAIL_BEYOND - 1]),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {"ops": n, "rounds": run.rounds, "op_time_s": run.op_time,
              "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
              "op_median_s": run.by_name()}
    return run, values, detail


def per_layer(workload_cls, seed: int, seconds: float, spans_path: str):
    """Whole rounds run untraced and then replayed traced, alternating
    round by round so that drifts in machine speed hit both alike."""
    plain = workload_cls(seed, in_process=True)
    replay = workload_cls(seed, in_process=True)
    tracer = Tracer()
    untraced, traced = Pass(plain), Pass(replay, tracer)
    try:
        while untraced.op_time < seconds / 2:
            untraced.run_round()
            with tracer:
                traced.run_round()
    finally:
        plain.close()
        replay.close()
    tracer.write(spans_path)
    summary = tracer.summary()
    values = {"trace.overhead_s": traced.op_time - untraced.op_time}
    detail = {
        "ops": len(traced.latencies), "rounds": traced.rounds,
        "untraced_s": untraced.op_time, "traced_s": traced.op_time,
        "spans": len(tracer.start), "span_root_s": tracer.root_time(),
        "hyper_range_repeat_ops": tracer.repeated_input_ops(),
        "hyper_range_ops": len({op for op, _ in tracer.inputs}),
        "spans_file": os.path.relpath(spans_path, os.path.dirname(BENCH)),
    }
    return (untraced, traced), tracer, summary, values, detail


def layer_value(name: str, tracer: Tracer, summary: dict):
    """Resolve a per-layer metric name against the traced summary.

    ``<layer>.self_s`` and ``<layer>.calls`` sum over a layer;
    ``<layer>.<fn>.<calls|total_s|self_s>`` read one function;
    ``<layer>.<fn>.distinct_inputs`` counts distinct hashed inputs;
    ``<layer>.<fn>.<child>_calls`` counts calls to ``child`` made
    anywhere beneath ``fn``.
    """
    head, stat = name.rsplit(".", 1)
    names = summary["names"]
    if head in LAYERS:
        if stat == "self_s":
            return summary["layers"][head]
        return sum(row["calls"] for label, row in names.items()
                   if label.startswith(head + "."))
    if stat == "distinct_inputs":
        return len({key for _, key in tracer.inputs})
    if stat.endswith("_calls"):
        child = stat[: -len("_calls")]
        label = next(lb for lb in names if lb.split(".", 1)[1] == child)
        return tracer.calls_under(label, head)
    return names[head][stat]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--metrics", default="",
                        help="comma-separated metric names to report")
    args = parser.parse_args(argv)
    cls = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        w = cls(args.seed)
        try:
            w.round(0)
        finally:
            w.close()
        print("ready", flush=True)
        return 0

    wanted = [m for m in args.metrics.split(",") if m]
    if args.trace:
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        spans = os.path.join(BENCH, "out",
                             f"spans-{args.workload}-{args.seed}.csv")
        passes, tracer, summary, values, detail = per_layer(
            cls, args.seed, args.seconds, spans)
        for name in wanted:
            if name not in values:
                values[name] = layer_value(name, tracer, summary)
    else:
        w = cls(args.seed)
        try:
            run, values, detail = end_to_end(w, args.seconds)
        finally:
            w.close()
        passes = (run,)
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    wrong = [f for p in passes for f in p.wrong]
    for line in (failures + wrong)[:8]:
        print(f"worker: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "values": values,
        "detail": dict(detail, failures=sorted(set(failures))[:8],
                       wrong=wrong[:8]),
        "machine": machine_record(),
        "woldlab": os.path.abspath(woldlab.__file__),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
