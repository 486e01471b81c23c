"""The tracer wraps every public function, restores every binding, and
its per-layer self times account for all traced time."""

import inspect
import json
import os
import sys

import numpy as np
import pytest

import woldlab as wl
import woldlab.cli

from tracer import Tracer, targets
from worker import layer_value

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _bindings() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "woldlab":
            for attr, value in vars(mod).items():
                if inspect.isfunction(value):
                    out[(name, attr)] = value
    out[("Subspace", "__init__")] = wl.Subspace.__init__
    return out


def _small_pair():
    return wl.construct_example(wl.polynomial([0.5, 0.5]), 8)


def test_wraps_every_public_function_and_restores_bindings():
    originals = targets()
    before = _bindings()
    held = {key for key, fn in before.items()
            if any(fn is f for f in originals.values())}
    with Tracer():
        during = _bindings()
        for key in held:
            assert during[key].__wrapped__ is before[key], key
        for label, fn in originals.items():
            layer, name = label.split(".")
            bound = getattr(sys.modules[f"woldlab.{layer}"], name)
            assert bound.__wrapped__ is fn, label
        assert wl.Subspace.__init__ is not before[("Subspace", "__init__")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_function_local_imports_resolve_to_wrappers_across_installs():
    pair = _small_pair()
    tracer = Tracer()
    for _ in range(2):
        with tracer:
            woldlab.cli._decay_rows(pair, 8)
        woldlab.cli._decay_rows(pair, 8)
    calls = tracer.summary()["names"]["wold.hyper_range"]["calls"]
    assert calls == 2
    assert len(tracer.names) == len(set(tracer.names))


def test_layer_self_times_sum_to_outermost_spans():
    tracer = Tracer()
    with tracer:
        pair = wl.construct_example(wl.polynomial([0.5, 0.5]), 8)
        wl.verdict_battery(pair)
        wl.unitary_part(np.diag([1.0, 0.5, 1j]))
        woldlab.cli.validate_config('{"levels": [8]}')
    summary = tracer.summary()
    root = tracer.root_time()
    assert root > 0
    assert sum(summary["layers"].values()) == pytest.approx(root, rel=1e-9)
    assert summary["names"]["pairs.verdict_battery"]["total_s"] <= root


def test_every_per_layer_metric_resolves():
    tracer = Tracer()
    with tracer:
        pair = _small_pair()
        wl.verdict_battery(pair)
        wl.hyper_range(pair.s1.matrix)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    summary = tracer.summary()
    own = {"cli.import_s", "trace.overhead_s"}
    values = {n: layer_value(n, tracer, summary) for n in names
              if n not in own}
    assert values["wold.hyper_range.calls"] == 2
    assert values["wold.hyper_range.distinct_inputs"] == 1
    assert values["wold.hyper_range.orthonormalize_calls"] > 0
    assert values["wold.wold_split.operator_norm_calls"] == 0
    assert values["pairs.verdict_battery.calls"] == 1
    assert tracer.repeated_input_ops() == 1
