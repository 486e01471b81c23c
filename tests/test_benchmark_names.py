"""The benchmark's traced per-layer metrics name public library objects.

``BENCHMARK.json`` names per-layer metrics as ``<layer>.<stat>`` or
``<layer>.<fn>.<stat>``, and a ``<child>_calls`` stat counts the calls
``<fn>`` makes to ``<child>``. A metric whose function was renamed or
removed can no longer be traced, so each such name must stay public.
"""

import importlib
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the stages of a run, in the order the benchmark reports them
LAYERS = ("symbols", "hardy", "linalg", "wold", "pairs", "moments", "cli")


def _public(layer: str) -> dict:
    module = importlib.import_module(f"woldlab.{layer}")
    return {name: getattr(module, name) for name in module.__all__}


def test_every_traced_metric_names_a_public_function_or_class():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    public = {layer: _public(layer) for layer in LAYERS}
    traced = [name.split(".") for name in names if name.count(".") == 2]
    assert traced
    for layer, fn, stat in traced:
        metric = f"{layer}.{fn}.{stat}"
        assert layer in public, f"{metric}: {layer} is not a library layer"
        assert callable(public[layer].get(fn)), \
            f"{metric}: {fn} is not public in woldlab.{layer}"
        if stat.endswith("_calls"):
            child = stat[:-len("_calls")]
            assert any(callable(members.get(child))
                       for members in public.values()), \
                f"{metric}: {child} is public in no layer"


def test_every_exported_name_resolves():
    # the tracer reads every name in each layer's __all__; a stale entry
    # would stop it before the first operation
    for layer in LAYERS:
        assert _public(layer)
    package = importlib.import_module("woldlab")
    missing = [name for name in package.__all__
               if not hasattr(package, name)]
    assert not missing, f"woldlab.__all__ names missing objects: {missing}"
