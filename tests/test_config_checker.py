"""The config checker in ``woldlab.cli`` against the packaged schema and
against jsonschema, which it replaces on the start-up path."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woldlab.cli import _JSON_TYPES, _errors, _schema, validate_config
from woldlab.errors import SchemaError

HANDLED = {"type", "items", "minItems", "maxItems", "minimum", "maximum",
           "exclusiveMinimum", "enum", "additionalProperties", "required",
           "properties", "anyOf"}
ANNOTATIONS = {"$schema", "title"}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
NUMBERS = (st.integers(-1, 70) | st.floats(-1, 70)
           | st.sampled_from([0, 0.0, 1e-12, 7.5, 8.0, 64, 65, 256, 257]))


def _subschemas(node):
    yield node
    children = [*node.get("properties", {}).values(), *node.get("anyOf", [])]
    if "items" in node:
        children.append(node["items"])
    for child in children:
        yield from _subschemas(child)


def _near(schema, noisy):
    """Instances that follow ``schema`` up to out-of-range values; when
    ``noisy``, with arbitrary JSON mixed in at every node too, so that
    violations occur at every depth."""
    kind = schema.get("type")
    if "anyOf" in schema:
        base = st.one_of([_near(sub, noisy) for sub in schema["anyOf"]])
    elif "enum" in schema:
        base = st.sampled_from(schema["enum"])
    elif kind == "object":
        base = st.fixed_dictionaries({}, optional={
            k: _near(v, noisy) for k, v in schema["properties"].items()})
    elif kind == "array":
        base = st.lists(_near(schema["items"], noisy), max_size=4)
    elif kind in ("number", "integer"):
        base = NUMBERS
    elif kind == "boolean":
        base = st.booleans()
    else:
        base = st.text(max_size=4)
    return base | JSON if noisy else base


def _where(path, message):
    return f"{'/'.join(map(str, path)) or '<root>'}: {message}"


def _agree(data):
    """Both checkers find the same violations, each at the same path with
    the same message; returns them as ``"<path>: <message>"``."""
    jsonschema = pytest.importorskip("jsonschema")
    theirs = jsonschema.Draft7Validator(_schema()).iter_errors(data)
    expected = sorted(_where(e.absolute_path, e.message) for e in theirs)
    found = sorted(_where(*error) for error in _errors(data, _schema()))
    assert found == expected
    return found


def test_schema_uses_only_keywords_the_checker_handles():
    for node in _subschemas(_schema()):
        assert set(node) <= HANDLED | ANNOTATIONS, sorted(node)
        assert node.get("type", "number") in {"number", "integer",
                                              *_JSON_TYPES}
        assert isinstance(node.get("additionalProperties", False), bool)
        assert isinstance(node.get("items", {}), dict)


@pytest.mark.parametrize("config", [
    {"degree": True},
    {"levels": []},
    {"unitary_dim": 65},
    {"tolerances": {"forcing": 0}},
    {"symbol": {"kind": "polynomial", "front": [0.5, 0.0, 1.0]}},
    {"symbol": {"kind": "polynomial", "coeffs": [0.5, "0.5"]}},
    {"symbol": {"zeros": [[0.5]]}, "bogus": 1, "seed": -1},
])
def test_checker_rejects_what_jsonschema_rejects(config):
    found = _agree(config)
    with pytest.raises(SchemaError) as info:
        validate_config(json.dumps(config))
    assert str(info.value) in {f"config invalid at {e}" for e in found}


def test_checker_accepts_integral_floats_as_integers():
    assert _agree({"degree": 8.0, "levels": [8.0, 9], "k_max": 1}) == []
    assert validate_config('{"degree": 8.0}').degree == 8


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.booleans().flatmap(lambda noisy: _near(_schema(), noisy)))
def test_checker_matches_jsonschema_on_generated_configs(config):
    found = _agree(config)
    if len(found) == 1:
        with pytest.raises(SchemaError) as info:
            validate_config(json.dumps(config))
        assert str(info.value) == f"config invalid at {found[0]}"
