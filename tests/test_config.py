import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, validators

from qnd_povm import config
from qnd_povm.cli import main
from qnd_povm.config import SCHEMAS, ExperimentConfig
from qnd_povm.errors import ConfigError

PARAMS = {"gamma": [5.1, 0.0], "chi": 5.0, "gt": "pi/N"}
STATE = {"params": PARAMS, "N": 10, "initial": {"type": "coherent", "theta": "pi/2"}}
OUTCOME = {"n_c": 25, "n_d": 25}

# one valid config per command, holding every key its schema allows; the
# JSON round trip leaves no dict or list shared between two keys
VALID = json.loads(json.dumps({
    "amp-scan": {"cases": [{"label": "a", "params": PARAMS, "N": 10, "outcome": OUTCOME},
                           {"label": "b.2", "params": PARAMS, "N": 12, "outcome": OUTCOME}]},
    "photon-dist": dict(STATE, mass_tolerance=1e-6, max_total=200),
    "measure": dict(STATE, shots=5, seed=3, mass_tolerance=1e-6, max_total=200,
                    dump_posteriors=False),
    "wigner": dict(STATE, state="posterior", outcome=OUTCOME,
                   grid={"n_theta": 5, "n_phi": 7}),
    "project": dict(STATE, initial={"type": "dicke", "m": 2}, outcome=OUTCOME),
    "validate": {"seed": 1},
}))

# the keywords config._check implements, and the types it knows
CHECKED_KEYWORDS = {"type", "required", "properties", "additionalProperties", "enum",
                    "minimum", "exclusiveMinimum", "exclusiveMaximum", "pattern",
                    "items", "minItems", "maxItems"}
CHECKED_TYPES = {"object", "array", "string", "boolean", "integer", "number"}


def _subschemas(schema, path=()):
    """(key path, schema) for `schema` and every schema nested in it."""
    yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from _subschemas(sub, path + (key,))
    if "items" in schema:
        yield from _subschemas(schema["items"], path + (0,))


def _dotted(path):
    return "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


INTEGER_KEYS = [(command, path) for command, schema in SCHEMAS.items()
                for path, sub in _subschemas(schema) if sub.get("type") == "integer"]


def test_valid_configs_pass():
    assert set(VALID) == set(SCHEMAS)
    for command, raw in VALID.items():
        ExperimentConfig.from_dict(command, raw)


def test_schemas_use_only_checked_keywords():
    # a keyword the checker does not implement would be silently ignored
    for command, schema in SCHEMAS.items():
        for path, sub in _subschemas(schema):
            assert set(sub) <= CHECKED_KEYWORDS, (command, path, set(sub) - CHECKED_KEYWORDS)
            types = sub.get("type", [])
            assert set([types] if isinstance(types, str) else types) <= CHECKED_TYPES
            assert sub.get("additionalProperties", False) is False, (command, path)


@pytest.mark.parametrize("command,path", INTEGER_KEYS,
                         ids=[f"{c}:{_dotted(p)}" for c, p in INTEGER_KEYS])
def test_float_valued_integer_is_rejected(command, path):
    # 5.0 would pass JSON-Schema's integer, then fail in range() or a shape
    raw = copy.deepcopy(VALID[command])
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = float(parent[path[-1]])
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(command, raw)
    assert str(err.value) == f"config rejected: {_dotted(path)} is not of type integer"


def test_rejection_names_the_nested_key_path(tmp_path, capsys):
    raw = copy.deepcopy(VALID["amp-scan"])
    raw["cases"][1]["outcome"]["n_c"] = "3"
    path = tmp_path / "amp.json"
    path.write_text(json.dumps(raw))
    assert main(["amp-scan", "--config", str(path), "--out", str(tmp_path / "scan")]) == 2
    assert capsys.readouterr().err == (
        "config error: config rejected: config.cases[1].outcome.n_c is not of type integer\n")


# jsonschema with the checker's one deliberate difference: an integer is a
# JSON integer, so 5.0 is not one
_StrictInteger = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)))

_KEYS = sorted({key for schema in SCHEMAS.values() for _, sub in _subschemas(schema)
                for key in sub.get("properties", {})} | {"extra"})
# values on and beside the schemas' bounds, types, enums and patterns
_PROBES = [None, True, False, -1, 0, 1, 2, 5, -0.5, 0.0, 0.5, 1.0, 5.0, float("nan"),
           "", "a", "a b", "pi/2", "coherent", "dicke", "prior", "posterior",
           [], [1.0], [1.0, 2], [1.0, 2.0, 3.0], [1.0, "a"], {}, {"n_c": 1, "n_d": 2}]
# each draw is a copy: the test edits drawn lists and dicts in place, and an
# edited probe would change what later examples draw
_VALUES = st.recursive(
    st.sampled_from(_PROBES) | st.integers(-3, 300) | st.floats(-3.0, 300.0),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=6).map(copy.deepcopy)


def _containers(value):
    """`value` and every dict or list nested in it."""
    yield value
    for item in value.values() if isinstance(value, dict) else value:
        if isinstance(item, (dict, list)):
            yield from _containers(item)


def _slots(raw):
    return [(c, k) for c in _containers(raw)
            for k in (list(c) if isinstance(c, dict) else range(len(c)))]


_DELETE = object()


def _assert_agrees(command, raw):
    want = _StrictInteger(SCHEMAS[command]).is_valid(raw)
    try:
        config._check(raw, SCHEMAS[command], "config")
        got = True
    except ConfigError:
        got = False
    assert got == want, raw


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_checker_agrees_with_jsonschema_one_edit_from_valid(command):
    # every single replacement by a probe value, deletion and added key
    for i in range(len(_slots(VALID[command]))):
        for value in _PROBES + [_DELETE]:
            raw = copy.deepcopy(VALID[command])
            container, key = _slots(raw)[i]
            if value is _DELETE:
                del container[key]
            else:
                container[key] = value
            _assert_agrees(command, raw)
    for i in range(len(list(_containers(VALID[command])))):
        raw = copy.deepcopy(VALID[command])
        container = list(_containers(raw))[i]
        if isinstance(container, dict):
            container["extra"] = 1
        else:
            container.append(1.0)
        _assert_agrees(command, raw)


@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("command", sorted(SCHEMAS))
@given(data=st.data())
def test_checker_accepts_exactly_what_jsonschema_accepts(command, data):
    # replace values, delete keys and add keys anywhere in a valid config
    raw = copy.deepcopy(VALID[command])
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(raw)
        action = data.draw(st.sampled_from(["replace", "delete", "add"] if slots else ["add"]))
        if action == "add":
            container = data.draw(st.sampled_from(list(_containers(raw))))
            if isinstance(container, dict):
                container[data.draw(st.sampled_from(_KEYS))] = data.draw(_VALUES)
            else:
                container.append(data.draw(_VALUES))
            continue
        container, key = data.draw(st.sampled_from(slots))
        if action == "replace":
            container[key] = data.draw(_VALUES)
        else:
            del container[key]
    _assert_agrees(command, raw)


@given(_VALUES)
def test_complex_schema_without_one_of_accepts_the_same_values(value):
    one_of = {"oneOf": [{"type": "number"},
                        {"type": "array", "items": {"type": "number"},
                         "minItems": 2, "maxItems": 2}]}
    assert (Draft202012Validator(one_of).is_valid(value)
            == Draft202012Validator(config._COMPLEX).is_valid(value))
