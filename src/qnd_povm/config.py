"""Experiment configuration: JSON loading, schema checking, angle parsing.

Interaction phases and tilt angles are accepted symbolically ("pi/2",
"pi/N", "3pi/4", "-pi/100") so that special points hold to machine precision
instead of drifting through decimal round trips.  The placeholder N resolves
to the configured atom number.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError
from .povm import QndParams, params_from_json
from .spin_state import CollectiveState, coherent_state, dicke_state

_ANGLE_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:\.\d+)?)?\s*\*?\s*pi"
    r"\s*(?:/\s*(?P<den>N|\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)

_NUMBER = {"type": "number"}
_ANGLE = {"type": ["number", "string"]}
# a real number or a [re, im] pair: the array keywords pass any non-array
_COMPLEX = {"type": ["number", "array"], "items": _NUMBER, "minItems": 2, "maxItems": 2}

_PARAMS_SCHEMA = {
    "type": "object",
    "required": ["gamma", "chi", "gt"],
    "properties": {"gamma": _COMPLEX, "chi": _COMPLEX, "gt": _ANGLE},
    "additionalProperties": False,
}

_INITIAL_SCHEMA = {
    "type": "object",
    "required": ["type"],
    "properties": {
        "type": {"enum": ["coherent", "dicke"]},
        "theta": _ANGLE,
        "m": {"type": "number"},
    },
    "additionalProperties": False,
}

_OUTCOME_SCHEMA = {
    "type": "object",
    "required": ["n_c", "n_d"],
    "properties": {
        "n_c": {"type": "integer", "minimum": 0},
        "n_d": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

_ATOMS = {"type": "integer", "minimum": 1}

_CASE_SCHEMA = {
    "type": "object",
    "required": ["label", "params", "N", "outcome"],
    "properties": {
        "label": {"type": "string", "pattern": r"^[A-Za-z0-9._-]+$"},
        "params": _PARAMS_SCHEMA,
        "N": _ATOMS,
        "outcome": _OUTCOME_SCHEMA,
    },
    "additionalProperties": False,
}

_TOLERANCE = {
    "mass_tolerance": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "max_total": {"type": "integer", "minimum": 0},
}
_SEED = {"type": "integer", "minimum": 0}


def _experiment(*required, **props) -> dict:
    """Schema of a config on one light setting, atom number and initial state."""
    return {
        "type": "object",
        "required": ["params", "N", "initial", *required],
        "properties": {"params": _PARAMS_SCHEMA, "N": _ATOMS, "initial": _INITIAL_SCHEMA,
                       **props},
        "additionalProperties": False,
    }


SCHEMAS: dict[str, dict] = {
    "amp-scan": {
        "type": "object",
        "required": ["cases"],
        "properties": {
            "cases": {"type": "array", "items": _CASE_SCHEMA, "minItems": 1},
        },
        "additionalProperties": False,
    },
    "photon-dist": _experiment(**_TOLERANCE),
    "measure": _experiment("shots", shots={"type": "integer", "minimum": 1}, seed=_SEED,
                           dump_posteriors={"type": "boolean"}, **_TOLERANCE),
    "wigner": _experiment(state={"enum": ["prior", "posterior"]}, outcome=_OUTCOME_SCHEMA,
                          grid={
                              "type": "object",
                              "properties": {
                                  "n_theta": {"type": "integer", "minimum": 2},
                                  "n_phi": {"type": "integer", "minimum": 2},
                              },
                              "additionalProperties": False,
                          }),
    "project": _experiment("outcome", outcome=_OUTCOME_SCHEMA),
    "validate": {
        "type": "object",
        "properties": {"seed": _SEED},
        "additionalProperties": False,
    },
}


_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # a JSON integer: 5.0 is a number, which range() and shapes cannot take
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}

# keyword, the comparison that breaks it, and how the message states the bound
_BOUNDS = (("minimum", lambda v, b: v < b, "at least"),
           ("exclusiveMinimum", lambda v, b: v <= b, "above"),
           ("exclusiveMaximum", lambda v, b: v >= b, "below"))


def _reject(path: str, problem: str):
    raise ConfigError(f"config rejected: {path} {problem}")


def _check(value, schema: dict, path: str) -> None:
    """Raise ConfigError naming the first key path at which `value` breaks `schema`.

    Implements the JSON-Schema keywords SCHEMAS uses, with their meaning in
    the standard (a keyword for one type passes values of any other type),
    except that an integer is a JSON integer, never a float such as 5.0.
    """
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    if types and not any(_IS_TYPE[t](value) for t in types):
        _reject(path, f"is not of type {' or '.join(types)}")
    if "enum" in schema and value not in schema["enum"]:
        _reject(path, f"is not one of {', '.join(map(str, schema['enum']))}")
    if _IS_TYPE["number"](value):
        for key, breaks, text in _BOUNDS:
            if key in schema and breaks(value, schema[key]):
                _reject(path, f"must be {text} {schema[key]}")
    if isinstance(value, str) and "pattern" in schema:
        if re.search(schema["pattern"], value) is None:
            _reject(path, f"does not match {schema['pattern']}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            _reject(path, f"has fewer than {schema['minItems']} items")
        if len(value) > schema.get("maxItems", len(value)):
            _reject(path, f"has more than {schema['maxItems']} items")
        for i, item in enumerate(value):
            _check(item, schema.get("items", {}), f"{path}[{i}]")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                _reject(f"{path}.{key}", "is required")
        for key, item in value.items():
            if key in props:
                _check(item, props[key], f"{path}.{key}")
            elif schema.get("additionalProperties", True) is False:
                _reject(f"{path}.{key}", "is not allowed")


def parse_angle(value, N: int | None = None) -> float:
    """Resolve a numeric or symbolic angle to a float.

    Symbolic strings have the form ``[sign][coef][*]pi[/den]`` with ``den``
    either a number or the literal N; plain numeric strings also pass.  An
    angle that is not a finite float raises ConfigError.
    """
    m = _ANGLE_RE.match(value) if isinstance(value, str) else None
    if m is None:
        if not isinstance(value, (int, float, str)):
            raise ConfigError(f"cannot parse angle {value!r}")
        try:
            angle = float(value)
        except (ValueError, OverflowError):
            raise ConfigError(f"cannot parse angle {value!r}") from None
    else:
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        if m.group("sign") == "-":
            coef = -coef
        den = m.group("den")
        if den is None:
            d = 1.0
        elif den.upper() == "N":
            if N is None:
                raise ConfigError("angle uses N but no atom number is configured")
            d = float(N)
        else:
            d = float(den)
            if d == 0.0:
                raise ConfigError("zero denominator in angle")
        angle = coef * math.pi / d
    if not math.isfinite(angle):
        raise ConfigError(f"angle {value!r} is not finite")
    return angle


def build_params(raw: dict, N: int | None) -> QndParams:
    return params_from_json({**raw, "gt": parse_angle(raw["gt"], N)})


def build_initial(raw: dict, N: int) -> CollectiveState:
    if raw["type"] == "coherent":
        if "theta" not in raw:
            raise ConfigError("coherent initial state needs theta")
        return coherent_state(N, parse_angle(raw["theta"], N))
    if "m" not in raw:
        raise ConfigError("dicke initial state needs m")
    return dicke_state(N / 2.0, raw["m"])


def read_config(path: str) -> dict:
    """The JSON object in the config file at `path`, not yet validated.

    NaN, Infinity and a number whose double overflows (1e400) are refused:
    Python's json reads them, but no config value may be non-finite.
    """
    def finite(text: str) -> float:
        x = float(text)
        if not math.isfinite(x):
            raise ConfigError(f"config {path} holds the non-finite number {text}")
        return x

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, undecodable UTF-8, or an integer over Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return raw


@dataclass
class ExperimentConfig:
    """Validated configuration for one CLI command."""

    command: str
    raw: dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def load(command: str, path: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(command, read_config(path))

    @staticmethod
    def from_dict(command: str, raw: dict) -> "ExperimentConfig":
        schema = SCHEMAS.get(command)
        if schema is None:
            raise ConfigError(f"unknown command {command!r}")
        _check(raw, schema, "config")
        if command == "amp-scan":
            labels = [case["label"] for case in raw["cases"]]
            dup = sorted({label for label in labels if labels.count(label) > 1})
            if dup:
                raise ConfigError(f"amp-scan writes one file per case label; "
                                  f"duplicated: {', '.join(dup)}")
        if command == "wigner" and raw.get("state", "prior") == "posterior":
            if "outcome" not in raw:
                raise ConfigError("posterior Wigner map needs an outcome")
        return ExperimentConfig(command=command, raw=raw)

    # convenience accessors -------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return int(self.raw["N"])

    def params(self) -> QndParams:
        return build_params(self.raw["params"], self.raw.get("N"))

    def initial_state(self) -> CollectiveState:
        return build_initial(self.raw["initial"], self.n_atoms)
