"""Experiment configuration: JSON loading, schema validation, angle parsing.

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

import jsonschema

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
_COMPLEX = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}

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

_CASE_SCHEMA = {
    "type": "object",
    "required": ["label", "params", "N", "outcome"],
    "properties": {
        "label": {"type": "string", "pattern": r"^[A-Za-z0-9._-]+$"},
        "params": _PARAMS_SCHEMA,
        "N": {"type": "integer", "minimum": 1},
        "outcome": _OUTCOME_SCHEMA,
    },
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
    "photon-dist": {
        "type": "object",
        "required": ["params", "N", "initial"],
        "properties": {
            "params": _PARAMS_SCHEMA,
            "N": {"type": "integer", "minimum": 1},
            "initial": _INITIAL_SCHEMA,
            "mass_tolerance": {"type": "number",
                               "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "max_total": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "measure": {
        "type": "object",
        "required": ["params", "N", "initial", "shots"],
        "properties": {
            "params": _PARAMS_SCHEMA,
            "N": {"type": "integer", "minimum": 1},
            "initial": _INITIAL_SCHEMA,
            "shots": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer", "minimum": 0},
            "mass_tolerance": {"type": "number",
                               "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "max_total": {"type": "integer", "minimum": 0},
            "dump_posteriors": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "wigner": {
        "type": "object",
        "required": ["params", "N", "initial"],
        "properties": {
            "params": _PARAMS_SCHEMA,
            "N": {"type": "integer", "minimum": 1},
            "initial": _INITIAL_SCHEMA,
            "state": {"enum": ["prior", "posterior"]},
            "outcome": _OUTCOME_SCHEMA,
            "grid": {
                "type": "object",
                "properties": {
                    "n_theta": {"type": "integer", "minimum": 2},
                    "n_phi": {"type": "integer", "minimum": 2},
                },
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
    "project": {
        "type": "object",
        "required": ["params", "N", "initial", "outcome"],
        "properties": {
            "params": _PARAMS_SCHEMA,
            "N": {"type": "integer", "minimum": 1},
            "initial": _INITIAL_SCHEMA,
            "outcome": _OUTCOME_SCHEMA,
        },
        "additionalProperties": False,
    },
    "validate": {
        "type": "object",
        "properties": {"seed": {"type": "integer", "minimum": 0}},
        "additionalProperties": False,
    },
}


def parse_angle(value, N: int | None = None) -> float:
    """Resolve a numeric or symbolic angle to a float.

    Symbolic strings have the form ``[sign][coef][*]pi[/den]`` with ``den``
    either a number or the literal N; plain numeric strings also pass.
    """
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"cannot parse angle {value!r}")
    m = _ANGLE_RE.match(value)
    if m is None:
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"cannot parse angle {value!r}") from None
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
    return coef * math.pi / d


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
    """The JSON object in the config file at `path`, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
        try:
            jsonschema.validate(raw, schema)
        except jsonschema.ValidationError as exc:
            raise ConfigError(f"config rejected: {exc.message}") from exc
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
