"""Workload definitions and the seeded input generator.

Each workload is a fixed sequence of CLI invocations (`python -m qnd_povm
<command> --config C --out O`).  The generator writes every config the
workload needs into a run directory; the program under test receives only
those files.  Inputs depend on the seed alone, and the seed only moves
quantities that leave the amount of work unchanged (shot seeds, outcomes,
light phases, the tilt of the initial state), so runs with different seeds
measure the same work.

Why these three:

* shots  - `measure`, N=200, mean 51 photons, 5000 shots: the per-shot
  Python path (sampling, outcome probability, posterior, moments).
* bright - `photon-dist`, N=100, mean 1800 photons, tolerance 1e-9: outcome
  enumeration (1.07M rows) and the CSV writer; no per-shot or multipole code.
* sphere - `wigner` of a posterior cat state, N=100, 181x361 grid: the
  multipole (Clebsch-Gordan) table and the grid.  N=100 is the largest size
  at which the map is correct at the commit that defined this benchmark; from
  N~120 the Racah sum in numerics cancels catastrophically.  The same unit
  then runs `amp-scan`, `project` and `validate` at N=200, one process each,
  the only calls that reach the approx and validate layers and the scalar
  amplitude path; they add about a second, mostly interpreter start-up.

The first call of each workload produces the items its rate counts.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Step:
    """One CLI invocation: subcommand, config file and output path."""

    command: str
    config: str
    out: str

    def argv(self) -> list[str]:
        return [self.command, "--config", self.config, "--out", self.out]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    configs: dict  # step config path -> config dict, as written


NAMES = ("shots", "bright", "sphere")

SHOTS_N = 200
SHOTS = 5000
BRIGHT_N = 100
SPHERE_N = 100
APPROX_N = 200


def _rng(name: str, seed: int) -> random.Random:
    # string seeding hashes with sha512: stable across runs and platforms
    return random.Random(f"qnd-povm-bench:{name}:{seed}")


def _polar(r: float, phase: float) -> list[float]:
    return [r * math.cos(phase), r * math.sin(phase)]


def _shots(rng: random.Random) -> list[tuple[str, dict]]:
    cfg = {
        "params": {"gamma": 5.1, "chi": 5.0, "gt": "pi/N"},
        "N": SHOTS_N,
        "initial": {"type": "coherent", "theta": "pi/2"},
        "shots": SHOTS,
        # per-shot seeds are seed + shot, so nearby benchmark seeds must not
        # map to nearby shot seeds
        "seed": rng.randrange(1 << 48),
        "mass_tolerance": 1e-9,
    }
    return [("measure", cfg)]


def _bright(rng: random.Random) -> list[tuple[str, dict]]:
    # the total-photon marginal is Poisson(1800) whatever the state and the
    # light phase, so the enumeration window and the row count do not move
    cfg = {
        "params": {"gamma": 30.0, "chi": _polar(30.0, rng.uniform(-math.pi, math.pi)),
                   "gt": "pi/N"},
        "N": BRIGHT_N,
        "initial": {"type": "coherent", "theta": rng.uniform(math.pi / 3, 2 * math.pi / 3)},
        "mass_tolerance": 1e-9,
    }
    return [("photon-dist", cfg)]


def _sphere(rng: random.Random) -> list[tuple[str, dict]]:
    # both ports fire, so every outcome gives the same even-m support and the
    # same pattern of vanishing multipoles
    cfg = {
        "params": {"gamma": 5.0, "chi": 5.0, "gt": "pi/2"},
        "N": SPHERE_N,
        "initial": {"type": "coherent", "theta": "pi/2"},
        "state": "posterior",
        "outcome": {"n_c": rng.randint(22, 30), "n_d": rng.randint(22, 30)},
    }
    return [("wigner", cfg), *_approx_and_validate(rng)]


def _approx_and_validate(rng: random.Random) -> list[tuple[str, dict]]:
    # amp-scan's envelope carries no photon-number normalization and
    # underflows to zero above ~360 detected photons, so its bright case
    # stays at a mean of 200; `project` is closed-form and takes 1800
    scan = {
        "cases": [
            {"label": "bright_short", "params": {"gamma": 10.0, "chi": 10.0, "gt": "pi/N"},
             "N": APPROX_N, "outcome": {"n_c": rng.randint(90, 100), "n_d": rng.randint(100, 110)}},
            {"label": "half_pi", "params": {"gamma": 5.0, "chi": 5.0, "gt": "pi/2"},
             "N": APPROX_N, "outcome": {"n_c": rng.randint(22, 30), "n_d": rng.randint(22, 30)}},
        ]
    }
    project = {
        "params": {"gamma": 30.0, "chi": 30.0, "gt": "pi/N"},
        "N": APPROX_N,
        "initial": {"type": "coherent", "theta": "pi/2"},
        "outcome": {"n_c": rng.randint(870, 890), "n_d": rng.randint(890, 910)},
    }
    validate = {"seed": rng.randrange(1 << 31)}
    return [("amp-scan", scan), ("project", project), ("validate", validate)]


# amp-scan writes one file per case into a directory
_SUFFIX = {"amp-scan": "", "measure": ".jsonl", "project": ".json", "validate": ".txt"}
_BUILDERS = {"shots": _shots, "bright": _bright, "sphere": _sphere}


def generate(name: str, seed: int, run_dir: str) -> Workload:
    """Write the workload's configs for ``seed`` into ``run_dir``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    os.makedirs(run_dir, exist_ok=True)
    steps = []
    configs = {}
    for i, (command, cfg) in enumerate(_BUILDERS[name](_rng(name, seed))):
        path = os.path.join(run_dir, f"{i}-{command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        out = os.path.join(run_dir, f"{i}-{command}.out{_SUFFIX.get(command, '.csv')}")
        steps.append(Step(command, path, out))
        configs[path] = cfg
    return Workload(name, tuple(steps), configs)
