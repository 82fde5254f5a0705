"""`measure` records against the per-shot loop they replaced.

The reference draws each shot with numpy's own `Generator(PCG64(seed))`
and writes each record as `json.dumps(record, sort_keys=True)`; the CLI
must write the same bytes, and the same posterior dump files.
"""

import json
import os

import numpy as np
import pytest

from qnd_povm import cli
from qnd_povm.config import ExperimentConfig
from qnd_povm.povm import PhotonOutcome, condition, condition_many, outcome_distribution
from qnd_povm.spin_state import moments, state_to_json


def reference_sample(dist, seed):
    """Inverse-CDF draw on numpy's first PCG64 uniform, stepping off zero mass."""
    target = np.random.Generator(np.random.PCG64(seed)).random() * dist.captured_mass
    idx = min(int(np.searchsorted(np.cumsum(dist.p), target, side="right")), dist.p.size - 1)
    while idx > 0 and dist.p[idx] == 0.0:
        idx -= 1
    return PhotonOutcome(int(dist.n_c[idx]), int(dist.n_d[idx]))


def reference_measure(raw, out):
    """(JSONL text, {dump file name: text}) of the per-record writer."""
    cfg = ExperimentConfig.from_dict("measure", raw)
    params, state = cfg.params(), cfg.initial_state()
    dist = outcome_distribution(params, state, raw.get("mass_tolerance", 1e-9),
                                max_total=raw.get("max_total"))
    prior_var = moments(state).var_jz
    seed, shots = raw.get("seed", 0), raw["shots"]
    lines, dumps = [], {}
    for lo in range(0, shots, cli._SHOT_BLOCK):
        block = range(lo, min(lo + cli._SHOT_BLOCK, shots))
        seeds = [(seed + shot) % (1 << 64) for shot in block]
        outcomes = [reference_sample(dist, s) for s in seeds]
        log_p, mean_jz, var_jz = condition_many(
            params, [o.n_c for o in outcomes], [o.n_d for o in outcomes], state)
        for shot, shot_seed, outcome, lp, mean, var in zip(
                block, seeds, outcomes, log_p.tolist(), mean_jz.tolist(), var_jz.tolist()):
            ref = None
            if raw.get("dump_posteriors"):
                name = f"shot_{shot:06d}.json"
                ref = os.path.join(f"{out}.posteriors", name)
                dumps[name] = json.dumps(state_to_json(condition(params, outcome, state)[1]),
                                         sort_keys=True)
            record = {
                "seed": shot_seed,
                "n_c": outcome.n_c,
                "n_d": outcome.n_d,
                "r": outcome.r if outcome.total > 0 else None,
                "log_prob": lp,
                "mean_jz": mean,
                "var_jz": var,
                "squeezing_ratio": var / prior_var if prior_var > 0 else None,
                "posterior_ref": ref,
            }
            lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines), dumps


BASE = {"params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0], "gt": "pi/N"}, "N": 40,
        "initial": {"type": "coherent", "theta": "pi/2"}}

# (config, a fragment the records must hold, so each case shows what it
# covers); no shot count is a multiple of the block, so a short last block runs
CASES = {
    # s = 0.45: the zero-photon outcome is drawn in about two shots of three
    "dim_light": (dict(BASE, params={"gamma": [0.5, 0.2], "chi": [0.4, 0.0], "gt": "pi/N"},
                       shots=300, seed=11), '"r": null'),
    "dicke": (dict(BASE, initial={"type": "dicke", "m": 7}, shots=200, seed=5),
              '"squeezing_ratio": null'),
    "dump": (dict(BASE, shots=130, seed=9, dump_posteriors=True), '"posterior_ref": "'),
    # seed + shot passes 2^64 - 1 at the third shot
    "wrapping_seed": (dict(BASE, shots=257, seed=(1 << 64) - 3), '"seed": 0,'),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_measure_matches_the_per_record_writer(tmp_path, name):
    raw, fragment = CASES[name]
    out = tmp_path / "m.jsonl"
    assert cli.run("measure", dict(raw), str(out)) == 0
    want, dumps = reference_measure(raw, str(out))
    assert out.read_bytes() == want.encode("ascii")
    assert fragment in want
    dump_dir = tmp_path / "m.jsonl.posteriors"
    if dumps:
        assert sorted(os.listdir(dump_dir)) == sorted(dumps)
        for file, text in dumps.items():
            assert (dump_dir / file).read_bytes() == text.encode("ascii")
    else:
        assert not dump_dir.exists()

