"""`measure` records against the per-shot loop they replaced.

The reference draws each shot with the plain-Python oracle
(`shot_oracle.draw`), conditions its outcome alone and writes its record
as `json.dumps(record, sort_keys=True)`; the CLI, which conditions and
formats each distinct outcome of a block of shots once, must write the
same bytes, and the same posterior dump files.
"""

import json
import os

import numpy as np
import pytest

from qnd_povm import _csvrows, cli
from qnd_povm.config import ExperimentConfig
from qnd_povm.povm import PhotonOutcome, condition, condition_many
from qnd_povm.spin_state import moments, state_to_json

import shot_oracle


def reference_measure(raw, out):
    """(JSONL text, {dump file name: text}) of the per-record writer."""
    cfg = ExperimentConfig.from_dict("measure", raw)
    params, state = cfg.params(), cfg.initial_state()
    prior_var = moments(state).var_jz
    seed = raw.get("seed", 0)
    lines, dumps = [], {}
    for shot in range(raw["shots"]):
        shot_seed = (seed + shot) % (1 << 64)
        outcome = PhotonOutcome(*shot_oracle.draw(params, state, shot_seed))
        lp, mean, var = (a.item() for a in condition_many(
            params, [outcome.n_c], [outcome.n_d], state))
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
# covers, and the shots per block, or None for the program's); no shot count
# is a multiple of the 256-record write, so a short last write runs
CASES = {
    # s = 0.45: the zero-photon outcome is drawn in about two shots of three
    "dim_light": (dict(BASE, params={"gamma": [0.5, 0.2], "chi": [0.4, 0.0], "gt": "pi/N"},
                       shots=300, seed=11), '"r": null', None),
    "dicke": (dict(BASE, initial={"type": "dicke", "m": 7}, shots=200, seed=5),
              '"squeezing_ratio": null', None),
    "dump": (dict(BASE, shots=130, seed=9, dump_posteriors=True), '"posterior_ref": "', None),
    # a mean of 1800 photons, where outcomes rarely repeat, over three blocks:
    # dump names past the first block
    "dump_blocks": (dict(BASE, params={"gamma": [30, 0], "chi": [21.2, 21.2], "gt": "pi/N"},
                         initial={"type": "coherent", "theta": 1.3}, shots=250, seed=11,
                         dump_posteriors=True), 'shot_000249.json"', 100),
    # seed + shot passes 2^64 - 1 at the third shot
    "wrapping_seed": (dict(BASE, shots=257, seed=(1 << 64) - 3), '"seed": 0,', None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_measure_matches_the_per_record_writer(tmp_path, monkeypatch, name):
    raw, fragment, block = CASES[name]
    if block is not None:
        monkeypatch.setattr(cli, "_CHUNK_ROWS", block)
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



def _finite_patterns(rng, n):
    """n doubles from random 64-bit patterns, the non-finite ones redrawn."""
    values = rng.integers(0, 2 ** 64, 2 * n, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)][:n]
    assert values.size == n
    return values


def _format_records(columns):
    return _csvrows.format_rows(columns, cli._RECORD_AFTER, cli._RECORD_BEFORE,
                                "null").decode("ascii")


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
def test_records_equal_json_dumps_on_random_bit_patterns(n):
    # every float field holds random finite doubles, the counts reach 2^53 - 1
    # and the seeds 2^64 - 1; a third of the rows have no photons, so r is null
    rng = np.random.default_rng(n)
    log_p, mean, r, ratio, var = (_finite_patterns(rng, n) for _ in range(5))
    n_c = rng.integers(0, 1 << 53, n) * (rng.random(n) < 0.5)
    n_d = rng.integers(0, 1 << 53, n) * (rng.random(n) < 0.5)
    seeds = rng.integers(0, 2 ** 64, n, dtype=np.uint64)
    seeds[:2] = [0, 2 ** 64 - 1][:n]
    refs = np.array([json.dumps(f"out.jsonl.posteriors/shot_{i:06d}.json").encode()
                     for i in range(n)])
    none = n_c + n_d == 0
    for ref_column, ratio_column in ((None, ratio), (refs, None)):
        got = _format_records([log_p, mean, n_c, n_d, ref_column, (r, none), seeds,
                               ratio_column, var])
        want = "".join(json.dumps({
            "log_prob": lp, "mean_jz": mz, "n_c": c, "n_d": d,
            "posterior_ref": None if ref_column is None else json.loads(ref),
            "r": None if c + d == 0 else rr, "seed": s,
            "squeezing_ratio": None if ratio_column is None else q, "var_jz": v,
        }, sort_keys=True) + "\n" for lp, mz, c, d, ref, rr, s, q, v in zip(
            log_p.tolist(), mean.tolist(), n_c.tolist(), n_d.tolist(), refs.tolist(),
            r.tolist(), seeds.tolist(), ratio.tolist(), var.tolist()))
        assert got == want
    assert '"r": null' in want and '"posterior_ref": "out.jsonl' in want


def test_records_null_rows_and_edge_values():
    # nulls in a float column, beside zeros, signed zeros and the extremes
    floats = np.array([0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e16, 1e-5])
    nulls = np.array([True, False, True, False, False, True])
    ints = np.array([0, 1, 9, 10, (1 << 53) - 1, 123456789])
    seeds = np.array([0, 1, 2 ** 63, 2 ** 64 - 1, 10, 99], dtype=np.uint64)
    got = _format_records([floats, floats, ints, ints, None, (floats, nulls), seeds,
                           (floats, ~nulls), floats])
    want = "".join(json.dumps({
        "log_prob": f, "mean_jz": f, "n_c": i, "n_d": i, "posterior_ref": None,
        "r": None if null else f, "seed": s, "squeezing_ratio": f if null else None,
        "var_jz": f}, sort_keys=True) + "\n"
        for f, null, i, s in zip(floats.tolist(), nulls.tolist(), ints.tolist(),
                                 seeds.tolist()))
    assert got == want


@pytest.mark.parametrize("shots", [1, 999, 1000, 1001, 1023, 1025, 2100])
def test_measure_records_across_draw_blocks(tmp_path, monkeypatch, shots):
    # blocks of 1000 shots, each drawn, conditioned and formatted per
    # distinct outcome before it is written 256 records at a time: counts
    # either side of one and of two blocks, with seed + shot passing
    # 2^64 - 1 inside the run
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 1000)
    raw = dict(BASE, N=10, shots=shots, seed=(1 << 64) - 1000)
    out = tmp_path / "m.jsonl"
    assert cli.run("measure", dict(raw), str(out)) == 0
    want, _ = reference_measure(raw, str(out))
    assert out.read_bytes() == want.encode("ascii")
