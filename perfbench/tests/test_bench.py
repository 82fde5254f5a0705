"""Tests of the benchmark itself: generator, output checks, tracer, contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qnd_povm import cli  # noqa: E402


def _cli(tmp_path, command, cfg, name="out"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    return str(out)


def _scale_csv_row(path, row, factor):
    """Multiply the p column of data row ``row`` (0-based) by ``factor``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    i = row + 2  # version header, column header
    n_c, n_d, p = lines[i].strip().split(",")
    lines[i] = f"{n_c},{n_d},{float(p) * factor!r}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = workloads.generate(name, 11, str(tmp_path / "a"))
    b = workloads.generate(name, 11, str(tmp_path / "b"))
    c = workloads.generate(name, 12, str(tmp_path / "c"))
    assert [s.command for s in a.steps] == [s.command for s in b.steps]
    for sa, sb in zip(a.steps, b.steps):
        assert open(sa.config).read() == open(sb.config).read()
    assert list(a.configs.values()) == list(b.configs.values())
    assert list(a.configs.values()) != list(c.configs.values())


BRIGHT_SMALL = {
    "params": {"gamma": 6.0, "chi": [3.0, 4.5], "gt": "pi/N"},
    "N": 20,
    "initial": {"type": "coherent", "theta": 1.2},
    "mass_tolerance": 1e-9,
}


def test_bright_check_rejects_perturbed_rows(tmp_path):
    out = _cli(tmp_path, "photon-dist", BRIGHT_SMALL, "dist.csv")
    rows = checks.check_photon_dist(BRIGHT_SMALL, out, seed=5)
    pristine = open(out).read()
    # a row the seeded sample recomputes, and the largest row, which the
    # per-total Poisson marginal catches
    _, data, _ = checks.read_table(out)
    for row in (int(checks.sample_rows(rows, 5)[3]), int(data[:, 2].argmax())):
        _scale_csv_row(out, row, 1.0 + 1e-6)
        with pytest.raises(checks.CheckError):
            checks.check_photon_dist(BRIGHT_SMALL, out, seed=5)
        with open(out, "w") as fh:
            fh.write(pristine)


def test_shots_check_rejects_perturbed_probability(tmp_path):
    cfg = {"params": {"gamma": 5.1, "chi": 5.0, "gt": "pi/N"}, "N": 30,
           "initial": {"type": "coherent", "theta": "pi/2"}, "shots": 200, "seed": 99,
           "mass_tolerance": 1e-9}
    out = _cli(tmp_path, "measure", cfg, "shots.jsonl")
    assert checks.check_measure(cfg, out, seed=1) == 200
    lines = open(out).read().splitlines()
    rec = json.loads(lines[17])
    rec["log_prob"] += math.log1p(1e-6)
    lines[17] = json.dumps(rec, sort_keys=True)
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="log_prob"):
        checks.check_measure(cfg, out, seed=1)


SPHERE = {"params": {"gamma": 5.0, "chi": 5.0, "gt": "pi/2"},
          "initial": {"type": "coherent", "theta": "pi/2"}}


def test_sphere_check_accepts_the_workload_map(tmp_path):
    wl = workloads.generate("sphere", 3, str(tmp_path / "run"))
    step = wl.steps[0]
    assert step.command == "wigner"
    assert cli.main(step.argv()) == 0
    assert checks.check_wigner(wl.configs[step.config], step.out, seed=3) == 181 * 361


def test_sphere_check_rejects_n160_map(tmp_path):
    # the Racah sum behind the multipole table cancels catastrophically at
    # 2J=160: the map's integral of W^2 comes out far from Tr rho^2 = 1
    cfg = dict(SPHERE, N=160)
    out = _cli(tmp_path, "wigner", cfg, "w160.csv")
    with pytest.raises(checks.CheckError, match="W"):
        checks.check_wigner(cfg, out, seed=0)


def test_amp_scan_check_rejects_underflowed_envelope(tmp_path):
    # the envelope carries no photon-number normalization, so at ~1800
    # detected photons every A(m) underflows to 0 and the normalized peak is 0
    cfg = {"cases": [{"label": "bright", "N": 200, "outcome": {"n_c": 880, "n_d": 900},
                      "params": {"gamma": 30.0, "chi": 30.0, "gt": "pi/N"}}]}
    out = _cli(tmp_path, "amp-scan", cfg, "scan")
    with pytest.raises(checks.CheckError, match="normalized peak"):
        checks.check_amp_scan(cfg, out, seed=0)


def test_trace_spans_are_consistent(tmp_path):
    bench_run = run.Run(seed=4)
    wl = workloads.generate("sphere", 4, str(tmp_path / "run"))
    metrics = run.traced(bench_run, wl, str(tmp_path / "run"))
    assert bench_run.failed == 0 and bench_run.attempted == 2 * len(wl.steps)
    meta, _, recorded = spans.read(os.path.join(run.WORK, "trace-sphere-4.jsonl"))
    own = spans.self_times(recorded)
    assert min(own.values()) >= 0.0
    top = sum(end - start for _, parent, _, _, start, end in recorded if parent == 0)
    assert top <= meta["wall_s"]
    assert metrics["cli.main.calls"]["value"] == len(wl.steps)
    assert metrics["validate.run_all.calls"]["value"] == 1
    assert metrics["analysis.rho_lm.calls"]["value"] > 0
    assert metrics["povm.amplitude.calls"]["value"] == 2 * (workloads.APPROX_N + 1)
    # wrappers are gone once the traced pass ends
    assert cli.posterior.__module__ == "qnd_povm.povm" and not hasattr(cli.posterior,
                                                                        "__wrapped__")


def test_measure_scales_units_by_the_calibrations_around_them(tmp_path, monkeypatch):
    ref = run.host.REFERENCE_S
    # warm-up, then the host at reference speed once and four times slower after
    speeds = itertools.chain([9.0, 1.0], itertools.repeat(4.0))
    monkeypatch.setattr(run.host, "calibrate", lambda: ref * next(speeds))

    def child(bench_run, argv, err_path):
        probe = argv[0] == "-c"
        return (0.8 if probe else 3.0), (0.7 if probe else 2.5), 40.0, 0
    monkeypatch.setattr(run, "run_child", child)
    monkeypatch.setattr(run, "check_step", lambda bench_run, wl, step: 100)
    bench_run = run.Run(seed=1)
    wl = workloads.generate("shots", 1, str(tmp_path / "run"))
    # so short a run takes every probe before the first unit, and three units
    got = {k: v["value"] for k, v in run.measure(bench_run, wl, 1e-9, str(tmp_path)).items()}
    # the probes and the first unit sit between speeds 1 and 4 (scale 1/2),
    # the later units between 4 and 4 (scale 1/4)
    assert bench_run.attempted == run.MIN_UNITS * len(wl.steps) + run.SETUP_PROBES
    assert got["wall_s"] == pytest.approx(3.0 / 4)
    assert got["cpu_s"] == pytest.approx(2.5 / 4)
    assert got["items_per_s"] == pytest.approx(100 / (3.0 / 4))
    assert got["setup_s"] == pytest.approx(0.8 / 2)
    assert got["peak_rss_mb"] == 40.0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "shots", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
