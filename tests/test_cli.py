import argparse
import ast
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import re
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import qnd_povm
from qnd_povm import analysis, approx, cli, errors, povm, spin_state
from qnd_povm.analysis import density_from_state, wigner
from qnd_povm.approx import gaussian_model
from qnd_povm.cli import main
from qnd_povm.config import ExperimentConfig, build_params, parse_angle
from qnd_povm.errors import ConfigError, DomainError, ResourceCapError
from qnd_povm.povm import (PhotonOutcome, amplitude, condition, condition_many,
                           log_amplitude, outcome_distribution, sample_outcomes)
from qnd_povm.spin_state import coherent_state, moments

import cli_contracts
import shot_oracle


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv_rows(path):
    comments, rows = [], []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        reader = csv.reader(
            line for line in fh if not line.startswith("#") or comments.append(line)
        )
        names = next(reader)
        rows = [dict(zip(names, r)) for r in reader]
    return header, names, rows, [c for c in comments if c]


BASE = {
    "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0], "gt": "pi/N"},
    "N": 100,
    "initial": {"type": "coherent", "theta": "pi/2"},
}


# -------------------------------------------------------------------- parsing

def test_parse_angle_forms():
    assert parse_angle("pi/2") == math.pi / 2.0
    assert parse_angle("pi/N", N=100) == math.pi / 100.0
    assert parse_angle("-pi/4") == -math.pi / 4.0
    assert parse_angle("3pi/4") == 3.0 * math.pi / 4.0
    assert parse_angle("2*pi") == 2.0 * math.pi
    assert parse_angle("0.25") == 0.25
    assert parse_angle(1.5) == 1.5
    with pytest.raises(ConfigError):
        parse_angle("pi/N")
    with pytest.raises(ConfigError):
        parse_angle("two pi")


def test_parse_angle_refuses_an_n_it_cannot_divide_by():
    # once ZeroDivisionError and OverflowError; the CLI's schema and N cap
    # keep both out of a config, but the library takes any N
    with pytest.raises(ConfigError, match="^zero denominator in angle$"):
        parse_angle("pi/0")
    with pytest.raises(ConfigError, match="^zero denominator in angle$"):
        parse_angle("pi/N", 0)
    with pytest.raises(ConfigError, match=r"^angle 'pi/N' divides by an N past the doubles$"):
        parse_angle("pi/N", 10**400)
    with pytest.raises(ConfigError, match="past the doubles"):
        build_params(BASE["params"], 10**400)


# ------------------------------------------------------------------ exit codes

def test_exit_code_config_error(tmp_path):
    bad = write_config(tmp_path, "bad.json", {"params": {}})
    assert run_cli("photon-dist", "--config", bad) == 2
    missing = str(tmp_path / "nope.json")
    assert run_cli("photon-dist", "--config", missing) == 2
    notjson = tmp_path / "nj.json"
    notjson.write_text("{broken")
    assert run_cli("photon-dist", "--config", str(notjson)) == 2
    notobject = write_config(tmp_path, "list.json", [])
    assert run_cli("photon-dist", "--config", notobject, "--mass-tol", "1e-3") == 2
    # an integer past Python's digit limit, and bytes that are not UTF-8
    huge = tmp_path / "huge.json"
    huge.write_text('{"N": 1%s}' % ("0" * 5000))
    assert run_cli("photon-dist", "--config", str(huge)) == 2
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b'{"N": \xff}')
    assert run_cli("photon-dist", "--config", str(undecodable)) == 2


LIGHT = '"gamma": [3, 0], "chi": [3, 0]'


@pytest.mark.parametrize("light, initial, code", [
    (LIGHT, '{"type": "dicke", "m": NaN}', 2),
    (LIGHT, '{"type": "dicke", "m": Infinity}', 2),
    (LIGHT, '{"type": "dicke", "m": -Infinity}', 2),
    (LIGHT, '{"type": "dicke", "m": 1e400}', 2),
    (LIGHT, '{"type": "dicke", "m": 1e308}', 4),
    (LIGHT, '{"type": "coherent", "theta": Infinity}', 2),
    (LIGHT, '{"type": "coherent", "theta": NaN}', 2),
    (LIGHT, '{"type": "coherent", "theta": "1e400"}', 2),
    (LIGHT, '{"type": "coherent", "theta": "nan"}', 2),
    (LIGHT, '{"type": "coherent", "theta": "%spi"}' % ("9" * 400), 2),
    (LIGHT, '{"type": "coherent", "theta": 1%s}' % ("0" * 400), 2),
    # |gamma|^2 overflows a double; a 400-digit int does not fit one at all
    ('"gamma": [1e308, 0], "chi": [3, 0]', '{"type": "coherent", "theta": "pi/2"}', 4),
    ('"gamma": 1%s, "chi": [3, 0]' % ("0" * 400), '{"type": "coherent", "theta": "pi/2"}', 4),
], ids=["dicke-NaN", "dicke-Infinity", "dicke--Infinity", "dicke-1e400", "dicke-1e308",
        "coherent-Infinity", "coherent-NaN", "coherent-str-1e400", "coherent-str-nan",
        "coherent-str-9e399pi", "coherent-int-1e400", "gamma-1e308", "gamma-int-1e400"])
def test_non_finite_config_numbers_exit_cleanly(tmp_path, capsys, light, initial, code):
    # Python's json reads NaN, Infinity and 1e400 (as inf); none may reach the maths
    path = tmp_path / "c.json"
    path.write_text(f'{{"params": {{{light}, "gt": "pi/N"}}, "N": 10, "initial": {initial}}}')
    assert run_cli("photon-dist", "--config", str(path),
                   "--out", str(tmp_path / "p.csv")) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "config error: ", 4: "domain error: "}[code])
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["c.json"]


def test_exit_code_resource_cap(tmp_path, capsys):
    cfg = dict(BASE, max_total=40, mass_tolerance=1e-9)
    path = write_config(tmp_path, "cap.json", cfg)
    assert run_cli("photon-dist", "--config", path,
                   "--out", str(tmp_path / "x.csv")) == 3
    assert "captured_mass" in capsys.readouterr().err


def test_exit_code_domain_error(tmp_path):
    cfg = dict(BASE)
    cfg = json.loads(json.dumps(cfg))
    cfg["outcome"] = {"n_c": 0, "n_d": 60}   # r beyond cos(2 eta)
    path = write_config(tmp_path, "dom.json", cfg)
    assert run_cli("project", "--config", path,
                   "--out", str(tmp_path / "p.json")) == 4


def _five_commands(light, gt):
    """A config per command that builds params, at N=4 with outcome (3, 2)."""
    params = {"gamma": [light, 0.0], "chi": [light, 0.0], "gt": gt}
    base = {"params": params, "N": 4, "initial": {"type": "coherent", "theta": 1.0}}
    outcome = {"n_c": 3, "n_d": 2}
    return {
        "photon-dist": base,
        "measure": dict(base, shots=5, seed=1),
        "amp-scan": {"cases": [{"label": "a", "params": params, "N": 4, "outcome": outcome}]},
        "wigner": dict(base, state="posterior", outcome=outcome),
        "project": dict(base, outcome=outcome),
    }


@pytest.mark.parametrize("light, code", [(1e-200, 4), (1e-155, 4), (1e-150, 0)])
@pytest.mark.parametrize("command", ["photon-dist", "measure", "amp-scan", "wigner",
                                     "project"])
def test_underflowing_light_amplitudes_exit_4(tmp_path, capsys, light, code, command):
    # |gamma|^2 + |chi|^2 is 0 at 1e-200 (ln s fails) and subnormal at 1e-155
    # (cos 2 eta keeps a few digits); at 1e-150 it is a normal 2e-300
    path = write_config(tmp_path, "c.json", _five_commands(light, 1.0)[command])
    assert run_cli(command, "--config", path, "--out", str(tmp_path / "o")) == code
    err = capsys.readouterr().err
    if code:
        assert err == "domain error: |gamma|^2 + |chi|^2 underflows a double\n"
        assert os.listdir(tmp_path) == ["c.json"]
    else:
        assert err == ""
        assert sorted(os.listdir(tmp_path)) == ["c.json", "o"]


# from 1e78 project's (u - s/2)^2 overflows, and its amplitude is the limit 0;
# s = |gamma|^2 + |chi|^2 is 5e307 at 5e153: finite, with (|gamma| + |chi|)^2
# = 1e308, but 4 s overflows; at 9e153 s = 1.62e308 and (|gamma| + |chi|)^2
# overflows, as the envelope bases would
@pytest.mark.parametrize("light, codes", [
    (1e78, {"photon-dist": 3, "measure": 3, "amp-scan": 0, "wigner": 0, "project": 0}),
    (5e153, {"photon-dist": 3, "measure": 3, "amp-scan": 0, "wigner": 0, "project": 0}),
    (9e153, dict.fromkeys(["photon-dist", "measure", "amp-scan", "wigner", "project"], 4)),
], ids=["1e78", "5e153", "9e153"])
@pytest.mark.parametrize("command", ["photon-dist", "measure", "amp-scan", "wigner",
                                     "project"])
def test_light_near_the_double_range_exits_cleanly(tmp_path, capsys, light, codes, command):
    path = write_config(tmp_path, "c.json", _five_commands(light, 1.0)[command])
    out = tmp_path / "o"
    code = codes[command]
    assert run_cli(command, "--config", path, "--out", str(out)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 4:
        assert err == "domain error: (|gamma| + |chi|)^2 overflows a double\n"
    elif code == 3:
        # counts past 2^53 print to three digits: one short line, where the
        # whole integers ran to 1001 characters
        assert err.startswith("resource cap: ")
        assert err.count("\n") == 1 and len(err) < 200
    else:
        assert err == ""
        files = [f for f in out.rglob("*") if f.is_file()] if out.is_dir() else [out]
        assert files
        for f in files:
            text = f.read_text().lower()
            assert "inf" not in text and "nan" not in text, f
    if code:
        assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("gt", [1e-200, 1e-160, 1e160, 1e200])
def test_gaussian_model_at_extreme_gt_is_a_domain_error(tmp_path, capsys, gt):
    # the curvature underflows to 0, or sigma2 or gt**2 overflow
    with pytest.raises(DomainError, match="leaves the doubles"):
        gaussian_model(build_params({"gamma": [5, 0], "chi": [5, 0], "gt": gt}, 4),
                       PhotonOutcome(3, 2))
    configs = _five_commands(5.0, gt)
    path = write_config(tmp_path, "p.json", configs["project"])
    assert run_cli("project", "--config", path, "--out", str(tmp_path / "p.out")) == 4
    assert capsys.readouterr().err.startswith("domain error: the Gaussian model")
    assert os.listdir(tmp_path) == ["p.json"]
    # amp-scan leaves its Gaussian column empty, as for any case without a model
    path = write_config(tmp_path, "a.json", configs["amp-scan"])
    assert run_cli("amp-scan", "--config", path, "--out", str(tmp_path / "scan")) == 0
    assert capsys.readouterr().err == ""
    _, _, rows, comments = read_csv_rows(tmp_path / "scan" / "a.csv")
    assert len(rows) == 5 and all(r["A_gauss"] == "" for r in rows)
    assert all(math.isfinite(float(r["A_exact_normalized"])) for r in rows)
    assert not any("log_prefactor" in c for c in comments)


# ----------------------------------------------------------------- photon-dist

def test_photon_dist_output(tmp_path):
    path = write_config(tmp_path, "pd.json", dict(BASE, mass_tolerance=1e-6))
    out = tmp_path / "pd.csv"
    assert run_cli("photon-dist", "--config", path, "--out", str(out)) == 0
    header, names, rows, comments = read_csv_rows(out)
    assert header == "# qnd-povm v0.1.0, schema v1"
    assert names == ["n_c", "n_d", "p"]
    mass = sum(float(r["p"]) for r in rows)
    footer = {c.split("=")[0].strip("# ").strip(): float(c.split("=")[1])
              for c in comments}
    assert footer["captured_mass"] == pytest.approx(mass, rel=1e-12)
    assert footer["captured_mass"] >= 1.0 - 1e-6
    keys = [(int(r["n_c"]) + int(r["n_d"]), int(r["n_c"])) for r in rows]
    assert keys == sorted(keys)


def test_photon_dist_deterministic(tmp_path):
    path = write_config(tmp_path, "pd.json", dict(BASE, mass_tolerance=1e-6))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("photon-dist", "--config", path, "--out", str(a))
    run_cli("photon-dist", "--config", path, "--out", str(b))
    ha = hashlib.sha256(a.read_bytes()).hexdigest()
    hb = hashlib.sha256(b.read_bytes()).hexdigest()
    assert ha == hb


def test_photon_dist_json_format(tmp_path):
    path = write_config(tmp_path, "pd.json", dict(BASE, mass_tolerance=1e-4))
    out = tmp_path / "pd.json.out"
    assert run_cli("photon-dist", "--config", path, "--out", str(out),
                   "--format", "json") == 0
    data = json.loads(out.read_text())
    assert data["tool"] == "qnd-povm" and data["schema"] == "v1"
    assert data["captured_mass"] >= 1.0 - 1e-4


def test_photon_dist_mass_tol_flag_override(tmp_path):
    path = write_config(tmp_path, "pd.json", dict(BASE, mass_tolerance=0.5))
    out = tmp_path / "pd.csv"
    run_cli("photon-dist", "--config", path, "--out", str(out),
            "--mass-tol", "1e-8")
    _, _, rows, comments = read_csv_rows(out)
    mass = sum(float(r["p"]) for r in rows)
    assert mass >= 1.0 - 1e-8


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "1e999"])
def test_non_finite_mass_tol_flag_is_a_usage_error(tmp_path, capsys, value):
    # argparse's float takes these, and nan passes the schema's bounds; like
    # a non-finite number in a config file, the flag's value is refused by
    # the config checker, which names the key it replaces (exit 2)
    path = write_config(tmp_path, "pd.json", PD_SMALL)
    assert run_cli("photon-dist", "--config", path, "--mass-tol", value,
                   "--out", str(tmp_path / "pd.csv")) == 2
    assert capsys.readouterr().err == (
        "config error: config rejected: config.mass_tolerance is not a finite number\n")
    assert os.listdir(tmp_path) == ["pd.json"]


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-2.5e+0", "-0.001"])
def test_negative_mass_tol_in_any_form_meets_the_schema(tmp_path, capsys, value):
    # argparse's negative-number test has no exponent: a separate -1e-3
    # would be read as a flag and leave --mass-tol without its value
    path = write_config(tmp_path, "pd.json", PD_SMALL)
    assert run_cli("photon-dist", "--config", path, "--mass-tol", value,
                   "--out", str(tmp_path / "pd.csv")) == 2
    assert capsys.readouterr().err == (
        "config error: config rejected: config.mass_tolerance must be above 0\n")
    assert os.listdir(tmp_path) == ["pd.json"]


def test_joining_flag_values_leaves_other_arguments_alone():
    assert cli._joined(["photon-dist", "--out", "-", "--mass-tol", "-1e-3"]) == [
        "photon-dist", "--out", "-", "--mass-tol=-1e-3"]
    assert cli._joined(["measure", "--seed", "-1", "--out", "-1e-3"]) == [
        "measure", "--seed=-1", "--out", "-1e-3"]
    # argparse takes an unambiguous abbreviation of a flag; "--" ends the flags
    assert cli._joined(["photon-dist", "--mass", "-1e-3", "--", "-2"]) == [
        "photon-dist", "--mass=-1e-3", "--", "-2"]
    # a flag after a numeric flag is no number, and keeps argparse's message
    assert cli._joined(["photon-dist", "--mass-tol", "--out", "x"]) == [
        "photon-dist", "--mass-tol", "--out", "x"]


# --------------------------------------------------------------------- amp-scan

def test_amp_scan_requires_out(tmp_path):
    cfg = {"cases": [{"label": "c0", "params": BASE["params"], "N": 100,
                      "outcome": {"n_c": 25, "n_d": 25}}]}
    path = write_config(tmp_path, "amp.json", cfg)
    assert run_cli("amp-scan", "--config", path) == 2
    assert run_cli("amp-scan", "--config", path, "--out", "-") == 2
    assert os.listdir(tmp_path) == ["amp.json"]


def test_amp_scan_equivalent_time_overlap(tmp_path):
    # same counts at gt = pi/N: envelopes coincide on the shared m/J grid
    cases = []
    for n in (50, 100, 200):
        cases.append({
            "label": f"n{n}",
            "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0], "gt": "pi/N"},
            "N": n,
            "outcome": {"n_c": 25, "n_d": 25},
        })
    path = write_config(tmp_path, "amp.json", {"cases": cases})
    outdir = tmp_path / "scan"
    assert run_cli("amp-scan", "--config", path, "--out", str(outdir)) == 0
    curves = {}
    for n in (50, 100, 200):
        _, _, rows, _ = read_csv_rows(outdir / f"n{n}.csv")
        j = n / 2.0
        curves[n] = {float(r["m_z"]) / j: float(r["A_exact_normalized"])
                     for r in rows}
    common = [k / 25.0 for k in range(-25, 26)]
    for x in common:
        vals = [curves[n][min(curves[n], key=lambda q: abs(q - x))]
                for n in (50, 100, 200)]
        assert max(vals) - min(vals) < 1e-3


def test_amp_scan_long_time_multiple_peaks(tmp_path):
    cases = [{
        "label": "long",
        "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0], "gt": "4pi/100"},
        "N": 100,
        "outcome": {"n_c": 25, "n_d": 25},
    }]
    path = write_config(tmp_path, "amp.json", {"cases": cases})
    outdir = tmp_path / "scan"
    run_cli("amp-scan", "--config", path, "--out", str(outdir))
    _, _, rows, _ = read_csv_rows(outdir / "long.csv")
    a = np.array([float(r["A_exact_normalized"]) for r in rows])
    # count strict local maxima above a quarter of the peak
    peaks = [i for i in range(1, len(a) - 1)
             if a[i] > a[i - 1] and a[i] > a[i + 1] and a[i] > 0.25]
    assert len(peaks) >= 3


def test_amp_scan_gauss_column_when_defined(tmp_path):
    cases = [{"label": "g", "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0],
                                       "gt": "pi/100"},
              "N": 100, "outcome": {"n_c": 25, "n_d": 25}},
             {"label": "nog", "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0],
                                         "gt": "pi/100"},
              "N": 100, "outcome": {"n_c": 0, "n_d": 50}}]
    path = write_config(tmp_path, "amp.json", {"cases": cases})
    outdir = tmp_path / "scan"
    run_cli("amp-scan", "--config", path, "--out", str(outdir))
    _, _, rows_g, _ = read_csv_rows(outdir / "g.csv")
    assert all(r["A_gauss"] != "" for r in rows_g)
    mid = [r for r in rows_g if float(r["m_z"]) == 0.0][0]
    assert float(mid["A_gauss"]) == pytest.approx(float(mid["A_exact"]), rel=0.01)
    _, _, rows_n, _ = read_csv_rows(outdir / "nog.csv")
    assert all(r["A_gauss"] == "" for r in rows_n)


def test_amp_scan_underflowed_envelope_is_normalized_in_log_space(tmp_path):
    # at 1800 detected photons every envelope value underflows to 0.0; the
    # normalized column is formed in log space and the footer keeps the scale
    cases = [{"label": label, "params": {"gamma": [30.0, 0.0], "chi": [30.0, 0.0],
                                         "gt": "pi/N"},
              "N": n, "outcome": {"n_c": nc, "n_d": nd}}
             for label, n, nc, nd in (("dark", 100, 900, 900), ("n200", 200, 880, 920))]
    path = write_config(tmp_path, "amp.json", {"cases": cases})
    outdir = tmp_path / "scan"
    assert run_cli("amp-scan", "--config", path, "--out", str(outdir)) == 0
    for case in cases:
        _, _, rows, comments = read_csv_rows(outdir / f"{case['label']}.csv")
        footer = {c.split("=")[0].strip("# ").strip(): float(c.split("=")[1])
                  for c in comments}
        assert all(float(r["A_exact"]) == 0.0 for r in rows)
        assert max(float(r["A_exact_normalized"]) for r in rows) == 1.0
        params = build_params(case["params"], case["N"])
        outcome = PhotonOutcome(case["outcome"]["n_c"], case["outcome"]["n_d"])
        want = max(log_amplitude(params, outcome, t / 2)
                   for t in range(-case["N"], case["N"] + 1, 2))
        assert math.isfinite(footer["log_A_peak"])
        assert footer["log_A_peak"] == want
        assert footer["log_prefactor"] == gaussian_model(params, outcome).log_prefactor


def test_amp_scan_failing_case_writes_no_file(tmp_path):
    # the first case is fine; the second has a dark beam, so the run writes nothing
    cases = [{"label": "ok", "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0],
                                        "gt": "pi/N"},
              "N": 20, "outcome": {"n_c": 25, "n_d": 25}},
             {"label": "dark", "params": {"gamma": 0.0, "chi": [30.0, 0.0],
                                          "gt": "pi/N"},
              "N": 100, "outcome": {"n_c": 900, "n_d": 900}}]
    path = write_config(tmp_path, "amp.json", {"cases": cases})
    outdir = tmp_path / "scan"
    assert run_cli("amp-scan", "--config", path, "--out", str(outdir)) == 4
    assert not outdir.exists()


# ---------------------------------------------------------------------- measure

def test_measure_deterministic_and_schema(tmp_path):
    cfg = dict(BASE, shots=64, seed=7, mass_tolerance=1e-8)
    path = write_config(tmp_path, "m.json", cfg)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("measure", "--config", path, "--out", str(a)) == 0
    assert run_cli("measure", "--config", path, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    records = [json.loads(line) for line in a.read_text().splitlines()]
    assert len(records) == 64
    for rec in records:
        assert set(rec) == {"seed", "n_c", "n_d", "r", "log_prob", "mean_jz",
                            "var_jz", "squeezing_ratio", "posterior_ref"}
        assert rec["posterior_ref"] is None
        assert rec["log_prob"] < 0.0
    seeds = [rec["seed"] for rec in records]
    assert seeds == list(range(7, 7 + 64))


def test_measure_squeezing_ratio_of_a_nearly_dicke_prior(tmp_path):
    # the prior's Var J_z is about 2.5e-60 and each posterior's is of that
    # order: both survive, so every ratio is a finite, nonzero number
    cfg = dict(BASE, N=10, initial={"type": "coherent", "theta": 1e-30}, shots=20, seed=7)
    path = write_config(tmp_path, "m.json", cfg)
    out = tmp_path / "m.jsonl"
    assert run_cli("measure", "--config", path, "--out", str(out)) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 20
    for rec in records:
        ratio = rec["squeezing_ratio"]
        assert isinstance(ratio, float) and math.isfinite(ratio) and ratio > 0.0
        assert 0.0 < rec["var_jz"] < 1e-55


def test_measure_seed_flag_changes_stream(tmp_path):
    cfg = dict(BASE, shots=16, seed=7, mass_tolerance=1e-8)
    path = write_config(tmp_path, "m.json", cfg)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_cli("measure", "--config", path, "--out", str(a))
    run_cli("measure", "--config", path, "--out", str(b), "--seed", "99")
    assert a.read_bytes() != b.read_bytes()


def test_measure_posterior_dump(tmp_path):
    cfg = dict(BASE, shots=3, seed=1, mass_tolerance=1e-8, dump_posteriors=True)
    path = write_config(tmp_path, "m.json", cfg)
    out = tmp_path / "m.jsonl"
    assert run_cli("measure", "--config", path, "--out", str(out)) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    for rec in records:
        assert rec["posterior_ref"] is not None
        dumped = json.loads(open(rec["posterior_ref"]).read())
        assert dumped["sectors"][0]["twoJ"] == 100


def test_measure_squeezes_on_average(tmp_path):
    cfg = dict(BASE, shots=100, seed=3, mass_tolerance=1e-8)
    path = write_config(tmp_path, "m.json", cfg)
    out = tmp_path / "m.jsonl"
    run_cli("measure", "--config", path, "--out", str(out))
    records = [json.loads(line) for line in out.read_text().splitlines()]
    ratios = [rec["squeezing_ratio"] for rec in records]
    rs = [rec["r"] for rec in records]
    assert max(ratios) < 1.0
    # r scatters around zero with the distribution's own shot width
    sigma_shot = np.std(rs) / math.sqrt(len(rs))
    assert abs(np.mean(rs)) < 5.0 * sigma_shot + 0.05


def test_measure_at_20000_photons(tmp_path):
    # far past any enumerable photon window: the sampler draws from windows
    # of about 2660 counts per port and m_z
    cfg = dict(BASE, N=200, params={"gamma": [100, 0], "chi": [100, 0], "gt": "pi/N"},
               shots=200, seed=11)
    out = tmp_path / "m.jsonl"
    assert run_cli("measure", "--config", write_config(tmp_path, "m.json", cfg),
                   "--out", str(out)) == 0
    records = _records(out)
    assert len(records) == 200
    assert all(math.isfinite(rec["log_prob"]) for rec in records)
    n_c = np.array([rec["n_c"] for rec in records])
    n_d = np.array([rec["n_d"] for rec in records])
    s = 20000.0
    assert abs(np.mean(n_c + n_d) - s) < 6.0 * math.sqrt(s / 200)
    run = ExperimentConfig.from_dict("measure", cfg)
    log_p, mean_jz, var_jz = condition_many(run.params(), n_c, n_d, run.initial_state())
    for key, want in (("log_prob", log_p), ("mean_jz", mean_jz), ("var_jz", var_jz)):
        assert [rec[key] for rec in records] == want.tolist()


def test_measure_ignores_mass_tolerance_and_refuses_max_total(tmp_path, capsys):
    cfg = dict(BASE, N=10, shots=40, seed=3)
    plain, tolerant = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("measure", "--config", write_config(tmp_path, "a.json", cfg),
                   "--out", str(plain)) == 0
    assert run_cli("measure", "--config", write_config(
        tmp_path, "b.json", dict(cfg, mass_tolerance=0.5)), "--out", str(tolerant)) == 0
    assert plain.read_bytes() == tolerant.read_bytes()
    capsys.readouterr()
    out = tmp_path / "c.jsonl"
    assert run_cli("measure", "--config", write_config(tmp_path, "c.json", dict(
        cfg, max_total=200)), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "config error: config rejected: config.max_total is not allowed\n"
    assert not out.exists()


# ----------------------------------------------------------------------- wigner

def test_wigner_grid_size_and_negativity(tmp_path):
    cfg = {
        "params": {"gamma": [5.0, 0.0], "chi": [5.0, 0.0], "gt": "pi/2"},
        "N": 10,
        "initial": {"type": "coherent", "theta": "pi/2"},
        "state": "posterior",
        "outcome": {"n_c": 26, "n_d": 26},
        "grid": {"n_theta": 31, "n_phi": 61},
    }
    path = write_config(tmp_path, "w.json", cfg)
    out = tmp_path / "w.csv"
    assert run_cli("wigner", "--config", path, "--out", str(out)) == 0
    _, names, rows, _ = read_csv_rows(out)
    assert names == ["theta", "phi", "w"]
    assert len(rows) == 31 * 61
    assert min(float(r["w"]) for r in rows) < -0.05


def test_wigner_posterior_of_a_dicke_ket_off_the_envelope_peak(tmp_path):
    # outcome (26, 25) at gt = pi/2 is nearly impossible on odd m, so the
    # envelope on the one occupied m_z sits ~1900 e-folds below the empty
    # even m_z; the posterior is still the ket, and its map is finite
    cfg = {
        "params": {"gamma": [5.0, 0.0], "chi": [5.0, 0.0], "gt": "pi/2"},
        "N": 10,
        "initial": {"type": "dicke", "m": 1},
        "state": "posterior",
        "outcome": {"n_c": 26, "n_d": 25},
        "grid": {"n_theta": 7, "n_phi": 9},
    }
    path = write_config(tmp_path, "w.json", cfg)
    out = tmp_path / "w.csv"
    assert run_cli("wigner", "--config", path, "--out", str(out)) == 0
    _, _, rows, _ = read_csv_rows(out)
    vals = np.array([float(r["w"]) for r in rows])
    assert vals.size == 7 * 9 and np.isfinite(vals).all()


def test_wigner_posterior_after_1e8_photons_per_port(tmp_path):
    # an envelope under _LOG_ZERO / 4 with no zero base is not a zero: the
    # outcome has a posterior, not "zero-probability outcome" (exit 4)
    cfg = {
        "params": {"gamma": [1e4, 0.0], "chi": [1e4, 0.0], "gt": 0.001},
        "N": 10,
        "initial": {"type": "coherent", "theta": "pi/2"},
        "state": "posterior",
        "outcome": {"n_c": 10 ** 8, "n_d": 10 ** 8},
        "grid": {"n_theta": 7, "n_phi": 9},
    }
    path = write_config(tmp_path, "w.json", cfg)
    out = tmp_path / "w.csv"
    assert run_cli("wigner", "--config", path, "--out", str(out)) == 0
    _, _, rows, _ = read_csv_rows(out)
    vals = np.array([float(r["w"]) for r in rows])
    assert vals.size == 7 * 9 and np.isfinite(vals).all()


def test_wigner_prior_positive_lobe(tmp_path):
    cfg = {
        "params": {"gamma": [5.0, 0.0], "chi": [5.0, 0.0], "gt": "pi/2"},
        "N": 10,
        "initial": {"type": "coherent", "theta": "pi/2"},
        "grid": {"n_theta": 31, "n_phi": 61},
    }
    path = write_config(tmp_path, "w.json", cfg)
    out = tmp_path / "w.csv"
    run_cli("wigner", "--config", path, "--out", str(out))
    _, _, rows, _ = read_csv_rows(out)
    vals = np.array([float(r["w"]) for r in rows])
    # frozen from the independent construction: floor is about -1.33e-4
    assert vals.min() > -2e-4
    assert vals.max() > 1.0


def test_wigner_posterior_requires_outcome(tmp_path):
    cfg = {
        "params": {"gamma": [5.0, 0.0], "chi": [5.0, 0.0], "gt": "pi/2"},
        "N": 10,
        "initial": {"type": "coherent", "theta": "pi/2"},
        "state": "posterior",
    }
    path = write_config(tmp_path, "w.json", cfg)
    assert run_cli("wigner", "--config", path) == 2


def test_wigner_oversized_grid_is_capped_before_allocation(tmp_path, capsys,
                                                           monkeypatch):
    # the cap is checked before any Legendre table, so none may be built
    def failing(*args, **kwargs):
        raise AssertionError("a Legendre table was built")

    monkeypatch.setattr(analysis, "legendre_sum", failing)
    cfg = {
        "params": {"gamma": [5.0, 0.0], "chi": [5.0, 0.0], "gt": "pi/2"},
        "N": 20,
        "initial": {"type": "coherent", "theta": "pi/2"},
        "grid": {"n_theta": 200000, "n_phi": 200000},
    }
    path = write_config(tmp_path, "w.json", cfg)
    out = tmp_path / "w.csv"
    assert run_cli("wigner", "--config", path, "--out", str(out)) == 3
    assert "Wigner grid" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["w.json"]
    # a grid under the cap does reach the patched routine
    cfg["grid"] = {"n_theta": 3, "n_phi": 3}
    path = write_config(tmp_path, "w.json", cfg)
    with pytest.raises(AssertionError, match="Legendre"):
        run_cli("wigner", "--config", path, "--out", str(out))


# ---------------------------------------------------------------------- project

def test_project_payload(tmp_path):
    cfg = dict(BASE)
    cfg["outcome"] = {"n_c": 25, "n_d": 25}
    path = write_config(tmp_path, "p.json", cfg)
    out = tmp_path / "p.out.json"
    assert run_cli("project", "--config", path, "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["u"] == 25.0 and data["v"] == 0.0
    assert abs(data["m0"]) < 1e-12
    assert data["xi_plus"] == pytest.approx(1.0 - data["xi_c"] - data["xi_d"])
    amps = data["state"]["sectors"][0]["amps"]
    nonzero = [i for i, (re, im) in enumerate(amps) if re or im]
    assert nonzero == [50]


# --------------------------------------------------------------------- validate

def test_validate_passes(tmp_path, capsys):
    assert run_cli("validate") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 6
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("seed", ["1", "2", str(1 << 64)])
def test_validate_passes_at_other_seeds(capsys, seed):
    # a seed is read mod 2^64, as measure reads it
    assert run_cli("validate", "--seed", seed) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 6 and all(line.startswith("PASS") for line in lines)


def test_runs_without_test_dependencies(tmp_path):
    # the package declares only numpy; a run-time import of a test dependency
    # must fail here instead of passing where CI installs it
    path = write_config(tmp_path, "pd.json", PD_SMALL)
    measure = write_config(tmp_path, "m.json", dict(PD_SMALL, shots=130, seed=3))
    code = (
        "import sys\n"
        "import numpy\n"
        "sys.modules.update(dict.fromkeys("
        "['scipy', 'sympy', 'mpmath', 'hypothesis', 'pytest', 'jsonschema'], None))\n"
        # numpy 2 loads numpy.random and numpy.polynomial on first use only
        # (numpy 1 loads both with numpy), and no command needs them: measure
        # and validate draw from SplitMix64, and validate's quadrature comes
        # from numpy.linalg.  Nor is OpenSSL's _hashlib, which numpy.random
        # brings in, loaded
        "unloaded = [m for m in ('numpy.random', 'numpy.polynomial', '_hashlib')"
        " if m not in sys.modules]\n"
        "sys.modules.update((m, None) for m in unloaded if m.startswith('numpy'))\n"
        "from qnd_povm.cli import main\n"
        f"status = main(['measure', '--config', {measure!r},"
        f" '--out', {str(tmp_path / 'm.jsonl')!r}])\n"
        f"status = status or main(['validate', '--out', {str(tmp_path / 'v.txt')!r}])\n"
        f"status = status or main(['photon-dist', '--config', {path!r},"
        f" '--out', {str(tmp_path / 'pd.csv')!r}])\n"
        "loaded = [m for m in unloaded if sys.modules.get(m)]\n"
        "sys.exit(status or (f'loaded {loaded}' if loaded else 0))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "pd.csv").stat().st_size > 0
    assert len((tmp_path / "m.jsonl").read_text().splitlines()) == 130


def test_measure_recovers_dicke_projection(tmp_path):
    # shot-averaged spin estimate from the count asymmetry map lands on the
    # prepared projection within shot noise (small arcsine-curvature bias)
    cfg = {
        "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0], "gt": "pi/N"},
        "N": 100,
        "initial": {"type": "dicke", "m": 25},
        "shots": 400,
        "seed": 0,
        "mass_tolerance": 1e-8,
    }
    path = write_config(tmp_path, "m.json", cfg)
    out = tmp_path / "m.jsonl"
    assert run_cli("measure", "--config", path, "--out", str(out)) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    cos2eta = 2.0 * 5.1 * 5.0 / (5.1**2 + 5.0**2)
    gt = math.pi / 100.0
    ests = [math.asin(max(-1.0, min(1.0, rec["r"] / cos2eta))) / gt
            for rec in records]
    assert abs(np.mean(ests) - 25.0) < 2.0
    assert 3.0 < np.std(ests) < 6.0


def test_photon_dist_tilted_state_modal_outcome(tmp_path):
    # state tilted halfway toward the pole: the likeliest outcome is pushed
    # hard against the d port (exact enumeration gives n_c = 2, n_d = 48)
    cfg = {
        "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0], "gt": "pi/N"},
        "N": 100,
        "initial": {"type": "coherent", "theta": "pi/4"},
        "mass_tolerance": 1e-8,
    }
    path = write_config(tmp_path, "pd.json", cfg)
    out = tmp_path / "pd.csv"
    run_cli("photon-dist", "--config", path, "--out", str(out))
    _, _, rows, _ = read_csv_rows(out)
    best = max(rows, key=lambda r: float(r["p"]))
    assert int(best["n_c"]) <= 3
    assert 45 <= int(best["n_d"]) <= 51


def test_amp_scan_ratio_sweep_shifts_peak(tmp_path):
    cases = []
    for tag, nc in (("neg", 35), ("mid", 25), ("pos", 15)):
        cases.append({
            "label": f"r_{tag}",
            "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0], "gt": "pi/N"},
            "N": 100,
            "outcome": {"n_c": nc, "n_d": 50 - nc},
        })
    path = write_config(tmp_path, "amp.json", {"cases": cases})
    outdir = tmp_path / "scan"
    run_cli("amp-scan", "--config", path, "--out", str(outdir))
    peaks = {}
    for tag in ("neg", "mid", "pos"):
        _, _, rows, _ = read_csv_rows(outdir / f"r_{tag}.csv")
        best = max(rows, key=lambda r: float(r["A_exact"]))
        peaks[tag] = float(best["m_z"])
    assert peaks["neg"] < peaks["mid"] < peaks["pos"]
    assert abs(peaks["mid"]) <= 1.0


def test_wigner_json_format(tmp_path):
    cfg = {
        "params": {"gamma": [5.0, 0.0], "chi": [5.0, 0.0], "gt": "pi/2"},
        "N": 4,
        "initial": {"type": "coherent", "theta": "pi/2"},
        "grid": {"n_theta": 7, "n_phi": 9},
    }
    path = write_config(tmp_path, "w.json", cfg)
    out = tmp_path / "w.json.out"
    assert run_cli("wigner", "--config", path, "--out", str(out),
                   "--format", "json") == 0
    data = json.loads(out.read_text())
    assert data["columns"] == ["theta", "phi", "w"]
    assert len(data["rows"]) == 7 * 9


def test_amp_scan_json_format(tmp_path):
    cases = [{"label": "j", "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0],
                                       "gt": "pi/100"},
              "N": 20, "outcome": {"n_c": 25, "n_d": 25}}]
    path = write_config(tmp_path, "amp.json", {"cases": cases})
    outdir = tmp_path / "scan"
    assert run_cli("amp-scan", "--config", path, "--out", str(outdir),
                   "--format", "json") == 0
    data = json.loads((outdir / "j.json").read_text())
    assert len(data["rows"]) == 21
    assert all(len(r) == 4 for r in data["rows"])


# -------------------------------------------------------------- output bytes
# The expected bytes are built here the way the writers used to build them,
# with csv.writer over pre-formatted rows, so that the table writer is pinned
# to that format: CRLF after the column line and each row, LF after the
# version header and the footer comments.

def csv_writer_text(names, rows, footer=()):
    buf = io.StringIO(newline="")
    buf.write(cli.HEADER + "\n")
    writer = csv.writer(buf)
    writer.writerow(names)
    for row in rows:
        writer.writerow(row)
    for line in footer:
        buf.write(f"# {line}\n")
    return buf.getvalue()


def json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


PD_SMALL = dict(BASE, N=10, mass_tolerance=1e-5,
                params={"gamma": [5.1, 0.4], "chi": [5.0, 0.0], "gt": "pi/N"})


def _small_distribution():
    cfg = ExperimentConfig.from_dict("photon-dist", PD_SMALL)
    return outcome_distribution(cfg.params(), cfg.initial_state(), 1e-5)


def test_photon_dist_csv_bytes_pinned(tmp_path, capsys):
    dist = _small_distribution()
    want = csv_writer_text(
        ["n_c", "n_d", "p"],
        [[o.n_c, o.n_d, repr(float(p))] for o, p in dist.entries],
        [f"captured_mass = {dist.captured_mass!r}",
         f"cutoff_total = {dist.cutoff_total}"])
    assert want.count("\r\n") == dist.p.size + 1
    path = write_config(tmp_path, "pd.json", PD_SMALL)
    out = tmp_path / "pd.csv"
    assert run_cli("photon-dist", "--config", path, "--out", str(out)) == 0
    assert out.read_bytes() == want.encode("utf-8")
    capsys.readouterr()
    assert run_cli("photon-dist", "--config", path, "--out", "-") == 0
    assert capsys.readouterr().out == want


# one small config per command whose rows take the binary path to stdout
STDOUT_CASES = {
    "photon-dist": PD_SMALL,
    "wigner": dict(BASE, N=10, state="posterior", outcome={"n_c": 26, "n_d": 25},
                   params={"gamma": [5.0, 0.0], "chi": [5.0, 0.0], "gt": "pi/2"},
                   grid={"n_theta": 11, "n_phi": 21}),
    "measure": dict(PD_SMALL, shots=300, seed=(1 << 64) - 7),
}


@pytest.mark.parametrize("command, fmt", [
    *(pytest.param(command, "csv", id=command) for command in sorted(STDOUT_CASES)),
    *(pytest.param(command, "json", id=f"{command}-json") for command in ("photon-dist",
                                                                          "wigner"))])
def test_text_only_stdout_gets_the_file_bytes(tmp_path, command, fmt):
    # a stream with no binary buffer (io.StringIO, a notebook's stdout)
    # takes the rows as text, between the text written before and after
    raw = STDOUT_CASES[command]
    out = tmp_path / "out"
    assert cli.run(command, dict(raw), str(out), fmt) == 0
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        assert cli.run(command, dict(raw), fmt=fmt) == 0
    assert stream.getvalue().encode("ascii") == out.read_bytes()


def test_output_to_a_pipe_is_written_in_place(tmp_path):
    # renaming the finished temp file over a pipe or a device (/dev/null)
    # would replace it, so such an output is written in place
    want = tmp_path / "pd.csv"
    assert cli.run("photon-dist", dict(PD_SMALL), str(want)) == 0
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert cli.run("photon-dist", dict(PD_SMALL), str(pipe)) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert got == [want.read_bytes()]
    assert sorted(os.listdir(tmp_path)) == ["pd.csv", "pipe"]


@pytest.mark.parametrize("command, flags", [
    ("validate", []), ("photon-dist", []), ("photon-dist", ["--format", "json"]),
    ("measure", [])], ids=["validate", "photon-dist", "photon-dist-json", "measure"])
def test_closed_stdout_exits_141_quietly(tmp_path, command, flags):
    # a reader that closed the pipe, as `| head -1` does: no traceback, and
    # the status of a process ended by SIGPIPE, not a validate failure's 1
    if command != "validate":
        flags = ["--config", write_config(tmp_path, "c.json", STDOUT_CASES[command]), *flags]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "qnd_povm", command, *flags],
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_photon_dist_json_bytes_pinned(tmp_path):
    dist = _small_distribution()
    want = json_text({
        "tool": "qnd-povm", "version": cli.__version__, "schema": "v1",
        "columns": ["n_c", "n_d", "p"],
        "rows": [[o.n_c, o.n_d, p] for o, p in dist.entries],
        "captured_mass": dist.captured_mass,
        "cutoff_total": dist.cutoff_total,
    })
    path = write_config(tmp_path, "pd.json", PD_SMALL)
    out = tmp_path / "pd.json.out"
    assert run_cli("photon-dist", "--config", path, "--out", str(out),
                   "--format", "json") == 0
    assert out.read_bytes() == want.encode("utf-8")


# N = 20 windows of 127, 128 and 257 totals: one short of two blocks of the
# engine, exactly two, and one past four
BLOCK_WINDOWS = {127: 6.4, 128: 6.5, 257: 13.0}


def _window_config(a):
    return {"params": {"gamma": a, "chi": [a * math.cos(0.3), a * math.sin(0.3)],
                       "gt": "pi/N"},
            "N": 20, "initial": {"type": "coherent", "theta": 1.0}, "mass_tolerance": 1e-9}


@pytest.mark.parametrize("totals", sorted(BLOCK_WINDOWS))
def test_photon_dist_streamed_rows_equal_the_distribution(tmp_path, totals):
    # photon-dist writes the rows block by block; outcome_distribution
    # collects the same enumeration into columns
    raw = _window_config(BLOCK_WINDOWS[totals])
    cfg = ExperimentConfig.from_dict("photon-dist", raw)
    dist = outcome_distribution(cfg.params(), cfg.initial_state(), 1e-9)
    assert dist.cutoff_total - (dist.n_c[0] + dist.n_d[0]) + 1 == totals
    want = tmp_path / "want.csv"
    cli.write_table(str(want), ["n_c", "n_d", "p"], [[dist.n_c, dist.n_d, dist.p]],
                    {"captured_mass": dist.captured_mass,
                     "cutoff_total": dist.cutoff_total})
    out = tmp_path / "pd.csv"
    assert cli.run("photon-dist", raw, str(out)) == 0
    assert out.read_bytes() == want.read_bytes()


def test_photon_dist_guard_failure_in_a_later_block(tmp_path, monkeypatch, capsys):
    # the window starts at total 210, so the second block starts _BLOCK later
    second = 210 + povm._BLOCK
    real = povm._mixture_rows

    def corrupt(a, b, lo):
        for i, block in enumerate(real(a, b, lo)):
            if i == 1:
                block[0] += 1.0
            yield block

    monkeypatch.setattr(povm, "_mixture_rows", corrupt)
    path = write_config(tmp_path, "pd.json", _window_config(BLOCK_WINDOWS[257]))
    out = tmp_path / "pd.csv"
    assert run_cli("photon-dist", "--config", path, "--out", str(out)) == 4
    assert f"the rows of total {second} miss its Poisson mass" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["pd.json"]
    # on stdout, the first block's rows are out before the second is checked
    assert run_cli("photon-dist", "--config", path, "--out", "-") == 4
    text = capsys.readouterr().out
    assert "captured_mass" not in text
    lines = text.split("\r\n")
    # the header and column line, the rows of the first block's totals, and ""
    assert len(lines) == 1 + sum(t + 1 for t in range(210, second)) + 1
    assert lines[-2].startswith(f"{second - 1},0,") and lines[-1] == ""


# the bright benchmark's table: N = 100, a mean of 1800 photons, 1.07M rows,
# whose three columns alone take 25.6 MB
BRIGHT = {"params": {"gamma": 30.0, "chi": [30.0 * math.cos(0.7), 30.0 * math.sin(0.7)],
                     "gt": "pi/N"},
          "N": 100, "initial": {"type": "coherent", "theta": 1.2}, "mass_tolerance": 1e-9}


def _traced_peak(out, fmt):
    """The tracemalloc peak of photon-dist on the bright table."""
    tracemalloc.start()
    try:
        assert cli.run("photon-dist", dict(BRIGHT), str(out), fmt) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_photon_dist_peak_memory_is_bounded_by_a_block(tmp_path):
    out = tmp_path / "pd.csv"
    peak = _traced_peak(out, "csv")
    assert out.read_bytes().count(b"\r\n") == 1067993 + 1
    assert peak < 16e6


def test_photon_dist_json_peak_memory_is_bounded_by_a_block(tmp_path):
    # the JSON rows stream through the same chunks as the CSV rows
    out = tmp_path / "pd.json"
    peak = _traced_peak(out, "json")
    text = out.read_bytes()
    assert text.count(b"\n    [\n") == 1067993
    assert text.endswith(b"\n    ]\n  ],\n  \"schema\": \"v1\",\n  \"tool\": \"qnd-povm\",\n"
                         b"  \"version\": \"0.1.0\"\n}\n")
    assert peak < 16e6


@pytest.mark.parametrize("raw", [PD_SMALL, _window_config(BLOCK_WINDOWS[257])],
                         ids=["two-blocks", "five-blocks"])
def test_captured_mass_is_known_before_the_rows(tmp_path, raw):
    # the footer's mass is the window's Pois(s) mass, which the table holds
    # from construction; the rows sum to it within the per-total guard
    cfg = ExperimentConfig.from_dict("photon-dist", raw)
    tol = raw["mass_tolerance"]
    mass = povm._OutcomeTable(cfg.params(), cfg.initial_state(), tol).captured_mass
    assert mass >= 1.0 - tol
    out = tmp_path / "pd.csv"
    assert cli.run("photon-dist", dict(raw), str(out)) == 0
    _, _, rows, comments = read_csv_rows(out)
    assert comments[0] == f"# captured_mass = {mass!r}\n"
    assert abs(math.fsum(float(r["p"]) for r in rows) - mass) <= 1e-10 * mass
    assert cli.run("photon-dist", dict(raw), str(out), "json") == 0
    assert json.loads(out.read_text())["captured_mass"] == mass


def test_wigner_bytes_pinned(tmp_path):
    raw = {"params": {"gamma": [5.0, 0.0], "chi": [5.0, 0.0], "gt": "pi/2"},
           "N": 6, "initial": {"type": "coherent", "theta": "pi/3"},
           "grid": {"n_theta": 5, "n_phi": 7}}
    cfg = ExperimentConfig.from_dict("wigner", raw)
    wg = wigner(density_from_state(cfg.initial_state()),
                n_theta=5, n_phi=7)
    grid = [(float(t), float(p), float(wg.values[i, j]))
            for i, t in enumerate(wg.thetas) for j, p in enumerate(wg.phis)]
    path = write_config(tmp_path, "w.json", raw)
    out = tmp_path / "w.csv"
    assert run_cli("wigner", "--config", path, "--out", str(out)) == 0
    want = csv_writer_text(["theta", "phi", "w"],
                           [[repr(x) for x in row] for row in grid])
    assert out.read_bytes() == want.encode("utf-8")
    assert run_cli("wigner", "--config", path, "--out", str(out),
                   "--format", "json") == 0
    assert out.read_bytes() == json_text({
        "tool": "qnd-povm", "version": cli.__version__, "schema": "v1",
        "columns": ["theta", "phi", "w"], "rows": [list(r) for r in grid],
    }).encode("utf-8")


def test_wigner_csv_of_a_grid_written_in_several_blocks(tmp_path):
    # 50 x 361 points: the coordinates' text is repeated over three blocks
    # of theta rows, the last one short
    raw = {"params": {"gamma": [5.0, 0.0], "chi": [5.0, 0.0], "gt": "pi/2"},
           "N": 6, "initial": {"type": "coherent", "theta": "pi/3"},
           "grid": {"n_theta": 50, "n_phi": 361}}
    wg = wigner(density_from_state(ExperimentConfig.from_dict("wigner", raw).initial_state()),
                n_theta=50, n_phi=361)
    rows = [[repr(float(t)), repr(float(p)), repr(float(wg.values[i, j]))]
            for i, t in enumerate(wg.thetas) for j, p in enumerate(wg.phis)]
    path = write_config(tmp_path, "w.json", raw)
    out = tmp_path / "w.csv"
    assert run_cli("wigner", "--config", path, "--out", str(out)) == 0
    assert out.read_bytes() == csv_writer_text(["theta", "phi", "w"], rows).encode("utf-8")


def test_amp_scan_bytes_pinned(tmp_path):
    cases = [{"label": "g", "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0],
                                       "gt": "pi/N"},
              "N": 12, "outcome": {"n_c": 24, "n_d": 27}},
             {"label": "nog", "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0],
                                         "gt": "pi/N"},
              "N": 12, "outcome": {"n_c": 0, "n_d": 50}}]
    path = write_config(tmp_path, "amp.json", {"cases": cases})
    outdir = tmp_path / "scan"
    assert run_cli("amp-scan", "--config", path, "--out", str(outdir)) == 0
    for case in cases:
        params = build_params(case["params"], case["N"])
        outcome = PhotonOutcome(case["outcome"]["n_c"], case["outcome"]["n_d"])
        ms = [t / 2 for t in range(-case["N"], case["N"] + 1, 2)]
        exact = np.array([amplitude(params, outcome, m) for m in ms])
        log_a = np.array([log_amplitude(params, outcome, m) for m in ms])
        normed = np.exp(log_a - log_a.max())
        footer = [f"log_A_peak = {float(log_a.max())!r}"]
        try:
            model = gaussian_model(params, outcome)
            footer.append(f"log_prefactor = {model.log_prefactor!r}")
        except DomainError:
            model = None
        rows = []
        for m, a, an in zip(ms, exact, normed):
            g = "" if model is None else repr(math.exp(
                model.log_prefactor
                - (float(m) - model.m0) ** 2 / (2.0 * model.sigma2)))
            rows.append([repr(float(m)), repr(float(a)), repr(float(an)), g])
        want = csv_writer_text(["m_z", "A_exact", "A_exact_normalized", "A_gauss"],
                               rows, footer)
        assert (model is None) == (case["label"] == "nog")
        assert (outdir / f"{case['label']}.csv").read_bytes() == want.encode("utf-8")


# ----------------------------------------------------------- atomic artifacts

def test_table_writer_failure_leaves_no_file(tmp_path):
    out = tmp_path / "t.csv"
    cli.write_table(str(out), ["a", "b"], [[np.arange(3), np.ones(3)]], {"k": 1})
    assert os.listdir(tmp_path) == ["t.csv"]
    out.unlink()

    class Interrupted:
        def __repr__(self):
            raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        cli.write_table(str(out), ["a", "b"], [[np.arange(3), np.ones(3)]],
                        {"k": 1, "late": Interrupted()})
    assert os.listdir(tmp_path) == []


def test_measure_failure_leaves_no_file(tmp_path, monkeypatch):
    path = write_config(tmp_path, "m.json", dict(BASE, shots=8, seed=7,
                                                 mass_tolerance=1e-8,
                                                 dump_posteriors=True))
    calls = []
    real = povm._Mixture.condition

    def failing_condition(*args):
        calls.append(1)
        if len(calls) == 3:
            raise DomainError("injected failure")
        return real(*args)

    monkeypatch.setattr(povm._Mixture, "condition", failing_condition)
    assert run_cli("measure", "--config", path,
                   "--out", str(tmp_path / "m.jsonl")) == 4
    assert len(calls) == 3
    assert os.listdir(tmp_path) == ["m.json"]


def test_measure_rerun_replaces_posterior_dump(tmp_path):
    out = tmp_path / "m.jsonl"
    dump = tmp_path / "m.jsonl.posteriors"
    for shots in (8, 3):
        path = write_config(tmp_path, "m.json", dict(BASE, shots=shots, seed=1,
                                                     mass_tolerance=1e-8,
                                                     dump_posteriors=True))
        assert run_cli("measure", "--config", path, "--out", str(out)) == 0
        refs = [json.loads(line)["posterior_ref"]
                for line in out.read_text().splitlines()]
        assert sorted(os.listdir(dump)) == sorted(os.path.basename(r) for r in refs)
        assert len(refs) == shots
    assert sorted(os.listdir(tmp_path)) == ["m.json", "m.jsonl", "m.jsonl.posteriors"]


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_measure_records_do_not_depend_on_the_posterior_dump(tmp_path, monkeypatch):
    calls = []
    real = povm._Mixture.condition

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(povm._Mixture, "condition", counted)
    cfg = dict(BASE, shots=20, seed=5, mass_tolerance=1e-8)
    plain, dumped = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("measure", "--config", write_config(tmp_path, "a.json", cfg),
                   "--out", str(plain)) == 0
    assert calls == []  # every record field comes from the batch
    cfg["dump_posteriors"] = True
    assert run_cli("measure", "--config", write_config(tmp_path, "b.json", cfg),
                   "--out", str(dumped)) == 0
    # the dump conditions each distinct outcome of the block once
    assert len(calls) == len({(rec["n_c"], rec["n_d"]) for rec in _records(dumped)}) < 20
    strip = [[json.dumps({k: v for k, v in rec.items() if k != "posterior_ref"},
                         sort_keys=True) for rec in _records(p)] for p in (plain, dumped)]
    assert strip[0] == strip[1]


@pytest.mark.parametrize("shots", [129, 300])
def test_measure_partial_last_block_writes_every_shot(tmp_path, shots):
    cfg = dict(PD_SMALL, shots=shots, seed=(1 << 64) - 100)
    out = tmp_path / "m.jsonl"
    assert run_cli("measure", "--config", write_config(tmp_path, "m.json", cfg),
                   "--out", str(out)) == 0
    records = _records(out)
    assert [rec["seed"] for rec in records] == [
        ((1 << 64) - 100 + shot) % (1 << 64) for shot in range(shots)]
    # each record is the per-shot draw, conditioned one outcome at a time
    run = ExperimentConfig.from_dict("measure", cfg)
    params, state = run.params(), run.initial_state()
    for rec in records[::7] + records[-3:]:
        o = PhotonOutcome(*shot_oracle.draw(params, state, rec["seed"]))
        assert (rec["n_c"], rec["n_d"]) == (o.n_c, o.n_d)
        log_p, post = condition(params, o, state)
        got = moments(post)
        assert abs(rec["log_prob"] - log_p) <= 1e-12 * max(1.0, abs(log_p))
        assert abs(rec["mean_jz"] - got.mean_jz) <= 1e-12
        assert abs(rec["var_jz"] - got.var_jz) <= 1e-12


def _impossible_outcome(monkeypatch, cfg, shot):
    """Make the outcome that shot `shot` of `cfg` draws impossible, wherever
    measure's conditioning meets it; returns the first shot that draws it.

    measure conditions each distinct outcome of a block of shots once, so
    the outcome is found from the same draws, not from a row's place."""
    run = ExperimentConfig.from_dict("measure", cfg)
    seeds = (np.arange(shot + 1, dtype=np.uint64) + np.uint64(cfg["seed"])).tolist()
    n_c, n_d = sample_outcomes(run.params(), run.initial_state(), seeds)
    drawn = (n_c == n_c[shot]) & (n_d == n_d[shot])
    real = povm._Mixture.condition_many

    def one_impossible(mixture, c, d):
        log_p, mean, var = real(mixture, c, d)
        log_p[(np.asarray(c) == n_c[shot]) & (np.asarray(d) == n_d[shot])] = -math.inf
        return log_p, mean, var

    monkeypatch.setattr(povm._Mixture, "condition_many", one_impossible)
    return int(np.flatnonzero(drawn)[0])


def test_measure_zero_probability_shot_exits_4(tmp_path, monkeypatch, capsys):
    cfg = dict(BASE, shots=200, seed=7, mass_tolerance=1e-8)
    # no shot before shot 5 draws its outcome
    assert _impossible_outcome(monkeypatch, cfg, 5) == 5
    path = write_config(tmp_path, "m.json", cfg)
    assert run_cli("measure", "--config", path, "--out", str(tmp_path / "m.jsonl")) == 4
    err = capsys.readouterr().err
    assert "has zero probability (shot 5, seed 12)" in err
    assert os.listdir(tmp_path) == ["m.json"]


@pytest.mark.parametrize("block", [cli._CHUNK_ROWS, 1000])
@pytest.mark.parametrize("shot, first", [(133, 133), (1029, 266), (1299, 1044)])
def test_measure_zero_probability_names_a_later_shot(tmp_path, monkeypatch, capsys, block,
                                                     shot, first):
    # past the first write of 256 records, and (with blocks of 1000 shots)
    # past the first block of draws, the message names the first shot that
    # drew the outcome, with its own index and seed (seed + shot): shots
    # 1029 and 1299 repeat the outcomes of shots 266 and 1044
    monkeypatch.setattr(cli, "_CHUNK_ROWS", block)
    cfg = dict(BASE, shots=1300, seed=(1 << 64) - 1100, mass_tolerance=1e-8)
    assert _impossible_outcome(monkeypatch, cfg, shot) == first
    path = write_config(tmp_path, "m.json", cfg)
    assert run_cli("measure", "--config", path, "--out", str(tmp_path / "m.jsonl")) == 4
    err = capsys.readouterr().err
    assert f"has zero probability (shot {first}, seed {(first - 1100) % (1 << 64)})" in err
    assert os.listdir(tmp_path) == ["m.json"]


AMP_CASE = {"label": "a", "params": BASE["params"], "N": 10,
            "outcome": {"n_c": 25, "n_d": 25}}


@pytest.mark.parametrize("command, cfg", [
    ("amp-scan", {"cases": [dict(AMP_CASE, outcome={"n_c": 10 ** 29, "n_d": 3})]}),
    ("wigner", dict(BASE, N=10, state="posterior", outcome={"n_c": 10 ** 29, "n_d": 3})),
])
def test_photon_counts_from_2_53_exit_4(tmp_path, capsys, command, cfg):
    # past 2^53 float64 no longer holds every count; int64 overflows at 2^63
    path = write_config(tmp_path, "c.json", cfg)
    assert run_cli(command, "--config", path, "--out", str(tmp_path / "o")) == 4
    assert capsys.readouterr().err == "domain error: photon counts must be below 2^53\n"
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("command, cfg", [
    ("photon-dist", PD_SMALL),
    ("measure", dict(PD_SMALL, shots=3, dump_posteriors=True)),
    ("amp-scan", {"cases": [AMP_CASE]}),
    ("validate", None),
])
def test_unwritable_out_is_a_usage_error(tmp_path, command, cfg, capsys):
    # amp-scan creates missing directories, so its output sits under a file
    (tmp_path / "file").write_text("")
    out = tmp_path / ("file" if command == "amp-scan" else "missing") / "x"
    config = [] if cfg is None else ["--config", write_config(tmp_path, "c.json", cfg)]
    assert run_cli(command, *config, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}")
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))


def test_unwritable_posterior_dump_is_a_usage_error(tmp_path):
    (tmp_path / "file").write_text("")
    with pytest.raises(ConfigError, match="cannot write"):
        with cli._staged_dir(str(tmp_path / "file" / "dump")):
            pass
    assert not list(tmp_path.rglob("*.tmp"))


def test_photon_window_over_the_row_cap_exits_3(tmp_path, capsys):
    # a window of 2.3e13 rows: refused before any table is allocated
    cfg = dict(BASE, N=10, params={"gamma": [1e4, 0.0], "chi": [1e4, 0.0], "gt": "pi/N"})
    path = write_config(tmp_path, "big.json", cfg)
    out = tmp_path / "big.csv"
    assert run_cli("photon-dist", "--config", path, "--out", str(out)) == 3
    assert "over the cap of 16777216" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["big.json"]


@pytest.mark.parametrize("command", ["photon-dist", "measure"])
def test_poisson_tables_over_the_cap_exit_3(tmp_path, capsys, command):
    # one row per nonzero amplitude of the N=20000 coherent state, over
    # n = 0..hi for photon-dist at a mean of 1800 photons and over a window
    # per m_z for measure's sampler at 7200: refused before any table is
    # allocated
    light, tables = {"photon-dist": (30, "per-port Poisson tables (2 x 7611 x 1970)"),
                     "measure": (60, "sampler's per-port Poisson tables (2 x 7611 x 1423)")
                     }[command]
    cfg = dict(BASE, N=20000, params={"gamma": [light, 0], "chi": [light, 0], "gt": "pi/N"})
    if command == "measure":
        cfg["shots"] = 3
    path = write_config(tmp_path, "big.json", cfg)
    assert run_cli(command, "--config", path, "--out", str(tmp_path / "big.out")) == 3
    assert tables in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["big.json"]


HUGE_N = 10 ** 8


@pytest.mark.parametrize("command, cfg", [
    ("project", dict(BASE, N=HUGE_N, outcome={"n_c": 3, "n_d": 4})),
    ("amp-scan", {"cases": [AMP_CASE, dict(AMP_CASE, label="huge", N=HUGE_N)]}),
    ("wigner", dict(BASE, N=HUGE_N)),
    ("photon-dist", dict(BASE, N=HUGE_N)),
])
def test_spin_dimension_over_the_cap_exits_3(tmp_path, capsys, command, cfg):
    # refused before a state or m grid of 1e8 entries is built
    path = write_config(tmp_path, "big.json", cfg)
    assert run_cli(command, "--config", path, "--out", str(tmp_path / "big.out")) == 3
    assert capsys.readouterr().err == (
        f"resource cap: N = {HUGE_N} gives a spin dimension of {HUGE_N + 1}, "
        f"over the cap of {1 << 24}\n")
    assert os.listdir(tmp_path) == ["big.json"]


def test_spin_dimension_cap_is_the_largest_dimension_allowed():
    cli._check_spin_dimensions({"N": (1 << 24) - 1})
    cli._check_spin_dimensions({"cases": [{"N": (1 << 24) - 1}]})
    with pytest.raises(ResourceCapError):
        cli._check_spin_dimensions({"N": 1 << 24})
    with pytest.raises(ResourceCapError):
        cli._check_spin_dimensions({"cases": [{"N": 3}, {"N": 1 << 24}]})


def test_posterior_dump_needs_an_output_file(tmp_path, capsys, monkeypatch):
    # the dump directory sits beside the output file: stdout has none, and
    # neither has /dev/null, which is written in place; each is refused
    # before anything is drawn, staged or written
    monkeypatch.setattr(cli, "_Mixture", _reached)
    monkeypatch.setattr(cli, "_staged_dir", _reached)
    cfg = dict(PD_SMALL, shots=3, dump_posteriors=True)
    for out in (None, "-", os.devnull):
        with pytest.raises(ConfigError, match="^dump_posteriors needs --out FILE to anchor "
                                              "the dump dir$"):
            cli.run("measure", cfg, out)
    path = write_config(tmp_path, "m.json", cfg)
    for out in ([], ["--out", os.devnull]):
        assert run_cli("measure", "--config", path, *out) == 2
        assert capsys.readouterr() == ("", "config error: dump_posteriors needs --out FILE "
                                           "to anchor the dump dir\n")
    assert os.listdir(tmp_path) == ["m.json"]


def test_posterior_dump_over_the_cap_exits_3(tmp_path, capsys):
    # 1e6 shots x dimension 101: refused before the output or the dump exists
    path = write_config(tmp_path, "m.json", dict(BASE, shots=10 ** 6, dump_posteriors=True))
    assert run_cli("measure", "--config", path, "--out", str(tmp_path / "m.jsonl")) == 3
    assert capsys.readouterr().err == (
        "resource cap: dumping 1000000 posteriors of dimension 101 writes over the "
        f"cap of {1 << 24} amplitudes\n")
    assert os.listdir(tmp_path) == ["m.json"]


def test_posterior_dump_cap_is_the_most_amplitudes_allowed(tmp_path, monkeypatch):
    # the one cap, patched to 400 posteriors of dimension 11: above this
    # run's other tables, of which the sampler's 2 x 11 x 167 is the largest
    monkeypatch.setattr(errors, "MAX_ENTRIES", 400 * 11)
    cfg = dict(BASE, N=10, shots=400, dump_posteriors=True, mass_tolerance=1e-6)
    out = str(tmp_path / "m.jsonl")
    assert run_cli("measure", "--config", write_config(tmp_path, "m.json", cfg),
                   "--out", out) == 0
    cfg["shots"] = 401
    assert run_cli("measure", "--config", write_config(tmp_path, "m.json", cfg),
                   "--out", out) == 3


def _reached(*args, **kwargs):
    raise AssertionError("reached past the cap")


# site: (the cap it is patched to, a call that meets it, the allocating step
# after it, which must not run, and the start of its message); N = 10 unless
# the site needs another size
CAP_SITES = {
    # a dark port c and a port d near 20000 photons: the sampler's tables,
    # 2 x 1 x 2654 entries, pass the cap, but its ln n! spans 0..21327
    "ln-factorials": (
        10000, lambda tmp: povm._Mixture(povm.QndParams(gamma=100.0, chi=100.0, gt=math.pi / 2),
                                         spin_state.dicke_state(1, 1)).sampler(),
        (povm, "log_factorial"), "ln n! over 0..21327 is over the cap of "),
    "sampler-tables": (
        100, lambda tmp: povm._Mixture(build_params(PD_SMALL["params"], 10),
                                       coherent_state(10, 1.0)).sampler(),
        (povm._Mixture, "pmf"), "the sampler's per-port Poisson tables (2 x 11 x "),
    "photon-window-rows": (
        100, lambda tmp: povm._OutcomeTable(build_params(PD_SMALL["params"], 10),
                                            coherent_state(10, 1.0), 1e-5),
        (povm, "log_factorial"), "the photon window "),
    # a faint light on many m_z: 36 rows, but 2 x 201 x 8 table entries
    "per-port-tables": (
        1000, lambda tmp: povm._OutcomeTable(povm.QndParams(gamma=1.0, chi=1.0, gt=0.1),
                                            coherent_state(200, 1.0), 1e-5),
        (povm, "log_factorial"), "the per-port Poisson tables (2 x 201 x 8) "),
    "spin-dimension": (
        10, lambda tmp: cli.run("photon-dist", PD_SMALL, str(tmp / "pd.csv")),
        (cli, "_OutcomeTable"), "N = 10 gives a spin dimension of 11, "),
    "posterior-dump": (
        3 * 11 - 1, lambda tmp: cli.run("measure", dict(PD_SMALL, shots=3,
                                                        dump_posteriors=True),
                                        str(tmp / "m.jsonl")),
        (cli, "_Mixture"), "dumping 3 posteriors of dimension 11 "),
    # the (2J + 1)^2 density matrix, before the outer product builds it
    "density-matrix": (
        11 * 11 - 1, lambda tmp: density_from_state(coherent_state(10, 1.0)),
        (analysis.np, "outer"), "a density matrix at 2J=10 holds 121 entries, "),
    # E, the 2J + 1 = 11 rows (cos M phi, -sin M phi) over 13 azimuths, is the
    # largest array, and larger than the density matrix
    "wigner-grid": (
        11 * 13 - 1, lambda tmp: wigner(density_from_state(coherent_state(10, 1.0)), 5, 13),
        (analysis, "legendre_sum"), "a 5x13 Wigner grid at 2J=10 needs an array of 143 "),
}


@pytest.mark.parametrize("site", sorted(CAP_SITES))
def test_every_cap_refuses_through_reserve_before_it_allocates(tmp_path, monkeypatch, site):
    # errors.reserve is the one comparison against errors.MAX_ENTRIES: each
    # site meets the patched cap before its array is built or anything written
    cap, call, (owner, step), message = CAP_SITES[site]
    monkeypatch.setattr(errors, "MAX_ENTRIES", cap)
    monkeypatch.setattr(owner, step, _reached)
    with pytest.raises(ResourceCapError) as err:
        call(tmp_path)
    assert str(err.value).startswith(message)
    assert os.listdir(tmp_path) == []


# each spin size, read by spin_state._spin_size: (a call with N = 2J, the
# allocating step after the read, which must not run when it refuses, and
# the start of the refusal an N + 1 at the cap meets next, if any)
_PARITY = (povm.QndParams(5.0, 5.0, math.pi / 2.0), PhotonOutcome(5, 5))
SPIN_SIZES = {
    "CollectiveState": (lambda n: spin_state.CollectiveState(n, np.ones(n + 1)),
                        (spin_state, "np"), None),
    # the (N + 1)^2 density matrix is over the cap wherever N + 1 is at it
    "DensityMatrix": (lambda n: analysis.DensityMatrix(n, np.eye(n + 1) / (n + 1)),
                      (analysis, "np"), "a density matrix at 2J=10 holds 121 entries, "),
    # `complex` shadowed in spin_state: the record's amplitudes, read after 2J
    "state_from_json": (lambda n: spin_state.state_from_json(
        {"sectors": [{"twoJ": n, "amps": [[1.0, 0.0]] * (n + 1)}]}),
        (spin_state, "complex"), None),
    "dicke_state": (lambda n: spin_state.dicke_state(n / 2, n / 2), (spin_state, "np"), None),
    "coherent_state": (lambda n: coherent_state(n, 1.0), (spin_state, "np"), None),
    "cat_state": (analysis.cat_state, (spin_state, "np"), None),
    "parity_pattern_check": (lambda n: analysis.parity_pattern_check(*_PARITY, n),
                             (analysis, "np"), None),
    "peak_solutions": (lambda n: approx.peak_solutions(*_PARITY, n / 2), (approx, "math"), None),
    "cli-N": (lambda n: cli._check_spin_dimensions({"cases": [{"N": 3}, {"N": n}]}),
              None, None),
}


@pytest.mark.parametrize("site", sorted(SPIN_SIZES))
def test_every_spin_size_is_refused_through_reserve(monkeypatch, site):
    # the one cap, patched to 11 states: N = 10 passes and N = 11 is refused,
    # before any array of it is built, with the cap as it is patched
    call, step, at_cap = SPIN_SIZES[site]
    monkeypatch.setattr(errors, "MAX_ENTRIES", 11)
    if at_cap is None:
        call(10)
    else:
        with pytest.raises(ResourceCapError, match=f"^{re.escape(at_cap)}"):
            call(10)
    if step is not None:
        monkeypatch.setattr(*step, _reached, raising=False)
    with pytest.raises(ResourceCapError) as err:
        call(11)
    assert str(err.value) == "N = 11 gives a spin dimension of 12, over the cap of 11"


def test_cap_messages_print_counts_past_2_53_to_three_digits(tmp_path):
    assert errors.count_text((1 << 53) - 1) == "9007199254740991"
    assert errors.count_text(1 << 53) == "9.01e+15"
    # past the doubles too: a window's row count reaches 1e461
    assert errors.count_text(9 * 10**461 + 1) == "9.00e+461"
    with pytest.raises(ResourceCapError, match=r"^N = 1.00e\+20 gives a spin dimension "
                                               r"of 1.00e\+20, over the cap of 16777216$"):
        cli._check_spin_dimensions({"N": 10**20})
    with pytest.raises(ResourceCapError, match=r"^dumping 1.00e\+20 posteriors of "
                                               r"dimension 11 writes over the cap"):
        cli.run("measure", dict(PD_SMALL, shots=10**20, dump_posteriors=True),
                str(tmp_path / "m.jsonl"))
    assert os.listdir(tmp_path) == []


def test_resource_cap_message_reports_only_a_measured_mass(tmp_path, capsys):
    # the row cap is hit before any mass is computed: no mass is reported
    cfg = dict(BASE, N=10, params={"gamma": [1e4, 0.0], "chi": [1e4, 0.0], "gt": "pi/N"})
    path = write_config(tmp_path, "big.json", cfg)
    assert run_cli("photon-dist", "--config", path) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: the photon window ")
    assert err.endswith(f"over the cap of {1 << 24}\n")
    # the total-photon cap is hit after the marginal mass up to it is known
    path = write_config(tmp_path, "cap.json", dict(BASE, max_total=40))
    assert run_cli("photon-dist", "--config", path) == 3
    err = capsys.readouterr().err
    mass = float(err.rsplit("(captured_mass=", 1)[1].rstrip(")\n"))
    assert 0.0 < mass < 1.0


# ------------------------------------------------------------ flags and run

def test_parser_registers_only_the_flags_each_command_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(s for a in p._actions for s in a.option_strings
                          if s not in ("-h", "--help"))
             for name, p in sub.choices.items()}
    assert flags == {
        "amp-scan": ["--config", "--format", "--out"],
        "photon-dist": ["--config", "--format", "--mass-tol", "--out"],
        "measure": ["--config", "--out", "--seed"],
        "wigner": ["--config", "--format", "--out"],
        "project": ["--config", "--out"],
        "validate": ["--config", "--out", "--seed"],
    }
    assert sum(map(len, flags.values())) == 18


@pytest.mark.parametrize("argv", [
    ["project", "--format", "csv"],
    ["wigner", "--seed", "3"],
    ["amp-scan", "--mass-tol", "1e-6"],
    # measure draws exactly, with no photon window to hold a mass
    ["measure", "--mass-tol", "1e-6"],
])
def test_flag_a_command_does_not_read_is_rejected(tmp_path, argv, capsys):
    path = write_config(tmp_path, "c.json", {})
    with pytest.raises(SystemExit) as exc:
        run_cli(argv[0], "--config", path, *argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "--seed", "-1"],
    ["measure", "--seed", "-1"],
    ["photon-dist", "--mass-tol", "2"],
    ["photon-dist", "--mass-tol", "0"],
])
def test_override_flags_pass_the_config_schema(tmp_path, argv, capsys):
    cfg = dict(BASE, shots=2, mass_tolerance=1e-6)
    if argv[0] == "photon-dist":
        del cfg["shots"]
    config = [] if argv[0] == "validate" else [
        "--config", write_config(tmp_path, "c.json", cfg)]
    out = tmp_path / "out"
    assert run_cli(argv[0], *config, *argv[1:], "--out", str(out)) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_amp_scan_rejects_duplicate_labels(tmp_path, capsys):
    case = {"label": "a", "params": BASE["params"], "N": 10,
            "outcome": {"n_c": 25, "n_d": 25}}
    path = write_config(tmp_path, "amp.json", {"cases": [case, dict(case, N=20)]})
    outdir = tmp_path / "scan"
    assert run_cli("amp-scan", "--config", path, "--out", str(outdir)) == 2
    assert "duplicated: a" in capsys.readouterr().err
    assert not outdir.exists()


def test_run_takes_a_config_dict(tmp_path):
    a, b = tmp_path / "a.json.out", tmp_path / "b.json.out"
    path = write_config(tmp_path, "pd.json", PD_SMALL)
    assert run_cli("photon-dist", "--config", path, "--out", str(a),
                   "--format", "json") == 0
    assert cli.run("photon-dist", PD_SMALL, str(b), "json") == 0
    assert a.read_bytes() == b.read_bytes()
    with pytest.raises(ConfigError):
        cli.run("photon-dist", dict(PD_SMALL, N=0), str(b))
    with pytest.raises(ConfigError):
        cli.run("photon-dist", PD_SMALL, str(b), "xml")


def test_run_refuses_a_non_finite_mass_tolerance(tmp_path):
    # a config dict passed to cli.run meets the rule a config file meets
    out = tmp_path / "run.csv"
    with pytest.raises(ConfigError, match="^config rejected: config.mass_tolerance is not "
                                          "a finite number$"):
        cli.run("photon-dist", dict(PD_SMALL, mass_tolerance=math.nan), str(out))
    assert os.listdir(tmp_path) == []


# --------------------------------------------------------------- process entry

def test_entry_freezes_the_heap_once_it_returns(tmp_path):
    # the collections at exit then skip every object; argparse's exits
    # (--version here) freeze as well
    path = write_config(tmp_path, "pd.json", PD_SMALL)
    code = (
        "import gc\n"
        "from qnd_povm.__main__ import console\n"
        "assert gc.get_freeze_count() == 0\n"
        f"status = console(['photon-dist', '--config', {path!r},"
        f" '--out', {str(tmp_path / 'pd.csv')!r}])\n"
        "print(status, gc.get_freeze_count() > 0)\n"
        "gc.unfreeze()\n"
        "try:\n"
        "    console(['--version'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 True", f"qnd-povm {qnd_povm.__version__}",
                                        "0 True"]


def test_library_calls_never_freeze_the_heap(tmp_path):
    frozen = gc.get_freeze_count()
    path = write_config(tmp_path, "pd.json", PD_SMALL)
    assert run_cli("photon-dist", "--config", path, "--out", str(tmp_path / "a.csv")) == 0
    assert run_cli("photon-dist", "--config", str(tmp_path / "none.json")) == 2
    assert cli.run("photon-dist", dict(PD_SMALL), str(tmp_path / "b.csv")) == 0
    assert gc.get_freeze_count() == frozen


def test_console_script_is_the_function_main_module_calls():
    # `qnd-povm` and `python -m qnd_povm` start at one function
    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    (module, name), = re.findall(r'^qnd-povm = "([\w.]+):(\w+)"$', text, re.M)
    entry = importlib.import_module(module)
    assert module == "qnd_povm.__main__" and callable(getattr(entry, name))
    tree = ast.parse(pathlib.Path(entry.__file__).read_text(encoding="utf-8"))
    guard, = (node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'")
    calls = {node.func.id for node in ast.walk(guard)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert name in calls


@pytest.fixture(scope="module")
def contract_runs():
    return cli_contracts.Runs()


# command, config (None: no --config), flags after `--out OUT`, exit status;
# the first seven are rows of the contract table
ENTRY_CASES = {
    **{row.name: (row.command, row.config, list(row.flags), row.status) for row in (
        cli_contracts.ROW[name] for name in ("photon-dist", "measure", "validate",
                                             "usage-error", "config-error", "resource-cap",
                                             "domain-error"))},
    "amp-scan": ("amp-scan", {"cases": [AMP_CASE]}, [], 0),
    "photon-dist-json-stdout": ("photon-dist", PD_SMALL, ["--format", "json", "--out", "-"], 0),
    "wigner": ("wigner", STDOUT_CASES["wigner"], [], 0),
    "project": ("project", _five_commands(5.0, 1.0)["project"], [], 0),
}


def _written(out, capfd):
    """stdout, stderr and the files at `out` (then removed) since the last call."""
    std = capfd.readouterr()
    files = {}
    if out.is_dir():
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        shutil.rmtree(out)
    elif out.exists():
        files = {".": out.read_bytes()}
        out.unlink()
    return std.out, std.err, files


@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_module_launcher_matches_in_process_main(tmp_path, capfdbinary, contract_runs,
                                                 case):
    # the same status, stdout, stderr and output bytes from `python -m
    # qnd_povm` as from cli.main in this process; for a row of the contract
    # table, the table's run of it is the `python -m` run
    command, cfg, flags, status = ENTRY_CASES[case]
    out = tmp_path / "out"
    config = [] if cfg is None else ["--config", write_config(tmp_path, "c.json", cfg)]
    argv = [command, *config, "--out", str(out), *flags]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == status
    want = _written(out, capfdbinary)
    if case in cli_contracts.ROW:
        got = contract_runs.written(cli_contracts.ROW[case])
    else:
        proc = subprocess.run([sys.executable, "-m", "qnd_povm", *argv], capture_output=True)
        got = (proc.returncode, proc.stdout, proc.stderr, _written(out, capfdbinary)[2])
    assert got == (status, *want)
    # a run that succeeds has written its output somewhere
    assert want[2] or status or flags[-2:] == ["--out", "-"]


@pytest.mark.parametrize("row", cli_contracts.ROWS, ids=lambda row: row.name)
def test_cli_contract(contract_runs, row):
    # the command line at the edges of its claims, as CI runs it under an
    # interpreter with numpy alone: `python tests/cli_contracts.py`
    assert contract_runs.failures(row) == []
