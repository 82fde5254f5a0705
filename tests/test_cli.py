import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qnd_povm import analysis, cli, povm
from qnd_povm.analysis import density_from_state, wigner
from qnd_povm.approx import gaussian_model
from qnd_povm.cli import main
from qnd_povm.config import ExperimentConfig, build_params, parse_angle
from qnd_povm.errors import ConfigError, DomainError, ResourceCapError
from qnd_povm.povm import (PhotonOutcome, amplitude, condition, log_amplitude,
                           outcome_distribution, sample_outcome)
from qnd_povm.spin_state import moments


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

    monkeypatch.setattr(analysis, "legendre_norm_table", failing)
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


def test_module_entrypoint_subprocess(tmp_path):
    cfg = dict(BASE, mass_tolerance=1e-4)
    path = write_config(tmp_path, "pd.json", cfg)
    out = tmp_path / "pd.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qnd_povm", "photon-dist", "--config", path,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.read_text().startswith("# qnd-povm v0.1.0, schema v1")


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
        # measure draws its shots without numpy.random, which numpy 2 loads
        # on first use only (numpy 1 loads it with numpy); validate needs it
        "blocked = 'numpy.random' not in sys.modules\n"
        "if blocked:\n"
        "    sys.modules['numpy.random'] = None\n"
        "from qnd_povm.cli import main\n"
        f"status = main(['measure', '--config', {measure!r},"
        f" '--out', {str(tmp_path / 'm.jsonl')!r}])\n"
        "if blocked:\n"
        "    del sys.modules['numpy.random']\n"
        f"status = status or main(['validate', '--out', {str(tmp_path / 'v.txt')!r}])\n"
        f"sys.exit(status or main(['photon-dist', '--config', {path!r},"
        f" '--out', {str(tmp_path / 'pd.csv')!r}]))\n"
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


def test_photon_dist_stdout_bytes_equal_the_file_in_a_subprocess(tmp_path):
    # the rows go to sys.stdout.buffer between the header and the footer,
    # which go through the text stream
    path = write_config(tmp_path, "pd.json", PD_SMALL)
    out = tmp_path / "pd.csv"
    assert run_cli("photon-dist", "--config", path, "--out", str(out)) == 0
    proc = subprocess.run([sys.executable, "-m", "qnd_povm", "photon-dist", "--config",
                           path, "--out", "-"], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == out.read_bytes()


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


# N = 20 windows of 127, 128 and 257 totals: inside one block of the
# engine, exactly one, and one past two
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
    # the window starts at total 210, so the second block starts at 338
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
    assert "the rows of total 338 miss its Poisson mass" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["pd.json"]
    # on stdout, the first block's rows are out before the second is checked
    assert run_cli("photon-dist", "--config", path, "--out", "-") == 4
    text = capsys.readouterr().out
    assert "captured_mass" not in text
    lines = text.split("\r\n")
    # the header and column line, the rows of totals 210..337, and ""
    assert len(lines) == 1 + sum(t + 1 for t in range(210, 338)) + 1
    assert lines[-2].startswith("337,0,") and lines[-1] == ""


def test_photon_dist_peak_memory_is_bounded_by_a_block(tmp_path):
    # the bright benchmark's table: N = 100, a mean of 1800 photons, 1.07M
    # rows, whose three columns alone take 25.6 MB
    raw = {"params": {"gamma": 30.0, "chi": [30.0 * math.cos(0.7), 30.0 * math.sin(0.7)],
                      "gt": "pi/N"},
           "N": 100, "initial": {"type": "coherent", "theta": 1.2}, "mass_tolerance": 1e-9}
    out = tmp_path / "pd.csv"
    tracemalloc.start()
    try:
        assert cli.run("photon-dist", raw, str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes().count(b"\r\n") == 1067993 + 1
    assert peak < 16e6


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
    real = cli.condition

    def failing_condition(*args):
        calls.append(1)
        if len(calls) == 3:
            raise DomainError("injected failure")
        return real(*args)

    monkeypatch.setattr(cli, "condition", failing_condition)
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
    real = cli.condition

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cli, "condition", counted)
    cfg = dict(BASE, shots=20, seed=5, mass_tolerance=1e-8)
    plain, dumped = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("measure", "--config", write_config(tmp_path, "a.json", cfg),
                   "--out", str(plain)) == 0
    assert calls == []  # every record field comes from the batch
    cfg["dump_posteriors"] = True
    assert run_cli("measure", "--config", write_config(tmp_path, "b.json", cfg),
                   "--out", str(dumped)) == 0
    assert len(calls) == 20
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
    dist = _small_distribution()
    for rec in records[::7] + records[-3:]:
        o = sample_outcome(dist, rec["seed"])
        assert (rec["n_c"], rec["n_d"]) == (o.n_c, o.n_d)
        log_p, post = condition(params, o, state)
        got = moments(post)
        assert abs(rec["log_prob"] - log_p) <= 1e-12 * max(1.0, abs(log_p))
        assert abs(rec["mean_jz"] - got.mean_jz) <= 1e-12
        assert abs(rec["var_jz"] - got.var_jz) <= 1e-12


def test_measure_zero_probability_shot_exits_4(tmp_path, monkeypatch, capsys):
    real = cli.condition_many

    def one_impossible(*args):
        log_p, mean, var = real(*args)
        if log_p.size > 5:
            log_p[5] = -math.inf
        return log_p, mean, var

    monkeypatch.setattr(cli, "condition_many", one_impossible)
    cfg = dict(BASE, shots=200, seed=7, mass_tolerance=1e-8)
    path = write_config(tmp_path, "m.json", cfg)
    assert run_cli("measure", "--config", path, "--out", str(tmp_path / "m.jsonl")) == 4
    err = capsys.readouterr().err
    assert "has zero probability (shot 5, seed 12)" in err
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
    # 2 x 7611 x 1970 table entries, one row per nonzero amplitude of the
    # N=20000 coherent state: refused before any table is allocated
    cfg = dict(BASE, N=20000, params={"gamma": [30, 0], "chi": [30, 0], "gt": "pi/N"})
    if command == "measure":
        cfg["shots"] = 3
    path = write_config(tmp_path, "big.json", cfg)
    assert run_cli(command, "--config", path, "--out", str(tmp_path / "big.out")) == 3
    assert "per-port Poisson tables (2 x 7611 x 1970)" in capsys.readouterr().err
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


def test_posterior_dump_over_the_cap_exits_3(tmp_path, capsys):
    # 1e6 shots x dimension 101: refused before the output or the dump exists
    path = write_config(tmp_path, "m.json", dict(BASE, shots=10 ** 6, dump_posteriors=True))
    assert run_cli("measure", "--config", path, "--out", str(tmp_path / "m.jsonl")) == 3
    assert capsys.readouterr().err == (
        "resource cap: dumping 1000000 posteriors of dimension 101 writes over the "
        f"cap of {1 << 24} amplitudes\n")
    assert os.listdir(tmp_path) == ["m.json"]


def test_posterior_dump_cap_is_the_most_amplitudes_allowed(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ENTRIES", 3 * 11)
    cfg = dict(BASE, N=10, shots=3, dump_posteriors=True, mass_tolerance=1e-6)
    out = str(tmp_path / "m.jsonl")
    assert run_cli("measure", "--config", write_config(tmp_path, "m.json", cfg),
                   "--out", out) == 0
    cfg["shots"] = 4
    assert run_cli("measure", "--config", write_config(tmp_path, "m.json", cfg),
                   "--out", out) == 3


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
        "measure": ["--config", "--mass-tol", "--out", "--seed"],
        "wigner": ["--config", "--format", "--out"],
        "project": ["--config", "--out"],
        "validate": ["--config", "--out", "--seed"],
    }
    assert sum(map(len, flags.values())) == 19


@pytest.mark.parametrize("argv", [
    ["project", "--format", "csv"],
    ["wigner", "--seed", "3"],
    ["amp-scan", "--mass-tol", "1e-6"],
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
    ["measure", "--mass-tol", "0"],
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
