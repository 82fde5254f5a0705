import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from qnd_povm import cli
from qnd_povm.errors import DomainError

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,expected", [
    ("amp_scan_panels.py", ["ratio_rp0.0.csv", "total_50.csv", "total_1800.csv",
                            "time_4piN.csv", "size_N200.csv"]),
    ("dicke_photon_maps.py", ["dist_m_minusJ.csv", "dist_m_zero.csv",
                              "dist_m_halfJ.csv", "count_to_spin_map.csv"]),
    ("cat_pipeline.py", ["photon_dist.csv", "wigner_posterior.csv",
                         "parity_envelopes.csv",
                         "wavefunction_before_after.csv", "summary.json"]),
])
def test_experiment_script_runs(tmp_path, script, expected):
    out = tmp_path / "out"
    # the scripts' temporary files must not outlive the run
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, TMPDIR=str(scratch)))
    assert proc.returncode == 0, proc.stderr
    for name in expected:
        path = out / name
        assert path.exists(), name
        assert path.stat().st_size > 0
    assert os.listdir(scratch) == []


@pytest.mark.parametrize("script,step", [
    ("amp_scan_panels.py", "eigen"),
    ("dicke_photon_maps.py", "_OutcomeTable"),
    ("cat_pipeline.py", "_OutcomeTable"),
])
def test_script_fails_when_a_step_fails(tmp_path, monkeypatch, script, step):
    def failing(*args, **kwargs):
        raise DomainError("injected failure")

    monkeypatch.setattr(cli, step, failing)
    monkeypatch.setattr(sys, "argv", [script, "--out", str(tmp_path / "out")])
    try:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    except SystemExit as exc:
        assert exc.code not in (0, None)
    except DomainError:
        pass
    else:
        pytest.fail(f"{script} succeeded although a step failed")
