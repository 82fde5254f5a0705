import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,expected", [
    ("amp_scan_panels.py", ["ratio_rp0.0.csv", "total_50.csv",
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
