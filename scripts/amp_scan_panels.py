#!/usr/bin/env python3
"""Amplitude-envelope parameter study.

Writes four families of envelope scans as CSV, one file per curve:
  ratio sweep    fixed total count, varying count asymmetry r
  total sweep    r = 0 with growing total photon number (light scaled along)
  time sweep     fixed counts, interaction phase pi/N, 2pi/N, 4pi/N
  size sweep     ensembles N = 50, 100, 200 at the equivalent time pi/N

Usage: python scripts/amp_scan_panels.py [--out OUTDIR]
"""

import argparse
import json
import os
import tempfile

from qnd_povm.cli import main as cli_main


def cases():
    out = []
    # ratio sweep at total = 50
    for r in (-0.8, -0.4, 0.0, 0.4, 0.8):
        nc = round(25 * (1.0 - r))
        tag = f"{r:+.1f}".replace("+", "p").replace("-", "m")
        out.append({
            "label": f"ratio_r{tag}",
            "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0], "gt": "pi/N"},
            "N": 100,
            "outcome": {"n_c": nc, "n_d": 50 - nc},
        })
    # total-count sweep at r = 0, light amplitudes scaled with the counts
    for n, g, c in ((6, 1.247, 1.2226), (25, 2.55, 2.5), (102, 5.1, 5.0)):
        out.append({
            "label": f"total_{2 * n}",
            "params": {"gamma": [2.0 * g, 0.0], "chi": [2.0 * c, 0.0],
                       "gt": "pi/N"},
            "N": 100,
            "outcome": {"n_c": n, "n_d": n},
        })
    # interaction-time sweep
    for k in (1, 2, 4):
        out.append({
            "label": f"time_{k}piN",
            "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0],
                       "gt": f"{k}pi/100"},
            "N": 100,
            "outcome": {"n_c": 25, "n_d": 25},
        })
    # ensemble-size sweep at the equivalent time
    for n in (50, 100, 200):
        out.append({
            "label": f"size_N{n}",
            "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0], "gt": "pi/N"},
            "N": n,
            "outcome": {"n_c": 25, "n_d": 25},
        })
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/amp_scan")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "amp_scan.json")
        with open(cfg, "w") as fh:
            json.dump({"cases": cases()}, fh)
        rc = cli_main(["amp-scan", "--config", cfg, "--out", args.out])
    print(f"amp-scan -> {args.out} (exit {rc})")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
