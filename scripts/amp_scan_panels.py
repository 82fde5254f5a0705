#!/usr/bin/env python3
"""Amplitude-envelope parameter study.

Writes four families of envelope scans as CSV, one file per curve:
  ratio sweep    fixed total count, varying count asymmetry r
  total sweep    r = 0 with total photon number 12 to 1800 (light scaled along)
  time sweep     fixed counts, interaction phase pi/N, 2pi/N, 4pi/N
  size sweep     ensembles N = 50, 100, 200 at the equivalent time pi/N

Usage: python scripts/amp_scan_panels.py [--out OUTDIR]
"""

import argparse

from qnd_povm.cli import run


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
    for n, g, c in ((6, 1.247, 1.2226), (25, 2.55, 2.5), (102, 5.1, 5.0),
                    (900, 15.15, 14.85)):
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
    run("amp-scan", {"cases": cases()}, args.out)
    print(f"amp-scan -> {args.out}")


if __name__ == "__main__":
    main()
