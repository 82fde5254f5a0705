#!/usr/bin/env python3
"""Photon-count distributions for Dicke inputs and the count-to-spin map.

For |J, m> inputs the count distribution concentrates along the line
n_c + n_d = |gamma|^2 + |chi|^2 at an asymmetry fixed by m; fully polarized
states push all the light into a single port.  Also writes the inverse map
from the normalized count difference r to the peak spin value.

Usage: python scripts/dicke_photon_maps.py [--out OUTDIR]
"""

import argparse
import math
import os

from qnd_povm.cli import run, write_table
from qnd_povm.povm import QndParams


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/dicke_maps")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    for label, m in (("m_minusJ", -50), ("m_zero", 0), ("m_halfJ", 25)):
        out = os.path.join(args.out, f"dist_{label}.csv")
        run("photon-dist", {
            "params": {"gamma": [5.1, 0.0], "chi": [5.0, 0.0], "gt": "pi/N"},
            "N": 100,
            "initial": {"type": "dicke", "m": m},
            "mass_tolerance": 1e-8,
        }, out)
        print(f"photon-dist m={m} -> {out}")

    # r -> m0 map over the reachable asymmetry window
    params = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 100.0)
    steps = 400
    rs = [-params.cos_2eta + 2.0 * params.cos_2eta * i / steps for i in range(steps + 1)]
    m0s = [math.asin(r / params.cos_2eta) / params.gt for r in rs]
    path = os.path.join(args.out, "count_to_spin_map.csv")
    write_table(path, ["r", "m0"], [[rs, m0s]])
    print(f"count-to-spin map -> {path}")


if __name__ == "__main__":
    main()
