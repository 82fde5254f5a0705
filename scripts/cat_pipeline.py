#!/usr/bin/env python3
"""Long-interaction-time pipeline: cat-state generation end to end.

At interaction phase pi/2 with symmetric light the envelope keys on the
parity of m_z.  This script writes, for an equatorial coherent state of ten
atoms: the photon-count distribution (three main lobes), the three parity
envelopes, the wavefunction before/after detecting an equal-count outcome,
the cat fidelity of the posterior, and the Wigner map showing the fringes.

Usage: python scripts/cat_pipeline.py [--out OUTDIR]
"""

import argparse
import json
import math
import os

from qnd_povm.analysis import cat_fidelity
from qnd_povm.cli import run, write_table
from qnd_povm.povm import PhotonOutcome, QndParams, amplitude, posterior
from qnd_povm.spin_state import coherent_state

N_ATOMS = 10
PARAMS = {"gamma": [5.0, 0.0], "chi": [5.0, 0.0], "gt": "pi/2"}
OUTCOME = {"n_c": 26, "n_d": 26}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/cat")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    base = {"params": PARAMS, "N": N_ATOMS,
            "initial": {"type": "coherent", "theta": "pi/2"}}

    run("photon-dist", dict(base, mass_tolerance=1e-8),
        os.path.join(args.out, "photon_dist.csv"))
    run("wigner", dict(base, state="posterior", outcome=OUTCOME,
                       grid={"n_theta": 121, "n_phi": 241}),
        os.path.join(args.out, "wigner_posterior.csv"))

    params = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 2.0)
    m_z = list(range(-N_ATOMS // 2, N_ATOMS // 2 + 1))
    envelopes = [[amplitude(params, PhotonOutcome(nc, nd), m) for m in m_z]
                 for nc, nd in ((26, 26), (0, 51), (51, 0))]
    write_table(os.path.join(args.out, "parity_envelopes.csv"),
                ["m_z", "A_both_ports", "A_c_dark", "A_d_dark"], [[m_z, *envelopes]])

    prior = coherent_state(N_ATOMS, math.pi / 2.0)
    post = posterior(params, PhotonOutcome(**OUTCOME), prior)
    write_table(os.path.join(args.out, "wavefunction_before_after.csv"),
                ["m_z", "prior_re", "post_re", "post_im"],
                [[m_z, prior.amps.real, post.amps.real, post.amps.imag]])

    fid = cat_fidelity(post, N_ATOMS)
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump({"cat_fidelity": fid, "outcome": OUTCOME, "N": N_ATOMS},
                  fh, indent=2, sort_keys=True)
    print(f"cat pipeline -> {args.out} (cat fidelity {fid:.12f})")


if __name__ == "__main__":
    main()
