"""Command-line front end.

Subcommands reproduce the figure-class computations as CSV/JSON artifacts:

  amp-scan     amplitude envelopes over m_z for a list of parameter cases
  photon-dist  outcome probability table for an initial state
  measure      Monte-Carlo measurement shots with posterior diagnostics
  wigner       spin Wigner function of the prior or a posterior state
  project      projective-limit collapse parameters and state
  validate     run the built-in invariant suite

Exit codes: 0 success, 2 configuration error, 3 resource cap, 4 numeric
domain error.  All outputs are deterministic given config + seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import density_from_state, wigner
from .approx import (gaussian_amplitude, gaussian_model, project,
                     projective_params)
from .config import ExperimentConfig, build_params
from .errors import (ConfigError, DomainError, PreconditionError,
                     QndError, ResourceCapError)
from .povm import (PhotonOutcome, condition, eigen, outcome_distribution,
                   posterior, sample_outcome)
from .spin_state import moments, state_to_json

HEADER = f"# qnd-povm v{__version__}, schema v1"


@contextlib.contextmanager
def _artifact(path):
    """Text handle for one output artifact.

    None or "-" streams to stdout.  Otherwise the text goes to a temp file
    beside `path` that replaces `path` only once the block completes, so a
    run that fails midway leaves neither a truncated artifact nor the temp.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


_CHUNK_ROWS = 4096


def _write_table(path, columns, arrays, footer=()):
    """Write equal-length columns as a CSV table under the versioned header.

    Integers are written with str and floats with repr, one row per line
    terminated by CRLF; the header and the `# key = value` footer lines end
    in LF.  Rows are formatted in fixed-size chunks, so memory stays bounded
    by the chunk rather than the table.
    """
    arrays = [np.asarray(a) for a in arrays]
    line = ",".join("{!r}" if a.dtype.kind == "f" else "{}" for a in arrays) + "\r\n"
    n = len(arrays[0])
    with _artifact(path) as fh:
        fh.write(HEADER + "\n")
        fh.write(",".join(columns) + "\r\n")
        for lo in range(0, n, _CHUNK_ROWS):
            chunk = [a[lo:lo + _CHUNK_ROWS].tolist() for a in arrays]
            fh.write("".join(map(line.format, *chunk)))
        for comment in footer:
            fh.write(f"# {comment}\n")


def _write_json(path, payload):
    with _artifact(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_amp_scan(cfg: ExperimentConfig, args) -> int:
    if args.out is None:
        raise ConfigError("amp-scan writes one file per case; --out DIR is required")
    os.makedirs(args.out, exist_ok=True)
    for case in cfg.raw["cases"]:
        n = case["N"]
        params = build_params(case["params"], n)
        outcome = PhotonOutcome(case["outcome"]["n_c"], case["outcome"]["n_d"])
        m_z = (np.arange(-n, n + 1, 2) / 2.0).tolist()
        # math.exp, as `amplitude` uses, so the column equals its values
        exact = np.array([math.exp(x) for x in eigen(params, outcome, m_z)[1].tolist()])
        peak = float(exact.max())
        if peak == 0.0:
            raise DomainError(f"case {case['label']!r}: the envelope underflows "
                              "to 0 at every m_z")
        normed = exact / peak
        try:
            model = gaussian_model(params, outcome)
        except DomainError:
            model = None
        gauss = None if model is None else [gaussian_amplitude(model, m) for m in m_z]
        columns = ["m_z", "A_exact", "A_exact_normalized", "A_gauss"]
        ext = "json" if args.format == "json" else "csv"
        path = os.path.join(args.out, f"{case['label']}.{ext}")
        if args.format == "json":
            _write_json(path, {
                "tool": "qnd-povm", "version": __version__, "schema": "v1",
                "columns": columns,
                "rows": list(zip(m_z, exact.tolist(), normed.tolist(),
                                 gauss or [None] * len(m_z))),
            })
        else:
            # an undefined Gaussian model leaves the A_gauss column empty
            _write_table(path, columns,
                         [m_z, exact, normed, gauss or [""] * len(m_z)])
    return 0


def cmd_photon_dist(cfg: ExperimentConfig, args) -> int:
    params = cfg.params()
    state = cfg.initial_state()
    tol = args.mass_tol if args.mass_tol is not None else cfg.raw.get(
        "mass_tolerance", 1e-6)
    dist = outcome_distribution(params, state, tol,
                                max_total=cfg.raw.get("max_total"))
    columns = ["n_c", "n_d", "p"]
    arrays = [dist.n_c, dist.n_d, dist.p]
    if args.format == "json":
        _write_json(args.out, {
            "tool": "qnd-povm", "version": __version__, "schema": "v1",
            "columns": columns,
            "rows": list(zip(*(a.tolist() for a in arrays))),
            "captured_mass": dist.captured_mass,
            "cutoff_total": dist.cutoff_total,
        })
    else:
        _write_table(args.out, columns, arrays,
                     footer=[f"captured_mass = {dist.captured_mass!r}",
                             f"cutoff_total = {dist.cutoff_total}"])
    return 0


def cmd_measure(cfg: ExperimentConfig, args) -> int:
    params = cfg.params()
    state = cfg.initial_state()
    tol = args.mass_tol if args.mass_tol is not None else cfg.raw.get(
        "mass_tolerance", 1e-9)
    seed = args.seed if args.seed is not None else cfg.raw.get("seed", 0)
    shots = cfg.raw["shots"]
    dump = cfg.raw.get("dump_posteriors", False)
    if dump and (args.out is None or args.out == "-"):
        raise ConfigError("dump_posteriors needs --out FILE to anchor the dump dir")
    dist = outcome_distribution(params, state, tol,
                                max_total=cfg.raw.get("max_total"))
    prior_m = moments(state)
    with _artifact(args.out) as fh:
        for shot in range(shots):
            shot_seed = (int(seed) + shot) % (1 << 64)
            out = sample_outcome(dist, shot_seed)
            log_p, post = condition(params, out, state)
            if post is None:
                raise QndError(
                    f"sampled outcome ({out.n_c}, {out.n_d}) has zero "
                    f"probability (shot {shot}, seed {shot_seed})"
                )
            post_m = moments(post)
            ref = None
            if dump:
                dump_dir = args.out + ".posteriors"
                os.makedirs(dump_dir, exist_ok=True)
                ref = os.path.join(dump_dir, f"shot_{shot:06d}.json")
                with open(ref, "w", encoding="utf-8") as pf:
                    json.dump(state_to_json(post), pf, sort_keys=True)
            record = {
                "seed": shot_seed,
                "n_c": out.n_c,
                "n_d": out.n_d,
                "r": out.r if out.total > 0 else None,
                "log_prob": log_p,
                "mean_jz": post_m.mean_jz,
                "var_jz": post_m.var_jz,
                "squeezing_ratio": post_m.var_jz / prior_m.var_jz
                if prior_m.var_jz > 0 else None,
                "posterior_ref": ref,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def cmd_wigner(cfg: ExperimentConfig, args) -> int:
    params = cfg.params()
    state = cfg.initial_state()
    if cfg.raw.get("state", "prior") == "posterior":
        oc = cfg.raw["outcome"]
        state = posterior(params, PhotonOutcome(oc["n_c"], oc["n_d"]), state)
    grid = cfg.raw.get("grid", {})
    n_theta = grid.get("n_theta", 181)
    n_phi = grid.get("n_phi", 361)
    rho = density_from_state(state, cfg.n_atoms / 2.0)
    wg = wigner(rho, n_theta=n_theta, n_phi=n_phi)
    columns = ["theta", "phi", "w"]
    # row-major over the grid: theta outer, phi inner
    arrays = [np.repeat(wg.thetas, wg.phis.size), np.tile(wg.phis, wg.thetas.size),
              wg.values.ravel()]
    if args.format == "json":
        _write_json(args.out, {
            "tool": "qnd-povm", "version": __version__, "schema": "v1",
            "columns": columns,
            "rows": list(zip(*(a.tolist() for a in arrays))),
        })
    else:
        _write_table(args.out, columns, arrays)
    return 0


def cmd_project(cfg: ExperimentConfig, args) -> int:
    params = cfg.params()
    state = cfg.initial_state()
    oc = cfg.raw["outcome"]
    outcome = PhotonOutcome(oc["n_c"], oc["n_d"])
    pp = projective_params(params, outcome)
    amp, collapsed = project(params, state, pp.u, pp.m0)
    _write_json(args.out, {
        "tool": "qnd-povm", "version": __version__, "schema": "v1",
        "u": pp.u, "v": pp.v, "m0": pp.m0,
        "xi_c": pp.xi_c, "xi_d": pp.xi_d,
        "xi_plus": pp.xi_plus, "xi_minus": pp.xi_minus,
        "amplitude": amp,
        "state": state_to_json(collapsed),
    })
    return 0


def cmd_validate(cfg: ExperimentConfig, args) -> int:
    from .validate import run_all

    seed = args.seed if args.seed is not None else cfg.raw.get("seed", 20260810)
    results = run_all(seed=int(seed))
    ok = True
    with _artifact(args.out) as fh:
        for name, passed, detail in results:
            ok &= passed
            fh.write(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnd-povm",
        description="QND measurement simulator for collective atomic spins",
    )
    parser.add_argument("--version", action="version",
                        version=f"qnd-povm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("amp-scan", "photon-dist", "measure", "wigner", "project",
                 "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to the JSON experiment config",
                       required=name != "validate")
        p.add_argument("--out", help="output path (directory for amp-scan); "
                       "stdout when omitted")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--mass-tol", type=float, dest="mass_tol",
                       help="override the distribution mass tolerance")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


_DISPATCH = {
    "amp-scan": cmd_amp_scan,
    "photon-dist": cmd_photon_dist,
    "measure": cmd_measure,
    "wigner": cmd_wigner,
    "project": cmd_project,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate" and args.config is None:
            cfg = ExperimentConfig.from_dict("validate", {})
        else:
            cfg = ExperimentConfig.load(args.command, args.config)
        return _DISPATCH[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc} (captured_mass={exc.captured_mass!r})",
              file=sys.stderr)
        return 3
    except (DomainError, PreconditionError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4
    except QndError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
