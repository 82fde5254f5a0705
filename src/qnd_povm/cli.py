"""Command-line front end.

Subcommands reproduce the figure-class computations as CSV/JSON artifacts:

  amp-scan     amplitude envelopes over m_z for a list of parameter cases
  photon-dist  outcome probability table for an initial state
  measure      Monte-Carlo measurement shots with posterior diagnostics
  wigner       spin Wigner function of the prior or a posterior state
  project      projective-limit collapse parameters and state
  validate     run the built-in invariant suite

Exit codes: 0 success, 1 a validate check failed, 2 configuration or usage
error (including an output that cannot be written), 3 resource cap, 4
numeric domain error.  All outputs are deterministic given config + seed.
Library callers use `run` with a config dict.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys

import numpy as np

from . import __version__
from .analysis import density_from_state, wigner
from .approx import (gaussian_amplitude, gaussian_model, project,
                     projective_params)
from .config import ExperimentConfig, build_params, read_config
from .errors import (MAX_ENTRIES, ConfigError, DomainError, PreconditionError,
                     QndError, ResourceCapError)
from .povm import (PhotonOutcome, _OutcomeTable, condition, condition_many, eigen,
                   outcome_distribution, posterior, sample_outcomes)
from .spin_state import moments, state_to_json

HEADER = f"# qnd-povm v{__version__}, schema v1"


@contextlib.contextmanager
def _writing(path):
    """Report an output that cannot be written as a usage error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


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
    with _writing(path):
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


@contextlib.contextmanager
def _staged_dir(path):
    """A fresh directory beside `path` that replaces `path` (and any earlier
    tree there) once the block completes; a run that fails leaves neither."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with _writing(path):
        os.makedirs(tmp)
        try:
            yield tmp
            shutil.rmtree(path, ignore_errors=True)
            os.replace(tmp, path)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise


def _write_json(path, payload):
    """Write `payload` as JSON, stamped with the tool, version and schema."""
    stamped = {"tool": "qnd-povm", "version": __version__, "schema": "v1", **payload}
    with _artifact(path) as fh:
        json.dump(stamped, fh, indent=2, sort_keys=True)
        fh.write("\n")


# rows per formatted chunk: bounds memory, and keeps each of the formatter's
# uint64 scratch arrays at 64 KB, under glibc's 128 KB mmap threshold, so
# they reuse heap memory instead of faulting in fresh pages
_CHUNK_ROWS = 8192


def write_table(path, columns, blocks, meta=None, fmt="csv"):
    """Write a table, given as an iterable of column blocks, in CSV or stamped JSON.

    Each block is a list of equal-length columns, one per name, and the
    table is the blocks' rows in order; a block is read before the next is
    taken, so a generator may reuse its arrays.  `meta` is a dict, or a
    function called after the last block that returns one.
    CSV: the versioned header, the column line and one row per line (ints
    as `str` and floats as `repr` write them, CRLF endings), then a
    `# key = value` footer line per `meta` item (LF endings).  Rows are
    formatted in numpy in fixed-size chunks, so memory is bounded by the
    chunk and the block; columns must be int, uint or float arrays
    (TypeError otherwise).  JSON: `{columns, rows, **meta}`.  A column after
    the first may be None: empty CSV fields, JSON nulls.
    """
    def footer():
        return (meta() if callable(meta) else meta) or {}

    if fmt == "json":
        rows = [row for block in blocks for row in zip(*(
            [None] * len(block[0]) if a is None else np.asarray(a).tolist() for a in block))]
        _write_json(path, {"columns": columns, "rows": rows, **footer()})
        return
    # imported here: measure and project write no table
    from . import _csvrows

    with _artifact(path) as fh:
        fh.write(HEADER + "\n")
        fh.write(",".join(columns) + "\r\n")
        # the rows are ASCII bytes: they go to the handle's binary buffer
        # (sys.stdout.buffer for stdout), after the text written so far
        fh.flush()
        for block in blocks:
            arrays = [None if a is None else np.asarray(a) for a in block]
            _csvrows.check_columns(columns, arrays)
            for lo in range(0, len(arrays[0]), _CHUNK_ROWS):
                fh.buffer.write(_csvrows.format_rows(
                    [None if a is None else a[lo:lo + _CHUNK_ROWS] for a in arrays]))
        for key, value in footer().items():
            fh.write(f"# {key} = {value!r}\n")


# ---------------------------------------------------------------------------
# subcommands: (validated config, output path, table format) -> exit status
# ---------------------------------------------------------------------------

def _check_spin_dimensions(raw):
    """Refuse, before any state or m grid exists, an N over the cap."""
    for n in [case["N"] for case in raw.get("cases", [])] + [raw.get("N", 0)]:
        if n + 1 > MAX_ENTRIES:
            raise ResourceCapError(f"N = {n} gives a spin dimension of {n + 1}, over "
                                   f"the cap of {MAX_ENTRIES}")


def cmd_amp_scan(cfg: ExperimentConfig, out, fmt) -> int:
    if out is None or out == "-":
        raise ConfigError("amp-scan writes one file per case; --out DIR is required")
    # every case is computed before any file is written, so a config with a
    # failing case leaves no output behind
    tables = []
    for case in cfg.raw["cases"]:
        n = case["N"]
        params = build_params(case["params"], n)
        outcome = PhotonOutcome(case["outcome"]["n_c"], case["outcome"]["n_d"])
        m_z = (np.arange(-n, n + 1, 2) / 2.0).tolist()
        log_a = eigen(params, outcome, m_z)[1]
        log_peak = float(log_a.max())
        meta = {"log_A_peak": log_peak}
        try:
            model = gaussian_model(params, outcome)
            meta["log_prefactor"] = model.log_prefactor
        except DomainError:
            model = None
        gauss = None if model is None else [gaussian_amplitude(model, m) for m in m_z]
        # math.exp, as `amplitude` uses, so the column equals its values; at
        # large counts it underflows to 0, and the footer keeps the scale
        exact = [math.exp(x) for x in log_a.tolist()]
        tables.append((case["label"], [[m_z, exact, np.exp(log_a - log_peak), gauss]], meta))
    with _writing(out):
        os.makedirs(out, exist_ok=True)
    for label, blocks, meta in tables:
        write_table(os.path.join(out, f"{label}.{fmt}"),
                    ["m_z", "A_exact", "A_exact_normalized", "A_gauss"], blocks, meta,
                    fmt=fmt)
    return 0


def cmd_photon_dist(cfg: ExperimentConfig, out, fmt) -> int:
    # the caps act here, before anything is written; the rows are then
    # enumerated, checked and written one block of totals at a time, with
    # the counts built per writer chunk
    table = _OutcomeTable(cfg.params(), cfg.initial_state(),
                          cfg.raw.get("mass_tolerance", 1e-6),
                          max_total=cfg.raw.get("max_total"))
    blocks = ((*table.counts(start, p.size), p) for start, p in table.pieces(_CHUNK_ROWS))
    write_table(out, ["n_c", "n_d", "p"], blocks,
                lambda: {"captured_mass": table.captured_mass,
                         "cutoff_total": table.cutoff_total}, fmt)
    return 0


# shots conditioned per `condition_many` call; bounds its B x dim scratch
_SHOT_BLOCK = 128
# one measure record, as json.dumps(record, sort_keys=True) writes it: ints,
# finite floats by repr, and the nullable fields given as JSON text
_RECORD = ('{{"log_prob": {!r}, "mean_jz": {!r}, "n_c": {}, "n_d": {}, "posterior_ref": {}, '
           '"r": {}, "seed": {}, "squeezing_ratio": {}, "var_jz": {!r}}}\n')


def cmd_measure(cfg: ExperimentConfig, out, fmt) -> int:
    params = cfg.params()
    state = cfg.initial_state()
    seed = int(cfg.raw.get("seed", 0)) % (1 << 64)
    dump = cfg.raw.get("dump_posteriors", False)
    if dump and (out is None or out == "-"):
        raise ConfigError("dump_posteriors needs --out FILE to anchor the dump dir")
    if dump and cfg.raw["shots"] * (cfg.n_atoms + 1) > MAX_ENTRIES:
        raise ResourceCapError(
            f"dumping {cfg.raw['shots']} posteriors of dimension {cfg.n_atoms + 1} "
            f"writes over the cap of {MAX_ENTRIES} amplitudes")
    dump_dir = f"{out}.posteriors"
    dist = outcome_distribution(params, state, cfg.raw.get("mass_tolerance", 1e-9),
                                max_total=cfg.raw.get("max_total"))
    prior_var = moments(state).var_jz
    shots = cfg.raw["shots"]
    staged = _staged_dir(dump_dir) if dump else contextlib.nullcontext()
    with _artifact(out) as fh, staged as stage:
        for lo in range(0, shots, _SHOT_BLOCK):
            # shot seeds are seed + shot mod 2^64, as uint64 arithmetic wraps
            seeds = np.arange(lo, min(lo + _SHOT_BLOCK, shots), dtype=np.uint64) + np.uint64(seed)
            n_c, n_d = sample_outcomes(dist, seeds)
            log_p, mean_jz, var_jz = condition_many(params, n_c, n_d, state)
            dead = np.flatnonzero(log_p == -math.inf)
            if dead.size:
                i = int(dead[0])
                raise QndError(f"sampled outcome ({n_c[i]}, {n_d[i]}) has zero "
                               f"probability (shot {lo + i}, seed {seeds[i]})")
            n_c, n_d = n_c.tolist(), n_d.tolist()
            refs = ["null"] * len(n_c)
            if dump:
                for i, (c, d) in enumerate(zip(n_c, n_d)):
                    # only the dump needs the posterior's per-m_z phases
                    post = condition(params, PhotonOutcome(c, d), state)[1]
                    name = f"shot_{lo + i:06d}.json"
                    with open(os.path.join(stage, name), "w", encoding="utf-8") as pf:
                        json.dump(state_to_json(post), pf, sort_keys=True)
                    refs[i] = json.dumps(os.path.join(dump_dir, name))
            r = [repr((d - c) / (c + d)) if c + d else "null" for c, d in zip(n_c, n_d)]
            ratio = (list(map(repr, (var_jz / prior_var).tolist())) if prior_var > 0
                     else ["null"] * len(n_c))
            fh.write("".join(map(_RECORD.format, log_p.tolist(), mean_jz.tolist(), n_c, n_d,
                                 refs, r, seeds.tolist(), ratio, var_jz.tolist())))
    return 0


def cmd_wigner(cfg: ExperimentConfig, out, fmt) -> int:
    params = cfg.params()
    state = cfg.initial_state()
    if cfg.raw.get("state", "prior") == "posterior":
        oc = cfg.raw["outcome"]
        state = posterior(params, PhotonOutcome(oc["n_c"], oc["n_d"]), state)
    rho = density_from_state(state)
    wg = wigner(rho, **cfg.raw.get("grid", {}))
    # row-major over the grid: theta outer, phi inner
    write_table(out, ["theta", "phi", "w"],
                [[np.repeat(wg.thetas, wg.phis.size), np.tile(wg.phis, wg.thetas.size),
                  wg.values.ravel()]], fmt=fmt)
    return 0


def cmd_project(cfg: ExperimentConfig, out, fmt) -> int:
    params = cfg.params()
    state = cfg.initial_state()
    oc = cfg.raw["outcome"]
    outcome = PhotonOutcome(oc["n_c"], oc["n_d"])
    pp = projective_params(params, outcome)
    amp, collapsed = project(params, state, pp.u, pp.m0)
    _write_json(out, {
        "u": pp.u, "v": pp.v, "m0": pp.m0,
        "xi_c": pp.xi_c, "xi_d": pp.xi_d,
        "xi_plus": pp.xi_plus, "xi_minus": pp.xi_minus,
        "amplitude": amp,
        "state": state_to_json(collapsed),
    })
    return 0


def cmd_validate(cfg: ExperimentConfig, out, fmt) -> int:
    from .validate import run_all

    # the schema admits only `seed`, which run_all defaults when it is absent
    results = run_all(**cfg.raw)
    ok = True
    with _artifact(out) as fh:
        for name, passed, detail, _ in results:
            ok &= passed
            fh.write(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}\n")
    return 0 if ok else 1


# subcommand -> (function, the flags it reads beyond --config and --out)
_COMMANDS = {
    "amp-scan": (cmd_amp_scan, ("--format",)),
    "photon-dist": (cmd_photon_dist, ("--mass-tol", "--format")),
    "measure": (cmd_measure, ("--seed", "--mass-tol")),
    "wigner": (cmd_wigner, ("--format",)),
    "project": (cmd_project, ()),
    "validate": (cmd_validate, ("--seed",)),
}

# an override flag is left out of the parsed namespace unless it is given,
# and stores under the config key it replaces
_FLAGS = {
    "--seed": {"type": int, "default": argparse.SUPPRESS,
               "help": "override the config seed"},
    "--mass-tol": {"type": float, "dest": "mass_tolerance", "default": argparse.SUPPRESS,
                   "help": "override the distribution mass tolerance"},
    "--format": {"choices": ("csv", "json"), "default": "csv",
                 "help": "table format (default csv)"},
}


def run(command: str, raw: dict, out=None, fmt: str = "csv") -> int:
    """Run a subcommand on a config dict, which must pass its schema.

    `out` is as for --out (None or "-" is stdout) and `fmt` as for --format.
    Returns the exit status; failures raise a QndError instead.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown table format {fmt!r}")
    cfg = ExperimentConfig.from_dict(command, raw)
    _check_spin_dimensions(cfg.raw)
    return _COMMANDS[command][0](cfg, out, fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnd-povm",
        description="QND measurement simulator for collective atomic spins",
    )
    parser.add_argument("--version", action="version",
                        version=f"qnd-povm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to the JSON experiment config",
                       required=name != "validate")
        p.add_argument("--out", help="output path (directory for amp-scan); "
                       "stdout when omitted")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command, path, out = args.pop("command"), args.pop("config"), args.pop("out")
    fmt = args.pop("format", "csv")
    try:
        # what is left of the namespace are the config overrides
        raw = {**read_config(path), **args} if path is not None else args
        return run(command, raw, out, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        mass = "" if exc.captured_mass is None else f" (captured_mass={exc.captured_mass!r})"
        print(f"resource cap: {exc}{mass}", file=sys.stderr)
        return 3
    except (DomainError, PreconditionError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4
    except QndError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
