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
numeric domain error, 141 (128 + SIGPIPE) a reader that closed stdout.  All
outputs are deterministic given config + seed.  Library callers use `run`
with a config dict, or `main` with an argv list; neither freezes the heap,
which only the process entry `qnd_povm.__main__.console` does.
"""

from __future__ import annotations

# imported before the standard library: the order moves where the allocator
# places each module's objects, and this one peaks 0.4-0.6 MB lower in RSS
# on `measure` (child ru_maxrss at N=10 and N=200, no bytecode cache)
from .config import ExperimentConfig, build_params, read_config

import argparse
import contextlib
import json
import math
import os
import shutil
import sys

import numpy as np

from . import __version__
from .errors import (ConfigError, DomainError, PreconditionError, QndError, ResourceCapError,
                     reserve)
from .povm import PhotonOutcome, _Mixture, _OutcomeTable, eigen, posterior
from .spin_state import _spin_size, moments, state_to_json

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

    None or "-" streams to stdout.  A path that exists but is no regular
    file (/dev/null, a pipe) is written in place, since renaming over it
    would replace it.  Otherwise the text goes to a temp file beside `path`
    that replaces `path` only once the block completes, so a run that fails
    midway leaves neither a truncated artifact nor the temp.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with _writing(path), open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
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


def _json_text(payload):
    """`payload` as JSON text, stamped with the tool, version and schema."""
    stamped = {"tool": "qnd-povm", "version": __version__, "schema": "v1", **payload}
    return json.dumps(stamped, indent=2, sort_keys=True) + "\n"


def _write_json(path, payload):
    """Write `payload` as stamped JSON."""
    with _artifact(path) as fh:
        fh.write(_json_text(payload))


def _ascii_writer(fh):
    """A function that writes ASCII bytes to the text handle `fh`, after the
    text written so far: to its binary buffer (sys.stdout.buffer for
    stdout), or as text where it has none (io.StringIO, notebook streams)."""
    if not hasattr(fh, "buffer"):
        return lambda data: fh.write(data.decode("ascii"))
    fh.flush()
    return fh.buffer.write


# rows per formatted chunk: bounds memory, and keeps each of the formatter's
# uint64 scratch arrays at 64 KB, under glibc's 128 KB mmap threshold, so
# they reuse heap memory instead of faulting in fresh pages
_CHUNK_ROWS = 8192


def write_table(path, columns, blocks, meta=None, fmt="csv"):
    """Write a table, given as an iterable of column blocks, in CSV or stamped JSON.

    Each block is a list of equal-length columns, one per name, and the
    table is the blocks' rows in order; a block is read before the next is
    taken, so a generator may reuse its arrays.  Columns must be int, uint
    or float arrays, or bytes arrays of text written as it is (TypeError
    otherwise); a column after the first may be None, a null field.  Both
    formats stream: rows are formatted in numpy in fixed-size chunks, so
    memory is bounded by the chunk and the block.  `meta` is a dict.
    CSV: the versioned header, the column line and one row per line (ints
    as `str` and floats as `repr` write them, nulls empty, CRLF endings),
    then a `# key = value` footer line per `meta` item (LF endings).
    JSON: `{columns, rows, **meta}`, stamped, as `json.dump` writes it with
    indent=2 and sort_keys=True; a non-finite float, which JSON cannot
    hold, raises DomainError before its block is written.
    """
    # imported here: project and validate write no rows
    from . import _csvrows

    meta = meta or {}
    last = len(columns) - 1
    # a format is its head, the text before each row, after each field and
    # of a null field, and its tail; the first row drops its first `drop`
    # bytes (JSON's leading comma)
    if fmt == "json":
        head, tail = _json_text({"columns": columns, "rows": [], **meta}).split('"rows": []')
        head += '"rows": ['
        before, after, null = ",\n    [\n      ", [",\n      "] * last + ["\n    ]"], "null"
        # "[]" with no rows; after rows the list closes on a line of its own
        end, rows_end, drop = "]" + tail, "\n  ]" + tail, 1
    else:
        head = f"{HEADER}\n{','.join(columns)}\r\n"
        before, after, null = "", [","] * last + ["\r\n"], ""
        end = rows_end = "".join(f"# {key} = {value!r}\n" for key, value in meta.items())
        drop = 0
    with _artifact(path) as fh:
        fh.write(head)
        write_rows = _ascii_writer(fh)
        for block in blocks:
            arrays = [None if a is None else np.asarray(a) for a in block]
            _csvrows.check_columns(columns, arrays)
            if fmt == "json":
                for name, a in zip(columns, arrays):
                    if a is not None and a.dtype.kind == "f" and not np.isfinite(a).all():
                        raise DomainError(f"column {name!r} holds a non-finite value, "
                                          "which JSON cannot represent")
            for lo in range(0, len(arrays[0]), _CHUNK_ROWS):
                # bytes[0:] is the bytes object itself, so CSV rows are not copied
                write_rows(_csvrows.format_rows(
                    [None if a is None else a[lo:lo + _CHUNK_ROWS] for a in arrays],
                    after, before, null)[drop:])
                drop, end = 0, rows_end
        fh.write(end)


# ---------------------------------------------------------------------------
# subcommands: (validated config, output path, table format) -> exit status
# ---------------------------------------------------------------------------

def _check_spin_dimensions(raw):
    """Refuse, before any state or m grid exists, an N over the cap."""
    for n in [case["N"] for case in raw.get("cases", [])] + [raw.get("N", 0)]:
        _spin_size(n)


def cmd_amp_scan(cfg: ExperimentConfig, out, fmt) -> int:
    from .approx import gaussian_amplitude, gaussian_model

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
                {"captured_mass": table.captured_mass, "cutoff_total": table.cutoff_total},
                fmt)
    return 0


# records per `format_rows` call and shots per draw; a block's float text is
# formed 5 * _SHOT_BLOCK values a pass, the five float fields of a call
_SHOT_BLOCK = 256
# a measure record, as json.dumps(record, sort_keys=True) writes it: the keys
# in order, each value followed by the text up to the next one
_RECORD_KEYS = ("log_prob", "mean_jz", "n_c", "n_d", "posterior_ref", "r", "seed",
                "squeezing_ratio", "var_jz")
_RECORD_BEFORE = f'{{"{_RECORD_KEYS[0]}": '
_RECORD_AFTER = [f', "{key}": ' for key in _RECORD_KEYS[1:]] + ["}\n"]


def _shot_seeds(seed, lo, hi):
    """The seeds of shots lo .. hi - 1: seed + shot mod 2^64, as uint64
    arithmetic wraps."""
    seeds = np.arange(lo, hi, dtype=np.uint64)
    seeds += np.uint64(seed)
    return seeds


def _distinct(n_c, n_d):
    """(n_c, n_d, at): the distinct outcomes of a block of shots, ascending,
    and the index among them of each shot's outcome."""
    order = np.lexsort((n_d, n_c))
    n_c, n_d = n_c[order], n_d[order]
    # where a run of equal outcomes starts in the sorted shots
    new = np.ones(order.size, bool)
    new[1:] = (n_c[1:] != n_c[:-1]) | (n_d[1:] != n_d[:-1])
    at = np.empty_like(order)
    at[order] = np.cumsum(new) - 1
    return n_c[new], n_d[new], at


def cmd_measure(cfg: ExperimentConfig, out, fmt) -> int:
    from . import _csvrows

    params = cfg.params()
    state = cfg.initial_state()
    seed = int(cfg.raw.get("seed", 0)) % (1 << 64)
    dump = cfg.raw.get("dump_posteriors", False)
    # stdout, /dev/null or a pipe has no directory beside it to hold the dump
    if dump and (out is None or out == "-" or (os.path.exists(out) and not os.path.isfile(out))):
        raise ConfigError("dump_posteriors needs --out FILE to anchor the dump dir")
    if dump:
        reserve(cfg.raw["shots"] * (cfg.n_atoms + 1), "dumping {} posteriors of dimension {} "
                "writes over the cap of {cap} amplitudes", cfg.raw["shots"], cfg.n_atoms + 1)
    dump_dir = f"{out}.posteriors"
    mixture = _Mixture(params, state)
    draw = mixture.sampler()
    prior_var = moments(state).var_jz
    shots = cfg.raw["shots"]
    staged = _staged_dir(dump_dir) if dump else contextlib.nullcontext()
    with _artifact(out) as fh, staged as stage:
        write_rows = _ascii_writer(fh)
        # a record's float fields are functions of its outcome alone: a block
        # of shots conditions each distinct outcome once and forms its text
        # once, and the block's records gather them
        for lo in range(0, shots, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, shots)
            n_c, n_d = np.empty(hi - lo, np.int64), np.empty(hi - lo, np.int64)
            for w in range(lo, hi, _SHOT_BLOCK):
                # a write's shots at a time, as the draw's scratch grows with them
                part = slice(w - lo, w - lo + _SHOT_BLOCK)
                n_c[part], n_d[part] = draw(_shot_seeds(seed, w, min(w + _SHOT_BLOCK, hi)))
            if hi == shots:
                # the sampler's tables, the run's largest arrays, go once the
                # last shot is drawn
                del draw
            n_c, n_d, at = _distinct(n_c, n_d)
            log_p, mean_jz, var_jz = mixture.condition_many(n_c, n_d)
            dead = log_p == -math.inf
            if dead.any():
                # the first shot, in shot order, that drew a dead outcome
                j = int(dead[at].argmax())
                raise QndError(f"sampled outcome ({n_c[at[j]]}, {n_d[at[j]]}) has zero "
                               f"probability (shot {lo + j}, seed {(seed + lo + j) % (1 << 64)})")
            if dump:
                # each distinct outcome's posterior text is formed once and
                # written to the files of every shot that drew it, one text
                # at a time; the shots, grouped by outcome, in shot order
                shots_of = np.argsort(at, kind="stable") + lo
                bounds = [0, *np.cumsum(np.bincount(at, minlength=n_c.size)).tolist()]
                for k, (c, d) in enumerate(zip(n_c.tolist(), n_d.tolist())):
                    # only the dump needs the posterior's per-m_z phases
                    text = json.dumps(state_to_json(mixture.condition(PhotonOutcome(c, d))[1]),
                                      sort_keys=True)
                    for shot in shots_of[bounds[k]:bounds[k + 1]].tolist():
                        with open(os.path.join(stage, f"shot_{shot:06d}.json"), "w",
                                  encoding="utf-8") as pf:
                            pf.write(text)
                    del text
            total = n_c + n_d
            none = total == 0
            with np.errstate(invalid="ignore"):
                r = (n_d - n_c) / total
            fields = [log_p, mean_jz, r, var_jz, var_jz / prior_var if prior_var > 0 else None]
            del log_p, mean_jz, r, var_jz
            # a field's floats are freed once its text is formed
            for k, a in enumerate(fields):
                if a is not None:
                    fields[k] = _csvrows.float_field(a, 5 * _SHOT_BLOCK)
            del a
            for w in range(lo, hi, _SHOT_BLOCK):
                rec = at[w - lo:w - lo + _SHOT_BLOCK]
                c, d = n_c[rec], n_d[rec]
                log_p, mean_jz, r, var_jz, ratio = (None if f is None else f[rec] for f in fields)
                refs = np.array([
                    json.dumps(os.path.join(dump_dir, f"shot_{shot:06d}.json")).encode()
                    for shot in range(w, w + rec.size)]) if dump else None
                write_rows(_csvrows.format_rows(
                    [log_p, mean_jz, c, d, refs, (r, none[rec]),
                     _shot_seeds(seed, w, w + rec.size), ratio, var_jz],
                    _RECORD_AFTER, _RECORD_BEFORE, "null"))
            # the block's text goes before the next block is drawn
            del fields, at
    return 0


def cmd_wigner(cfg: ExperimentConfig, out, fmt) -> int:
    from . import _csvrows
    from .analysis import density_from_state, wigner

    params = cfg.params()
    state = cfg.initial_state()
    if cfg.raw.get("state", "prior") == "posterior":
        oc = cfg.raw["outcome"]
        state = posterior(params, PhotonOutcome(oc["n_c"], oc["n_d"]), state)
    rho = density_from_state(state)
    wg = wigner(rho, **cfg.raw.get("grid", {}))
    # every coordinate repeats on a row or column of the grid: its text is
    # formed once and repeated
    thetas, phis = (_csvrows.float_field(a) for a in (wg.thetas, wg.phis))
    # row-major over the grid, theta outer and phi inner, a few theta at a
    # time
    step = max(1, _CHUNK_ROWS // phis.size)
    write_table(out, ["theta", "phi", "w"],
                ([np.repeat(thetas[i:i + step], phis.size),
                  np.tile(phis, thetas[i:i + step].size), wg.values[i:i + step].ravel()]
                 for i in range(0, thetas.size, step)), fmt=fmt)
    return 0


def cmd_project(cfg: ExperimentConfig, out, fmt) -> int:
    from .approx import project, projective_params

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
    "measure": (cmd_measure, ("--seed",)),
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


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _joined(argv):
    """`argv` with a negative number after a numeric flag (or an abbreviation
    of one) joined to it, as in `--mass-tol=-1e-3`, so that the value meets
    the schema: argparse's negative-number test has no exponent and reads
    `-1e-3` as a flag."""
    numeric = [flag for flag, spec in _FLAGS.items() if "type" in spec]
    joined = []
    for arg in argv:
        if (joined and len(joined[-1]) > 2 and any(f.startswith(joined[-1]) for f in numeric)
                and arg.startswith("-") and _is_number(arg)):
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


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
    args = vars(build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv)))
    command, path, out = args.pop("command"), args.pop("config"), args.pop("out")
    fmt = args.pop("format", "csv")
    try:
        try:
            # what is left of the namespace are the config overrides
            raw = {**read_config(path), **args} if path is not None else args
            return run(command, raw, out, fmt)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except ResourceCapError as exc:
            mass = ("" if exc.captured_mass is None
                    else f" (captured_mass={exc.captured_mass!r})")
            print(f"resource cap: {exc}{mass}", file=sys.stderr)
            return 3
        except (DomainError, PreconditionError) as exc:
            print(f"domain error: {exc}", file=sys.stderr)
            return 4
        except QndError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        finally:
            # text still buffered meets a closed stdout here, not at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit quietly with the status of a
        # process that SIGPIPE ended, with stdout on the null device so
        # that the interpreter's last flush of the unsent text cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141

