"""The command line's contracts at the edges of its claims, as one table.

The operator holds for any interaction time, light amplitude and photon
outcome; these rows hold the `qnd_povm` command line to that where it could
break: N = 200 Wigner maps, photon windows of millions of rows, and an
interpreter that has numpy and nothing else.  Each `Row` is one run of
`python -m qnd_povm COMMAND [--config C] --out O FLAGS`, or of `python -c
CODE`, under the interpreter that runs this module, and says what the run
must do:

* exit with `status`, with a stderr that starts with `err` (and is empty
  on exit 0) and holds no Traceback;
* on exit 0 leave an output that holds no inf or nan, and otherwise none;
* with `count`, have that many lines that end in a byte string (table
  rows, records);
* with `cmp`, write the same bytes to stdout (`--out -`) as to the file;
* with `rss`, peak (the child's ru_maxrss) at most some MB above a
  baseline row's peak, or under some MB;
* with `warnings`, run under PYTHONWARNINGS=error::RuntimeWarning, so that
  an overflow or an invalid value fails it.

A config runs once to its file, under the RSS bound, and once more to
stdout where the row compares the two.  The module imports only the
standard library, so it runs wherever the package is installed:

    python tests/cli_contracts.py

prints one line per row, names each failure, and exits 1 on any.
`tests/test_cli.py` runs every row as a test, through one `Runs`.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@dataclasses.dataclass(frozen=True)
class Row:
    name: str
    command: str = ""  # a qnd_povm subcommand; "" runs `code`
    config: dict | None = None
    flags: tuple = ()  # after --out
    status: int = 0
    err: str = ""
    code: str = ""
    count: tuple | None = None  # (a line's end, how many lines end so)
    cmp: bool = False
    rss: tuple | None = None  # (baseline row, MB above its peak) or (None, MB)
    warnings: bool = False


def _coherent(light, N, gt="pi/N", theta="pi/2", **keys):
    return {"params": {"gamma": [light, 0], "chi": [light, 0], "gt": gt}, "N": N,
            "initial": {"type": "coherent", "theta": theta}, **keys}


# the rows of a mean of 3200 photons at N = 100 and tolerance 1e-9: the CSV
# and the JSON table hold one row per outcome
ROWS_3200 = 2531991

ROWS = (
    # with numpy alone, every public name resolves, the README example runs
    # and validate passes
    Row("public-names", code="import qnd_povm\n"
                             "[getattr(qnd_povm, name) for name in qnd_povm.__all__]\n"),
    Row("readme-example", code=f"import re\n"
                               f"text = open({str(README)!r}, encoding='utf-8').read()\n"
                               "text = text.split('\\n## Library example\\n', 1)[1]\n"
                               "exec(re.search(r'```python\\n(.*?)```', text, re.S).group(1))\n"),
    Row("validate", "validate"),
    Row("photon-dist", "photon-dist", _coherent(3, 10)),
    Row("measure", "measure", _coherent(3, 10, shots=200, seed=3), count=(b"\n", 200)),
    # with a posterior dump, one file per shot beside the records, each
    # distinct outcome's text formed once: at most 2 MB above the records alone
    Row("m-dump", "measure", _coherent(3, 10, shots=200, seed=3, dump_posteriors=True),
        count=(b"\n", 200), rss=("measure", 2)),
    # each failing exit names its kind on stderr and leaves no file
    Row("usage-error", "photon-dist", _coherent(3, 10), flags=("--mass-tol", "nan"),
        status=2, err="config error: config rejected: config.mass_tolerance is not a "
                      "finite number\n"),
    Row("config-error", "measure", _coherent(3, 10, shots=5, max_total=200), status=2,
        err="config error: config rejected: config.max_total is not allowed\n"),
    Row("resource-cap", "photon-dist", _coherent(1e4, 10), status=3, err="resource cap: "),
    Row("domain-error", "wigner", _coherent(1e-200, 4, gt=1.0, theta=1.0, state="posterior",
                                            outcome={"n_c": 3, "n_d": 2}),
        status=4, err="domain error: |gamma|^2 + |chi|^2 underflows a double\n"),
    # at a mean of 18 photons the whole Pois(s) range sums to 1 - 3.8e-15 in
    # doubles: a tolerance of 1e-15 is out of reach, not over a cap
    Row("unreachable-tol", "photon-dist", _coherent(3, 10, mass_tolerance=1e-15), status=4,
        err="domain error: "),
    # the Wigner map of an N = 200 posterior cat, the largest size the
    # Parseval claim covers: the twisted Clebsch-Gordan solve and the all-M
    # Legendre sum raise no warning and leave no nan
    Row("cat200", "wigner", _coherent(5, 200, gt="pi/2", state="posterior",
                                      outcome={"n_c": 26, "n_d": 26}), warnings=True),
    # an N = 200 Dicke state, whose diagonal density matrix reaches the M = 0
    # Clebsch-Gordan block alone
    Row("dicke200", "wigner", {"params": {"gamma": [5, 0], "chi": [5, 0], "gt": "pi/2"},
                               "N": 200, "initial": {"type": "dicke", "m": 0}},
        warnings=True),
    # a posterior of a prior whose amplitude at m_z = -100 is subnormal
    # (3.8e-321) and whose scale factor there, e^736, overflows alone: each
    # amplitude is scaled in one exponent, so none becomes inf
    Row("sub", "wigner", {"params": {"gamma": [30, 0],
                                     "chi": [22.945265618534656, 19.32653061713073],
                                     "gt": "pi/N"},
                          "N": 200, "initial": {"type": "coherent", "theta": 0.05},
                          "state": "posterior", "outcome": {"n_c": 1800, "n_d": 0}},
        warnings=True),
    # photon-dist streams its table one block of totals at a time: a mean of
    # 3200 photons (2.5M rows) gives the same bytes to a file and to stdout,
    # as CSV and as JSON, and peaks at most 30 MB above a mean of 50 photons
    Row("pd50", "photon-dist", _coherent(5, 100, mass_tolerance=1e-9)),
    Row("pd3200", "photon-dist", _coherent(40, 100, mass_tolerance=1e-9),
        count=(b"\r\n", ROWS_3200 + 1), cmp=True, rss=("pd50", 30)),
    Row("pd3200-json", "photon-dist", _coherent(40, 100, mass_tolerance=1e-9),
        flags=("--format", "json"), count=(b"    [\n", ROWS_3200), cmp=True,
        rss=("pd50", 30)),
    # at N = 200 and a mean of 5000 photons (4.95M rows) the engine holds each
    # per-port Poisson table once and no padded copy of either (which would
    # reach 32 MB above the baseline)
    Row("pd5000", "photon-dist", _coherent(50, 200, mass_tolerance=1e-9), cmp=True,
        rss=("pd50", 30)),
    # measure writes its records one block at a time: 5000 shots (seed +
    # shot passing 2^64 - 1) peak at most 2 MB above 200 shots
    Row("m5000", "measure", _coherent(3, 10, shots=5000, seed=(1 << 64) - 2000),
        count=(b"\n", 5000), cmp=True, rss=("measure", 2)),
    # measure draws each shot from the Poisson mixture with no photon window:
    # at a mean of 20000 photons and N = 200 it peaks under 100 MB
    Row("m20000", "measure", _coherent(100, 200, shots=200, seed=3), count=(b"\n", 200),
        rss=(None, 100)),
    # and reads ln n! over the counts its windows span alone: a Dicke state
    # under a mean of 1e8 photons, counts past 2^24, peaks under 60 MB
    Row("m1e8", "measure", {"params": {"gamma": [5e7 ** 0.5, 0], "chi": [5e7 ** 0.5, 0],
                                       "gt": "pi/N"},
                            "N": 10, "initial": {"type": "dicke", "m": 0}, "shots": 200,
                            "seed": 3},
        count=(b"\n", 200), rss=(None, 60)),
)
ROW = {row.name: row for row in ROWS}


def _argv(row: Row, directory: pathlib.Path, out: str) -> list[str]:
    if row.code:
        return [sys.executable, "-c", row.code]
    config = [] if row.config is None else ["--config", str(directory / "config.json")]
    return [sys.executable, "-m", "qnd_povm", row.command, *config, "--out", out,
            *row.flags]


# Linux carries a process's peak RSS across exec into the child it spawns,
# so a child of this process (or of pytest) would read at least this
# process's peak.  Each run is spawned instead from a fresh interpreter that
# imports little, as perfbench/launch.py does, and that writes the run's
# status and peak (KB) to the file named first.
_SPAWN = ("import resource, subprocess, sys\n"
          "status = subprocess.run(sys.argv[2:]).returncode\n"
          "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
          "open(sys.argv[1], 'w').write(f'{status} {peak}')\n")


def _spawn(row: Row, directory: pathlib.Path, out: str) -> subprocess.Popen:
    """Start one run of the row with --out `out`; its stdout, stderr and
    report go to files named after `out`'s tag ("file" or "stdout")."""
    tag = "stdout" if out == "-" else "file"
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning") if row.warnings else None
    with open(directory / f"{tag}.out", "wb") as out_fh, \
            open(directory / f"{tag}.err", "wb") as err_fh:
        return subprocess.Popen([sys.executable, "-S", "-c", _SPAWN, str(directory / f"{tag}.rss"),
                                 *_argv(row, directory, out)],
                                stdout=out_fh, stderr=err_fh, env=env)


def _result(proc: subprocess.Popen, directory: pathlib.Path, tag: str):
    """(status, stderr, peak RSS in MB) of a run `_spawn` started."""
    if proc.wait():
        raise RuntimeError(f"the launcher failed: {(directory / f'{tag}.err').read_text()}")
    status, peak = map(int, (directory / f"{tag}.rss").read_text().split())
    return (status, (directory / f"{tag}.err").read_text(encoding="utf-8", errors="replace"),
            peak / 1024)


def _pieces(path: pathlib.Path):
    """The file's bytes in pieces of whole lines, so that no word and no
    needle ending in its one newline is split between two pieces."""
    rest = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            data = rest + chunk
            cut = data.rfind(b"\n") + 1
            yield data[:cut]
            rest = data[cut:]
    yield rest


# as repr, json and %G write them
_NON_FINITE = re.compile(rb"(?<![a-z])(?:nan|inf(?:inity)?)(?![a-z])", re.I)


def _non_finite(path: pathlib.Path) -> str | None:
    """The first inf or nan written in a file (as a word: not "infidelity")."""
    for data in _pieces(path):
        if any(word in data for word in (b"nan", b"NaN", b"NAN", b"inf", b"Inf", b"INF")):
            match = _NON_FINITE.search(data)
            if match:
                return match.group().decode()
    return None


def _check(row: Row, directory: pathlib.Path):
    """The row's failures apart from its RSS bound, its peak RSS, and what
    its run to the file wrote (see `Runs.written`)."""
    if row.config is not None:
        (directory / "config.json").write_text(json.dumps(row.config), encoding="utf-8")
    out = directory / "out"
    # the run to stdout, where the row compares it, goes beside the run to
    # the file: each child's peak is its own
    to_file = _spawn(row, directory, str(out))
    to_stdout = _spawn(row, directory, "-") if row.cmp else None
    status, err, peak = _result(to_file, directory, "file")
    found = []
    if status != row.status:
        found.append(f"exit {status}, not {row.status}")
    if "Traceback" in err or not err.startswith(row.err) or (row.status == 0 and err):
        found.append(f"stderr {err[-600:]!r}, not {row.err or 'empty'!r}")
    if row.code:
        return found, peak, None
    seen = None
    if not out.exists() or out.stat().st_size < 1 << 20:
        seen = (status, (directory / "file.out").read_bytes(),
                (directory / "file.err").read_bytes(),
                {".": out.read_bytes()} if out.exists() else {})
    if out.exists() != (row.status == 0):
        found.append("an output was left" if out.exists() else "no output written")
    if out.exists():
        token = _non_finite(out)
        if token:
            found.append(f"the output holds {token}")
        if row.count:
            needle, want = row.count
            got = sum(data.count(needle) for data in _pieces(out))
            if got != want:
                found.append(f"{got} lines end in {needle!r}, not {want}")
    if row.cmp:
        status, err, _ = _result(to_stdout, directory, "stdout")
        if status != row.status or err:
            found.append(f"to stdout: exit {status}, stderr {err[-600:]!r}")
        elif not filecmp.cmp(out, directory / "stdout.out", shallow=False):
            found.append("stdout differs from the file")
    return found, peak, seen


class Runs:
    """The rows' runs in one process.  Each row runs once: a baseline row's
    peak and a small row's output are read again from here."""

    def __init__(self):
        self._done = {}

    def _checked(self, row: Row):
        if row.name not in self._done:
            directory = pathlib.Path(tempfile.mkdtemp(prefix=f"cli-contract-{row.name}-"))
            try:
                self._done[row.name] = _check(row, directory)
            finally:
                shutil.rmtree(directory)
        return self._done[row.name]

    def failures(self, row: Row) -> list[str]:
        """What the row's runs break, one line each; none when it holds."""
        found, peak, _ = self._checked(row)
        found = list(found)
        if row.rss:
            base, bound = row.rss
            if base is None and not peak < bound:
                found.append(f"peak RSS {peak:.1f} MB, not under {bound} MB")
            if base is not None:
                floor = self.peak(ROW[base])
                if peak - floor > bound:
                    found.append(f"peak RSS {peak:.1f} MB, over {bound} MB above {base}'s "
                                 f"{floor:.1f} MB")
        return found

    def peak(self, row: Row) -> float:
        """The peak RSS of the row's run to its file, in MB."""
        return self._checked(row)[1]

    def written(self, row: Row):
        """(status, stdout, stderr, {".": the output's bytes} or {}) of the
        row's run to its file, where that output is under 1 MB (else None):
        the test that holds `python -m qnd_povm` to the same command run in
        process reads it instead of running the row again."""
        return self._checked(row)[2]


def main() -> int:
    runs, failed = Runs(), 0
    for row in ROWS:
        start = time.perf_counter()
        found = runs.failures(row)
        failed += bool(found)
        peak = f", peak RSS {runs.peak(row):.1f} MB" if row.rss else ""
        print(f"{'FAIL' if found else 'PASS'}  {row.name}  "
              f"{time.perf_counter() - start:.1f} s{peak}", flush=True)
        for line in found:
            print(f"      {row.name}: {line}", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows hold", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
