"""Benchmark entry point for the qnd-povm CLI.

    python3 perfbench/run.py --workload {shots,bright,sphere} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is used from ./src, with no build
step.  With --trace 0 each workload's CLI invocations run as child processes,
one at a time, for S seconds and at least three units; a unit is one pass
over the workload's invocations.  Times, rates and peak RSS are medians over
the units; set-up is the median over separate probe processes spread over the
run.  Times are scaled to a reference host speed by calibrations taken
between calls on the same pinned core (host.py).  With --trace 1 the same
invocations run once in this process untraced and once under the layer
tracer (spans.py); the per-layer metrics come from the span side file.  Every output is checked (checks.py).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# The program runs single-threaded (QND_THREADS unset); BLAS is held to one
# thread as well, so that a run occupies one of the host's shared cores.  Set
# before numpy is imported, for the traced pass that runs in this process.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
LAUNCH = os.path.join(HERE, "launch.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import host  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("items_per_s", "1/s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

_TIMED = ("time_s", "self_s", "calls")
_TRACED_FUNCTIONS = (
    ("config.load", ("time_s", "calls")),
    ("povm.outcome_distribution", _TIMED),
    ("povm.sample_outcome", _TIMED),
    ("povm.outcome_probability", _TIMED),
    ("povm.posterior", _TIMED),
    ("povm._log_bases", ("time_s", "calls")),
    ("spin_state.moments", _TIMED),
    ("analysis.wigner", _TIMED),
    ("analysis.rho_lm", _TIMED),
    ("numerics.clebsch_gordan_row", _TIMED),
    ("numerics.legendre_norm_table", _TIMED),
    ("povm.amplitude", _TIMED),
    ("approx.gaussian_model", _TIMED),
    ("approx.projective_params", _TIMED),
    ("approx.project", _TIMED),
    ("validate.run_all", ("time_s", "calls")),
    ("cli.main", _TIMED),
)
_UNITS = {"time_s": "s", "self_s": "s", "calls": "count"}
PER_LAYER = (
    tuple((f"{fn}.{kind}", _UNITS[kind]) for fn, kinds in _TRACED_FUNCTIONS for kind in kinds)
    + (("povm.outcome_distribution.entries", "count"),
       ("povm.outcome_distribution.useful_entries", "count"),
       ("povm.outcome_distribution.useful_share", "ratio"),
       ("povm.outcome_distribution.cells", "count"),
       ("povm.outcome_distribution.rss_growth_mb", "MB"))
    + tuple((f"{layer}.self_s", "s") for layer in spans.LAYERS)
    + (("cli.bytes_out", "bytes"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.spans", "count"))
)

SETUP_PROBES = 11
MIN_UNITS = 3
DEADLINE_S = 170.0   # the whole run must end within 180 s
_PROBE = ("import sys, qnd_povm\n"
          "from qnd_povm.config import ExperimentConfig\n"
          "for i in range(1, len(sys.argv), 2):\n"
          "    ExperimentConfig.load(sys.argv[i], sys.argv[i + 1])\n")


class Run:
    """Counts and deadline of one benchmark run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def fail(self, what: str, why: str):
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("QND_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(run: Run, argv: list[str], err_path: str):
    """Run `python <argv>` to exit: (wall s, user+sys s, max RSS MB, exit code)."""
    timeout = max(1.0, run.deadline - time.monotonic())
    out = subprocess.run([sys.executable, "-S", LAUNCH, str(timeout), err_path,
                          sys.executable, *argv],
                         cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=timeout + 10.0, check=True)
    got = json.loads(out.stdout)
    return got["wall_s"], got["cpu_s"], got["rss_mb"], got["code"]


def _stderr_tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-400:].strip()


def check_step(run: Run, wl, step) -> int:
    """Items in the step's output, or 0 after counting a failed check."""
    try:
        return checks.CHECKS[step.command](wl.configs[step.config], step.out, run.seed)
    except (checks.CheckError, OSError, ValueError, KeyError) as exc:
        run.fail(step.command, f"output check: {exc}")
        return 0


def _clear(step):
    if os.path.isdir(step.out):
        shutil.rmtree(step.out)
    elif os.path.exists(step.out):
        os.remove(step.out)


def measure(run: Run, wl, seconds: float, run_dir: str) -> dict:
    """End-to-end metrics, each the median over the run's units or probes.

    Calibrations (host.py) bracket every call: a call, and the set-up probes
    just before it, are scaled by the geometric mean of the calibrations on
    either side.
    """
    err_path = os.path.join(run_dir, "stderr.txt")
    probe_args = ["-c", _PROBE]
    for step in wl.steps:
        probe_args += [step.command, step.config]
    setup = []   # (segment, wall); segment k lies between cals[k - 1] and cals[k]
    units = []   # (calls, peak RSS, items); calls are (segment, wall, cpu)

    def probe():
        run.attempted += 1
        wall, _, _, rc = run_child(run, probe_args, err_path)
        setup.append((len(cals), wall))
        if rc != 0:
            run.fail("set-up probe", f"exit {rc}: {_stderr_tail(err_path)}")

    host.calibrate()  # warm-up
    cals = [host.calibrate()]
    start = time.perf_counter()
    while True:
        # set-up probes are spread evenly over the run, so that they and the
        # units see the same phases of the shared host
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setup) < 1 + (SETUP_PROBES - 1) * share:
            probe()
        calls, rss, items = [], 0.0, 0
        for i, step in enumerate(wl.steps):
            run.attempted += 1
            w, c, r, rc = run_child(run, ["-m", "qnd_povm", *step.argv()], err_path)
            calls.append((len(cals), w, c))
            rss = max(rss, r)
            if rc != 0:
                run.fail(step.command, f"exit {rc}: {_stderr_tail(err_path)}")
            else:
                n = check_step(run, wl, step)
                if i == 0:  # the workload's rate counts its first call's items
                    items = n
            _clear(step)
            cals.append(host.calibrate())
        units.append((calls, rss, items))
        print(f"unit {len(units)}: wall {sum(w for _, w, _ in calls):.4f} s, "
              f"peak {rss:.1f} MB, {items} items, calibrations "
              + " ".join(f"{c:.4f}" for c in cals[-len(calls) - 1:]), file=sys.stderr)
        if time.monotonic() > run.deadline - 30.0:
            break
        if time.perf_counter() - start >= seconds and len(units) >= MIN_UNITS:
            break
    if len(setup) < SETUP_PROBES:
        while len(setup) < SETUP_PROBES:
            probe()
        cals.append(host.calibrate())

    def scale(segment: int) -> float:
        return host.REFERENCE_S / math.sqrt(cals[segment - 1] * cals[segment])

    walls = [sum(w * scale(k) for k, w, _ in calls) for calls, _, _ in units]
    values = {"wall_s": statistics.median(walls),
              "cpu_s": statistics.median(sum(c * scale(k) for k, _, c in calls)
                                         for calls, _, _ in units),
              "items_per_s": statistics.median(n / w for (_, _, n), w in zip(units, walls)),
              "peak_rss_mb": statistics.median(rss for _, rss, _ in units),
              "setup_s": statistics.median(w * scale(k) for k, w in setup)}
    print(f"raw medians: wall {statistics.median(sum(w for _, w, _ in u[0]) for u in units):.4f} s, "
          f"set-up {statistics.median(w for _, w in setup):.4f} s; "
          f"calibration median {statistics.median(cals):.4f} s", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


_UNTRACED = ("import importlib, json, sys, time\n"
             "for layer in sys.argv[3:]:\n"
             "    importlib.import_module('qnd_povm.' + layer)\n"
             "from qnd_povm import cli\n"
             "wall, codes = 0.0, []\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    t0 = time.perf_counter()\n"
             "    codes.append(cli.main(argv))\n"
             "    wall += time.perf_counter() - t0\n"
             "with open(sys.argv[2], 'w') as fh:\n"
             "    json.dump({'wall': wall, 'codes': codes}, fh)\n")


def _untraced(run: Run, wl, run_dir: str) -> float:
    """Wall time of the steps' cli.main calls in a fresh, untraced process.

    A fresh process on each side keeps allocator and cache warm-up out of
    the difference between the traced and the untraced pass.
    """
    err_path = os.path.join(run_dir, "stderr.txt")
    result = os.path.join(run_dir, "untraced.json")
    steps = json.dumps([step.argv() for step in wl.steps])
    *_, rc = run_child(run, ["-c", _UNTRACED, steps, result, *spans.LAYERS], err_path)
    run.attempted += len(wl.steps)
    if rc != 0:
        run.fail("untraced pass", f"exit {rc}: {_stderr_tail(err_path)}")
        return 0.0
    with open(result, encoding="utf-8") as fh:
        got = json.load(fh)
    for step, code in zip(wl.steps, got["codes"]):
        if code != 0:
            run.fail(step.command, f"exit {code}")
        else:
            check_step(run, wl, step)
        _clear(step)
    return got["wall"]


def _traced(run: Run, wl, tracer) -> tuple[float, list]:
    """Wall time of the steps' cli.main calls in this process, under `tracer`,
    and the steps that exited 0."""
    import qnd_povm.cli as cli

    wall = 0.0
    done = []
    for i, step in enumerate(wl.steps):
        run.attempted += 1
        tracer.run = i + 1
        t0 = time.perf_counter()
        try:
            rc = cli.main(step.argv())
        except Exception:  # a crash in the program is a failed operation
            rc = "uncaught exception\n" + traceback.format_exc(limit=5)
        wall += time.perf_counter() - t0
        if rc != 0:
            run.fail(step.command, f"exit {rc}")
        else:
            done.append(step)
    return wall, done


def _bytes_out(wl) -> int:
    total = 0
    for step in wl.steps:
        if os.path.isdir(step.out):
            total += sum(e.stat().st_size for e in os.scandir(step.out))
        elif os.path.exists(step.out):
            total += os.path.getsize(step.out)
    return total


def traced(run: Run, wl, run_dir: str) -> dict:
    untraced = _untraced(run, wl, run_dir)
    os.environ.pop("QND_THREADS", None)
    sys.path.insert(0, SRC)
    # import every layer first, as the untraced pass does
    for layer in spans.LAYERS:
        importlib.import_module(f"qnd_povm.{layer}")
    tracer = spans.Tracer()
    with tracer:
        wall, done = _traced(run, wl, tracer)
    bytes_out = _bytes_out(wl)
    for step in done:
        check_step(run, wl, step)
    side = os.path.join(WORK, f"trace-{wl.name}-{run.seed}.jsonl")
    tracer.write(side, workload=wl.name, seed=run.seed, wall_s=wall, untraced_wall_s=untraced,
                 overhead_s=wall - untraced, bytes_out=bytes_out)
    got = spans.layer_metrics(side)
    return {name: {"value": got.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "qnd_povm", "cli.py")):
        print(f"no qnd_povm sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one core for this process, the calibrations and every child: the
        # host's two cores are slowed by other tenants at different times,
        # and a calibration tracks the program's speed only on the same core
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(args.seed)
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = workloads.generate(args.workload, args.seed, run_dir)
        if args.trace:
            metrics = traced(run, wl, run_dir)
        else:
            metrics = measure(run, wl, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
