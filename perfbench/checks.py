"""Output checks, computed with the benchmark's own numpy code.

None of them pins a seed-specific outcome: the shots and bright checks
recompute each probability from the Poisson-mixture identity

    P(n_c, n_d) = sum_m |psi_m|^2 Pois(n_c; lam_c(m)) Pois(n_d; lam_d(m)),

where lam_{c,d}(m) = |alpha_{c,d}(m)|^2 are the mean counts of the two
interfered coherent beams, so they hold for any correct sampler or
enumeration order.  The sphere check integrates the map over the grid.

Each check returns the number of items the output holds (shots, rows, grid
points, files) and raises CheckError when the output is wrong.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

_ANGLE = re.compile(r"^\s*(?P<sign>-)?(?P<coef>\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(?P<den>N|\d+))?\s*$")

# tolerances, set from the accuracy the program reaches on correct outputs
LOG_PROB_ATOL = 1e-9      # measured agreement ~1e-13
MOMENT_ATOL = 1e-8        # mean/var of J_z, values O(1..100)
ROW_RTOL = 1e-9           # single enumerated probability
ROW_SAMPLE = 2000         # rows of a distribution recomputed one by one
TOTAL_RTOL = 1e-10        # per-total sums against Pois(t; s)
MASS_ATOL = 1e-9          # rows against the captured_mass footer
INT_W_RTOL = 1e-9         # integral of W is exact on the grid
INT_W2_ATOL = 1e-3        # integral of W^2: the 181-point rule aliases degree 200


class CheckError(Exception):
    """An output failed its correctness check."""


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# physics, written independently of the program
# ---------------------------------------------------------------------------

def angle(value, n_atoms: int) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    m = _ANGLE.match(value)
    if m is None:
        return float(value)
    coef = float(m.group("coef") or 1.0) * (-1.0 if m.group("sign") else 1.0)
    den = m.group("den")
    d = 1.0 if den is None else float(n_atoms) if den == "N" else float(den)
    return coef * math.pi / d


def _complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def light(cfg: dict):
    """(gamma, chi, gt) of a config."""
    p = cfg["params"]
    return _complex(p["gamma"]), _complex(p["chi"]), angle(p["gt"], cfg["N"])


def port_means(gamma: complex, chi: complex, gt: float, m: np.ndarray):
    """Mean counts |alpha_c|^2, |alpha_d|^2 of the two output ports at m_z."""
    rot = np.exp(-0.5j * gt * m)
    a_c = (gamma * rot + 1j * chi / rot) / math.sqrt(2.0)
    a_d = (1j * gamma * rot + chi / rot) / math.sqrt(2.0)
    return np.abs(a_c) ** 2, np.abs(a_d) ** 2


def log_poisson(n: np.ndarray, lam: np.ndarray) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    lgam = np.vectorize(math.lgamma)(n + 1.0)
    with np.errstate(divide="ignore"):
        nlog = np.where(n == 0, 0.0, n * np.log(np.maximum(lam, 0.0)))
    return nlog - lam - lgam


def coherent_log_weights(n_atoms: int, theta: float):
    """m_z grid and log |psi_m|^2 of the tilted coherent state (binomial)."""
    k = np.arange(n_atoms + 1)
    p = math.cos(theta / 2.0) ** 2
    lg = np.vectorize(math.lgamma)
    logw = (math.lgamma(n_atoms + 1.0) - lg(k + 1.0) - lg(n_atoms - k + 1.0)
            + k * math.log(p) + (n_atoms - k) * math.log1p(-p))
    return k - n_atoms / 2.0, logw


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    top = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(top, axis) + np.log(np.sum(np.exp(x - top), axis=axis))


def joint_log_terms(cfg: dict, n_c: np.ndarray, n_d: np.ndarray):
    """m grid and log(|psi_m|^2 P(n_c, n_d | m)) for each outcome (rows) and m."""
    gamma, chi, gt = light(cfg)
    m, logw = coherent_log_weights(cfg["N"], angle(cfg["initial"]["theta"], cfg["N"]))
    lam_c, lam_d = port_means(gamma, chi, gt, m)
    n_c = np.asarray(n_c)[:, None]
    n_d = np.asarray(n_d)[:, None]
    return m, logw[None, :] + log_poisson(n_c, lam_c[None, :]) + log_poisson(n_d, lam_d[None, :])


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_measure(cfg: dict, path: str, seed: int) -> int:
    """Every shot's log_prob, posterior mean and variance against the identity."""
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    shots = cfg["shots"]
    _require(len(recs) == shots, f"{len(recs)} shot lines, expected {shots}")
    _require([r["seed"] for r in recs] == [(cfg["seed"] + i) % (1 << 64) for i in range(shots)],
             "shot seeds are not seed + shot")
    n_c = np.array([r["n_c"] for r in recs])
    n_d = np.array([r["n_d"] for r in recs])
    gamma, chi, _ = light(cfg)
    s = abs(gamma) ** 2 + abs(chi) ** 2
    # n_c + n_d ~ Pois(s) exactly, whatever the state
    mean_total = float(np.mean(n_c + n_d))
    _require(abs(mean_total - s) < 6.0 * math.sqrt(s / shots),
             f"mean total count {mean_total:.3f} implausible for {s:.3f}")
    m, terms = joint_log_terms(cfg, n_c, n_d)
    log_p = _logsumexp(terms, axis=1)
    w = np.exp(terms - log_p[:, None])
    mean = w @ m
    var = np.sum(w * (m[None, :] - mean[:, None]) ** 2, axis=1)
    got = {k: np.array([r[k] for r in recs], dtype=float)
           for k in ("log_prob", "mean_jz", "var_jz", "squeezing_ratio")}
    theta = angle(cfg["initial"]["theta"], cfg["N"])
    prior_var = cfg["N"] * math.cos(theta / 2) ** 2 * math.sin(theta / 2) ** 2
    for key, want, tol in (("log_prob", log_p, LOG_PROB_ATOL),
                           ("mean_jz", mean, MOMENT_ATOL),
                           ("var_jz", var, MOMENT_ATOL),
                           ("squeezing_ratio", var / prior_var, MOMENT_ATOL)):
        err = np.abs(got[key] - want)
        bad = int(np.argmax(err))
        _require(bool(np.all(err <= tol)),
                 f"shot {bad}: {key} = {got[key][bad]!r}, identity gives {want[bad]!r}")
    return shots


def read_table(path: str):
    """(column names, numeric rows, {footer key: value}) of a qnd-povm CSV."""
    with open(path, encoding="utf-8") as fh:
        head = [fh.readline(), fh.readline()]
    _require(head[0].startswith("# qnd-povm v"), "missing versioned CSV header")
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    footer = {}
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 4096))
        for line in fh.read().decode("utf-8", "replace").splitlines():
            if line.startswith("# ") and " = " in line:
                key, val = line[2:].split(" = ", 1)
                footer[key] = float(val)
    return head[1].strip().split(","), data, footer


def sample_rows(n_rows: int, seed: int) -> np.ndarray:
    """Row indices the photon-dist check recomputes one by one."""
    return np.unique(np.random.default_rng(seed).integers(0, n_rows, size=ROW_SAMPLE))


def check_photon_dist(cfg: dict, path: str, seed: int) -> int:
    """Mass, per-total Poisson marginals and a seeded row sample."""
    cols, data, footer = read_table(path)
    _require(cols == ["n_c", "n_d", "p"], f"unexpected columns {cols}")
    _require(data.shape[0] > 0, "empty distribution")
    n_c, n_d, p = data[:, 0].astype(np.int64), data[:, 1].astype(np.int64), data[:, 2]
    _require(bool(np.all(np.isfinite(p)) and np.all(p >= 0.0)), "non-finite or negative p")
    tol = cfg["mass_tolerance"]
    mass = footer.get("captured_mass", float("nan"))
    _require(mass >= 1.0 - tol, f"captured_mass {mass!r} below 1 - {tol}")
    _require(abs(math.fsum(p) - mass) <= MASS_ATOL, "rows do not sum to captured_mass")
    gamma, chi, _ = light(cfg)
    s = abs(gamma) ** 2 + abs(chi) ** 2
    totals = n_c + n_d
    present = np.unique(totals)
    by_total = np.bincount(totals, weights=p)[present]
    want = np.exp(log_poisson(present, np.full(present.shape, s)))
    rel = np.abs(by_total - want) / want
    bad = int(np.argmax(rel))
    _require(bool(np.all(rel <= TOTAL_RTOL)),
             f"total {present[bad]}: rows sum to {by_total[bad]!r}, Pois gives {want[bad]!r}")
    idx = np.union1d(sample_rows(len(p), seed), [int(np.argmax(p))])
    _, terms = joint_log_terms(cfg, n_c[idx], n_d[idx])
    ref = np.exp(_logsumexp(terms, axis=1))
    ok = np.abs(p[idx] - ref) <= ROW_RTOL * ref + 1e-300
    bad = int(np.argmin(ok))
    _require(bool(np.all(ok)),
             f"row ({n_c[idx][bad]}, {n_d[idx][bad]}): p = {p[idx][bad]!r}, "
             f"identity gives {ref[bad]!r}")
    return len(p)


def clenshaw_curtis(n: int) -> np.ndarray:
    """Weights of the (n+1)-point Clenshaw-Curtis rule on x_j = cos(j pi / n)."""
    th = np.arange(n + 1) * math.pi / n
    w = np.ones(n + 1)
    for k in range(1, n // 2 + 1):
        b = 1.0 if 2 * k == n else 2.0
        w -= b * np.cos(2 * k * th) / (4 * k * k - 1)
    c = np.full(n + 1, 2.0)
    c[0] = c[-1] = 1.0
    return c * w / n


def check_wigner(cfg: dict, path: str, seed: int) -> int:
    """int W dOmega = sqrt(4 pi / (2J+1)) and int W^2 dOmega = Tr rho^2 = 1."""
    cols, data, _ = read_table(path)
    _require(cols == ["theta", "phi", "w"], f"unexpected columns {cols}")
    grid = cfg.get("grid", {})
    n_t, n_p = grid.get("n_theta", 181), grid.get("n_phi", 361)
    _require(data.shape[0] == n_t * n_p, f"{data.shape[0]} grid points, expected {n_t * n_p}")
    w = data[:, 2].reshape(n_t, n_p)
    _require(bool(np.all(np.isfinite(w))), "non-finite W")
    _require(np.allclose(data[::n_p, 0], np.linspace(0.0, math.pi, n_t), atol=1e-12)
             and np.allclose(data[:n_p, 1], np.linspace(0.0, 2.0 * math.pi, n_p), atol=1e-12),
             "grid is not the default equiangular grid")
    # theta rows are Chebyshev points in cos(theta); phi drops the repeated 2 pi
    wt = clenshaw_curtis(n_t - 1)
    dphi = 2.0 * math.pi / (n_p - 1)
    core = w[:, :-1]
    int_w = float(wt @ core.sum(axis=1)) * dphi
    int_w2 = float(wt @ (core ** 2).sum(axis=1)) * dphi
    want = math.sqrt(4.0 * math.pi / (cfg["N"] + 1))
    _require(abs(int_w / want - 1.0) <= INT_W_RTOL, f"integral of W is {int_w!r}, want {want!r}")
    _require(abs(int_w2 - 1.0) <= INT_W2_ATOL, f"integral of W^2 is {int_w2!r}, want Tr rho^2 = 1")
    return n_t * n_p


def check_amp_scan(cfg: dict, out_dir: str, seed: int) -> int:
    for case in cfg["cases"]:
        cols, data, _ = read_table(os.path.join(out_dir, case["label"] + ".csv"))
        _require(cols == ["m_z", "A_exact", "A_exact_normalized", "A_gauss"],
                 f"unexpected columns {cols}")
        _require(data.shape[0] == case["N"] + 1, f"{case['label']}: wrong row count")
        exact = data[:, 1:3]
        _require(bool(np.all(np.isfinite(exact))), f"{case['label']}: non-finite envelope")
        peak = float(np.max(data[:, 2]))
        _require(abs(peak - 1.0) <= 1e-12, f"{case['label']}: normalized peak is {peak!r}")
    return 1


def check_project(cfg: dict, path: str, seed: int) -> int:
    with open(path, encoding="utf-8") as fh:
        out = json.load(fh)
    for key in ("u", "v", "m0", "xi_c", "xi_d", "xi_plus", "xi_minus", "amplitude"):
        _require(isinstance(out.get(key), (int, float)) and math.isfinite(out[key]),
                 f"project field {key} is not a finite number")
    amps = np.array([a for sec in out["state"]["sectors"] for a in sec["amps"]], dtype=float)
    _require(bool(np.all(np.isfinite(amps))), "collapsed state is not finite")
    _require(abs(float(np.sum(amps ** 2)) - 1.0) <= 1e-12, "collapsed state is not normalized")
    return 1


def check_validate(cfg: dict, path: str, seed: int) -> int:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    _require(len(lines) > 0, "validate printed nothing")
    failed = [line for line in lines if not line.startswith("PASS")]
    _require(not failed, "validate: " + "; ".join(failed))
    return 1


CHECKS = {
    "measure": check_measure,
    "photon-dist": check_photon_dist,
    "wigner": check_wigner,
    "amp-scan": check_amp_scan,
    "project": check_project,
    "validate": check_validate,
}
