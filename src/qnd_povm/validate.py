"""Invariants behind the ``validate`` subcommand and the acceptance tests.

Each check takes the sizes it runs at as arguments and returns a `Check`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple

import numpy as np

from .analysis import DensityMatrix, density_from_state, wigner
from .approx import gaussian_model
from .errors import DomainError
from .numerics import _whole, clebsch_gordan, legendre_sum, log_factorial
from .povm import (PhotonOutcome, QndParams, _uniforms, _wrap_pi, condition, condition_many,
                   eigen, log_amplitude, log_matrix_element_direct, outcome_distribution)
from .spin_state import CollectiveState, coherent_state, dicke_state, normalize, overlap


# one invariant's verdict; `value` is the figure its detail reports
Check = namedtuple("Check", "name passed detail value")


class _Draws:
    """The draws of one check: uniforms k = 0, 1, 2, ... of one SplitMix64
    stream, the generator `measure` draws its shots from (`povm._uniforms`).

    Stream `index` of `seed` starts 2^40 outputs after stream index - 1, so
    the streams of one seed do not overlap.  It offers the `Generator`
    methods the checks call, and needs no module beyond numpy's own.
    """

    _BLOCK = 256  # uniforms drawn ahead for the scalar draws
    _GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment

    def __init__(self, seed: int, index: int):
        self._state = np.uint64((int(seed) + (index << 40) * self._GAMMA) % (1 << 64))
        self._next = 0  # the index of the next uniform not yet drawn
        self._ahead: list[float] = []

    def _take(self, n: int) -> np.ndarray:
        """The next n uniforms in [0, 1); those drawn ahead are skipped."""
        steps = np.arange(self._next, self._next + n, dtype=np.uint64)
        self._next += n
        return _uniforms(self._state + steps * np.uint64(self._GAMMA), 0)

    def _scalar(self) -> float:
        if not self._ahead:
            self._ahead = self._take(self._BLOCK).tolist()[::-1]
        return self._ahead.pop()

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._scalar()

    def integers(self, lo: int, hi: int) -> int:
        """An int in [lo, hi)."""
        return lo + min(int(self._scalar() * (hi - lo)), hi - lo - 1)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        """`size` distinct ints from range(n), by a partial Fisher-Yates
        shuffle; only draws without replacement are offered."""
        if replace or size > n:
            raise ValueError("only up to n draws without replacement are offered")
        moved: dict[int, int] = {}
        picks = []
        for i in range(size):
            j = self.integers(i, n)
            picks.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return np.array(picks, dtype=np.int64)

    def normal(self, size) -> np.ndarray:
        """Standard normal draws of shape `size`, by Box-Muller."""
        n = int(np.prod(size))
        half = (n + 1) // 2
        u = self._take(2 * half)
        r = np.sqrt(-2.0 * np.log1p(-u[:half]))  # 1 - u is in (0, 1]
        t = 2.0 * math.pi * u[half:]
        return np.concatenate((r * np.cos(t), r * np.sin(t)))[:n].reshape(size)


def random_state(rng, two_j: int) -> CollectiveState:
    """A normalized state of 2J = `two_j` with complex Gaussian amplitudes."""
    a = rng.normal(size=two_j + 1) + 1j * rng.normal(size=two_j + 1)
    return normalize(CollectiveState(two_j, a))


def check_dual_form(rng, draws=200, total_cap=60, two_m_cap=40) -> Check:
    """The spectral and direct forms agree to 1e-10 over `draws` random draws.

    A draw whose envelope bases come within 1e-3 of a structural zero, where
    the phase of an almost-vanishing eigenvalue is ill-conditioned for any
    evaluator, is excluded; both routes must still find it negligible.
    """
    checked = skipped = unsettled = 0
    worst = 0.0
    while checked < draws and skipped <= draws:  # FAIL, not a hang, if all skip
        g = rng.uniform(0.3, 6.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        c = rng.uniform(0.3, 6.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        params = QndParams(gamma=complex(g), chi=complex(c), gt=rng.uniform(0.005, 3.2))
        m = float(rng.integers(-two_m_cap, two_m_cap + 1)) / 2.0
        nc = int(rng.integers(0, total_cap + 1))
        nd = int(rng.integers(0, total_cap + 1 - nc))
        out = PhotonOutcome(nc, nd)
        log_c, log_e, phase = eigen(params, out, [m])
        log_a = float(log_e[0])
        lm_s = log_c + log_a
        lm_d, ph_d = log_matrix_element_direct(params, out, m)
        floor = log_a + 0.5 * (
            math.lgamma(nc + 1.0) + math.lgamma(nd + 1.0)
        ) - 0.5 * out.total * math.log(2.0)
        if floor < 0.5 * out.total * math.log(1e-3):
            skipped += 1
            unsettled += not (lm_s < -20.0 or
                              abs(lm_s - lm_d) < 1e-6 * max(1.0, abs(lm_d)))
            continue
        checked += 1
        dph = abs((_wrap_pi(float(phase[0])) - ph_d + math.pi) % (2.0 * math.pi) - math.pi)
        worst = max(worst, abs(lm_s - lm_d), dph)
    detail = (f"worst deviation {worst:.2e} over {checked} draws "
              f"({skipped} near-zero draws excluded)")
    if unsettled:
        detail += f", {unsettled} of them not negligible on both routes"
    ok = worst < 1e-10 and skipped < checked and not unsettled
    return Check("dual-form agreement", ok, detail, worst)


def check_unity(rng, params: QndParams, two_js) -> Check:
    """The enumerated outcome probabilities of a random state of each 2J sum
    to one; a total whose rows miss its Poisson mass fails the check."""
    worst = 1.0
    for two_j in two_js:
        try:
            dist = outcome_distribution(params, random_state(rng, two_j), 1e-9)
        except DomainError as exc:
            return Check("unity decomposition", False, str(exc), math.nan)
        worst = min(worst, math.fsum(dist.p))
    return Check("unity decomposition", worst >= 1.0 - 1e-8, f"min mass {worst:.10f}", worst)


def check_photon_conservation(rng, params: QndParams, two_js) -> Check:
    """The mean detected photon number of each random state is |gamma|^2 + |chi|^2;
    a total whose rows miss its Poisson mass fails the check."""
    worst = 0.0
    for two_j in two_js:
        try:
            dist = outcome_distribution(params, random_state(rng, two_j), 1e-10)
        except DomainError as exc:
            return Check("photon conservation", False, str(exc), math.nan)
        rel = abs(dist.mean_total() - params.photon_mean) / params.photon_mean
        worst = max(worst, rel)
    return Check("photon conservation", worst < 1e-6, f"worst rel err {worst:.2e}", worst)


def check_table_against_conditioner(params: QndParams, state: CollectiveState,
                                    mass_tolerance: float, rng=None, rows=None) -> Check:
    """Each enumerated row's p is exp(ln P) of `condition_many` on the same
    state: the table and the conditioner read one law.

    With `rows`, that many rows drawn by `rng` are compared.  The bound is
    1e-12 relative, or 1e-15 of ln n_c! + ln n_d! where that is larger: both
    routes form exponents of that size, whose rounding grows with the counts.
    A row that both give below 1e-300 is negligible on both and passes; a
    total whose rows miss its Poisson mass fails the check.
    """
    name = "table against conditioner"
    try:
        dist = outcome_distribution(params, state, mass_tolerance)
    except DomainError as exc:
        return Check(name, False, str(exc), math.nan)
    n_c, n_d, p = dist.n_c, dist.n_d, dist.p
    if rows is not None and rows < p.size:
        pick = np.sort(rng.choice(p.size, rows, replace=False))
        n_c, n_d, p = n_c[pick], n_d[pick], p[pick]
    with np.errstate(under="ignore"):
        q = np.exp(condition_many(params, n_c, n_d, state)[0])
    rel = np.where(np.maximum(p, q) < 1e-300, 0.0, np.abs(q - p) / np.maximum(p, 1e-300))
    share = rel / np.maximum(1e-12, 1e-15 * (log_factorial(n_c) + log_factorial(n_d)))
    i = int(np.argmax(share))
    return Check(name, share[i] <= 1.0, f"worst rel dev {rel[i]:.1e} ({share[i]:.2f} of "
                 f"its bound) over {p.size} of {dist.p.size} rows", float(rel[i]))


def check_dicke_invariance(params: QndParams, J, ms) -> Check:
    """Outcome (26, 25) leaves each |J, m> unchanged; a point with no
    posterior (zero probability) or a nan one counts as fidelity 0."""
    out = PhotonOutcome(26, 25)
    worst = 1.0
    for m in ms:
        st = dicke_state(J, m)
        post = condition(params, out, st)[1]
        fid = 0.0 if post is None else abs(overlap(st, post)) ** 2
        worst = min(worst, 0.0 if math.isnan(fid) else fid)
    return Check("Dicke invariance", worst >= 1.0 - 1e-12, f"min fidelity {worst!r}", worst)


def check_cg_orthogonality() -> Check:
    # sum over m1 of <j1 m1; j2 M-m1|L M><j1 m1; j2 M-m1|L' M> = [L == L']
    worst = 0.0
    for tj1, tj2 in ((2, 2), (3, 2), (4, 4)):
        ls = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        for tL, tLp in itertools.product(ls, ls):
            for tM in range(-min(tL, tLp), min(tL, tLp) + 1, 2):
                acc = 0.0
                for tm1 in range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2):
                    a, b = (clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2, (tM - tm1) / 2,
                                           t / 2, tM / 2) for t in (tL, tLp))
                    acc += a * b
                worst = max(worst, abs(acc - (tL == tLp)))
    return Check("CG orthogonality", worst < 1e-10, f"worst deviation {worst:.2e}", worst)


def check_multipole_parseval(rng) -> Check:
    # a random full-rank density matrix at the largest J the Wigner map
    # claims; an exact multipole table satisfies sum |rho_LM|^2 = Tr rho^2
    a = rng.normal(size=(101, 101)) + 1j * rng.normal(size=(101, 101))
    h = a @ a.conj().T
    dev = DensityMatrix(two_j=100, rho=h / np.trace(h).real).parseval_residual()
    return Check("multipole Parseval at 2J=100", dev <= 1e-10, f"rel deviation {dev:.2e}", dev)


def check_wigner_covariance(N: int, k: int) -> Check:
    """The Wigner map turns with the state, to 1e-12 of max |W|.

    coherent_state(N, theta0) is the Dicke state |J, J> turned by theta0
    about y, so its map at any point equals the Dicke map at that point's
    angle from (theta0, 0).  On `wigner`'s default grid, with theta0 the
    grid angle thetas[k], the coherent map's phi = 0 meridian at thetas[i]
    reads the Dicke map's row |i - k|, and its phi = pi meridian the row
    i + k, folded back into [0, pi].  The Dicke map has M = 0 multipoles
    alone, so the identity holds every M != 0 block, the Legendre
    recurrence and the azimuthal sum against the M = 0 path.
    """
    pole = wigner(density_from_state(dicke_state(N / 2.0, N / 2.0)))
    turned = wigner(density_from_state(coherent_state(N, float(pole.thetas[k]))))
    i = np.arange(pole.thetas.size)
    far = np.minimum(i + k, 2 * i[-1] - (i + k))
    row = pole.values[:, 0]
    miss = max(np.max(np.abs(turned.values[:, 0] - row[np.abs(i - k)])),
               np.max(np.abs(turned.values[:, pole.phis.size // 2] - row[far])))
    rel = float(miss / np.max(np.abs(pole.values)))
    return Check(f"Wigner rotation covariance at N={N}", rel <= 1e-12,
                 f"meridian miss {rel:.1e} of max |W|", rel)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1] (Golub &
    Welsch 1969): the eigenvalues of the Legendre polynomials' symmetric
    Jacobi matrix, off-diagonal k / sqrt(4k^2 - 1), and twice the squared
    first components of its eigenvectors."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 * v[0] ** 2


def check_harmonic_orthonormality() -> Check:
    """The normalized Legendre functions of `legendre_sum`, which `wigner`
    sums through, are orthonormal for each M on Gauss-Legendre nodes."""
    lmax = 6
    n = lmax + 1
    x, wq = _gauss_legendre(2 * lmax + 2)
    # p[L, i, M] = P~_L^M(x[i]), from a coefficient table whose row L is all ones
    p = np.stack([legendre_sum(np.outer(np.arange(n) == L, np.ones(n)), x).real
                  for L in range(n)])
    worst = 0.0
    for m in range(0, lmax + 1):
        rows = p[m:, :, m]
        gram = (rows * wq) @ rows.T * (2.0 * math.pi)
        want = np.eye(rows.shape[0])
        worst = max(worst, float(np.max(np.abs(gram - want))))
    return Check("spherical-harmonic orthonormality", worst < 1e-8,
                 f"worst deviation {worst:.2e}", worst)


def check_gaussian_width(params: QndParams, outcome: PhotonOutcome) -> Check:
    """The Gaussian model's variance is -1 / (d^2/dm^2 ln A) at its centre, to 5%."""
    model = gaussian_model(params, outcome)
    f = lambda m: log_amplitude(params, outcome, m)
    curv = f(model.m0 + 1.0) - 2.0 * f(model.m0) + f(model.m0 - 1.0)
    rel = abs(-1.0 / curv - model.sigma2) / model.sigma2
    return Check("Gaussian width vs log-curvature", rel < 0.05, f"rel err {rel:.3f}", rel)


def check_composition(params: QndParams, state: CollectiveState, first, second) -> Check:
    """The QND composition law for outcomes `first` and `second` (n_c, n_d).

    The operators are diagonal in m_z, so they commute: ln P(o1) + ln P(o2 | o1)
    = ln P(o2) + ln P(o1 | o2) to 1e-13 of its size, and both orders leave
    the same posterior, to fidelity 1 - 1e-12.
    """
    ends = []
    for order in ((first, second), (second, first)):
        log_p, post = 0.0, state
        for outcome in order:
            log_o, post = condition(params, PhotonOutcome(*outcome), post)
            if post is None:
                return Check("QND composition law", False,
                             f"outcome {outcome} has zero probability", math.inf)
            log_p += log_o
        ends.append((log_p, post))
    (log_ab, post_ab), (log_ba, post_ba) = ends
    dev = abs(log_ab - log_ba)
    infidelity = 1.0 - abs(overlap(post_ab, post_ba)) ** 2
    ok = dev <= 1e-13 * max(1.0, abs(log_ab)) and abs(infidelity) <= 1e-12
    return Check("QND composition law", ok, f"ln P {log_ab:.2f}, orders differ by "
                 f"{dev:.1e}, posterior infidelity {infidelity:.1e}", dev)


def run_all(seed: int = 20260810) -> list[Check]:
    seed = _whole(seed, ("seed {} is negative", "seed {} is not an integer", None))
    rng = lambda k: _Draws(seed, k)
    light = lambda n: QndParams(gamma=5.1, chi=5.0, gt=math.pi / n)
    return [
        check_dual_form(rng(0)),
        check_unity(rng(1), light(12), (12,) * 3),
        check_photon_conservation(rng(2), light(20), (16,) * 2),
        check_dicke_invariance(light(40), 20, (-20, -7, 0, 13, 20)),
        check_cg_orthogonality(),
        check_multipole_parseval(rng(3)),
        check_harmonic_orthonormality(),
        check_gaussian_width(light(100), PhotonOutcome(25, 25)),
        check_composition(QndParams(gamma=5.1, chi=5.0 * cmath.exp(0.7j), gt=math.pi / 20),
                          coherent_state(20, 1.3), (23, 28), (31, 20)),
        check_table_against_conditioner(
            QndParams(gamma=3.0, chi=3.2 * cmath.exp(0.7j), gt=math.pi / 20),
            random_state(rng(4), 20), 1e-9),
    ]
