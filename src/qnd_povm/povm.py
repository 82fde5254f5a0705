"""Exact measurement operator for dispersive QND readout of a collective spin.

Two circularly polarized coherent beams (amplitudes gamma, chi) pick up
opposite spin-dependent phases e^{-+ i gt m_z / 2}, interfere on a waveplate,
and are counted in the two output ports.  Detecting (n_c, n_d) photons leaves
the atoms acted on by an operator diagonal in |J, m_z>, whose eigenvalue at
each m_z this module evaluates in two independent ways:

* a spectral form: a non-negative envelope A(m_z) built from the two bases
  1 +- cos(2 eta) cos(2 phi(m_z)) in log space, times detector phases
  e^{i(n_c phi_c + n_d phi_d)} and an outcome-dependent constant phase;
* a direct form: the photon-count powers of the two interfered coherent
  amplitudes, evaluated in log-polar complex arithmetic.

The two routes must agree to float precision; the direct form serves as the
internal oracle that pins the phase conventions of the spectral form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import MAX_ENTRIES, DomainError, PreconditionError, ResourceCapError
from .numerics import log_factorial
from .spin_state import CollectiveState, normalize, scale_amplitudes

_TWO_PI = 2.0 * math.pi
# sentinel for log(0) that survives multiplication by small integer counts
_LOG_ZERO = -1e9
_TOTAL_RTOL = 1e-10
# the outcome engine's block of consecutive totals, and its GEMM tile of n_c
_BLOCK = 128
_TILE = 32


def _wrap_pi(x):
    """Reduce an angle, or an array of them, to (-pi, pi]."""
    return math.pi - (math.pi - x) % _TWO_PI


def _check_counts(least, most):
    """Raise DomainError unless photon counts from `least` to `most` are valid."""
    if not least >= 0:  # written so that nan fails too
        raise DomainError("photon counts must be non-negative")
    # float64 holds every integer only up to 2^53
    if not most < 1 << 53:
        raise DomainError("photon counts must be below 2^53")


@dataclass(frozen=True)
class QndParams:
    """Light amplitudes and interaction phase of one QND measurement.

    gamma and chi are the coherent amplitudes of the two polarization modes,
    gt the dimensionless interaction phase.  The derived asymmetry eta obeys
    tan(eta) = (|chi| - |gamma|)/(|chi| + |gamma|) and the relative light
    phase phi_chigamma = arg(chi) - arg(gamma), reduced to (-pi, pi].
    """

    gamma: complex
    chi: complex
    gt: float

    def __post_init__(self):
        g = complex(self.gamma)
        c = complex(self.chi)
        if not all(map(math.isfinite, (g.real, g.imag, c.real, c.imag, self.gt))):
            raise DomainError("non-finite measurement parameters")
        if g == 0 or c == 0:
            raise DomainError("both light amplitudes must be nonzero")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "chi", c)
        object.__setattr__(self, "gt", float(self.gt))
        try:
            mean = self.photon_mean  # inf when the sum overflows
        except OverflowError:  # raised by abs() or ** on an overflowing term
            mean = math.inf
        if mean == math.inf:
            raise DomainError("|gamma|^2 + |chi|^2 overflows a double")
        # below the smallest normal double, ln s is -inf at 0 and cos(2 eta)
        # rests on a subnormal with a few digits left
        if mean < np.finfo(float).tiny:
            raise DomainError("|gamma|^2 + |chi|^2 underflows a double")

    @property
    def abs_gamma(self) -> float:
        return abs(self.gamma)

    @property
    def abs_chi(self) -> float:
        return abs(self.chi)

    @property
    def photon_mean(self) -> float:
        """Mean total photon number |gamma|^2 + |chi|^2."""
        return self.abs_gamma**2 + self.abs_chi**2

    @property
    def eta(self) -> float:
        return math.atan(
            (self.abs_chi - self.abs_gamma) / (self.abs_chi + self.abs_gamma)
        )

    @property
    def phi_chigamma(self) -> float:
        return _wrap_pi(cmath.phase(self.chi) - cmath.phase(self.gamma))

    @property
    def cos_2eta(self) -> float:
        # algebraically 2|gamma||chi| / (|gamma|^2 + |chi|^2)
        return 2.0 * self.abs_gamma * self.abs_chi / self.photon_mean


@dataclass(frozen=True)
class PhotonOutcome:
    """Photon counts registered by the two detectors."""

    n_c: int
    n_d: int

    def __post_init__(self):
        _check_counts(min(self.n_c, self.n_d), max(self.n_c, self.n_d))
        object.__setattr__(self, "n_c", int(self.n_c))
        object.__setattr__(self, "n_d", int(self.n_d))

    @property
    def total(self) -> int:
        return self.n_c + self.n_d

    @property
    def u(self) -> float:
        return (self.n_d + self.n_c) / 2.0

    @property
    def v(self) -> float:
        return (self.n_d - self.n_c) / 2.0

    @property
    def r(self) -> float:
        """Normalized count difference (n_d - n_c)/(n_c + n_d)."""
        if self.total == 0:
            raise DomainError("r is undefined for the zero-photon outcome")
        return (self.n_d - self.n_c) / self.total


@dataclass
class OutcomeDistribution:
    """Enumerated outcome probabilities over a total-photon window.

    Columnar: entry i is the outcome (n_c[i], n_d[i]) with probability p[i].
    The columns are read-only, so that the cached views below stay valid.
    """

    n_c: np.ndarray
    n_d: np.ndarray
    p: np.ndarray
    cutoff_total: int
    captured_mass: float

    def __post_init__(self):
        self.n_c = np.asarray(self.n_c, dtype=np.int64)
        self.n_d = np.asarray(self.n_d, dtype=np.int64)
        self.p = np.asarray(self.p, dtype=np.float64)
        if not (self.n_c.ndim == 1 and self.n_c.shape == self.n_d.shape == self.p.shape):
            raise DomainError("n_c, n_d and p must be 1-d arrays of one length")
        for col in (self.n_c, self.n_d, self.p):
            col.flags.writeable = False

    @cached_property
    def entries(self) -> tuple:
        """(PhotonOutcome, p) pairs; a compatibility view of the columns."""
        return tuple(
            (PhotonOutcome(nc, nd), q)
            for nc, nd, q in zip(self.n_c.tolist(), self.n_d.tolist(), self.p.tolist())
        )

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(self.p)

    def mean_total(self) -> float:
        """Mean of n_c + n_d under the (renormalized) captured mass."""
        tot = (self.n_c + self.n_d).astype(float)
        return float(np.dot(tot, self.p) / self.captured_mass)


# ---------------------------------------------------------------------------
# phases and amplitude envelope
# ---------------------------------------------------------------------------

def _as_m(m_z) -> float:
    """Spin projection as a float; int and real values all pass.

    The envelope and phase formulas are smooth functions of m, evaluated off
    the physical lattice too (peak positions, finite differences).
    """
    try:
        return float(m_z)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot interpret {m_z!r} as a spin projection") from exc


def _phi(params: QndParams, m):
    return params.gt * m / 2.0 + params.phi_chigamma / 2.0 + math.pi / 4.0


def phase_phi(params: QndParams, m_z) -> float:
    """Interference phase phi(m_z) = gt m_z / 2 + phi_chigamma / 2 + pi / 4."""
    return _phi(params, _as_m(m_z))


def detector_phases(params: QndParams, m_z) -> tuple[float, float]:
    """Per-count phases (phi_c, phi_d) imprinted by each detected photon.

    These are arctan(tan(eta) tan(phi)) and arctan(cot(eta) tan(phi)) - pi/2
    on the principal branch, continued across the branch points of tan(phi)
    through atan2 so that e^{i n phi} stays continuous in m_z.  The branch
    content is physical: it carries the sign flips of the underlying
    interfered amplitudes, and is validated against the direct product form.
    """
    phic, phid = _phase_arrays(params, np.array([_as_m(m_z)]))
    return float(phic[0]), float(phid[0])


def _phase_arrays(params: QndParams, m: np.ndarray):
    phi = _phi(params, np.asarray(m, dtype=float))
    ag, ac = params.abs_gamma, params.abs_chi
    sp, cp = np.sin(phi), np.cos(phi)
    phi_c = np.arctan2((ac - ag) * sp, (ac + ag) * cp)
    phi_d = np.arctan2(-(ag + ac) * sp, (ag - ac) * cp) - math.pi / 2.0
    if params.eta > 0.0:
        phi_d = phi_d + math.pi
    # only e^{i n phi} with integer n is ever used
    return phi_c, _wrap_pi(phi_d)


def _log_bases(params: QndParams, m: np.ndarray):
    """log of the envelope bases 1 +- cos(2 eta) cos(2 phi(m_z)).

    Each base equals ||gamma| -+ |chi| e^{2 i phi}|^2 / (|gamma|^2+|chi|^2),
    a sum of squares, which stays accurate where the base nearly vanishes.
    Exact zeros map to a large negative sentinel (0^0 := 1 is handled by the
    count multiplying the log).
    """
    m = np.asarray(m, dtype=float)
    beta = params.gt * m + params.phi_chigamma
    ag, ac = params.abs_gamma, params.abs_chi
    sb, cb = np.sin(beta), np.cos(beta)
    s = params.photon_mean
    base_c = ((ag - ac * sb) ** 2 + (ac * cb) ** 2) / s
    base_d = ((ag + ac * sb) ** 2 + (ac * cb) ** 2) / s
    with np.errstate(divide="ignore"):
        log_c = np.where(base_c > 0.0, np.log(np.maximum(base_c, 1e-320)), _LOG_ZERO)
        log_d = np.where(base_d > 0.0, np.log(np.maximum(base_d, 1e-320)), _LOG_ZERO)
    return log_c, log_d


def _envelope(params: QndParams, n_c, n_d, m: np.ndarray):
    """C[B] and E[B, len(m)] of the outcomes (n_c[b], n_d[b]); see `eigen`.

    The bases are read once for the whole batch.  An exact zero base (the
    _LOG_ZERO sentinel) raised to a positive count is cut to -inf here, and
    nothing else is: a finite envelope stays finite however large the counts.
    """
    n_c, n_d = np.asarray(n_c), np.asarray(n_d)
    if not (n_c.ndim == 1 and n_c.shape == n_d.shape):
        raise DomainError("n_c and n_d must be 1-d arrays of one length")
    if n_c.size:
        _check_counts(min(n_c.min(), n_d.min()), max(n_c.max(), n_d.max()))
    n_c, n_d = n_c.astype(np.int64), n_d.astype(np.int64)
    s = params.photon_mean
    log_c = -s / 2.0 + 0.5 * (n_c + n_d) * math.log(s / 2.0)
    lc, ld = _log_bases(params, m)
    log_f = log_factorial(n_c) + log_factorial(n_d)
    log_e = 0.5 * n_c[:, None] * lc + 0.5 * n_d[:, None] * ld - 0.5 * log_f[:, None]
    log_e[((n_c[:, None] > 0) & (lc == _LOG_ZERO))
          | ((n_d[:, None] > 0) & (ld == _LOG_ZERO))] = -math.inf
    return log_c, log_e


def eigen(params: QndParams, outcome: PhotonOutcome, m):
    """The operator's eigenvalue lambda(m_z) over an array of m_z, factorised.

    ln lambda(m) = C + E(m) + i Phi(m), returned as (C, E, Phi):

    * C = -s/2 + (n/2) ln(s/2), a constant set by the outcome alone
      (s = |gamma|^2 + |chi|^2, n = n_c + n_d);
    * E = ln A(m), the log of the non-negative envelope, -inf at its exact
      zeros;
    * Phi = n_c phi_c(m) + n_d phi_d(m) plus an m-independent phase that
      makes the product equal the direct form; not reduced mod 2 pi.

    This is the one place the spectral form is assembled (the envelope in
    `_envelope`); every other evaluation of the operator reads it from here.
    """
    m = np.asarray(m, dtype=float)
    nc, nd = outcome.n_c, outcome.n_d
    log_c, log_e = _envelope(params, [nc], [nd], m)
    pc, pd = _phase_arrays(params, m)
    glob = outcome.total * (
        cmath.phase(params.gamma) + params.phi_chigamma / 2.0 + math.pi / 4.0
    )
    if params.eta <= 0.0:
        glob += nd * math.pi
    return float(log_c[0]), log_e[0], nc * pc + nd * pd + glob


def log_amplitude(params: QndParams, outcome: PhotonOutcome, m_z) -> float:
    """ln A(m_z) of the non-negative amplitude envelope; -inf at exact zeros."""
    return float(eigen(params, outcome, [_as_m(m_z)])[1][0])


def amplitude(params: QndParams, outcome: PhotonOutcome, m_z) -> float:
    """Amplitude envelope A(m_z) >= 0 the measurement imprints on m_z."""
    return math.exp(log_amplitude(params, outcome, m_z))


def log_matrix_element(params: QndParams, outcome: PhotonOutcome, m_z):
    """(log magnitude, phase) of <J m_z|M|J m_z> via the spectral form."""
    log_c, log_e, phase = eigen(params, outcome, [_as_m(m_z)])
    if log_e[0] == -math.inf:
        return -math.inf, 0.0
    return float(log_c + log_e[0]), _wrap_pi(float(phase[0]))


def log_matrix_element_direct(params: QndParams, outcome: PhotonOutcome, m_z):
    """(log magnitude, phase) of the same eigenvalue from first principles.

    Evaluates the photon-count powers of the interfered coherent amplitudes
        alpha_c = (gamma e^{-i gt m/2} + i chi e^{+i gt m/2}) / sqrt(2)
        alpha_d = (i gamma e^{-i gt m/2} + chi e^{+i gt m/2}) / sqrt(2)
    in log-polar form.  Kept free of the spectral machinery on purpose: it is
    the oracle the spectral phase conventions are checked against.
    """
    m = _as_m(m_z)
    rot = cmath.exp(-0.5j * params.gt * m)
    a_c = (params.gamma * rot + 1j * params.chi / rot) / math.sqrt(2.0)
    a_d = (1j * params.gamma * rot + params.chi / rot) / math.sqrt(2.0)
    logmag = -params.photon_mean / 2.0 - 0.5 * (
        log_factorial(outcome.n_c) + log_factorial(outcome.n_d)
    )
    phase = 0.0
    for a, n in ((a_c, outcome.n_c), (a_d, outcome.n_d)):
        if n == 0:
            continue
        if abs(a) == 0.0:
            return -math.inf, 0.0
        logmag += n * math.log(abs(a))
        phase += n * cmath.phase(a)
    return float(logmag), _wrap_pi(phase)


# ---------------------------------------------------------------------------
# operator action and outcome statistics
# ---------------------------------------------------------------------------

def apply(params: QndParams, outcome: PhotonOutcome,
          state: CollectiveState) -> CollectiveState:
    """Act with the measurement operator; returns the unnormalized state.

    Diagonal in (J, m_z): every amplitude is multiplied by the full
    eigenvalue including the absolute prefactor, so the squared norm of the
    result is exactly the outcome probability of a normalized input.
    """
    log_c, log_e, phase = eigen(params, outcome, state.support()[0])
    return scale_amplitudes(state, log_c + log_e, phase)


def _log_prob(log_c: np.ndarray, log_e: np.ndarray, log_w: np.ndarray):
    """ln P of each outcome row, from C[B] and E[B, k] over the k support m_z.

    log_w[k] = ln |psi_m|^2.  Each row's terms x = 2 E + ln w are shifted by
    their peak before they are exponentiated, so outcomes deep in the tail
    still normalize cleanly, and a weight too small for a double still
    counts where its envelope is large; with n2 = sum_m e^{x - shift},
    ln P = 2 C + shift + ln n2.  Returns (ln P[B], shift[B], q[B, k]), q the
    posterior weights, normalized per row; a zero-probability row has
    ln P = -inf and all-zero weights.
    """
    # x, shifted and exponentiated in place: one B x k array
    q = 2.0 * log_e
    q += log_w
    shift = np.max(q, axis=1, initial=-math.inf)
    live = shift > -math.inf
    q -= np.where(live, shift, 0.0)[:, None]
    with np.errstate(under="ignore"):
        np.exp(q, out=q)
    # each live row holds its peak term, e^0 = 1
    n2 = q.sum(axis=1)
    log_p = np.full(shift.shape, -math.inf)
    log_p[live] = 2.0 * log_c[live] + shift[live] + np.log(n2[live])
    q[live] /= n2[live, None]
    return log_p, shift, q


def condition(params: QndParams, outcome: PhotonOutcome,
              state: CollectiveState) -> tuple[float, CollectiveState | None]:
    """ln P(outcome) and the normalized posterior, from one kernel evaluation.

    ln P is formed as in `condition_many`; the posterior is the state scaled
    by the envelope shifted by half the same peak, with the per-m_z detector
    phases kept.  A zero-probability outcome gives (-inf, None).
    """
    if not state.is_normalized():
        raise PreconditionError("conditioning on an outcome needs a normalized state")
    m, log_w = state.support(log=True)
    log_c, log_e, phase = eigen(params, outcome, m)
    log_p, shift, _ = _log_prob(np.array([log_c]), log_e[None], log_w)
    if log_p[0] == -math.inf:
        return -math.inf, None
    # |psi_m| e^{E - shift / 2} <= 1, with equality at the peak term
    return float(log_p[0]), normalize(scale_amplitudes(state, log_e - shift[0] / 2.0, phase))


def condition_many(params: QndParams, n_c, n_d, state: CollectiveState):
    """ln P, posterior <J_z> and posterior Var J_z of each outcome (n_c[b], n_d[b]).

    The batched form of `condition` followed by `moments`: the bases are
    read once over the support, every outcome's row of terms
    2 E + ln |psi_m|^2 is shifted by its own peak, and the normalized
    weights reduce to <J_z> and Var J_z = max(0, <m^2> - <m>^2).  A
    zero-probability outcome has ln P = -inf and nan moments.
    """
    if not state.is_normalized():
        raise PreconditionError("conditioning on an outcome needs a normalized state")
    m, log_w = state.support(log=True)
    log_c, log_e = _envelope(params, n_c, n_d, m)
    log_p, _, q = _log_prob(log_c, log_e, log_w)
    mean = q @ m
    var = np.maximum(0.0, q @ (m * m) - mean ** 2)
    dead = log_p == -math.inf
    mean[dead] = var[dead] = math.nan
    return log_p, mean, var


def outcome_probability(params: QndParams, outcome: PhotonOutcome,
                        state: CollectiveState) -> float:
    """Probability of detecting (n_c, n_d) on a normalized state."""
    return math.exp(condition(params, outcome, state)[0])


def posterior(params: QndParams, outcome: PhotonOutcome,
              state: CollectiveState) -> CollectiveState:
    """Normalized post-measurement state; see `condition`."""
    post = condition(params, outcome, state)[1]
    if post is None:
        raise DomainError("zero-probability outcome has no posterior")
    return post


def outcome_distribution(params: QndParams, state: CollectiveState,
                         mass_tolerance: float,
                         max_total: int | None = None) -> OutcomeDistribution:
    """Outcome probabilities over a total-photon window holding the requested mass.

    P(n_c, n_d) = sum_m |psi_m|^2 Pois(n_c; lam_c(m)) Pois(n_d; lam_d(m)), with
    lam = (s/2) e^{log base} and lam_c + lam_d = s, so n_c + n_d ~ Pois(s)
    whatever the state.  On that marginal alone the window, half-width
    k sqrt(s) around s, grows over k = 4, 5, ... until it holds
    1 - mass_tolerance.  The rows, by total and then ascending n_c, are sums
    over m of products of two per-port Poisson tables, computed as blocked
    BLAS matrix products (`_mixture_rows`); the row set and order are those
    of one contraction per total, and the last bit of p may differ between
    BLAS builds.  A window past max_total (carrying the marginal mass up to
    it), over MAX_ENTRIES entries or with per-port tables over MAX_ENTRIES
    entries raises ResourceCapError before any table is built; a total whose
    rows miss its Pois(s) mass by _TOTAL_RTOL raises DomainError.  The rows
    are enumerated by `_OutcomeTable`, which `photon-dist` streams instead.
    """
    table = _OutcomeTable(params, state, mass_tolerance, max_total)
    p = np.empty(table.size)
    for start, piece in table.pieces(table.size):
        p[start:start + piece.size] = piece
    # the counts are built once the per-port tables and, with this last view
    # of it, the engine's block buffer are freed
    del piece
    n_c, n_d = table.counts(0, p.size)
    return OutcomeDistribution(n_c=n_c, n_d=n_d, p=p, cutoff_total=table.cutoff_total,
                               captured_mass=table.captured_mass)


class _OutcomeTable:
    """The rows of `outcome_distribution`, enumerated one block of totals at a time.

    Construction grows the window and applies every cap; no table exists
    yet.  `pieces` builds the per-port tables and yields the rows' p in row
    order; `counts` gives the (n_c, n_d) of any run of rows from the window
    alone.  Once the last piece is out, `captured_mass` holds the sum of the
    window's per-total masses.
    """

    def __init__(self, params: QndParams, state: CollectiveState,
                 mass_tolerance: float, max_total: int | None = None):
        if not state.is_normalized():
            raise PreconditionError("outcome_distribution needs a normalized state")
        if not (0.0 < mass_tolerance < 1.0):
            raise DomainError("mass_tolerance must lie strictly between 0 and 1")
        if max_total is not None and max_total < 0:
            raise DomainError("max_total must be non-negative")
        s = params.photon_mean
        cap = int(max_total) if max_total is not None else int(4.0 * s + 100.0)
        m, weights = state.support()
        # ln n! for n = 0..top, extended by the rows each wider window adds
        lf = np.empty(0)
        k = 4.0
        while True:
            lo = max(0, math.ceil(s - k * math.sqrt(s)))
            hi = math.floor(s + k * math.sqrt(s))
            top = min(hi, cap)
            n_rows = (top - lo + 1) * (lo + top + 2) // 2
            if n_rows > MAX_ENTRIES:
                raise ResourceCapError(f"the photon window {lo}..{top} holds {n_rows} "
                                       f"outcomes, over the cap of {MAX_ENTRIES}")
            if 2 * weights.size * (hi + 1) > MAX_ENTRIES:
                raise ResourceCapError(f"the per-port Poisson tables (2 x {weights.size} x "
                                       f"{hi + 1}) are over the cap of {MAX_ENTRIES} entries")
            lf = np.concatenate([lf, log_factorial(np.arange(lf.size, top + 1))])
            marginal = weights.sum() * np.exp(np.arange(lo, top + 1) * math.log(s) - s
                                              - lf[lo:])
            mass = float(marginal.sum())
            if hi > cap:
                raise ResourceCapError(f"photon window exceeded the cap of {cap} total "
                                       "photons", captured_mass=mass)
            if mass >= 1.0 - mass_tolerance:
                break
            k += 1.0
        self._params, self._m, self._weights = params, m, weights
        self._lf, self._marginal = lf, marginal
        self.lo, self.cutoff_total = lo, hi
        self._totals = np.arange(lo, hi + 1, dtype=np.int64)
        # row index of each total's first row (n_c = 0)
        self._starts = (self._totals - lo) * (self._totals + lo + 1) // 2
        self.size = n_rows
        self.captured_mass = None

    def pieces(self, rows: int):
        """Yield (start, p) for runs of at most `rows` rows in row order.

        p views a buffer that the next block of _BLOCK totals overwrites, and
        a block is yielded only once its rows sum to each total's Poisson mass.
        """
        lo, hi = self.lo, self.cutoff_total
        # Pois(n; lam) = exp(n ln lam - lam - ln n!); exactly [n == 0] at lam = 0
        log_lam = math.log(self._params.photon_mean / 2.0) + np.stack(
            _log_bases(self._params, self._m))
        table = np.multiply.outer(log_lam, np.arange(hi + 1))
        with np.errstate(under="ignore"):
            table -= self._lf
            table -= np.exp(log_lam)[..., None]
            # out of place: freeing the argument, as large as the table, lets
            # glibc's malloc keep the CSV writer's per-chunk scratch in its
            # heap instead of faulting fresh pages in for every chunk (60k
            # page faults, 0.15 s, on a table of 1.07M rows on a 2-core host)
            table = np.exp(table)
        table[0] *= self._weights[:, None]
        by_total = np.empty(hi - lo + 1)
        start = 0
        for i, p in enumerate(_mixture_rows(table[0].T, table[1], lo)):
            # the totals lo + i0 .. lo + i1 - 1 of this block
            i0 = i * _BLOCK
            i1 = min(i0 + _BLOCK, hi - lo + 1)
            mass = np.add.reduceat(p, self._starts[i0:i1] - self._starts[i0])
            marginal = self._marginal[i0:i1]
            bad = np.flatnonzero(np.abs(mass - marginal) > _TOTAL_RTOL * marginal)
            if bad.size:
                raise DomainError(f"the rows of total {lo + i0 + bad[0]} miss its "
                                  "Poisson mass")
            by_total[i0:i1] = mass
            for j in range(0, p.size, rows):
                yield start + j, p[j:j + rows]
            start += p.size
        self.captured_mass = float(by_total.sum())

    def counts(self, start: int, n: int):
        """(n_c, n_d) of rows start .. start + n - 1 (n >= 1): running sums of
        +-1 steps that restart at each total's first row."""
        first = int(np.searchsorted(self._starts, start, side="right")) - 1
        end = int(np.searchsorted(self._starts, start + n))
        at = self._starts[first + 1:end] - start
        totals = self._totals[first + 1:end]
        n_c = np.ones(n, dtype=np.int64)
        n_c[at] = 1 - totals
        n_c[0] = start - self._starts[first]
        np.cumsum(n_c, out=n_c)
        n_d = np.full(n, -1, dtype=np.int64)
        n_d[at] = totals
        n_d[0] = self._totals[first] - n_c[0]
        np.cumsum(n_d, out=n_d)
        return n_c, n_d


def _mixture_rows(a: np.ndarray, b: np.ndarray, lo: int):
    """Yield, for each block of _BLOCK consecutive totals from lo up to hi,
    the block's rows by total and then ascending n_c, of
    P(n_c, t - n_c) = sum_m a[n_c, m] b[m, t - n_c]; a is (hi + 1, k), b (k, hi + 1).

    For each block [t0, t1) and each tile of _TILE values of n_c below t1,
    one GEMM of a's tile rows with the n_d columns the block reaches gives
    every (n_c, n_d) pair of the tile.  The block's totals are the
    anti-diagonals of that product: a sheared view copies them into a block
    buffer with one row per total, and the prefix n_c <= t of each row is
    that total's run of rows.  Where n_c > t, the tile reads n_d < 0 from the
    _BLOCK - 1 zero columns padded in front of b.  The runs are then packed
    to the front of the same buffer, in place, and yielded as a view that the
    next block overwrites.
    """
    hi = a.shape[0] - 1
    pad = _BLOCK - 1
    b_pad = np.zeros((b.shape[0], pad + hi + 1))
    b_pad[:, pad:] = b
    buffer = np.empty(_BLOCK * (hi + 1))
    block = buffer.reshape(_BLOCK, hi + 1)
    scratch = np.empty(_TILE * (_BLOCK + _TILE - 1))
    for t0 in range(lo, hi + 1, _BLOCK):
        t1 = min(t0 + _BLOCK, hi + 1)
        for i0 in range(0, t1, _TILE):
            i1 = min(i0 + _TILE, t1)
            rows, width = i1 - i0, t1 - t0 + i1 - i0 - 1
            # column c of the product is n_d = t0 - (i1 - 1) + c
            j0 = pad + t0 - (i1 - 1)
            prod = scratch[:rows * width].reshape(rows, width)
            np.matmul(a[i0:i1], b_pad[:, j0:j0 + width], out=prod)
            # diagonal[r, u] = prod[r, rows - 1 - r + u]: n_c = i0 + r, total t0 + u
            step = prod.strides[1]
            diagonal = as_strided(prod[:, rows - 1:], shape=(rows, t1 - t0),
                                  strides=(prod.strides[0] - step, step))
            block[:t1 - t0, i0:i1] = diagonal.T
        # run t moves down from row t - t0 of the block, never over a run
        # still to move: each run is at most hi + 1 long
        start = 0
        for t in range(t0, t1):
            buffer[start:start + t + 1] = block[t - t0, :t + 1]
            start += t + 1
        yield buffer[:start]


def _seed_array(seeds) -> np.ndarray:
    """The seeds as a uint64 array; DomainError for any outside [0, 2^64)."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind == "u":
        return seeds.astype(np.uint64, copy=False)
    seeds = [int(s) for s in seeds]
    bad = [s for s in seeds if not 0 <= s < 1 << 64]
    if bad:
        raise DomainError(f"seed {bad[0]} is outside [0, 2^64)")
    return np.array(seeds, dtype=np.uint64)


def sample_outcomes(dist: OutcomeDistribution, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF draws from the captured entries, renormalized: (n_c, n_d).

    Draw i uses the first uniform of numpy's PCG64 stream keyed by seeds[i]
    (`Generator(PCG64(seed)).random()`, computed in-package for the whole
    block), so a given (distribution, seed) pair yields the same outcome on
    every platform and numpy version.  A seed outside [0, 2^64) raises
    DomainError.
    """
    # imported here, so that importing the package does not load it
    from ._pcg64 import first_uniforms

    seeds = _seed_array(seeds)
    if dist.captured_mass <= 0.0 or dist.p.size == 0:
        raise DomainError("cannot sample from an empty distribution")
    target = first_uniforms(seeds) * dist.captured_mass
    idx = np.searchsorted(dist._cumulative, target, side="right")
    # side="right" never selects a zero-mass entry (its cumulative sum equals
    # its predecessor's); a draw past the end takes the last entry with mass
    past = idx == dist.p.size
    if past.any():
        live = np.flatnonzero(dist.p)
        if live.size == 0:
            raise DomainError("distribution carries no probability mass")
        idx[past] = live[-1]
    return dist.n_c[idx], dist.n_d[idx]


def sample_outcome(dist: OutcomeDistribution, seed: int) -> PhotonOutcome:
    """One draw of `sample_outcomes`, keyed by `seed`."""
    n_c, n_d = sample_outcomes(dist, [seed])
    return PhotonOutcome(int(n_c[0]), int(n_d[0]))


def params_to_json(params: QndParams) -> dict:
    return {
        "gamma": [params.gamma.real, params.gamma.imag],
        "chi": [params.chi.real, params.chi.imag],
        "gt": params.gt,
    }


def params_from_json(data: dict) -> QndParams:
    try:
        g = data["gamma"]
        c = data["chi"]
        gamma = complex(g[0], g[1]) if isinstance(g, (list, tuple)) else complex(g)
        chi = complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
        return QndParams(gamma=gamma, chi=chi, gt=float(data["gt"]))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DomainError(f"malformed params record: {exc}") from exc
