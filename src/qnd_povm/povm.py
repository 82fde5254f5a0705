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
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._record import Record
from .errors import DomainError, PreconditionError, ResourceCapError, count_text, reserve
from .numerics import _whole, finite, log_factorial
from .spin_state import CollectiveState, normalize, scale_amplitudes

_TWO_PI = 2.0 * math.pi
# sentinel for log(0) that survives multiplication by small integer counts
_LOG_ZERO = -1e9
_TOTAL_RTOL = 1e-10
# the outcome engine's block of consecutive totals, and its GEMM tile of n_c
_BLOCK = 64
_TILE = 32
# outcomes per conditioning pass: bounds the kernel's two rows x support buffers
_ROWS = 128
# the sampler's `window` of Pois(lam) leaves at most e^-_TAIL in each tail
_TAIL = 43.0


def _wrap_pi(x):
    """Reduce an angle, or an array of them, to (-pi, pi]."""
    return math.pi - (math.pi - x) % _TWO_PI


# photon counts are the integers in [0, 2^53), every one of which a double holds
_COUNTS = ("photon counts must be non-negative", "photon counts must be integers",
           "photon counts must be below 2^53")


class QndParams(Record):
    """Light amplitudes and interaction phase of one QND measurement.

    gamma and chi are the coherent amplitudes of the two polarization modes,
    gt the dimensionless interaction phase.  The derived asymmetry eta obeys
    tan(eta) = (|chi| - |gamma|)/(|chi| + |gamma|) and the relative light
    phase phi_chigamma = arg(chi) - arg(gamma), reduced to (-pi, pi].
    """

    def __init__(self, gamma: complex, chi: complex, gt: float):
        gr, gi, cr, ci, gt = finite([np.real(gamma), np.imag(gamma), np.real(chi), np.imag(chi),
                                     gt], "non-finite measurement parameters", array=True)
        g, c = complex(gr, gi), complex(cr, ci)
        if g == 0 or c == 0:
            raise DomainError("both light amplitudes must be nonzero")
        self._keep(g, c, float(gt))
        try:
            mean = self.photon_mean  # inf when the sum overflows
        except OverflowError:  # raised by abs() or ** on an overflowing term
            mean = math.inf
        if mean == math.inf:
            raise DomainError("|gamma|^2 + |chi|^2 overflows a double")
        # the envelope bases square |gamma| + |chi| sin(beta), up to this square
        reach = self.abs_gamma + self.abs_chi
        if reach * reach == math.inf:
            raise DomainError("(|gamma| + |chi|)^2 overflows a double")
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


class PhotonOutcome(Record):
    """Photon counts registered by the two detectors."""

    def __init__(self, n_c: int, n_d: int):
        self._keep(_whole(n_c, _COUNTS, hi=1 << 53), _whole(n_d, _COUNTS, hi=1 << 53))

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


class OutcomeDistribution(Record):
    """Enumerated outcome probabilities over a total-photon window.

    Columnar: entry i is the outcome (n_c[i], n_d[i]) with probability p[i].
    The columns are read-only, so that the cached views below stay valid.
    """

    def __init__(self, n_c: np.ndarray, n_d: np.ndarray, p: np.ndarray,
                 cutoff_total: int, captured_mass: float):
        n_c = np.asarray(n_c, dtype=np.int64)
        n_d = np.asarray(n_d, dtype=np.int64)
        p = np.asarray(p, dtype=np.float64)
        if not (n_c.ndim == 1 and n_c.shape == n_d.shape == p.shape):
            raise DomainError("n_c, n_d and p must be 1-d arrays of one length")
        for col in (n_c, n_d, p):
            col.flags.writeable = False
        self._keep(n_c, n_d, p, cutoff_total, captured_mass)

    @cached_property
    def entries(self) -> tuple:
        """(PhotonOutcome, p) pairs; a compatibility view of the columns."""
        return tuple(
            (PhotonOutcome(nc, nd), q)
            for nc, nd, q in zip(self.n_c.tolist(), self.n_d.tolist(), self.p.tolist())
        )

    def mean_total(self) -> float:
        """Mean of n_c + n_d under the rows, renormalized to their sum."""
        tot = (self.n_c + self.n_d).astype(float)
        return float(np.dot(tot, self.p) / self.p.sum())


# ---------------------------------------------------------------------------
# phases and amplitude envelope
# ---------------------------------------------------------------------------

_M_Z = "m_z must be a finite real"  # on the lattice or off it (peaks, differences)


def _phi(params: QndParams, m):
    return params.gt * m / 2.0 + params.phi_chigamma / 2.0 + math.pi / 4.0


def phase_phi(params: QndParams, m_z) -> float:
    """Interference phase phi(m_z) = gt m_z / 2 + phi_chigamma / 2 + pi / 4."""
    return _phi(params, finite(m_z, _M_Z))


def detector_phases(params: QndParams, m_z) -> tuple[float, float]:
    """Per-count phases (phi_c, phi_d) imprinted by each detected photon.

    These are arctan(tan(eta) tan(phi)) and arctan(cot(eta) tan(phi)) - pi/2
    on the principal branch, continued across the branch points of tan(phi)
    through atan2 so that e^{i n phi} stays continuous in m_z.  The branch
    content is physical: it carries the sign flips of the underlying
    interfered amplitudes, and is validated against the direct product form.
    """
    phic, phid = _phase_arrays(params, np.array([finite(m_z, _M_Z)]))
    return float(phic[0]), float(phid[0])


def _phase_arrays(params: QndParams, m: np.ndarray):
    phi = _phi(params, m)
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


def _counts(n_c, n_d):
    """Two equal-length 1-d arrays of valid photon counts, as int64."""
    n_c, n_d = (_whole(n, _COUNTS, hi=1 << 53, array=True) for n in (n_c, n_d))
    if not (n_c.ndim == 1 and n_c.shape == n_d.shape):
        raise DomainError("n_c and n_d must be 1-d arrays of one length")
    return n_c.astype(np.int64), n_d.astype(np.int64)


class _Kernel:
    """The envelope of `eigen` on k fixed m_z, for batches of B outcomes,
    and with log weights log_w[k] = ln |psi_m|^2 the conditioning on them.

    The bases over the m_z, and which of them are exact zeros (the
    _LOG_ZERO sentinel), are read once, at construction.  Each call builds
    its B x k arrays in two buffers that the next call reuses, so the arrays
    it returns are views that the next call overwrites.
    """

    def __init__(self, params: QndParams, m, log_w: np.ndarray | None = None):
        self.m = np.asarray(m, dtype=float)
        self._log_w = log_w
        self._s = params.photon_mean
        self._log_half_s = math.log(self._s / 2.0)
        self.bases = _log_bases(params, self.m)
        zeros = tuple(base == _LOG_ZERO for base in self.bases)
        self._zeros = zeros if zeros[0].any() or zeros[1].any() else None
        self._buffers = (np.empty(0), np.empty(0))

    def envelope(self, n_c, n_d):
        """C[B] and E[B, k] of the outcomes (n_c[b], n_d[b]), int64 arrays
        of valid photon counts; see `eigen`.

        An exact zero base raised to a positive count is cut to -inf here,
        and nothing else is: a finite envelope stays finite however large
        the counts.
        """
        shape = (n_c.size, self.m.size)
        size = shape[0] * shape[1]
        if self._buffers[0].size < size:
            self._buffers = (np.empty(size), np.empty(size))
        log_e, scratch = (b[:size].reshape(shape) for b in self._buffers)
        lc, ld = self.bases
        log_c = -self._s / 2.0 + 0.5 * (n_c + n_d) * self._log_half_s
        np.multiply.outer(0.5 * n_c, lc, out=log_e)
        log_e += np.multiply.outer(0.5 * n_d, ld, out=scratch)
        log_e -= (0.5 * (log_factorial(n_c) + log_factorial(n_d)))[:, None]
        if self._zeros is not None:
            zc, zd = self._zeros
            log_e[np.multiply.outer(n_c > 0, zc) | np.multiply.outer(n_d > 0, zd)] = -math.inf
        return log_c, log_e

    def condition(self, n_c, n_d):
        """(ln P[B], shift[B], E[B, k], q[B, k]) of the outcomes, as for
        `envelope`, on the state of the log weights.

        Each row's terms x = 2 E + ln w are shifted by their peak before
        they are exponentiated, so outcomes deep in the tail still normalize
        cleanly, and a weight too small for a double still counts where its
        envelope is large; with n2 = sum_m e^{x - shift},
        ln P = 2 C + shift + ln n2.  q holds the posterior weights,
        normalized per row; a zero-probability row has ln P = -inf and
        all-zero weights.
        """
        log_c, log_e = self.envelope(n_c, n_d)
        # x, shifted and exponentiated in the second buffer
        q = self._buffers[1][:log_e.size].reshape(log_e.shape)
        np.multiply(log_e, 2.0, out=q)
        q += self._log_w
        shift = np.max(q, axis=1, initial=-math.inf)
        live = shift > -math.inf
        q -= np.where(live, shift, 0.0)[:, None]
        with np.errstate(under="ignore"):
            np.exp(q, out=q)
        # each live row holds its peak term, e^0 = 1
        n2 = q.sum(axis=1)
        log_p = np.full(shift.shape, -math.inf)
        log_p[live] = 2.0 * log_c[live] + shift[live] + np.log(n2[live])
        q /= np.where(live, n2, 1.0)[:, None]
        return log_p, shift, log_e, q


def _phase(params: QndParams, outcome: PhotonOutcome, m: np.ndarray):
    """Phi(m) of `eigen`."""
    pc, pd = _phase_arrays(params, m)
    glob = outcome.total * (
        cmath.phase(params.gamma) + params.phi_chigamma / 2.0 + math.pi / 4.0
    )
    if params.eta <= 0.0:
        glob += outcome.n_d * math.pi
    return outcome.n_c * pc + outcome.n_d * pd + glob


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
    `_Kernel`, the phase in `_phase`); every other evaluation of the
    operator reads it from here or from those two.  An m_z that `finite`
    refuses raises DomainError.
    """
    kernel = _Kernel(params, finite(m, _M_Z, array=True))
    log_c, log_e = kernel.envelope(np.array([outcome.n_c]), np.array([outcome.n_d]))
    return float(log_c[0]), log_e[0], _phase(params, outcome, kernel.m)


def log_amplitude(params: QndParams, outcome: PhotonOutcome, m_z) -> float:
    """ln A(m_z) of the non-negative amplitude envelope; -inf at exact zeros."""
    return float(eigen(params, outcome, [finite(m_z, _M_Z)])[1][0])


def amplitude(params: QndParams, outcome: PhotonOutcome, m_z) -> float:
    """Amplitude envelope A(m_z) >= 0 the measurement imprints on m_z."""
    return math.exp(log_amplitude(params, outcome, m_z))


def log_matrix_element(params: QndParams, outcome: PhotonOutcome, m_z):
    """(log magnitude, phase) of <J m_z|M|J m_z> via the spectral form."""
    log_c, log_e, phase = eigen(params, outcome, [finite(m_z, _M_Z)])
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
    m = finite(m_z, _M_Z)
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


class _Mixture:
    """The outcome law sum_m |psi_m|^2 Pois(n_c; lam_c(m)) Pois(n_d; lam_d(m))
    of a normalized state, lam = (s/2) e^{log base} with lam_c + lam_d = s,
    that conditioning, enumeration and sampling read.  Its kernel and ln lam
    are built on first use, so a cap acts before they exist."""

    def __init__(self, params: QndParams, state: CollectiveState):
        if not state.is_normalized():
            raise PreconditionError("outcome statistics need a normalized state")
        self.params, self.state = params, state
        self.m, self.weights = state.support()

    @cached_property
    def kernel(self) -> _Kernel:
        return _Kernel(self.params, self.m, self.state.support(log=True)[1])

    @cached_property
    def log_lam(self) -> np.ndarray:
        return math.log(self.params.photon_mean / 2.0) + np.stack(self.kernel.bases)

    def condition(self, outcome: PhotonOutcome):
        """`condition` of `outcome` on the state."""
        log_p, shift, log_e, _ = self.kernel.condition(
            np.array([outcome.n_c]), np.array([outcome.n_d]))
        if log_p[0] == -math.inf:
            return -math.inf, None
        # |psi_m| e^{E - shift / 2} <= 1, with equality at the peak term
        return float(log_p[0]), normalize(scale_amplitudes(
            self.state, log_e[0] - shift[0] / 2.0, _phase(self.params, outcome, self.m)))

    def condition_many(self, n_c, n_d):
        """`condition_many`, _ROWS outcomes at a time in the kernel's buffers."""
        n_c, n_d = _counts(n_c, n_d)
        log_p, mean, var = (np.empty(n_c.size) for _ in range(3))
        for lo in range(0, n_c.size, _ROWS):
            rows = slice(lo, lo + _ROWS)
            log_p[rows], _, d, q = self.kernel.condition(n_c[rows], n_d[rows])
            # <J_z> summed row by row in E's buffer, so that a row's bits do
            # not hang on its place in the batch, as a GEMV's rounding does
            np.multiply(q, self.m, out=d)
            mean[rows] = d.sum(axis=1)
            # a second pass about each row's own <J_z>: near a Dicke state
            # <m^2> - <m>^2 would cancel
            np.subtract(self.m, mean[rows, None], out=d)
            d *= d
            d *= q
            var[rows] = d.sum(axis=1)
        dead = log_p == -math.inf
        mean[dead] = var[dead] = math.nan
        return log_p, mean, var

    def pmf(self, lo, width: int) -> np.ndarray:
        """Pois(n; lam) = exp(n ln lam - lam - ln n!) for ln lam = log_lam[..., None]
        and the counts n = lo + 0 .. width - 1, lo an int or one per port and
        m_z: the one builder of per-port Poisson tables.  A dark port's ln lam
        holds the _LOG_ZERO sentinel: lam underflows to 0 and the row is
        exactly [n == 0], however large n.  ln n! is read over the counts
        lo.min() .. lo.max() + width - 1, refused over MAX_ENTRIES before it is built."""
        lo = np.broadcast_to(lo, self.log_lam.shape)
        first, last = int(lo.min()), int(lo.max()) + width - 1
        reserve(last - first + 1, "ln n! over {}..{} is over the cap of {cap} entries",
                first, last)
        # row i is ln n! of the counts first + i .. first + i + width - 1
        lf_rows = sliding_window_view(log_factorial(np.arange(first, last + 1)), width)
        out = np.empty(self.log_lam.shape + (width,))
        lam = np.exp(self.log_lam)
        # one port and _BLOCK rows of m_z at a time, each formed in its slice
        # of the tables from its own counts: beside the tables, one gathered
        # slice of ln n! is the only scratch
        for port in range(2):
            for r in range(0, out.shape[1], _BLOCK):
                rows = slice(r, r + _BLOCK)
                table = out[port, rows]
                np.add(lo[port, rows, None], np.arange(width), out=table)
                table *= self.log_lam[port, rows, None]
                with np.errstate(under="ignore"):
                    # the gathered slice is as large as the engine's block
                    # buffer: freeing it lets glibc's malloc keep that buffer
                    # and the CSV writer's per-chunk scratch in its heap
                    # instead of faulting fresh pages in for every chunk (with
                    # no such slice, a table of 1.07M rows took 56k page
                    # faults against 6.6k, and 0.2 s more, on a 2-core host)
                    table -= lf_rows[lo[port, rows] - first]
                    table -= lam[port, rows, None]
                    np.exp(table, out=table)
        return out

    def window(self, a: float):
        """(lo, width): the counts lo .. lo + width - 1 of each port and m_z,
        outside which Pois(lam) leaves at most e^-a in each tail.

        The window covers lam +- t, t = a/3 + sqrt(a^2/9 + 2 a lam), by
        Chernoff's bounds P(X >= lam + t) <= exp(-t^2 / (2 (lam + t/3))) and
        P(X <= lam - t) <= exp(-t^2 / (2 lam)).  Every window is as wide as
        the widest, and lo stops at 2^53, past which t is over 2^29.
        """
        lam = np.exp(self.log_lam)
        # sqrt(a^2/9 + 2 a lam), in a form that stays finite at any finite lam
        t = a / 3.0 + math.sqrt(2.0 * a) * np.sqrt(lam + a / 18.0)
        return np.clip(np.floor(lam - t), 0, 2**53).astype(np.int64), int(2.0 * t.max()) + 3

    def sampler(self):
        """`sample_outcomes` on the state, as a function of the seeds.

        The tables are built once, here.  A shot is an exact draw by three
        uniforms of its seed: u0 picks m_z by inverse CDF over |psi_m|^2, then
        u1 and u2 pick n_c ~ Pois(lam_c(m)) and n_d ~ Pois(lam_d(m)) by inverse
        CDF over the `window` of a = _TAIL = 43, 2 e^-43 < 2^-60 outside.  Each
        CDF row is scaled by its own total T, and u < 1 gives u T < T: no draw
        leaves its row or is clamped, and none lands on an entry of zero mass.
        The tables, 2 x support x width, and `pmf`'s ln n! over the counts
        the windows span are refused over MAX_ENTRIES before any is built;
        the tables' cap also keeps every count below 2^53.
        """
        cdf_m = np.cumsum(self.weights)
        lo, width = self.window(_TAIL)
        k = self.m.size
        reserve(2 * k * width, "the sampler's per-port Poisson tables (2 x {} x {}) are over "
                "the cap of {cap} entries", k, width)
        cdf = self.pmf(lo, width)
        # in place, and row i of port c, row k + i of port d
        cdf = np.cumsum(cdf, axis=2, out=cdf).reshape(2 * k, width)

        def draw(seeds):
            seeds = _seed_array(seeds)
            i = np.searchsorted(cdf_m, _uniforms(seeds, 0) * cdf_m[-1], side="right")
            rows = np.concatenate([i, i + k])
            counts = lo.ravel()[rows] + _inverse_cdf(cdf, rows, np.concatenate(
                [_uniforms(seeds, 1), _uniforms(seeds, 2)]))
            return counts[:seeds.size], counts[seeds.size:]

        return draw


def condition(params: QndParams, outcome: PhotonOutcome,
              state: CollectiveState) -> tuple[float, CollectiveState | None]:
    """ln P(outcome) and the normalized posterior, from one kernel evaluation.

    ln P is formed as in `condition_many`; the posterior is the state scaled
    by the envelope shifted by half the same peak, with the per-m_z detector
    phases kept.  A zero-probability outcome gives (-inf, None).
    """
    return _Mixture(params, state).condition(outcome)


def condition_many(params: QndParams, n_c, n_d, state: CollectiveState):
    """ln P, posterior <J_z> and posterior Var J_z of each outcome (n_c[b], n_d[b]).

    The batched form of `condition` followed by `moments`: each outcome's
    terms 2 E + ln |psi_m|^2 are shifted by their own peak, and Var J_z is
    the mean of (m - <J_z>)^2 about each posterior's own <J_z>, as `moments`
    takes it.  A zero-probability outcome has ln P = -inf and nan moments.
    """
    return _Mixture(params, state).condition_many(n_c, n_d)


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

    P(n_c, n_d) is the Poisson mixture of `_Mixture`, and n_c + n_d ~
    Pois(s) whatever the state.  On that marginal alone the window,
    half-width k sqrt(s) around s, grows over k = 4, 5, ... (below s = 1, by
    at least one total a step) until it holds 1 - mass_tolerance.  The rows,
    by total and then ascending n_c, are sums over m of products of two
    per-port Poisson tables, computed as blocked BLAS matrix products
    (`_mixture_rows`); the row set and order are those of one contraction
    per total, and the last bit of p may differ between BLAS builds.  A
    window past max_total (carrying the marginal mass up to it), over
    MAX_ENTRIES entries or with per-port tables over MAX_ENTRIES entries
    raises ResourceCapError before any table is built; a total whose rows
    miss its Pois(s) mass by _TOTAL_RTOL raises DomainError.  The rows are
    enumerated by `_OutcomeTable`, which `photon-dist` streams instead.
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
    alone.  `captured_mass` is the window's Pois(s) mass, which each total's
    rows match to _TOTAL_RTOL.
    """

    def __init__(self, params: QndParams, state: CollectiveState,
                 mass_tolerance: float, max_total: int | None = None):
        mixture = _Mixture(params, state)
        mass_tolerance = finite(mass_tolerance, "mass_tolerance must lie strictly between 0 and 1")
        if not (0.0 < mass_tolerance < 1.0):
            raise DomainError("mass_tolerance must lie strictly between 0 and 1")
        s = params.photon_mean
        # 4 s + 100 overflows from s ~ 4.5e307, where the row cap refuses anyway
        cap = (_whole(max_total, ("max_total must be non-negative",
                                  "max_total {} is not an integer", None))
               if max_total is not None else int(min(4.0 * s + 100.0, np.finfo(float).max)))
        support = mixture.m.size
        k, prev = 4.0, None
        while True:
            lo = max(0, math.ceil(s - k * math.sqrt(s)))
            hi = math.floor(s + k * math.sqrt(s))
            top = min(hi, cap)
            n_rows = (top - lo + 1) * (lo + top + 2) // 2
            reserve(n_rows, "the photon window {}..{} holds {} outcomes, over the cap of {cap}",
                    lo, top, n_rows)
            reserve(2 * support * (hi + 1), "the per-port Poisson tables (2 x {} x {}) are over "
                    "the cap of {cap} entries", support, hi + 1)
            totals = np.arange(lo, top + 1)
            marginal = mixture.weights.sum() * np.exp(
                totals * math.log(s) - s - log_factorial(totals))
            mass = float(marginal.sum())
            if hi > cap:
                raise ResourceCapError(f"photon window exceeded the cap of {count_text(cap)} "
                                       "total photons", captured_mass=mass)
            if mass >= 1.0 - mass_tolerance:
                break
            # a wider window that adds no mass in doubles never reaches it
            if prev is not None and (lo, hi) != prev[:2] and mass <= prev[2]:
                raise DomainError(f"mass_tolerance {mass_tolerance!r} is out of reach: the "
                                  f"photon window's mass stops growing at {mass!r}")
            k, prev = max(k + 1.0, (hi + 1 - s) / math.sqrt(s)), (lo, hi, mass)
        self._mixture, self._marginal = mixture, marginal
        self.lo, self.cutoff_total = lo, hi
        self._totals = np.arange(lo, hi + 1, dtype=np.int64)
        # row index of each total's first row (n_c = 0)
        self._starts = (self._totals - lo) * (self._totals + lo + 1) // 2
        self.size = n_rows
        self.captured_mass = mass

    def pieces(self, rows: int):
        """Yield (start, p) for runs of at most `rows` rows in row order.

        p views a buffer that the next block of _BLOCK totals overwrites, and
        a block is yielded only once its rows sum to each total's Poisson mass.
        """
        lo, hi = self.lo, self.cutoff_total
        table = self._mixture.pmf(0, hi + 1)
        table[0] *= self._mixture.weights[:, None]
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
            for j in range(0, p.size, rows):
                yield start + j, p[j:j + rows]
            start += p.size

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
    that total's run of rows.  Where n_c > t, the tile reads n_d < 0.  Such a
    tile starts less than _TILE below t0 and reaches no n_d past
    _BLOCK + _TILE - 2, so it reads `head`: b's first columns behind
    _BLOCK - 1 zero columns.  Every tile that reaches no further reads `head`
    too (so the dot product of a one-total window reads no column of unit
    stride); the others read b in place.

    A tile of one row is computed as the last row of a two-row product, so
    wherever a has two rows every product is a GEMM (numpy sends a one-row
    product to a vector-matrix product, which rounds otherwise).  On these
    operand layouts OpenBLAS's GEMM rounds each entry alike whatever the
    tile's shape while it sums over m in one pass, so no row's bits depend
    on _BLOCK, _TILE or where the tiles fall (0.3.31 sums in one pass up to
    k = 384; past it, it splits the sum and the tiles move the last bit).
    The runs are then packed to the front of the same buffer, in place, and
    yielded as a view that the next block overwrites.
    """
    hi = a.shape[0] - 1
    pad = _BLOCK - 1
    reach = min(hi + 1, _BLOCK + _TILE - 1)
    head = np.zeros((b.shape[0], pad + reach))
    head[:, pad:] = b[:, :reach]
    buffer = np.empty(_BLOCK * (hi + 1))
    block = buffer.reshape(_BLOCK, hi + 1)
    scratch = np.empty(_TILE * (_BLOCK + _TILE - 1))
    for t0 in range(lo, hi + 1, _BLOCK):
        t1 = min(t0 + _BLOCK, hi + 1)
        for i0 in range(0, t1, _TILE):
            i1 = min(i0 + _TILE, t1)
            # the product's rows are n_c = r0 .. i1 - 1: two, for a tile of one
            r0 = max(min(i0, i1 - 2), 0)
            rows, width = i1 - r0, i1 - r0 + t1 - t0 - 1
            prod = scratch[:rows * width].reshape(rows, width)
            # diagonal[r, u] = prod[r, rows - 1 - r + u] (n_c = r0 + r, total t0 + u), of doubles
            diagonal = np.ndarray((rows, t1 - t0), buffer=scratch, offset=(rows - 1) * 8,
                                  strides=((width - 1) * 8, 8))
            # column c of the product is n_d = t0 - (i1 - 1) + c, up to t1 - 1 - r0
            j0 = t0 - (i1 - 1)
            source, j0 = (head, j0 + pad) if t1 - r0 <= reach else (b, j0)
            np.matmul(a[r0:i1], source[:, j0:j0 + prod.shape[1]], out=prod)
            block[:t1 - t0, i0:i1] = diagonal[i0 - r0:].T
        # run t moves down from row t - t0 of the block, never over a run
        # still to move: each run is at most hi + 1 long
        start = 0
        for t in range(t0, t1):
            buffer[start:start + t + 1] = block[t - t0, :t + 1]
            start += t + 1
        yield buffer[:start]


def _seed_array(seeds) -> np.ndarray:
    """The seeds as a uint64 array; DomainError for any that is not an
    integer in [0, 2^64).  An integral float such as 3.0 passes."""
    if not (isinstance(seeds, np.ndarray) and seeds.dtype.kind == "u"):
        outside = "seed {} is outside [0, 2^64)"
        seeds = _whole(seeds, (outside, "seed {} is not an integer", outside), hi=1 << 64,
                       array=True)
    return seeds.astype(np.uint64, copy=False)


def _uniforms(seeds: np.ndarray, k: int) -> np.ndarray:
    """Uniform k of each uint64 seed x: the top 53 bits, times 2^-53, of
    SplitMix64's (k+1)-th output from state x (Steele, Lea & Flood, OOPSLA
    2014; Vigna's splitmix64.c).  uint64 array arithmetic wraps mod 2^64."""
    z = seeds + np.uint64((k + 1) * 0x9E3779B97F4A7C15 % (1 << 64))
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


def _inverse_cdf(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per draw b, the least j with cdf[rows[b], j] > u[b] cdf[rows[b], -1],
    as `searchsorted(side="right")` finds it, by one bisection of all rows."""
    flat, width = cdf.ravel(), cdf.shape[1]
    first = rows * width
    target = u * flat[first + width - 1]
    lo = np.zeros(rows.size, dtype=np.int64)
    hi = np.full(rows.size, width - 1, dtype=np.int64)
    for _ in range(width.bit_length()):
        mid = (lo + hi) >> 1
        above = flat[first + mid] > target
        np.copyto(hi, mid, where=above)
        np.copyto(lo, mid + 1, where=~above)
    return lo


def sample_outcomes(params: QndParams, state: CollectiveState,
                    seeds) -> tuple[np.ndarray, np.ndarray]:
    """Exact draws (n_c, n_d) on a normalized state, shot i keyed by seeds[i]
    (see `_Mixture.sampler`): the same on every platform, alone or in any
    block.  A seed outside [0, 2^64) raises DomainError."""
    return _Mixture(params, state).sampler()(seeds)


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
        if any(isinstance(v, (list, tuple)) and len(v) != 2 for v in (g, c)):
            raise ValueError("gamma and chi are each a [re, im] pair")
        gamma = complex(g[0], g[1]) if isinstance(g, (list, tuple)) else complex(g)
        chi = complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
        return QndParams(gamma=gamma, chi=chi, gt=float(data["gt"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed params record: {exc}") from exc
