"""Physics-level diagnostics: squeezing, parity-case checks, cat-state
fidelity, and the spin Wigner function on the sphere.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, PreconditionError
from .numerics import HalfInt, clebsch_gordan_row, legendre_norm_table
from .povm import PhotonOutcome, QndParams, eigen
from .spin_state import (CollectiveState, Sector, coherent_state, moments,
                         normalize, overlap)

_RESIDUE_TOL = 1e-10


def thread_cap() -> int:
    """Worker cap for internal parallel maps, from QND_THREADS (default 1)."""
    raw = os.environ.get("QND_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


@dataclass(frozen=True)
class DensityMatrix:
    """Single-sector density matrix indexed by (m_z, m_z')."""

    two_j: int
    rho: np.ndarray

    def __post_init__(self):
        d = self.two_j + 1
        r = np.array(self.rho, dtype=complex)
        if r.shape != (d, d):
            raise DomainError(f"density matrix for 2J={self.two_j} must be {d}x{d}")
        if np.max(np.abs(r - r.conj().T)) > 1e-12:
            raise DomainError("density matrix is not Hermitian")
        if abs(np.trace(r).real - 1.0) > 1e-12 or abs(np.trace(r).imag) > 1e-12:
            raise DomainError("density matrix trace must be 1")
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)

    def two_m_values(self) -> np.ndarray:
        return np.arange(-self.two_j, self.two_j + 1, 2)


@dataclass(frozen=True)
class WignerGrid:
    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SqueezingReport:
    var_prior: float
    var_post: float
    ratio: float


class ParityCase(Enum):
    BOTH_PORTS = "both_ports"
    C_DARK = "c_dark"
    D_DARK = "d_dark"


@dataclass(frozen=True)
class ParityPattern:
    case: ParityCase
    support: tuple[int, ...]
    log_on_support: float
    max_off_support_ratio: float
    strict: bool


def density_from_state(state: CollectiveState, J) -> DensityMatrix:
    """Pure-state density matrix of one sector, normalized within it."""
    sec = state.sector(J)
    if sec is None:
        raise DomainError(f"state has no sector J={J}")
    psi = sec.amps
    n2 = float(np.sum(np.abs(psi) ** 2))
    if n2 == 0.0:
        raise DomainError("sector carries no amplitude")
    rho = np.outer(psi, psi.conj()) / n2
    return DensityMatrix(two_j=sec.two_j, rho=rho)


def rho_lm(rho: DensityMatrix, L: int, M: int) -> complex:
    """Multipole component of the density matrix.

    Sums (-1)^(J - m - M) <J m; J, -(m - M)| L M> rho_{m, m-M} over the m
    values where the coupled projection exists.  The sign exponent is always
    an integer, evaluated through doubled-integer parity so half-integer J
    stays exact.
    """
    L, M = int(L), int(M)
    if L < 0 or L > rho.two_j:
        raise DomainError("L must lie in 0..2J")
    if abs(M) > L:
        raise DomainError("|M| must not exceed L")
    tm = rho.two_m_values()
    cg = clebsch_gordan_row(HalfInt(rho.two_j), HalfInt(2 * L), HalfInt(2 * M), tm)
    # (-1)^(J - m - M) via parity of the doubled difference
    par = ((rho.two_j - tm) // 2 - M) % 2
    signs = np.where(par == 0, 1.0, -1.0)
    # column index of m' = m - M
    idx_col = (tm - 2 * M + rho.two_j) // 2
    ok = (idx_col >= 0) & (idx_col <= rho.two_j)
    rows = np.nonzero(ok)[0]
    cols = idx_col[rows]
    return complex(np.sum(signs[rows] * cg[rows] * rho.rho[rows, cols]))


def _wigner_rows(two_j, rho_table, thetas, phis):
    """W over a block of theta rows; deterministic per-point arithmetic."""
    x = np.cos(thetas)
    nL = two_j  # L runs 0..2J, table rows indexed by L
    w = np.zeros((len(thetas), len(phis)), dtype=complex)
    for M in range(-two_j, two_j + 1):
        am = abs(M)
        leg = legendre_norm_table(two_j, am, x)  # rows L = am..2J
        gm = np.zeros(len(thetas), dtype=complex)
        for L in range(am, two_j + 1):
            c = rho_table[L][M + L]
            if c != 0.0:
                gm = gm + c * leg[L - am]
        if M < 0:
            # Y_{L,-m} = (-1)^m conj(Y_{L,m}); legendre rows are real
            phase = ((-1.0) ** am) * np.exp(-1j * am * phis)
        else:
            phase = np.exp(1j * am * phis)
        w += gm[:, None] * phase[None, :]
    return w


def wigner(rho: DensityMatrix, n_theta: int = 181, n_phi: int = 361,
           thetas: np.ndarray | None = None,
           phis: np.ndarray | None = None) -> WignerGrid:
    """Spin Wigner function W(theta, phi) = sum_{L,M} rho_LM Y_LM.

    Defaults to an equiangular grid; any strictly sampled angle vectors can
    be passed instead.  The multipole sum runs L = 0..2J.  The imaginary
    residue of the reconstruction is checked against 1e-10 and discarded.
    Rows of the grid may be evaluated in parallel (QND_THREADS), with a
    fixed row order so results are identical to the sequential path.
    """
    if thetas is None:
        thetas = np.linspace(0.0, math.pi, n_theta)
    if phis is None:
        phis = np.linspace(0.0, 2.0 * math.pi, n_phi)
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    two_j = rho.two_j
    # table rows are L = 0..2J, each row a vector over M = -L..L; negative M
    # comes from the exact Hermitian descendant rho_{L,-M} = (-1)^M rho_LM*,
    # which keeps the reconstruction real to rounding even at large J
    rho_table = []
    for L in range(two_j + 1):
        row = np.zeros(2 * L + 1, dtype=complex)
        for M in range(0, L + 1):
            row[M + L] = rho_lm(rho, L, M)
            if M > 0:
                row[L - M] = ((-1) ** M) * np.conj(row[M + L])
        rho_table.append(row)

    workers = thread_cap()
    if workers <= 1 or len(thetas) < 4:
        w = _wigner_rows(two_j, rho_table, thetas, phis)
    else:
        chunks = np.array_split(np.arange(len(thetas)), workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda ix: _wigner_rows(two_j, rho_table, thetas[ix], phis),
                         chunks)
            )
        w = np.vstack(parts)
    residue = float(np.max(np.abs(w.imag))) if w.size else 0.0
    if residue > _RESIDUE_TOL:
        raise DomainError(f"Wigner reconstruction has imaginary residue {residue:.2e}")
    return WignerGrid(thetas=thetas, phis=phis, values=w.real)


def squeezing_report(prior: CollectiveState,
                     posterior_state: CollectiveState) -> SqueezingReport:
    """J_z variance before and after a measurement, and their ratio."""
    vp = moments(prior).var_jz
    vq = moments(posterior_state).var_jz
    ratio = vq / vp if vp > 0.0 else math.inf
    return SqueezingReport(var_prior=vp, var_post=vq, ratio=ratio)


def parity_pattern_check(params: QndParams, outcome: PhotonOutcome,
                         N: int) -> ParityPattern:
    """Classify the long-interaction-time parity pattern of the envelope.

    At gt = pi/2 with symmetric light the envelope is supported on m_z
    parity classes: both ports firing selects even m_z with exact zeros on
    odd m_z; a dark c (d) port selects m_z = 1 (3) mod 4, with exact zeros on
    the opposite odd class and even-m_z amplitudes suppressed by 2^(-n/2)
    relative to the peak (an asymptotic statement, so ``strict`` reflects
    whether every off-support amplitude cleared the 1e-12 relative bar).
    """
    if N < 2 or N % 2 != 0:
        raise PreconditionError("parity classification assumes even N")
    if abs(params.gt - math.pi / 2.0) > 1e-9:
        raise PreconditionError("parity classification holds at gt = pi/2")
    if abs(params.eta) > 1e-9 or abs(params.phi_chigamma) > 1e-9:
        raise PreconditionError(
            "parity classification needs symmetric light with no relative phase"
        )
    if outcome.total == 0:
        raise PreconditionError("needs at least one detected photon")
    if outcome.n_c > 0 and outcome.n_d > 0:
        case = ParityCase.BOTH_PORTS
        members = [m for m in range(-N // 2, N // 2 + 1) if m % 2 == 0]
    elif outcome.n_c == 0:
        case = ParityCase.C_DARK
        members = [m for m in range(-N // 2, N // 2 + 1) if m % 4 == 1]
    else:
        case = ParityCase.D_DARK
        members = [m for m in range(-N // 2, N // 2 + 1) if m % 4 == 3]
    support = tuple(sorted(members))
    grid = np.arange(-N // 2, N // 2 + 1)
    logs = dict(zip(grid.tolist(), eigen(params, outcome, grid)[1].tolist()))
    on = [logs[m] for m in support]
    off = [logs[m] for m in logs if m not in support]
    peak = max(on)
    worst = max((lo - peak for lo in off), default=-math.inf)
    ratio = 0.0 if worst == -math.inf else math.exp(worst)
    return ParityPattern(
        case=case,
        support=support,
        log_on_support=peak,
        max_off_support_ratio=ratio,
        strict=ratio < 1e-12,
    )


def cat_state(N: int, relative_phase: float = 0.0) -> CollectiveState:
    """Equal-weight superposition of the two opposite equatorial coherent
    states, |theta=pi/2> + e^{i phase} |theta=-pi/2>, normalized.

    The two components are exactly orthogonal for N >= 1.
    """
    plus = coherent_state(N, math.pi / 2.0)
    minus = coherent_state(N, -math.pi / 2.0)
    amps = plus.sectors[0].amps + np.exp(1j * relative_phase) * minus.sectors[0].amps
    return normalize(CollectiveState((Sector(N, amps),), norm_hint=1.0))


def cat_fidelity(state: CollectiveState, N: int) -> float:
    """Fidelity to the nearest equal-weight two-component cat state.

    With a = <pi/2|state> and b = <-pi/2|state> (orthogonal components),
    max over the cat's relative phase of |<state|cat>|^2 is (|a|+|b|)^2 / 2.
    Gives 1 for any equal-weight cat regardless of its fringe phase, 1/2 for
    a single coherent state.
    """
    sec = state.sector(N / 2.0)
    if sec is None or sec.two_j != N:
        raise DomainError(f"state must live in the single sector J = {N}/2")
    a = overlap(coherent_state(N, math.pi / 2.0), state)
    b = overlap(coherent_state(N, -math.pi / 2.0), state)
    return (abs(a) + abs(b)) ** 2 / 2.0
