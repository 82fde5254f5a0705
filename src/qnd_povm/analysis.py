"""Physics-level diagnostics: squeezing, parity-case checks, cat-state
fidelity, and the spin Wigner function on the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import MAX_ENTRIES, DomainError, PreconditionError, ResourceCapError
from .numerics import cg_blocks, legendre_norm_table
from .povm import PhotonOutcome, QndParams, eigen
from .spin_state import CollectiveState, coherent_state, moments, normalize, overlap

_RESIDUE_TOL = 1e-10
_PARSEVAL_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix of one total spin, indexed by (m_z, m_z')."""

    two_j: int
    rho: np.ndarray

    def __post_init__(self):
        d = self.two_j + 1
        r = np.array(self.rho, dtype=complex)
        if r.shape != (d, d):
            raise DomainError(f"density matrix for 2J={self.two_j} must be {d}x{d}")
        # nan passes every `> tol` guard here and downstream
        if not np.isfinite(r).all():
            raise DomainError("density matrix has non-finite entries")
        if np.max(np.abs(r - r.conj().T)) > 1e-12:
            raise DomainError("density matrix is not Hermitian")
        if abs(np.trace(r).real - 1.0) > 1e-12 or abs(np.trace(r).imag) > 1e-12:
            raise DomainError("density matrix trace must be 1")
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)

    def two_m_values(self) -> np.ndarray:
        return np.arange(-self.two_j, self.two_j + 1, 2)

    @cached_property
    def multipoles(self) -> np.ndarray:
        """Multipole table T[L, M] = rho_LM for 0 <= M <= L <= 2J.

        rho_LM = sum_m (-1)^(J - m - M) <J m; J, M - m | L M> rho_{m, m-M}
        is, for each M, one product of the transposed Clebsch-Gordan block
        with the signed M-th subdiagonal of rho.  Entries above the diagonal
        are 0; negative M is the Hermitian descendant
        rho_{L,-M} = (-1)^M conj(rho_LM).
        """
        tj = self.two_j
        table = np.zeros((tj + 1, tj + 1), dtype=complex)
        for tM, block in cg_blocks(tj, tj):
            M = tM // 2
            tm = self.two_m_values()[M:]
            signs = np.where(((tj - tm) // 2 - M) % 2 == 0, 1.0, -1.0)
            table[M:, M] = block.T @ (signs * np.diagonal(self.rho, -M))
        return table

    def parseval_residual(self) -> float:
        """|sum_LM |rho_LM|^2 - Tr rho^2| relative to Tr rho^2.

        The multipoles are the coefficients of rho in an orthonormal operator
        basis, so an exact table gives 0.
        """
        sq = np.abs(self.multipoles) ** 2
        total = 2.0 * float(sq.sum()) - float(sq[:, 0].sum())
        purity = float(np.vdot(self.rho, self.rho).real)
        return abs(total - purity) / purity


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


def density_from_state(state: CollectiveState) -> DensityMatrix:
    """Pure-state density matrix of `state`, normalized."""
    psi = state.amps
    n2 = float(np.sum(np.abs(psi) ** 2))
    if n2 == 0.0:
        raise DomainError("state carries no amplitude")
    rho = np.outer(psi, psi.conj()) / n2
    return DensityMatrix(two_j=state.two_j, rho=rho)


def _multipoles(rho: DensityMatrix) -> np.ndarray:
    """rho.multipoles, once it passes the Parseval guard."""
    residual = rho.parseval_residual()
    if residual > _PARSEVAL_TOL:
        raise DomainError(f"multipole table breaks Parseval by {residual:.2e} "
                          "relative to Tr rho^2")
    return rho.multipoles


def rho_lm(rho: DensityMatrix, L: int, M: int) -> complex:
    """Multipole component rho_LM of the density matrix.

    Sums (-1)^(J - m - M) <J m; J, -(m - M)| L M> rho_{m, m-M} over the m
    values where the coupled projection exists; read from the table
    ``DensityMatrix.multipoles``, which is built once per density matrix.
    """
    L, M = int(L), int(M)
    if L < 0 or L > rho.two_j:
        raise DomainError("L must lie in 0..2J")
    if abs(M) > L:
        raise DomainError("|M| must not exceed L")
    c = complex(_multipoles(rho)[L, abs(M)])
    return c if M >= 0 else (-1) ** M * c.conjugate()


def _flush_subnormals(a: np.ndarray) -> np.ndarray:
    """`a` with every real or imaginary part below the smallest normal double
    set to 0, in place.  A posterior's multipoles leave such parts in G, and
    a GEMM over subnormal operands runs tens of times slower; together they
    carry less than 1e-304 into any entry of W."""
    parts = a.view(float)
    parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
    return a


def wigner(rho: DensityMatrix, n_theta: int = 181, n_phi: int = 361) -> WignerGrid:
    """Spin Wigner function W(theta, phi) = sum_{L,M} rho_LM Y_LM.

    Sampled on the equiangular grid of n_theta polar angles over [0, pi] and
    n_phi azimuths over [0, 2 pi].  The multipole sum runs L = 0..2J as two
    products: G[theta, M] = sum_L rho_LM Y~_L^M(cos theta), with Y~ the
    normalized associated Legendre function, then W = G @ E with
    E[M, phi] = e^{iM phi}.  Raises ResourceCapError before building any
    array when G, E or W would hold more than 2^24 entries.  Raises
    DomainError when the multipole table breaks Parseval
    (sum |rho_LM|^2 = Tr rho^2) by more than 1e-10 relative, or when the
    imaginary residue of W exceeds 1e-10; the residue is otherwise
    discarded.  Checked against sympy multipoles at 2J = 100 and against
    Parseval up to 2J = 200.
    """
    two_j = rho.two_j
    n_m = 2 * two_j + 1
    largest = max(n_theta * n_m, n_m * n_phi, n_theta * n_phi)
    if largest > MAX_ENTRIES:
        raise ResourceCapError(f"a {n_theta}x{n_phi} Wigner grid at 2J={two_j} needs "
                               f"an array of {largest} entries, over the cap of "
                               f"{MAX_ENTRIES}")
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi)
    table = _multipoles(rho)
    x = np.cos(thetas)
    g = np.empty((n_theta, n_m), dtype=complex)
    for M in range(two_j + 1):
        g[:, two_j + M] = table[M:, M] @ legendre_norm_table(two_j, M, x)
    # rho_{L,-M} Y_{L,-M} = conj(rho_LM Y_LM): columns M = -2J..-1 mirror 2J..1
    g[:, :two_j] = np.conj(g[:, :two_j:-1])
    w = _flush_subnormals(g) @ np.exp(1j * np.outer(np.arange(-two_j, two_j + 1), phis))
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
    grid = np.arange(-N // 2, N // 2 + 1)
    if outcome.n_c > 0 and outcome.n_d > 0:
        case, on = ParityCase.BOTH_PORTS, grid % 2 == 0
    elif outcome.n_c == 0:
        case, on = ParityCase.C_DARK, grid % 4 == 1
    else:
        case, on = ParityCase.D_DARK, grid % 4 == 3
    log_e = eigen(params, outcome, grid)[1]
    peak = float(log_e[on].max())
    worst = float(np.max(log_e[~on] - peak, initial=-math.inf))
    ratio = 0.0 if worst == -math.inf else math.exp(worst)
    return ParityPattern(case=case, support=tuple(grid[on].tolist()), log_on_support=peak,
                         max_off_support_ratio=ratio, strict=ratio < 1e-12)


def cat_state(N: int, relative_phase: float = 0.0) -> CollectiveState:
    """Equal-weight superposition of the two opposite equatorial coherent
    states, |theta=pi/2> + e^{i phase} |theta=-pi/2>, normalized.

    The two components are exactly orthogonal for N >= 1.
    """
    plus = coherent_state(N, math.pi / 2.0)
    minus = coherent_state(N, -math.pi / 2.0)
    amps = plus.amps + np.exp(1j * relative_phase) * minus.amps
    return normalize(CollectiveState(N, amps))


def cat_fidelity(state: CollectiveState, N: int) -> float:
    """Fidelity to the nearest equal-weight two-component cat state.

    With a = <pi/2|state> and b = <-pi/2|state> (orthogonal components),
    max over the cat's relative phase of |<state|cat>|^2 is (|a|+|b|)^2 / 2.
    Gives 1 for any equal-weight cat regardless of its fringe phase, 1/2 for
    a single coherent state.
    """
    if state.two_j != N:
        raise DomainError(f"state must have J = {N}/2, not {state.two_j}/2")
    a = overlap(coherent_state(N, math.pi / 2.0), state)
    b = overlap(coherent_state(N, -math.pi / 2.0), state)
    return (abs(a) + abs(b)) ** 2 / 2.0
