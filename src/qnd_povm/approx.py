"""Short-interaction-time Gaussian model of the measurement and its
projective limit.

For gt small and both counts large the amplitude envelope is a Gaussian in
m_z whose center m0 is fixed by the count asymmetry through
cos(2 eta) sin(gt m0 + phi_chigamma) = r and whose variance follows from the
log-curvature of the exact envelope at the peak.  When the width shrinks
below the level spacing the measurement turns projective: the state collapses
onto the m_z grid point nearest m0, weighted by a classical amplitude that
depends only on the total count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, ZeroProjectionError
from .numerics import twice
from .povm import PhotonOutcome, QndParams, eigen, phase_phi
from .spin_state import CollectiveState, normalize, scale_amplitudes


@dataclass(frozen=True)
class GaussianModel:
    """Peak position and variance of the approximated amplitude envelope."""

    m0: float
    sigma2: float
    log_prefactor: float


@dataclass(frozen=True)
class ProjectiveParams:
    """Relative-count coordinates and linearized phase slopes at the peak."""

    u: float
    v: float
    m0: float
    xi_plus: float
    xi_minus: float
    xi_c: float
    xi_d: float


def gaussian_model(params: QndParams, outcome: PhotonOutcome) -> GaussianModel:
    """Gaussian fit of the envelope for n_c, n_d >= 1 and |r| < cos(2 eta).

    sigma2 is the inverse of (g t)^2/8 * (n_c+n_d)/(n_c n_d) *
    [(n_c+n_d)^2 cos^2(2 eta) - (n_c-n_d)^2]; m0 takes the principal arcsine
    branch; the prefactor uses Stirling's approximation for both factorials.
    A curvature, sigma2 or m0 that leaves the finite doubles, as at
    extreme gt, is a DomainError.
    """
    nc, nd = outcome.n_c, outcome.n_d
    if nc < 1 or nd < 1:
        raise DomainError("the Gaussian model needs at least one photon per port")
    if params.gt == 0.0:
        raise DomainError("no Gaussian peak at zero interaction phase")
    c2e = params.cos_2eta
    r = outcome.r
    if abs(r) >= c2e:
        raise DomainError("count asymmetry exceeds cos(2 eta): no Gaussian peak")
    total = outcome.total
    gt = params.gt
    # products, not **: a float ** raises OverflowError where * gives inf
    curv = (
        gt * gt / 8.0
        * (total / (nc * nd))
        * (total * total * (c2e * c2e) - (nc - nd) * (nc - nd))
    )
    m0 = (math.asin(r / c2e) - params.phi_chigamma) / gt
    sigma2 = 1.0 / curv if curv > 0.0 else math.inf
    if not (math.isfinite(curv) and math.isfinite(sigma2) and math.isfinite(m0)):
        raise DomainError(f"the Gaussian model leaves the doubles at gt = {gt!r}")
    log_pref = 0.5 * total * (math.log(2.0) + 1.0 - math.log(total)) - 0.25 * math.log(
        4.0 * math.pi**2 * nc * nd
    )
    return GaussianModel(m0=m0, sigma2=sigma2, log_prefactor=log_pref)


def _log_gaussian(model: GaussianModel, m):
    d = m - model.m0  # d * d gives inf where d ** 2 raises
    return model.log_prefactor - d * d / (2.0 * model.sigma2)


def gaussian_amplitude(model: GaussianModel, m_z) -> float:
    return math.exp(_log_gaussian(model, float(m_z)))


def peak_solutions(params: QndParams, outcome: PhotonOutcome, J) -> list[float]:
    """All real m in [-J, J] where the envelope peaks.

    Solves cos(2 eta) sin(gt m + phi_chigamma) = r over both arcsine branch
    families; an asymmetry beyond cos(2 eta) has no solution and yields an
    empty list.  Interaction phases above pi/N produce several peaks.
    """
    if outcome.total == 0:
        raise PreconditionError("peak location needs at least one photon")
    jv = twice(J) / 2.0
    c2e = params.cos_2eta
    r = outcome.r
    if abs(r) > c2e:
        return []
    if params.gt == 0.0:
        return []
    s0 = math.asin(r / c2e)
    sols: list[float] = []
    for branch in (s0, math.pi - s0):
        # gt m + phi_cg = branch + 2 pi k
        base = (branch - params.phi_chigamma) / params.gt
        step = 2.0 * math.pi / params.gt
        k_lo = math.ceil((-jv - base) / step - 1e-12)
        k_hi = math.floor((jv - base) / step + 1e-12)
        for k in range(k_lo, k_hi + 1):
            sols.append(base + k * step)
    sols.sort()
    dedup: list[float] = []
    for x in sols:
        if not dedup or abs(x - dedup[-1]) > 1e-9:
            dedup.append(x)
    return dedup


def approx_apply(params: QndParams, outcome: PhotonOutcome,
                 state: CollectiveState) -> CollectiveState:
    """Apply the Gaussian-envelope form of the measurement (unnormalized).

    The exact operator with its envelope E swapped for the Gaussian and
    nothing else: absolute prefactor and exact per-count detector phases
    retained, so any fidelity gap to the exact posterior comes from the
    envelope alone.
    """
    model = gaussian_model(params, outcome)
    m = state.support()[0]
    log_c, _, phase = eigen(params, outcome, m)
    return scale_amplitudes(state, log_c + _log_gaussian(model, m), phase)


def projective_params(params: QndParams, outcome: PhotonOutcome) -> ProjectiveParams:
    """Coordinates (u, v, m0) plus the linearized detector-phase slopes.

    xi_c and xi_d are the derivatives of the detector phases with respect to
    gt m at the peak, written in a form with no explicit cotangent so the
    symmetric-amplitude limit eta -> 0 evaluates cleanly.
    """
    model = gaussian_model(params, outcome)
    phi0 = phase_phi(params, model.m0)
    te = math.tan(params.eta)
    sp2 = math.sin(phi0) ** 2
    cp2 = math.cos(phi0) ** 2
    xi_c = 0.5 * te / (cp2 + te**2 * sp2)
    xi_d = 0.5 * te / (sp2 + te**2 * cp2)
    return ProjectiveParams(
        u=outcome.u,
        v=outcome.v,
        m0=model.m0,
        xi_plus=1.0 - xi_d - xi_c,
        xi_minus=xi_d - xi_c,
        xi_c=xi_c,
        xi_d=xi_d,
    )


def round_to_sector_parity(m0: float, two_j: int) -> int:
    """Doubled m_z nearest to m0 on the m_z lattice of a spin 2J = `two_j`.

    An integer spin rounds to integers, a half-integer spin to
    half-integers; exact ties break toward zero.
    """
    t = 2.0 * m0
    parity = two_j % 2
    lo = math.floor(t)
    if (lo - parity) % 2 != 0:
        lo -= 1
    hi = lo + 2
    d_lo, d_hi = abs(t - lo), abs(t - hi)
    if d_lo == d_hi:
        return lo if abs(lo) <= abs(hi) else hi
    return lo if d_lo < d_hi else hi


def project(params: QndParams, state: CollectiveState, u: float,
            m0: float) -> tuple[float, CollectiveState]:
    """Projective-limit collapse onto the grid point nearest m0.

    Returns the classical amplitude exp(-(u - P/2)^2 / P) / (pi u)^(1/4)
    with P the mean total photon number, together with the renormalized state
    supported on the m_z of the state's lattice nearest m0.
    This is an analysis tool for the narrow-width limit; outcome sampling
    always uses the exact distribution.
    """
    if not state.is_normalized():
        raise PreconditionError("project needs a normalized state")
    if u <= 0.0:
        raise DomainError("u must be positive")
    s = params.photon_mean
    amp = math.exp(-((u - s / 2.0) ** 2) / s) / (math.pi * u) ** 0.25
    tj = state.two_j
    tm = round_to_sector_parity(m0, tj)
    a = np.zeros(tj + 1, dtype=complex)
    if abs(tm) <= tj:
        i = (tm + tj) // 2
        a[i] = state.amps[i]
    collapsed = CollectiveState(tj, a)
    if collapsed.squared_norm() == 0.0:
        raise ZeroProjectionError("state has no support at the collapse point")
    return amp, normalize(collapsed)
