"""Collective spin states: Dicke basis vectors, spin coherent states, moments.

A state is a superposition over |J, m_z> kets, possibly spread over several
total-spin sectors.  The measurement machinery is diagonal in both J and m_z,
so sectors never mix; they are stored side by side as (2J, amplitude-vector)
pairs with amplitudes ordered by increasing m_z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .numerics import log_factorial, twice

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Sector:
    """One total-spin block: amps[i] is the amplitude of m_z = -J + i."""

    two_j: int
    amps: np.ndarray

    def __post_init__(self):
        if self.two_j < 0:
            raise DomainError("negative spin sector")
        a = np.array(self.amps, dtype=complex)
        if a.shape != (self.two_j + 1,):
            raise DomainError(
                f"sector 2J={self.two_j} needs {self.two_j + 1} amplitudes"
            )
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    def two_m_values(self) -> np.ndarray:
        return np.arange(-self.two_j, self.two_j + 1, 2)

    def m_values(self) -> np.ndarray:
        return self.two_m_values() / 2.0

    def index_of(self, m_z) -> int:
        tm = twice(m_z)
        if (tm - self.two_j) % 2 != 0 or abs(tm) > self.two_j:
            raise DomainError(f"m_z={m_z} not in sector 2J={self.two_j}")
        return (tm + self.two_j) // 2


@dataclass(frozen=True)
class CollectiveState:
    sectors: tuple[Sector, ...]

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        seen = set()
        for s in self.sectors:
            if s.two_j in seen:
                raise DomainError("duplicate spin sector")
            seen.add(s.two_j)

    def sector(self, J) -> Sector | None:
        tj = twice(J)
        for s in self.sectors:
            if s.two_j == tj:
                return s
        return None

    def m_values(self) -> np.ndarray:
        """m_z of every amplitude, sectors in order, each by increasing m_z."""
        return np.concatenate([s.m_values() for s in self.sectors])

    def _live(self):
        """Every amplitude, flat in `m_values()` order, and the nonzero ones' mask."""
        amps = np.concatenate([s.amps for s in self.sectors])
        return amps, amps != 0.0

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(m_z, |psi_m|^2) of the nonzero amplitudes, in `m_values()` order:
        the only m_z a diagonal operator acts on."""
        amps, live = self._live()
        return self.m_values()[live], np.abs(amps[live]) ** 2

    def squared_norm(self) -> float:
        return float(sum(np.sum(np.abs(s.amps) ** 2) for s in self.sectors))

    def is_normalized(self) -> bool:
        return abs(self.squared_norm() - 1.0) <= _NORM_TOL


@dataclass(frozen=True)
class SpinMoments:
    mean_jx: float
    mean_jz: float
    var_jz: float
    normalized_var: float


def dicke_state(J, m_z) -> CollectiveState:
    """Basis ket |J, m_z> as a single-sector state."""
    tj = twice(J)
    ket = np.arange(-tj, tj + 1, 2) == twice(m_z)
    if not ket.any():
        raise DomainError(f"m_z={m_z} not in sector 2J={tj}")
    return CollectiveState((Sector(tj, ket),))


def coherent_state(N: int, theta: float) -> CollectiveState:
    """Product state of N identical spins tilted by polar angle theta.

    Amplitude on m_z is sqrt(C(N, N/2+m_z)) cos^(N/2+m_z)(theta/2)
    sin^(N/2-m_z)(theta/2); the azimuthal angle is fixed at zero so the
    amplitudes are real.  Formed in log space so N ~ 10^3 stays accurate.
    """
    if N < 1:
        raise DomainError("need at least one spin")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    k = np.arange(N + 1)  # k = N/2 + m_z
    log_c = math.log(abs(c)) if c != 0.0 else -math.inf
    log_s = math.log(abs(s)) if s != 0.0 else -math.inf
    logmag = 0.5 * (log_factorial(N) - log_factorial(k) - log_factorial(N - k))
    pos = k > 0
    logmag[pos] += k[pos] * log_c
    pos = N - k > 0
    logmag[pos] += (N - k)[pos] * log_s
    sign = np.where(c < 0, (-1.0) ** k, 1.0) * np.where(
        s < 0, (-1.0) ** (N - k), 1.0
    )
    with np.errstate(under="ignore"):
        amps = sign * np.exp(logmag)
    amps = amps / math.sqrt(float(np.sum(amps**2)))
    return CollectiveState((Sector(N, amps.astype(complex)),))


def normalize(state: CollectiveState) -> CollectiveState:
    n2 = state.squared_norm()
    if n2 == 0.0:
        raise DomainError("cannot normalize the zero state")
    scale = 1.0 / math.sqrt(n2)
    secs = tuple(Sector(s.two_j, s.amps * scale) for s in state.sectors)
    return CollectiveState(secs)


def scale_amplitudes(state: CollectiveState, log_factor: np.ndarray,
                     phase: np.ndarray) -> CollectiveState:
    """Act with a diagonal operator, given in log-polar form.

    Nonzero amplitude k is multiplied by exp(log_factor[k] + i phase[k]), both
    arrays running over `state.support()`; a zero amplitude stays as it is.
    """
    amps, live = state._live()
    with np.errstate(under="ignore"):
        amps[live] *= np.exp(log_factor) * np.exp(1j * phase)
    ends = np.cumsum([s.two_j + 1 for s in state.sectors])[:-1]
    return CollectiveState(tuple(Sector(s.two_j, a)
                                 for s, a in zip(state.sectors, np.split(amps, ends))))


def moments(state: CollectiveState) -> SpinMoments:
    """<J_x>, <J_z>, Var(J_z) and the variance normalized by N^2.

    J_z is diagonal; J_x couples neighboring m through the ladder matrix
    elements <J, m+1|J_x|J, m> = sqrt(J(J+1) - m(m+1))/2.  N is taken as
    2J of the largest sector present.
    """
    if not state.is_normalized():
        raise PreconditionError("moments requires a normalized state")
    mean_z = 0.0
    mean_z2 = 0.0
    mean_x = 0.0
    for s in state.sectors:
        w = np.abs(s.amps) ** 2
        m = s.m_values()
        mean_z += float(np.dot(w, m))
        mean_z2 += float(np.dot(w, m * m))
        j = s.two_j / 2.0
        if s.two_j > 0:
            lad = 0.5 * np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
            mean_x += float(
                2.0 * np.real(np.sum(np.conj(s.amps[1:]) * lad * s.amps[:-1]))
            )
    var_z = max(0.0, mean_z2 - mean_z**2)
    n_big = max(s.two_j for s in state.sectors)
    nv = var_z / float(n_big) ** 2 if n_big > 0 else 0.0
    return SpinMoments(mean_jx=mean_x, mean_jz=mean_z, var_jz=var_z,
                       normalized_var=nv)


def overlap(a: CollectiveState, b: CollectiveState) -> complex:
    """<a|b> summed over shared sectors; disjoint sectors contribute 0."""
    total = 0.0 + 0.0j
    for sa in a.sectors:
        sb = b.sector(sa.two_j / 2)
        if sb is not None:
            total += complex(np.sum(np.conj(sa.amps) * sb.amps))
    return total


def state_to_json(state: CollectiveState) -> dict:
    return {
        "sectors": [
            {
                "twoJ": s.two_j,
                "amps": [[float(z.real), float(z.imag)] for z in s.amps],
            }
            for s in state.sectors
        ]
    }


def state_from_json(data: dict) -> CollectiveState:
    try:
        secs = tuple(
            Sector(int(d["twoJ"]), np.array([complex(re, im) for re, im in d["amps"]]))
            for d in data["sectors"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed state record: {exc}") from exc
    return CollectiveState(secs)
