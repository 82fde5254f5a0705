"""Collective spin states: Dicke basis vectors, spin coherent states, moments.

A state is a superposition over the |J, m_z> kets of one total spin J, with
amplitudes ordered by increasing m_z.  The measurement machinery is diagonal
in m_z, so the state keeps its J under every operation here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .numerics import log_factorial, twice

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class CollectiveState:
    """One total-spin block: amps[i] is the amplitude of m_z = -J + i."""

    two_j: int
    amps: np.ndarray

    def __post_init__(self):
        if self.two_j < 0:
            raise DomainError("negative total spin")
        a = np.array(self.amps, dtype=complex)
        if a.shape != (self.two_j + 1,):
            raise DomainError(
                f"a state of 2J={self.two_j} needs {self.two_j + 1} amplitudes"
            )
        # nan and inf pass every norm and tolerance guard downstream
        if not np.isfinite(a).all():
            raise DomainError("state has non-finite amplitudes")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def sectors(self) -> tuple[CollectiveState]:
        # read only by the benchmark's trace hook, perfbench/spans.py
        # (`_distribution_counts` sums `two_j + 1` over it); the benchmark
        # change of ROADMAP item 1 reads `two_j` there and retires this
        return (self,)

    def two_m_values(self) -> np.ndarray:
        return np.arange(-self.two_j, self.two_j + 1, 2)

    def m_values(self) -> np.ndarray:
        """m_z of every amplitude, by increasing m_z."""
        return self.two_m_values() / 2.0

    def index_of(self, m_z) -> int:
        tm = twice(m_z)
        if (tm - self.two_j) % 2 != 0 or abs(tm) > self.two_j:
            raise DomainError(f"m_z={m_z} not in 2J={self.two_j}")
        return (tm + self.two_j) // 2

    def _live(self) -> np.ndarray:
        """Mask of the nonzero amplitudes, in `m_values()` order."""
        return self.amps != 0.0

    def support(self, log: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(m_z, |psi_m|^2) of the nonzero amplitudes, in `m_values()` order:
        the only m_z a diagonal operator acts on.  With `log`, the weights
        come as ln |psi_m|^2, finite where |psi_m|^2 underflows to 0."""
        live = self._live()
        mag = np.abs(self.amps[live])
        return self.m_values()[live], 2.0 * np.log(mag) if log else mag ** 2

    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def is_normalized(self) -> bool:
        return abs(self.squared_norm() - 1.0) <= _NORM_TOL


@dataclass(frozen=True)
class SpinMoments:
    mean_jx: float
    mean_jz: float
    var_jz: float
    normalized_var: float


def dicke_state(J, m_z) -> CollectiveState:
    """Basis ket |J, m_z>."""
    tj = twice(J)
    ket = np.arange(-tj, tj + 1, 2) == twice(m_z)
    if not ket.any():
        raise DomainError(f"m_z={m_z} not in 2J={tj}")
    return CollectiveState(tj, ket)


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
    return CollectiveState(N, amps.astype(complex))


def normalize(state: CollectiveState) -> CollectiveState:
    n2 = state.squared_norm()
    if n2 == 0.0:
        raise DomainError("cannot normalize the zero state")
    return CollectiveState(state.two_j, state.amps * (1.0 / math.sqrt(n2)))


def scale_amplitudes(state: CollectiveState, log_factor: np.ndarray,
                     phase: np.ndarray) -> CollectiveState:
    """Act with a diagonal operator, given in log-polar form.

    Nonzero amplitude k is multiplied by exp(log_factor[k] + i phase[k]), both
    arrays running over `state.support()`; a zero amplitude stays as it is.
    """
    amps, live = state.amps.copy(), state._live()
    with np.errstate(under="ignore"):
        amps[live] *= np.exp(log_factor) * np.exp(1j * phase)
    return CollectiveState(state.two_j, amps)


def moments(state: CollectiveState) -> SpinMoments:
    """<J_x>, <J_z>, Var(J_z) and the variance normalized by N^2.

    J_z is diagonal; J_x couples neighboring m through the ladder matrix
    elements <J, m+1|J_x|J, m> = sqrt(J(J+1) - m(m+1))/2.  N is 2J.
    """
    if not state.is_normalized():
        raise PreconditionError("moments requires a normalized state")
    a = state.amps
    w = np.abs(a) ** 2
    m = state.m_values()
    mean_z = float(np.dot(w, m))
    mean_z2 = float(np.dot(w, m * m))
    j = state.two_j / 2.0
    lad = 0.5 * np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    mean_x = float(2.0 * np.real(np.sum(np.conj(a[1:]) * lad * a[:-1])))
    var_z = max(0.0, mean_z2 - mean_z**2)
    nv = var_z / float(state.two_j) ** 2 if state.two_j > 0 else 0.0
    return SpinMoments(mean_jx=mean_x, mean_jz=mean_z, var_jz=var_z,
                       normalized_var=nv)


def overlap(a: CollectiveState, b: CollectiveState) -> complex:
    """<a|b>; states of different total spin are orthogonal."""
    if a.two_j != b.two_j:
        return 0j
    return complex(np.sum(np.conj(a.amps) * b.amps))


# a state record is {"sectors": [{"twoJ": 2J, "amps": [[re, im], ...]}]}: a
# list that always holds one spin block
def state_to_json(state: CollectiveState) -> dict:
    return {
        "sectors": [
            {
                "twoJ": state.two_j,
                "amps": [[float(z.real), float(z.imag)] for z in state.amps],
            }
        ]
    }


def state_from_json(data: dict) -> CollectiveState:
    try:
        records = data["sectors"]
        if len(records) != 1:
            raise DomainError(f"a state record holds one spin block, not {len(records)}")
        two_j = int(records[0]["twoJ"])
        amps = np.array([complex(re, im) for re, im in records[0]["amps"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed state record: {exc}") from exc
    return CollectiveState(two_j, amps)
