"""Collective spin states: Dicke basis vectors, spin coherent states, moments.

A state is a superposition over the |J, m_z> kets of one total spin J, with
amplitudes ordered by increasing m_z.  The measurement machinery is diagonal
in m_z, so the state keeps its J under every operation here.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .errors import DomainError, PreconditionError, count_text, reserve
from .numerics import _whole, finite, log_factorial, twice

_NORM_TOL = 1e-9
# the smallest normal double
_TINY = float(np.finfo(float).tiny)


def _spin_size(n, lo=0, below="negative total spin") -> int:
    """N = 2J, read by `_whole`, with N + 1 states over the cap refused by `reserve`."""
    n = _whole(n, (below, "2J={} is not an integer", None), lo)
    reserve(n + 1, "N = {} gives a spin dimension of {}, over the cap of {cap}", n, n + 1)
    return n


class CollectiveState(Record):
    """One total-spin block: amps[i] is the amplitude of m_z = -J + i."""

    def __init__(self, two_j: int, amps: np.ndarray):
        two_j = _spin_size(two_j)
        a = np.array(amps, dtype=complex)
        if a.shape != (two_j + 1,):
            raise DomainError(f"a state of 2J={two_j} needs {two_j + 1} amplitudes")
        # nan and inf pass every norm and tolerance guard downstream
        if not np.isfinite(a).all():
            raise DomainError("state has non-finite amplitudes")
        a.setflags(write=False)
        self._keep(two_j, a)

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
            shown = count_text(int(m_z)) if isinstance(m_z, (int, np.integer)) else m_z
            raise DomainError(f"m_z={shown} not in 2J={self.two_j}")
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


class SpinMoments(Record):
    def __init__(self, mean_jx: float, mean_jz: float, var_jz: float,
                 normalized_var: float):
        self._keep(mean_jx, mean_jz, var_jz, normalized_var)


def dicke_state(J, m_z) -> CollectiveState:
    """Basis ket |J, m_z>."""
    tj = _spin_size(twice(J))
    ket = np.zeros(tj + 1)
    ket[CollectiveState(tj, ket).index_of(m_z)] = 1.0
    return CollectiveState(tj, ket)


def coherent_state(N: int, theta: float) -> CollectiveState:
    """Product state of N identical spins tilted by polar angle theta.

    Amplitude on m_z is sqrt(C(N, N/2+m_z)) cos^(N/2+m_z)(theta/2)
    sin^(N/2-m_z)(theta/2); the azimuthal angle is fixed at zero so the
    amplitudes are real.  Formed in log space so N ~ 10^3 stays accurate.
    N < 1 or a theta `finite` refuses is a DomainError; N over the cap, a ResourceCapError.
    """
    N = _spin_size(N, 1, "need at least one spin")
    theta = finite(theta, "theta must be a finite real")
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
    amps = state.amps
    with np.errstate(over="ignore"):
        n2 = state.squared_norm()
    if not _TINY <= n2 < math.inf:
        # the squares left the normal doubles: divide the real and imaginary
        # parts by the largest of them first, leaving each magnitude at most
        # sqrt 2 (complex division overflows near the subnormals)
        parts = amps.view(np.float64)
        big = np.abs(parts).max()
        if big == 0.0:
            raise DomainError("cannot normalize the zero state")
        amps = (parts / big).view(complex)
        n2 = float(np.sum(np.abs(amps) ** 2))
    return CollectiveState(state.two_j, amps * (1.0 / math.sqrt(n2)))


def scale_amplitudes(state: CollectiveState, log_factor: np.ndarray,
                     phase: np.ndarray) -> CollectiveState:
    """Act with a diagonal operator, given in log-polar form.

    Nonzero amplitude k is multiplied by exp(log_factor[k] + i phase[k]), both
    arrays running over `state.support()`; a zero amplitude stays as it is.
    Each product is one exponent, finite where a factor alone would overflow.
    """
    amps, live = state.amps.copy(), state._live()
    with np.errstate(under="ignore"):
        amps[live] = np.exp(np.log(np.abs(amps[live])) + log_factor
                            + 1j * (np.angle(amps[live]) + phase))
    return CollectiveState(state.two_j, amps)


def moments(state: CollectiveState) -> SpinMoments:
    """<J_x>, <J_z>, Var(J_z) and the variance normalized by N^2.

    J_z is diagonal; J_x couples neighboring m through the ladder matrix
    elements <J, m+1|J_x|J, m> = sqrt(J(J+1) - m(m+1))/2.  N is 2J.
    Var(J_z) is the mean of (m - <J_z>)^2, which keeps a nearly-Dicke
    state's variance where <m^2> - <m>^2 would cancel to 0; both means are
    taken over the weights |psi_m|^2 / sum |psi_m|^2, so that a norm a few
    ulp off 1 does not move <J_z> by more than the variance.
    """
    if not state.is_normalized():
        raise PreconditionError("moments requires a normalized state")
    a = state.amps
    w = np.abs(a) ** 2
    w /= w.sum()
    m = state.m_values()
    mean_z = float(np.dot(w, m))
    j = state.two_j / 2.0
    lad = 0.5 * np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    mean_x = float(2.0 * np.real(np.sum(np.conj(a[1:]) * lad * a[:-1])))
    var_z = float(np.dot(w, (m - mean_z) ** 2))
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
        return CollectiveState(_spin_size(records[0]["twoJ"]),
                               [complex(re, im) for re, im in records[0]["amps"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed state record: {exc}") from exc
