"""Exception taxonomy shared by all modules.

The CLI maps these onto its exit-code contract: config problems exit 2,
resource-cap overruns exit 3, numeric domain violations exit 4.
"""


class QndError(Exception):
    """Base class for all library errors."""


class DomainError(QndError):
    """Arguments outside the mathematical domain of an operation."""


class PreconditionError(QndError):
    """A documented precondition was violated (e.g. unnormalized state)."""


class ZeroProjectionError(DomainError):
    """Projective collapse annihilated the entire state."""


# the one size cap: the most entries any array, photon window, spin
# dimension or posterior dump may hold
MAX_ENTRIES = 1 << 24


class ResourceCapError(QndError):
    """A computation would exceed a hard size cap, or an enumeration window
    hit its cap before converging.

    Carries the mass captured so far so callers can report partial results;
    None when the cap was hit before any mass was measured.
    """

    def __init__(self, message, captured_mass=None):
        super().__init__(message)
        self.captured_mass = captured_mass


class ConfigError(QndError):
    """Invalid experiment configuration."""
