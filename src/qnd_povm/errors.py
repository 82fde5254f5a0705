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


def reserve(entries: int, message: str, *counts):
    """Refuse, before it is allocated, an array of over MAX_ENTRIES entries:
    the one comparison against the cap.  The message is formatted only on
    refusal: each "{}" is the next count, by `count_text`, and "{cap}" is the cap."""
    if entries > MAX_ENTRIES:
        raise ResourceCapError(message.format(*map(count_text, counts), cap=MAX_ENTRIES))


def count_text(n: int) -> str:
    """A count as the cap messages print it: every digit below 2^53 in
    magnitude, and three significant ones from there, where a double no
    longer holds every integer (light near the double range gives counts of
    hundreds of digits)."""
    if abs(n) < 1 << 53:
        return str(n)
    from decimal import Decimal  # only a refusal of such a count reaches it

    return f"{Decimal(n):.3g}"


class ConfigError(QndError):
    """Invalid experiment configuration."""
