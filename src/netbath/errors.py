"""Exception types shared across the package.

The CLI maps every one of these onto a documented exit code: ConfigError,
ShapeError and SizeError -> 2, DomainError and InstabilityError -> 3,
AccuracyError -> 4.
"""

import math

#: Refuse, with SizeError and before allocating, any dense structure whose
#: arrays would need more than this many bytes (2 GiB): time-window steps,
#: grids, quadratures, population pools with their sweeps and the oracle's
#: Lanczos basis.
BYTE_CAP = 2 << 30

#: Node counts that grow without bound are held here, past every byte cap,
#: where they would pass the float range.
COUNT_HOLD = 10**18


def _check_bytes(need: float, what: str, hint: str = "") -> None:
    """Refuse with SizeError, before allocating, ``what`` needing ``need`` bytes.

    A need that is not finite, as a count past the floats or held at
    ``COUNT_HOLD`` gives, is reported as past the cap, with no figure.
    """
    if not need <= BYTE_CAP:   # nan too
        figure = (f"needs about {need / 2**30:.3g} GiB, cap is"
                  if need < math.inf else "is past the cap of")
        raise SizeError(f"{what} {figure} {BYTE_CAP / 2**30:.3g} GiB{hint}")


def _count(n: float) -> str:
    """A count as size refusals print it: from ``COUNT_HOLD`` on, where a
    held count or one past the float range is not the request's, as a bound."""
    return f"{n}" if n < COUNT_HOLD else "10^18 or more"


class NetbathError(Exception):
    """Base class for all package errors."""


class ConfigError(NetbathError):
    """Invalid configuration, flags, or input file."""


class DomainError(NetbathError):
    """Requested quantity is undefined for these parameters.

    Carries optional context, e.g. the onset frequency below which the
    uniform fixed point ceases to exist.
    """

    def __init__(self, message, lambda_star=None):
        super().__init__(message)
        self.lambda_star = lambda_star


class SingularTransformError(DomainError):
    """Single-edge update hit the pole of the rational map."""


class ShapeError(NetbathError):
    """Incompatible grids or kernel metadata."""


class SizeError(NetbathError):
    """Requested structure exceeds the configured size cap."""


class AccuracyError(NetbathError):
    """Requested discretization cannot meet the stated accuracy."""


class InstabilityError(NetbathError):
    """A mode frequency left the stable (positive stiffness) region."""
