"""Exception types shared across the package.

The CLI maps every one of these onto a documented exit code: ConfigError,
ShapeError and SizeError -> 2, DomainError and InstabilityError -> 3,
AccuracyError -> 4.
"""

#: Refuse, with SizeError and before allocating, any dense structure whose
#: arrays would need more than this many bytes (2 GiB): time-window steps,
#: grids, quadratures, population pools with their sweeps and the oracle's
#: Lanczos basis.
BYTE_CAP = 2 << 30


def _check_bytes(need: float, what: str, hint: str = "") -> None:
    """Refuse with SizeError, before allocating, ``what`` needing ``need`` bytes."""
    if not need <= BYTE_CAP:   # nan too, as a count past the floats gives
        raise SizeError(f"{what} needs about {need / 2**30:.3g} GiB, cap is "
                        f"{BYTE_CAP / 2**30:.3g} GiB{hint}")


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
