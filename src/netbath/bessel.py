"""Bessel functions J0 and J1 for the closed-form route of the time-domain
kernel.

The values are ``scipy.special``'s (Cephes j0 and j1: rational
approximations on [0, 5], the Hankel asymptotic forms above),
imported on the first call so that only the Bessel route loads
``scipy.special``.
"""

from __future__ import annotations

import numpy as np


def _cephes(name: str, x):
    from scipy import special

    out = getattr(special, name)(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def j0(x):
    """Bessel function of the first kind, order zero, for real argument;
    a Python float for a scalar."""
    return _cephes("j0", x)


def j1(x):
    """Bessel function of the first kind, order one, for real argument;
    a Python float for a scalar."""
    return _cephes("j1", x)
