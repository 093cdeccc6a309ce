"""Bessel function J1 for the closed-form route of the time-domain kernel.

The values are ``scipy.special``'s (Cephes j1: rational approximations
on [0, 5], the Hankel asymptotic forms above), imported on the first call
so that only the Bessel route loads ``scipy.special``.
"""

from __future__ import annotations

import numpy as np


def j1(x):
    """Bessel function of the first kind, order one, for real argument;
    a Python float for a scalar."""
    from scipy import special

    out = special.j1(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out
