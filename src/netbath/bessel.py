"""Bessel function J0 for the convolution route of the time-domain kernel.

The values are ``scipy.special.j0``'s (Cephes j0: a rational approximation
on [0, 5], the Hankel asymptotic form above), imported on the first call so
that only the Bessel route loads ``scipy.special``.
"""

from __future__ import annotations

import numpy as np


def j0(x):
    """Bessel function of the first kind, order zero, for real argument;
    a Python float for a scalar."""
    from scipy.special import j0 as _j0

    out = _j0(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out
