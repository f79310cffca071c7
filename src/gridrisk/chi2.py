"""Chi-squared laws of the residual test, on scipy.special's ufuncs.

The detection threshold is the central law's upper-tail quantile
`chdtri`, and the noncentral CDF is `chndtr`.  These wrappers
add the domain checks the ufuncs leave to NaN.  scipy.stats is not
imported: it would add about 21 MB and 0.3 to 0.5 s to every command's
start-up.
"""

from __future__ import annotations

import numpy as np
from scipy.special import chdtri, chndtr


def _check_dof(dof: int):
    if dof < 1:
        raise ValueError("dof must be at least 1")


def threshold(alpha: float, dof: int) -> float:
    """Detection threshold tau at which the central chi-squared CDF with
    dof degrees of freedom is 1 - alpha.

    alpha is the false-alarm probability under the no-attack hypothesis.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    _check_dof(dof)
    return float(chdtri(dof, alpha))


def noncentral_cdf(x, dof: int, lam):
    """CDF of the noncentral chi-squared distribution.

    x and lam may be scalars or arrays; the result is a float for
    scalars and an array otherwise.  `chndtr` is nan, not 0, past
    lam ~ 1e19; where lam > x there, x lies billions of standard
    deviations below the mean and the CDF is 0.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam >= 0.0):
        raise ValueError("noncentrality must be nonnegative")
    _check_dof(dof)
    out = chndtr(np.maximum(x, 0.0), dof, lam)
    out = np.where(np.isnan(out) & (lam > x), 0.0, out)
    return float(out) if out.ndim == 0 else out


def detection_delta(tau: float, dof: int, lam):
    """Probability that the residual statistic exceeds tau under noncentrality lam."""
    return 1.0 - noncentral_cdf(tau, dof, lam)
