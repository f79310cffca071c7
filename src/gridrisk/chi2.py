"""Chi-squared distribution kernels for residual-based detection.

Central CDF through the regularized lower incomplete gamma function,
detection thresholds through bracketed root-finding, and the noncentral
CDF through a Poisson mixture of central CDFs.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

# Relative tolerance for the incomplete-gamma series and continued fraction.
GAMMA_RTOL = 1e-14
# Truncation tolerance for the Poisson-mixture noncentral CDF: summation
# stops once the unaccumulated Poisson tail mass falls below this.
NONCENTRAL_TAIL_TOL = 1e-12

_MAX_ITER = 10_000_000


def _gamma_p_series(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) by series, for x < s + 1."""
    term = 1.0 / s
    total = term
    a = s
    for _ in range(_MAX_ITER):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * GAMMA_RTOL:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise RuntimeError("incomplete gamma series did not converge")


def _gamma_q_contfrac(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) by continued fraction,
    for x >= s + 1 (modified Lentz iteration)."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < GAMMA_RTOL:
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise RuntimeError("incomplete gamma continued fraction did not converge")


def regularized_gamma_p(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) for s > 0, x >= 0."""
    if s <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return min(1.0, _gamma_p_series(s, x))
    return min(1.0, max(0.0, 1.0 - _gamma_q_contfrac(s, x)))


def central_cdf(x: float, dof: int) -> float:
    """CDF of the central chi-squared distribution with dof degrees of freedom."""
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if x <= 0.0:
        return 0.0
    return regularized_gamma_p(dof / 2.0, x / 2.0)


def threshold(alpha: float, dof: int) -> float:
    """Detection threshold tau with central_cdf(tau, dof) = 1 - alpha.

    alpha is the false-alarm probability under the no-attack hypothesis.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if dof < 1:
        raise ValueError("dof must be at least 1")
    target = 1.0 - alpha
    hi = dof + 10.0 * math.sqrt(2.0 * dof) + 10.0
    while central_cdf(hi, dof) < target:
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("threshold bracket expansion failed")
    return brentq(
        lambda t: central_cdf(t, dof) - target, 0.0, hi, xtol=1e-13, rtol=1e-15
    )


def noncentral_cdf(
    x: float, dof: int, lam: float, tail_tol: float = NONCENTRAL_TAIL_TOL
) -> float:
    """CDF of the noncentral chi-squared distribution.

    Evaluated as the Poisson(lam/2) mixture of central CDFs with dof + 2i
    degrees of freedom, accumulated outward from the Poisson mode and
    truncated once the remaining mixture mass is below tail_tol.
    """
    if lam < 0.0:
        raise ValueError("noncentrality must be nonnegative")
    if dof < 1:
        raise ValueError("dof must be at least 1")
    half = lam / 2.0
    if half == 0.0:  # lam is 0, or so small that lam / 2 underflows
        return central_cdf(x, dof)
    if x <= 0.0:
        return 0.0

    x_half = x / 2.0
    i0 = int(half)
    log_w0 = -half + i0 * math.log(half) - math.lgamma(i0 + 1)
    w_mode = math.exp(log_w0)
    a0 = dof / 2.0 + i0
    f_mode = regularized_gamma_p(a0, x_half)
    # t_i is the step between consecutive central CDFs:
    # P(a + 1, x) = P(a, x) - x^a e^-x / Gamma(a + 1)
    t_mode = math.exp(a0 * math.log(x_half) - x_half - math.lgamma(a0 + 1.0))

    total = w_mode * f_mode
    mass = w_mode

    w, f, t, a = w_mode, f_mode, t_mode, a0
    i = i0
    while 1.0 - mass > tail_tol:
        # upward from the mode
        f -= t
        t *= x_half / (a + 1.0)
        a += 1.0
        i += 1
        w *= half / i
        if f < 0.0:
            f = 0.0
        total += w * f
        mass += w
        if w < tail_tol * 1e-4:
            break

    w, f, t, a = w_mode, f_mode, t_mode, a0
    i = i0
    while i > 0:
        t *= a / x_half
        a -= 1.0
        f += t
        w *= i / half
        i -= 1
        if f > 1.0:
            f = 1.0
        total += w * f
        mass += w
        if 1.0 - mass <= tail_tol:
            break

    return min(1.0, max(0.0, total))


def detection_delta(tau: float, dof: int, lam: float) -> float:
    """Probability that the residual statistic exceeds tau under noncentrality lam."""
    return 1.0 - noncentral_cdf(tau, dof, lam)
