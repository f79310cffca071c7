"""Independent reference computations the tests pin expectations against.

Everything here avoids the package's own solver machinery: indices come
from rank arithmetic over explicit subset enumeration, certificates from
dense least squares, distributions from sampling or from series summed
in high precision.
"""

import itertools

import numpy as np


def rank_of(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))


def _set_admits_target(h: np.ndarray, rows, j0: int) -> bool:
    # a stealth certificate confined to `rows` can move row j0 exactly when
    # h_j0 leaves the row space of the complement
    comp = [i for i in range(h.shape[0]) if i not in rows]
    hc = h[comp]
    return rank_of(np.vstack([hc, h[j0][None, :]])) == rank_of(hc) + 1


def enumeration_alpha(h: np.ndarray, j0: int):
    """Smallest measurement set through which row j0 can be moved stealthily.

    j0 is 0-based.  Returns (size, first feasible set) or (None, None).
    """
    m = h.shape[0]
    for size in range(1, m + 1):
        for rows in itertools.combinations(range(m), size):
            if j0 not in rows:
                continue
            if _set_admits_target(h, rows, j0):
                return size, rows
    return None, None


def enumeration_family(h: np.ndarray, j0: int):
    """All minimum-size feasible sets through j0 (0-based rows)."""
    size, first = enumeration_alpha(h, j0)
    if size is None:
        return frozenset()
    sets = []
    for rows in itertools.combinations(range(h.shape[0]), size):
        if j0 in rows and _set_admits_target(h, rows, j0):
            sets.append(frozenset(rows))
    return frozenset(sets)


def certificate_for_set(h: np.ndarray, rows, j0: int, mu: float) -> np.ndarray:
    """Least-squares certificate zeroing the complement of `rows` and
    moving row j0 by mu."""
    comp = [i for i in range(h.shape[0]) if i not in rows]
    a_eq = np.vstack([h[comp], h[j0][None, :]])
    b = np.zeros(a_eq.shape[0])
    b[-1] = mu
    c, *_ = np.linalg.lstsq(a_eq, b, rcond=None)
    return c


def empirical_cdf(samples: np.ndarray, x: float) -> float:
    return float(np.mean(samples <= x))


def noncentral_cdf_mp(x: float, dof: int, lam: float, digits: int = 40) -> float:
    """Noncentral chi-squared CDF as the Poisson(lam/2) mixture of central
    CDFs, summed in `digits`-digit arithmetic until the terms past the
    Poisson mode fall below 1e-(digits - 5)."""
    import mpmath

    with mpmath.workdps(digits):
        half, x_half = mpmath.mpf(lam) / 2, mpmath.mpf(x) / 2
        weight = mpmath.exp(-half)
        total = mpmath.mpf(0)
        tol = mpmath.mpf(10) ** (5 - digits)
        i = 0
        while True:
            term = weight * mpmath.gammainc(mpmath.mpf(dof) / 2 + i, 0, x_half,
                                            regularized=True)
            total += term
            i += 1
            weight *= half / i
            if i > half and weight < tol:
                return float(total)


def random_observable_matrix(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Dense random matrix with full column rank (resampled if degenerate)."""
    while True:
        h = rng.normal(size=(m, n))
        if rank_of(h) == n:
            return h
