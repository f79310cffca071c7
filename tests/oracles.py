"""Independent reference computations the tests pin expectations against.

Everything here avoids the package's own solver machinery: indices come
from rank arithmetic over explicit subset enumeration or from a per-row
program handed straight to scipy's HiGHS, certificates from dense least
squares, distributions from sampling or from series summed in high
precision.
"""

import itertools
import warnings

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from gridrisk.attack import AttackVector, build_limited_knowledge_attack

WITHDRAWAL_BIG_M = 1e4


def rank_of(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))


def set_admits_target(h: np.ndarray, rows, j0: int) -> bool:
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
            if set_admits_target(h, rows, j0):
                return size, rows
    return None, None


def enumeration_family(h: np.ndarray, j0: int):
    """All minimum-size feasible sets through j0 (0-based rows)."""
    size, first = enumeration_alpha(h, j0)
    if size is None:
        return frozenset()
    sets = []
    for rows in itertools.combinations(range(h.shape[0]), size):
        if j0 in rows and set_admits_target(h, rows, j0):
            sets.append(frozenset(rows))
    return frozenset(sets)


def parallel_classes_by_row(h: np.ndarray, atol: float):
    """Parallel row classes by a per-row scan: each row, as a unit vector
    signed so its first entry above atol is positive, joins the first
    earlier class whose first row it matches to atol in every entry, or
    opens a class.  Returns (classes, row_class) like
    `gridrisk.security.parallel_classes`."""
    units = h / np.linalg.norm(h, axis=1)[:, None]
    reps, members = [], []
    row_class = np.empty(h.shape[0], dtype=int)
    for i, u in enumerate(units):
        lead = int(np.argmax(np.abs(u) > atol))
        if u[lead] < 0:
            u = -u
        for ci, v in enumerate(reps):
            if np.max(np.abs(v - u)) <= atol:
                members[ci].append(i)
                row_class[i] = ci
                break
        else:
            reps.append(u)
            members.append([i])
            row_class[i] = len(reps) - 1
    return [np.array(ms, dtype=int) for ms in members], row_class


def three_circuits(h: np.ndarray, atol: float, chunk: int = 20_000):
    """Class triples of rank 2 by a scan of every triple: the classes of
    `parallel_classes_by_row`, each represented by its largest-norm row as
    a unit vector, and a triple kept when np.linalg.matrix_rank, at atol
    relative to its largest singular value, finds rank 2.  Returns the
    triples of 0-based class ids in lexicographic order."""
    classes, _ = parallel_classes_by_row(h, atol)
    reps = np.array([h[c[np.argmax(np.linalg.norm(h[c], axis=1))]] for c in classes])
    units = reps / np.linalg.norm(reps, axis=1)[:, None]
    triples = itertools.combinations(range(len(units)), 3)
    found = []
    while batch := list(itertools.islice(triples, chunk)):
        ranks = np.linalg.matrix_rank(units[np.array(batch)], rtol=atol)
        found += [t for t, r in zip(batch, ranks) if r == 2]
    return found


def withdrawal_index(h: np.ndarray, j0: int, ci: float, ca: float):
    """Cheapest stealth attack on row j0 when each row may be corrupted at
    cost ci or withdrawn at cost ca, as its own MILP.

    One corruption binary y_i and one withdrawal binary d_i per row (no
    grouping of parallel rows): |h_i c| <= M (y_i + d_i), y_i + d_i <= 1,
    h_j0 c = 1, y_j0 = 1, d_j0 = 0; minimise ci sum(y) + ca sum(d).  Needs
    ci, ca > 0.  A certificate that nearly fills the big-M box is refused,
    and the reported support is re-checked by rank test.  Returns
    (objective, corrupted rows, withdrawn rows), rows 0-based.
    """
    m, n = h.shape
    big = WITHDRAWAL_BIG_M * np.eye(m)
    ones, zeros = np.ones(m), np.zeros(m)
    lb = np.r_[np.full(n, -np.inf), zeros, zeros]
    ub = np.r_[np.full(n, np.inf), ones, ones]
    lb[n + j0] = 1.0
    ub[n + m + j0] = 0.0
    # HiGHS's default integrality tolerance (1e-6) lets a binary near 0
    # still carry M times that much of its row, which fakes supports on
    # random matrices; 1e-9 does not.  scipy warns that it passes the
    # option to HiGHS verbatim.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = milp(
            np.r_[np.zeros(n), ci * ones, ca * ones],
            integrality=np.r_[np.zeros(n), ones, ones],
            bounds=Bounds(lb, ub),
            constraints=[
                LinearConstraint(np.hstack([h, -big, -big]), -np.inf, 0.0),
                LinearConstraint(np.hstack([-h, -big, -big]), -np.inf, 0.0),
                LinearConstraint(np.hstack([np.zeros((m, n)), np.eye(m), np.eye(m)]),
                                 -np.inf, 1.0),
                LinearConstraint(np.r_[h[j0], zeros, zeros][None, :], 1.0, 1.0),
            ],
            options={"mip_rel_gap": 0.0, "mip_feasibility_tolerance": 1e-9},
        )
    if not res.success:
        raise RuntimeError(f"withdrawal program failed on row {j0}: {res.message}")
    # the witness is the binary support, re-checked by rank test
    corrupted = tuple(int(i) for i in np.flatnonzero(res.x[n : n + m] > 0.5))
    withdrawn = tuple(int(i) for i in np.flatnonzero(res.x[n + m :] > 0.5))
    objective = ci * len(corrupted) + ca * len(withdrawn)
    if np.abs(h @ res.x[:n]).max() > 0.99 * WITHDRAWAL_BIG_M \
            or abs(objective - res.fun) > 1e-6 * max(1.0, objective) \
            or not set_admits_target(h, corrupted + withdrawn, j0):
        raise RuntimeError(f"withdrawal witness for row {j0} did not verify")
    return objective, corrupted, withdrawn


def certificate_for_set(h: np.ndarray, rows, j0: int, mu: float) -> np.ndarray:
    """Least-squares certificate zeroing the complement of `rows` and
    moving row j0 by mu."""
    comp = [i for i in range(h.shape[0]) if i not in rows]
    a_eq = np.vstack([h[comp], h[j0][None, :]])
    b = np.zeros(a_eq.shape[0])
    b[-1] = mu
    c, *_ = np.linalg.lstsq(a_eq, b, rcond=None)
    return c


def full_knowledge_attack(model, c, d=None, target_j=None) -> AttackVector:
    """The attack a = (1 - d) H c on the true model, as an AttackVector
    (d the 0/1 availability mask, none if omitted).  It lies in the
    masked column space, so its residual shift is exactly zero.  The
    product is formed here, without the package's attack constructor."""
    d = np.zeros(model.m) if d is None else np.asarray(d, dtype=float)
    a = (1.0 - d) * (model.H @ np.asarray(c, dtype=float))
    mu = None if target_j is None else float(a[target_j - 1])
    return AttackVector(a=a, d=d, target_j=target_j, mu=mu)


def tuple_variants(perturbed, rows, target_j: int, mu: float) -> list:
    """The (attack_id, AttackVector) pairs `tuple_attack_variants`
    specifies on a critical tuple of at least three rows (1-based, through
    target_j): one certificate_for_set, then combined_1 withdrawing every
    other tuple row, combined_2 keeping the lowest-numbered other row
    corrupted, and fdi withdrawing nothing.  The vectors come from the
    package's attack constructor."""
    rows = sorted(rows)
    c = certificate_for_set(perturbed.H, [i - 1 for i in rows], target_j - 1, mu)
    others = [i for i in rows if i != target_j]

    def variant(withdrawn):
        d = np.zeros(perturbed.H.shape[0])
        d[[i - 1 for i in withdrawn]] = 1.0
        return build_limited_knowledge_attack(perturbed, c, d, target_j)

    k = len(rows)
    return [(f"combined_1_{k - 1}", variant(others)),
            (f"combined_2_{k - 2}", variant(others[1:])),
            (f"fdi_{k}", variant([]))]


def mc_alarm_count(model, attack, alpha: float, runs: int, seed) -> int:
    """Monte Carlo alarms of the residual test on `runs` noisy copies of
    attack.a: the whole noise matrix in one draw from default_rng(seed),
    scaled by sigma, then the masked weighted residual statistic of each
    run against the chi-squared threshold.  The residual sensitivity
    comes from the normal equations solved here, not from the package's
    gains."""
    from scipy import stats

    keep = attack.d == 0.0
    h_d = model.H * keep[:, None]
    r_inv = 1.0 / model.sigma**2
    k = np.linalg.solve(h_d.T @ (r_inv[:, None] * h_d), h_d.T * r_inv)
    s = np.eye(model.m) - h_d @ k
    z = np.random.default_rng(seed).standard_normal((runs, model.m)) * model.sigma
    z = z + attack.a
    r = z @ s.T
    t = np.sum((r[:, keep] / model.sigma[keep]) ** 2, axis=1)
    tau = stats.chi2.isf(alpha, model.m - model.n - int((~keep).sum()))
    return int(np.count_nonzero(t > tau))


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
