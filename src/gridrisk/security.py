"""Security indices: minimum count or cost of corrupted measurements for a
stealth attack on one target measurement.

A stealth attack adds a = Hc to the measurements, so its footprint is the
support of Hc under the constraint H[j]c = mu.  alpha counts integrity
corruptions alone, beta lets availability withdrawal stand in for
integrity corruption, gamma prices the two actions separately.  All three
are sparsest-support programs solved exactly as big-M MILPs by HiGHS.

Rows that are scalar multiples of one another vanish together for every
certificate c, so each parallel row class gets a single indicator binary.
Every support the solver reports is refit with exact zeros off the
support and checked for stealth before it is returned.  Among equally
cheap supports, the one reported is the one HiGHS finds first.  A
brute-force critical-tuple search over measurement subsets provides an
independent oracle for small systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .milp import MilpProblem, solve_milp

PARALLEL_ATOL = 1e-8
BIG_M_FACTOR = 1e4       # default M = BIG_M_FACTOR * |mu|
_M_GUARD = 0.99
_MAX_ENLARGEMENTS = 2    # big-M growth by 10x before giving up
_MAX_CUTS = 64           # refuted candidate supports before giving up
_VAL_TOL = 1e-7          # row-value nonzero threshold, scaled by |mu|


class SecurityIndexError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class IndexQuery:
    """One security-index question: which measurement, at what magnitude,
    under which action costs, against which model matrix."""

    h: np.ndarray
    target_j: int  # 1-based measurement index
    mu: float = 0.1
    cost_integrity: float = 1.0
    cost_availability: float = 0.5
    big_m: Optional[float] = None

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", h)
        if h.ndim != 2:
            raise SecurityIndexError("model matrix must be 2-D")
        if not 1 <= self.target_j <= h.shape[0]:
            raise SecurityIndexError(f"target_j {self.target_j} outside 1..{h.shape[0]}")
        if self.mu == 0.0 or not np.isfinite(self.mu):
            raise SecurityIndexError("mu must be nonzero and finite")
        if self.cost_integrity < 0 or self.cost_availability < 0:
            raise SecurityIndexError("costs must be nonnegative")
        if self.big_m is not None and self.big_m <= 0:
            raise SecurityIndexError("big_m must be positive")

    @property
    def resolved_big_m(self) -> float:
        return self.big_m if self.big_m is not None else BIG_M_FACTOR * abs(self.mu)


@dataclass(frozen=True, eq=False)
class SecurityIndexResult:
    objective: float
    integrity_set: tuple  # 1-based, sorted
    availability_set: tuple
    certificate_c: np.ndarray
    verified_stealth: bool  # always True: a support that fails the check raises

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.integrity_set + self.availability_set))


@dataclass(frozen=True)
class BruteForceResult:
    objective: int
    support: tuple           # first minimal support, 1-based
    family: tuple            # all minimal supports, enumeration order


@dataclass(frozen=True)
class Theorem2Report:
    target_j: int
    alpha: int
    beta: int
    alpha_perturbed: int
    beta_perturbed: int
    indices_equal: bool
    assumption1_holds: Optional[bool]  # None when the system is too large to enumerate


def _matrix(model_or_h) -> np.ndarray:
    h = getattr(model_or_h, "H", model_or_h)
    return np.asarray(h, dtype=float)


def parallel_classes(h):
    """Group rows that are exact scalar multiples of each other.

    Returns (classes, row_class): classes is a list of index arrays, one
    per class in order of first appearance; row_class maps each row to its
    class id.  Such rows share the same zero set for every c, which is
    what lets one binary represent the whole class.
    """
    h = _matrix(h)
    m = h.shape[0]
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms < 1e-12):
        raise SecurityIndexError("model matrix has a zero row")
    units = h / norms[:, None]
    reps = []
    members = []
    row_class = np.empty(m, dtype=int)
    for i in range(m):
        u = units[i]
        lead = int(np.argmax(np.abs(u) > PARALLEL_ATOL))
        if u[lead] < 0:
            u = -u
        for ci, v in enumerate(reps):
            if np.max(np.abs(v - u)) <= PARALLEL_ATOL:
                members[ci].append(i)
                row_class[i] = ci
                break
        else:
            reps.append(u)
            members.append([i])
            row_class[i] = len(reps) - 1
    classes = [np.array(ms, dtype=int) for ms in members]
    return classes, row_class


def _build_problem(h, classes, row_class, j0, mu, big_m, y_weights, with_d,
                   d_delta, cuts):
    m, n = h.shape
    ncls = len(classes)
    jc = int(row_class[j0])
    norms = np.linalg.norm(h, axis=1)
    rep_rows = np.array([cls[np.argmax(norms[cls])] for cls in classes])
    h_rep = h[rep_rows]

    nv = n + ncls + (m if with_d else 0)
    n_ub = 2 * ncls + (m if with_d else 0) + len(cuts)
    a_ub = np.zeros((n_ub, nv))
    b_ub = np.zeros(n_ub)
    a_ub[0 : 2 * ncls : 2, :n] = h_rep
    a_ub[1 : 2 * ncls : 2, :n] = -h_rep
    a_ub[np.arange(2 * ncls), n + np.repeat(np.arange(ncls), 2)] = -big_m
    if with_d:
        d_rows = 2 * ncls + np.arange(m)
        a_ub[d_rows, n + ncls + np.arange(m)] = 1.0
        a_ub[d_rows, n + row_class] = -1.0
    if cuts:
        # at least one class outside each refuted support must be attacked
        a_ub[n_ub - len(cuts) :, n : n + ncls] = -np.array(cuts)
        b_ub[n_ub - len(cuts) :] = -1.0
    a_eq = np.zeros((1, nv))
    a_eq[0, :n] = h[j0]
    b_eq = np.array([mu])

    binary = np.zeros(nv, dtype=bool)
    binary[n:] = True
    lb = np.full(nv, -np.inf)
    ub = np.full(nv, np.inf)
    lb[n:] = 0.0
    ub[n:] = 1.0
    lb[n + jc] = 1.0  # target row is corrupted by definition
    if with_d:
        ub[n + ncls + j0] = 0.0  # the target value must be written, not withdrawn

    objective = np.zeros(nv)
    objective[n : n + ncls] = y_weights
    if with_d:
        objective[n + ncls :] = d_delta
    return MilpProblem(objective, a_ub, b_ub, a_eq, b_eq, binary, lb, ub), h_rep


def _canonical_sets(support_rows, j0, with_d, ci, ca):
    if with_d and ca < ci:
        integrity = (int(j0) + 1,)
        availability = tuple(sorted(int(i) + 1 for i in support_rows if i != j0))
    else:
        integrity = tuple(sorted(int(i) + 1 for i in support_rows))
        availability = ()
    return integrity, availability


def _refit(h, j0, mu, support_rows):
    """Least-squares certificate that zeroes every row off the support and
    moves the target by mu, and whether it does both to rounding error."""
    comp = np.setdiff1d(np.arange(h.shape[0]), support_rows)
    a = np.vstack([h[comp], h[j0][None, :]])
    b = np.zeros(a.shape[0])
    b[-1] = mu
    c, *_ = np.linalg.lstsq(a, b, rcond=None)
    stealth = (
        abs(h[j0] @ c - mu) <= 1e-7 * max(1.0, abs(mu))
        and (comp.size == 0 or np.max(np.abs(h[comp] @ c)) <= 1e-9 * max(1.0, abs(mu)))
    )
    return c, stealth


def _rows_of(classes, on):
    return np.sort(np.concatenate([classes[k] for k in np.flatnonzero(on)]))


def _solve_index(query: IndexQuery, with_d: bool, ci: float,
                 ca: float) -> SecurityIndexResult:
    """Cheapest stealth support through the target, with its certificate.

    HiGHS accepts a binary within its integrality tolerance of 0 while the
    big-M row still carries up to M times that tolerance, so its support
    is only a candidate.  The candidate is refit with exact zeros off the
    support and tested for stealth.  A candidate that fails cannot contain
    a stealthy subset, so a cut forcing some class outside it into the
    support is added and the program solved again.  Cuts remove no
    stealthy support, so the first candidate that passes is optimal.
    """
    h, j0, mu = query.h, query.target_j - 1, query.mu
    n = h.shape[1]
    classes, row_class = parallel_classes(h)
    sizes = np.array([len(c) for c in classes], dtype=float)
    wts = ci * sizes  # what attacking each class costs at the optimum
    if with_d:
        wts = sizes * min(ci, ca)
        wts[row_class[j0]] += ci - min(ci, ca)  # target row cannot be withdrawn
    big = query.resolved_big_m
    enlargements = 0
    cuts = []
    while True:
        problem, h_rep = _build_problem(h, classes, row_class, j0, mu, big,
                                        ci * sizes, with_d, ca - ci, cuts)
        sol = solve_milp(problem)
        if sol.status != "optimal":
            raise SecurityIndexError(f"index program ended with status {sol.status}")
        on = sol.x[n : n + len(classes)] > 0.5
        cert, stealth = _refit(h, j0, mu, _rows_of(classes, on))
        if not stealth:
            if len(cuts) == _MAX_CUTS:
                raise SecurityIndexError(
                    f"no stealthy support after {_MAX_CUTS} refuted candidates")
            cuts.append((~on).astype(float))
        elif np.max(np.abs(h @ cert)) > _M_GUARD * big:
            # big-M validity guard: even the least-norm certificate of the
            # support nearly fills the box, so the box may cut off others
            if enlargements == _MAX_ENLARGEMENTS:
                raise SecurityIndexError("big-M guard failed after repeated enlargement")
            big *= 10.0
            enlargements += 1
        else:
            break

    # Drop classes the verified certificate leaves at zero.  Only zero-cost
    # classes can be such padding at an optimum; dropping a paid one fails
    # the objective check below.
    idle = on & (np.abs(h_rep @ cert) <= _VAL_TOL * abs(mu))
    if idle.any():
        on &= ~idle
        cert, stealth = _refit(h, j0, mu, _rows_of(classes, on))
        if not stealth:
            raise SecurityIndexError("support lost stealth after dropping idle classes")
    value = float(wts[on].sum())
    if abs(sol.objective - value) > 1e-6 * max(1.0, abs(value)):
        raise SecurityIndexError("objective inconsistent with reported support")
    integ, avail = _canonical_sets(_rows_of(classes, on), j0, with_d, ci, ca)
    return SecurityIndexResult(value, integ, avail, cert, True)


def _cardinality(res: SecurityIndexResult) -> SecurityIndexResult:
    if abs(res.objective - round(res.objective)) > 1e-6:
        raise SecurityIndexError("non-integer cardinality objective")
    return replace(res, objective=float(round(res.objective)))


def fdi_index(query: IndexQuery) -> SecurityIndexResult:
    """alpha: fewest integrity corruptions for a stealth attack on j."""
    return _cardinality(_solve_index(query, False, 1.0, 1.0))


def combined_index(query: IndexQuery) -> SecurityIndexResult:
    """beta: fewest corruptions when availability attacks may substitute."""
    return _cardinality(_solve_index(query, True, 1.0, 1.0))


def cost_weighted_index(query: IndexQuery,
                        availability: bool = True) -> SecurityIndexResult:
    """gamma: cheapest stealth attack under per-action costs.

    With availability=False the availability action is forbidden and the
    program reduces to the integrity-only index at cost C_I per row.
    """
    return _solve_index(query, availability, query.cost_integrity,
                        query.cost_availability)


def brute_force_index(model_or_h, target_j: int, max_rows: int = 25,
                      max_enumerations: int = 500_000) -> BruteForceResult:
    """Sparsest critical tuple containing target_j by direct enumeration.

    A support S (with j in S) admits a stealth certificate iff the target
    row is independent of the rows outside S, decided by a rank test.
    Supports are enumerated in increasing cardinality, so the first hits
    are exactly the minimal family.
    """
    h = _matrix(model_or_h)
    m, n = h.shape
    if m > max_rows:
        raise SecurityIndexError(f"enumeration guard: m = {m} exceeds {max_rows}")
    if not 1 <= target_j <= m:
        raise SecurityIndexError(f"target_j {target_j} outside 1..{m}")
    j0 = target_j - 1
    others = [i for i in range(m) if i != j0]
    seen = 0
    for k in range(1, m + 1):
        family = []
        for extra in itertools.combinations(others, k - 1):
            seen += 1
            if seen > max_enumerations:
                raise SecurityIndexError("enumeration cap exceeded")
            support = np.array(sorted((j0,) + extra))
            comp = np.setdiff1d(np.arange(m), support)
            r1 = np.linalg.matrix_rank(h[comp]) if comp.size else 0
            r2 = np.linalg.matrix_rank(np.vstack([h[comp], h[j0][None, :]]))
            if r2 == r1 + 1:
                family.append(tuple(int(i) + 1 for i in support))
        if family:
            return BruteForceResult(k, family[0], tuple(family))
    raise SecurityIndexError("no feasible support found; model unobservable?")


def verify_theorem2(h, h_perturbed, target_j: int, mu: float = 0.1,
                    enumeration_limit: int = 25) -> Theorem2Report:
    """Check that alpha and beta agree between a model and its structured
    perturbation, and (on systems small enough to enumerate) that the two
    models share identical minimal critical-tuple families for every j."""
    h = _matrix(h)
    hp = _matrix(h_perturbed)
    if h.shape != hp.shape:
        raise SecurityIndexError("models differ in shape")
    vals = []
    for mat in (h, hp):
        q = IndexQuery(mat, target_j, mu)
        vals.append(int(fdi_index(q).objective))
        vals.append(int(combined_index(q).objective))
    alpha, beta, alpha_p, beta_p = vals
    assumption = None
    if h.shape[0] <= enumeration_limit:
        assumption = all(
            brute_force_index(h, j).family == brute_force_index(hp, j).family
            for j in range(1, h.shape[0] + 1)
        )
    return Theorem2Report(target_j, alpha, beta, alpha_p, beta_p,
                          alpha == beta == alpha_p == beta_p, assumption)


def index_sweep(model_or_h, mu: float = 0.1, cost_integrity: float = 1.0,
                cost_availability: float = 0.5, mapper=None):
    """Per-measurement index table for j = 1..m.

    Parallel rows share their index and support family, so each class is
    solved once and the result replicated to its members; only the
    canonical integrity/availability split is member-specific.  Classes
    are independent tasks, so a parallel mapper changes nothing but time.
    """
    h = _matrix(model_or_h)
    classes, row_class = parallel_classes(h)
    ci, ca = cost_integrity, cost_availability

    def solve_class(cls):
        lead = int(cls.min())
        query = IndexQuery(h, lead + 1, mu, ci, ca)
        return fdi_index(query), combined_index(query), cost_weighted_index(query)

    rows = [None] * h.shape[0]
    for cls, (alpha, beta, gamma) in zip(classes,
                                         (mapper or map)(solve_class, classes)):
        support0 = sorted(i - 1 for i in gamma.support)
        for j0 in cls:
            # the whole class sits inside the support, so members differ
            # only in which row is written rather than withdrawn
            integ, avail = _canonical_sets(support0, int(j0), True, ci, ca)
            rows[j0] = {
                "j": int(j0) + 1,
                "alpha": int(alpha.objective),
                "beta": int(beta.objective),
                "gamma_fdi": ci * alpha.objective,
                "gamma_combined": gamma.objective,
                "k_a": len(integ),
                "k_d": len(avail),
                "integrity_set": integ,
                "availability_set": avail,
            }
    return rows


def format_index_csv(rows) -> str:
    def num(x):
        return f"{x:.12g}"

    lines = ["j,alpha,beta,gamma_fdi,gamma_combined,k_a,k_d,integrity_set,availability_set"]
    for r in rows:
        lines.append(",".join([
            str(r["j"]), str(r["alpha"]), str(r["beta"]),
            num(r["gamma_fdi"]), num(r["gamma_combined"]),
            str(r["k_a"]), str(r["k_d"]),
            ";".join(str(i) for i in r["integrity_set"]),
            ";".join(str(i) for i in r["availability_set"]),
        ]))
    return "\n".join(lines) + "\n"
