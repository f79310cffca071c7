"""Independent reference computations the tests pin expectations against.

Everything here avoids the package's own solver machinery: indices come
from rank arithmetic over explicit subset enumeration or from a per-row
program handed straight to scipy's HiGHS, certificates from dense least
squares, measurement matrices row by row from the case document,
distributions from sampling or from series summed in high precision.
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


def dc_matrix(doc: dict, reactances=None) -> np.ndarray:
    """DC measurement matrix of a case document, one row per measurement
    of its plan, written out from line flows: a flow on line (f, t) of
    reactance x is (theta_f - theta_t) / x at its from end and the
    negation at its to end, and a bus injection is the sum of the flows
    leaving the bus.  Columns are the non-reference buses in document
    order.  reactances, one per line in document order, replace the
    document's own."""
    states = [b["id"] for b in doc["buses"] if not b.get("reference", False)]
    col = {bus: k for k, bus in enumerate(states)}
    lines = {}
    for i, ln in enumerate(doc["lines"]):
        x = ln["reactance"] if reactances is None else reactances[i]
        lines[ln["id"]] = (ln["from"], ln["to"], x)

    def flow(f, t, x):
        row = np.zeros(len(states))
        if f in col:
            row[col[f]] += 1.0 / x
        if t in col:
            row[col[t]] -= 1.0 / x
        return row

    rows = []
    for meas in doc["measurements"]:
        if meas["kind"] == "flow_from":
            rows.append(flow(*lines[meas["element"]]))
        elif meas["kind"] == "flow_to":
            rows.append(-flow(*lines[meas["element"]]))
        else:
            bus = meas["element"]
            rows.append(sum((flow(f, t, x) if f == bus else flow(t, f, x)
                             for f, t, x in lines.values() if bus in (f, t)),
                            np.zeros(len(states))))
    return np.array(rows)


def bipartition_index(doc: dict, j0: int):
    """Row j0's index and tuple under the minimum-cut rule, by brute force
    over every bus subset of a case document.

    A source side U of the buses touches the flow rows of each line with
    one end in U and the injection rows of every end bus of such a line.
    A flow row's cut keeps its line's from bus in U and its to bus out;
    an injection row's keeps its bus in U and one neighbour out, the
    cheapest neighbour, the first in document order on a tie.  Of the
    cheapest sides, the tuple is the rows of the smallest: the
    intersection of them all, which must itself be one of them.  Returns
    (cost, sorted 0-based rows)."""
    buses = [b["id"] for b in doc["buses"]]
    ends = {ln["id"]: (ln["from"], ln["to"]) for ln in doc["lines"]}
    plan = doc["measurements"]

    def touched(side):
        crossing = {k for k, (f, t) in ends.items() if (f in side) != (t in side)}
        hit = {b for k in crossing for b in ends[k]}
        return tuple(i for i, ms in enumerate(plan)
                     if (ms["element"] in hit if ms["kind"] == "injection"
                         else ms["element"] in crossing))

    target = plan[j0]
    if target["kind"] == "injection":
        bus = target["element"]
        near = {b for f, t in ends.values() if bus in (f, t) for b in (f, t)} - {bus}
        pairs = [(bus, u) for u in buses if u in near]
    else:
        pairs = [ends[target["element"]]]
    best = None
    for source, sink in pairs:
        free = [b for b in buses if b not in (source, sink)]
        sides = [frozenset(extra) | {source} for size in range(len(free) + 1)
                 for extra in itertools.combinations(free, size)]
        costs = [len(touched(side)) for side in sides]
        low = min(costs)
        cheapest = [side for side, cost in zip(sides, costs) if cost == low]
        smallest = frozenset.intersection(*cheapest)
        assert smallest in cheapest
        if best is None or low < best[0]:
            best = (low, touched(smallest))
    return best


def random_cut_exact_case(rng: np.random.Generator, buses: int) -> dict:
    """A case document on a random connected grid whose plan is
    cut-exact: a random tree plus random extra lines, the reference at a
    random bus, up to two injection rows per bus and on every line
    between 0 and 1 more flow rows than its two ends carry injection rows,
    in a shuffled order.  Observability is not checked."""
    reference = int(rng.integers(buses))
    lines = []
    for b in range(1, buses):
        lines.append((int(rng.integers(b)), b))
    for _ in range(int(rng.integers(0, buses))):
        f, t = (int(x) for x in rng.choice(buses, 2, replace=False))
        lines.append((f, t))
    injections = rng.choice([0, 0, 1, 1, 2], size=buses)
    plan = [{"kind": "injection", "element": b + 1, "sigma": 0.02}
            for b in range(buses) for _ in range(injections[b])]
    for k, (f, t) in enumerate(lines):
        for _ in range(injections[f] + injections[t] + int(rng.integers(0, 2))):
            kind = "flow_from" if rng.random() < 0.5 else "flow_to"
            plan.append({"kind": kind, "element": k + 1, "sigma": 0.02})
    order = rng.permutation(len(plan))
    return {
        "base_mva": 100.0,
        "buses": [dict({"id": b + 1}, **({"reference": True} if b == reference else {}))
                  for b in range(buses)],
        "lines": [{"id": k + 1, "from": f + 1, "to": t + 1,
                   "reactance": float(rng.uniform(0.05, 0.5))}
                  for k, (f, t) in enumerate(lines)],
        "measurements": [plan[i] for i in order],
    }


def random_observable_matrix(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Dense random matrix with full column rank (resampled if degenerate)."""
    while True:
        h = rng.normal(size=(m, n))
        if rank_of(h) == n:
            return h



RISK_HEADER = "attack_id,mu,k_a,k_d,lambda,delta_theory,delta_empirical,impact,risk"
DETECT_HEADER = "attack_id,mu,k_a,k_d,lambda,delta_theory"


def _reference_rows(header: str, curves, tails) -> str:
    """header, then one f-string per field of each point: attack_id,mu,
    k_a,k_d,lambda,delta_theory and the point's entry of tails(c), the
    text of its remaining fields."""
    lines = [header]
    for c in curves:
        lines.extend(
            f"{c.attack_id},{mu:.12g},{k_a},{c.k_d},{lam:.12g},{delta:.12g}{tail}"
            for mu, k_a, lam, delta, tail in zip(
                c.mu.tolist(), c.k_a.tolist(), c.lam.tolist(), c.delta.tolist(),
                tails(c)))
    return "\n".join(lines) + "\n"


def reference_risk_csv(curves) -> str:
    """The sweep CSV field by field; delta_empirical is empty for a curve
    without Monte Carlo runs."""
    def tails(c):
        emp = ([""] * len(c.mu) if c.alarms is None
               else [f"{v:.12g}" for v in c.delta_empirical.tolist()])
        return [f",{e},{impact:.12g},{risk:.12g}"
                for e, impact, risk in zip(emp, c.impact.tolist(), c.risk.tolist())]

    return _reference_rows(RISK_HEADER, curves, tails)


def reference_detect_csv(curves) -> str:
    """The detection CSV field by field.  When any curve has Monte Carlo
    runs, every row carries delta_empirical,ci_low,ci_high, empty for a
    curve without runs.  The interval is the package's Wilson interval;
    only the text is the reference's own."""
    from gridrisk.risk import _wilson_interval

    empirical = any(c.alarms is not None for c in curves)

    def tails(c):
        if c.alarms is None:
            return [",,," if empirical else ""] * len(c.mu)
        out = []
        for alarms in c.alarms.tolist():
            low, high = _wilson_interval(alarms, c.runs)
            out.append(f",{alarms / c.runs:.12g},{low:.12g},{high:.12g}")
        return out

    header = DETECT_HEADER + (",delta_empirical,ci_low,ci_high" if empirical else "")
    return _reference_rows(header, curves, tails)
