"""Security indices: minimum count or cost of corrupted measurements for a
stealth attack on one target measurement.

A stealth attack adds a = Hc to the measurements, so its footprint is the
support of Hc under the constraint H[j]c = mu.  alpha, the fewest
integrity corruptions, is a sparsest-support program, solved exactly as
a minimum cut on a grid model whose plan allows it and as a big-M MILP
by HiGHS otherwise; beta and gamma follow from its support.  A withdrawn
row leaves the stealth condition just as a corrupted one does, so
beta = alpha.  The cheapest split writes the target at C_I and takes the
cheaper action on every other row, so gamma = C_I + (alpha - 1) min(C_I, C_A).

Minimum cuts (Hendrickx, Johansson, Jungers, Sandberg & Sou, "Efficient
computations of a security index for false data attacks in power
networks", IEEE TAC 2014).  Give every bus an angle theta; then a flow
row is nonzero exactly when its line joins buses of unequal angle, and
an injection row when its bus's flows do not balance.  Moving one side
U of a bus bipartition by a constant touches the flow rows of the lines
across the cut and the injection rows of every bus at their ends.  In
the flow network each line is an edge whose capacity is its number of
flow rows, and each bus with injection rows is a Lawler hyperedge over
the bus and its neighbours, weighted by that count: a node pair joined
by an edge of that weight, which every member feeds and which feeds
every member at a capacity above any cut.  A cut pays the hyperedge
exactly when it splits the members.  A flow target separates its line's
from bus (the source) from its to bus; an injection target separates its
bus from the neighbour it is cheapest to cut it from, the first in case
order on a tie.  The tuple is the rows touched by the unique smallest
source side of a minimum cut: the buses a maximum flow's residual
network reaches from the source.  It depends only on the plan, so every
model with the same plan, the attacker's perturbed one included, gets
the same tuple.

The cut is exact when the plan is cut-exact: every line carries at
least as many flow rows as its two end buses carry injection rows
together.  Take any stealth attack theta through the target and any
threshold cut U = {theta >= t}.  Every line across U joins unequal
angles, so its flow rows are in theta's support.  A bus at the end of
such a line whose injection theta leaves at zero must have neighbours
strictly above and strictly below its own angle, so one of its lines
joins unequal angles on the same side of U: that line's rows are in
theta's support but not in the cut's.  Charge the bus's injection rows
to that line; a line is charged by at most its two end buses, and it
carries at least as many flow rows as they carry injection rows.  So no
threshold cut costs more than theta.  A threshold between the target
line's end angles, or between the target bus's angle and a neighbour's
that differs, gives a cut through the target, and so the minimum cut is
alpha.  On a plan that is not cut-exact a cut can cost more: a bus
whose flows balance hides a line that carries too few flow rows.  Those
plans, and bare matrices, take the MILP.

Rows that are scalar multiples of one another vanish together for every
certificate c, so each parallel row class gets a single indicator binary.
Every support either path reports is refit with exact zeros off the
support and checked for stealth before it is returned.

The big-M relaxation alone bounds alpha weakly (2 against 11 at the root
for ieee14 measurement 9, 4 with the rows below), so each program also
carries the short-circuit inequalities of Barahona & Mahjoub ("On the cut
polytope", Math. Prog. 1986) on its 3-circuits: three pairwise
non-parallel class representatives of rank 2.  Each of the three rows is
a combination of the other two, so it cannot be the only nonzero row of
the triple, and y_a <= y_b + y_c holds for each member a of every
minimal stealth support.  Through the target class, whose binary is
fixed at 1, the rows become covers y_b + y_c >= 1.  The circuits are
found once per matrix and no minimal stealth support is cut off, so
alpha is unchanged; only which of several equally sparse supports is
reported can move.

Every program is solved at the magnitude 0.1 in one big-M box, and only
the refit uses the query's mu.  Every check on a candidate (stealth, the
big-M guard, an idle class) reads the refit's row values rescaled to the
program's magnitude, so it passes the same verdict at every mu.  The
support is therefore the same for every mu, and the certificate scales
with mu.  Among equally sparse supports, the one the MILP reports is the
one HiGHS proves optimal first; it is fixed for a given scipy build and
solver options, but follows no ordering of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow
from scipy.spatial.distance import cdist

from .milp import MilpProblem, solve_milp
from .network import GridModel

PARALLEL_ATOL = 1e-8
_PROGRAM_MU = 0.1        # the magnitude every index program is solved at
_BIG_M = 1e3             # the box every index program starts with
_M_GUARD = 0.99
_MAX_ENLARGEMENTS = 2    # big-M growth by 10x before giving up
_MAX_CUTS = 64           # refuted candidate supports before giving up
_VAL_TOL = 1e-7 * _PROGRAM_MU  # row value at or below which a class is idle
_CIRCUIT_SCREEN = 1e-12  # Gram determinant below which a triple gets an SVD
_CIRCUIT_BLOCK = 1 << 15  # Gram determinants computed per block of the scan


class SecurityIndexError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class IndexQuery:
    """One security-index question: which measurement, at what magnitude,
    against which model matrix."""

    h: np.ndarray
    target_j: int  # 1-based measurement index
    mu: float = 0.1

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", h)
        if h.ndim != 2:
            raise SecurityIndexError("model matrix must be 2-D")
        if not 1 <= self.target_j <= h.shape[0]:
            raise SecurityIndexError(f"target_j {self.target_j} outside 1..{h.shape[0]}")
        if self.mu == 0.0 or not np.isfinite(self.mu):
            raise SecurityIndexError("mu must be nonzero and finite")


def _check_costs(ci, ca):
    if not all(np.isfinite(c) and c >= 0 for c in (ci, ca)):
        raise SecurityIndexError("costs must be finite and nonnegative")


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


def _matrix(model_or_h) -> np.ndarray:
    h = getattr(model_or_h, "H", model_or_h)
    return np.asarray(h, dtype=float)


def parallel_classes(h):
    """Group rows that are exact scalar multiples of each other.

    Returns (classes, row_class): classes is a list of index arrays, one
    per class in order of first appearance; row_class maps each row to its
    class id.  Such rows share the same zero set for every c, which is
    what lets one binary represent the whole class.  Rows are compared as
    unit vectors signed so their first entry above PARALLEL_ATOL is
    positive; a row joins the first earlier class whose first row it
    matches to PARALLEL_ATOL in every entry, or else opens a class.
    """
    h = _matrix(h)
    m = h.shape[0]
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms < 1e-12):
        raise SecurityIndexError("model matrix has a zero row")
    units = h / norms[:, None]
    lead = np.argmax(np.abs(units) > PARALLEL_ATOL, axis=1)
    units[units[np.arange(m), lead] < 0] *= -1.0
    close = cdist(units, units, "chebyshev") <= PARALLEL_ATOL
    np.fill_diagonal(close, True)  # a row with a NaN still opens its own class
    classes = []
    row_class = np.full(m, -1)
    for i in range(m):
        if row_class[i] < 0:
            # no earlier class took row i, and none can take a row it matches
            members = np.flatnonzero(close[i] & (row_class < 0))
            row_class[members] = len(classes)
            classes.append(members)
    return classes, row_class


def three_circuits(rows) -> np.ndarray:
    """Triples of pairwise non-parallel rows that span only a plane.

    Returns the triples (a, b, c), a < b < c, 0-based, in lexicographic
    order, as a (k, 3) int array.  Rows are compared as unit vectors: a
    triple is a 3-circuit when its smallest singular value is at most
    PARALLEL_ATOL times its largest.  Projected off row a, rows b and c
    span an area whose square is the triple's Gram determinant, the
    product of its squared singular values: at most 4 PARALLEL_ATOL^2 on
    a circuit.  One Gram matrix gives that area for every triple, a block
    of rows a at a time, and the triples below _CIRCUIT_SCREEN are
    confirmed by an SVD.  A near-dependent triple that the SVD refuses
    never becomes a cut, since a false cut could only overstate alpha.
    """
    rows = np.asarray(rows, dtype=float)
    units = rows / np.linalg.norm(rows, axis=1)[:, None]
    g = units @ units.T
    k = len(units)
    found = [np.zeros((0, 3), dtype=int)]
    lo = 0
    while lo < k - 2:
        hi = min(k - 2, lo + max(1, _CIRCUIT_BLOCK // (k - lo) ** 2))
        # Gram entries of rows lo.. after projecting off each a in lo..hi
        ga = g[lo:hi, lo:, None]
        sq = 1.0 - ga ** 2
        cross = g[lo:, lo:] - ga * ga.transpose(0, 2, 1)
        a, b, c = np.nonzero(sq * sq.transpose(0, 2, 1) - cross ** 2 <= _CIRCUIT_SCREEN)
        keep = (a < b) & (b < c)
        found.append(np.column_stack([a[keep], b[keep], c[keep]]) + lo)
        lo = hi
    triples = np.concatenate(found)
    if triples.size == 0 or units.shape[1] < 3:
        return triples  # with two columns every such triple spans a plane
    s = np.linalg.svd(units[triples], compute_uv=False)
    return triples[s[:, 2] <= PARALLEL_ATOL * s[:, 0]]


@dataclass(frozen=True, eq=False)
class CutNetwork:
    """A cut-exact plan as a flow network.  Nodes 0..buses-1 are the
    buses in case order; each bus with injection rows adds two more, the
    Lawler pair of its hyperedge.  ends holds each line's (from, to) bus,
    row_line each flow row's line and row_bus each injection row's bus
    (-1 where a row is of the other kind), and neighbours each bus's
    adjacent buses in case order."""

    capacity: csr_matrix
    buses: int
    ends: np.ndarray
    row_line: np.ndarray
    row_bus: np.ndarray
    neighbours: tuple


def _cut_network(model: GridModel):
    """The model's plan as a CutNetwork, or None unless it is cut-exact:
    every line carries at least as many flow rows as its two end buses
    carry injection rows together."""
    full = np.insert(model.incidence, model.reference,
                     -model.incidence.sum(axis=0), axis=0)
    buses = full.shape[0]
    ends = np.column_stack([np.argmax(full == 1.0, axis=0),
                            np.argmax(full == -1.0, axis=0)])
    injection = np.array([kind == "injection" for kind, _ in model.measurement_labels])
    # a flow row is +-1 on its line; an injection row is +1 on the lines
    # leaving its bus and -1 on those entering it
    first = np.argmax(model.line_map != 0.0, axis=1)
    leaves = model.line_map[np.arange(model.m), first] > 0.0
    row_line = np.where(injection, -1, first)
    row_bus = np.where(injection, np.where(leaves, ends[first, 0], ends[first, 1]), -1)
    flows = np.bincount(row_line[~injection], minlength=model.n_t)
    injections = np.bincount(row_bus[injection], minlength=buses)
    if np.any(flows < injections[ends[:, 0]] + injections[ends[:, 1]]):
        return None

    neighbours = [set() for _ in range(buses)]
    for f, t in ends.tolist():
        neighbours[f].add(t)
        neighbours[t].add(f)
    # a capacity above every cut's row count stands for infinity
    big = model.m + 1
    tails, heads, caps = [ends[:, 0], ends[:, 1]], [ends[:, 1], ends[:, 0]], [flows, flows]
    for k, b in enumerate(np.flatnonzero(injections)):
        # the hyperedge {b} + neighbours costs its rows once it is split
        inner, outer = buses + 2 * k, buses + 2 * k + 1
        members = np.array([b, *neighbours[b]])
        tails += [members, [inner], np.full(len(members), outer)]
        heads += [np.full(len(members), inner), [outer], members]
        caps += [np.full(len(members), big), [injections[b]], np.full(len(members), big)]
    nodes = buses + 2 * np.count_nonzero(injections)
    capacity = coo_matrix(
        (np.concatenate(caps).astype(np.int32),
         (np.concatenate(tails), np.concatenate(heads))), shape=(nodes, nodes)).tocsr()
    capacity.eliminate_zeros()  # lines without flow rows
    return CutNetwork(capacity, buses, ends, row_line, row_bus,
                      tuple(sorted(nb) for nb in neighbours))


def _source_side(network: CutNetwork, source: int, sink: int):
    """The value of a minimum source-sink cut and its smallest source
    side, as a bus mask: the buses a maximum flow's residual network
    still reaches from the source."""
    flow = maximum_flow(network.capacity, source, sink)
    residual = network.capacity - flow.flow
    residual.eliminate_zeros()  # saturated edges
    reached = breadth_first_order(residual, source, return_predecessors=False)
    side = np.zeros(network.buses, dtype=bool)
    side[reached[reached < network.buses]] = True
    return flow.flow_value, side


def _cut_support(network: CutNetwork, j0: int):
    """The rows (0-based) a minimum cut through row j0 touches, and the
    cut's value.  A flow row's cut separates its line's from bus from its
    to bus; an injection row's separates its bus from the neighbour that
    is cheapest to cut it from, the first in case order on a tie."""
    line, bus = network.row_line[j0], network.row_bus[j0]
    if line >= 0:
        value, side = _source_side(network, *network.ends[line])
    else:
        value, side = min((_source_side(network, bus, u) for u in network.neighbours[bus]),
                          key=lambda cut: cut[0])
    crossing = side[network.ends[:, 0]] != side[network.ends[:, 1]]
    touched = np.zeros(network.buses, dtype=bool)
    touched[network.ends[crossing].ravel()] = True
    rows = np.flatnonzero(np.where(network.row_line >= 0, crossing[network.row_line],
                                   touched[network.row_bus]))
    return rows, value


@dataclass(frozen=True, eq=False)
class RowStructure:
    """What every index program on one matrix shares: its parallel
    classes (as `parallel_classes` returns them) and each class's
    representative (its largest-norm row).  A model whose plan is
    cut-exact carries its CutNetwork, and every program on it is a
    minimum cut; any other input carries the 3-circuits among the
    representatives, as class ids, for its MILPs."""

    classes: list
    row_class: np.ndarray
    reps: np.ndarray
    circuits: np.ndarray | None
    network: CutNetwork | None = None


def row_structure(model_or_h) -> RowStructure:
    """The structure of a model or bare matrix, found once for every
    index program posed on it.  This is where the path is chosen: a
    GridModel with a cut-exact plan gets minimum cuts, and everything
    else the MILP."""
    h = _matrix(model_or_h)
    classes, row_class = parallel_classes(h)
    norms = np.linalg.norm(h, axis=1)
    reps = np.array([cls[np.argmax(norms[cls])] for cls in classes])
    network = _cut_network(model_or_h) if isinstance(model_or_h, GridModel) else None
    if network is not None:
        return RowStructure(classes, row_class, reps, None, network)
    return RowStructure(classes, row_class, reps, three_circuits(h[reps]))


def _build_problem(h, structure, j0, mu, big_m, cuts):
    n = h.shape[1]
    ncls = len(structure.classes)
    circuits = structure.circuits
    h_rep = h[structure.reps]

    nv = n + ncls
    n_circ = 3 * len(circuits)
    n_ub = 2 * ncls + n_circ + len(cuts)
    a_ub = np.zeros((n_ub, nv))
    b_ub = np.zeros(n_ub)
    a_ub[0 : 2 * ncls : 2, :n] = h_rep
    a_ub[1 : 2 * ncls : 2, :n] = -h_rep
    a_ub[np.arange(2 * ncls), n + np.repeat(np.arange(ncls), 2)] = -big_m
    # y_a - y_b - y_c <= 0 for each member a of each 3-circuit
    circ = a_ub[2 * ncls : 2 * ncls + n_circ]
    circ[np.repeat(np.arange(n_circ), 3), n + np.repeat(circuits, 3, axis=0).ravel()] = -1.0
    circ[np.arange(n_circ), n + circuits.ravel()] = 1.0
    if cuts:
        # at least one class outside each refuted support must be attacked
        a_ub[2 * ncls + n_circ :, n:] = -np.array(cuts)
        b_ub[2 * ncls + n_circ :] = -1.0
    a_eq = np.zeros((1, nv))
    a_eq[0, :n] = h[j0]
    b_eq = np.array([mu])

    binary = np.zeros(nv, dtype=bool)
    binary[n:] = True
    lb = np.full(nv, -np.inf)
    ub = np.full(nv, np.inf)
    lb[n:] = 0.0
    ub[n:] = 1.0
    lb[n + structure.row_class[j0]] = 1.0  # target row is corrupted by definition

    objective = np.zeros(nv)
    objective[n:] = [len(cls) for cls in structure.classes]
    return MilpProblem(objective, a_ub, b_ub, a_eq, b_eq, binary, lb, ub)


def _canonical_sets(support, j, ci, ca):
    """Cheapest split of a support (1-based rows) through target j: every
    row written, or with C_A < C_I the target written and the rest
    withdrawn."""
    if ca < ci:
        return (j,), tuple(i for i in support if i != j)
    return tuple(support), ()


def _gamma(alpha, ci, ca):
    return ci + (alpha - 1) * min(ci, ca)


def _refit(h, j0, mu, support_rows):
    """Least-squares certificate that zeroes every row off the support and
    moves the target by mu; its row values rescaled to the program's
    magnitude; and whether those do both to rounding error."""
    comp = np.setdiff1d(np.arange(h.shape[0]), support_rows)
    a = np.vstack([h[comp], h[j0][None, :]])
    b = np.zeros(a.shape[0])
    b[-1] = mu
    c, *_ = np.linalg.lstsq(a, b, rcond=None)
    v = (h @ c) * (_PROGRAM_MU / mu)
    stealth = (abs(v[j0] - _PROGRAM_MU) <= 1e-7
               and np.max(np.abs(v[comp]), initial=0.0) <= 1e-9)
    return c, v, stealth


def _rows_of(classes, on):
    return np.sort(np.concatenate([classes[k] for k in np.flatnonzero(on)]))


def _solve_index(query: IndexQuery, structure=None) -> SecurityIndexResult:
    """Sparsest stealth support through the target, with its certificate.

    On a cut-exact plan the support is the rows its minimum cut touches.
    Otherwise it comes from the MILP: HiGHS accepts a binary within its
    integrality tolerance of 0 while the big-M row still carries up to M
    times that tolerance, so its support is only a candidate.  The
    candidate is refit with exact zeros off the support and tested for
    stealth at the program's magnitude.  A candidate that fails cannot
    contain a stealthy subset, so a cut forcing some class outside it
    into the support is added and the program solved again.  Cuts remove
    no stealthy support, so the first candidate that passes is optimal.
    Either way the answer must pass the same refit, idle-class and
    objective checks.
    """
    h, j0, mu = query.h, query.target_j - 1, query.mu
    if structure is None:
        structure = row_structure(h)
    if structure.network is not None:
        rows, objective = _cut_support(structure.network, j0)
        on = np.zeros(len(structure.classes), dtype=bool)
        on[structure.row_class[rows]] = True
        cert, v, stealth = _refit(h, j0, mu, _rows_of(structure.classes, on))
        if not stealth:
            raise SecurityIndexError("minimum cut support failed the stealth check")
    else:
        objective, on, cert, v = _solve_milp_index(h, structure, j0, mu)

    # Every class costs at least one row, so dropping a class the verified
    # certificate leaves at zero would undercut an optimal support
    if np.any(np.abs(v[structure.reps[on]]) <= _VAL_TOL):
        raise SecurityIndexError("optimal support holds a class its certificate leaves at zero")
    support = tuple(int(i) + 1 for i in _rows_of(structure.classes, on))
    if abs(objective - len(support)) > 1e-6 * len(support):
        raise SecurityIndexError("objective inconsistent with reported support")
    return SecurityIndexResult(float(len(support)), support, (), cert, True)


def _solve_milp_index(h, structure, j0, mu):
    """The MILP's optimal objective, the classes of its first support
    that passes the stealth test, and that support's refit (certificate
    and row values at the program's magnitude)."""
    n = h.shape[1]
    classes = structure.classes
    big = _BIG_M
    enlargements = 0
    cuts = []
    while True:
        sol = solve_milp(_build_problem(h, structure, j0, _PROGRAM_MU, big, cuts))
        if sol.status != "optimal":
            raise SecurityIndexError(f"index program ended with status {sol.status}")
        on = sol.x[n : n + len(classes)] > 0.5
        cert, v, stealth = _refit(h, j0, mu, _rows_of(classes, on))
        if not stealth:
            if len(cuts) == _MAX_CUTS:
                raise SecurityIndexError(
                    f"no stealthy support after {_MAX_CUTS} refuted candidates")
            cuts.append((~on).astype(float))
        elif np.max(np.abs(v)) > _M_GUARD * big:
            # big-M validity guard: even the least-norm certificate of the
            # support nearly fills the box, so the box may cut off others
            if enlargements == _MAX_ENLARGEMENTS:
                raise SecurityIndexError("big-M guard failed after repeated enlargement")
            big *= 10.0
            enlargements += 1
        else:
            return sol.objective, on, cert, v


def fdi_index(query: IndexQuery, structure=None) -> SecurityIndexResult:
    """alpha: fewest integrity corruptions for a stealth attack on j.

    structure is `row_structure` of query.h, or of the model query.h
    belongs to, when the caller already has it; only a model's structure
    can take the minimum cut.
    """
    return _solve_index(query, structure)


def combined_index(query: IndexQuery, structure=None) -> SecurityIndexResult:
    """beta: fewest corruptions when availability attacks may substitute.

    A withdrawn row leaves the stealth condition just as a corrupted one
    does, so beta is alpha: this is alpha's program and support, reported
    with every row written.  `risk.tuple_attack_variants` builds its
    variants on that support.  structure is as for `fdi_index`.
    """
    return _solve_index(query, structure)


def cost_weighted_index(query: IndexQuery, cost_integrity: float = 1.0,
                        cost_availability: float = 0.5) -> SecurityIndexResult:
    """gamma: cheapest stealth attack under per-action costs.

    At its cheapest split a support of k rows through the target costs
    C_I + (k - 1) min(C_I, C_A), and k >= alpha, so alpha's support is a
    cheapest one.
    """
    ci, ca = cost_integrity, cost_availability
    _check_costs(ci, ca)
    res = _solve_index(query)
    integ, avail = _canonical_sets(res.support, query.target_j, ci, ca)
    return replace(res, objective=_gamma(res.objective, ci, ca),
                   integrity_set=integ, availability_set=avail)


def index_sweep(model_or_h, cost_integrity: float = 1.0,
                cost_availability: float = 0.5, mapper=None):
    """Per-measurement index table for j = 1..m.

    Parallel rows share their index and support family, so one alpha
    program is solved per class, for its first row, and its result
    replicated to the members.  `row_structure(model_or_h)` is found once
    and shared by every program: a GridModel with a cut-exact plan is
    swept by minimum cuts, anything else by MILPs.  beta, gamma and the split follow from alpha's support, and only the
    split is member-specific.  Classes are independent tasks, so a
    parallel mapper changes nothing but time.
    """
    ci, ca = cost_integrity, cost_availability
    _check_costs(ci, ca)
    h = _matrix(model_or_h)
    structure = row_structure(model_or_h)

    def solve_class(cls):
        return fdi_index(IndexQuery(h, int(cls.min()) + 1), structure)

    rows = [None] * h.shape[0]
    classes = structure.classes
    for cls, res in zip(classes, (mapper or map)(solve_class, classes)):
        for j0 in cls:
            # the whole class sits inside the support, so members differ
            # only in which row is written rather than withdrawn
            integ, avail = _canonical_sets(res.support, int(j0) + 1, ci, ca)
            rows[j0] = {
                "j": int(j0) + 1,
                "alpha": int(res.objective),
                "beta": int(res.objective),
                "gamma_fdi": ci * res.objective,
                "gamma_combined": _gamma(res.objective, ci, ca),
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
