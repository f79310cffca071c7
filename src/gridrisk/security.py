"""Security indices: minimum count or cost of corrupted measurements for a
stealth attack on one target measurement.

A stealth attack adds a = Hc to the measurements, so its footprint is the
support of Hc under the constraint H[j]c = mu.  alpha, the fewest
integrity corruptions, is a sparsest-support program, solved exactly as
a minimum cut wherever a grid model's plan proves the cut minimal and as
a big-M MILP by HiGHS otherwise; beta and gamma follow from its support.
A withdrawn row leaves the stealth condition just as a corrupted one
does, so beta = alpha.  The cheapest split writes the target at C_I and
takes the cheaper action on every other row, so
gamma = C_I + (alpha - 1) min(C_I, C_A).

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
least as many flow rows as either of its end buses carries injection
rows.  Take any stealth attack theta through the target and any
threshold cut U = {theta >= t}.  Every line across U joins unequal
angles, so its flow rows are in theta's support.  A bus at the end of
such a line whose injection theta leaves at zero must have neighbours
strictly above and strictly below its own angle, so one of its lines
joins unequal angles on the same side of U: that line's rows are in
theta's support but not in the cut's.  Charge the bus's injection rows
to that line: a bus inside U to a line up to a strictly higher
neighbour, a bus outside to a line down to a strictly lower one.  A
line charged by both its ends would join two buses each strictly above
the other, so each line is charged by at most one end bus, and it
carries at least as many flow rows as that bus carries injection rows.
So no threshold cut costs more than theta.  A threshold between the
target line's end angles, or between the target bus's angle and a
neighbour's that differs, gives a cut through the target, and so the
minimum cut is alpha.

On any other plan two minimum cuts bound alpha.  Every bus bipartition's
step is a stealth attack that touches exactly its cut's rows, so the
plan's minimum cut through the target, U, is at least alpha; it can be
more, since a bus whose flows balance hides a line that carries too few
flow rows.  The floor keeps each bus's injection rows only up to the
fewest flow rows on any of its lines: it is the plan's largest cut-exact
sub-plan, so its minimum cut through the target, L, is its alpha.  A
stealth attack on the plan, restricted to the floor's rows, is a stealth
attack on the floor and touches no more rows, so L <= alpha <= U when
the target is a row of the floor; an injection target whose bus keeps
no row gets L = 0.  The plan and its floor share one flow network, one
sparsity pattern with two capacity columns that differ only on the
hyperedges, where the floor's may be 0.  Where L = U the plan's cut
support is optimal and is the answer, and no program is posed.  Where
L < U the cut's support of U rows is already in hand, so the MILP only
has to rule out a cheaper one: it is posed with U - 1/2 as a cutoff
(see `milp`), and a class for which HiGHS finds nothing below it has
alpha = U and reports the cut's tuple.  The cutoff sits half a row
under U, not just under it, because HiGHS's objective may carry its
integrality slack (up to its 1e-6 tolerance on each binary, times the
class's row count), while every support's true objective is a whole
row count.  Every row of a bare matrix takes the MILP without a
cutoff.  On a cut-exact plan the two columns are one, and one cut per
target serves.  A line's flow target and the injection target of its
from bus pose the same source-sink pair, so each pair is solved once
per structure, and the network keeps its value on both columns and its
source side on the plan's.  Pairs are solved by one maximum flow per
batch: each pair on its own copy of the network for each column, a
super source feeding every copy's source at a capacity above every
cut, and every copy's sink merged into one super sink.  Copies share
no edge and meet only at the super source and sink, so a maximum flow
of the whole carries a maximum flow of each copy's pair on its column,
and the buses the super source reaches in a copy's residual network
are the ones that pair's source reaches: its unique smallest
minimum-cut source side, whichever maximum flow is found.  No value,
tuple or byte depends on the batches.

Rows that are scalar multiples of one another vanish together for every
certificate c, so each parallel row class gets a single indicator binary,
and the whole answer is its first row's: every member gets the support
`index_sweep` reports, and another member's certificate only rescales
the first row's c by mu / (h_j c) to move its own row by mu.
A cut's certificate is its step, scaled to move the target by the
program's magnitude, and its support the rows that step moves: whole
classes, as many as the cut's value.  A MILP support is refit with exact
zeros off it, checked for stealth and must be minimal (`_check_minimal`).

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

Every program is solved, and every certificate built, at the magnitude
0.1 in one big-M box; a certificate is linear in the magnitude, so scale
it for another.  The box grows tenfold, at most twice, when the program
is infeasible (the all-classes support is stealthy, so only the box can
exclude every certificate) or its certificate nearly fills it.  With a
cutoff, finding nothing below U does not tell a small box apart, so the
box must then hold the cut support's own certificate, by the same
guard.  On a plan, a class reports a MILP support only when it is
cheaper than the cut's, so a tie at U always goes to the cut's tuple.
Among equally sparse supports below U, and on a bare matrix, the one
the MILP reports is the one HiGHS proves optimal first; it is fixed for
a given scipy build and solver options, but follows no ordering of the
rows.

A row value counts as zero when it is within rounding of zero: at most
_ROUNDING times the largest row norm times the certificate's norm.  A
step's entries are exact, so a row it leaves at rest is within a few
epsilons of that.  The MILP path's refit is an SVD least-squares solve,
which is backward stable: the computed certificate c solves a problem
whose matrix is off by a few machine epsilons of its norm, so a row the
exact certificate zeroes computes to a few epsilons of max_i |h_i| |c|.
A row's own norm does not bound that residue, since a small row carries
about the same one as a large row.  On ieee14 with its reactances scaled
by up to 10^4 either way, such residues reached 8e-11 of |h_i| |c| on
small rows but stayed below 5e-16 of max_i |h_i| |c|, while nonzero
support rows stayed above 3e-9 of it.  Over every refit of the tests,
stealthy supports left residues below 3e-15 of it and refuted candidates
above 1e-7.  _ROUNDING, about 4500 epsilons, sits between, with room for
the dimension factors of the rounding bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .milp import MilpProblem, solve_milp
from .network import GridModel

PARALLEL_ATOL = 1e-8
_PROGRAM_MU = 0.1        # the target move of every program and certificate
_BIG_M = 1e3             # the box every index program starts with
_M_GUARD = 0.99
_MAX_ENLARGEMENTS = 2    # big-M growth by 10x before giving up
_MAX_CUTS = 64           # refuted candidate supports before giving up
_ROUNDING = 1e-12        # zero row values, relative to max |h_i| |c|
_CIRCUIT_SCREEN = 1e-12  # Gram determinant below which a triple gets an SVD
_CIRCUIT_BLOCK = 1 << 15  # Gram determinants computed per block of the scan
_FLOW_BLOCK = 1 << 14    # edges per batched maximum flow (see `_solve_pairs`)


class SecurityIndexError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class IndexQuery:
    """One security-index question: which measurement of which model.
    model is a GridModel or a bare 2-D matrix; `row_structure(model)`
    picks the path that answers it."""

    model: GridModel | np.ndarray
    target_j: int  # 1-based measurement index

    def __post_init__(self):
        if not isinstance(self.model, GridModel):
            object.__setattr__(self, "model", np.asarray(self.model, dtype=float))
        m = _matrix(self.model).shape[0]
        if isinstance(self.target_j, bool) or not isinstance(self.target_j, (int, np.integer)):
            raise SecurityIndexError(f"target_j must be an integer, not {self.target_j!r}")
        if not 1 <= self.target_j <= m:
            raise SecurityIndexError(f"target_j {self.target_j} outside 1..{m}")


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
    """The measurement matrix of a GridModel or bare matrix; raises
    SecurityIndexError unless it is 2-D with at least one row."""
    h = np.asarray(getattr(model_or_h, "H", model_or_h), dtype=float)
    if h.ndim != 2 or h.shape[0] == 0:
        raise SecurityIndexError("model matrix must be 2-D with at least one row")
    return h


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
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norms = np.linalg.norm(h, axis=1)
    if not np.all(np.isfinite(norms)):
        raise SecurityIndexError("model matrix has a row that is not finite or too large")
    if np.any(norms < 1e-12):
        raise SecurityIndexError("model matrix has a zero row")
    units = h / norms[:, None]
    lead = np.argmax(np.abs(units) > PARALLEL_ATOL, axis=1)
    units[units[np.arange(m), lead] < 0] *= -1.0
    classes = []
    row_class = np.full(m, -1)
    for i in range(m):
        if row_class[i] < 0:
            # no earlier class took row i, and none can take a row it matches
            rest = np.flatnonzero(row_class < 0)
            members = rest[np.abs(units[rest] - units[i]).max(axis=1) <= PARALLEL_ATOL]
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
    """A plan as a flow network with two capacities, the plan's own and
    its floor's, on one sparsity pattern.  Nodes 0..buses-1 are the buses
    in case order; each bus with injection rows adds two more, the
    Lawler pair of its hyperedge.  capacity weighs each hyperedge by the
    bus's injection-row count, and floor, an array aligned with
    capacity.data, by the count the floor keeps, kept, which may be 0;
    exact tells whether the two agree, that is whether the plan is
    cut-exact.  ends holds each line's (from, to) bus, row_line each flow
    row's line and row_bus each injection row's bus (-1 where a row is of
    the other kind), neighbours each bus's adjacent buses in case order,
    reference the reference bus, and big the capacity that stands for
    infinity, above every cut.  flows maps (source, sink) to the pair's
    maximum flow value on the plan's capacity, on its floor's, and its
    smallest minimum-cut source side on the plan's as a bus mask; no
    flow itself is kept.  `_solve_pairs` fills it: a sweep's pairs
    before any class is posed, a single query's as it asks for them."""

    capacity: csr_matrix
    floor: np.ndarray
    exact: bool
    buses: int
    big: int
    ends: np.ndarray
    kept: np.ndarray
    row_line: np.ndarray
    row_bus: np.ndarray
    neighbours: tuple
    reference: int
    flows: dict = field(default_factory=dict, repr=False)


def _capacity(ends, flows, injections, kept, neighbours, big):
    """(capacity, floor) of a plan.  Each line with flow rows is an edge
    of capacity its flow-row count both ways, and each bus with injection
    rows a Lawler pair: every member of its hyperedge feeds the inner
    node and the outer node feeds every member at capacity big, and
    inner feeds outer at the bus's injection-row count.  The floor is
    the same data with kept on each inner-outer edge instead."""
    buses = len(neighbours)
    live = flows > 0  # lines without flow rows carry no edge
    ends, flows = ends[live], flows[live]
    tails, heads, caps = [ends[:, 0], ends[:, 1]], [ends[:, 1], ends[:, 0]], [flows, flows]
    hyper = np.flatnonzero(injections)
    for k, b in enumerate(hyper):
        # the hyperedge {b} + neighbours costs its weight once it is split
        inner, outer = buses + 2 * k, buses + 2 * k + 1
        members = np.array([b, *neighbours[b]])
        tails += [members, [inner], np.full(len(members), outer)]
        heads += [np.full(len(members), inner), [outer], members]
        caps += [np.full(len(members), big), [injections[b]], np.full(len(members), big)]
    nodes = buses + 2 * len(hyper)
    capacity = coo_matrix(
        (np.concatenate(caps).astype(np.int32),
         (np.concatenate(tails), np.concatenate(heads))), shape=(nodes, nodes)).tocsr()
    floor = capacity.data.copy()
    floor[capacity.indptr[buses:nodes:2]] = kept[hyper]  # each inner node's one edge
    return capacity, floor


def _cut_network(model: GridModel) -> CutNetwork:
    """The model's plan as a CutNetwork.  Its floor clips each bus's
    injection weight to the fewest flow rows on any of its lines, which
    is the plan's largest cut-exact sub-plan."""
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
    kept = injections.copy()
    np.minimum.at(kept, ends[:, 0], flows)
    np.minimum.at(kept, ends[:, 1], flows)

    neighbours = [set() for _ in range(buses)]
    for f, t in ends.tolist():
        neighbours[f].add(t)
        neighbours[t].add(f)
    neighbours = tuple(sorted(nb) for nb in neighbours)
    big = model.m + 1  # a capacity above every cut's row count stands for infinity
    capacity, floor = _capacity(ends, flows, injections, kept, neighbours, big)
    return CutNetwork(capacity, floor, np.array_equal(kept, injections), buses, big,
                      ends, kept, row_line, row_bus, neighbours, model.reference)


def _solve_pairs(network, pairs):
    """Solve every (source, sink) pair of `pairs` that network.flows
    lacks, on both of the network's capacities, and keep it there.

    Up to _FLOW_BLOCK edges at a time, the pairs share one maximum flow:
    each pair on its own copy of the plan's capacity and, unless the
    plan is exact, on one of its floor's, node ids offset by the copy's
    number times the node count, with a super source S feeding each
    copy's source at big, and every edge into a copy's sink led into one
    super sink T instead (the copy's own sink node is left with no edge
    in).  A copy's value is the flow on S's edge into it, and a pair's
    source side is the buses of its plan copy that one residual search
    from S reaches; the module docstring shows why neither depends on
    the batch.  Threads that race on one pair may each solve it, and
    keep the same answer."""
    pending = np.array([pair for pair in dict.fromkeys(pairs) if pair not in network.flows],
                       dtype=np.int64)
    capacity = network.capacity
    columns = [capacity.data] if network.exact else [capacity.data, network.floor]
    nodes, nnz, per = capacity.shape[0], capacity.nnz, len(columns)  # per: copies per pair
    block = max(1, _FLOW_BLOCK // (per * (nnz + 1)))  # a copy's edges and its edge from S
    for lo in range(0, len(pending), block):
        batch = pending[lo : lo + block]
        k = per * len(batch)  # copies, each pair's plan copy first
        offsets = nodes * np.arange(k)[:, None]
        sources, sinks = (np.repeat(batch, per, axis=0) + offsets).T
        hub = nodes * k  # S, and T is hub + 1
        heads = capacity.indices + offsets
        heads[heads == sinks[:, None]] = hub + 1  # each copy's sink is T
        graph = csr_matrix(
            (np.concatenate([np.tile(np.concatenate(columns), len(batch)),
                             np.full(k, network.big, np.int32)]),
             np.concatenate([heads.ravel(), sources]),
             np.concatenate([(capacity.indptr[:-1] + nnz * np.arange(k)[:, None]).ravel(),
                             [k * nnz, k * nnz + k, k * nnz + k]])),
            shape=(hub + 2, hub + 2))
        flow = maximum_flow(graph, hub, hub + 1).flow
        out = slice(flow.indptr[hub], flow.indptr[hub + 1])
        sent = np.zeros(hub, dtype=np.int64)
        sent[flow.indices[out]] = flow.data[out]
        residual = graph - flow
        residual.eliminate_zeros()  # saturated edges, and the floor's of capacity 0
        reached = np.zeros(hub + 2, dtype=bool)
        reached[breadth_first_order(residual, hub, return_predecessors=False)] = True
        sides = reached[:hub].reshape(k, nodes)[::per, : network.buses].copy()
        values = sent[sources].reshape(-1, per).tolist()
        for (s, t), value, side in zip(batch.tolist(), values, sides):
            network.flows[s, t] = (value[0], value[-1], side)  # the floor's is last


def _pairs(network: CutNetwork, j0: int) -> list:
    """The (source, sink) pairs of row j0's cut: a flow row's separates
    its line's from bus from its to bus, and an injection row's its bus
    from each neighbour."""
    line, bus = network.row_line[j0], network.row_bus[j0]
    if line >= 0:
        return [tuple(network.ends[line].tolist())]
    return [(int(bus), u) for u in network.neighbours[bus]]


def _cut_bounds(network: CutNetwork, j0: int):
    """(lower, upper, cut): bounds on alpha at row j0 of a GridModel's
    plan, and the upper bound's cut as (value, source side), from which
    `_cut_step` builds its certificate.

    upper is the minimum cut through j0 on the plan's capacity, lower
    the same cut on its floor, or 0 where the floor does not keep j0:
    it keeps every flow row, and an injection row where it keeps any of
    its bus's.  An injection row's cut separates its bus from the
    neighbour that is cheapest to cut it from, the first in case order
    on a tie."""
    pairs = _pairs(network, j0)
    _solve_pairs(network, pairs)
    flows = [network.flows[pair] for pair in pairs]
    upper, _, side = min(flows, key=lambda flow: flow[0])
    bus = network.row_bus[j0]
    lower = min(flow[1] for flow in flows) if bus < 0 or network.kept[bus] > 0 else 0
    return lower, upper, (upper, side)


def _cut_step(network: CutNetwork, cut) -> np.ndarray:
    """A cut's step over the model's state: theta = 1 on its smallest
    source side and 0 elsewhere, taken off the reference less theta
    there."""
    theta = cut[1].astype(float)
    return np.delete(theta, network.reference) - theta[network.reference]


@dataclass(frozen=True, eq=False)
class RowStructure:
    """What every index program on one matrix shares: its parallel
    classes (as `parallel_classes` returns them), each class's
    representative (its largest-norm row) and the largest row norm, the
    zero rule's scale.  A GridModel carries its plan's CutNetwork, exact
    on a cut-exact plan, where every program is a minimum cut.  Any
    other input carries the 3-circuits among the representatives, as
    class ids, for its MILPs."""

    classes: list
    row_class: np.ndarray
    reps: np.ndarray
    max_norm: float
    circuits: np.ndarray | None
    network: CutNetwork | None = None


def row_structure(model_or_h) -> RowStructure:
    """The structure of a model or bare matrix, found once for every
    index program posed on it.  This is where the path is chosen: a
    GridModel with a cut-exact plan gets minimum cuts; any other model
    gets a minimum cut for every class whose floor cut meets it and the
    MILP for the rest; a bare matrix gets the MILP."""
    h = _matrix(model_or_h)
    classes, row_class = parallel_classes(h)
    norms = np.linalg.norm(h, axis=1)
    reps = np.array([cls[np.argmax(norms[cls])] for cls in classes])
    network = _cut_network(model_or_h) if isinstance(model_or_h, GridModel) else None
    exact = network is not None and network.exact
    circuits = None if exact else three_circuits(h[reps])
    return RowStructure(classes, row_class, reps, norms.max(), circuits, network)


def _build_problem(h, structure, j0, big_m, cuts, cutoff=None):
    """The index program over (c, a binary per class) in one block: big-M,
    3-circuit and refuted-support rows, and last the target row."""
    n = h.shape[1]
    ncls = len(structure.classes)
    circuits = structure.circuits
    h_rep = h[structure.reps]

    nv = n + ncls
    n_circ = 3 * len(circuits)
    n_rows = 2 * ncls + n_circ + len(cuts) + 1
    a = np.zeros((n_rows, nv))
    lower = np.full(n_rows, -np.inf)
    upper = np.zeros(n_rows)
    a[0 : 2 * ncls : 2, :n] = h_rep
    a[1 : 2 * ncls : 2, :n] = -h_rep
    a[np.arange(2 * ncls), n + np.repeat(np.arange(ncls), 2)] = -big_m
    # y_a - y_b - y_c <= 0 for each member a of each 3-circuit
    circ = a[2 * ncls : 2 * ncls + n_circ]
    circ[np.repeat(np.arange(n_circ), 3), n + np.repeat(circuits, 3, axis=0).ravel()] = -1.0
    circ[np.arange(n_circ), n + circuits.ravel()] = 1.0
    if cuts:
        # at least one class outside each refuted support must be attacked
        a[2 * ncls + n_circ : -1, n:] = -np.array(cuts)
        upper[2 * ncls + n_circ : -1] = -1.0
    a[-1, :n] = h[j0]
    lower[-1] = upper[-1] = _PROGRAM_MU

    binary = np.arange(nv) >= n
    lb = np.r_[np.full(n, -np.inf), np.zeros(ncls)]
    ub = np.r_[np.full(n, np.inf), np.ones(ncls)]
    lb[n + structure.row_class[j0]] = 1.0  # target row is corrupted by definition

    objective = np.zeros(nv)
    objective[n:] = [len(cls) for cls in structure.classes]
    return MilpProblem(objective, a, lower, upper, binary, lb, ub, cutoff)


def _canonical_sets(support, j, ci, ca):
    """Cheapest split of a support (1-based rows) through target j: every
    row written, or with C_A < C_I the target written and the rest
    withdrawn."""
    if ca < ci:
        return (j,), tuple(i for i in support if i != j)
    return tuple(support), ()


def _gamma(alpha, ci, ca):
    return ci + (alpha - 1) * min(ci, ca)


def _refit(h, structure, j0, support_rows):
    """Least-squares certificate that zeroes every row off the support and
    moves the target by the program's magnitude; its row values, each
    within rounding of zero (see the module docstring) set to exactly
    zero; and whether those do both to rounding error."""
    comp = np.setdiff1d(np.arange(h.shape[0]), support_rows)
    a = np.vstack([h[comp], h[j0][None, :]])
    b = np.zeros(a.shape[0])
    b[-1] = _PROGRAM_MU
    c, *_ = np.linalg.lstsq(a, b, rcond=None)
    v = h @ c
    rounding = _ROUNDING * structure.max_norm * np.linalg.norm(c)
    stealth = (abs(v[j0] - _PROGRAM_MU) <= rounding
               and np.max(np.abs(v[comp]), initial=0.0) <= rounding)
    v[np.abs(v) <= rounding] = 0.0
    return c, v, stealth


def _rows_of(classes, on):
    return np.sort(np.concatenate([classes[k] for k in np.flatnonzero(on)]))


def _solve_index(query: IndexQuery, structure=None) -> SecurityIndexResult:
    """Sparsest stealth support through the target, with its certificate.

    Where the floor's minimum cut meets the plan's, the support is the
    rows the plan's cut touches.  Otherwise it comes from the MILP, with
    the plan's cut as its cutoff where there is one: HiGHS accepts a
    binary within its integrality tolerance of 0 while the big-M row
    still carries up to M times that tolerance, so its support is only
    a candidate.  The candidate is refit with exact zeros off the
    support and tested for stealth.  A candidate that fails cannot
    contain a stealthy subset, so a cut forcing some class outside it
    into the support is added and the program solved again.  Cuts
    remove no stealthy support, so the first candidate that passes is
    optimal; where HiGHS finds none below the cutoff, the plan's cut is.
    A cut's support is read off its step, which must move whole classes
    and as many rows as the cut counts; a MILP optimum must be minimal.
    """
    h, j0 = _matrix(query.model), query.target_j - 1
    if structure is None:
        structure = row_structure(query.model)
    first = structure.classes[structure.row_class[j0]][0]  # one answer per class
    if structure.network is None:
        on, cert = _solve_milp_index(h, structure, first)
    else:
        lower, upper, cut = _cut_bounds(structure.network, first)
        if lower < upper:
            on, cert = _solve_milp_index(h, structure, first, cut)
        else:
            on, cert = _cut_support(h, structure, first, cut)
    if j0 != first:
        cert = cert * (_PROGRAM_MU / (h[j0] @ cert))  # the class's c, moving j0 by mu
    support = tuple(int(i) + 1 for i in _rows_of(structure.classes, on))
    return SecurityIndexResult(float(len(support)), support, (), cert, True)


def _cut_support(h, structure, j0, cut):
    """The classes a cut from `_cut_bounds` moves, read off its step
    scaled to move j0 by the program's magnitude, and that certificate.
    The moved rows must be whole classes, as many as the cut counts."""
    step = _cut_step(structure.network, cut)
    v = h @ step
    moved = np.abs(v) > _ROUNDING * structure.max_norm * np.linalg.norm(step)
    if not moved[j0]:
        raise SecurityIndexError("minimum cut step does not move the target")
    on = np.zeros(len(structure.classes), dtype=bool)
    on[structure.row_class[moved]] = True
    if (np.count_nonzero(moved) != cut[0]
            or not np.array_equal(on[structure.row_class], moved)):
        raise SecurityIndexError("minimum cut value inconsistent with the rows it touches")
    return on, step * (_PROGRAM_MU / v[j0])


def _check_minimal(h, structure, j0, on, v):
    """Raise unless a MILP optimum, whose certificate gives the row values
    v, is minimal: v leaves none of its classes at zero, and no class but
    the target's leaves it with the rest still stealthy.  Every class
    costs at least one row, so an optimum always is.  HiGHS can prove a
    wrong optimum where its absolute tolerances swamp the program's row
    values: with one row of a 7x3 matrix 10^5 times the others it proved
    7 where 5 rows suffice, and this finds that support out."""
    if not np.all(v[structure.reps[on]]):
        raise SecurityIndexError("optimal support holds a class its certificate leaves at zero")
    for k in np.flatnonzero(on):
        if k != structure.row_class[j0]:
            rest = on.copy()
            rest[k] = False
            if _refit(h, structure, j0, _rows_of(structure.classes, rest))[2]:
                raise SecurityIndexError("index program's optimum is not minimal")


def _solve_milp_index(h, structure, j0, cut=None):
    """The classes of the MILP's first optimal support that passes the
    stealth test, and that support's refit certificate.  With the
    plan's cut from `_cut_bounds`, the program seeks only supports with
    fewer rows than the cut's, and where it finds none the answer is
    the cut's support."""
    n = h.shape[1]
    classes = structure.classes
    cutoff = None if cut is None else cut[0] - 0.5  # see the module docstring
    big = _BIG_M
    enlargements = 0
    cuts = []
    while True:
        sol = solve_milp(_build_problem(h, structure, j0, big, cuts, cutoff))
        if sol.status == "cutoff":
            on, cert = _cut_support(h, structure, j0, cut)
            if np.max(np.abs(h @ cert)) <= _M_GUARD * big:
                return on, cert
        elif sol.status == "optimal":
            on = sol.x[n : n + len(classes)] > 0.5
            cert, v, stealth = _refit(h, structure, j0, _rows_of(classes, on))
            if not stealth:
                if len(cuts) == _MAX_CUTS:
                    raise SecurityIndexError(
                        f"no stealthy support after {_MAX_CUTS} refuted candidates")
                cuts.append((~on).astype(float))
                continue
            if np.max(np.abs(v)) <= _M_GUARD * big:
                _check_minimal(h, structure, j0, on, v)
                return on, cert
        elif sol.status != "infeasible":
            raise SecurityIndexError(f"index program ended with status {sol.status}")
        # big-M validity guard: the box holds no certificate at all (the
        # all-classes support is stealthy and no cut removes a stealthy
        # support, so only the box can be at fault), or even the
        # least-norm certificate of the support found, or of the cut's
        # where none is found below it, nearly fills it, so the box may
        # cut off others
        if enlargements == _MAX_ENLARGEMENTS:
            raise SecurityIndexError(
                f"big-M guard failed after repeated enlargement (status {sol.status})")
        big *= 10.0
        enlargements += 1


def fdi_index(query: IndexQuery, structure=None) -> SecurityIndexResult:
    """alpha: fewest integrity corruptions for a stealth attack on j.

    structure is the `row_structure(query.model)` the caller already has;
    it saves time and changes nothing else.
    """
    return _solve_index(query, structure)


def combined_index(query: IndexQuery) -> SecurityIndexResult:
    """beta: fewest corruptions when availability attacks may substitute.

    A withdrawn row leaves the stealth condition just as a corrupted one
    does, so beta is alpha: this is alpha's program and support, reported
    with every row written.  `risk.tuple_attack_variants` builds its
    variants on that support.
    """
    return _solve_index(query)


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
    and shared by every program: a GridModel's classes take minimum cuts
    wherever its floor proves them minimal and MILPs elsewhere, and a
    bare matrix's take MILPs.  beta, gamma and the split follow from
    alpha's support, and only the split is member-specific.  Every
    class's maximum flows are solved, in one batch per _FLOW_BLOCK
    edges, before the classes are mapped, so classes are independent
    tasks that only read the structure, and a parallel mapper changes
    nothing but time.
    """
    ci, ca = cost_integrity, cost_availability
    _check_costs(ci, ca)
    structure = row_structure(model_or_h)
    h = _matrix(model_or_h)
    classes = structure.classes
    network = structure.network
    if network is not None:
        _solve_pairs(network, [pair for cls in classes for pair in _pairs(network, int(cls[0]))])

    def solve_class(cls):
        return fdi_index(IndexQuery(h, int(cls[0]) + 1), structure)

    rows = [None] * len(structure.row_class)
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
    lines = ["j,alpha,beta,gamma_fdi,gamma_combined,k_a,k_d,integrity_set,availability_set"]
    for r in rows:
        lines.append(",".join([
            str(r["j"]), str(r["alpha"]), str(r["beta"]),
            f"{r['gamma_fdi']:.12g}", f"{r['gamma_combined']:.12g}",
            str(r["k_a"]), str(r["k_d"]),
            ";".join(str(i) for i in r["integrity_set"]),
            ";".join(str(i) for i in r["availability_set"]),
        ]))
    return "\n".join(lines) + "\n"
