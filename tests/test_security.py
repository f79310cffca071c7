"""Security indices against enumeration oracles and their paper-level
structure."""

import json
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import gridrisk.security as security
from gridrisk.attack import perturb_model
from gridrisk.milp import MilpProblem, MilpSolution, solve_milp
from gridrisk.network import (
    CaseValidationError,
    UnobservableError,
    build_model,
    load_bundled_case,
    load_case,
)
from gridrisk.security import (
    IndexQuery,
    SecurityIndexError,
    combined_index,
    cost_weighted_index,
    fdi_index,
    format_index_csv,
    index_sweep,
    parallel_classes,
    row_structure,
)

from conftest import CUT_TUPLE14_9, TUPLE14_9, plan35_doc
from oracles import (
    bipartition_index,
    certificate_for_set,
    enumeration_alpha,
    enumeration_family,
    pair_min_cut,
    parallel_classes_by_row,
    random_cut_exact_case,
    random_observable_matrix,
    ring_chord_case,
    set_admits_target,
    three_circuits,
    withdrawal_index,
)

# independently derived by rank enumeration over all subsets
CHAIN3_ALPHA = 4
RING4_ALPHA = 7


def _assert_result_shape(res, h, j):
    assert j in res.integrity_set
    assert not set(res.integrity_set) & set(res.availability_set)
    assert res.support == tuple(sorted(res.integrity_set + res.availability_set))
    assert res.verified_stealth
    # the certificate moves the target by exactly 0.1 and nothing off-support
    a = h @ res.certificate_c
    assert a[j - 1] == pytest.approx(0.1, rel=1e-7)
    comp = [i for i in range(h.shape[0]) if i + 1 not in res.support]
    if comp:
        assert np.max(np.abs(a[comp])) <= 1e-3


def test_chain3_all_measurements(chain3):
    for j in range(1, chain3.m + 1):
        q = IndexQuery(chain3.H, j)
        res_a = fdi_index(q)
        res_b = combined_index(q)
        assert res_a.objective == res_b.objective == CHAIN3_ALPHA
        _assert_result_shape(res_b, chain3.H, j)


def test_ring4_all_measurements(ring4):
    for j in range(1, ring4.m + 1):
        q = IndexQuery(ring4.H, j)
        assert fdi_index(q).objective == RING4_ALPHA
        assert combined_index(q).objective == RING4_ALPHA


def test_toy_cases_match_rank_oracle(chain3, ring4):
    for model in (chain3, ring4):
        for j in range(1, model.m + 1):
            size, _ = enumeration_alpha(model.H, j - 1)
            res = fdi_index(IndexQuery(model.H, j))
            assert res.objective == size
            # the reported support is one of the minimal critical tuples
            support = frozenset(i - 1 for i in res.support)
            assert support in enumeration_family(model.H, j - 1)


def test_ieee14_target_nine_values(ieee14):
    # flow measurement 9: the classic 11-measurement critical tuple
    q = IndexQuery(ieee14.H, 9)
    res_a = fdi_index(q)
    res_g = cost_weighted_index(q)
    assert res_a.objective == 11
    assert res_g.objective == pytest.approx(6.0)
    assert len(res_g.integrity_set) == 1 and len(res_g.availability_set) == 10
    assert res_a.support == (9, 10, 15, 29, 30, 35, 44, 45, 46, 47, 49)
    _assert_result_shape(res_a, ieee14.H, 9)


def test_injection_target_has_smaller_index(ieee14):
    # the bus-9 injection (row 49) rides a leaf of the grid: seven rows
    q = IndexQuery(ieee14.H, 49)
    assert fdi_index(q).objective == 7


def test_random_matrices_match_oracle():
    rng = np.random.default_rng(101)
    for trial in range(10):
        m = int(rng.integers(5, 11))
        n = int(rng.integers(2, min(m - 1, 5) + 1))
        h = random_observable_matrix(rng, m, n)
        for j in range(1, m + 1):
            size, _ = enumeration_alpha(h, j - 1)
            q = IndexQuery(h, j)
            assert fdi_index(q).objective == size, f"trial {trial} j {j}"
            assert combined_index(q).objective == size


def test_combined_equals_fdi_by_construction():
    # withdrawing instead of corrupting can never lower the count: the
    # program with a withdrawal binary per row and the enumeration agree
    rng = np.random.default_rng(55)
    h = random_observable_matrix(rng, 9, 4)
    for j in (1, 4, 9):
        q = IndexQuery(h, j)
        beta, _, _ = withdrawal_index(h, j - 1, 1.0, 1.0)
        assert combined_index(q).objective == beta
        assert fdi_index(q).objective == enumeration_alpha(h, j - 1)[0]


def test_cost_weighted_closed_form():
    # optimal split keeps the target written and prices every other
    # support row at the cheaper of the two actions
    rng = np.random.default_rng(77)
    for _ in range(6):
        h = random_observable_matrix(rng, 8, 3)
        ci = float(rng.uniform(0.5, 2.0))
        ca = float(rng.uniform(0.1, 3.0))
        j = int(rng.integers(1, 9))
        gamma, corrupted, withdrawn = withdrawal_index(h, j - 1, ci, ca)
        res = cost_weighted_index(IndexQuery(h, j), ci, ca)
        assert res.objective == pytest.approx(gamma, rel=1e-9)
        assert len(res.integrity_set) == len(corrupted)
        assert len(res.availability_set) == len(withdrawn)
        assert set_admits_target(h, [i - 1 for i in res.support], j - 1)


def test_free_action_costs(ring4):
    # a free action leaves a whole tuple of zero-cost rows; the answer must
    # still be a verified stealth support, priced at the one paid row
    for ci, ca, expected in ((1.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)):
        res = cost_weighted_index(IndexQuery(ring4.H, 1), cost_integrity=ci,
                                  cost_availability=ca)
        assert res.objective == pytest.approx(expected)
        _assert_result_shape(res, ring4.H, 1)
        assert len(res.support) >= RING4_ALPHA


def _refuted_programs():
    """The (h, j, result) on the matrices of
    test_random_matrices_match_oracle whose program refutes a candidate
    support before one passes."""
    posed = []

    def spy(problem):
        posed.append(problem)
        return solve_milp(problem)

    rng = np.random.default_rng(101)
    found = []
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(security, "solve_milp", spy)
        for _ in range(10):
            m = int(rng.integers(5, 11))
            n = int(rng.integers(2, min(m - 1, 5) + 1))
            h = random_observable_matrix(rng, m, n)
            for j in range(1, m + 1):
                posed.clear()
                res = fdi_index(IndexQuery(h, j))
                # a refutation cut is the only row with right-hand side -1
                if np.any(posed[-1].upper == -1.0):
                    found.append((h, j, res))
    return found


def test_refuted_candidates_end_at_alpha():
    # where a candidate fails the stealth check, the program goes on to a
    # stealthy support of the enumerated size
    refuted = _refuted_programs()
    assert len(refuted) >= 10
    for h, j, res in refuted:
        size, _ = enumeration_alpha(h, j - 1)
        assert res.objective == size, j
        assert set_admits_target(h, [i - 1 for i in res.support], j - 1)
        _assert_result_shape(res, h, j)


def test_fdi_and_combined_pose_one_program(chain3, ring4, ieee14, monkeypatch):
    # beta is alpha, so both indices hand the solver the very same arrays
    posed = []

    def spy(problem):
        posed.append(problem)
        return solve_milp(problem)

    monkeypatch.setattr(security, "solve_milp", spy)
    queries = [IndexQuery(model.H, j) for model in (chain3, ring4)
               for j in range(1, model.m + 1)] + [IndexQuery(ieee14.H, 9)]
    for q in queries:
        programs = []
        for index in (fdi_index, combined_index):
            posed.clear()
            index(q)
            programs.append(list(posed))
        assert len(programs[0]) == len(programs[1]) >= 1
        for p_fdi, p_comb in zip(*programs):
            for f in fields(MilpProblem):
                np.testing.assert_array_equal(getattr(p_fdi, f.name),
                                              getattr(p_comb, f.name))


def test_big_m_insensitivity(chain3, ring4, monkeypatch):
    for model, j in ((chain3, 2), (ring4, 7)):
        query = IndexQuery(model.H, j)
        a = fdi_index(query)
        with monkeypatch.context() as patched:
            patched.setattr(security, "_BIG_M", 10.0 * security._BIG_M)
            b = fdi_index(query)
        assert a.objective == b.objective
        assert a.support == b.support


def test_parallel_classes_structure(ieee14):
    classes, row_class = parallel_classes(ieee14.H)
    assert sum(len(c) for c in classes) == ieee14.m
    # flow_from and flow_to of the same line are antiparallel rows
    assert row_class[0] == row_class[20]
    for cls in classes:
        lead = ieee14.H[cls[0]]
        for i in cls[1:]:
            cross = np.outer(lead, ieee14.H[i]) - np.outer(ieee14.H[i], lead)
            assert np.max(np.abs(cross)) <= 1e-8 * max(np.abs(lead).max(), 1e-30)


def _assert_same_classes(h):
    classes, row_class = parallel_classes(h)
    ref_classes, ref_row_class = parallel_classes_by_row(h, security.PARALLEL_ATOL)
    assert len(classes) == len(ref_classes)
    for cls, ref in zip(classes, ref_classes):
        np.testing.assert_array_equal(cls, ref)
    np.testing.assert_array_equal(row_class, ref_row_class)
    return classes


def test_parallel_classes_match_per_row_scan_on_cases(chain3, ring4, ieee14):
    for model in (chain3, ring4, ieee14):
        _assert_same_classes(model.H)


def _planted_rows(rng, atol):
    """Rows along a few random directions u: each is s (u + t atol w) for a
    random scale s of either sign and a shift t along a direction w
    orthogonal to u whose largest entry is 1, so two rows of one direction
    differ by about |t1 - t2| atol at most once made unit and
    sign-canonical.  Shifts 0.95 and 1.05 sit just inside and just outside
    atol of an unshifted row, and 0.6 / 1.2 make chains where a row
    matches a neighbour but not the class's first row.  Returns the rows
    and the direction each was drawn along."""
    n = int(rng.integers(2, 6))
    rows, direction = [], []
    for d in range(int(rng.integers(2, 5))):
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        w = rng.normal(size=n)
        w -= (w @ u) * u
        w /= np.abs(w).max()
        for t in rng.choice([0.0, 0.0, 0.6, 0.95, 1.05, 1.2, -0.5, 2.0],
                            size=int(rng.integers(2, 7))):
            s = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            rows.append(s * (u + t * atol * w))
            direction.append(d)
    order = rng.permutation(len(rows))
    return np.array(rows)[order], np.array(direction)[order]


def test_parallel_classes_match_per_row_scan_on_planted_rows():
    sizes, splits, flips = [], 0, 0
    for seed in range(40):
        h, direction = _planted_rows(np.random.default_rng(seed), security.PARALLEL_ATOL)
        classes = _assert_same_classes(h)
        sizes += [len(c) for c in classes]
        # a direction whose rows fell into several classes
        splits += len(classes) - len(set(direction))
        flips += sum(len(set(np.sign(h[c, 0]))) > 1 for c in classes)
    # the data must exercise merging, splitting and anti-parallel members
    assert max(sizes) > 2 and splits > 0 and flips > 0


def test_non_finite_matrix_is_rejected():
    # a NaN row once matched every row, so all rows formed one class and
    # the refit failed inside LAPACK with numpy's LinAlgError
    h = build_model(load_bundled_case("chain3")).H.copy()
    for bad in (np.nan, np.inf, -np.inf):
        h_bad = h.copy()
        h_bad[2, 1] = bad
        # a query takes the matrix as given; its program refuses it
        query = IndexQuery(h_bad, 1)
        for call in (fdi_index, combined_index, cost_weighted_index):
            with pytest.raises(SecurityIndexError, match="not finite"):
                call(query)
        for call in (index_sweep, parallel_classes):
            with pytest.raises(SecurityIndexError, match="not finite"):
                call(h_bad)
    # finite entries whose row norm overflows cannot be made unit rows
    with pytest.raises(SecurityIndexError, match="too large"):
        parallel_classes(np.array([[1e200, 1e200], [1.0, 0.0]]))


def _assert_same_circuits(h):
    found = [tuple(t) for t in security.row_structure(h).circuits.tolist()]
    assert found == three_circuits(h, security.PARALLEL_ATOL)
    return found


def test_circuits_match_triple_scan_on_cases(chain3, ring4, ieee14):
    # chain3 has two state columns, so its three classes span a plane
    for model, count in ((chain3, 1), (ring4, 4), (ieee14, 17), (_ring(65), 65)):
        assert len(_assert_same_circuits(model.H)) == count


def _unit_ratio(rows):
    units = rows / np.linalg.norm(rows, axis=1)[:, None]
    s = np.linalg.svd(units, compute_uv=False)
    return s[-1] / s[0]


def _planted_circuits(rng, atol):
    """Random rows, then rows x + e w planted on the plane of two earlier
    rows u and v: x a combination of both, w a unit direction off the
    plane, and e set so that (u, v, x + e w) as unit rows has its smallest
    singular value at t atol times its largest.  t = 0 is exactly
    dependent, 0.5 and 0.8 sit just inside the tolerance, 1.25 and 2 just
    outside.  Returns the rows and the planted triples as (sorted row ids,
    t)."""
    n = int(rng.integers(3, 7))
    rows = list(rng.normal(size=(int(rng.integers(4, 9)), n)))
    planted = []
    for t in rng.choice([0.0, 0.0, 0.5, 0.8, 1.25, 2.0], size=int(rng.integers(2, 6))):
        i, j = rng.choice(len(rows), 2, replace=False)
        weights = rng.uniform(0.2, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        x = weights[0] * rows[i] + weights[1] * rows[j]
        q, _ = np.linalg.qr(np.column_stack([rows[i], rows[j]]))
        w = rng.normal(size=n)
        w -= q @ (q.T @ w)
        w /= np.linalg.norm(w)
        # the ratio grows linearly with a small offset
        probe = atol * np.linalg.norm(x)
        slope = _unit_ratio(np.array([rows[i], rows[j], x + probe * w])) / probe
        rows.append(x + t * atol / slope * w)
        planted.append(((i, j, len(rows) - 1), t))
    order = rng.permutation(len(rows))
    where = np.argsort(order)
    return (np.array(rows)[order],
            [(tuple(sorted(int(where[r]) for r in ids)), t) for ids, t in planted])


def test_circuits_match_triple_scan_on_planted_rows():
    atol = security.PARALLEL_ATOL
    inside = outside = 0
    for seed in range(40):
        h, planted = _planted_circuits(np.random.default_rng(seed), atol)
        assert len(parallel_classes(h)[0]) == h.shape[0]  # class ids are row ids
        found = set(_assert_same_circuits(h))
        for ids, t in planted:
            assert (ids in found) == (t < 1.0), (seed, ids, t)
            inside += 0.0 < t < 1.0
            outside += t > 1.0
    # the near-dependent triples on both sides of the tolerance occur
    assert inside > 0 and outside > 0


def test_index_sweep_consistent_with_single_solves(chain3):
    rows = index_sweep(chain3, cost_availability=0.5)
    assert [r["j"] for r in rows] == list(range(1, 8))
    for r in rows:
        assert r["alpha"] == r["beta"] == CHAIN3_ALPHA
        assert r["gamma_fdi"] == pytest.approx(float(CHAIN3_ALPHA))
        assert r["gamma_combined"] == pytest.approx(1.0 + (CHAIN3_ALPHA - 1) * 0.5)
        assert r["k_a"] == 1 and r["k_d"] == CHAIN3_ALPHA - 1
        assert r["j"] in r["integrity_set"]
        assert not set(r["integrity_set"]) & set(r["availability_set"])


def test_sweep_solves_one_program_per_class(chain3, ring4, monkeypatch):
    # beta, gamma and the split come from alpha's support: no other
    # program.  A bare matrix takes the MILP.
    calls = []

    def counted(problem):
        calls.append(problem)
        return solve_milp(problem)

    monkeypatch.setattr(security, "solve_milp", counted)
    for model in (chain3, ring4):
        calls.clear()
        index_sweep(model.H)
        assert len(calls) == len(parallel_classes(model.H)[0])


def _count_calls(monkeypatch, names) -> list:
    calls = []

    def counted(name):
        orig = getattr(security, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        return spy

    for name in names:
        monkeypatch.setattr(security, name, counted(name))
    return calls


def test_sweep_finds_classes_and_circuits_once(chain3, ring4, monkeypatch):
    calls = _count_calls(monkeypatch, ("parallel_classes", "three_circuits"))
    for model in (chain3, ring4):
        calls.clear()
        index_sweep(model.H)
        assert sorted(calls) == ["parallel_classes", "three_circuits"]


def test_cut_exact_sweep_solves_no_milp(chain3, ring4, ieee14, monkeypatch):
    # on a cut-exact model every program is a minimum cut: no MILP is
    # posed and no 3-circuit is looked for
    calls = _count_calls(monkeypatch, ("solve_milp", "three_circuits",
                                       "parallel_classes"))
    for model in (chain3, ring4, ieee14):
        calls.clear()
        rows = index_sweep(model)
        assert calls == ["parallel_classes"]
        assert [r["alpha"] for r in rows] == [r["alpha"] for r in index_sweep(model.H)]


def _without_circuit_rows(problem):
    # circuit rows are the ones on binaries alone with right-hand side 0;
    # the refutation cuts have right-hand side -1
    n = int(np.count_nonzero(~problem.binary))
    circuit = ~problem.a[:, :n].any(axis=1) & (problem.upper == 0.0)
    assert circuit.any()
    return replace(problem, a=problem.a[~circuit], lower=problem.lower[~circuit],
                   upper=problem.upper[~circuit])


def test_circuit_rows_shrink_the_search(ieee14, monkeypatch):
    # the rows cut off no optimum, and the search they leave is smaller
    solved = []

    def spy(problem):
        sol = solve_milp(problem)
        solved.append((problem, sol))
        return sol

    monkeypatch.setattr(security, "solve_milp", spy)
    for seed in range(13):
        combined_index(IndexQuery(perturb_model(ieee14, 0.2, seed=seed).H, 9))
    nodes_with = nodes_without = 0
    for problem, sol in solved:
        bare = solve_milp(_without_circuit_rows(problem))
        assert bare.objective == pytest.approx(sol.objective, abs=1e-9)
        nodes_with += sol.node_count
        nodes_without += bare.node_count
    assert nodes_with < nodes_without


@pytest.mark.parametrize("ci, ca", [(1.0, 1.0), (0.6, 2.5), (0.7, 0.0),
                                    (0.0, 0.4), (0.0, 0.0)])
def test_sweep_at_cost_edges(ring4, ci, ca):
    for r in index_sweep(ring4, cost_integrity=ci, cost_availability=ca):
        support = r["integrity_set"] + r["availability_set"]
        assert r["alpha"] == r["beta"] == len(support) == RING4_ALPHA
        assert set_admits_target(ring4.H, [i - 1 for i in support], r["j"] - 1)
        assert r["gamma_fdi"] == pytest.approx(ci * RING4_ALPHA)
        if ca >= ci:
            # withdrawing saves nothing, so every support row is written
            assert (r["k_a"], r["k_d"]) == (RING4_ALPHA, 0)
            assert r["availability_set"] == ()
            assert r["gamma_combined"] == pytest.approx(ci * RING4_ALPHA)
        else:
            assert r["integrity_set"] == (r["j"],)
            assert r["k_d"] == RING4_ALPHA - 1
        if ca == 0.0:
            # every stealth support then costs the written target alone
            assert r["gamma_combined"] == ci


def test_idle_class_at_optimum_raises(monkeypatch):
    # every class costs at least one row, so a support holding a class its
    # own certificate leaves at zero cannot be optimal
    h = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def padded(problem):
        return MilpSolution("optimal", 3.0, np.r_[0.1, 0.0, np.ones(3)], 0, 0, 0)

    monkeypatch.setattr(security, "solve_milp", padded)
    with pytest.raises(SecurityIndexError, match="leaves at zero"):
        fdi_index(IndexQuery(h, 1))


def test_non_minimal_optimum_raises(monkeypatch):
    # an optimum is minimal, so a reported support that stays stealthy
    # without one of its classes means HiGHS proved a wrong optimum; here
    # every class of the support is busy at its least-norm certificate,
    # and rows 1 and 3 alone already hide a move of row 1
    h = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])

    def padded(problem):
        return MilpSolution("optimal", 3.0, np.r_[0.1, 0.0, np.ones(3)], 0, 0, 0)

    monkeypatch.setattr(security, "solve_milp", padded)
    with pytest.raises(SecurityIndexError, match="not minimal"):
        fdi_index(IndexQuery(h, 1))


def test_index_sweep_mapper_matches_serial(chain3):
    serial = index_sweep(chain3)
    with ThreadPoolExecutor(max_workers=3) as pool:
        threaded = index_sweep(chain3, mapper=pool.map)
    assert serial == threaded


def test_csv_shape(chain3):
    text = format_index_csv(index_sweep(chain3))
    lines = text.splitlines()
    assert lines[0] == (
        "j,alpha,beta,gamma_fdi,gamma_combined,k_a,k_d,integrity_set,availability_set"
    )
    assert len(lines) == 1 + chain3.m
    assert text.endswith("\n") and "\r" not in text


def test_certificate_matches_oracle_refit(chain3):
    res = combined_index(IndexQuery(chain3.H, 1))
    rows0 = [i - 1 for i in res.support]
    c_ref = certificate_for_set(chain3.H, rows0, 0, 0.1)
    np.testing.assert_allclose(
        chain3.H @ res.certificate_c, chain3.H @ c_ref, atol=1e-9
    )


@pytest.mark.parametrize("h", [np.array([1.0, 2.0]), np.ones((2, 2, 2)),
                               np.zeros((0, 3))], ids=["1-D", "3-D", "no rows"])
def test_sweep_rejects_malformed_matrix(h):
    with pytest.raises(SecurityIndexError, match="2-D with at least one row"):
        index_sweep(h)


@pytest.mark.parametrize("scale", [1e5, 1e6])
def test_infeasible_program_grows_the_box(scale):
    # moving a row shrunk 1e5-fold needs a certificate far outside the
    # starting box, so such programs are infeasible until the box grows
    h = random_observable_matrix(np.random.default_rng(3), 7, 3)
    h[0] /= scale
    alphas = [r["alpha"] for r in index_sweep(h)]
    assert alphas == [enumeration_alpha(h, j)[0] for j in range(7)]


def test_query_validation(chain3):
    with pytest.raises(SecurityIndexError):
        IndexQuery(chain3.H, 0)
    with pytest.raises(SecurityIndexError):
        IndexQuery(chain3.H, 8)
    with pytest.raises(SecurityIndexError):
        IndexQuery(chain3, 8)
    with pytest.raises(SecurityIndexError, match="2-D"):
        IndexQuery(chain3.H[0], 1)
    # a target is a row number: no float, string or bool stands for one
    for bad in (1.5, 2.0, "2", True, np.bool_(True), None):
        with pytest.raises(SecurityIndexError, match="integer"):
            IndexQuery(chain3, bad)
    numpy_j, python_j = (fdi_index(IndexQuery(chain3, j)) for j in (np.int64(2), 2))
    assert numpy_j.support == python_j.support
    query = IndexQuery(chain3, 1)
    for bad in (-1.0, np.nan, np.inf):
        for costs in ({"cost_integrity": bad}, {"cost_availability": bad}):
            with pytest.raises(SecurityIndexError, match="costs"):
                cost_weighted_index(query, **costs)
            with pytest.raises(SecurityIndexError, match="costs"):
                index_sweep(chain3, **costs)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=12, deadline=None)
def test_row_scaling_leaves_index_unchanged(seed, scale):
    rng = np.random.default_rng(seed)
    h = random_observable_matrix(rng, 7, 3)
    j = int(rng.integers(1, 8))
    base = fdi_index(IndexQuery(h, j)).objective
    h2 = h.copy()
    other = (j % 7)  # scale some row, possibly the target itself
    h2[other] *= scale
    assert fdi_index(IndexQuery(h2, j)).objective == base


def test_solver_chatter_stays_off_stdout(capfd):
    # HiGHS prints MIP diagnostics to fd 1 while solving this matrix's
    # programs; none may reach stdout, serially or from two threads at once
    h = random_observable_matrix(np.random.default_rng(7), 8, 3)
    serial = index_sweep(h)
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = index_sweep(h, mapper=pool.map)
    assert threaded == serial
    os.write(1, b"fd 1 restored\n")
    assert capfd.readouterr().out == "fd 1 restored\n"


def _ring(buses):
    doc = {
        "base_mva": 100.0,
        "buses": [dict({"id": i}, **({"reference": True} if i == 1 else {}))
                  for i in range(1, buses + 1)],
        "lines": [{"id": i, "from": i, "to": i % buses + 1,
                   "reactance": 0.1 + 0.01 * (i % 7)} for i in range(1, buses + 1)],
        "measurements": [{"kind": kind, "element": i, "sigma": 0.02}
                         for kind in ("flow_from", "flow_to", "injection")
                         for i in range(1, buses + 1)],
    }
    return build_model(load_case(doc))


def test_program_beyond_128_binaries():
    # 65-bus ring, every flow and injection metered: 130 row classes, one
    # binary each.  Moving one bus angle touches two lines (4 flows) and
    # three injections, the fewest any attack on a flow can.
    model = _ring(65)
    assert len(parallel_classes(model.H)[0]) == 130
    res = combined_index(IndexQuery(model.H, 1))
    assert res.objective == 7
    _assert_result_shape(res, model.H, 1)
    support0 = [i - 1 for i in res.support]
    assert set_admits_target(model.H, support0, 0)
    for drop in set(support0) - {0}:
        assert not set_admits_target(model.H, [i for i in support0 if i != drop], 0)


# A 40-row ieee14 plan (measurement numbers in the bundled case, in plan
# order) with retuned reactances, on which HiGHS with presolve on proves
# alpha_4 = 8.  The hand-written branch and bound this package used
# before found the 7-row support below.
PLAN40_ROWS = [47, 32, 36, 25, 14, 16, 11, 20, 19, 40, 24, 51, 30, 39, 38, 41, 54,
               33, 4, 21, 27, 29, 13, 22, 26, 48, 50, 37, 9, 12, 43, 49, 1, 3, 5,
               17, 18, 28, 7, 8]
PLAN40_REACTANCES = [0.058, 0.214, 0.191, 0.171, 0.164, 0.155, 0.041, 0.223, 0.563,
                     0.241, 0.217, 0.261, 0.119, 0.164, 0.108, 0.08, 0.262, 0.189,
                     0.197, 0.358]


def test_plan_where_presolve_overshoots():
    base = load_bundled_case("ieee14")
    case = replace(
        base,
        lines=tuple(replace(ln, reactance=x)
                    for ln, x in zip(base.lines, PLAN40_REACTANCES)),
        measurements=tuple(base.measurements[i - 1] for i in PLAN40_ROWS),
    )
    h = build_model(case).H
    assert set_admits_target(h, [3, 12, 15, 20, 23, 34, 38], 3)
    for index in (fdi_index, combined_index):
        res = index(IndexQuery(h, 4))
        assert res.objective == 7
        assert set_admits_target(h, [i - 1 for i in res.support], 3)


def _bundled_doc(name):
    return json.loads((resources.files("gridrisk") / "cases" / f"{name}.json").read_text())


def _cut_exact_grids(seed, count, max_rows=None):
    """(document, model) of `count` observable random cut-exact grids of
    3 to 8 buses, at most max_rows measurements each if given."""
    rng = np.random.default_rng(seed)
    while count:
        doc = random_cut_exact_case(rng, int(rng.integers(3, 9)))
        try:
            model = build_model(load_case(doc))
        except (CaseValidationError, UnobservableError):
            continue
        if max_rows is None or model.m <= max_rows:
            count -= 1
            yield doc, model


def test_cut_matches_bipartition_oracle():
    # alpha and the tuple of every row, against brute force over every
    # bus subset under the smallest-source-side rule
    grids = [(_bundled_doc(name), build_model(load_bundled_case(name)))
             for name in ("chain3", "ring4")]
    for doc, model in grids + list(_cut_exact_grids(3, 30)):
        structure = row_structure(model)
        assert structure.network.exact
        classes, row_class = parallel_classes_by_row(model.H, security.PARALLEL_ATOL)
        for j0 in range(model.m):
            # a target takes the cut of its parallel class's first row
            alpha, rows = bipartition_index(doc, int(classes[row_class[j0]][0]))
            res = fdi_index(IndexQuery(model, j0 + 1), structure)
            assert res.objective == alpha, j0
            assert res.support == tuple(i + 1 for i in rows), j0
            _assert_result_shape(res, model.H, j0 + 1)


def _short_of_both_ends(doc) -> bool:
    """Whether some line carries fewer flow rows than its two end buses
    carry injection rows together, which 0.8.0 took for not cut-exact."""
    count = Counter((ms["kind"] == "injection", ms["element"]) for ms in doc["measurements"])
    return any(count[False, ln["id"]] < count[True, ln["from"]] + count[True, ln["to"]]
               for ln in doc["lines"])


def test_cut_matches_enumeration_on_cut_exact_grids():
    short = 0
    for doc, model in _cut_exact_grids(7, 20, max_rows=12):
        structure = row_structure(model)
        assert structure.network.exact
        short += _short_of_both_ends(doc)
        for j0 in range(model.m):
            res = fdi_index(IndexQuery(model, j0 + 1), structure)
            assert res.objective == enumeration_alpha(model.H, j0)[0], j0
    # the grids include plans that only the either-end condition admits
    assert short >= 5


def test_model_queries_match_the_sweep(chain3, ring4, ieee14):
    # a query on a model takes the path index_sweep takes, so all three
    # indices give the sweep's row: support, split and gamma
    grids = [model for _, model in _cut_exact_grids(3, 30)]
    for model in (chain3, ring4, ieee14, *grids):
        for row in index_sweep(model):
            query = IndexQuery(model, row["j"])
            support = tuple(sorted(row["integrity_set"] + row["availability_set"]))
            for res in (fdi_index(query), combined_index(query)):
                assert res.support == res.integrity_set == support, row["j"]
                assert res.objective == row["alpha"] == row["beta"]
            res = cost_weighted_index(query)
            assert res.integrity_set == row["integrity_set"], row["j"]
            assert res.availability_set == row["availability_set"], row["j"]
            assert res.objective == row["gamma_combined"]


def test_model_query_takes_the_cut_and_matrix_query_the_milp(ieee14, monkeypatch):
    calls = _count_calls(monkeypatch, ("solve_milp",))
    for seed in range(13):
        res = combined_index(IndexQuery(perturb_model(ieee14, 0.2, seed=seed), 9))
        assert res.support == CUT_TUPLE14_9, seed
    assert calls == []
    # a bare matrix still takes the MILP, and its tie choice
    assert combined_index(IndexQuery(ieee14.H, 9)).support == TUPLE14_9
    assert calls


@pytest.mark.parametrize("flows, alpha", [(0, 1), (1, 2)])
def test_cut_needs_flows_to_cover_injections(flows, alpha):
    # chain 1-2-3 (reference 1, lines 2->1 and 3->2) metered by the
    # injections at buses 1 and 2 and `flows` flow rows on line 1.  Bus 2
    # can balance its two flows, so row 1 moves with line 1's flow rows
    # alone, but every cut that moves it crosses line 1 and also touches
    # the injection at bus 2.  Line 2, the line bus 2 balances through,
    # carries no flow row against that injection, so neither plan is
    # cut-exact and the cut would overstate alpha by one.  The floor
    # drops the injection at bus 1 when line 1 has no flow row, and beside
    # one its cut is alpha: either way a lower bound short of the plan's
    # cut, so the MILP decides.
    doc = {
        "base_mva": 100.0,
        "buses": [{"id": 1, "reference": True}, {"id": 2}, {"id": 3}],
        "lines": [{"id": 1, "from": 2, "to": 1, "reactance": 0.1},
                  {"id": 2, "from": 3, "to": 2, "reactance": 0.2}],
        "measurements": [{"kind": "injection", "element": 1, "sigma": 0.02},
                         {"kind": "injection", "element": 2, "sigma": 0.02}]
                        + [{"kind": "flow_from", "element": 1, "sigma": 0.02}] * flows,
    }
    model = build_model(load_case(doc))
    assert enumeration_alpha(model.H, 0)[0] == alpha
    assert bipartition_index(doc, 0)[0] == alpha + 1
    structure = row_structure(model)
    assert not structure.network.exact
    assert security._cut_bounds(structure.network, 0)[:2] == (alpha if flows else 0, alpha + 1)
    assert index_sweep(model)[0]["alpha"] == alpha


def _thinned_grids(seed, count):
    """(document, model) of `count` observable random grids of 3 to 8
    buses: cut-exact plans with about 30% of their rows dropped."""
    rng = np.random.default_rng(seed)
    while count:
        doc = random_cut_exact_case(rng, int(rng.integers(3, 9)))
        doc["measurements"] = [ms for ms in doc["measurements"] if rng.random() >= 0.3]
        try:
            model = build_model(load_case(doc))
        except (CaseValidationError, UnobservableError):
            continue
        count -= 1
        yield doc, model


def test_floor_cut_bounds_alpha_from_below():
    # floor cut <= alpha <= full cut on every class, and a class whose
    # bounds meet reports the full plan's minimum cut tuple
    closed = gaps = 0
    for doc, model in _thinned_grids(11, 40):
        structure = row_structure(model)
        for cls in structure.classes:
            j0 = int(cls[0])
            lower, upper, _ = security._cut_bounds(structure.network, j0)
            alpha = (enumeration_alpha(model.H, j0)[0] if model.m <= 12
                     else fdi_index(IndexQuery(model.H, j0 + 1)).objective)
            assert lower <= alpha <= upper, j0
            res = fdi_index(IndexQuery(model, j0 + 1), structure)
            assert res.objective == alpha, j0
            if lower == upper:
                closed += not structure.network.exact
                assert res.support == tuple(i + 1 for i in bipartition_index(doc, j0)[1]), j0
            else:
                gaps += 1
    # the floor closes classes of plans that are not cut-exact, and
    # leaves others to the MILP
    assert closed >= 20 and gaps >= 20


def _assert_member_certificate(h, j, cert, first_cert):
    # a member's certificate is its class's first row's, rescaled to move
    # the member's own row by the program magnitude
    np.testing.assert_allclose(cert, first_cert * (0.1 / (h[j - 1] @ first_cert)),
                               rtol=1e-12, atol=0, err_msg=str(j))


@pytest.mark.parametrize("seed", [3, 9])
def test_member_query_gives_its_class_answer(seed):
    # row 9 is 1e-4 times row 1, so its class's first row is row 1, and a
    # certificate that moves row 9 by 0.1 is 1e4 times the program's: a
    # refit or big-M guard on row 9 picks another 7-row support (seed 3)
    # or grows the box to 1e5 and raises (seed 9)
    h = random_observable_matrix(np.random.default_rng(seed), 8, 3)
    h = np.vstack([h, 1e-4 * h[0]])
    row = index_sweep(h)[8]
    res = fdi_index(IndexQuery(h, 9))
    assert res.objective == row["alpha"] == 7
    assert res.support == tuple(sorted(row["integrity_set"] + row["availability_set"]))
    assert h[8] @ res.certificate_c == pytest.approx(0.1, rel=1e-12, abs=0)
    assert set_admits_target(h, [i - 1 for i in res.support], 8)
    _assert_member_certificate(h, 9, res.certificate_c,
                               fdi_index(IndexQuery(h, 1)).certificate_c)


def test_ieee14_member_certificates_rescale_the_first_rows(ieee14):
    # rows 21-40 and 48 are the members of ieee14 that are not first in
    # their classes
    structure = row_structure(ieee14)
    for j in [*range(21, 41), 48]:
        first = int(structure.classes[structure.row_class[j - 1]][0])
        assert first != j - 1
        c = fdi_index(IndexQuery(ieee14, first + 1), structure).certificate_c
        _assert_member_certificate(
            ieee14.H, j, fdi_index(IndexQuery(ieee14, j), structure).certificate_c, c)


def test_milp_only_where_the_floor_leaves_a_gap(monkeypatch):
    model = build_model(load_case(plan35_doc()))
    structure = row_structure(model)
    bounds = [security._cut_bounds(structure.network, int(cls[0]))[:2]
              for cls in structure.classes]
    gaps = {k for k, (lower, upper) in enumerate(bounds) if lower < upper}
    assert 0 < len(gaps) < len(structure.classes)
    posed = set()

    def spy(problem):
        # the target's class is the one binary held at 1
        n = int(np.count_nonzero(~problem.binary))
        posed.add(int(np.flatnonzero(problem.lb[n:] == 1.0)[0]))
        return solve_milp(problem)

    monkeypatch.setattr(security, "solve_milp", spy)
    rows = index_sweep(model)
    assert posed == gaps
    firsts = {}
    for row in rows:
        res = fdi_index(IndexQuery(model, row["j"]))
        assert res.support == tuple(sorted(row["integrity_set"] + row["availability_set"]))
        assert res.objective == row["alpha"]
        # rows come in order, so a class's first row is queried first
        first = int(structure.classes[structure.row_class[row["j"] - 1]][0])
        c = firsts.setdefault(first, res.certificate_c)
        _assert_member_certificate(model.H, row["j"], res.certificate_c, c)


@pytest.mark.parametrize("name, closed", [("plan35", 10), ("ieee14", 33)])
def test_residual_search_only_where_a_class_closes(monkeypatch, name, closed):
    # every source side comes from one residual search per batch of
    # maximum flows, all run before the first class is posed: no class
    # searches or solves a flow, a class whose bounds meet poses nothing,
    # and one that reports the cut's tuple has found nothing below it
    model = build_model(load_case(plan35_doc() if name == "plan35" else _bundled_doc(name)))
    calls = _count_calls(monkeypatch, ("fdi_index", "maximum_flow", "breadth_first_order",
                                       "solve_milp"))
    rows = index_sweep(model)
    first = calls.index("fdi_index")
    batches = Counter(calls[:first])
    assert set(batches) == {"maximum_flow", "breadth_first_order"}
    assert batches["breadth_first_order"] <= batches["maximum_flow"]
    per_class = []
    for call in calls[first:]:
        if call == "fdi_index":
            per_class.append(Counter())
        else:
            per_class[-1][call] += 1
    structure = row_structure(model)
    assert len(per_class) == len(structure.classes)
    kinds = Counter()
    for k, (cls, count) in enumerate(zip(structure.classes, per_class)):
        assert set(count) <= {"solve_milp"}, k
        lower, upper, _ = security._cut_bounds(structure.network, int(cls[0]))
        if lower == upper:
            kinds["closed"] += 1
            assert not count, k
        elif rows[cls[0]]["alpha"] == upper:
            kinds["cut tuple"] += 1
            assert count["solve_milp"], k
        else:
            kinds["milp support"] += 1
            assert count["solve_milp"], k
    assert kinds["closed"] == closed
    # every class PLAN35's floor leaves open finds nothing below its cut
    assert kinds["cut tuple"] == len(structure.classes) - closed
    assert not kinds["milp support"]


def _thinned_plans_with_injections(seed, count):
    """(document, model) of `count` observable random plans of 3 to 5
    buses and at most 13 rows: a cut-exact plan with about 30% of its
    rows dropped and a further injection row at about 30% of its buses.
    Many are not cut-exact, and on some the plan's cut overstates alpha."""
    rng = np.random.default_rng(seed)
    while count:
        doc = random_cut_exact_case(rng, int(rng.integers(3, 6)))
        doc["measurements"] = [ms for ms in doc["measurements"] if rng.random() >= 0.3]
        doc["measurements"] += [{"kind": "injection", "element": bus["id"], "sigma": 0.02}
                                for bus in doc["buses"] if rng.random() < 0.3]
        if len(doc["measurements"]) > 13:
            continue
        try:
            model = build_model(load_case(doc))
        except (CaseValidationError, UnobservableError):
            continue
        count -= 1
        yield doc, model


def test_cutoff_program_matches_enumeration():
    # Every class whose bounds differ poses its program with the plan's
    # cut as a cutoff.  Its alpha must be the enumerated one whether the
    # program finds a cheaper support or not, and where it finds none the
    # class reports the cut's tuple, the bipartition oracle's.
    below = at_cut = 0
    for doc, model in _thinned_plans_with_injections(1, 300):
        structure = row_structure(model)
        for cls in structure.classes:
            j0 = int(cls[0])
            lower, upper, _ = security._cut_bounds(structure.network, j0)
            if lower == upper:
                continue
            res = fdi_index(IndexQuery(model, j0 + 1), structure)
            alpha = enumeration_alpha(model.H, j0)[0]
            assert res.objective == alpha, (doc, j0)
            if alpha < upper:
                below += 1
            else:
                at_cut += 1
                assert res.support == tuple(i + 1 for i in bipartition_index(doc, j0)[1])
    assert below >= 100 and at_cut >= 400


def test_fallback_matches_enumeration_under_spread_reactances():
    # Plans like those above, with each reactance scaled by 10^U(-1, 1):
    # every class the floor leaves open must still get the enumerated alpha
    rng = np.random.default_rng(7)
    checked = 0
    for doc, _ in _thinned_plans_with_injections(2, 60):
        doc["lines"] = [dict(ln, reactance=ln["reactance"] * 10 ** rng.uniform(-1, 1))
                        for ln in doc["lines"]]
        model = build_model(load_case(doc))
        structure = row_structure(model)
        for cls in structure.classes:
            j0 = int(cls[0])
            lower, upper, _ = security._cut_bounds(structure.network, j0)
            if lower < upper:
                res = fdi_index(IndexQuery(model, j0 + 1), structure)
                assert res.objective == enumeration_alpha(model.H, j0)[0], (doc, j0)
                checked += 1
    assert checked >= 150


def _solved_copies(graph, hub, network):
    """One (capacity, source, sink) entry per copy that one batched
    maximum flow solves, capacity "plan" or "floor".  Copy k's source is
    fed by the super source hub, and its sink is the one node of the copy
    that nothing feeds, since every edge into it is led into hub + 1.
    Each copy's edges hold the plan's capacities or its floor's."""
    sources = np.sort(graph.indices[graph.indptr[hub] : graph.indptr[hub + 1]])
    nodes = hub // len(sources)
    fed = np.zeros(hub + 2, dtype=bool)
    fed[graph.indices] = True
    sinks = np.flatnonzero(~fed[:hub])
    assert len(sinks) == len(sources)
    copies = []
    for s, t in zip(sources.tolist(), sinks.tolist()):
        first = s // nodes * nodes
        data = graph.data[graph.indptr[first] : graph.indptr[first + nodes]]
        plan = np.array_equal(data, network.capacity.data)
        assert plan or np.array_equal(data, network.floor)
        copies.append(("plan" if plan else "floor", s % nodes, t % nodes))
    return copies


def test_each_maximum_flow_is_computed_once(monkeypatch):
    # a line's flow class and its from bus's injection class pose the same
    # source-sink pair; each pair is solved once per structure, on one
    # plan copy and one floor copy of the same batched maximum flow (one
    # for the whole sweep on PLAN35), and a single query solves only its own
    copies, batches = [], []
    maximum_flow = security.maximum_flow
    network = None

    def counted(graph, source, sink):
        batches.append(source)
        copies.extend(_solved_copies(graph, source, network))
        return maximum_flow(graph, source, sink)

    monkeypatch.setattr(security, "maximum_flow", counted)
    model = build_model(load_case(plan35_doc()))
    network = row_structure(model).network
    assert not network.exact

    def assert_one_plan_and_one_floor_copy_per_pair():
        assert Counter(copies) == {copy: 1 for copy in copies}
        per_pair = Counter((s, t) for _, s, t in copies)
        assert len(per_pair) == 34 and set(per_pair.values()) == {2}
        assert Counter(kind for kind, _, _ in copies) == {"plan": 34, "floor": 34}
        copies.clear()

    serial = index_sweep(model)
    assert len(batches) == 1
    assert_one_plan_and_one_floor_copy_per_pair()
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert index_sweep(model, mapper=pool.map) == serial
    assert_one_plan_and_one_floor_copy_per_pair()
    ieee14 = build_model(load_bundled_case("ieee14"))
    network = row_structure(ieee14).network
    assert network.exact
    line = next(j for j, (kind, _) in enumerate(ieee14.measurement_labels)
                if kind != "injection")
    combined_index(IndexQuery(ieee14, line + 1))
    assert [kind for kind, _, _ in copies] == ["plan"]


def test_single_query_off_a_cut_exact_plan_takes_one_flow_and_one_search(monkeypatch):
    # PLAN35's row 10 has L < U: its pairs are solved on both capacities
    # by one maximum flow, and their source sides by one residual search
    model = build_model(load_case(plan35_doc()))
    lower, upper, _ = security._cut_bounds(row_structure(model).network, 9)
    assert lower < upper
    calls = _count_calls(monkeypatch, ("maximum_flow", "breadth_first_order"))
    combined_index(IndexQuery(model, 10))
    assert Counter(calls) == {"maximum_flow": 1, "breadth_first_order": 1}


def _assert_flows_match_pair_oracle(model):
    # every pair a sweep solves keeps its own maximum flow's value on the
    # plan's capacity and on its floor's, and the buses the plan's
    # residual reaches from the source
    network = row_structure(model).network
    security._solve_pairs(network, [pair for j0 in range(model.m)
                                    for pair in security._pairs(network, j0)])
    capacity = network.capacity
    floor = csr_matrix((network.floor, capacity.indices, capacity.indptr), shape=capacity.shape)
    for (s, t), (upper, lower, side) in network.flows.items():
        ref, reached = pair_min_cut(capacity, s, t)
        assert upper == ref, (s, t)
        np.testing.assert_array_equal(side, reached[: network.buses], err_msg=str((s, t)))
        assert lower == pair_min_cut(floor, s, t)[0], (s, t)
    return network


def test_batched_flows_match_per_pair_flows(ieee14, monkeypatch):
    # ieee14 and the 118-bus ring-plus-chord grid are cut-exact, while
    # PLAN35's floor takes flows of its own; the 118-bus grid's pairs
    # take many batches
    for model, floor in ((ieee14, False), (build_model(load_case(plan35_doc())), True)):
        network = _assert_flows_match_pair_oracle(model)
        assert network.exact != floor
        assert any(upper != lower for upper, lower, _ in network.flows.values()) == floor
    batches = _count_calls(monkeypatch, ("maximum_flow",))
    _assert_flows_match_pair_oracle(
        build_model(load_case(ring_chord_case(np.random.default_rng(0), 118))))
    assert len(batches) > 10


def test_batched_floor_flows_match_per_pair_flows():
    # small plans whose floor is not the plan's capacity
    floors = 0
    for _, model in _thinned_plans_with_injections(3, 60):
        floors += not _assert_flows_match_pair_oracle(model).exact
    assert floors >= 40


def _assert_floor_on_the_plan_pattern(network):
    # the floor is the plan's capacity data but on each hyperedge's inner
    # to outer edge, where it keeps each bus's injection rows up to the
    # fewest flow rows on any of its lines
    capacity, floor = network.capacity, network.floor
    assert floor.shape == capacity.data.shape
    assert np.all(floor <= capacity.data)
    injections = np.bincount(network.row_bus[network.row_bus >= 0], minlength=network.buses)
    flows = np.bincount(network.row_line[network.row_line >= 0], minlength=len(network.ends))
    kept = injections.copy()
    for (f, t), count in zip(network.ends.tolist(), flows.tolist()):
        kept[f], kept[t] = min(kept[f], count), min(kept[t], count)
    hyper = np.flatnonzero(injections)
    inner = network.buses + 2 * np.arange(len(hyper))
    rows = np.repeat(np.arange(capacity.shape[0]), np.diff(capacity.indptr))
    on_hyper = np.isin(rows, inner) & (capacity.indices == rows + 1)
    assert np.count_nonzero(on_hyper) == len(hyper)
    np.testing.assert_array_equal(capacity.data[on_hyper], injections[hyper])
    np.testing.assert_array_equal(floor[on_hyper], kept[hyper])
    np.testing.assert_array_equal(floor[~on_hyper], capacity.data[~on_hyper])
    assert network.exact == np.array_equal(kept, injections)
    return network


def test_floor_lies_on_the_plan_pattern(ieee14):
    assert _assert_floor_on_the_plan_pattern(row_structure(ieee14).network).exact
    plan35 = build_model(load_case(plan35_doc()))
    assert not _assert_floor_on_the_plan_pattern(row_structure(plan35).network).exact
    exact = Counter(_assert_floor_on_the_plan_pattern(row_structure(model).network).exact
                    for _, model in _thinned_plans_with_injections(3, 60))
    assert exact[True] and exact[False] >= 40


def test_index_tables_do_not_depend_on_the_flow_batch(ieee14, monkeypatch):
    models = [ieee14, build_model(load_case(plan35_doc())),
              build_model(load_case(ring_chord_case(np.random.default_rng(0), 118))),
              *(model for _, model in _thinned_plans_with_injections(4, 30))]
    tables = [format_index_csv(index_sweep(model)) for model in models]
    copies = []
    maximum_flow = security.maximum_flow

    def counted(graph, source, sink):
        copies.append(graph.indptr[source + 1] - graph.indptr[source])
        return maximum_flow(graph, source, sink)

    monkeypatch.setattr(security, "maximum_flow", counted)
    monkeypatch.setattr(security, "_FLOW_BLOCK", 1)
    assert [format_index_csv(index_sweep(model)) for model in models] == tables
    # one pair per batch, on one copy or, off a cut-exact plan, two
    assert set(copies) == {1, 2}


@pytest.mark.parametrize("seed", range(10))
def test_index_ignores_extreme_reactances_on_a_cut_exact_plan(seed):
    # ieee14's plan is cut-exact, so alpha and every tuple follow from the
    # plan alone: with each reactance scaled by up to 10^4 either way the
    # sweep must give the bundled case's bytes.  Stealth and idle-class
    # tests at a fixed absolute tolerance refused seeds 0, 4 and 5.
    doc = _bundled_doc("ieee14")
    rng = np.random.default_rng(seed)
    doc["lines"] = [dict(ln, reactance=ln["reactance"] * 10 ** rng.uniform(-4, 4))
                    for ln in doc["lines"]]
    if seed in (6, 7):
        # too ill-conditioned to pass the observability test
        with pytest.raises(UnobservableError):
            build_model(load_case(doc))
        return
    expected = format_index_csv(index_sweep(build_model(load_case(_bundled_doc("ieee14")))))
    assert format_index_csv(index_sweep(build_model(load_case(doc)))) == expected


def test_cut_refuses_a_class_merged_at_a_wide_spread():
    # with each reactance scaled by up to 10^4 either way, line weights on
    # this plan span 2.3e-4 to 1.7e4 and parallel_classes puts rows 5 and
    # 14 (0-based) in one class at PARALLEL_ATOL, though they are not
    # parallel; a cut moves row 14 without row 5, so no support may be
    # reported for it
    rng = np.random.default_rng(7)
    for _ in range(125):
        doc = random_cut_exact_case(rng, int(rng.integers(3, 10)))
        for ln in doc["lines"]:
            ln["reactance"] *= 10 ** rng.uniform(-4, 4)
    model = build_model(load_case(doc))
    row_class = parallel_classes(model.H)[1]
    assert row_class[5] == row_class[14]
    with pytest.raises(SecurityIndexError, match="minimum cut value inconsistent"):
        index_sweep(model)


def test_ring_chord_118_bus_cut_certificates():
    # a full plan is cut-exact, so every one of the 293 classes takes a
    # cut: threads racing on CutNetwork.flows give the serial rows, and
    # each class's step certificate is its support's least-squares one
    model = build_model(load_case(ring_chord_case(np.random.default_rng(0), 118)))
    serial = index_sweep(model)
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert index_sweep(model, mapper=pool.map) == serial
    structure = row_structure(model)
    assert len(structure.classes) == 293
    for cls in structure.classes:
        j0 = int(cls[0])
        res = fdi_index(IndexQuery(model, j0 + 1), structure)
        rows = [i - 1 for i in res.support]
        assert set_admits_target(model.H, rows, j0), j0
        ref = certificate_for_set(model.H, rows, j0, 0.1)
        np.testing.assert_allclose(res.certificate_c, ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max(), err_msg=str(j0))
