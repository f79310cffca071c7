"""Security indices against enumeration oracles and their paper-level
structure."""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridrisk.security as security
from gridrisk.attack import perturb_model
from gridrisk.milp import MilpProblem, MilpSolution, solve_milp
from gridrisk.network import build_model, load_bundled_case, load_case
from gridrisk.security import (
    IndexQuery,
    SecurityIndexError,
    combined_index,
    cost_weighted_index,
    fdi_index,
    format_index_csv,
    index_sweep,
    parallel_classes,
)

from oracles import (
    certificate_for_set,
    enumeration_alpha,
    enumeration_family,
    parallel_classes_by_row,
    random_observable_matrix,
    set_admits_target,
    three_circuits,
    withdrawal_index,
)

# independently derived by rank enumeration over all subsets
CHAIN3_ALPHA = 4
RING4_ALPHA = 7


def _assert_result_shape(res, h, j, mu):
    assert j in res.integrity_set
    assert not set(res.integrity_set) & set(res.availability_set)
    assert res.support == tuple(sorted(res.integrity_set + res.availability_set))
    assert res.verified_stealth
    # the certificate moves the target by exactly mu and nothing off-support
    a = h @ res.certificate_c
    assert a[j - 1] == pytest.approx(mu, rel=1e-7)
    comp = [i for i in range(h.shape[0]) if i + 1 not in res.support]
    if comp:
        assert np.max(np.abs(a[comp])) <= 1e-6 * abs(mu) * 1e4


def test_chain3_all_measurements(chain3):
    for j in range(1, chain3.m + 1):
        q = IndexQuery(chain3.H, j)
        res_a = fdi_index(q)
        res_b = combined_index(q)
        assert res_a.objective == res_b.objective == CHAIN3_ALPHA
        _assert_result_shape(res_b, chain3.H, j, q.mu)


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
    _assert_result_shape(res_a, ieee14.H, 9, q.mu)


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
            q = IndexQuery(h, j, mu=0.3)
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
        q = IndexQuery(h, j, cost_integrity=ci, cost_availability=ca)
        gamma, corrupted, withdrawn = withdrawal_index(h, j - 1, ci, ca)
        res = cost_weighted_index(q)
        assert res.objective == pytest.approx(gamma, rel=1e-9)
        assert len(res.integrity_set) == len(corrupted)
        assert len(res.availability_set) == len(withdrawn)
        assert set_admits_target(h, [i - 1 for i in res.support], j - 1)


def test_free_action_costs(ring4):
    # a free action leaves a whole tuple of zero-cost rows; the answer must
    # still be a verified stealth support, priced at the one paid row
    for ci, ca, expected in ((1.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)):
        res = cost_weighted_index(IndexQuery(ring4.H, 1, cost_integrity=ci,
                                             cost_availability=ca))
        assert res.objective == pytest.approx(expected)
        _assert_result_shape(res, ring4.H, 1, 0.1)
        assert len(res.support) >= RING4_ALPHA


def test_magnitude_homogeneity(ring4):
    small = combined_index(IndexQuery(ring4.H, 5, mu=0.1))
    large = combined_index(IndexQuery(ring4.H, 5, mu=1.0))
    assert small.objective == large.objective
    assert small.support == large.support
    np.testing.assert_allclose(
        large.certificate_c, 10.0 * small.certificate_c, rtol=1e-6
    )


def test_support_does_not_depend_on_magnitude(ring4, ieee14):
    # every program is solved at one magnitude, so mu only scales the
    # certificate, whatever its size or sign
    for model, targets in ((ring4, range(1, ring4.m + 1)), (ieee14, (1, 9, 44))):
        for index in (fdi_index, combined_index):
            for j in targets:
                ref = index(IndexQuery(model.H, j, mu=0.1))
                for mu in (1e-3, -0.5, 25.0):
                    res = index(IndexQuery(model.H, j, mu=mu))
                    assert res.support == ref.support
                    assert res.objective == ref.objective
                    np.testing.assert_allclose(
                        res.certificate_c, (mu / 0.1) * ref.certificate_c,
                        rtol=1e-9, atol=1e-12 * abs(mu))
                    _assert_result_shape(res, model.H, j, mu)


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


def test_big_m_insensitivity(chain3, ring4):
    for model, j in ((chain3, 2), (ring4, 7)):
        base = IndexQuery(model.H, j)
        forced = IndexQuery(model.H, j, big_m=10.0 * base.resolved_big_m)
        a, b = fdi_index(base), fdi_index(forced)
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
    # beta, gamma and the split come from alpha's support: no other program
    calls = []

    def counted(problem):
        calls.append(problem)
        return solve_milp(problem)

    monkeypatch.setattr(security, "solve_milp", counted)
    for model in (chain3, ring4):
        calls.clear()
        index_sweep(model)
        assert len(calls) == len(parallel_classes(model.H)[0])


def test_sweep_finds_classes_and_circuits_once(chain3, ring4, monkeypatch):
    calls = []

    def counted(name):
        orig = getattr(security, name)

        def spy(*args):
            calls.append(name)
            return orig(*args)
        return spy

    for name in ("parallel_classes", "three_circuits"):
        monkeypatch.setattr(security, name, counted(name))
    for model in (chain3, ring4):
        calls.clear()
        index_sweep(model)
        assert sorted(calls) == ["parallel_classes", "three_circuits"]


def _without_circuit_rows(problem):
    # circuit rows are the ones on binaries alone with right-hand side 0;
    # the refutation cuts have right-hand side -1
    n = int(np.count_nonzero(~problem.binary))
    circuit = ~problem.a_ub[:, :n].any(axis=1) & (problem.b_ub == 0.0)
    assert circuit.any()
    return replace(problem, a_ub=problem.a_ub[~circuit], b_ub=problem.b_ub[~circuit])


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
    res = combined_index(IndexQuery(chain3.H, 1, mu=0.2))
    rows0 = [i - 1 for i in res.support]
    c_ref = certificate_for_set(chain3.H, rows0, 0, 0.2)
    np.testing.assert_allclose(
        chain3.H @ res.certificate_c, chain3.H @ c_ref, atol=1e-9
    )


def test_query_validation(chain3):
    with pytest.raises(SecurityIndexError):
        IndexQuery(chain3.H, 0)
    with pytest.raises(SecurityIndexError):
        IndexQuery(chain3.H, 8)
    with pytest.raises(SecurityIndexError):
        IndexQuery(chain3.H, 1, mu=0.0)
    with pytest.raises(SecurityIndexError):
        IndexQuery(chain3.H, 1, cost_integrity=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(SecurityIndexError):
            IndexQuery(chain3.H, 1, cost_availability=bad)
        with pytest.raises(SecurityIndexError):
            IndexQuery(chain3.H, 1, cost_integrity=bad)
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(SecurityIndexError, match="big_m"):
            IndexQuery(chain3.H, 1, big_m=bad)


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
    _assert_result_shape(res, model.H, 1, 0.1)
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
