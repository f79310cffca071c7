"""The HiGHS wrapper against direct scipy calls, exhaustive enumeration,
and a dynamic-programming knapsack oracle, plus its own answer checks."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, OptimizeResult, milp as scipy_milp

from gridrisk import milp as milp_module
from gridrisk.milp import MilpError, MilpProblem, solve_milp


def _problem(c, a_ub, b_ub, a_eq, b_eq, binary, lb, ub, **kw):
    return MilpProblem(
        objective=np.asarray(c, dtype=float),
        a_ub=np.asarray(a_ub, dtype=float),
        b_ub=np.asarray(b_ub, dtype=float),
        a_eq=np.asarray(a_eq, dtype=float),
        b_eq=np.asarray(b_eq, dtype=float),
        binary=np.asarray(binary, dtype=bool),
        lb=np.asarray(lb, dtype=float),
        ub=np.asarray(ub, dtype=float),
        **kw,
    )


def _scipy_reference(c, a_ub, b_ub, a_eq, b_eq, binary, lb, ub):
    constraints = []
    if len(b_ub):
        constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
    if len(b_eq):
        constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
    res = scipy_milp(
        c=c,
        constraints=constraints,
        integrality=np.asarray(binary, dtype=float),
        bounds=(lb, ub),
    )
    return res


def test_random_milps_match_scipy():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, 5))
        c = np.round(rng.normal(size=n), 3)
        a_ub = np.round(rng.normal(size=(k, n)), 3)
        b_ub = np.round(rng.uniform(-1.0, 3.0, size=k), 3)
        binary = rng.random(n) < 0.6
        lb = np.zeros(n)
        ub = np.where(binary, 1.0, 4.0)
        prob = _problem(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), binary, lb, ub)
        ours = solve_milp(prob)
        ref = _scipy_reference(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0),
                               binary, lb, ub)
        if ours.status == "infeasible":
            assert ref.status == 2, f"trial {trial}"
        else:
            assert ours.status == "optimal"
            assert ref.status == 0
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"


def test_pure_binary_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 8
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(3, n))
        b_ub = rng.uniform(0.0, 2.0, size=3)
        best = np.inf
        for bits in range(1 << n):
            x = np.array([(bits >> i) & 1 for i in range(n)], dtype=float)
            if np.all(a_ub @ x <= b_ub + 1e-12):
                best = min(best, float(c @ x))
        prob = _problem(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0),
                        np.ones(n, dtype=bool), np.zeros(n), np.ones(n))
        ours = solve_milp(prob)
        if np.isinf(best):
            assert ours.status == "infeasible"
        else:
            assert ours.objective == pytest.approx(best, abs=1e-9)


def test_knapsack_against_dp_oracle():
    values = np.array([12, 7, 11, 8, 9, 6, 5, 14, 3, 10], dtype=float)
    weights = np.array([4, 3, 5, 2, 3, 2, 1, 6, 1, 4], dtype=float)
    cap = 15
    # dynamic program over integer capacities
    table = np.zeros(cap + 1)
    for v, w in zip(values, weights):
        w = int(w)
        for room in range(cap, w - 1, -1):
            table[room] = max(table[room], table[room - w] + v)
    dp_best = table[cap]
    n = len(values)
    prob = _problem(-values, weights[None, :], [cap], np.zeros((0, n)), np.zeros(0),
                    np.ones(n, dtype=bool), np.zeros(n), np.ones(n))
    sol = solve_milp(prob)
    assert sol.status == "optimal"
    assert -sol.objective == pytest.approx(dp_best, abs=1e-9)


def test_equality_constrained_milp():
    # pick exactly two of four binaries at minimum cost
    c = np.array([3.0, 1.0, 2.0, 5.0])
    prob = _problem(c, np.zeros((0, 4)), np.zeros(0), np.ones((1, 4)), [2.0],
                    np.ones(4, dtype=bool), np.zeros(4), np.ones(4))
    sol = solve_milp(prob)
    assert sol.objective == pytest.approx(3.0)
    assert np.array_equal(np.round(sol.x), [0, 1, 1, 0])


def test_determinism():
    rng = np.random.default_rng(17)
    n = 7
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(4, n))
    b_ub = rng.uniform(0.5, 1.5, size=4)
    binary = np.array([True, True, True, False, True, False, True])

    def solve_once():
        prob = _problem(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), binary,
                        np.zeros(n), np.where(binary, 1.0, 2.0))
        return solve_milp(prob)

    first, second = solve_once(), solve_once()
    assert first.objective == second.objective
    assert np.array_equal(first.x, second.x)
    assert first.node_count == second.node_count


def test_statuses():
    # infeasible: x1 + x2 <= -1 with x >= 0
    prob = _problem([1.0, 1.0], [[1.0, 1.0]], [-1.0], np.zeros((0, 2)), np.zeros(0),
                    [True, True], np.zeros(2), np.ones(2))
    assert solve_milp(prob).status == "infeasible"
    # unbounded continuous direction
    prob = _problem([-1.0, 0.0], np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)),
                    np.zeros(0), [False, True], [0.0, 0.0], [np.inf, 1.0])
    assert solve_milp(prob).status == "unbounded"


def test_option_warning_is_ignored_but_others_are_not():
    prob = _pick_two()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        solve_milp(prob)
        warnings.warn("unrelated", RuntimeWarning)
    assert [str(w.message) for w in caught] == ["unrelated"]


def test_concurrent_solves_never_raise_the_option_warning():
    # A dense constraint matrix made scipy switch every warning to an error
    # while it converted it, so a solve in another thread raised its
    # option warning.  A tiny switch interval makes that window easy to hit.
    prob = _pick_two()

    def solve_many(_):
        return [solve_milp(prob).objective for _ in range(50)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(solve_many, range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert all(x == 2.0 for batch in results for x in batch)


def test_node_hook_rejected():
    prob = _problem([1.0], np.zeros((0, 1)), np.zeros(0), np.zeros((0, 1)),
                    np.zeros(0), [True], [0.0], [1.0], node_hook=lambda lo, hi: None)
    with pytest.raises(MilpError):
        solve_milp(prob)


def _fake_highs(monkeypatch, x, fun, dual_bound):
    def fake(*args, **kwargs):
        return OptimizeResult(status=0, message="", x=np.asarray(x, dtype=float),
                              fun=fun, mip_node_count=1, mip_dual_bound=dual_bound)
    monkeypatch.setattr(milp_module, "milp", fake)


def _pick_two():
    # two of three binaries, one of them fixed on
    return _problem([1.0, 1.0, 1.0], np.zeros((0, 3)), np.zeros(0),
                    np.ones((1, 3)), [2.0], np.ones(3, dtype=bool),
                    [1.0, 0.0, 0.0], np.ones(3))


def test_solution_within_highs_tolerance_is_accepted(monkeypatch):
    _fake_highs(monkeypatch, [1.0, 1.0 - 5e-7, 5e-7], 2.0, 2.0)
    sol = solve_milp(_pick_two())
    assert sol.status == "optimal"
    assert np.array_equal(sol.x, [1.0, 1.0, 0.0])
    assert sol.objective == 2.0


@pytest.mark.parametrize("x,fun,bound", [
    ([1.0, 1.0, 1.0], 3.0, 3.0),          # equality row violated
    ([0.0, 1.0, 1.0], 2.0, 2.0),          # fixed binary off its bound
    ([1.0, 0.5, 0.5], 2.0, 2.0),          # fractional binaries
    ([1.0, 1.0, 0.0], 2.0, 1.0),          # dual bound leaves a gap
])
def test_bad_highs_answers_raise(monkeypatch, x, fun, bound):
    _fake_highs(monkeypatch, x, fun, bound)
    with pytest.raises(MilpError):
        solve_milp(_pick_two())
