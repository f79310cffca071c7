"""The HiGHS wrapper against direct scipy calls, exhaustive enumeration,
and a dynamic-programming knapsack oracle, plus its own answer checks."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import LinearConstraint, OptimizeResult, milp as scipy_milp

from gridrisk import milp
from gridrisk.milp import MilpError, MilpProblem, solve_milp


def _problem(c, a_ub, b_ub, a_eq, b_eq, binary, lb, ub, **kw):
    # one block: the <= rows, then the = rows
    b_ub, b_eq = np.asarray(b_ub, dtype=float), np.asarray(b_eq, dtype=float)
    return MilpProblem(
        objective=np.asarray(c, dtype=float),
        a=np.vstack([a_ub, a_eq]).astype(float),
        lower=np.r_[np.full(b_ub.size, -np.inf), b_eq],
        upper=np.r_[b_ub, b_eq],
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
        solve_milp(replace(prob, cutoff=2.5))
        warnings.warn("unrelated", RuntimeWarning)
    assert [str(w.message) for w in caught] == ["unrelated"]
    # scipy lists the options it passes on as a set, so in either order;
    # any other option name must still warn
    action, message, category, module, _ = milp._OPTION_WARNING_FILTER
    assert (action, category) == ("ignore", RuntimeWarning)
    assert module.match(milp.__name__)
    for names, ignored in [
            ("'mip_heuristic_run_feasibility_jump'", True),
            ("'mip_heuristic_run_feasibility_jump', 'objective_bound'", True),
            ("'objective_bound', 'mip_heuristic_run_feasibility_jump'", True),
            ("'objective_bound'", False),
            ("'mip_heuristic_run_feasibility_jump', 'time_lim'", False),
            ("'objective_bound', 'mip_heuristic_run_feasibility_jump', 'time_lim'", False)]:
        text = (f"Unrecognized options detected: {{{names}}}. "
                "These will be passed to HiGHS verbatim.")
        assert bool(message.match(text)) == ignored, names


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


def _fake_highs(monkeypatch, x, fun, dual_bound, status=0):
    """Make HiGHS return the given answer; returns the options it gets."""
    options = []

    def fake(*args, **kwargs):
        options.append(kwargs["options"])
        return OptimizeResult(status=status, message="", x=np.asarray(x, dtype=float),
                              fun=fun, mip_node_count=1, mip_dual_bound=dual_bound)
    # solve_milp imports scipy's milp when it runs, so the fake goes there
    monkeypatch.setattr(scipy.optimize, "milp", fake)
    return options


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


def test_integrality_slack_in_the_optimum_is_accepted(monkeypatch):
    # HiGHS takes its value at the unrounded point, so a proven optimum
    # may sit above its dual bound by the binaries' integrality slack:
    # on a 5-bus plan it reported 2.0000017 against a bound of 2
    _fake_highs(monkeypatch, [1.0, 1.0, 1.7e-6], 2.0000017, 2.0)
    sol = solve_milp(_pick_two())
    assert (sol.status, sol.objective) == ("optimal", 2.0)
    assert np.array_equal(sol.x, [1.0, 1.0, 0.0])


def test_malformed_block_raises():
    prob = _pick_two()
    for bad in (replace(prob, a=np.ones((1, 2))), replace(prob, a=np.ones(3)),
                replace(prob, lower=np.zeros(2)), replace(prob, upper=np.zeros(0))):
        with pytest.raises(MilpError, match="constraint block"):
            solve_milp(bad)


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


def test_cutoff_asks_only_for_a_point_below_it():
    # the optimum of the pick-two program is 2
    below = solve_milp(replace(_pick_two(), cutoff=2.5))
    assert below.status == "optimal" and below.objective == 2.0
    assert solve_milp(replace(_pick_two(), cutoff=1.5)).status == "cutoff"
    # an infeasible program has nothing below any cutoff
    prob = _problem([1.0, 1.0], [[1.0, 1.0]], [-1.0], np.zeros((0, 2)), np.zeros(0),
                    [True, True], np.zeros(2), np.ones(2))
    assert solve_milp(replace(prob, cutoff=5.0)).status == "cutoff"


@pytest.mark.parametrize("fun", [1.5, 2.0, 2.0000014])
def test_optimal_at_or_above_the_cutoff_is_a_cutoff(monkeypatch, fun):
    # With an objective bound HiGHS may call an incumbent at or above the
    # bound optimal, with its dual bound equal to it; that point passes
    # every check of an optimum, so only the cutoff can refuse it
    options = _fake_highs(monkeypatch, [1.0, 1.0, 0.0], fun, fun)
    sol = solve_milp(replace(_pick_two(), cutoff=1.5))
    assert (sol.status, sol.objective, sol.x) == ("cutoff", None, None)
    assert options[0]["objective_bound"] == 1.5
    assert solve_milp(_pick_two()).status == "optimal"
    assert "objective_bound" not in options[1]


def test_infeasible_under_a_cutoff_is_a_cutoff(monkeypatch):
    _fake_highs(monkeypatch, [np.nan] * 3, None, None, status=2)
    assert solve_milp(replace(_pick_two(), cutoff=1.5)).status == "cutoff"
    assert solve_milp(_pick_two()).status == "infeasible"
