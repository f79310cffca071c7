"""One test per acceptance criterion; the terminal summary prints a
PASS/FAIL line for each.  The 14-bus index sweep is computed once and
shared, so this module takes a few minutes end to end."""

import time

import numpy as np
import pytest
from oracles import enumeration_alpha

from gridrisk.attack import perturb_model, scale_attack
from gridrisk.chi2 import central_cdf, noncentral_cdf, threshold
from gridrisk.detector import (
    detection_probability,
    make_bdd_config,
    noncentrality,
)
from gridrisk.estimator import compute_gains, compute_reduced_gains, residual
from gridrisk.risk import (
    compare_attacks,
    default_mu_grid,
    empirical_detection,
    risk_sweep,
    tuple_attack_variants,
)
from gridrisk.security import (
    IndexQuery,
    brute_force_index,
    combined_index,
    cost_weighted_index,
    fdi_index,
    parallel_classes,
    verify_theorem2,
)


@pytest.fixture(scope="module")
def sweep14(ieee14):
    from gridrisk.security import index_sweep

    start = time.perf_counter()
    rows = index_sweep(ieee14, mu=0.1, cost_integrity=1.0, cost_availability=0.5)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def variants14(ieee14):
    perturbed = perturb_model(ieee14, 0.2, seed=7)
    return dict(tuple_attack_variants(perturbed, target_j=9, mu=0.1))


def test_criterion_01_security_index_reproduction(sweep14):
    rows, elapsed = sweep14
    row = rows[8]
    assert row["j"] == 9
    assert row["alpha"] == 11
    assert row["gamma_fdi"] == pytest.approx(11.0)
    assert row["gamma_combined"] == pytest.approx(6.0)
    assert (row["k_a"], row["k_d"]) == (1, 10)
    assert elapsed < 300.0


def test_criterion_02_alpha_equals_beta(sweep14, chain3, ring4):
    from gridrisk.security import index_sweep

    rows, _ = sweep14
    assert all(row["alpha"] == row["beta"] for row in rows)
    for model in (chain3, ring4):
        for row in index_sweep(model):
            assert row["alpha"] == row["beta"]


def test_criterion_03_single_injection_structure(sweep14, ieee14):
    rows, _ = sweep14
    # the sweep itself runs at C_A = 0.5; check the structure on every j
    for row in rows:
        beta = row["beta"]
        assert row["k_a"] == 1
        assert row["k_d"] == beta - 1
        assert row["gamma_combined"] == pytest.approx(1.0 + (beta - 1) * 0.5,
                                                      rel=1e-9)
    # the remaining cost levels, solved once per parallel class
    classes, row_class = parallel_classes(ieee14.H)
    for ca in (0.1, 0.9):
        for cls in classes:
            lead = int(cls.min())
            lead_row = rows[lead]
            res = cost_weighted_index(
                IndexQuery(ieee14.H, lead + 1, cost_integrity=1.0,
                           cost_availability=ca),
            )
            beta = lead_row["beta"]
            assert len(res.integrity_set) == 1
            assert len(res.availability_set) == beta - 1
            assert res.objective == pytest.approx(1.0 + (beta - 1) * ca,
                                                  rel=1e-9)
        # class members share the tuple family, so the solved class value
        # is the index of every member; cross-check the per-j expectation
        for j0, row in enumerate(rows):
            lead = int(classes[row_class[j0]].min())
            assert row["beta"] == rows[lead]["beta"]


def test_criterion_04_milp_matches_enumeration(chain3, ring4):
    for model in (chain3, ring4):
        for j in range(1, model.m + 1):
            query = IndexQuery(model.H, j)
            alpha = int(fdi_index(query).objective)
            beta = int(combined_index(query).objective)
            brute = brute_force_index(model.H, j)
            size, _ = enumeration_alpha(model.H, j - 1)
            assert alpha == beta == brute.objective == size


def test_criterion_05_indices_survive_model_error(sweep14, ieee14, chain3):
    rows, _ = sweep14
    row = rows[8]
    assert row["alpha"] == row["beta"] == 11
    for seed in range(10):
        perturbed = perturb_model(ieee14, 0.2, seed=seed)
        query = IndexQuery(perturbed.H, 9)
        assert int(fdi_index(query).objective) == 11
        assert int(combined_index(query).objective) == 11
    # minimal tuple families are identical on the enumerable case
    report = verify_theorem2(chain3.H, perturb_model(chain3, 0.2, seed=5).H,
                             target_j=1)
    assert report.indices_equal
    assert report.assumption1_holds is True


def test_criterion_06_stealth_despite_model_error(ieee14, variants14):
    attack = variants14["combined_1_10"]
    assert (attack.k_a, attack.k_d) == (1, 10)
    gains = compute_reduced_gains(ieee14, attack.d)
    assert noncentrality(gains, attack.a) <= 1e-10
    analysis = detection_probability(gains, attack.a, 0.05)
    assert analysis.delta == pytest.approx(0.05, abs=1e-9)
    config = make_bdd_config(0.05, gains.dof)
    report = empirical_detection(ieee14, attack, config, runs=1000, seed=11)
    assert 0.03 <= report.empirical_delta <= 0.07


def test_criterion_07_detection_probability_fidelity(ieee14, variants14):
    grid = default_mu_grid(0.5, 10)
    for ai, attack_id in enumerate(("fdi_11", "combined_2_9")):
        attack = variants14[attack_id]
        if attack.k_d > 0:
            gains = compute_reduced_gains(ieee14, attack.d)
        else:
            gains = compute_gains(ieee14)
        config = make_bdd_config(0.05, gains.dof)
        for pi, mu in enumerate(grid):
            scaled = scale_attack(attack, float(mu))
            theory = detection_probability(gains, scaled.a, 0.05).delta
            report = empirical_detection(ieee14, scaled, config, runs=1000,
                                         seed=(17, ai, pi))
            assert abs(theory - report.empirical_delta) <= 0.04


def test_criterion_08_risk_ordering(ieee14, variants14):
    curves = risk_sweep(ieee14, list(variants14.items()),
                        default_mu_grid(0.5, 200), alpha=0.05)
    table = compare_attacks(curves)
    peaks = {row["attack_id"]: row["peak_risk"] for row in table}
    assert peaks["combined_1_10"] >= peaks["combined_2_9"] >= peaks["fdi_11"]
    assert [row["attack_id"] for row in table][0] == "combined_1_10"
    fdi = next(c for c in curves if c.attack_id == "fdi_11")
    risks = fdi.risk
    peak = int(np.argmax(risks))
    assert 0 < peak < len(risks) - 1  # rises, then falls
    assert np.all(np.diff(risks[: peak + 1]) > 0)
    assert np.all(np.diff(risks[peak:]) < 0)


def test_criterion_09_statistical_kernels():
    for dof in range(1, 61):
        for alpha in (0.01, 0.05, 0.1):
            tau = threshold(alpha, dof)
            assert abs(central_cdf(tau, dof) - (1.0 - alpha)) <= 1e-10
    rng = np.random.default_rng(314159)
    n = 1_000_000
    for dof in (3, 41, 60):
        x = threshold(0.05, dof)
        for lam in (0.5, 5.0, 25.0):
            samples = rng.noncentral_chisquare(dof, lam, size=n)
            phat = float(np.mean(samples <= x))
            p = noncentral_cdf(x, dof, lam)
            sigma = np.sqrt(p * (1.0 - p) / n)
            assert abs(phat - p) <= 3.0 * sigma


def test_criterion_10_estimator_identities(chain3, ring4, ieee14):
    rng = np.random.default_rng(2718)
    for model in (chain3, ring4, ieee14):
        gains = compute_gains(model)
        h = model.H
        assert np.abs(gains.S @ h).max() <= 1e-9
        assert np.abs(gains.T @ gains.T - gains.T).max() <= 1e-8
        assert np.abs(gains.K @ h - np.eye(model.n)).max() <= 1e-9
        z = rng.normal(size=model.m)
        stealth = h @ rng.normal(size=model.n)
        assert np.abs(residual(gains, z + stealth)
                      - residual(gains, z)).max() <= 1e-9
