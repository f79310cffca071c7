"""One test per acceptance criterion; the terminal summary prints a
PASS/FAIL line for each.  The 14-bus index sweep is computed once and
shared, so this module takes a few minutes end to end."""

import time

import numpy as np
import pytest
from oracles import (
    enumeration_alpha,
    enumeration_family,
    residual_sensitivity,
    set_admits_target,
    withdrawal_index,
)
from scipy.stats import chi2 as scipy_chi2

from gridrisk.attack import perturb_model, scale_attack
from gridrisk.chi2 import noncentral_cdf, threshold
from gridrisk.detector import (
    detection_probability,
    make_bdd_config,
    noncentrality,
)
from gridrisk.estimator import compute_gains, compute_reduced_gains, weighted_residual
from gridrisk.risk import (
    default_mu_grid,
    empirical_detection,
    risk_sweep,
)
from gridrisk.security import (
    IndexQuery,
    combined_index,
    fdi_index,
    parallel_classes,
)


@pytest.fixture(scope="module")
def sweep14(ieee14):
    from gridrisk.security import index_sweep

    start = time.perf_counter()
    rows = index_sweep(ieee14, cost_integrity=1.0, cost_availability=0.5)
    return rows, time.perf_counter() - start


def test_criterion_01_security_index_reproduction(sweep14):
    rows, elapsed = sweep14
    row = rows[8]
    assert row["j"] == 9
    assert row["alpha"] == 11
    assert row["gamma_fdi"] == pytest.approx(11.0)
    assert row["gamma_combined"] == pytest.approx(6.0)
    assert (row["k_a"], row["k_d"]) == (1, 10)
    assert elapsed < 300.0


# ieee14 class leads checked against the withdrawal program: flows and
# injections, alpha from 4 to 13
BETA_ORACLE_ROWS14 = (1, 4, 9, 10, 13, 14, 18, 41, 47, 49)


def test_criterion_02_alpha_equals_beta(sweep14, ieee14, chain3, ring4):
    from gridrisk.security import index_sweep

    rows, _ = sweep14
    assert all(row["alpha"] == row["beta"] for row in rows)
    # beta is derived from alpha; the reference is the program with one
    # withdrawal binary per row, at equal action costs
    for j in BETA_ORACLE_ROWS14:
        beta, _, _ = withdrawal_index(ieee14.H, j - 1, 1.0, 1.0)
        assert rows[j - 1]["beta"] == beta
    for model in (chain3, ring4):
        for row in index_sweep(model):
            assert row["alpha"] == row["beta"]
            beta, _, _ = withdrawal_index(model.H, row["j"] - 1, 1.0, 1.0)
            assert row["beta"] == beta


def test_criterion_03_single_injection_structure(sweep14, ieee14):
    rows, _ = sweep14
    # the sweep itself runs at C_A = 0.5; check the structure on every j
    for row in rows:
        beta = row["beta"]
        assert row["k_a"] == 1
        assert row["k_d"] == beta - 1
        assert row["gamma_combined"] == pytest.approx(1.0 + (beta - 1) * 0.5,
                                                      rel=1e-9)
    # the remaining cost levels: the derived sweep against the withdrawal
    # program, solved once per parallel class
    from gridrisk.security import index_sweep

    classes, row_class = parallel_classes(ieee14.H)
    for ca in (0.1, 0.9):
        derived = index_sweep(ieee14, cost_integrity=1.0, cost_availability=ca)
        for cls in classes:
            lead = int(cls.min())
            gamma, corrupted, withdrawn = withdrawal_index(ieee14.H, lead, 1.0, ca)
            row = derived[lead]
            assert len(corrupted) == row["k_a"] == 1
            assert len(withdrawn) == row["k_d"] == rows[lead]["beta"] - 1
            assert row["gamma_combined"] == pytest.approx(gamma, rel=1e-9)
            support = row["integrity_set"] + row["availability_set"]
            assert set_admits_target(ieee14.H, [i - 1 for i in support], lead)
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
            size, _ = enumeration_alpha(model.H, j - 1)
            assert alpha == beta == size


def test_criterion_05_indices_survive_model_error(sweep14, ieee14, chain3):
    rows, _ = sweep14
    row = rows[8]
    assert row["alpha"] == row["beta"] == 11
    for seed in range(10):
        perturbed = perturb_model(ieee14, 0.2, seed=seed)
        query = IndexQuery(perturbed.H, 9)
        assert int(fdi_index(query).objective) == 11
        assert int(combined_index(query).objective) == 11
    # Assumption 1 on the enumerable case: each perturbed model has the
    # true model's minimal-tuple family for every j, and with it the same
    # alpha and beta
    for seed in (3, 5):
        perturbed = perturb_model(chain3, 0.2, seed=seed)
        for j in range(1, chain3.m + 1):
            family = enumeration_family(chain3.H, j - 1)
            assert enumeration_family(perturbed.H, j - 1) == family, (seed, j)
            size = len(next(iter(family)))
            for h in (chain3.H, perturbed.H):
                query = IndexQuery(h, j)
                assert int(fdi_index(query).objective) == size, (seed, j)
                assert int(combined_index(query).objective) == size, (seed, j)


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


def _assert_rises_then_falls(risks):
    peak = int(np.argmax(risks))
    assert 0 < peak < len(risks) - 1  # rises, then falls
    assert np.all(np.diff(risks[: peak + 1]) > 0)
    assert np.all(np.diff(risks[peak:]) < 0)


def test_criterion_08_risk_ordering(ieee14, variants14, reported_variants14):
    # the ordering between the combined variants is pinned on the named
    # tuple (conftest.TUPLE14_9) of the seed-7 attacker model
    curves = risk_sweep(ieee14, list(variants14.items()),
                        default_mu_grid(0.5, 200), alpha=0.05)
    peaks = {c.attack_id: c.risk.max() for c in curves}
    assert peaks["combined_1_10"] >= peaks["combined_2_9"] >= peaks["fdi_11"]
    assert max(peaks, key=peaks.get) == "combined_1_10"
    fdi = next(c for c in curves if c.attack_id == "fdi_11")
    _assert_rises_then_falls(fdi.risk)
    # on whichever tuple the index program reports, every combined variant
    # peaks at least as high as the FDI one, which rises and then falls
    for seed, (perturbed, variants) in reported_variants14.items():
        tuple0 = np.flatnonzero(dict(variants)["fdi_11"].a)
        assert len(tuple0) == 11, seed
        assert set_admits_target(perturbed.H, tuple0, 8), seed
        risks = {c.attack_id: c.risk for c in risk_sweep(
            ieee14, variants, default_mu_grid(0.5, 200), alpha=0.05)}
        fdi_peak = np.max(risks["fdi_11"])
        assert np.max(risks["combined_1_10"]) >= fdi_peak, seed
        assert np.max(risks["combined_2_9"]) >= fdi_peak, seed
        _assert_rises_then_falls(risks["fdi_11"])


def test_criterion_09_statistical_kernels():
    for dof in range(1, 61):
        for alpha in (0.01, 0.05, 0.1):
            tau = threshold(alpha, dof)
            assert abs(scipy_chi2.cdf(tau, dof) - (1.0 - alpha)) <= 1e-10
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
        # S h = 0 for every column h of H, read as sigma * r: the residual
        # R^-1/2 S z scaled back to measurement units
        assert np.abs(gains.sigma * weighted_residual(gains, h.T)).max() <= 1e-9
        hat = h @ gains.K
        assert np.abs(hat @ hat - hat).max() <= 1e-8
        assert np.abs(gains.K @ h - np.eye(model.n)).max() <= 1e-9
        # the sensitivity from Q and the hat matrix from K sum to I, and
        # the former is the oracle's normal-equations S
        sens = (gains.sigma * weighted_residual(gains, np.eye(model.m))).T
        assert np.abs(hat + sens - np.eye(model.m)).max() <= 1e-9
        assert np.abs(sens - residual_sensitivity(model, gains.d)).max() <= 1e-9
        z = rng.normal(size=model.m)
        stealth = h @ rng.normal(size=model.n)
        shifted = weighted_residual(gains, z + stealth) - weighted_residual(gains, z)
        assert np.abs(gains.sigma * shifted).max() <= 1e-9
