"""Residual chi-squared test and detection-probability analysis."""

import numpy as np
import pytest
from oracles import masked_weighted_residual, residual_sensitivity

from gridrisk.chi2 import threshold
from gridrisk.detector import (
    attack_residual,
    detection_probability,
    j_test,
    make_bdd_config,
    residual_statistic,
)
from gridrisk.estimator import compute_gains, compute_reduced_gains, weighted_residual
from gridrisk.network import UnobservableError, synthesize_measurements


def test_config_carries_matching_threshold(ieee14):
    g = compute_gains(ieee14)
    cfg = make_bdd_config(0.05, g.dof)
    assert cfg.dof == 41
    assert cfg.tau == pytest.approx(threshold(0.05, 41), abs=0.0)


def test_statistic_matches_hand_formula(ieee14):
    g = compute_gains(ieee14)
    cfg = make_bdd_config(0.05, g.dof)
    snap = synthesize_measurements(ieee14, np.zeros(ieee14.n), seed=3)
    out = j_test(g, snap.z, cfg)
    r = residual_sensitivity(ieee14, g.d) @ snap.z
    assert out.statistic == pytest.approx(float(np.sum((r / ieee14.sigma) ** 2)))
    assert out.bad == (out.statistic > cfg.tau)


def test_false_alarm_calibration(ieee14):
    g = compute_gains(ieee14)
    cfg = make_bdd_config(0.05, g.dof)
    alarms = sum(
        j_test(g, synthesize_measurements(ieee14, np.zeros(ieee14.n), seed=s).z, cfg).bad
        for s in range(2000)
    )
    assert 0.03 <= alarms / 2000 <= 0.07


def test_gross_error_is_flagged(ieee14):
    g = compute_gains(ieee14)
    cfg = make_bdd_config(0.05, g.dof)
    snap = synthesize_measurements(ieee14, np.zeros(ieee14.n), seed=4)
    z = snap.z.copy()
    z[7] += 1.0  # fifty sigma on one flow
    assert j_test(g, z, cfg).bad


def test_dof_mismatch_rejected(ieee14):
    g = compute_gains(ieee14)
    with pytest.raises(ValueError):
        j_test(g, np.zeros(ieee14.m), make_bdd_config(0.05, g.dof - 1))


def test_masked_rows_do_not_enter_statistic(ieee14):
    d = np.zeros(ieee14.m)
    d[[2, 30, 44]] = 1.0
    g = compute_reduced_gains(ieee14, d)
    cfg = make_bdd_config(0.05, g.dof)
    snap = synthesize_measurements(ieee14, np.zeros(ieee14.n), seed=8)
    z = snap.z * (1.0 - d)
    garbled = z + d * 1e6
    assert j_test(g, z, cfg).statistic == pytest.approx(
        j_test(g, garbled, cfg).statistic, rel=1e-12
    )


def test_batch_statistic_matches_single_vectors(ieee14):
    d = np.zeros(ieee14.m)
    d[[2, 30, 44]] = 1.0
    for g in (compute_gains(ieee14), compute_reduced_gains(ieee14, d)):
        cfg = make_bdd_config(0.05, g.dof)
        z = np.stack([synthesize_measurements(ieee14, np.zeros(ieee14.n), seed=s).z
                      for s in range(6)])
        batch = residual_statistic(g, z)
        assert batch.shape == (6,)
        single = [j_test(g, row, cfg).statistic for row in z]
        np.testing.assert_allclose(batch, single, rtol=1e-12)
    with pytest.raises(ValueError):
        residual_statistic(g, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        residual_statistic(g, np.zeros((2, 2, ieee14.m)))


def test_noncentrality_zero_in_column_space(ieee14):
    rng = np.random.default_rng(12)
    g = compute_gains(ieee14)
    for _ in range(5):
        a = ieee14.H @ rng.normal(size=ieee14.n)
        assert detection_probability(g, a, 0.05).lam <= 1e-18


def test_noncentrality_snaps_rounding_residue(ieee14):
    # a stealth attack leaves only rounding residue in R^-1/2 S a, which a
    # huge magnitude must not scale into a detection
    rng = np.random.default_rng(12)
    g = compute_gains(ieee14)
    for scale in (1.0, 1e150):
        a = scale * (ieee14.H @ rng.normal(size=ieee14.n))
        assert np.max(np.abs(g.sigma * weighted_residual(g, a))) > 0.0
        ana = detection_probability(g, a, 0.05)
        assert ana.lam == 0.0
        assert ana.delta == pytest.approx(0.05, abs=1e-12)


def test_noncentrality_formula_and_scaling(ieee14):
    rng = np.random.default_rng(13)
    g = compute_gains(ieee14)
    a = rng.normal(size=ieee14.m) * 0.1
    lam = detection_probability(g, a, 0.05).lam
    by_hand = float(np.sum((residual_sensitivity(ieee14, g.d) @ a / ieee14.sigma) ** 2))
    assert lam == pytest.approx(by_hand, rel=1e-12)
    assert detection_probability(g, 2.0 * a, 0.05).lam == pytest.approx(
        4.0 * lam, rel=1e-12)


def test_noncentrality_ignores_withdrawn_rows(ieee14):
    # S's withdrawn rows are unit rows the detector never sees, so an a
    # that is nonzero on one must not raise lambda or delta
    d = np.zeros(ieee14.m)
    d[[4, 17, 30]] = 1.0
    g = compute_reduced_gains(ieee14, d)
    a = np.zeros(ieee14.m)
    a[[4, 9]] = 0.1
    assert detection_probability(g, a, 0.05).lam == pytest.approx(
        float(residual_statistic(g, a)), rel=1e-12)
    kept = a * (1.0 - d)
    assert detection_probability(g, a, 0.05).delta == pytest.approx(
        detection_probability(g, kept, 0.05).delta, rel=1e-12)


def test_detection_probability_reduces_to_alpha(ieee14):
    g = compute_gains(ieee14)
    ana = detection_probability(g, np.zeros(ieee14.m), alpha=0.05)
    assert ana.lam == 0.0
    assert ana.delta == pytest.approx(0.05, abs=1e-10)
    assert ana.tau == pytest.approx(threshold(0.05, g.dof), abs=0.0)


def test_detection_probability_returns_its_residual(ieee14):
    # lambda is the returned residual's squared norm, bit for bit, and the
    # residual is the attack's snapped one, read-only
    rng = np.random.default_rng(16)
    d = np.zeros(ieee14.m)
    d[[4, 17, 30]] = 1.0
    g = compute_reduced_gains(ieee14, d)
    a = rng.normal(size=ieee14.m) * 0.01 * (1.0 - d)
    ana = detection_probability(g, a, 0.05)
    np.testing.assert_array_equal(ana.residual, attack_residual(g, a))
    assert ana.lam == float(ana.residual @ ana.residual)
    assert not ana.residual.flags.writeable
    with pytest.raises(ValueError):
        ana.residual[0] = 1.0


def test_far_tail_attack_is_certainly_detected(ieee14):
    # lambda = 2.4e27 is far past lambda ~ 1e19, where scipy's noncentral
    # CDF is nan; tau lies far below lambda, so delta is 1
    g = compute_gains(ieee14)
    a = np.zeros(ieee14.m)
    a[8] = 1e12
    ana = detection_probability(g, a, 0.05)
    assert ana.lam > 1e27
    assert ana.delta == 1.0


def test_detection_probability_grows_with_magnitude(ieee14):
    rng = np.random.default_rng(14)
    g = compute_gains(ieee14)
    a = rng.normal(size=ieee14.m) * 0.004
    deltas = [detection_probability(g, t * a, 0.05).delta for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a_ for a_, b in zip(deltas, deltas[1:]))


def test_shape_validation(ieee14):
    g = compute_gains(ieee14)
    with pytest.raises(ValueError):
        detection_probability(g, np.zeros(3), 0.05)


def _masked_statistic(model, g, z):
    """The statistic as the masked formula: the oracle's S z, the kept
    rows, divided by sigma, squared and summed."""
    return np.sum(masked_weighted_residual(model, g.d, z) ** 2, axis=-1)


def test_weighted_operator_matches_masked_formula(ieee14):
    d = np.zeros(ieee14.m)
    d[[2, 30, 44]] = 1.0
    rng = np.random.default_rng(15)
    z = np.stack([synthesize_measurements(ieee14, np.zeros(ieee14.n), seed=s).z
                  for s in range(8)])
    for g in (compute_gains(ieee14), compute_reduced_gains(ieee14, d)):
        k_d = g.k_d
        assert g.Q.shape == (ieee14.m, ieee14.n)
        assert not g.Q.flags.writeable
        with pytest.raises(ValueError):
            g.Q[0, 0] = 1.0
        assert float(residual_statistic(g, z[0])) == pytest.approx(
            float(_masked_statistic(ieee14, g, z[0])), rel=1e-12)
        np.testing.assert_allclose(residual_statistic(g, z),
                                   _masked_statistic(ieee14, g, z), rtol=1e-12)
        # attack vectors leave withdrawn rows at zero; there lambda
        # and the oracle's kept-row residual agree
        a = rng.normal(size=ieee14.m) * 0.01 * (1.0 - g.d)
        w_a = masked_weighted_residual(ieee14, g.d, a)
        assert detection_probability(g, a, 0.05).lam == pytest.approx(
            float(w_a @ w_a), rel=1e-12)
    assert k_d == 3


def test_mask_without_redundancy_is_unobservable(two_bus_variant):
    # chi2's bare "dof must be at least 1" is for direct chi2 callers; an
    # attack whose kept rows leave no redundancy has no residual test
    model, attack = two_bus_variant
    gains = compute_reduced_gains(model, attack.d)
    assert gains.dof == 0
    with pytest.raises(UnobservableError, match=r"no redundancy \(dof 0\)"):
        detection_probability(gains, attack.a, 0.05)
