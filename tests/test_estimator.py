"""Weighted least squares gains and their projection identities."""

import numpy as np
import pytest

from gridrisk.estimator import compute_gains, compute_reduced_gains
from gridrisk.network import UnobservableError, load_case, build_model, synthesize_measurements


@pytest.fixture(scope="module")
def varied_sigma_model():
    # heteroscedastic noise exercises the weighting, not just the projection
    doc = {
        "base_mva": 100.0,
        "buses": [{"id": 1, "reference": True}, {"id": 2}, {"id": 3}],
        "lines": [
            {"id": 1, "from": 1, "to": 2, "reactance": 0.4},
            {"id": 2, "from": 2, "to": 3, "reactance": 1.6},
        ],
        "measurements": [
            {"kind": "flow_from", "element": 1, "sigma": 0.01},
            {"kind": "flow_from", "element": 2, "sigma": 0.03},
            {"kind": "flow_to", "element": 1, "sigma": 0.05},
            {"kind": "flow_to", "element": 2, "sigma": 0.02},
            {"kind": "injection", "element": 1, "sigma": 0.04},
            {"kind": "injection", "element": 2, "sigma": 0.02},
            {"kind": "injection", "element": 3, "sigma": 0.01},
        ],
    }
    return build_model(load_case(doc))


def _all_models(chain3, ring4, ieee14, varied):
    return [chain3, ring4, ieee14, varied]


def test_projection_identities(chain3, ring4, ieee14, varied_sigma_model):
    for model in _all_models(chain3, ring4, ieee14, varied_sigma_model):
        g = compute_gains(model)
        assert np.max(np.abs(g.S @ model.H)) <= 1e-9
        assert np.max(np.abs(g.T @ g.T - g.T)) <= 1e-8
        assert np.max(np.abs(g.K @ model.H - np.eye(model.n))) <= 1e-9
        assert np.max(np.abs(g.T + g.S - np.eye(model.m))) <= 1e-9
        assert g.dof == model.m - model.n


def test_gain_matrix_matches_direct_formula(varied_sigma_model):
    model = varied_sigma_model
    r_inv = np.diag(1.0 / model.sigma**2)
    k_ref = np.linalg.solve(model.H.T @ r_inv @ model.H, model.H.T @ r_inv)
    g = compute_gains(model)
    np.testing.assert_allclose(g.K, k_ref, atol=1e-12)


def test_wls_recovers_state_noise_free(ieee14):
    rng = np.random.default_rng(2)
    x = rng.normal(scale=0.2, size=ieee14.n)
    g = compute_gains(ieee14)
    x_hat = g.K @ (ieee14.H @ x)
    np.testing.assert_allclose(x_hat, x, atol=1e-10)


def test_wls_normal_equations_hold(varied_sigma_model):
    model = varied_sigma_model
    g = compute_gains(model)
    snap = synthesize_measurements(model, np.array([0.1, -0.3]), seed=9)
    x_hat = g.K @ snap.z
    gradient = model.H.T @ np.diag(1.0 / model.sigma**2) @ (snap.z - model.H @ x_hat)
    assert np.max(np.abs(gradient)) <= 1e-9


def test_wls_estimate_is_unbiased(chain3):
    g = compute_gains(chain3)
    x_true = np.array([0.05, -0.08])
    draws = np.stack(
        [
            g.K @ synthesize_measurements(chain3, x_true, seed=s).z
            for s in range(2000)
        ]
    )
    se = draws.std(axis=0) / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - x_true) <= 3.0 * se + 1e-12)


def test_stealth_attack_leaves_residual_unchanged(ieee14):
    rng = np.random.default_rng(7)
    g = compute_gains(ieee14)
    snap = synthesize_measurements(ieee14, np.zeros(ieee14.n), seed=13)
    c = rng.normal(size=ieee14.n)
    r_clean = g.S @ snap.z
    r_attacked = g.S @ (snap.z + ieee14.H @ c)
    assert np.max(np.abs(r_attacked - r_clean)) <= 1e-9


def test_reduced_gains_dof_and_mask(ieee14):
    d = np.zeros(ieee14.m)
    d[[4, 17, 50]] = 1.0
    g = compute_reduced_gains(ieee14, d)
    assert g.k_d == 3
    assert g.dof == ieee14.m - ieee14.n - 3
    # masked measurements cannot influence the estimate
    assert np.max(np.abs(g.K[:, [4, 17, 50]])) <= 1e-12
    np.testing.assert_allclose(g.H_d, (1.0 - d)[:, None] * ieee14.H, atol=0.0)


def test_reduced_gains_empty_mask_matches_full(chain3):
    full = compute_gains(chain3)
    red = compute_reduced_gains(chain3, np.zeros(chain3.m))
    assert type(full) is type(red)
    for name in ("d", "H_d", "K", "T", "S", "W", "sigma"):
        assert np.array_equal(getattr(full, name), getattr(red, name)), name
    np.testing.assert_array_equal(full.H_d, chain3.H)
    assert not full.d.any() and full.k_d == red.k_d == 0
    assert (full.dof, full.m, full.n) == (red.dof, red.m, red.n)


def test_reduced_projection_identities_on_masked_rows(ieee14):
    d = np.zeros(ieee14.m)
    d[[9, 14, 28, 29, 34, 43, 44, 45, 46, 48]] = 1.0  # an 11-tuple minus its target
    g = compute_reduced_gains(ieee14, d)
    keep = d == 0.0
    # the reduced hat matrix reproduces kept rows of H exactly
    assert np.max(np.abs((g.S @ g.H_d)[keep])) <= 1e-9
    assert np.max(np.abs(g.K @ g.H_d - np.eye(ieee14.n))) <= 1e-9


def test_unobservable_mask_raises(chain3):
    d = np.ones(chain3.m)
    d[0] = 0.0  # one flow cannot pin two angles
    with pytest.raises(UnobservableError):
        compute_reduced_gains(chain3, d)


def test_mask_validation(chain3):
    with pytest.raises(ValueError):
        compute_reduced_gains(chain3, np.full(chain3.m, 0.5))
    with pytest.raises(ValueError):
        compute_reduced_gains(chain3, np.zeros(3))
