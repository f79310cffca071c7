"""Weighted least squares gains and their projection identities."""

import dataclasses

import numpy as np
import pytest
from oracles import masked_weighted_residual, residual_sensitivity

from gridrisk.estimator import compute_gains, compute_reduced_gains, weighted_residual
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
        # S, as sigma times the weighted residual of each unit vector, and
        # the hat matrix H K
        s = (g.sigma * weighted_residual(g, np.eye(model.m))).T
        hat = model.H @ g.K
        assert np.max(np.abs(s @ model.H)) <= 1e-9
        assert np.max(np.abs(hat @ hat - hat)) <= 1e-8
        assert np.max(np.abs(g.K @ model.H - np.eye(model.n))) <= 1e-9
        assert np.max(np.abs(hat + s - np.eye(model.m))) <= 1e-9
        assert np.max(np.abs(g.Q.T @ g.Q - np.eye(model.n))) <= 1e-9
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
    r_clean = g.sigma * weighted_residual(g, snap.z)
    r_attacked = g.sigma * weighted_residual(g, snap.z + ieee14.H @ c)
    assert np.max(np.abs(r_attacked - r_clean)) <= 1e-9


def test_reduced_gains_dof_and_mask(ieee14):
    d = np.zeros(ieee14.m)
    d[[4, 17, 50]] = 1.0
    g = compute_reduced_gains(ieee14, d)
    assert g.k_d == 3
    assert g.dof == ieee14.m - ieee14.n - 3
    # masked measurements cannot influence the estimate
    assert np.max(np.abs(g.K[:, [4, 17, 50]])) <= 1e-12
    # nor the basis of the residual: its masked rows are exactly zero
    np.testing.assert_array_equal(g.Q[[4, 17, 50]], 0.0)
    assert np.all(np.delete(g.Q, [4, 17, 50], axis=0).any(axis=1))


def test_reduced_gains_empty_mask_matches_full(chain3):
    full = compute_gains(chain3)
    red = compute_reduced_gains(chain3, np.zeros(chain3.m))
    assert type(full) is type(red)
    for name in ("d", "K", "Q", "sigma"):
        assert np.array_equal(getattr(full, name), getattr(red, name)), name
    # no row is withdrawn: every row of the basis is live, and the residual
    # is the oracle's unmasked one
    assert np.all(full.Q.any(axis=1))
    z = np.random.default_rng(4).normal(size=chain3.m)
    np.testing.assert_allclose(chain3.sigma * weighted_residual(full, z),
                               residual_sensitivity(chain3, full.d) @ z, atol=1e-12)
    assert not full.d.any() and full.k_d == red.k_d == 0
    assert (full.dof, full.m, full.n) == (red.dof, red.m, red.n)


def test_reduced_projection_identities_on_masked_rows(ieee14):
    d = np.zeros(ieee14.m)
    d[[9, 14, 28, 29, 34, 43, 44, 45, 46, 48]] = 1.0  # an 11-tuple minus its target
    g = compute_reduced_gains(ieee14, d)
    h_d = (1.0 - d)[:, None] * ieee14.H
    # the reduced hat matrix reproduces kept rows of H exactly; the
    # residual of each column of H_d, sigma * r, is zero on the kept rows
    # and by construction on the withdrawn ones
    assert np.max(np.abs(g.sigma * weighted_residual(g, h_d.T))) <= 1e-9
    assert np.max(np.abs(g.K @ h_d - np.eye(ieee14.n))) <= 1e-9


def test_gains_hold_no_array_above_m_by_n(ieee14):
    d = np.zeros(ieee14.m)
    d[[9, 14, 28]] = 1.0
    for g in (compute_gains(ieee14), compute_reduced_gains(ieee14, d)):
        names = [f.name for f in dataclasses.fields(g)]
        assert names == ["d", "k_d", "K", "Q", "dof", "sigma", "m", "n"]
        arrays = [getattr(g, name) for name in names
                  if isinstance(getattr(g, name), np.ndarray)]
        assert max(a.size for a in arrays) <= ieee14.m * ieee14.n
        assert g.K.shape == (ieee14.n, ieee14.m) and g.Q.shape == (ieee14.m, ieee14.n)


@pytest.mark.parametrize("masked", [False, True])
def test_weighted_residual_matches_oracle(ieee14, varied_sigma_model, masked):
    rng = np.random.default_rng(31)
    for model, rows in ((ieee14, [2, 30, 44]), (varied_sigma_model, [3])):
        d = np.zeros(model.m)
        if masked:
            d[rows] = 1.0
        g = compute_reduced_gains(model, d)
        z = rng.normal(size=(5, model.m)) * model.sigma
        r = weighted_residual(g, z)
        expected = masked_weighted_residual(model, d, z)
        assert r.shape == z.shape
        np.testing.assert_array_equal(r[:, d == 1.0], 0.0)
        single = weighted_residual(g, z[0])
        for got, want in zip([*r, single], [*expected, expected[0]]):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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
