"""Attack construction and model perturbation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrisk.attack import (
    AttackVector,
    build_limited_knowledge_attack,
    perturb_model,
    scale_attack,
)
from gridrisk.detector import detection_probability
from gridrisk.estimator import compute_gains, compute_reduced_gains
from gridrisk.network import UnobservableError
from gridrisk.security import IndexQuery, combined_index

from oracles import full_knowledge_attack, rank_of


@pytest.fixture(scope="module")
def res9(ieee14):
    return combined_index(IndexQuery(ieee14.H, 9))


@pytest.fixture(scope="module")
def perturbed9(ieee14):
    p = perturb_model(ieee14, 0.2, seed=7)
    return p, combined_index(IndexQuery(p.H, 9))


def _critical_mask(model, res, target_j):
    d = np.zeros(model.m)
    for i in res.support:
        if i != target_j:
            d[i - 1] = 1.0
    return d


def test_vector_normalization():
    a = np.array([0.5, 0.2, 0.0, 1.0])
    d = np.array([0.0, 1.0, 0.0, 0.0])
    atk = AttackVector(a=a, d=d, target_j=4, mu=1.0)
    assert atk.a[1] == 0.0  # withdrawn rows carry no injection
    assert atk.k_a == 2 and atk.k_d == 1
    assert atk.m == 4
    with pytest.raises(ValueError):
        AttackVector(a=a, d=np.array([0.0, 0.5, 0.0, 0.0]), target_j=None, mu=None)
    with pytest.raises(ValueError):
        AttackVector(a=a, d=np.zeros(3), target_j=None, mu=None)
    with pytest.raises(ValueError):
        AttackVector(a=a, d=d, target_j=9, mu=None)


def test_tiny_entries_are_snapped_to_zero():
    a = np.array([1.0, 1e-12, 0.0])
    atk = AttackVector(a=a, d=np.zeros(3), target_j=1, mu=1.0)
    assert atk.k_a == 1
    assert atk.a[1] == 0.0


def test_perturb_bounds_and_determinism(ieee14):
    p = perturb_model(ieee14, 0.2, seed=40)
    ratios = p.line_weights / ieee14.line_weights
    assert np.all(ratios > 0.8) and np.all(ratios < 1.2)
    assert not np.allclose(ratios, 1.0)
    q = perturb_model(ieee14, 0.2, seed=40)
    np.testing.assert_array_equal(p.H, q.H)
    other = perturb_model(ieee14, 0.2, seed=41)
    assert not np.array_equal(p.H, other.H)


def test_perturb_zero_fraction_is_exact(ieee14):
    p = perturb_model(ieee14, 0.0, seed=1)
    np.testing.assert_array_equal(p.H, ieee14.H)


def test_perturb_keeps_stacking_structure(ieee14):
    # H-tilde must come from the same line map over the same incidence,
    # with only the line weights changed
    p = perturb_model(ieee14, 0.3, seed=5)
    assert p.line_map is ieee14.line_map and p.incidence is ieee14.incidence
    flows = p.line_weights[:, None] * ieee14.incidence.T
    np.testing.assert_allclose(p.H, ieee14.line_map @ flows, atol=1e-14)


def test_perturb_fraction_validation(ieee14):
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            perturb_model(ieee14, bad, seed=0)


def test_full_knowledge_attack_is_invisible(ieee14, res9):
    d = _critical_mask(ieee14, res9, 9)
    res = res9
    atk = full_knowledge_attack(ieee14, res.certificate_c, d, target_j=9)
    assert atk.k_a == 1 and atk.k_d == 10
    assert atk.mu == pytest.approx(0.1, rel=1e-9)
    gains = compute_reduced_gains(ieee14, d)
    assert detection_probability(gains, atk.a, 0.05).lam <= 1e-12
    # d withdraws the rest of an 11-row critical tuple through row 9; which
    # of the equally small tuples is reported is the solver's tie choice
    support0 = [i - 1 for i in res.support]
    comp = np.delete(ieee14.H, support0, axis=0)
    assert len(support0) == 11
    assert rank_of(np.vstack([comp, ieee14.H[8]])) == rank_of(comp) + 1
    assert set(np.flatnonzero(atk.d) + 1) == set(res.support) - {9}
    assert list(np.flatnonzero(atk.a) + 1) == [9]


def test_limited_knowledge_single_point_attack_stays_stealthy(ieee14, perturbed9):
    # certificate from the attacker's wrong model still yields a = mu e_j
    # once the rest of the tuple is withdrawn, so the true model sees a
    # consistent measurement set
    p, res = perturbed9
    d = _critical_mask(ieee14, res, 9)
    atk = build_limited_knowledge_attack(p, res.certificate_c, d, target_j=9)
    assert atk.k_a == 1
    gains = compute_reduced_gains(ieee14, d)
    assert detection_probability(gains, atk.a, 0.05).lam <= 1e-10


def test_limited_knowledge_fdi_is_detectable(ieee14, perturbed9):
    p, res = perturbed9
    atk = build_limited_knowledge_attack(p, res.certificate_c, None, target_j=9)
    assert atk.k_a == 11 and atk.k_d == 0
    lam = detection_probability(compute_gains(ieee14), atk.a, 0.05).lam
    assert lam > 1e-4


def test_unobservable_mask_rejected(chain3):
    d = np.ones(chain3.m)
    d[0] = 0.0
    with pytest.raises(UnobservableError):
        build_limited_knowledge_attack(perturb_model(chain3, 0.2, seed=0),
                                       np.zeros(chain3.n), d)


def test_scale_attack(ieee14, res9):
    atk = full_knowledge_attack(ieee14, res9.certificate_c, None, target_j=9)
    doubled = scale_attack(atk, 0.2)
    assert doubled.mu == pytest.approx(0.2)
    np.testing.assert_allclose(doubled.a, 2.0 * atk.a, rtol=1e-12)
    np.testing.assert_array_equal(doubled.d, atk.d)
    lam = detection_probability(compute_gains(ieee14), atk.a, 0.05).lam
    lam2 = detection_probability(compute_gains(ieee14), doubled.a, 0.05).lam
    assert lam2 == pytest.approx(4.0 * lam, abs=1e-18)
    zeroed = scale_attack(atk, 0.0)
    assert zeroed.k_a == 0
    with pytest.raises(ValueError):
        scale_attack(zeroed, 0.1)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    fraction=st.floats(min_value=0.0, max_value=0.95),
)
@settings(max_examples=25, deadline=None)
def test_perturbation_is_always_bounded_and_positive(seed, fraction):
    from gridrisk.network import build_model, load_bundled_case

    model = build_model(load_bundled_case("chain3"))
    p = perturb_model(model, fraction, seed)
    ratios = p.line_weights / model.line_weights
    assert np.all(ratios > 0.0)
    assert np.all(np.abs(ratios - 1.0) <= fraction + 1e-12)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_construction_invariants_random(data):
    m = data.draw(st.integers(min_value=2, max_value=10))
    a = np.array(data.draw(st.lists(
        st.floats(min_value=-2.0, max_value=2.0), min_size=m, max_size=m)))
    d_rows = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1)))
    d = np.zeros(m)
    for i in d_rows:
        d[i] = 1.0
    atk = AttackVector(a=a, d=d, target_j=None, mu=None)
    assert np.all(atk.a[atk.d == 1.0] == 0.0)
    assert atk.k_d == len(d_rows)
    assert atk.k_a <= m - len(d_rows)
