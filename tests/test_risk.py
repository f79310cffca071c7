"""Impact, Monte Carlo detection rates, risk sweeps, and the attack family."""

from types import SimpleNamespace

import numpy as np
import pytest

from gridrisk.attack import perturb_model, scale_attack
from gridrisk.detector import (
    attack_residual, detection_probability, j_test, make_bdd_config,
)
from gridrisk.estimator import compute_gains, compute_reduced_gains, weighted_residual
from gridrisk import detector, risk
from gridrisk.risk import (
    MC_BLOCK,
    _count_alarms,
    default_mu_grid,
    empirical_detection,
    format_risk_csv,
    impact_metric,
    risk_sweep,
    tuple_attack_variants,
)
from gridrisk.security import IndexQuery, combined_index, fdi_index

from conftest import CUT_TUPLE14_9, TUPLE14_9

from oracles import (
    enumeration_alpha,
    full_knowledge_attack,
    mc_alarm_count,
    set_admits_target,
    tuple_variants,
)


@pytest.fixture(scope="module")
def chain_variants(chain3):
    perturbed = perturb_model(chain3, 0.2, seed=21)
    return tuple_attack_variants(perturbed, target_j=1)


@pytest.fixture(scope="module")
def ieee_variants(reported_variants14):
    return reported_variants14[7][1]


def _assert_variants_follow_spec(perturbed, variants, target_j, alpha):
    """Rebuild the variants from the tuple they act on, the target and
    every row combined_1 withdraws, and compare."""
    rows = sorted({target_j, *(np.flatnonzero(variants[0][1].d) + 1).tolist()})
    assert len(rows) == alpha
    assert set_admits_target(perturbed.H, [i - 1 for i in rows], target_j - 1)
    expected = tuple_variants(perturbed, rows, target_j, 0.1)
    assert [i for i, _ in variants] == [i for i, _ in expected]
    for (_, attack), (_, ref) in zip(variants, expected):
        np.testing.assert_array_equal(attack.d, ref.d)
        np.testing.assert_allclose(attack.a, ref.a, rtol=1e-9, atol=1e-13)
        assert attack.mu == pytest.approx(ref.mu, rel=1e-9)
        assert attack.target_j == target_j
    # the FDI variant corrupts every tuple row and nothing else
    np.testing.assert_array_equal(np.flatnonzero(variants[-1][1].a) + 1, rows)


def test_variants_follow_spec_on_reported_tuple(chain3, chain_variants,
                                                reported_variants14):
    alpha3, _ = enumeration_alpha(chain3.H, 0)
    _assert_variants_follow_spec(perturb_model(chain3, 0.2, seed=21),
                                 chain_variants, 1, alpha3)
    for perturbed, variants in reported_variants14.values():
        _assert_variants_follow_spec(perturbed, variants, 9, 11)


@pytest.fixture(scope="module")
def stealth_attack(ieee14):
    res = combined_index(IndexQuery(ieee14.H, 9))
    d = np.zeros(ieee14.m)
    for i in res.support:
        if i != 9:
            d[i - 1] = 1.0
    return full_knowledge_attack(ieee14, res.certificate_c, d, target_j=9)


def test_impact_zero_attack(ieee14, stealth_attack):
    gains = compute_reduced_gains(ieee14, stealth_attack.d)
    nothing = scale_attack(stealth_attack, 0.0)
    assert impact_metric(ieee14, gains, nothing).impact == 0.0


def test_impact_of_stealth_attack_is_certificate_bias(ieee14):
    # K_d H_d c = c, so the expected bias of a = H_d c is exactly H_inj c
    res = combined_index(IndexQuery(ieee14.H, 9))
    d = np.zeros(ieee14.m)
    for i in res.support:
        if i != 9:
            d[i - 1] = 1.0
    atk = full_knowledge_attack(ieee14, res.certificate_c, d, target_j=9)
    gains = compute_reduced_gains(ieee14, d)
    ana = impact_metric(ieee14, gains, atk)
    h_inj = ieee14.H[ieee14.injection_rows()]
    # the withdrawn support rows of a are zero, so the identity needs the
    # certificate restricted to what the reduced estimator can see
    h_d = (1.0 - d)[:, None] * ieee14.H
    expected = h_inj @ (gains.K @ h_d @ res.certificate_c)
    np.testing.assert_allclose(ana.bias, expected, atol=1e-12)
    assert ana.impact == pytest.approx(float(np.linalg.norm(expected)))
    np.testing.assert_array_equal(ana.injection_rows, np.arange(41, 55))


def test_impact_matches_monte_carlo_mean(ieee14, stealth_attack):
    gains = compute_reduced_gains(ieee14, stealth_attack.d)
    ana = impact_metric(ieee14, gains, stealth_attack)
    rng = np.random.default_rng(99)
    n = 10_000
    noise = rng.normal(size=(n, ieee14.m)) * ieee14.sigma
    h_inj = ieee14.H[ieee14.injection_rows()]
    eps = (noise + stealth_attack.a) @ gains.K.T @ h_inj.T
    se = eps.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(eps.mean(axis=0) - ana.bias) <= 3.0 * se + 1e-12)


def test_impact_homogeneity(ieee14, stealth_attack):
    gains = compute_reduced_gains(ieee14, stealth_attack.d)
    base = impact_metric(ieee14, gains, stealth_attack).impact
    for t in (-2.0, 0.5):
        scaled = scale_attack(stealth_attack, t * stealth_attack.mu)
        assert impact_metric(ieee14, gains, scaled).impact == pytest.approx(
            abs(t) * base, rel=1e-9
        )


def test_impact_mask_mismatch_rejected(ieee14, stealth_attack):
    with pytest.raises(ValueError):
        impact_metric(ieee14, compute_gains(ieee14), stealth_attack)
    wrong = np.zeros(ieee14.m)
    wrong[0] = 1.0
    with pytest.raises(ValueError):
        impact_metric(ieee14, compute_reduced_gains(ieee14, wrong), stealth_attack)


def test_empirical_stealth_calibration(ieee14, stealth_attack):
    report = empirical_detection(ieee14, stealth_attack, 0.05, runs=1000, seed=5)
    assert 0.03 <= report.empirical_delta <= 0.07
    assert report.ci_low <= report.empirical_delta <= report.ci_high
    assert report.alarms == round(report.empirical_delta * report.runs)


def test_empirical_no_attack_calibration(ieee14):
    quiet = full_knowledge_attack(ieee14, np.zeros(ieee14.n))
    report = empirical_detection(ieee14, quiet, 0.05, runs=1000, seed=6)
    assert 0.03 <= report.empirical_delta <= 0.07


def test_empirical_tracks_theory_for_fdi(ieee14, ieee_variants):
    attack = dict(ieee_variants)["fdi_11"]
    scaled = scale_attack(attack, 0.25)
    theory = detection_probability(compute_gains(ieee14), scaled.a, 0.05).delta
    report = empirical_detection(ieee14, scaled, 0.05, runs=1000, seed=77)
    assert abs(report.empirical_delta - theory) <= 0.03


def test_empirical_deterministic(ieee14, stealth_attack):
    serial = empirical_detection(ieee14, stealth_attack, 0.05, runs=300, seed=8)
    repeat = empirical_detection(ieee14, stealth_attack, 0.05, runs=300, seed=8)
    assert serial == repeat
    other = empirical_detection(ieee14, stealth_attack, 0.05, runs=300, seed=9)
    assert other.alarms != serial.alarms or other.seed != serial.seed


def _per_run_alarms(model, attack, cfg, runs, seed):
    """Reference: the whole noise matrix in one draw from the point's
    stream, then one j_test per run."""
    gains = (compute_reduced_gains(model, attack.d) if attack.k_d
             else compute_gains(model))
    noise = np.random.default_rng(seed).standard_normal((runs, model.m)) * model.sigma
    return sum(j_test(gains, row + attack.a, cfg).bad for row in noise)


@pytest.fixture(scope="module")
def mc_attacks(ieee14, stealth_attack, ieee_variants):
    fdi = scale_attack(dict(ieee_variants)["fdi_11"], 0.25)
    quiet = full_knowledge_attack(ieee14, np.zeros(ieee14.n))
    return {"stealth": stealth_attack, "fdi": fdi, "none": quiet}


def test_batched_noise_rows_are_the_per_run_draws(ieee14, monkeypatch):
    # blocks drawn in turn from one stream are the rows of one draw.  With
    # no mask and a basis of no columns a run's statistic is its squared
    # norm, so a threshold between each pair of the one draw's sorted row
    # norms counts the rows above it; the five runs go in blocks of three
    # and two
    base = (4, 1, 7)
    rows = np.random.default_rng(base).standard_normal((5, ieee14.m))
    norms = np.sort(np.sum(rows**2, axis=1))
    cuts = np.r_[0.0, (norms[:-1] + norms[1:]) / 2, 2.0 * norms[-1]]
    monkeypatch.setattr(risk, "MC_BLOCK", 3)
    bare = SimpleNamespace(m=ieee14.m, d=np.zeros(ieee14.m), Q=np.zeros((ieee14.m, 0)))
    zero = np.zeros(ieee14.m)
    counts = [_count_alarms(bare, zero, [1.0], base, tau, 5)[0] for tau in cuts]
    assert counts == [5, 4, 3, 2, 1, 0]


@pytest.mark.parametrize("shifted", [False, True])
def test_alarm_counts_equal_per_run_norms(ieee14, monkeypatch, shifted):
    # each scale's count is the runs whose residual, the weighted residual
    # of e diag(sigma) plus s * shift, formed directly, has squared norm
    # above tau; 17 runs go in blocks of 7, 7 and 3, and the scales take
    # either sign, zero and a fraction
    rng = np.random.default_rng(99)
    d = np.zeros(ieee14.m)
    d[[2, 30, 44]] = 1.0
    gains = compute_reduced_gains(ieee14, d)
    a = rng.standard_normal(ieee14.m) * ieee14.sigma / 8
    shift = attack_residual(gains, a) if shifted else np.zeros(ieee14.m)
    scales, tau, seed = [-2.0, 0.0, 0.37, 5.0], 38.0, (5, 2)
    e = np.random.default_rng(seed).standard_normal((17, ieee14.m))
    base = weighted_residual(gains, e * ieee14.sigma)
    expected = [int(np.sum(np.sum((base + s * shift) ** 2, axis=1) > tau))
                for s in scales]
    monkeypatch.setattr(risk, "MC_BLOCK", 7)
    assert _count_alarms(gains, shift, scales, seed, tau, 17) == expected
    # the counts are neither all runs nor none, so tau separates them
    assert 0 < min(expected) and max(expected) < 17


@pytest.mark.parametrize("kind", ["stealth", "fdi", "none"])
def test_batched_alarms_equal_per_run_j_test(ieee14, mc_attacks, kind):
    attack = mc_attacks[kind]
    dof = ieee14.m - ieee14.n - attack.k_d
    cfg = make_bdd_config(0.05, dof)
    report = empirical_detection(ieee14, attack, 0.05, runs=500, seed=11)
    assert report.alarms == _per_run_alarms(ieee14, attack, cfg, 500, 11)


def test_batched_alarms_across_block_boundary(ieee14, mc_attacks):
    attack = mc_attacks["fdi"]
    cfg = make_bdd_config(0.05, ieee14.m - ieee14.n)
    runs = MC_BLOCK + 3
    report = empirical_detection(ieee14, attack, 0.05, runs=runs, seed=12)
    assert report.runs == runs
    assert report.alarms == _per_run_alarms(ieee14, attack, cfg, runs, 12)


@pytest.mark.parametrize("kind", ["stealth", "fdi"])
def test_alarms_do_not_depend_on_block_size(ieee14, mc_attacks, monkeypatch, kind):
    attack = mc_attacks[kind]
    default = empirical_detection(ieee14, attack, 0.05, runs=500, seed=(2, 1, 3))
    monkeypatch.setattr(risk, "MC_BLOCK", 7)
    small = empirical_detection(ieee14, attack, 0.05, runs=500, seed=(2, 1, 3))
    assert small == default


def test_empirical_validation(ieee14, stealth_attack):
    with pytest.raises(ValueError):
        empirical_detection(ieee14, stealth_attack, 0.05, runs=0, seed=1)
    with pytest.raises(ValueError, match="alpha"):
        empirical_detection(ieee14, stealth_attack, 1.5, runs=10, seed=1)
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="runs must be an integer"):
            empirical_detection(ieee14, stealth_attack, 0.05, runs=bad, seed=1)
    assert empirical_detection(ieee14, stealth_attack, 0.05, runs=np.int32(10),
                               seed=1) == empirical_detection(
        ieee14, stealth_attack, 0.05, runs=10, seed=1)


def test_default_mu_grid():
    grid = default_mu_grid()
    assert len(grid) == 200
    assert grid[0] > 0.0 and grid[-1] == pytest.approx(0.5)
    assert np.all(np.diff(grid) > 0)
    np.testing.assert_array_equal(default_mu_grid(0.0, 3), np.zeros(3))
    with pytest.raises(ValueError):
        default_mu_grid(0.5, 0)
    # a fractional count once gave magnitudes past mu_max
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="integer"):
            default_mu_grid(0.5, bad)
    np.testing.assert_array_equal(default_mu_grid(0.5, np.int64(4)), default_mu_grid(0.5, 4))
    # a negative mu_max once gave the mirror image of the positive grid
    with pytest.raises(ValueError, match="mu_max"):
        default_mu_grid(-0.5)


def test_variant_family_shape(chain_variants):
    ids = [vid for vid, _ in chain_variants]
    assert ids == ["combined_1_3", "combined_2_2", "fdi_4"]
    by_id = dict(chain_variants)
    assert (by_id["combined_1_3"].k_a, by_id["combined_1_3"].k_d) == (1, 3)
    assert (by_id["combined_2_2"].k_a, by_id["combined_2_2"].k_d) == (2, 2)
    assert (by_id["fdi_4"].k_a, by_id["fdi_4"].k_d) == (4, 0)
    rows = {
        tuple(sorted(set(np.flatnonzero(a.a)) | set(np.flatnonzero(a.d))))
        for _, a in chain_variants
    }
    assert len(rows) == 1  # one critical tuple for the whole family


def test_risk_sweep_points_consistent(chain3, chain_variants):
    grid = default_mu_grid(0.5, 40)
    curves = risk_sweep(chain3, chain_variants, grid, alpha=0.05)
    assert [c.attack_id for c in curves] == [vid for vid, _ in chain_variants]
    for curve in curves:
        assert np.all(curve.risk >= 0.0)
        assert np.all(curve.risk <= curve.impact + 1e-15)
        np.testing.assert_allclose(curve.risk, (1.0 - curve.delta) * curve.impact,
                                   rtol=0, atol=1e-12)
        # impact is linear in mu for every variant
        np.testing.assert_allclose(curve.impact, curve.impact[-1] * grid / grid[-1],
                                   rtol=1e-9)


def _per_point_reference(model, attack, mu, alpha):
    """The grid point by point: rescale, then noncentrality, delta and
    impact of the rescaled attack."""
    gains = (compute_reduced_gains(model, attack.d) if attack.k_d
             else compute_gains(model))
    scaled = scale_attack(attack, mu)
    det = detection_probability(gains, scaled.a, alpha)
    impact = impact_metric(model, gains, scaled).impact
    return scaled.k_a, scaled.k_d, det.lam, det.delta, impact


@pytest.mark.parametrize("case", ["chain3", "ieee14"])
@pytest.mark.parametrize("mu_max", [0.5, -0.4])
def test_closed_form_sweep_matches_per_point(request, case, mu_max):
    model = request.getfixturevalue(case)
    variants = request.getfixturevalue(
        "chain_variants" if case == "chain3" else "ieee_variants")
    # risk_sweep takes magnitudes of either sign; the default grid does not
    grid = np.r_[0.0, np.sign(mu_max) * default_mu_grid(abs(mu_max), 12)]
    curves = risk_sweep(model, variants, grid, alpha=0.05)
    for curve, (_, attack) in zip(curves, variants):
        for i, mu in enumerate(grid):
            k_a, k_d, lam, delta, impact = _per_point_reference(
                model, attack, float(mu), 0.05)
            assert (curve.k_a[i], curve.k_d) == (k_a, k_d)
            # a stealth variant's noncentrality is roundoff of order 1e-30
            assert curve.lam[i] == pytest.approx(lam, rel=1e-12, abs=1e-20)
            assert curve.delta[i] == pytest.approx(delta, rel=1e-12, abs=0.0)
            assert curve.impact[i] == pytest.approx(impact, rel=1e-12, abs=0.0)
            assert curve.risk[i] == pytest.approx((1.0 - delta) * impact,
                                                  rel=1e-12, abs=1e-15)
        assert curve.k_a[0] == 0 and curve.lam[0] == 0.0 and curve.impact[0] == 0.0


def test_risk_vanishes_with_magnitude(chain3, chain_variants):
    curves = risk_sweep(chain3, chain_variants, [1e-9], alpha=0.05)
    for curve in curves:
        assert curve.impact[0] <= 1e-6
        assert curve.risk[0] <= curve.impact[0]


def test_stealth_variant_constant_delta(chain3, chain_variants):
    grid = default_mu_grid(0.5, 25)
    curves = risk_sweep(chain3, chain_variants, grid, alpha=0.05)
    stealth = curves[0]
    assert stealth.attack_id == "combined_1_3"
    np.testing.assert_allclose(stealth.delta, 0.05, rtol=0, atol=1e-9)
    assert np.all(np.diff(stealth.risk) > 0)


def test_zero_lambda_survives_an_overflowing_scale(ieee14, reported_variants14):
    # (mu/mu0)^2 overflows to inf at 1e200; inf * 0 would be nan, so a
    # variant with lambda0 = 0 must keep lambda 0, and the error must name
    # the variant whose lambda really overflows
    variants = dict(reported_variants14[0][1])
    stealth, caught = variants["combined_1_10"], variants["combined_2_9"]
    grid = [0.1, 1e200]
    (curve,) = risk_sweep(ieee14, [("combined_1_10", stealth)], grid, alpha=0.05)
    assert detection_probability(compute_reduced_gains(ieee14, stealth.d),
                                 stealth.a, 0.05).lam == 0.0
    np.testing.assert_array_equal(curve.lam, [0.0, 0.0])
    np.testing.assert_allclose(curve.delta, 0.05, rtol=0, atol=1e-9)
    assert np.all(np.isfinite(curve.impact))
    with pytest.raises(ValueError, match="combined_2_9"):
        risk_sweep(ieee14, [("combined_1_10", stealth), ("combined_2_9", caught)],
                   grid, alpha=0.05)


def test_mixed_attack_family_rejected(chain3, chain_variants):
    res = combined_index(IndexQuery(chain3.H, 2))
    other = full_knowledge_attack(chain3, res.certificate_c, None, target_j=2)
    with pytest.raises(ValueError, match="mixed-index"):
        risk_sweep(chain3, list(chain_variants) + [("intruder", other)],
                   [0.1], alpha=0.05)
    with pytest.raises(ValueError):
        risk_sweep(chain3, [], [0.1], alpha=0.05)


def test_risk_sweep_empirical_column(chain3, chain_variants):
    curves = risk_sweep(chain3, chain_variants[:1], [0.1, 0.3], alpha=0.05,
                        runs=200, seed=3)
    curve = curves[0]
    assert curve.runs == 200
    assert np.all((0.0 <= curve.delta_empirical) & (curve.delta_empirical <= 1.0))
    _, attack = chain_variants[0]
    # both points are tested on the variant's one stream
    for pi, mu in enumerate((0.1, 0.3)):
        report = empirical_detection(chain3, scale_attack(attack, mu), 0.05,
                                     runs=200, seed=(3, 0))
        assert curve.alarms[pi] == report.alarms
    assert risk_sweep(chain3, chain_variants[:1], [0.1], alpha=0.05)[0].alarms is None
    # a negative count once came back as curves with runs == -5 and no
    # alarms, and 2.5 once failed with a raw TypeError from range()
    for bad in (-5, 2.5, True, "3"):
        with pytest.raises(ValueError, match="runs"):
            risk_sweep(chain3, chain_variants[:1], [0.1], alpha=0.05, runs=bad)
    numpy_runs = risk_sweep(chain3, chain_variants[:1], [0.1, 0.3], alpha=0.05,
                            runs=np.int64(200), seed=3)[0]
    np.testing.assert_array_equal(numpy_runs.alarms, curve.alarms)


def test_lambda0_is_the_monte_carlo_shift_norm(ieee14, monkeypatch):
    # the printed lambda0 and the shift the Monte Carlo adds are one
    # vector: lambda0 is its squared norm bit for bit, on every variant of
    # four ieee14 targets over attacker seeds 0-12
    seen = []

    def record(gains, a, alpha):
        det = detection_probability(gains, a, alpha)
        seen.append(("lam", det.lam))
        return det

    def count(gains, shift, *args):
        seen.append(("shift", float(shift @ shift)))
        return [0] * len(args[0])

    monkeypatch.setattr(risk, "detection_probability", record)
    monkeypatch.setattr(risk, "_count_alarms", count)
    pairs = 0
    for target in (1, 9, 20, 41):
        for seed in range(13):
            variants = tuple_attack_variants(perturb_model(ieee14, 0.2, seed), target)
            seen.clear()
            risk_sweep(ieee14, variants, [0.1], alpha=0.05, runs=1, seed=seed)
            assert [kind for kind, _ in seen] == ["lam", "shift"] * len(variants)
            for (_, lam), (_, norm) in zip(seen[::2], seen[1::2]):
                assert lam == norm, (target, seed, lam, norm)
                pairs += 1
    assert pairs == 156


def test_sweep_forms_each_residual_once(ieee14, family14, monkeypatch):
    # with runs > 0 a variant's residual is formed once, by its
    # detection_probability, and that same array is the Monte Carlo shift
    formed, shifts = [], []

    def spy(gains, a):
        formed.append(attack_residual(gains, a))
        return formed[-1]

    def count(gains, shift, *args):
        shifts.append(shift)
        return _count_alarms(gains, shift, *args)

    # every module that binds the name, so a second call anywhere is seen
    for mod in (detector, risk):
        if hasattr(mod, "attack_residual"):
            monkeypatch.setattr(mod, "attack_residual", spy)
    monkeypatch.setattr(risk, "_count_alarms", count)
    risk_sweep(ieee14, family14, [0.1, 0.3], alpha=0.05, runs=5, seed=0)
    assert len(formed) == len(shifts) == len(family14)
    assert all(shift is r for shift, r in zip(shifts, formed))


GRID_WITH_ZERO = [0.0, 0.1, 0.25, 0.5]
# zero and 34 magnitudes up to 0.5
LONG_GRID = np.r_[0.0, default_mu_grid(0.5, 34)].tolist()


@pytest.fixture(scope="module")
def family14(variants14):
    return [(vid, variants14[vid]) for vid in ("combined_1_10", "combined_2_9", "fdi_11")]


def test_sweep_alarms_equal_oracle(ieee14, family14):
    # full gains (fdi_11) and reduced gains (combined_1_10, combined_2_9),
    # on a short grid and a long one; every point of a variant is tested
    # on the runs of the variant's one stream
    for grid in (GRID_WITH_ZERO, LONG_GRID):
        curves = risk_sweep(ieee14, family14, grid, alpha=0.05, runs=1000, seed=21)
        for ai, (curve, (_, attack)) in enumerate(zip(curves, family14)):
            expected = [mc_alarm_count(ieee14, scale_attack(attack, mu), 0.05, 1000,
                                       (21, ai))
                        for mu in grid]
            assert curve.alarms.tolist() == expected


def test_sweep_alarms_equal_empirical_detection(ieee14, family14):
    # each point's count is empirical_detection's for the rescaled attack
    # on the variant's stream (seed, variant index)
    curves = risk_sweep(ieee14, family14, LONG_GRID, alpha=0.05, runs=500, seed=24)
    for ai, (curve, (_, attack)) in enumerate(zip(curves, family14)):
        expected = [empirical_detection(ieee14, scale_attack(attack, mu), 0.05,
                                        runs=500, seed=(24, ai)).alarms
                    for mu in LONG_GRID]
        assert curve.alarms.tolist() == expected
    # common runs: the exactly stealthy variant shifts no run's statistic
    # past tau, so its count is the same at every magnitude
    stealth = curves[0]
    assert stealth.attack_id == "combined_1_10"
    assert len(set(stealth.alarms.tolist())) == 1


def _long_grid_alarms(model, family) -> list:
    curves = risk_sweep(model, family, LONG_GRID, alpha=0.05, runs=200, seed=23)
    return [c.alarms.tolist() for c in curves]


def test_sweep_alarms_do_not_depend_on_block_size(ieee14, family14, monkeypatch):
    # every point sums its counts over the blocks of the one stream
    default = _long_grid_alarms(ieee14, family14)
    monkeypatch.setattr(risk, "MC_BLOCK", 7)
    assert _long_grid_alarms(ieee14, family14) == default


def test_sweep_alarms_equal_oracle_across_block_boundary(ieee14, family14):
    runs = MC_BLOCK + 3
    curves = risk_sweep(ieee14, family14, [0.25], alpha=0.05, runs=runs, seed=22)
    for ai, (curve, (_, attack)) in enumerate(zip(curves, family14)):
        expected = mc_alarm_count(ieee14, scale_attack(attack, 0.25), 0.05, runs,
                                  (22, ai))
        assert curve.runs == runs
        assert curve.alarms.tolist() == [expected]


def test_risk_csv_format(chain3, chain_variants):
    curves = risk_sweep(chain3, chain_variants, [0.1, 0.2], alpha=0.05)
    text = format_risk_csv(curves)
    lines = text.splitlines()
    assert lines[0] == (
        "attack_id,mu,k_a,k_d,lambda,delta_theory,delta_empirical,impact,risk"
    )
    assert len(lines) == 1 + 2 * len(chain_variants)
    # no empirical runs requested: the column stays empty
    assert lines[1].split(",")[6] == ""
    assert text.endswith("\n") and "\r" not in text


def test_reported_tuple_does_not_depend_on_attacker_seed(ieee14, reported_variants14):
    # every attacker model shares the plan, and the minimum cut reads
    # only the plan
    for seed, (perturbed, variants) in reported_variants14.items():
        support = tuple(np.flatnonzero(dict(variants)["fdi_11"].a) + 1)
        assert support == CUT_TUPLE14_9, seed
        assert fdi_index(IndexQuery(perturbed.H, 9)).objective == len(support), seed
    # a bare matrix still takes the MILP, and its tie choice
    assert fdi_index(IndexQuery(ieee14.H, 9)).support == TUPLE14_9
