"""Statistical checks of the Monte Carlo noise streams against chi-squared
theory: Wilson coverage over many seeds and KS tests on the statistics.

scipy.stats is the independent reference here; the package itself uses
scipy.special only.
"""

import numpy as np
import pytest
from scipy import stats

from gridrisk.attack import scale_attack
from gridrisk.detector import residual_statistic
from gridrisk.estimator import compute_gains
from gridrisk.risk import empirical_detection

from oracles import full_knowledge_attack, masked_weighted_residual

ALPHA = 0.05
SEEDS = 400
RUNS = 1000
# tail probability on each side of the binomial coverage band
BAND_TAIL = 1e-4
KS_DRAWS = 20_000
KS_MIN_P = 1e-3


@pytest.fixture(scope="module")
def fdi_point(ieee14, variants14):
    """The fdi_11 variant (on conftest's named seed-7 tuple) at mu = 0.5,
    its full gains and its noncentrality, computed here from the oracle's
    normal-equations residual."""
    attack = scale_attack(variants14["fdi_11"], 0.5)
    gains = compute_gains(ieee14)
    r = masked_weighted_residual(ieee14, gains.d, attack.a)
    return attack, gains, float(r @ r)


def _coverage(model, attack, delta, tag):
    """Seeds whose 95% interval covers delta, and total alarms."""
    covered = alarms = 0
    for s in range(SEEDS):
        rep = empirical_detection(model, attack, ALPHA, RUNS, seed=(s, tag, 0))
        covered += rep.ci_low <= delta <= rep.ci_high
        alarms += rep.alarms
    return covered, alarms


def _assert_calibrated(covered, alarms, delta):
    low = stats.binom.ppf(BAND_TAIL, SEEDS, 0.95)
    high = stats.binom.isf(BAND_TAIL, SEEDS, 0.95)
    assert low <= covered <= high, (covered, low, high)
    # every run of every seed pooled: the rate itself is unbiased
    n = SEEDS * RUNS
    assert abs(alarms - n * delta) <= 5.0 * np.sqrt(n * delta * (1.0 - delta))


def test_wilson_coverage_on_stealth_variant(ieee14, variants14):
    attack = variants14["combined_1_10"]
    covered, alarms = _coverage(ieee14, attack, ALPHA, tag=0)
    _assert_calibrated(covered, alarms, ALPHA)


def test_wilson_coverage_on_fdi_point(ieee14, fdi_point):
    attack, gains, lam = fdi_point
    tau = stats.chi2.isf(ALPHA, gains.dof)
    delta = float(stats.ncx2.sf(tau, gains.dof, lam))
    assert 0.2 < delta < 0.8  # a point where the rate is informative
    covered, alarms = _coverage(ieee14, attack, delta, tag=2)
    _assert_calibrated(covered, alarms, delta)


def _batched_statistics(model, gains, a, seed):
    """Residual statistics of KS_DRAWS runs, drawn in uneven blocks from
    one stream as empirical_detection draws them, then scaled by sigma."""
    rng = np.random.default_rng(seed)
    z = np.empty((KS_DRAWS, model.m))
    for block in np.array_split(z, 7):
        rng.standard_normal(out=block)
    z *= model.sigma
    return residual_statistic(gains, z + a)


def test_no_attack_statistics_are_chi_squared(ieee14):
    gains = compute_gains(ieee14)
    quiet = full_knowledge_attack(ieee14, np.zeros(ieee14.n))
    t = _batched_statistics(ieee14, gains, quiet.a, seed=(101, 0, 0))
    assert stats.kstest(t, stats.chi2(gains.dof).cdf).pvalue > KS_MIN_P


def test_fdi_statistics_are_noncentral_chi_squared(ieee14, fdi_point):
    attack, gains, lam = fdi_point
    t = _batched_statistics(ieee14, gains, attack.a, seed=(202, 2, 0))
    assert stats.kstest(t, stats.ncx2(gains.dof, lam).cdf).pvalue > KS_MIN_P
    # the central law is rejected, so the test can tell the two apart
    assert stats.kstest(t, stats.chi2(gains.dof).cdf).pvalue < KS_MIN_P
