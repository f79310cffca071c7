"""Central and noncentral chi-squared laws against sampling, scipy.stats
and high-precision series oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2 as scipy_chi2
from scipy.stats import ncx2 as scipy_ncx2

from gridrisk.chi2 import detection_delta, noncentral_cdf, threshold

from oracles import empirical_cdf, noncentral_cdf_mp

# frozen scipy.chi2.ppf values
FROZEN_THRESHOLDS = [
    (0.05, 41, 56.94238714682408),
    (0.01, 1, 6.6348966010212145),
    (0.10, 60, 74.3970057193686),
]

# frozen scipy.ncx2.cdf values
FROZEN_NONCENTRAL = [
    (56.94238714682408, 41, 25.0, 0.26189390970447257),
    (10.0, 5, 3.0, 0.7172368464311434),
]


@pytest.mark.parametrize("alpha,dof,expected", FROZEN_THRESHOLDS)
def test_threshold_matches_frozen_quantiles(alpha, dof, expected):
    assert threshold(alpha, dof) == pytest.approx(expected, abs=1e-9)


def test_threshold_cdf_round_trip_tight():
    # acceptance tolerance: 1e-10 across dof 1..60 and three alpha levels
    for dof in range(1, 61):
        for alpha in (0.01, 0.05, 0.1):
            tau = threshold(alpha, dof)
            assert abs(scipy_chi2.cdf(tau, dof) - (1.0 - alpha)) <= 1e-10


@pytest.mark.parametrize("x,dof,lam,expected", FROZEN_NONCENTRAL)
def test_noncentral_cdf_matches_frozen_values(x, dof, lam, expected):
    assert noncentral_cdf(x, dof, lam) == pytest.approx(expected, abs=1e-9)


def test_noncentral_cdf_against_scipy_grid():
    for dof in (1, 3, 13, 41, 60):
        for lam in (0.0, 0.3, 2.0, 12.0, 40.0):
            for x in (0.5 * dof, 1.0 * dof + lam, 2.0 * dof + lam):
                ours = noncentral_cdf(x, dof, lam)
                ref = float(scipy_ncx2.cdf(x, dof, lam)) if lam > 0 else float(
                    scipy_chi2.cdf(x, dof)
                )
                assert ours == pytest.approx(ref, abs=1e-9)


def test_noncentral_cdf_against_sampling_oracle():
    # nine (x, dof, lambda) points, each against a million-draw oracle
    rng = np.random.default_rng(20240814)
    n = 1_000_000
    points = [
        (tau_dof_lam[0], tau_dof_lam[1], lam)
        for tau_dof_lam in ((threshold(0.05, 3), 3), (threshold(0.05, 41), 41),
                            (threshold(0.05, 60), 60))
        for lam in (0.5, 5.0, 25.0)
    ]
    assert len(points) == 9
    for x, dof, lam in points:
        samples = rng.noncentral_chisquare(dof, lam, size=n)
        p_hat = empirical_cdf(samples, x)
        se = np.sqrt(p_hat * (1.0 - p_hat) / n)
        assert abs(noncentral_cdf(x, dof, lam) - p_hat) <= 3.0 * se


def test_detection_delta_is_alpha_at_zero_noncentrality():
    for dof in (1, 13, 41):
        for alpha in (0.01, 0.05, 0.1):
            tau = threshold(alpha, dof)
            assert detection_delta(tau, dof, 0.0) == pytest.approx(alpha, abs=1e-10)


def test_detection_delta_monotone_in_noncentrality():
    tau = threshold(0.05, 41)
    lams = np.linspace(0.0, 80.0, 33)
    deltas = [detection_delta(tau, 41, lam) for lam in lams]
    assert all(b > a for a, b in zip(deltas, deltas[1:]))
    assert deltas[0] == pytest.approx(0.05, abs=1e-10)
    assert deltas[-1] < 1.0


def test_domain_errors():
    with pytest.raises(ValueError):
        threshold(0.0, 10)
    with pytest.raises(ValueError):
        threshold(1.0, 10)
    with pytest.raises(ValueError):
        threshold(0.05, 0)
    with pytest.raises(ValueError):
        noncentral_cdf(1.0, 3, -0.5)
    with pytest.raises(ValueError):
        noncentral_cdf(1.0, 3, np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        noncentral_cdf(1.0, 3, float("nan"))
    with pytest.raises(ValueError):
        noncentral_cdf(1.0, 0, 1.0)
    with pytest.raises(ValueError):
        detection_delta(1.0, 3, -1e-300)


def test_noncentral_cdf_against_high_precision_series():
    # relative accuracy holds deep in the lower tail, where risk is
    # (1 - delta) times impact and delta itself is within 1e-13 of one
    tau = threshold(0.05, 41)
    for dof, x in ((41, tau), (3, threshold(0.05, 3)), (60, 30.0)):
        for lam in (1e-12, 0.3, 7.5, 60.0, 160.0):
            ref = noncentral_cdf_mp(x, dof, lam)
            assert noncentral_cdf(x, dof, lam) == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert noncentral_cdf(tau, 41, 162.0) < 1e-12


def test_noncentral_cdf_vectorised():
    lams = np.array([0.0, 0.5, 5.0, 25.0])
    x = threshold(0.05, 13)
    values = noncentral_cdf(x, 13, lams)
    assert isinstance(values, np.ndarray) and values.shape == lams.shape
    for lam, value in zip(lams, values):
        assert value == noncentral_cdf(x, 13, float(lam))
    assert isinstance(noncentral_cdf(x, 13, 0.5), float)
    assert noncentral_cdf(-1.0, 13, 0.5) == 0.0


@given(
    dof=st.integers(min_value=1, max_value=60),
    alpha=st.floats(min_value=0.005, max_value=0.2),
)
@settings(max_examples=40, deadline=None)
def test_threshold_round_trip_property(dof, alpha):
    tau = threshold(alpha, dof)
    assert scipy_chi2.cdf(tau, dof) == pytest.approx(1.0 - alpha, abs=1e-9)


@given(
    dof=st.integers(min_value=1, max_value=50),
    lam=st.floats(min_value=0.0, max_value=60.0),
    x=st.floats(min_value=0.01, max_value=200.0),
)
@settings(max_examples=40, deadline=None)
@example(dof=1, lam=5e-324, x=1.0)  # lam / 2 underflows to zero
def test_noncentral_cdf_bounds_property(dof, lam, x):
    value = noncentral_cdf(x, dof, lam)
    assert 0.0 <= value <= 1.0
    # more noncentrality shifts mass right: CDF can only decrease
    assert noncentral_cdf(x, dof, lam + 5.0) <= value + 1e-12
