"""The detect and risk CSV writers against a field-by-field reference.

The writers fill each curve's rows from one % template and format a
shared mu grid once; tests/oracles.py formats every field with its own
f-string.  The two must agree byte for byte on any curve.
"""

from dataclasses import replace

import numpy as np
import pytest

from gridrisk.risk import RiskCurve, format_detect_csv, format_risk_csv, risk_sweep
from oracles import reference_detect_csv, reference_risk_csv

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
           2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
           1e16, 1e17, 0.1, 1 / 3, 123456789012.5, 999999999999.5, 1e-5, 1e-4]


def _column(rng, n: int) -> np.ndarray:
    """Signed log-uniform doubles from subnormal to huge, some zero."""
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320.0, 300.0, n)
    x[rng.random(n) < 0.1] = 0.0
    return x


def _curve(rng, attack_id: str, mu, k_d: int = 2, runs: int = 0) -> RiskCurve:
    mu = np.asarray(mu, dtype=float)
    n = len(mu)
    return RiskCurve(
        attack_id=attack_id,
        mu=mu,
        k_a=np.where(mu == 0.0, 0, rng.integers(1, 12)),
        k_d=k_d,
        lam=_column(rng, n),
        delta=_column(rng, n),
        impact=_column(rng, n),
        risk=_column(rng, n),
        runs=runs,
        alarms=rng.integers(0, runs + 1, n) if runs else None,
    )


def _grid(rng, n: int) -> np.ndarray:
    """Negative, zero, tiny and huge magnitudes among random ones."""
    return np.concatenate([[-0.4, 0.0, -0.0, 1e-300, 5e-324, 1e300, -1e-7],
                           _column(rng, n)])


IDS = ["combined_1_10", "fdi_%d", "50%_{}", "%s%%", "{0}{x}"]


@pytest.mark.parametrize("alarms", ["all", "none", "mixed"])
@pytest.mark.parametrize("grids", ["shared", "separate"])
def test_writers_match_reference(alarms, grids):
    rng = np.random.default_rng([18, len(alarms), len(grids)])
    shared = _grid(rng, 40)
    curves = []
    for i, attack_id in enumerate(IDS):
        # "separate" mixes same-length grids that differ in one value
        # with equal grids held in distinct arrays
        mu = shared.copy()
        if grids == "separate" and i % 2:
            mu[i] = -mu[i] + 1.0
        runs = {"all": 50, "none": 0, "mixed": 50 * (i % 2)}[alarms]
        curves.append(_curve(rng, attack_id, mu, k_d=i % 3, runs=runs))
    if grids == "separate":
        curves.append(_curve(rng, "short", shared[:5], k_d=0,
                             runs=0 if alarms == "none" else 7))
    assert format_risk_csv(curves) == reference_risk_csv(curves)
    assert format_detect_csv(curves) == reference_detect_csv(curves)


def test_writers_match_reference_on_special_values():
    rng = np.random.default_rng(1)
    mu = np.array(SPECIAL)
    curve = _curve(rng, "special", mu, k_d=0, runs=3)
    curve = replace(curve, lam=mu[::-1].copy(), risk=mu.copy())
    for curves in ([curve], [curve, _curve(rng, "plain", mu)]):
        assert format_risk_csv(curves) == reference_risk_csv(curves)
        assert format_detect_csv(curves) == reference_detect_csv(curves)


def test_writers_on_no_curves():
    assert format_risk_csv([]) == reference_risk_csv([])
    assert format_detect_csv([]) == reference_detect_csv([])


def test_percent_format_matches_fstring():
    rng = np.random.default_rng(2026)
    bits = rng.integers(0, 2**64, size=50_000, dtype=np.uint64).view(np.float64)
    values = [*SPECIAL, *(-v for v in SPECIAL), *bits.tolist(),
              *_column(rng, 50_000).tolist()]
    assert [("%.12g" % v) for v in values] == [f"{v:.12g}" for v in values]


def test_detect_rows_padded_when_only_some_curves_have_runs(ieee14, variants14):
    # an empirical curve and a plain one once gave the plain curve's rows
    # six fields under a nine-field header
    grid = [0.05, 0.1]
    empirical = risk_sweep(ieee14, [("fdi_11", variants14["fdi_11"])], grid,
                           alpha=0.05, runs=20)
    plain = risk_sweep(ieee14, [("combined_1_10", variants14["combined_1_10"])],
                       grid, alpha=0.05)
    lines = format_detect_csv(empirical + plain).splitlines()
    assert lines[0].endswith(",delta_empirical,ci_low,ci_high")
    assert {line.count(",") for line in lines} == {8}
    assert all(line.endswith(",,,") for line in lines[3:])
    assert not any(line.endswith(",") for line in lines[1:3])
