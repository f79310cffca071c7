"""Weighted least-squares state estimation and its sensitivity matrices.

Provides the gain matrix K = (H^T R^-1 H)^-1 H^T R^-1, the hat matrix
T = H K, and the residual sensitivity S = I - T for the measurement set
an availability mask d leaves: withdrawn rows are zeroed, and the full
measurement set is the empty mask, so one Gains type serves both.  Each
set of gains also carries the weighted residual operator
W = (R^-1/2 S)[kept rows]^T, so that z @ W is the weighted residual of z
over the rows the detector still sees: R^-1/2 and the withdrawal mask
live in W, not in the callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .network import GridModel, UnobservableError

# A reduced measurement set is declared unobservable when the smallest
# Cholesky pivot of the normal matrix falls below this fraction of the
# largest pivot.
PIVOT_RTOL = 1e-10


def _normal_factor(h: np.ndarray, r_inv_diag: np.ndarray):
    """Cholesky factor of H^T R^-1 H, with an explicit pivot-ratio check.

    Returns the lower-triangular factor; raises UnobservableError when the
    normal matrix is singular or numerically rank-deficient.
    """
    g = h.T @ (r_inv_diag[:, None] * h)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise UnobservableError(
            "normal matrix is not positive definite; measurement set "
            "cannot determine the state"
        ) from exc
    pivots = np.diag(chol) ** 2
    if pivots.min() < PIVOT_RTOL * pivots.max():
        raise UnobservableError(
            f"normal-matrix pivot ratio {pivots.min() / pivots.max():.3e} "
            f"below {PIVOT_RTOL:.0e}; measurement set is numerically unobservable"
        )
    return chol


@dataclass(frozen=True)
class Gains:
    """Gains for a model whose availability-attacked rows are zeroed.

    d is the 0/1 mask of removed rows (all zero for the full measurement
    set); H_d = (I - diag(d)) H keeps the original row count so
    measurement indices stay aligned.  W, shape (m, m - k_d), is the
    weighted residual operator (S[keep] / sigma[keep])^T over the kept
    rows; the withdrawn rows of W are zero, because K_d, and with it
    S[keep], has zero columns there.
    """

    d: np.ndarray
    k_d: int
    H_d: np.ndarray
    K: np.ndarray
    T: np.ndarray
    S: np.ndarray
    W: np.ndarray
    dof: int
    sigma: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        for arr in (self.d, self.H_d, self.K, self.T, self.S, self.W, self.sigma):
            arr.setflags(write=False)


def compute_gains(model: GridModel) -> Gains:
    """Gains of the full measurement set: the empty availability mask."""
    return compute_reduced_gains(model, np.zeros(model.m))


def compute_reduced_gains(model: GridModel, d) -> Gains:
    """Gains after masking the rows flagged in d (0/1 vector of length m)."""
    d = np.asarray(d, dtype=float)
    if d.shape != (model.m,):
        raise ValueError(f"d must have shape ({model.m},)")
    if not np.all((d == 0.0) | (d == 1.0)):
        raise ValueError("d must be a 0/1 mask")
    k_d = int(d.sum())
    h_d = (1.0 - d)[:, None] * model.H
    r_inv = 1.0 / model.sigma**2
    chol = _normal_factor(h_d, r_inv)
    # K = G^-1 H^T R^-1 via two triangular solves; no explicit inverse.
    k = scipy.linalg.cho_solve((chol, True), h_d.T * r_inv[None, :])
    t = h_d @ k
    s = np.eye(model.m) - t
    keep = d == 0.0
    w = (s[keep] / model.sigma[keep, None]).T
    return Gains(
        d=d, k_d=k_d, H_d=h_d, K=k, T=t, S=s, W=w,
        dof=model.m - model.n - k_d, sigma=model.sigma.copy(),
        m=model.m, n=model.n,
    )


def solve_wls(gains, z) -> np.ndarray:
    """Weighted least-squares state estimate x_hat = K z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (gains.m,):
        raise ValueError(f"z must have shape ({gains.m},)")
    return gains.K @ z


def residual(gains, z) -> np.ndarray:
    """Measurement residual r = z - H x_hat = S z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (gains.m,):
        raise ValueError(f"z must have shape ({gains.m},)")
    return gains.S @ z
