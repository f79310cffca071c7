"""Weighted least-squares state estimation and its weighted residual.

Provides the gain matrix K = (H^T R^-1 H)^-1 H^T R^-1 for the measurement
set an availability mask d leaves: withdrawn rows are zeroed, and the
full measurement set is the empty mask, so one Gains type serves both.
Each set of gains also carries Q = (R^-1/2 H_d) L^-T, with L the Cholesky
factor of the normal matrix: an orthonormal basis of the weighted
columns of H over the kept rows, zero on the withdrawn ones.  The
weighted residual R^-1/2 S x that the bad-data test sees is then the
projection of x (1 - d) / sigma off Q's columns, which
`weighted_residual` forms: the only place where the mask and the 1/sigma
weighting meet a residual.  Every array is at most m x n.
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
    set), k_d its count.  K, shape (n, m), is the gain matrix of the kept
    rows, with zero columns at the withdrawn ones.  Q, shape (m, n), has
    orthonormal columns spanning R^-1/2 H_d, where H_d = (I - diag(d)) H,
    and zero rows at the withdrawn measurements.
    """

    d: np.ndarray
    k_d: int
    K: np.ndarray
    Q: np.ndarray
    dof: int
    sigma: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        for arr in (self.d, self.K, self.Q, self.sigma):
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
    # Q^T = L^-1 (R^-1/2 H_d)^T, so Q^T Q = L^-1 G L^-T = I
    q = scipy.linalg.solve_triangular(chol, h_d.T / model.sigma, lower=True).T
    return Gains(
        d=d, k_d=k_d, K=k, Q=q,
        dof=model.m - model.n - k_d, sigma=model.sigma.copy(),
        m=model.m, n=model.n,
    )


def weighted_residual(gains: Gains, x) -> np.ndarray:
    """The weighted residual R^-1/2 S x over the kept rows, zero on the
    withdrawn ones: x~ = x (1 - d) / sigma, then x~ - (x~ Q) Q^T.

    x is one measurement vector of shape (m,), or a batch with one vector
    per row, shape (runs, m); the residual has the same shape.
    """
    x = np.asarray(x, dtype=float) * ((1.0 - gains.d) / gains.sigma)
    return x - (x @ gains.Q) @ gains.Q.T
