"""Attack construction from the attacker's model of the grid.

A combined attack pairs an additive integrity vector a with a binary
availability mask d.  Under full knowledge a = H_d c is invisible to the
residual test by construction.  A limited-knowledge attacker builds the
same vector from a perturbed matrix H-tilde whose line weights carry
bounded multiplicative errors; against the true model such attacks
generally shift the residual and become detectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import GridModel, UnobservableError, _assemble_matrix, matrix_rank

SNAP_TOL = 1e-9  # relative floor below which attack entries are exact zeros


@dataclass(frozen=True)
class AttackVector:
    """Integrity vector a and availability mask d of one combined attack.

    Entries of a on withdrawn rows are zeroed at construction: corrupting
    a measurement that is also made unavailable is wasted effort and would
    double-count attack resources.
    """

    a: np.ndarray
    d: np.ndarray
    target_j: Optional[int]  # 1-based measurement index, if the attack has one
    mu: Optional[float]

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if a.ndim != 1 or a.shape != d.shape:
            raise ValueError("a and d must be vectors of equal length")
        if not np.all((d == 0.0) | (d == 1.0)):
            raise ValueError("d must be a 0/1 mask")
        a = a.copy()
        a[d == 1.0] = 0.0
        peak = np.max(np.abs(a), initial=0.0)
        if peak > 0.0:
            a[np.abs(a) <= SNAP_TOL * peak] = 0.0
        if self.target_j is not None:
            if not 1 <= self.target_j <= a.shape[0]:
                raise ValueError(f"target_j {self.target_j} outside 1..{a.shape[0]}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        a.setflags(write=False)
        d.setflags(write=False)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def k_a(self) -> int:
        return int(np.count_nonzero(self.a))

    @property
    def k_d(self) -> int:
        return int(self.d.sum())


@dataclass(frozen=True)
class PerturbedModel:
    """Attacker's model: true topology, line weights off by bounded factors.

    H is rebuilt through the same selector/incidence stack as the true
    model, so H - H_true is exactly the structured uncertainty the weight
    errors induce.
    """

    H: np.ndarray
    W: np.ndarray  # perturbed diag(1/reactance)
    fraction: float
    seed: int

    def __post_init__(self):
        self.H.setflags(write=False)
        self.W.setflags(write=False)


def perturb_model(model: GridModel, fraction: float, seed: int) -> PerturbedModel:
    """Structured-uncertainty model: each line weight scaled by a factor
    drawn uniformly from [1-fraction, 1+fraction], deterministically."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    factors = 1.0 + rng.uniform(-fraction, fraction, size=model.n_t)
    w = model.line_weights * factors[None, :]  # diagonal times diagonal
    h = _assemble_matrix(model.selector, model.incidence_full,
                         model.incidence_truncated, w)
    return PerturbedModel(H=h, W=w, fraction=fraction, seed=seed)


def _masked_matrix(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    return (1.0 - d)[:, None] * h


def _build(h: np.ndarray, c, d, target_j) -> AttackVector:
    c = np.asarray(c, dtype=float)
    m, n = h.shape
    if c.shape != (n,):
        raise ValueError(f"certificate must have shape ({n},)")
    if d is None:
        d = np.zeros(m)
    d = np.asarray(d, dtype=float)
    if d.shape != (m,):
        raise ValueError(f"d must have shape ({m},)")
    h_d = _masked_matrix(h, d)
    if matrix_rank(h_d) < n:
        raise UnobservableError("availability mask destroys observability")
    a = h_d @ c
    mu = None
    if target_j is not None:
        mu = float(a[target_j - 1])
    return AttackVector(a=a, d=d, target_j=target_j, mu=mu)


def build_limited_knowledge_attack(perturbed: PerturbedModel, c, d=None,
                                   target_j: Optional[int] = None) -> AttackVector:
    """a = (I - diag(d)) H-tilde c from the perturbed model.

    Against the true model the residual shift is generally nonzero; the
    detector module turns it into a detection probability.
    """
    return _build(perturbed.H, c, d, target_j)


def scale_attack(attack: AttackVector, mu_new: float) -> AttackVector:
    """Rescale the integrity vector to magnitude mu_new at the target.

    d and the support are unchanged; the certificate constraint is
    homogeneous in c, so scaling a is the same as scaling c.
    """
    if attack.mu is None or attack.mu == 0.0:
        raise ValueError("attack has no nonzero magnitude to scale from")
    s = mu_new / attack.mu
    return AttackVector(a=s * attack.a, d=attack.d.copy(),
                        target_j=attack.target_j, mu=float(mu_new))

