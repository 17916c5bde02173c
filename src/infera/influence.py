"""Influence matrices and the resulting inference bounds.

The influence of coordinate j on coordinate i is half the log of the
worst ratio a single conditional probability of x_i can take across two
contexts differing only at j.  Singleton value sets suffice: a ratio of
sums never beats its largest term.  Contexts of zero probability are
excluded; if the conditional support of x_i changes across an admissible
adjacent pair, the entry is unbounded (math.inf).

Each site i gets one table log Pr(x_i | context) over the cell tensor,
read as nan in a context of zero mass and -inf for a value off the
conditional support.  An entry is half the largest |difference| between
two faces of that table along j's axis, nan skipped: nan marks an
inadmissible context or a value off the support on both faces, and an
infinite difference is exactly a support change.

When the matrix G has spectral norm below one, the inference parameter
of coordinate i under budget eps obeys nu_i <= 2 * ((I - G)^-1 eps)_i,
and under the row-dominance condition G eps <= (1 - delta) eps also
nu_i <= 2 eps_i / delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dist import JointDistribution, cell_tensor
from .errors import (
    DegenerateDistribution,
    NoConvergence,
    SpectralNormTooLarge,
    UnboundedInfluence,
)
from .mechanism import PrivacyBudget


@dataclass(frozen=True)
class InfluenceMatrix:
    gamma: np.ndarray

    def __post_init__(self):
        self.gamma.setflags(write=False)

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    @property
    def unbounded(self) -> bool:
        return bool(np.any(np.isinf(self.gamma)))


@dataclass(frozen=True)
class DobrushinBound:
    phi: np.ndarray
    spectral: float
    nu_bound: np.ndarray
    delta: float
    nu_delta_bound: Optional[np.ndarray]


def influence_matrix(dist: JointDistribution) -> InfluenceMatrix:
    """Pairwise multiplicative influences under the prior."""
    n, alph = dist.n, dist.alphabet_size
    if n < 1:
        raise DegenerateDistribution("empty distribution")
    gamma = np.zeros((n, n))
    shaped = cell_tensor(dist.probs, n, alph)
    # The cell tensor's own layout, so face arithmetic runs over contiguous runs.
    diff = np.empty((alph,) * (n - 1), order="F")
    with np.errstate(invalid="ignore", divide="ignore"):
        log_p = np.log(shaped)
        for i in range(n):
            # Axis i of the log-conditional table holds x_i's value.
            lc = log_p - np.log(shaped.sum(axis=i, keepdims=True))
            for j in range(n):
                if j == i:
                    continue
                worst = 0.0
                for u in range(alph):
                    for v in range(u + 1, alph):
                        # Faces x_j = u and x_j = v, views along axis j.
                        np.subtract(lc[(slice(None),) * j + (u,)],
                                    lc[(slice(None),) * j + (v,)], out=diff)
                        worst = np.fmax.reduce(np.abs(diff, out=diff), axis=None, initial=worst)
                gamma[i, j] = 0.5 * worst
    return InfluenceMatrix(gamma=gamma)


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value; raises UnboundedInfluence on infinite entries."""
    m = np.asarray(matrix, dtype=np.float64)
    if np.any(np.isinf(m)):
        raise UnboundedInfluence("matrix has unbounded entries")
    return float(np.linalg.norm(m, 2))


def dobrushin_bounds(matrix: InfluenceMatrix, budget: PrivacyBudget) -> DobrushinBound:
    """Inference bounds from the influence matrix; needs spectral norm < 1."""
    gamma = matrix.gamma
    if matrix.unbounded:
        raise UnboundedInfluence("influence matrix has unbounded entries")
    if budget.n != matrix.n:
        raise DegenerateDistribution("budget length differs from matrix size")
    s = spectral_norm(gamma)
    if s >= 1.0:
        raise SpectralNormTooLarge(f"spectral norm {s} >= 1")
    eye = np.eye(matrix.n)
    phi = np.linalg.solve(eye - gamma, eye)
    residual = float(np.max(np.abs((eye - gamma) @ phi - eye)))
    if residual > 1e-9:
        raise NoConvergence(f"linear solve residual {residual}")
    eps = budget.eps
    nu_bound = 2.0 * phi @ eps
    positive = eps > 0.0
    if np.any(positive):
        pressure = (gamma @ eps)[positive] / eps[positive]
        delta = 1.0 - float(pressure.max())
    else:
        delta = 1.0
    nu_delta_bound = 2.0 * eps / delta if delta > 0.0 else None
    return DobrushinBound(
        phi=phi,
        spectral=s,
        nu_bound=nu_bound,
        delta=delta,
        nu_delta_bound=nu_delta_bound,
    )


def product_ratio_bound(a: float, b: float) -> float:
    """Correlation cap for positive variables with bounded log-spread.

    If sup A / inf A <= e^{2a} and sup B / inf B <= e^{2b} then
    E[AB] / (E[A] E[B]) is at most
    1 + (e^{2a} - 1)(e^{2b} - 1) / (e^a + e^b)^2, itself at most e^{ab}.
    """
    return 1.0 + (math.expm1(2 * a) * math.expm1(2 * b)) / (math.exp(a) + math.exp(b)) ** 2
