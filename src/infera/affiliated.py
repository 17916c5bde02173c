"""Closed-form inference parameter for positively affiliated priors.

For a log-supermodular binary prior the worst mechanism is maximally
biased toward one of the target's values, so the linear program collapses
to two conditional means.  Writing m_z(x) = exp(-sum_i eps_i [x_i != z])
for the maximally z-biased profile, the branch for value z is

    nu_z = | ln E[m_z | x_a = z] - ln E[m_z | x_a = 1 - z] |

and the parameter is max(nu_0, nu_1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    JointDistribution,
    check_coordinate,
    conditional_means,
    digit_table,
    from_dense,
    is_positively_affiliated,
)
from .errors import InsufficientSupport, NotAffiliated, UndefinedRatio, UnsupportedAlphabet
from .mechanism import PrivacyBudget, max_biased_values


@dataclass(frozen=True)
class ClosedFormResult:
    nu: float
    winning_z: int
    numerator: float
    denominator: float
    branch_values: tuple


def _branch(dist: JointDistribution, budget: PrivacyBudget, a: int, z: int):
    """Numerator and denominator of the z branch, before the log:
    E[m_z | x_a = z] and E[m_z | x_a = 1 - z].

    Both are positive in exact arithmetic; raises UndefinedRatio when the
    budget is large enough that one underflows to 0.
    """
    masses, means = conditional_means(dist, max_biased_values(dist.n, budget, z), a)
    for v in (z, 1 - z):
        if masses[v] == 0.0:
            raise InsufficientSupport(f"Pr(x_{a} = {v}) = 0")
    num, den = means[z], means[1 - z]
    if num == 0.0 or den == 0.0:
        raise UndefinedRatio(
            f"the {z}-biased branch at x_{a} has conditional means {num} / {den}; "
            "one underflowed to 0, the budget is too large for the closed form"
        )
    return num, den


def nu_closed_form(
    dist: JointDistribution,
    budget: PrivacyBudget,
    a: int,
) -> ClosedFormResult:
    """Evaluate both branches and return the larger one.

    Raises NotAffiliated (with a witness pair) when the prior fails the
    affiliation check: off that family the biased-profile value
    (`nu_of_max_biased`) can understate the leakage.  Ties report z = 0.
    """
    if dist.alphabet_size != 2:
        raise UnsupportedAlphabet("closed form requires binary coordinates")
    check_coordinate(dist.n, a)
    affiliated, witness = is_positively_affiliated(dist)
    if not affiliated:
        raise NotAffiliated(
            f"prior is not positively affiliated; witness {witness}",
            witness=witness,
        )
    branches = []
    for z in (0, 1):
        num, den = _branch(dist, budget, a, z)
        branches.append((abs(math.log(num) - math.log(den)), num, den))
    values = (branches[0][0], branches[1][0])
    winning_z = 0 if branches[0][0] >= branches[1][0] else 1
    nu, num, den = branches[winning_z]
    return ClosedFormResult(
        nu=nu,
        winning_z=winning_z,
        numerator=num,
        denominator=den,
        branch_values=values,
    )


def nu_of_max_biased(
    dist: JointDistribution, budget: PrivacyBudget, a: int, z: int
) -> float:
    """Signed log ratio Pr(event | x_a = z) / Pr(event | x_a = 1 - z)
    for the event of the maximally z-biased mechanism."""
    if dist.alphabet_size != 2:
        raise UnsupportedAlphabet("biased profiles require binary coordinates")
    num, den = _branch(dist, budget, a, z)
    return math.log(num) - math.log(den)


def random_affiliated(
    n: int, rng: np.random.Generator, field_scale: float = 1.0, coupling_scale: float = 0.6
) -> JointDistribution:
    """Random positively affiliated prior.

    Weights follow log w(x) = sum_i theta_i x_i + sum_{i<j} J_ij x_i x_j
    with J_ij >= 0; nonnegative pairwise couplings make log w
    supermodular, hence the prior affiliated, for any fields theta.
    """
    theta = rng.normal(0.0, field_scale, size=n)
    coupling = rng.uniform(0.0, coupling_scale, size=(n, n))
    digits = digit_table(n, 2).astype(np.float64)
    log_w = digits @ theta
    for i in range(n):
        for j in range(i + 1, n):
            log_w += coupling[i, j] * digits[:, i] * digits[:, j]
    return from_dense(n, 2, np.exp(log_w - log_w.max()))
