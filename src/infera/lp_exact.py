"""Exact inference parameter via linear programming.

For a direction (z0, z1) of the target coordinate, the worst event
profile solves

    maximize    sum_y pi^{z1}(y) m(z1 at a, y)
    subject to  sum_y pi^{z0}(y) m(z0 at a, y) = 1
                m(x) <= e^{eps_i} m(x')   for every i and x ~_i x'
                m >= 0.

Likelihood ratios are scale invariant, so pinning the denominator to one
loses nothing.  The inference parameter is the log of the best optimum
over both orderings of the target's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .dist import JointDistribution, conditional_slice, fix_coordinate
from .errors import DegenerateDistribution, DimensionMismatch, LPError, SizeCap
from .mechanism import EventProfile, PrivacyBudget, dp_audit, mechanism_nu
from .simplex import STATUS_OPTIMAL, SimplexResult, simplex_solve

DEFAULT_LP_CAP = 12

_WITNESS_TOL = 1e-7


@dataclass(frozen=True)
class LinearProgram:
    """One direction's LP in the standard form simplex_solve expects."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    e_eq: np.ndarray
    f_eq: float
    direction: Tuple[int, int]


@dataclass(frozen=True)
class NuCertificate:
    """Exact inference parameter with its optimizing event profile."""

    nu: float
    direction: Tuple[int, int]
    witness: EventProfile
    lp_objective: float
    per_direction: Dict[Tuple[int, int], float] = field(default_factory=dict)


def build_lp(
    dist: JointDistribution,
    budget: PrivacyBudget,
    a: int,
    direction: Tuple[int, int],
) -> LinearProgram:
    """Assemble the direction's LP over the full profile space.

    Works for any alphabet: adjacency means differing in one coordinate,
    whatever the two values are, and each adjacent unordered pair yields
    the two ratio inequalities for its coordinate's budget.
    """
    n, alph = dist.n, dist.alphabet_size
    if budget.n != n:
        raise DimensionMismatch(f"budget length {budget.n} != n={n}")
    z0, z1 = direction
    size = alph**n
    # cells[k] = k; fixing x_i = u lists the cells with that digit in
    # increasing order, aligned with the slices conditional_slice returns.
    cells = np.arange(size)

    c = np.zeros(size)
    e = np.zeros(size)
    c[fix_coordinate(cells, n, alph, a, z1)] = conditional_slice(dist, a, z1).dist.probs
    e[fix_coordinate(cells, n, alph, a, z0)] = conditional_slice(dist, a, z0).dist.probs

    rows = []
    for i in range(n):
        try:
            gain = math.exp(budget.eps[i])
        except OverflowError:
            raise LPError(
                f"eps_{i} = {budget.eps[i]} overflows the constraint coefficient e^eps_{i}"
            ) from None
        for u in range(alph):
            base = fix_coordinate(cells, n, alph, i, u)
            for v in range(u + 1, alph):
                other = fix_coordinate(cells, n, alph, i, v)
                for lo, hi in ((base, other), (other, base)):
                    block = np.zeros((base.size, size))
                    block[np.arange(base.size), lo] = 1.0
                    block[np.arange(base.size), hi] = -gain
                    rows.append(block)
    a_ub = np.concatenate(rows, axis=0)
    return LinearProgram(
        c=c,
        a_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        e_eq=e,
        f_eq=1.0,
        direction=direction,
    )


def solve_direction(lp: LinearProgram) -> SimplexResult:
    return simplex_solve(lp.c, lp.a_ub, lp.b_ub, lp.e_eq, lp.f_eq)


def nu_exact(
    dist: JointDistribution,
    budget: PrivacyBudget,
    a: int,
    cap: int = DEFAULT_LP_CAP,
) -> NuCertificate:
    """Exact inference parameter of coordinate a under the budget.

    Solves one LP per ordered pair of supported target values and keeps
    the best.  Ties between directions resolve to the first in value
    order, so for binary targets a tie reports (0, 1).  The witness is
    rescaled to maximum entry one and cross-checked: it must satisfy the
    budget and reproduce the optimum through the mechanism route, both
    within 1e-7.
    """
    if dist.n > cap:
        raise SizeCap(f"n={dist.n} exceeds the LP cap {cap}")
    marg = dist.marginal_of(a)
    supported = [z for z in range(dist.alphabet_size) if marg[z] > 0.0]
    if len(supported) < 2:
        raise DegenerateDistribution(
            f"coordinate {a} is deterministic under the prior"
        )

    best: Optional[Tuple[float, Tuple[int, int], np.ndarray]] = None
    per_direction: Dict[Tuple[int, int], float] = {}
    for z0 in supported:
        for z1 in supported:
            if z0 == z1:
                continue
            lp = build_lp(dist, budget, a, (z0, z1))
            res = solve_direction(lp)
            if res.status != STATUS_OPTIMAL:
                raise LPError(
                    f"direction {(z0, z1)} ended with status {res.status}; "
                    "the constraint system should always have a bounded optimum"
                )
            value = math.log(res.optimum)
            per_direction[(z0, z1)] = value
            if best is None or value > best[0]:
                best = (value, (z0, z1), res.solution)

    nu, direction, solution = best
    peak = float(solution.max())
    if peak <= 0.0 or solution.min() <= 0.0:
        # Every feasible profile is strictly positive: a zero entry would
        # chain through the ratio constraints and kill the normalization.
        raise LPError("LP returned a non-positive profile entry")
    witness = EventProfile(
        n=dist.n, alphabet_size=dist.alphabet_size, values=solution / peak
    )

    audited = dp_audit(witness)
    if np.any(audited.eps > budget.eps + _WITNESS_TOL):
        raise LPError("witness violates the privacy budget beyond tolerance")
    replay = mechanism_nu(dist, witness, a)
    if abs(replay - nu) > _WITNESS_TOL:
        raise LPError(
            f"witness replay {replay} disagrees with LP optimum {nu}"
        )
    return NuCertificate(
        nu=nu,
        direction=direction,
        witness=witness,
        lp_objective=float(math.exp(nu)),
        per_direction=per_direction,
    )
