"""Ferromagnetic Ising models on complete d-ary trees.

Spins are sigma_i = (-1)^{x_i}, so x = 0 is spin +1.  The prior is
pi(x) proportional to exp(J * sum_edges sigma_i sigma_j + h0 * sum_i sigma_i).
A maximally biased mechanism acts on such a prior exactly like an extra
uniform external field of magnitude eps/2, which turns inference
questions into magnetization questions.

Two backends answer them:

* the closed form's biased branches on the dense prior (small trees);
* the branch-ratio recursion x_{k+1} = y(x_k) with
  y(x) = e^{2h} ((e^J x + e^{-J}) / (e^J + e^{-J} x))^d,
  whose fixed point from x_0 = 1 describes the deep-tree limit.

For an infinite tree of branching d (degree Delta = d + 1) under a
uniform budget eps, the inference parameter of any site is

  nu(eps) = (Delta/(Delta - 1)) * ln x(J, eps/2) - eps/(Delta - 1).

The recursion's fixed point is continuous in h at 0 exactly when
tanh(J) <= 1/d; stronger couplings leave a positive inference floor no
budget can cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .affiliated import nu_of_max_biased
from .dist import DEFAULT_CAP, JointDistribution, digit_table, from_dense
from .errors import DimensionMismatch, NoConvergence, SizeCap, UndefinedRatio
from .mechanism import PrivacyBudget


@dataclass(frozen=True)
class IsingTreeModel:
    """Complete d-ary tree of the given depth, BFS indexed from the root."""

    d: int
    depth: int
    J: float
    h0: float = 0.0

    def __post_init__(self):
        if self.d < 2:
            raise DimensionMismatch("branching factor must be at least 2")
        if self.depth < 0:
            raise DimensionMismatch("depth must be nonnegative")
        if self.J <= 0.0:
            raise DimensionMismatch("coupling must be positive")

    @property
    def n(self) -> int:
        return (self.d ** (self.depth + 1) - 1) // (self.d - 1)

    def edges(self) -> List[Tuple[int, int]]:
        """Parent-child pairs; child of node k are k*d + 1 .. k*d + d."""
        return [(k, k * self.d + c) for k in range(self.n) for c in range(1, self.d + 1)
                if k * self.d + c < self.n]


@dataclass(frozen=True)
class BetheSolution:
    """Fixed point x(J, h) and the bisection steps that located it."""

    x: float
    iterations: int


@dataclass(frozen=True)
class TreeRootRatios:
    """Finite-tree branch iterates and root ratios.

    iterates[k] is the recursion value after k steps from 1, so
    iterates[1] = e^{2h} is the single-node tree and root_ratio (the last
    iterate) equals Z+/Z- = (1 + <sigma_root>)/(1 - <sigma_root>) of the
    complete d-ary tree of the requested depth.  x_star rescales the root
    ratio to a degree-(d+1) root.
    """

    depth: int
    x: float
    root_ratio: float
    x_star: float
    iterates: Tuple[float, ...]


def _branch_step(J: float, h: float, d: int, x: float) -> float:
    ej, emj = math.exp(J), math.exp(-J)
    return math.exp(2.0 * h) * ((ej * x + emj) / (ej + emj * x)) ** d


def ising_tree_distribution(model: IsingTreeModel, cap: int = DEFAULT_CAP) -> JointDistribution:
    """Dense prior over the tree's 2^n spin assignments."""
    n = model.n
    if 2**n > cap:
        raise SizeCap(f"tree with {n} nodes needs 2**{n} entries, cap {cap}")
    digits = digit_table(n, 2)
    edges = model.edges()
    # With sigma = 1 - 2x: sum_i sigma_i = n - 2|x| and
    # sigma_i sigma_j = 1 - 2 (x_i xor x_j).
    disagree = sum(digits[:, i] ^ digits[:, j] for i, j in edges)
    energy = model.h0 * (n - 2.0 * digits.sum(axis=1)) + model.J * (len(edges) - 2.0 * disagree)
    return from_dense(n, 2, np.exp(energy - energy.max()), cap=cap)


def magnetization_exact(
    target: Union[IsingTreeModel, JointDistribution],
    site: int,
    field_offset: float = 0.0,
    cap: int = DEFAULT_CAP,
) -> float:
    """<sigma_site> by full enumeration, under an extra uniform field.

    A model input rebuilds the Gibbs weights at field h0 + field_offset;
    a raw distribution is reweighted by exp(field_offset * sum sigma).
    """
    if isinstance(target, IsingTreeModel):
        model = IsingTreeModel(
            d=target.d, depth=target.depth, J=target.J, h0=target.h0 + field_offset
        )
        dist = ising_tree_distribution(model, cap=cap)
    else:
        dist = target
        if field_offset != 0.0:
            tilt = field_offset * (dist.n - 2.0 * dist.digits().sum(axis=1))
            dist = from_dense(
                dist.n,
                dist.alphabet_size,
                dist.probs * np.exp(tilt - tilt.max()),
                cap=cap,
            )
    marg = dist.marginal_of(site)
    return float(marg[0] - marg[1])


def nu_gibbs(model: IsingTreeModel, eps: float, site: int, cap: int = DEFAULT_CAP) -> float:
    """Inference parameter of one site under a uniform budget, exactly.

    Ferromagnetic tree priors are affiliated, so nu is the larger of the
    closed form's two biased branches on the dense tree prior.  The z = 0
    branch equals ln((1 + m)/(1 - m)) + ln Pr(x_site = 1)/Pr(x_site = 0),
    m the site magnetization under field offset +eps/2.
    """
    if eps <= 0.0:
        raise DimensionMismatch("eps must be positive")
    base = ising_tree_distribution(model, cap=cap)
    budget = PrivacyBudget.uniform(model.n, eps)
    return max(nu_of_max_biased(base, budget, site, z) for z in (0, 1))


def bethe_fixed_point(J: float, h: float, d: int) -> BetheSolution:
    """Fixed point x(J, h) of the branch recursion: the limit of its
    iterates from x = 1, which is 1 at h = 0, in (1, inf) for h > 0 and
    in (0, 1) for h < 0.

    In w = ln x the step is w <- 2h + d phi(w) with
    phi(w) = 2 atanh(tanh J tanh(w/2)), which is concave for w >= 0 and
    below 2J.  For h > 0, g(w) = 2h + d phi(w) - w therefore has
    g(0) = 2h > 0, g(2h + 2dJ) < 0 and exactly one positive root, the
    limit of the iteration from 0.  Bisection on that bracket runs until
    the midpoint stops moving, however slowly the iteration itself would
    settle near the critical coupling; h < 0 follows by symmetry.
    Raises UndefinedRatio when x overflows or underflows a float, which
    happens once |h| exceeds about 355.
    """
    if h == 0.0:
        return BetheSolution(x=1.0, iterations=0)
    t, field = math.tanh(J), abs(h)
    lo, hi = 0.0, 2.0 * field + 2.0 * d * J
    steps = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        steps += 1
        if 2.0 * field + 2.0 * d * math.atanh(t * math.tanh(0.5 * mid)) > mid:
            lo = mid
        else:
            hi = mid
    try:
        x = math.exp(mid if h > 0.0 else -mid)
    except OverflowError:
        x = math.inf
    if not 0.0 < x < math.inf:
        raise UndefinedRatio(f"branch ratio x(J={J}, h={h}) lies outside the float range")
    return BetheSolution(x=x, iterations=steps)


def tree_root_ratios(J: float, h: float, d: int, depth: int) -> TreeRootRatios:
    """Exact root ratios of the finite complete d-ary tree via recursion."""
    if depth < 0:
        raise DimensionMismatch("depth must be nonnegative")
    iterates = [1.0]
    for _ in range(depth + 1):
        iterates.append(_branch_step(J, h, d, iterates[-1]))
    root_ratio = iterates[-1]
    x_star = math.exp(-2.0 * h / d) * root_ratio ** ((d + 1) / d)
    return TreeRootRatios(
        depth=depth,
        x=iterates[depth],
        root_ratio=root_ratio,
        x_star=x_star,
        iterates=tuple(iterates),
    )


def nu_bethe_limit(J: float, eps: float, d: int) -> float:
    """Deep-tree inference parameter under a uniform budget.

    Applies the degree-(Delta) root formula with Delta = d + 1 to the
    fixed point at field eps/2; at J = 0 this reduces to eps exactly.
    """
    if eps < 0.0:
        raise DimensionMismatch("eps must be nonnegative")
    if eps == 0.0:
        return 0.0
    x = bethe_fixed_point(J, 0.5 * eps, d).x
    delta_deg = d + 1
    return (delta_deg / (delta_deg - 1.0)) * math.log(x) - eps / (delta_deg - 1.0)


def critical_coupling(d: int) -> float:
    """Coupling above which the zero-field fixed point becomes unstable."""
    if d < 2:
        raise DimensionMismatch("branching factor must be at least 2")
    return math.atanh(1.0 / d)


def enforceable_epsilon(
    target_nu: float, J: float, d: int, tol: float = 1e-10
) -> Optional[float]:
    """Largest budget whose deep-tree inference parameter stays <= target.

    nu(eps) >= eps always, so the answer lies in (0, target_nu]; it is
    found by bisection.  Returns None when even a vanishing budget leaks
    more than the target (supercritical coupling with the target below
    the inference floor).  A bisection step that finds nu decreasing in
    eps raises NoConvergence.
    """
    if target_nu <= 0.0:
        raise DimensionMismatch("target must be positive")
    if nu_bethe_limit(J, target_nu, d) <= target_nu + 1e-12:
        return target_nu
    lo = min(1e-8, 0.5 * target_nu)
    nu_lo = nu_bethe_limit(J, lo, d)
    if nu_lo > target_nu:
        return None
    hi = target_nu
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        nu_mid = nu_bethe_limit(J, mid, d)
        if nu_mid < nu_lo - 1e-12:
            raise NoConvergence(f"nu decreased from {nu_lo} to {nu_mid} as eps rose to {mid}")
        if nu_mid <= target_nu:
            lo, nu_lo = mid, nu_mid
        else:
            hi = mid
    return lo


def sensitivity_profile(
    J: float, h0: float, d: int, eps_list: Sequence[float]
) -> List[Tuple[float, float]]:
    """Deep-tree inference parameter as a function of the budget, at a
    fixed base field.  Uses w(h) = ln x(J, h):

      nu(eps) = max(w(h0 + eps/2) - w(h0), w(h0) - w(h0 - eps/2)).
    """
    w0 = math.log(bethe_fixed_point(J, h0, d).x)
    out = []
    for eps in eps_list:
        if eps <= 0.0:
            raise DimensionMismatch("budgets must be positive")
        up = math.log(bethe_fixed_point(J, h0 + 0.5 * eps, d).x) - w0
        down = w0 - math.log(bethe_fixed_point(J, h0 - 0.5 * eps, d).x)
        out.append((float(eps), max(up, down)))
    return out
