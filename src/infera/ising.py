"""Ferromagnetic Ising priors on forests, and deep-tree leakage laws.

Spins are sigma_i = (-1)^{x_i}, so x = 0 is spin +1.  An IsingPrior is

  pi(x) proportional to exp(sum_edges J_ij sigma_i sigma_j + sum_i h_i sigma_i)

with every J_ij >= 0, which makes it affiliated.  A maximally z-biased
mechanism then acts on the prior exactly like an extra field of
+eps_i/2 (z = 0) or -eps_i/2 (z = 1) at every site, so the leakage of
site a is

  nu_a = 2 max(|H+_a - H_a|, |H_a - H-_a|),

where H_a = atanh <sigma_a> is the site's effective field under the
fields h and H+_a, H-_a are the same under h +- eps/2.  On a forest
sum-product gives the effective fields of every site in one upward and
one downward pass (`nu_tree`); `IsingPrior.dense` enumerates the 2^n
cells for oracles and dense inputs.

The deep-tree limit follows the branch-ratio recursion
x_{k+1} = y(x_k) with
  y(x) = e^{2h} ((e^J x + e^{-J}) / (e^J + e^{-J} x))^d,
whose fixed point from x_0 = 1 describes an infinite complete d-ary tree.
For branching d (degree Delta = d + 1) under a uniform budget eps, the
inference parameter of any site is

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

from .dist import DEFAULT_CAP, JointDistribution, check_coordinate, digit_table, from_dense
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotAffiliated,
    SizeCap,
    UndefinedRatio,
)
from .mechanism import PrivacyBudget


@dataclass(frozen=True, eq=False)
class IsingPrior:
    """Ising prior on n sites with edges (i[k], j[k]) of coupling J[k] >= 0
    and a field h[k] at each site k."""

    n: int
    i: np.ndarray
    j: np.ndarray
    J: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        n = self.n
        i, j = (np.asarray(v, dtype=np.int64) for v in (self.i, self.j))
        J, h = (np.asarray(v, dtype=np.float64) for v in (self.J, self.h))
        if n < 1:
            raise DimensionMismatch(f"need at least one site, got n={n}")
        if i.ndim != 1 or i.shape != j.shape or i.shape != J.shape:
            raise DimensionMismatch(
                f"edge arrays must be flat and of one length, got {i.shape}, {j.shape}, {J.shape}"
            )
        if np.any(i != self.i) or np.any(j != self.j):
            raise DimensionMismatch("edge endpoints must be integers")
        if h.shape != (n,):
            raise DimensionMismatch(f"expected {n} fields, got shape {h.shape}")
        if np.any((i < 0) | (i >= n) | (j < 0) | (j >= n)):
            raise DimensionMismatch(f"edge endpoint out of range for n={n}")
        if np.any(i == j):
            raise DimensionMismatch(f"self-loop at site {int(i[i == j][0])}")
        if not (np.all(np.isfinite(J)) and np.all(np.isfinite(h))):
            raise DimensionMismatch("couplings and fields must be finite")
        if np.any(J < 0.0):
            k = int(np.argmin(J))
            raise NotAffiliated(
                f"coupling {J[k]} < 0 on edge ({i[k]}, {j[k]}): the prior is not affiliated"
            )
        for name, value in (("i", i), ("j", j), ("J", J), ("h", h)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def dense(self, cap: int = DEFAULT_CAP) -> JointDistribution:
        """The prior over all 2^n cells."""
        n = self.n
        if 2**n > cap:
            raise SizeCap(f"Ising prior with {n} sites needs 2**{n} entries, cap {cap}")
        # Field terms, one coordinate at a time: in little-endian order the
        # cells with x_a = 0 (spin +1) precede those with x_a = 1.
        energy = np.zeros(1)
        for a in range(n):
            energy = np.concatenate([energy + self.h[a], energy - self.h[a]])
        digits = digit_table(n, 2)
        for a, b, c in zip(self.i, self.j, self.J):
            energy += np.where(digits[:, a] == digits[:, b], c, -c)
        # A gap past the float range gives weight 0.
        with np.errstate(over="ignore"):
            return from_dense(n, 2, np.exp(energy - energy.max()), cap=cap)


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
        """Parent-child pairs of `prior`."""
        p = self.prior()
        return list(zip(p.i.tolist(), p.j.tolist()))

    def prior(self) -> IsingPrior:
        """The model as an IsingPrior; node k > 0 hangs below (k - 1) // d."""
        child = np.arange(1, self.n)
        return IsingPrior(
            n=self.n,
            i=(child - 1) // self.d,
            j=child,
            J=np.full(child.size, float(self.J)),
            h=np.full(self.n, float(self.h0)),
        )


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
    return model.prior().dense(cap)


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


def _log2cosh(y: np.ndarray) -> np.ndarray:
    """ln(2 cosh y) = |y| + ln(1 + e^{-2|y|}), which cannot overflow."""
    a = np.abs(y)
    return a + np.log1p(np.exp(-2.0 * a))


def _cavity_message(x: np.ndarray, J: np.ndarray) -> np.ndarray:
    """atanh(tanh J tanh x): the field that a site of cavity field x
    sends across an edge of coupling J.  As a difference of ln cosh
    terms it does not saturate at large |x| as tanh x does."""
    return 0.5 * (_log2cosh(x + J) - _log2cosh(x - J))


def nu_tree(prior: IsingPrior, budget: PrivacyBudget) -> np.ndarray:
    """Inference parameter of every site of a forest prior, exactly.

    Returns nu_a = 2 max(|H+_a - H_a|, |H_a - H-_a|) for every site a,
    from sum-product on the three field settings h, h + eps/2 and
    h - eps/2 at once.  The upward pass peels leaves round by round: a
    site whose other neighbours are all gone sends its cavity message to
    the one left, which becomes its parent (of two leaves joined by one
    edge, the larger index hangs below the smaller).  A round with no
    leaf left means a cycle.  The downward pass revisits the rounds in
    reverse and completes each site's effective field from its
    parent's.  O(n) work in as many numpy rounds as the forest is high.

    Raises DimensionMismatch when the edges hold a cycle or the budget
    has the wrong length, and UndefinedRatio when a field overflows.
    """
    n = prior.n
    if budget.n != n:
        raise DimensionMismatch(f"budget has {budget.n} entries for {n} sites")
    half = 0.5 * budget.eps
    with np.errstate(over="ignore", invalid="ignore"):
        # Cavity fields, one row per field setting; the downward pass
        # completes them into effective fields in place.
        field = np.stack([prior.h, prior.h + half, prior.h - half])
        ends = np.concatenate([prior.i, prior.j])
        deg = np.bincount(ends, minlength=n)
        # Sums of the indices of each site's remaining neighbours and
        # edges: once one neighbour is left, they name it.
        nbr = np.bincount(ends, weights=np.concatenate([prior.j, prior.i]), minlength=n)
        edge = np.bincount(ends, weights=np.tile(np.arange(prior.i.size), 2), minlength=n)
        nbr, edge = nbr.astype(np.int64), edge.astype(np.int64)
        alive = np.ones(n, dtype=bool)
        rounds = []
        left = n
        while left:
            leaves = np.flatnonzero(alive & (deg <= 1))
            if leaves.size == 0:
                raise DimensionMismatch(
                    f"edges are not a forest: {left} sites lie on or between cycles"
                )
            alive[leaves] = False
            left -= leaves.size
            child = leaves[deg[leaves] == 1]
            parent = nbr[child]
            hangs = alive[parent] | (parent < child)
            child, parent = child[hangs], parent[hangs]
            e = edge[child]
            np.subtract.at(deg, parent, 1)
            np.subtract.at(nbr, parent, child)
            np.subtract.at(edge, parent, e)
            J = prior.J[e]
            msg = _cavity_message(field[:, child], J)
            np.add.at(field, (slice(None), parent), msg)
            rounds.append((child, parent, J, msg))
        for child, parent, J, msg in reversed(rounds):
            field[:, child] += _cavity_message(field[:, parent] - msg, J)
        nu = 2.0 * np.maximum(np.abs(field[1] - field[0]), np.abs(field[0] - field[2]))
    if not np.all(np.isfinite(nu)):
        a = int(np.flatnonzero(~np.isfinite(nu))[0])
        raise UndefinedRatio(f"effective field at site {a} overflows a float")
    return nu


def nu_gibbs(model: IsingTreeModel, eps: float, site: int) -> float:
    """Inference parameter of one site of the tree under a uniform budget."""
    if eps <= 0.0:
        raise DimensionMismatch("eps must be positive")
    check_coordinate(model.n, site)
    return float(nu_tree(model.prior(), PrivacyBudget.uniform(model.n, eps))[site])


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
