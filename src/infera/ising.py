"""Ferromagnetic Ising priors on forests, and their exact leakage.

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
cells for oracles and dense inputs.  The message a branch sends across
an edge is phi/2 of `bethe.py`, in units of fields; that module holds
the same message in one variable on the infinite tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (DEFAULT_CAP, JointDistribution, add_pair, cell_fold, check_cells,
                   check_coordinate, from_dense)
from .errors import DimensionMismatch, NotAffiliated, SizeCap, UndefinedRatio
from .mechanism import PrivacyBudget


# `nu_tree` answers when the rounding bound of a site's nu is within 1e-6
# of it, or within 1e-12 absolute, which moves the odds factor e^nu by
# no more than 1e-12.
_REL_TOL = 1e-6
_ABS_TOL = 1e-12


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
        # Every cell energy is bounded by this sum, so `dense` cannot overflow.
        with np.errstate(over="ignore"):
            total = np.abs(J).sum() + np.abs(h).sum()
        if not math.isfinite(total):
            raise DimensionMismatch(
                f"couplings and fields must be finite and |J| + |h| must sum to a float, got {total}"
            )
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
        check_cells(2, n, cap, f"Ising prior with {n} sites")
        # x_a = 0 is spin +1.
        energy = cell_fold([(h, -h) for h in self.h])
        for a, b, c in zip(self.i, self.j, self.J):
            add_pair(energy, a, b, [[c, -c], [-c, c]])
        # A gap past the float range gives weight 0.
        with np.errstate(over="ignore"):
            weights = np.exp(energy - energy.max())
        if not np.all(weights > 0.0):
            # Finite fields give every cell positive mass.
            k = int(np.argmin(weights))
            raise UndefinedRatio(
                f"cell {k} of the Ising prior underflows to weight 0: its energy lies "
                f"{energy.max() - energy[k]:.6g} below the largest, past the float range"
            )
        return from_dense(n, 2, weights, cap=cap)


def tree_prior(
    d: int, depth: int, J: float, h0: float = 0.0, cap: int = DEFAULT_CAP
) -> IsingPrior:
    """Complete d-ary tree of the given depth with coupling J on every edge
    and field h0 at every site, BFS indexed from the root: site k > 0
    hangs below (k - 1) // d.  Raises SizeCap when it has more than cap
    sites, before any array is formed."""
    if d < 2:
        raise DimensionMismatch("branching factor must be at least 2")
    if depth < 0:
        raise DimensionMismatch("depth must be nonnegative")
    if J <= 0.0:
        raise DimensionMismatch("coupling must be positive")
    # Count the sites level by level: a deep tree fails here before
    # d**(depth + 1) is formed.
    n = level = 1
    for _ in range(depth):
        if n > cap:
            break
        level *= d
        n += level
    if n > cap:
        raise SizeCap(f"ising_tree with d={d} and depth {depth} "
                      f"has more sites than the cap of {cap}")
    child = np.arange(1, n)
    return IsingPrior(n=n, i=(child - 1) // d, j=child,
                      J=np.full(child.size, float(J)), h=np.full(n, float(h0)))


# perfbench/workloads.py (:88 and :254) still builds its trees by this
# name, and calls the two wrappers below.
IsingTreeModel = tree_prior


def ising_tree_distribution(prior: IsingPrior, cap: int = DEFAULT_CAP) -> JointDistribution:
    """`prior.dense(cap)`."""
    return prior.dense(cap)


def _cavity_message(x: np.ndarray, J: np.ndarray) -> np.ndarray:
    """atanh(tanh J tanh x): the field that a site of cavity field x
    sends across an edge of coupling J, in the form of `bethe._w_minus_phi`:
    sign(x) (m + log1p(expm1(-4m) / (1 + e^{2||x| - J|})) / 2) with
    m = min(|x|, J).  It neither saturates at large |x| nor loses
    relative precision as x goes to 0.  e^{2||x| - J|} may overflow to
    inf, which leaves m."""
    a = np.abs(x)
    m = np.minimum(a, J)
    r = np.expm1(-4.0 * m) / (1.0 + np.exp(2.0 * np.abs(a - J)))
    return np.copysign(m + 0.5 * np.log1p(r), x)


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

    Every site leaks at least its own budget, so nu_a is floored at
    eps_a; under an all-zero budget every site leaks exactly 0.  Raises
    DimensionMismatch when the edges hold a cycle or the budget has the
    wrong length, and UndefinedRatio when a field overflows or the
    rounding of a site's fields (a few ulps of |h_a| + eps_a/2 + the
    couplings at a, per term summed) is not small next to its nu, as
    when a large field swallows a nonzero budget.  "Small" is 1e-6
    relative or 1e-12 absolute.
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
        # Sums of the indices of each site's remaining edges: once one
        # edge is left, the sum names it.
        edge = np.bincount(ends, weights=np.tile(np.arange(prior.i.size), 2),
                           minlength=n).astype(np.int64)
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
            e = edge[child]
            parent = prior.i[e] + prior.j[e] - child
            hangs = alive[parent] | (parent < child)
            child, parent, e = child[hangs], parent[hangs], e[hangs]
            np.subtract.at(deg, parent, 1)
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
    if not np.any(budget.eps):
        # The three field settings are one: every site leaks exactly 0.
        return np.zeros(n)
    # Each term summed into a site's field rounds once, so nu_a carries
    # an error of a few ulps of everything summed there.
    load = np.abs(prior.h) + half + np.bincount(ends, np.concatenate([prior.J, prior.J]), n)
    noise = 8.0 * (np.bincount(ends, minlength=n) + 1) * np.spacing(load)
    bad = np.flatnonzero(noise > np.maximum(_REL_TOL * nu, _ABS_TOL))
    if bad.size:
        a = int(bad[0])
        raise UndefinedRatio(
            f"site {a} leaks {nu[a]:.6g} at budget {budget.eps[a]:.6g}, but its fields "
            f"(|h| + eps/2 + J up to {load[a]:.6g}) round it by up to {noise[a]:.3g}"
        )
    # Within that rounding nu_a can land a hair below eps_a, which every
    # prior leaks through a profile that depends on x_a alone.
    return np.maximum(nu, budget.eps)


def nu_gibbs(prior: IsingPrior, eps: float, site: int) -> float:
    """Inference parameter of one site of a forest prior under a uniform budget."""
    if eps <= 0.0:
        raise DimensionMismatch("eps must be positive")
    site = check_coordinate(prior.n, site)
    return float(nu_tree(prior, PrivacyBudget.uniform(prior.n, eps))[site])
