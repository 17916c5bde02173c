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

Both halves of the module pass one message.  Cut the edge above a site:
the site's log-odds w = ln Pr(sigma = +1)/Pr(sigma = -1) in the branch
left below is its cavity log-ratio, and across an edge of coupling J
that branch adds

  phi(w) = ln cosh(w/2 + J) - ln cosh(w/2 - J) = 2 atanh(tanh J tanh(w/2))

to the log-odds of the site on the other side; `nu_tree` passes phi/2,
in units of fields.  phi is odd, increasing, concave for
w >= 0 and below 2J.  On the infinite tree of branching d, where every
site has d + 1 neighbours, a uniform field h gives every branch the
cavity log-ratio w with w = 2h + d phi(w), and every site the log-odds
w + phi(w).  Under a uniform budget eps the leakage of any site is
therefore

  nu(eps) = w + phi(w),  where  w = eps + d phi(w).

nu rises strictly with w, so a target leakage fixes w, and the budget
that meets it is eps = w - d phi(w).  d = 0 is the dimer and d = 1 the
infinite path.  The fixed point is continuous in h at 0 exactly when
tanh(J) <= 1/d; stronger couplings leave a positive inference floor no
budget can cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dist import DEFAULT_CAP, JointDistribution, check_coordinate, digit_table, from_dense
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
            weights = np.exp(energy - energy.max())
        if not np.all(weights > 0.0):
            # Finite fields give every cell positive mass.
            k = int(np.argmin(weights))
            raise UndefinedRatio(
                f"cell {k} of the Ising prior underflows to weight 0: its energy lies "
                f"{energy.max() - energy[k]:.6g} below the largest, past the float range"
            )
        return from_dense(n, 2, weights, cap=cap)


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


def ising_tree_distribution(model: IsingTreeModel, cap: int = DEFAULT_CAP) -> JointDistribution:
    """Dense prior over the tree's 2^n spin assignments."""
    return model.prior().dense(cap)


def _cavity_message(x: np.ndarray, J: np.ndarray) -> np.ndarray:
    """atanh(tanh J tanh x): the field that a site of cavity field x
    sends across an edge of coupling J, in the form of `_w_minus_phi`:
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
    eps_a.  Raises DimensionMismatch when the edges hold a cycle or the
    budget has the wrong length, and UndefinedRatio when a field
    overflows or the rounding of a site's fields (a few ulps of |h_a| +
    eps_a/2 + the couplings at a, per term summed) is not small next to
    its nu, as when a large field swallows the budget.  "Small" is 1e-6
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


def nu_gibbs(model: IsingTreeModel, eps: float, site: int) -> float:
    """Inference parameter of one site of the tree under a uniform budget."""
    if eps <= 0.0:
        raise DimensionMismatch("eps must be positive")
    check_coordinate(model.n, site)
    return float(nu_tree(model.prior(), PrivacyBudget.uniform(model.n, eps))[site])


def _w_minus_phi(w: float, J: float, k: float) -> float:
    """w - k phi(w) for w, J >= 0, where phi(w) = ln cosh(w/2 + J) -
    ln cosh(w/2 - J) is 2 _cavity_message(w/2, J): the log-odds that a
    branch of cavity log-ratio w adds across an edge of coupling J.

    The difference of the two ln(2 cosh) terms is 2m exactly, with
    m = min(w/2, J), and the rest is
    r = log1p(expm1(-4m) / (1 + e^{2|w/2 - J|})).  Taking (w - 2km) - kr
    keeps full precision where w and k phi(w) cancel, as on a strongly
    coupled path, and as w goes to 0; nor does phi saturate at large J as
    atanh(tanh J tanh(w/2)) does.  Plain floats, because the bisection
    below calls it some sixty times per solve.
    """
    x = 0.5 * w
    m = x if x < J else J
    q = math.exp(-2.0 * abs(x - J))
    return (w - 2.0 * k * m) - k * math.log1p(math.expm1(-4.0 * m) * q / (1.0 + q))


def _largest_w(J: float, k: float, level: float, hi: float) -> Tuple[float, int]:
    """Largest float w in [0, hi] with w - k phi(w) <= level, for a level
    that 0 meets and that w - k phi(w), once above it, stays above.  Tries
    hi, then halves the bracket until the midpoint stops moving.  Returns w
    and the number of midpoints tried."""
    if _w_minus_phi(hi, J, k) <= level:
        return hi, 0
    lo, steps = 0.0, 0
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        steps += 1
        if _w_minus_phi(mid, J, k) <= level:
            lo = mid
        else:
            hi = mid
    return lo, steps


def _check_tree(J: float, d: int) -> None:
    if not math.isfinite(J):
        raise DimensionMismatch(f"coupling must be finite, got {J}")
    if J < 0.0:
        raise NotAffiliated(f"coupling {J} < 0: the prior is not affiliated")
    if d < 0:
        raise DimensionMismatch(f"branching factor must be nonnegative, got {d}")


def _cavity_log_ratio(J: float, field: float, d: int) -> Tuple[float, int]:
    """Cavity log-ratio w = field + d phi(w) of the infinite tree of
    branching d under the log-odds field `field` (2h) at every site, and
    the bisection steps that located it.

    w is the limit of the iteration w <- field + d phi(w) from 0.  For
    field > 0, g(w) = field + d phi(w) - w has g(0) > 0,
    g(field + 2dJ) <= 0 and, phi being concave, one positive root;
    bisection finds it however slowly the iteration would settle near the
    critical coupling.  A negative field gives -w(|field|).  Raises
    UndefinedRatio when the bracket overflows a float.
    """
    _check_tree(J, d)
    if math.isnan(field):
        raise DimensionMismatch("field must be a number")
    if field == 0.0:
        return 0.0, 0
    b = abs(field)
    top = b + 2.0 * d * J
    if top == math.inf:
        raise UndefinedRatio(f"cavity log-ratio at J={J}, field {field}, d={d} overflows a float")
    w, steps = _largest_w(J, d, b, top)
    return math.copysign(w, field), steps


def bethe_fixed_point(J: float, h: float, d: int) -> BetheSolution:
    """Branch ratio x(J, h) = e^w of the infinite d-ary tree under a
    uniform field h: 1 at h = 0, in (1, inf) for h > 0 and in (0, 1) for
    h < 0.  Raises UndefinedRatio when x overflows or underflows a float,
    which happens once |h| exceeds about 355.
    """
    w, steps = _cavity_log_ratio(J, 2.0 * h, d)
    try:
        x = math.exp(w)
    except OverflowError:
        x = math.inf
    if not 0.0 < x < math.inf:
        raise UndefinedRatio(f"branch ratio x(J={J}, h={h}) lies outside the float range")
    return BetheSolution(x=x, iterations=steps)


def nu_bethe_limit(J: float, eps: float, d: int) -> float:
    """Deep-tree inference parameter under a uniform budget:
    w + phi(w) at the cavity log-ratio w = eps + d phi(w).  It is eps at
    J = 0; d = 0 is the dimer and d = 1 the infinite path."""
    if eps < 0.0:
        raise DimensionMismatch("eps must be nonnegative")
    w, _ = _cavity_log_ratio(J, eps, d)
    nu = _w_minus_phi(w, J, -1.0)  # w + phi(w)
    if nu == math.inf:
        raise UndefinedRatio(f"deep-tree leakage at J={J}, eps={eps}, d={d} overflows a float")
    return nu


def critical_coupling(d: int) -> float:
    """Coupling above which the zero-field fixed point becomes unstable,
    atanh(1/d).  The dimer (d = 0) and the infinite path (d = 1) have
    none: math.inf."""
    if d < 0:
        raise DimensionMismatch(f"branching factor must be nonnegative, got {d}")
    return math.atanh(1.0 / d) if d > 1 else math.inf


def enforceable_epsilon(target_nu: float, J: float, d: int) -> Optional[float]:
    """Largest budget whose deep-tree inference parameter stays <= target.

    nu = w + phi(w) rises strictly with the cavity log-ratio w, and
    nu >= w, so one bisection on [0, target] finds the largest w that
    meets the target.  The budget that gives it is eps = w - d phi(w).
    Returns None when that is not positive: a supercritical coupling
    whose inference floor lies above the target.
    """
    if not 0.0 < target_nu < math.inf:
        raise DimensionMismatch("target must be positive and finite")
    _check_tree(J, d)
    w, _ = _largest_w(J, -1.0, target_nu, target_nu)  # w + phi(w) <= target
    eps = _w_minus_phi(w, J, d)
    return eps if eps > 0.0 else None


def sensitivity_profile(
    J: float, h0: float, d: int, eps_list: Sequence[float]
) -> List[Tuple[float, float]]:
    """Deep-tree inference parameter of the root as a function of the
    budget, at a fixed base field.  With w(f) the signed cavity log-ratio
    under the log-odds field f at every site,

      nu(eps) = max(w(2 h0 + eps) - w(2 h0), w(2 h0) - w(2 h0 - eps)).

    The root has d neighbours, so its log-odds is w itself; this is not
    the interior site of `nu_bethe_limit`, whose d + 1 neighbours give it
    w + phi(w).  At J = 0.3, eps = 0.5, d = 2 the root leaks 1.0772 and
    the interior site 1.3658.
    """
    field = 2.0 * h0
    w0, _ = _cavity_log_ratio(J, field, d)
    out = []
    for eps in eps_list:
        if eps <= 0.0:
            raise DimensionMismatch("budgets must be positive")
        up = _cavity_log_ratio(J, field + eps, d)[0] - w0
        down = w0 - _cavity_log_ratio(J, field - eps, d)[0]
        out.append((float(eps), max(up, down)))
    return out
