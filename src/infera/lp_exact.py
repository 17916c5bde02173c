"""Exact inference parameter via linear programming, with a certificate.

For a direction (z0, z1) of the target coordinate a, the worst event
profile m maximizes E[m | x_a = z1] / E[m | x_a = z0] subject to the
budget m(x) <= e^{eps_i} m(x') for every i and x ~_i x'.  Let u be m on
the face x_a = z0, a profile over the other n - 1 coordinates.  The z1
face can take at most e^{eps_a} u, and every other face takes u, so

    nu(z0 -> z1) = eps_a + ln max  c.u
                   subject to      e.u = 1,
                                   u(lo) <= gain u(hi)   for every row,
                                   u >= 0,

where c and e are the conditional priors given x_a = z1 and x_a = z0 and
the rows are the budget on the other coordinates.  Mehrotra's primal-dual
predictor-corrector method drives this LP, each step going the fraction
max(_STEP, min(1 - mu, 1 - 2**-30)) of the way to the boundary, mu the
mean complementarity; a direction that rule leaves open and that could
still win is run once more at the fixed _STEP, starting from the bounds
it has (nu_exact).  No iterate is trusted: after every iteration two
bounds are computed from it by code that does not depend on how it was
found.

* Lower: the largest eps-Lipschitz minorant w of ln u meets the budget by
  construction, and eps_a + ln(c.e^w / e.e^w) is attained by it.  Before
  the first iteration, the maximally z1-biased profile
  w = -sum_i eps_i [x_i != z1] gives the bound.
* Upper: for any y >= 0 and any t, every feasible u has u(x) K(x) <= e.u
  = 1, where K(x) = sum_s e(s) e^{-d(x, s)} and d is the eps-weighted
  Hamming metric.  So c.u <= t + sum_x max(0, c - A^T y - t e)(x) / K(x).
  Before the first iteration, y = 0 and t = 0 give sum_x c(x) / K(x),
  exact when c and e are point masses, as on twins priors.

A direction is certified once the two meet.  nu_exact steps every
direction in lockstep, one iteration each per round, and after each round
stops an open direction whose upper bound is within _DIRECTION_GAP of the
best lower bound of any direction: it cannot win, and its interval is
reported in NuCertificate.stopped.  An LPError names both bounds of a
direction that ends open and could still win.

Coordinates independent of the target leave nu unchanged: if p = p_C (x)
p_rest with a in C, averaging a profile over x_rest keeps its budget and
both conditional means, and a profile on C held constant along x_rest is
feasible on the whole.  So the LP runs over a's dependence block C only.
C grows from a over the two-coordinate marginals, and is kept only when
p matches p_C (x) p_rest cell by cell within a relative _BLOCK_TOL;
otherwise, as on a parity prior, whose coordinates are pairwise but not
jointly independent, C is every coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Tuple

import numpy as np

from .dist import JointDistribution, cell_tensor, check_coordinate, faces, pair_marginals
from .errors import DegenerateDistribution, DimensionMismatch, LPError, SizeCap
from .mechanism import EventProfile, PrivacyBudget, dp_audit, max_biased_log, mechanism_nu

# The LP of a binary prior at n = 12 has 2**11 variables and a 32 MB
# normal matrix; nu_exact on random_affiliated(12) took 24 s at 155 MB peak
# RSS (one BLAS thread, 2-vCPU VM).  Other alphabets get the same count.
DEFAULT_LP_CAP = 12

# A step peaks at about six size x size float64 arrays, 48 size**2 bytes
# (the normal matrix, its factor, its inverse, temporaries), and only one
# step is in flight at a time.  A larger estimate is refused up front:
# 2**13 variables (3 GiB) pass, 2**14 do not.
_LP_BYTE_CAP = 2**32

# Width of the certified interval [nu, nu_upper].
GAP_TOL = 1e-9

# Each direction closes to half of GAP_TOL, a later direction must beat
# the best by more than that to win, and an open direction whose upper
# bound is within that of the best lower bound is stopped: the winner's
# witness then attains within GAP_TOL of the largest upper bound, and two
# directions that tie in exact arithmetic keep value order.
_DIRECTION_GAP = 0.5 * GAP_TOL
_MAX_ITER = 200
# A step goes max(_STEP, min(1 - mu, cap)) of the way to the boundary, mu
# the mean complementarity.  At cap _STEP_CAP the factor tends to one as
# mu falls, which gives the method its superlinear tail; it stays 2**-30
# short of one, as at one a step lands on the boundary and the iterate
# stops being finite.  At cap _STEP it is the fixed step _STEP.
_STEP = 0.99
_STEP_CAP = 1.0 - 2.0**-30
_AUDIT_TOL = 1e-9

# Relative distance, cell by cell, within which the prior counts as the
# product of a's block marginal and the rest's.  Each conditional mean of
# a profile then moves by a factor within (1 +- _BLOCK_TOL) / (1 -+
# _BLOCK_TOL), so nu, the log of a ratio of two, by 4 _BLOCK_TOL up to
# terms of order _BLOCK_TOL**3; nu_upper adds 4 _BLOCK_TOL.
_BLOCK_TOL = 1e-12


@dataclass(frozen=True)
class NuCertificate:
    """Exact inference parameter with its optimizing event profile.

    nu is what the witness attains through mechanism_nu; no feasible
    profile leaks more than nu_upper, and nu_upper - nu <= GAP_TOL, plus
    8 _BLOCK_TOL when the target's block leaves coordinates out.
    per_direction holds each certified direction's value, and the upper
    bound of each stopped one: a direction left open because it could not
    beat another by more than half of GAP_TOL.  stopped maps each of those
    to its certified interval [lower, upper].  steps counts the
    interior-point steps of each direction, a restart's included, and
    restarted lists the directions run again at the fixed step because
    the first run left them open while they could still win.
    """

    nu: float
    nu_upper: float
    direction: Tuple[int, int]
    witness: EventProfile
    lp_objective: float
    per_direction: Dict[Tuple[int, int], float] = field(default_factory=dict)
    steps: Dict[Tuple[int, int], int] = field(default_factory=dict)
    restarted: Tuple[Tuple[int, int], ...] = ()
    stopped: Dict[Tuple[int, int], Tuple[float, float]] = field(default_factory=dict)


class _Rows(NamedTuple):
    """The budget's rows u(lo) <= gain u(hi) over size cells, and what the
    steps of every direction share: pairs, the flat positions in the
    normal matrix of the entries (lo, hi), (hi, lo), (lo, lo) and (hi, hi)
    that each row touches, diag, those of its diagonal, and rounding, the
    bound on the rounding error of c - A^T y - t e per unit of the
    magnitudes summed into each cell."""

    lo: np.ndarray
    hi: np.ndarray
    gain: np.ndarray
    size: int
    pairs: np.ndarray
    diag: np.ndarray
    rounding: float


def _ratio_rows(n: int, alph: int, gains: np.ndarray) -> _Rows:
    """Rows u(lo) <= gain u(hi) of the budget over alph**n cells: one row
    per coordinate and ordered pair of its values."""
    size = alph**n
    cells = np.arange(size)
    rows = [
        (face[u], face[v], gains[i])
        for i in range(n)
        for face in (faces(cells, n, alph, i),)
        for u in range(alph)
        for v in range(alph)
        if u != v
    ]
    if rows:
        lo, hi, gain = zip(*rows)
        lo, hi, gain = np.concatenate(lo), np.concatenate(hi), np.repeat(gain, lo[0].size)
    else:
        lo, hi, gain = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    pairs = np.concatenate([lo * size + hi, hi * size + lo, lo * (size + 1), hi * (size + 1)])
    rounding = (lo.size // size + 3) * np.finfo(float).eps
    return _Rows(lo, hi, gain, size, pairs, np.arange(size) * (size + 1), rounding)


def _envelope(f: np.ndarray, eps: np.ndarray, alph: int) -> np.ndarray:
    """Largest function below f that is Lipschitz in the eps-weighted
    Hamming metric: the metric is a sum over coordinates, so one pass per
    axis does it."""
    t = cell_tensor(f, eps.size, alph)
    for i, ei in enumerate(eps):
        t = np.minimum(t, t.min(axis=i, keepdims=True) + ei)
    return t.reshape(-1, order="F")


def _kernel(e: np.ndarray, eps: np.ndarray, alph: int) -> np.ndarray:
    """K(x) = sum_s e(s) exp(-d(x, s)), one pass per axis."""
    t = cell_tensor(e, eps.size, alph)
    for i, ei in enumerate(eps):
        t = -math.expm1(-ei) * t + math.exp(-ei) * t.sum(axis=i, keepdims=True)
    return t.reshape(-1, order="F")


def _fold_out(t: np.ndarray, axes) -> np.ndarray:
    """The tensor t summed over the given axes, one axis at a time, so
    each cell adds one axis's few terms per step and stays accurate to a
    few ulps."""
    for k in sorted(axes, reverse=True):
        t = np.add.reduce(t, axis=k)
    return t


def _dependence_block(dist: JointDistribution, a: int):
    """(block, probs): the sorted coordinates of a's dependence block and
    the prior's marginal on them, flat.

    The block grows from a: a coordinate joins when its two-coordinate
    marginal with a member departs from the product of their marginals
    by more than a relative _BLOCK_TOL.  A block short of every
    coordinate is kept only when the prior is the product of its block
    marginal and the rest's, cell by cell within the same tolerance;
    otherwise the block is every coordinate and probs the prior itself.
    """
    n, alph = dist.n, dist.alphabet_size
    block, frontier, rest = {a}, [a], set(range(n)) - {a}
    while frontier and rest:
        i = frontier.pop()
        pair = pair_marginals(dist.probs, n, alph, i)
        indep = np.add.reduce(pair[0], axis=1)[:, None] * np.add.reduce(pair, axis=1)[:, None, :]
        apart = np.abs(pair - indep) > _BLOCK_TOL * indep
        dependent = np.logical_or.reduce(apart.reshape(n - 1, -1), axis=1)
        others = [j for j in range(n - 1, -1, -1) if j != i]
        joined = rest.intersection(np.asarray(others)[dependent].tolist())
        rest -= joined
        block |= joined
        frontier += joined
    if not rest:
        return list(range(n)), dist.probs
    block, rest = sorted(block), sorted(rest)
    t = cell_tensor(dist.probs, n, alph)
    p_block = _fold_out(t, rest)
    factored = np.expand_dims(p_block, tuple(rest)) * np.expand_dims(_fold_out(t, block),
                                                                     tuple(block))
    gap = np.subtract(t, factored)
    np.abs(gap, out=gap)
    if np.all(gap <= np.multiply(factored, _BLOCK_TOL, out=factored)):
        return block, p_block.reshape(-1, order="F")
    return list(range(n)), dist.probs


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by blocks (numpy has no
    triangular solve)."""
    size = low.shape[0]
    if size <= 64:
        return np.linalg.inv(low)
    k = size // 2
    top, bottom = _lower_inverse(low[:k, :k]), _lower_inverse(low[k:, k:])
    out = np.zeros_like(low)
    out[:k, :k], out[k:, k:] = top, bottom
    out[k:, :k] = -bottom @ (low[k:, :k] @ top)
    return out


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha dv >= 0, at most 1."""
    neg = dv < 0.0
    return min(1.0, float(np.minimum.reduce(-v[neg] / dv[neg], initial=np.inf)))


def _attained(c: np.ndarray, e: np.ndarray, w: np.ndarray) -> float:
    """ln c.m / e.m of the profile m = e^w; NaN where that is not finite,
    as where its mass underflows on either face."""
    m = np.exp(w - w.max())
    value = float(np.log(c @ m) - np.log(e @ m))
    return value if math.isfinite(value) else math.nan


def _upper(y, t, c, e, rows, kernel):
    """ln(t + sum_x max(0, c - A^T y - t e)(x) / K(x)), the upper bound on
    ln max c.u / e.u at the dual point (y >= 0, t) (module docstring)."""
    lo, hi, gain, size, _, _, rounding = rows
    pos, neg = np.bincount(lo, y, size), np.bincount(hi, gain * y, size)
    resid = c - (pos - neg) - t * e
    # The upper bound must not drop below the truth when A^T y cancels.
    resid += rounding * (pos + neg + abs(t) * e + c)
    excess = np.divide(resid, kernel, out=np.zeros(size), where=resid > 0.0)
    return float(np.log(t + excess.sum()))


def _step(prim, dual, t, c, e, rows, cap):
    """The iterate (prim, dual, t) after one predictor-corrector step, or
    None when the normal matrix has no Cholesky factor.  The normal
    matrix, its factor and the step's temporaries die here, so a direction
    between steps holds only its iterate and its bounds."""
    lo, hi, gain, size, pairs, diag, _ = rows
    nrows = lo.size

    def a_mul(v):
        return v[lo] - gain * v[hi]

    def at_mul(r):
        return np.bincount(lo, r, size) - np.bincount(hi, gain * r, size)

    with np.errstate(all="ignore"):
        # With the slacks s = -A u and the duals y, z eliminated, the
        # Newton system is H du + dt e = g, e.du = re,
        # H = A^T diag(y/s) A + diag(z/u).
        u, s, z, y = prim[:size], prim[size:], dual[:size], dual[size:]
        rp, re, rd = a_mul(u) + s, 1.0 - e @ u, at_mul(y) - c + t * e - z
        mu = (u @ z + s @ y) / (size + nrows)
        ratio = dual / prim
        zu, ys = ratio[:size], ratio[size:]
        yg = ys * gain
        hmat = np.bincount(pairs, np.concatenate([-yg, -yg, ys, yg * gain]), size * size)
        # A ridge relative to each diagonal entry keeps the factor
        # independent of how the profile's entries are scaled.
        hmat[diag] = (hmat[diag] + zu) * (1.0 + 1e-14)
        try:
            low = np.linalg.cholesky(hmat.reshape(size, size))
        except np.linalg.LinAlgError:
            return None
        del hmat  # before the inversion, which makes the step's peak
        inv_l = _lower_inverse(low)

        def solve_h(b):
            return inv_l.T @ (inv_l @ b)

        q = solve_h(e)

        def newton(rc):
            rcp = rc / prim
            g = -rd - at_mul(rcp[size:] + ys * rp) + rcp[:size]
            p = solve_h(g)
            step_t = (e @ p - re) / (e @ q)
            du, dt = p - step_t * q, step_t
            # A second pass refines on the dual residual taken through A.
            p = solve_h(g - at_mul(ys * a_mul(du)) - zu * du - dt * e)
            step_t = (e @ p - re + e @ du) / (e @ q)
            du, dt = du + p - step_t * q, dt + step_t
            dprim = np.concatenate([du, -rp - a_mul(du)])
            return dprim, (rc - dual * dprim) / prim, dt

        dp, dd, dt = newton(-prim * dual)
        pa, da = prim + _max_step(prim, dp) * dp, dual + _max_step(dual, dd) * dd
        gap_aff = pa[:size] @ da[:size] + pa[size:] @ da[size:]
        sigma_mu = (gap_aff / (size + nrows) / mu) ** 3 * mu
        dp, dd, dt = newton(sigma_mu - prim * dual - dp * dd)
        eta = max(_STEP, min(1.0 - mu, cap))
        ad = eta * _max_step(dual, dd)
        return prim + eta * _max_step(prim, dp) * dp, dual + ad * dd, t + ad * dt


def _interior_point(c, e, rows, eps, alph, kernel, cap, state):
    """One interior-point run at the step cap cap, as a generator: after
    each certificate it yields (lower, upper, w, steps), the best bounds
    on ln max c.u / e.u so far, the log-witness w attaining lower and the
    steps taken.  It starts from state, such a tuple whose bounds hold
    whatever iterate they came from, and tightens them by what the
    envelope of each iterate's ln u attains and by _upper at its duals,
    kernel being K of e.  The run ends once the bounds meet within
    _DIRECTION_GAP, after certifying the iterate of step _MAX_ITER, or
    when an iterate or a bound is not finite; in the last case it yields
    its bounds once more with the steps taken.  The iterate is two
    vectors, the primal [u, s] and the dual [z, y], so each side moves as
    one."""
    size, gain = rows.size, rows.gain
    # u = 1 meets e.u = 1 and every row within its slack; the duals put
    # each product u z and s y at 1/size.
    prim, t = np.concatenate([np.ones(size), gain]), 1.0
    dual = np.concatenate([np.full(size, 1.0 / size), 1.0 / (size * gain)])
    lower, upper, witness, before = state
    for it in range(_MAX_ITER + 1):
        if not (np.isfinite(prim).all() and np.isfinite(dual).all() and math.isfinite(t)):
            break
        with np.errstate(all="ignore"):
            w = _envelope(np.log(prim[:size]), eps, alph)
            low_here, up_here = _attained(c, e, w), _upper(dual[size:], t, c, e, rows, kernel)
        if math.isnan(low_here) or math.isnan(up_here):
            break
        if low_here > lower:
            lower, witness = low_here, w
        upper = min(upper, up_here)
        yield lower, upper, witness, before + it
        if upper - lower <= _DIRECTION_GAP or it == _MAX_ITER:
            return
        stepped = _step(prim, dual, t, c, e, rows, cap)
        if stepped is None:
            return
        prim, dual, t = stepped
    yield lower, upper, witness, before + it


def _lockstep(runs, best=-math.inf):
    """The last state (lower, upper, ...) that each direction's run in the
    mapping runs yielded, every run advanced one certificate per round;
    runs is emptied.
    A run ends once its bounds meet within _DIRECTION_GAP or it has no
    more to yield.  After each round, an open run whose upper bound is at
    most best, the best lower bound of any direction, plus _DIRECTION_GAP
    is stopped: it cannot beat that direction by more."""
    states = {}
    while runs:
        for z, run in list(runs.items()):
            state = next(run, None)
            if state is not None:
                states[z] = state
            if state is None or state[1] - state[0] <= _DIRECTION_GAP:
                del runs[z]
        best = max(best, *(state[0] for state in states.values()))
        for z in [z for z in runs if states[z][1] <= best + _DIRECTION_GAP]:
            del runs[z]
    return states


def nu_exact(
    dist: JointDistribution,
    budget: PrivacyBudget,
    a: int,
    cap: int = DEFAULT_LP_CAP,
) -> NuCertificate:
    """Exact inference parameter of coordinate a under the budget.

    Finds a's dependence block C first (module docstring) and solves the
    LP on the prior's marginal on C with C's budget, one per ordered pair
    of supported target values, all in lockstep (_lockstep).  A direction
    whose upper bound falls to within half of GAP_TOL of another's lower
    bound is stopped, as it cannot change nu, nu_upper's window or the
    witness except where the two tie within that margin.  The directions
    the step rule leaves open that could still win run again at the fixed
    step, in a second lockstep round; one that still ends open and could
    win raises LPError.  The best certified direction wins: a later
    direction wins only when it beats the best by more than half of
    GAP_TOL, so for a symmetric binary target a tie reports (0, 1).  The
    witness is the winning direction's profile scaled to maximum entry
    one and held constant along the coordinates outside C; it must meet
    the budget under dp_audit, and its replay through mechanism_nu on the
    whole prior, which is reported as nu, must lie within GAP_TOL below
    the largest upper bound.  When C leaves coordinates out, that
    bound is widened by 4 _BLOCK_TOL and the window by twice that.
    SizeCap is raised when the LP on C would have more than 2**(cap - 1)
    variables, or need more than _LP_BYTE_CAP bytes.
    """
    n, alph = dist.n, dist.alphabet_size
    if budget.n != n:
        raise DimensionMismatch(f"budget length {budget.n} != n={n}")
    a = check_coordinate(n, a)
    block, probs = _dependence_block(dist, a)
    k = len(block)
    size = alph ** (k - 1)
    # size > 2**(cap - 1), without forming a power of --lp-cap.
    if (int(size) - 1).bit_length() >= cap:
        raise SizeCap(f"LP over {alph}**{k - 1} profile cells exceeds the cap 2**{cap - 1} "
                      f"(--lp-cap {cap})")
    if 48 * size**2 > _LP_BYTE_CAP:
        raise SizeCap(f"LP over {size} variables needs {48 * size**2} bytes, cap {_LP_BYTE_CAP}")
    gains = np.empty(k)
    for i, coord in enumerate(block):
        try:
            gains[i] = math.exp(budget.eps[coord])
        except OverflowError:
            raise LPError(f"eps_{coord} = {budget.eps[coord]} overflows the constraint "
                          f"coefficient e^eps_{coord}") from None
    a_block = block.index(a)
    # The prior on C given x_a = z, for every supported z.
    cond = {}
    for z, face in enumerate(faces(probs, k, alph, a_block)):
        mass = math.fsum(face.tolist())
        if mass > 0.0:
            cond[z] = face / mass
    supported = list(cond)
    if len(supported) < 2:
        raise DegenerateDistribution(f"coordinate {a} is deterministic under the prior")

    eps = budget.eps[[c for c in block if c != a]]
    rows = _ratio_rows(k - 1, alph, np.delete(gains, a_block))
    eps_a = float(budget.eps[a])
    directions = [(z0, z1) for z0 in supported for z1 in supported if z0 != z1]

    kernels = {z: _kernel(cond[z], eps, alph) for z in supported}
    # Direction (z0, z1) starts from the maximally z1-biased profile, which
    # meets the budget and is optimal for affiliated priors, unless its
    # mass underflows, and from the upper bound at y = 0 and t = 0.
    starts = {}
    for z0, z1 in directions:
        seed = max_biased_log(eps, z1, alph)
        with np.errstate(all="ignore"):
            lower = _attained(cond[z1], cond[z0], seed)
            upper = _upper(np.zeros(rows.lo.size), 0.0, cond[z1], cond[z0], rows, kernels[z0])
        starts[z0, z1] = (-math.inf if math.isnan(lower) else lower, upper, seed, 0)

    def run(z, cap, state):
        return _interior_point(cond[z[1]], cond[z[0]], rows, eps, alph, kernels[z[0]], cap, state)

    first = _lockstep({z: run(z, _STEP_CAP, starts[z]) for z in directions})
    best_lower = max(state[0] for state in first.values())
    # A direction the step rule leaves open that can still win runs again
    # at the fixed _STEP, from the bounds it has.
    restarted = [z for z, (lower, upper, _, _) in first.items()
                 if upper - lower > _DIRECTION_GAP and upper > best_lower + _DIRECTION_GAP]
    states = {**first, **_lockstep({z: run(z, _STEP, first[z]) for z in restarted},
                                   best_lower)}
    best_lower = max(state[0] for state in states.values())
    best = None
    nu_upper = -math.inf
    per_direction: Dict[Tuple[int, int], float] = {}
    steps: Dict[Tuple[int, int], int] = {}
    stopped: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for z in directions:
        lower, upper, w, steps[z] = states[z]
        nu_upper = max(nu_upper, eps_a + upper)
        if upper - lower <= _DIRECTION_GAP:
            value = eps_a + lower
            per_direction[z] = value
            if best is None or value > best[0] + _DIRECTION_GAP:
                best = (value, z, w)
        elif upper <= best_lower + _DIRECTION_GAP:
            # Open, but it cannot win, whether _lockstep stopped it or
            # its runs ended.
            per_direction[z] = eps_a + upper
            stopped[z] = (eps_a + lower, eps_a + upper)
        else:
            raise LPError(
                f"direction {z} not certified after {first[z][3]} interior-point "
                f"iterations, nor after {steps[z] - first[z][3]} on restart at the fixed step "
                f"{_STEP}: nu in [{eps_a + lower}, {eps_a + upper}]"
            )

    _, direction, w = best
    layers = [w + (eps_a if v == direction[1] else 0.0) for v in range(alph)]
    logm = np.stack([cell_tensor(f, k - 1, alph) for f in layers], axis=a_block)
    # Constant along the coordinates outside the block.
    rest = tuple(c for c in range(n) if c not in block)
    logm = np.broadcast_to(np.expand_dims(logm, rest), (alph,) * n).reshape(-1, order="F")
    values = np.exp(logm - logm.max())
    if values.min() <= 0.0:
        raise LPError("witness entries underflow: the budget spans more than e^745")
    witness = EventProfile(n=n, alphabet_size=alph, values=values)
    if np.any(dp_audit(witness).eps > budget.eps + _AUDIT_TOL):
        raise LPError("witness violates the privacy budget beyond tolerance")
    nu = mechanism_nu(dist, witness, a)
    # The block's LP bounds nu on p_C (x) p_rest; the prior is within
    # _BLOCK_TOL of it cell by cell, which moves both ends.
    spread = 4 * _BLOCK_TOL if rest else 0.0
    nu_upper += spread
    lowest = nu_upper - GAP_TOL - 2 * spread
    if not lowest - 1e-12 <= nu <= nu_upper + 1e-12:
        raise LPError(f"witness replay {nu} lies outside [{lowest}, {nu_upper}]")
    # A feasible witness attains nu, so roundoff alone can put it above.
    nu_upper = max(nu_upper, nu)
    with np.errstate(over="ignore"):
        lp_objective = float(np.exp(nu))
    return NuCertificate(
        nu=nu,
        nu_upper=nu_upper,
        direction=direction,
        witness=witness,
        lp_objective=lp_objective,
        per_direction=per_direction,
        steps=steps,
        restarted=tuple(restarted),
        stopped=stopped,
    )
