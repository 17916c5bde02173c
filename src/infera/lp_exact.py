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
predictor-corrector method drives this LP.  No iterate is trusted: after
every iteration two bounds are computed from it by code that does not
depend on how it was found.

* Lower: the largest eps-Lipschitz minorant w of ln u meets the budget by
  construction, and eps_a + ln(c.e^w / e.e^w) is attained by it.  Before
  the first iteration, the maximally z1-biased profile
  w = -sum_i eps_i [x_i != z1] gives the bound.
* Upper: for any y >= 0 and any t, every feasible u has u(x) K(x) <= e.u
  = 1, where K(x) = sum_s e(s) e^{-d(x, s)} and d is the eps-weighted
  Hamming metric.  So c.u <= t + sum_x max(0, c - A^T y - t e)(x) / K(x).

A direction is certified once the two meet; an LPError names both bounds
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .dist import JointDistribution, cell_tensor, digit_table, faces
from .errors import DegenerateDistribution, DimensionMismatch, LPError, SizeCap
from .mechanism import EventProfile, PrivacyBudget, dp_audit, mechanism_nu

# The LP of a binary prior at n = 12 has 2**11 variables and a 32 MB
# normal matrix; nu_exact on a dense such prior took 18 s at 218 MB peak
# RSS (one BLAS thread, 2-vCPU VM).  Other alphabets get the same count.
DEFAULT_LP_CAP = 12

# Width of the certified interval [nu, nu_upper].
GAP_TOL = 1e-9

# Each direction closes to half of GAP_TOL, and a later direction must beat
# the best by more than that to win: the winner's witness then attains
# within GAP_TOL of the largest upper bound, and two directions that tie
# in exact arithmetic keep value order.
_DIRECTION_GAP = 0.5 * GAP_TOL
_MAX_ITER = 200
_STEP = 0.99
_AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class NuCertificate:
    """Exact inference parameter with its optimizing event profile.

    nu is what the witness attains through mechanism_nu; no feasible
    profile leaks more than nu_upper, and nu_upper - nu <= GAP_TOL.
    """

    nu: float
    nu_upper: float
    direction: Tuple[int, int]
    witness: EventProfile
    lp_objective: float
    per_direction: Dict[Tuple[int, int], float] = field(default_factory=dict)


def _ratio_rows(n: int, alph: int, gains: np.ndarray):
    """Rows u(lo) <= gain u(hi) of the budget over alph**n cells, as three
    arrays: one row per coordinate and ordered pair of its values."""
    cells = np.arange(alph**n)
    rows = [
        (face[u], face[v], gains[i])
        for i in range(n)
        for face in (faces(cells, n, alph, i),)
        for u in range(alph)
        for v in range(alph)
        if u != v
    ]
    if not rows:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    lo, hi, gain = zip(*rows)
    return np.concatenate(lo), np.concatenate(hi), np.repeat(gain, lo[0].size)


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
    return min(1.0, float(np.min(-v[neg] / dv[neg], initial=np.inf)))


def _certify(c, e, rows, eps, alph, seed):
    """(lower, upper, w, iterations): bounds on ln max c.u / e.u over the
    profiles that meet the rows, the log-witness w attaining lower, and
    the iterations taken.  The log-profile seed, which must meet the
    budget, is the first witness.  Stops once the bounds meet within
    _DIRECTION_GAP, at the iteration cap, or when an iterate or a bound
    is not finite."""
    lo, hi, gain = rows
    size, nrows = c.size, lo.size
    kernel = _kernel(e, eps, alph)

    def a_mul(v):
        return v[lo] - gain * v[hi]

    def at_mul(r):
        return np.bincount(lo, r, size) - np.bincount(hi, gain * r, size)

    def attained(w):
        m = np.exp(w - w.max())
        return float(np.log(c @ m) - np.log(e @ m))

    # Bound on the rounding error of c - A^T y - t e, per unit of the
    # magnitudes summed into each cell: the upper bound must not drop
    # below the truth when A^T y cancels.
    rounding = (nrows // size + 3) * np.finfo(float).eps

    # Flat positions in the normal matrix of the entries (lo, hi), (hi, lo),
    # (lo, lo) and (hi, hi) that each row touches.
    pairs = np.concatenate([lo * size + hi, hi * size + lo, lo * (size + 1), hi * (size + 1)])
    diag = np.arange(size) * (size + 1)

    # u = 1 meets e.u = 1 and every row within its slack; the duals put
    # each product u z and s y at 1/size.
    u, z, t = np.ones(size), np.full(size, 1.0 / size), 1.0
    s, y = gain.copy(), 1.0 / (size * gain)
    lower, upper, witness = -math.inf, math.inf, None
    with np.errstate(all="ignore"):
        first = attained(seed)  # NaN where the seed's mass underflows
        if first > lower:
            lower, witness = first, seed
        for it in range(_MAX_ITER):
            if not all(np.all(np.isfinite(v)) for v in (u, s, y, z, t)):
                break
            # Certificate, from the iterate alone.
            w = _envelope(np.log(u), eps, alph)
            pos, neg = np.bincount(lo, y, size), np.bincount(hi, gain * y, size)
            resid = c - (pos - neg) - t * e
            rd = -resid - z
            resid += rounding * (pos + neg + abs(t) * e + c)
            excess = np.divide(resid, kernel, out=np.zeros(size), where=resid > 0.0)
            low_here = attained(w)
            up_here = float(np.log(t + excess.sum()))
            if math.isnan(low_here) or math.isnan(up_here):
                break
            if low_here > lower:
                lower, witness = low_here, w
            upper = min(upper, up_here)
            if upper - lower <= _DIRECTION_GAP:
                break

            # One predictor-corrector step.  With the slacks s = -A u and
            # the duals y, z eliminated, the Newton system is
            # H du + dt e = g, e.du = re, H = A^T diag(y/s) A + diag(z/u).
            rp = a_mul(u) + s
            re = 1.0 - e @ u
            mu = (u @ z + s @ y) / (size + nrows)
            ys, zu = y / s, z / u
            yg = ys * gain
            hmat = np.bincount(pairs, np.concatenate([-yg, -yg, ys, yg * gain]), size * size)
            hmat[diag] += zu
            # A ridge relative to each diagonal entry keeps the factor
            # independent of how the profile's entries are scaled.
            hmat[diag] *= 1.0 + 1e-14
            try:
                inv_l = _lower_inverse(np.linalg.cholesky(hmat.reshape(size, size)))
            except np.linalg.LinAlgError:
                break

            def solve_h(b):
                return inv_l.T @ (inv_l @ b)

            q = solve_h(e)

            def newton(rc_u, rc_s):
                g = -rd - at_mul(rc_s / s + ys * rp) + rc_u / u
                du, dt = np.zeros(size), 0.0
                for _ in range(2):
                    # The second pass refines against the residual of the
                    # dual equation, taken through A, not the factor.
                    p = solve_h(g - at_mul(ys * a_mul(du)) - zu * du - dt * e)
                    step_t = (e @ p - re + e @ du) / (e @ q)
                    du, dt = du + p - step_t * q, dt + step_t
                ds = -rp - a_mul(du)
                return du, ds, (rc_s - y * ds) / s, (rc_u - z * du) / u, dt

            du, ds, dy, dz, dt = newton(-u * z, -s * y)
            ap = min(_max_step(u, du), _max_step(s, ds))
            ad = min(_max_step(z, dz), _max_step(y, dy))
            gap_aff = (u + ap * du) @ (z + ad * dz) + (s + ap * ds) @ (y + ad * dy)
            sigma_mu = (gap_aff / (size + nrows) / mu) ** 3 * mu
            du, ds, dy, dz, dt = newton(sigma_mu - u * z - du * dz, sigma_mu - s * y - ds * dy)
            ap = _STEP * min(_max_step(u, du), _max_step(s, ds))
            ad = _STEP * min(_max_step(z, dz), _max_step(y, dy))
            u, s = u + ap * du, s + ap * ds
            y, z, t = y + ad * dy, z + ad * dz, t + ad * dt
    return lower, upper, witness, it


def nu_exact(
    dist: JointDistribution,
    budget: PrivacyBudget,
    a: int,
    cap: int = DEFAULT_LP_CAP,
) -> NuCertificate:
    """Exact inference parameter of coordinate a under the budget.

    Certifies one LP per ordered pair of supported target values (see the
    module docstring) and keeps the best.  A later direction wins only
    when it beats the best by more than half of GAP_TOL, so for a
    symmetric binary target a tie reports (0, 1).  The witness is the
    winning direction's profile scaled to maximum entry one; it must meet
    the budget under dp_audit, and its replay through mechanism_nu, which
    is reported as nu, must lie within GAP_TOL below the largest upper
    bound.  SizeCap is raised when the LP would have more than
    2**(cap - 1) variables.
    """
    n, alph = dist.n, dist.alphabet_size
    if budget.n != n:
        raise DimensionMismatch(f"budget length {budget.n} != n={n}")
    if alph ** (n - 1) > 2 ** (cap - 1):
        raise SizeCap(
            f"LP over {alph}**{n - 1} profile cells exceeds the cap 2**{cap - 1} (--lp-cap {cap})"
        )
    gains = np.empty(n)
    for i, ei in enumerate(budget.eps):
        try:
            gains[i] = math.exp(ei)
        except OverflowError:
            raise LPError(f"eps_{i} = {ei} overflows the constraint coefficient e^eps_{i}") from None
    marg = dist.marginal_of(a)
    supported = [z for z in range(alph) if marg[z] > 0.0]
    if len(supported) < 2:
        raise DegenerateDistribution(f"coordinate {a} is deterministic under the prior")

    eps = np.delete(budget.eps, a)
    rows = _ratio_rows(n - 1, alph, np.delete(gains, a))
    digits = digit_table(n - 1, alph)
    eps_a = float(budget.eps[a])
    best = None
    nu_upper = -math.inf
    per_direction: Dict[Tuple[int, int], float] = {}
    # The prior given x_a = z, for every supported z.
    cond = {z: face / math.fsum(face.tolist())
            for z, face in enumerate(faces(dist.probs, n, alph, a)) if z in supported}
    for z0 in supported:
        e = cond[z0]
        for z1 in supported:
            if z0 == z1:
                continue
            # The maximally z1-biased profile meets the budget and is
            # optimal for affiliated priors: it seeds the lower bound.
            seed = -((digits != z1) @ eps)
            lower, upper, w, iters = _certify(cond[z1], e, rows, eps, alph, seed)
            if not upper - lower <= _DIRECTION_GAP:
                raise LPError(
                    f"direction {(z0, z1)} not certified after {iters} interior-point "
                    f"iterations: nu in [{eps_a + lower}, {eps_a + upper}]"
                )
            value = eps_a + lower
            per_direction[(z0, z1)] = value
            nu_upper = max(nu_upper, eps_a + upper)
            if best is None or value > best[0] + _DIRECTION_GAP:
                best = (value, (z0, z1), w)

    _, direction, w = best
    layers = [w + (eps_a if v == direction[1] else 0.0) for v in range(alph)]
    logm = np.stack([cell_tensor(f, n - 1, alph) for f in layers], axis=a).reshape(-1, order="F")
    values = np.exp(logm - logm.max())
    if values.min() <= 0.0:
        raise LPError("witness entries underflow: the budget spans more than e^745")
    witness = EventProfile(n=n, alphabet_size=alph, values=values)
    if np.any(dp_audit(witness).eps > budget.eps + _AUDIT_TOL):
        raise LPError("witness violates the privacy budget beyond tolerance")
    nu = mechanism_nu(dist, witness, a)
    if not nu_upper - GAP_TOL - 1e-12 <= nu <= nu_upper + 1e-12:
        raise LPError(f"witness replay {nu} lies outside [{nu_upper - GAP_TOL}, {nu_upper}]")
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
    )
