"""Reference computations written apart from infera.

Nothing here imports infera.  Priors are flat numpy vectors over binary
databases in the package's little-endian order: index(x) = sum_i x_i 2^i.
The LP oracle needs scipy, which infera does not depend on; it is
imported only when called, after the timed phase.
"""

from __future__ import annotations

import math

import numpy as np


def bits(n: int) -> np.ndarray:
    """(2^n, n) array of 0/1 digits, coordinate k in column k."""
    return (np.arange(2**n)[:, None] >> np.arange(n)) & 1


def cond_mean(p: np.ndarray, n: int, a: int, z: int, values: np.ndarray) -> float:
    """E[values(x) | x_a = z] under the prior p."""
    on = bits(n)[:, a] == z
    return float(np.sum(p[on] * values[on]) / np.sum(p[on]))


def biased_nu(p: np.ndarray, n: int, eps: np.ndarray, a: int) -> float:
    """Leakage of the better of the two maximally biased mechanisms.

    The z-biased event has acceptance exp(-sum_i eps_i |x_i - z|); its
    leakage is the log ratio of its conditional acceptance given x_a = z
    and given x_a = 1 - z.  On a positively affiliated prior this is the
    exact inference parameter.
    """
    x = bits(n)
    best = 0.0
    for z in (0, 1):
        m = np.exp(-(np.abs(x - z) @ eps))
        ratio = cond_mean(p, n, a, z, m) / cond_mean(p, n, a, 1 - z, m)
        best = max(best, abs(math.log(ratio)))
    return best


def tree_prior(d: int, depth: int, J: float, h0: float) -> np.ndarray:
    """Ising Gibbs weights on the complete d-ary tree, built from its edges.

    Node k > 0 hangs below node (k - 1) // d; spin s_k = 1 - 2 x_k.
    """
    n = (d ** (depth + 1) - 1) // (d - 1)
    s = 1.0 - 2.0 * bits(n)
    energy = h0 * s.sum(axis=1)
    for k in range(1, n):
        energy += J * s[:, k] * s[:, (k - 1) // d]
    w = np.exp(energy - energy.max())
    return w / w.sum()


def affiliation_witness_holds(p: np.ndarray, x1, x2) -> bool:
    """True when (x1, x2) breaks p(x1 v x2) p(x1 ^ x2) >= p(x1) p(x2)."""
    i1 = sum(int(b) << k for k, b in enumerate(x1))
    i2 = sum(int(b) << k for k, b in enumerate(x2))
    return p[i1 | i2] * p[i1 & i2] < p[i1] * p[i2]


def affiliated_full(p: np.ndarray) -> bool:
    """Log-supermodularity over every pair of databases (small n only)."""
    idx = np.arange(p.size)
    join = idx[:, None] | idx[None, :]
    meet = idx[:, None] & idx[None, :]
    return bool(np.all(p[join] * p[meet] >= p[:, None] * p[None, :] * (1.0 - 1e-12)))


def affiliated_adjacent(p: np.ndarray, n: int) -> bool:
    """Log-supermodularity over pairs differing in two coordinates.

    Exact for strictly positive priors.
    """
    idx = np.arange(2**n)
    for i in range(n):
        for j in range(i + 1, n):
            lo = idx[((idx >> i) & 1 == 0) & ((idx >> j) & 1 == 0)]
            hi = lo + (1 << i) + (1 << j)
            if np.any(p[hi] * p[lo] < p[lo + (1 << i)] * p[lo + (1 << j)] * (1.0 - 1e-12)):
                return False
    return True


def pairwise_positive(p: np.ndarray, n: int) -> bool:
    x = bits(n).astype(np.float64)
    mean = p @ x
    second = x.T @ (p[:, None] * x)
    cov = second - np.outer(mean, mean)
    return bool(np.all(cov[np.triu_indices(n, 1)] >= -1e-12))


def influence(p: np.ndarray, n: int) -> np.ndarray:
    """gamma_ij = 1/2 max ln of the ratio of Pr(x_i | rest) across a flip of x_j.

    Strictly positive priors only.
    """
    idx = np.arange(2**n)
    gamma = np.zeros((n, n))
    for i in range(n):
        q = p / (p + p[idx ^ (1 << i)])
        for j in range(n):
            if j != i:
                gamma[i, j] = 0.5 * math.log(float(np.max(q / q[idx ^ (1 << j)])))
    return gamma


def lp_nu(p: np.ndarray, n: int, eps: np.ndarray, a: int) -> float:
    """Exact inference parameter by scipy's HiGHS on a formulation of our own.

    For each ordered pair (z0, z1) of supported target values, maximise
    E[m | x_a = z1] subject to E[m | x_a = z0] = 1, m >= 0 and
    m(x) <= e^{eps_i} m(x ^ e_i) for every i and x.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    size = 2**n
    x = bits(n)
    rows, cols, vals = [], [], []
    r = 0
    for i in range(n):
        g = math.exp(eps[i])
        for lo in np.flatnonzero(x[:, i] == 0):
            hi = lo + (1 << i)
            for u, v in ((lo, hi), (hi, lo)):
                rows += [r, r]
                cols += [u, v]
                vals += [1.0, -g]
                r += 1
    a_ub = coo_matrix((vals, (rows, cols)), shape=(r, size)).tocsr()
    best = -math.inf
    for z0, z1 in ((0, 1), (1, 0)):
        on0, on1 = x[:, a] == z0, x[:, a] == z1
        if p[on0].sum() <= 0.0 or p[on1].sum() <= 0.0:
            continue
        c = np.where(on1, p, 0.0) / p[on1].sum()
        e = np.where(on0, p, 0.0) / p[on0].sum()
        res = linprog(-c, A_ub=a_ub, b_ub=np.zeros(r), A_eq=e[None, :], b_eq=[1.0],
                      bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
        best = max(best, math.log(-res.fun))
    return best


def dp_eps(values: np.ndarray, n: int) -> np.ndarray:
    """Tightest per-coordinate budget an acceptance profile satisfies."""
    logs = np.log(values)
    idx = np.arange(2**n)
    return np.array([np.max(np.abs(logs - logs[idx ^ (1 << i)])) for i in range(n)])


def replay_nu(p: np.ndarray, n: int, values: np.ndarray, a: int) -> float:
    """Leakage of one acceptance profile about coordinate a."""
    r = cond_mean(p, n, a, 1, values) / cond_mean(p, n, a, 0, values)
    return abs(math.log(r))


def branch_log(J: float, h: float, d: int, u: float) -> float:
    """One step of the branch recursion in log scale, u = ln x."""
    t = math.tanh(J)
    # (e^J x + e^-J) / (e^J + e^-J x) = (1 + t) x + (1 - t) over (1 + t) + (1 - t) x
    x = math.exp(u)
    return 2.0 * h + d * (math.log((1 + t) * x + (1 - t)) - math.log((1 + t) + (1 - t) * x))


def bethe_log_x(J: float, h: float, d: int, cap: int = 10**7) -> float:
    """ln of the branch fixed point reached from x = 1."""
    u = 0.0
    for _ in range(cap):
        nxt = branch_log(J, h, d, u)
        if abs(nxt - u) <= 1e-14 * max(1.0, abs(u)):
            return nxt
        u = nxt
    raise RuntimeError(f"oracle fixed point did not settle at J={J}, h={h}")


def bethe_residual(J: float, h: float, d: int, x: float) -> float:
    return abs(x - math.exp(branch_log(J, h, d, math.log(x))))


def nu_limit(J: float, eps: float, d: int) -> float:
    """Deep-tree leakage (Delta/(Delta-1)) ln x - eps/(Delta-1), Delta = d + 1."""
    return ((d + 1) / d) * bethe_log_x(J, 0.5 * eps, d) - eps / d


def x_from_nu_limit(nu: float, eps: float, d: int) -> float:
    return math.exp((nu + eps / d) * d / (d + 1))


def sensitivity(J: float, h0: float, d: int, eps: float) -> float:
    w0 = bethe_log_x(J, h0, d)
    return max(bethe_log_x(J, h0 + 0.5 * eps, d) - w0, w0 - bethe_log_x(J, h0 - 0.5 * eps, d))


def enforce_ok(target: float, J: float, d: int, got) -> str:
    """Empty when `got` is the largest budget whose limit leakage stays
    at or below the target, else a reason."""
    if got is None:
        return "" if nu_limit(J, 1e-8, d) > target else "returned None below the floor"
    if nu_limit(J, got, d) > target + 1e-9:
        return f"nu({got}) exceeds the target {target}"
    if got < target - 1e-9 and nu_limit(J, got + 1e-8, d) < target - 1e-9:
        return f"budget {got} is not the largest"
    return ""
