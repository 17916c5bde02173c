"""Independent brute-force references for the exact inference parameter.

They share no code with the solver: each reads only `dist.probs`.
Two routes:

* vertex enumeration (n <= 3): the objective is a ratio of linear forms,
  so its maximum over the constraint polytope sits at a vertex.  Every
  feasible point has all entries strictly positive (the ratio constraints
  chain any zero through the hypercube and the normalization forbids the
  all-zero profile), hence a vertex activates the normalization row plus
  2**n - 1 ratio rows.  All such active sets are enumerated and solved.

* log-ratio grid search (n <= 2): direct maximization over log-profiles
  on a shrinking grid that respects the per-coordinate ratio caps.
"""

import itertools
import math

import numpy as np

from infera.dist import JointDistribution


def _direction_vectors(dist: JointDistribution, a: int, z0: int, z1: int):
    """Objective and normalization rows over the full profile space: the
    prior conditioned on x_a = z1 and on x_a = z0, cell by cell."""
    size = 2**dist.n
    c = np.zeros(size)
    d = np.zeros(size)
    for idx in range(size):
        bit = (idx >> a) & 1
        if bit == z1:
            c[idx] = dist.probs[idx]
        if bit == z0:
            d[idx] = dist.probs[idx]
    assert c.sum() > 0.0 and d.sum() > 0.0, "target value without support"
    return c / c.sum(), d / d.sum()


def _ratio_rows(n: int, eps: np.ndarray):
    """Rows r with r @ m <= 0 encoding m(x) <= e^eps_i m(x') and back."""
    size = 2**n
    rows = []
    for i in range(n):
        gain = math.exp(eps[i])
        for idx in range(size):
            if (idx >> i) & 1:
                continue
            other = idx | (1 << i)
            row = np.zeros(size)
            row[idx], row[other] = 1.0, -gain
            rows.append(row)
            row = np.zeros(size)
            row[other], row[idx] = 1.0, -gain
            rows.append(row)
    return np.asarray(rows)


def _direction_value_vertices(dist, eps, a, z0, z1):
    c, d = _direction_vectors(dist, a, z0, z1)
    rows = _ratio_rows(dist.n, eps)
    size = 2**dist.n
    best = -np.inf
    combos = np.asarray(
        list(itertools.combinations(range(rows.shape[0]), size - 1)), dtype=np.int64
    )
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    chunk = 20000
    for start in range(0, combos.shape[0], chunk):
        sel = combos[start : start + chunk]
        mats = np.empty((sel.shape[0], size, size))
        mats[:, :-1, :] = rows[sel]
        mats[:, -1, :] = d
        dets = np.linalg.det(mats)
        ok = np.abs(dets) > 1e-12
        if not np.any(ok):
            continue
        b = np.tile(rhs, (int(ok.sum()), 1))[:, :, None]
        sols = np.linalg.solve(mats[ok], b)[:, :, 0]
        feasible = np.all(np.isfinite(sols), axis=1)
        feasible &= np.all(sols >= -1e-9, axis=1)
        feasible &= np.all(sols @ rows.T <= 1e-9, axis=1)
        if np.any(feasible):
            vals = sols[feasible] @ c
            best = max(best, float(vals.max()))
    return best


def nu_vertex_enumeration(dist: JointDistribution, eps: np.ndarray, a: int) -> float:
    """Exact inference parameter by enumerating polytope vertices (n <= 3)."""
    assert dist.alphabet_size == 2 and dist.n <= 3
    eps = np.asarray(eps, dtype=np.float64)
    best = -np.inf
    for z0, z1 in ((0, 1), (1, 0)):
        best = max(best, _direction_value_vertices(dist, eps, a, z0, z1))
    return math.log(best)


def nu_grid_search(dist: JointDistribution, eps: np.ndarray, a: int) -> float:
    """Grid maximization over log-profiles for n <= 2, with refinement.

    The profile is represented by log-values with l(0) pinned to 0; each
    remaining coordinate ranges over a grid inside [-total, total].  Grid
    points violating any per-coordinate ratio cap are discarded, the
    objective ln(c . e^l) - ln(d . e^l) is evaluated on the rest, and the
    window shrinks around the best point.
    """
    assert dist.alphabet_size == 2 and dist.n <= 2
    eps = np.asarray(eps, dtype=np.float64)
    n = dist.n
    size = 2**n
    total = float(eps.sum()) + 1e-9
    pairs = []
    for i in range(n):
        for idx in range(size):
            if not (idx >> i) & 1:
                pairs.append((idx, idx | (1 << i), eps[i]))

    best_overall = -np.inf
    for z0, z1 in ((0, 1), (1, 0)):
        c, d = _direction_vectors(dist, a, z0, z1)
        center = np.zeros(size - 1)
        half = total
        best_here = -np.inf
        for _ in range(60):
            axes = [np.linspace(v - half, v + half, 11) for v in center]
            grid = np.stack(
                [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
            )
            logs = np.concatenate([np.zeros((grid.shape[0], 1)), grid], axis=1)
            ok = np.ones(grid.shape[0], dtype=bool)
            for u, v, e in pairs:
                ok &= np.abs(logs[:, u] - logs[:, v]) <= e + 1e-12
            if not np.any(ok):
                half *= 1.5
                continue
            m = np.exp(logs[ok])
            vals = np.log(m @ c) - np.log(m @ d)
            k = int(np.argmax(vals))
            best_here = max(best_here, float(vals[k]))
            center = logs[ok][k, 1:]
            half *= 0.45
        best_overall = max(best_overall, best_here)
    return best_overall
