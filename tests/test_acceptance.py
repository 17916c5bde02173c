"""Acceptance gate: the twelve release criteria, one test each.

Every test checks its stated tolerance and runtime budget, and prints a
single machine-greppable PASS line (visible under pytest -s or -rA).
Randomized criteria use fixed seeds so the gate is reproducible.
"""

import itertools
import math
import time

import numpy as np

from conftest import random_budget, random_prior
from infera.affiliated import nu_closed_form, random_affiliated
from infera.bethe import bethe_fixed_point, nu_bethe_limit, sensitivity_profile
from infera.dist import from_dense, parity_constrained, perfectly_correlated, product
from infera.influence import dobrushin_bounds, influence_matrix, product_ratio_bound, spectral_norm
from infera.ising import nu_tree, tree_prior
from infera.lp_exact import nu_exact
from infera.mechanism import (
    PrivacyBudget,
    max_biased_profile,
    mechanism_nu,
    noisy_sum_tail_profile,
    parity_mechanism_m1_profile,
    sample_noisy_sum,
)
from lp_oracle import nu_grid_search, nu_vertex_enumeration


def _finish(num, t0, budget_s, detail):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"criterion {num:02d}: PASS in {elapsed:.2f}s (budget {budget_s:.0f}s) - {detail}")


def test_criterion_01_twins_scale_with_population():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        for eps in (0.1, 0.5):
            d = perfectly_correlated(n, 0.5)
            nu = nu_exact(d, PrivacyBudget.uniform(n, eps), 0).nu
            worst = max(worst, abs(nu - n * eps))
    assert worst <= 1e-6
    _finish(1, t0, 1, f"nu = n*eps on clone priors, worst gap {worst:.2e}")


def test_criterion_02_independence_recovers_own_budget():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        marginals = [[1.0 - p, p] for p in rng.uniform(0.05, 0.95, size=n)]
        d = product(marginals)
        b = random_budget(rng, n)
        a = int(rng.integers(n))
        worst = max(worst, abs(nu_exact(d, b, a).nu - b.eps[a]))
    assert worst <= 1e-6
    _finish(2, t0, 10, f"nu = eps_a on 20 product priors, worst gap {worst:.2e}")


def test_criterion_03_closed_form_equals_lp_with_matching_witness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_nu, worst_witness = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        d = random_affiliated(n, rng)
        b = random_budget(rng, n, low=0.05, high=1.0)
        a = int(rng.integers(n))
        cert = nu_exact(d, b, a)
        closed = nu_closed_form(d, b, a)
        worst_nu = max(worst_nu, abs(cert.nu - closed.nu))
        ref = max_biased_profile(n, b, cert.direction[1]).values
        ratio = cert.witness.values / ref
        worst_witness = max(worst_witness, float(ratio.max() / ratio.min()) - 1.0)
    assert worst_nu <= 1e-6
    assert worst_witness <= 1e-6
    _finish(
        3, t0, 60,
        f"50 affiliated priors: nu gap {worst_nu:.2e}, witness ratio spread {worst_witness:.2e}",
    )


def test_criterion_04_noisy_sum_tail_and_sampler():
    t0 = time.perf_counter()
    for n, eps in [(2, 0.2), (2, 0.5), (3, 0.5)]:
        for z in (0, 1):
            tail = noisy_sum_tail_profile(n, eps, z).values
            ref = max_biased_profile(n, PrivacyBudget.uniform(n, eps), z).values
            assert np.array_equal(tail, 0.5 * ref)
    eps, total = 0.5, 10**5
    out = sample_noisy_sum([1, 0], eps, rng_seed=20260819, count=total)
    phat = float(np.mean(out <= 0.0))
    p = 0.5 * math.exp(-eps)
    sigma = math.sqrt(p * (1.0 - p) / total)
    assert abs(phat - p) <= 3.0 * sigma
    _finish(
        4, t0, 5,
        f"tail profile exactly 0.5x biased; tail freq off by {abs(phat - p) / sigma:.2f} sigma",
    )


def test_criterion_05_parity_summary_beats_biased_mechanisms():
    t0 = time.perf_counter()
    eps = 0.2
    d = parity_constrained(2, 2)
    b = PrivacyBudget.uniform(5, eps)
    nu_summary = mechanism_nu(d, parity_mechanism_m1_profile(2, 2, eps), 0)
    nu_biased = max(
        mechanism_nu(d, max_biased_profile(5, b, z), 0) for z in (0, 1)
    )
    nu_lp = nu_exact(d, b, 0).nu
    assert nu_summary >= 0.6 - 1e-9
    assert nu_biased <= 0.36 + 1e-9
    assert nu_lp >= nu_summary - 1e-9
    _finish(
        5, t0, 5,
        f"summary leaks {nu_summary:.4f} >= 0.6, biased {nu_biased:.4f} <= 0.36, exact {nu_lp:.4f}",
    )


def test_criterion_06_influence_bounds_are_sound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 30:
        n = int(rng.integers(2, 5))
        d = from_dense(n, 2, 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=2**n))
        matrix = influence_matrix(d)
        if matrix.unbounded or spectral_norm(matrix.gamma) >= 1.0:
            continue
        b = random_budget(rng, n, low=0.05, high=0.6)
        bound = dobrushin_bounds(matrix, b)
        for a in range(n):
            nu = nu_exact(d, b, a).nu
            assert nu <= bound.nu_bound[a] + 1e-6
            if bound.nu_delta_bound is not None:
                assert nu <= bound.nu_delta_bound[a] + 1e-6
        checked += 1
    _finish(6, t0, 60, "series and row-condition bounds dominate nu on 30 priors")


def test_criterion_07_branch_recursion_matches_enumeration():
    t0 = time.perf_counter()
    J, h = 0.3, 0.1
    prior = tree_prior(d=2, depth=3, J=J, h0=h)
    n = prior.n
    assert n == 15
    digits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    sigma = 1.0 - 2.0 * digits
    energy = h * sigma.sum(axis=1)
    for i, j in zip(prior.i, prior.j):
        energy += J * sigma[:, i] * sigma[:, j]
    w = np.exp(energy - energy.max())
    up = float(w[digits[:, 0] == 0].sum())
    down = float(w[digits[:, 0] == 1].sum())
    want = math.log(up / down)
    # ln(root odds) under the field h is the root's leakage at zero field
    # under the budget 2h.
    zero_field = tree_prior(d=2, depth=3, J=J)
    got = nu_tree(zero_field, PrivacyBudget.uniform(n, 2.0 * h))[0]
    gap = abs(got - want)
    assert gap <= 1e-9
    _finish(7, t0, 2, f"15-node root log-odds gap {gap:.2e}")


def test_criterion_08_fixed_point_laws():
    t0 = time.perf_counter()
    assert bethe_fixed_point(0.4, 0.0, 2) == 1.0
    assert bethe_fixed_point(0.9, 0.0, 5) == 1.0
    for h in (0.3, -0.2, 1.0):
        assert abs(bethe_fixed_point(0.0, h, 2) - math.exp(2.0 * h)) <= 1e-12
    tilt = math.log(bethe_fixed_point(0.7, 1e-6, 2))
    assert tilt > 0.05
    _finish(8, t0, 1, f"x(J,0)=1, x(0,h)=e^2h, supercritical tilt {tilt:.3f} > 0.05")


def test_criterion_09_slope_exceeds_row_condition_rate():
    t0 = time.perf_counter()
    slopes = {}
    for delta in (0.5, 0.25):
        J = math.atanh((1.0 - delta) / 2.0)
        slope = nu_bethe_limit(J, 1e-6, 2) / 1e-6
        assert slope > 1.0 / delta
        slopes[delta] = slope
    _finish(
        9, t0, 1,
        "dnu/deps " + ", ".join(f"{s:.2f} > {1/d:.0f} at delta={d}" for d, s in slopes.items()),
    )


def test_criterion_10_sensitivity_regimes():
    t0 = time.perf_counter()
    # Frozen configuration found by search: deep ordered phase with a
    # pinning base field flips from near-silent to saturated leakage.
    (e0, v0), (e1, v1) = sensitivity_profile(3.0, 0.3, 2, [0.2, 1.0])
    assert v0 / e0 < 2.0
    assert v1 / e1 > 10.0
    _finish(10, t0, 1, f"nu/eps = {v0 / e0:.3f} < 2 at eps=0.2, {v1 / e1:.2f} > 10 at eps=1.0")


def test_criterion_11_product_bound_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(1000):
        a = float(rng.uniform(0.01, 2.5))
        b = float(rng.uniform(0.01, 2.5))
        cap = product_ratio_bound(a, b)
        assert cap <= math.exp(a * b) + 1e-12
        k = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(k))
        va = np.exp(rng.uniform(0.0, 2.0 * a, size=k))
        vb = np.exp(np.sort(rng.uniform(0.0, 2.0 * b, size=k))[np.argsort(np.argsort(va))])
        gap = float(p @ (va * vb)) / (float(p @ va) * float(p @ vb))
        assert gap <= cap + 1e-12
    _finish(11, t0, 2, "1000 instances: gap <= cap <= e^(ab), slack 1e-12")


def test_criterion_12_exact_lp_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(8):
        n = int(rng.integers(2, 4))
        d = random_prior(rng, n, floor=1e-3)
        b = random_budget(rng, n)
        a = int(rng.integers(n))
        ref = nu_vertex_enumeration(d, b.eps, a)
        worst = max(worst, abs(nu_exact(d, b, a).nu - ref))
    for _ in range(3):
        d = random_prior(rng, 2, floor=1e-2)
        b = random_budget(rng, 2)
        ref = nu_grid_search(d, b.eps, 0)
        worst = max(worst, abs(nu_exact(d, b, 0).nu - ref))
    assert worst <= 1e-3
    _finish(12, t0, 30, f"vertex and grid oracles agree, worst gap {worst:.2e}")
