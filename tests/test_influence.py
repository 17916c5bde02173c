"""Influence matrices, norm machinery, and the contraction bounds.

The brute-force oracle below recomputes every matrix entry from raw
probabilities with pure-python loops, independent of the vectorized
implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_budget, random_prior
from infera.dist import from_dense, perfectly_correlated, product
from infera.errors import (
    DimensionMismatch,
    SpectralNormTooLarge,
    UnboundedInfluence,
)
from infera.influence import (
    InfluenceMatrix,
    dobrushin_bounds,
    influence_matrix,
    product_ratio_bound,
    spectral_norm,
)
from infera.ising import tree_prior
from infera.lp_exact import nu_exact
from infera.mechanism import PrivacyBudget


def _conditionals(probs, n, alph, i):
    """Distribution of x_i for every assignment to the other coordinates
    (a tuple in coordinate order), None where that context has no mass."""
    weights = {}
    for idx, p in enumerate(probs):
        digits = [(idx // alph**k) % alph for k in range(n)]
        ctx = tuple(digits[:i] + digits[i + 1:])
        weights.setdefault(ctx, [0.0] * alph)[digits[i]] += p
    conds = {}
    for ctx, w in weights.items():
        total = sum(w)
        conds[ctx] = [x / total for x in w] if total > 0.0 else None
    return conds


def brute_influence(dist):
    n, alph = dist.n, dist.alphabet_size
    probs = [float(p) for p in dist.probs]
    gamma = [[0.0] * n for _ in range(n)]
    for i in range(n):
        conds = _conditionals(probs, n, alph, i)
        others = [k for k in range(n) if k != i]
        for pos, j in enumerate(others):
            worst = 1.0
            unbounded = False
            for ctx, c0 in conds.items():
                # Each unordered pair of x_j values once: c0 holds the smaller.
                for w in range(ctx[pos] + 1, alph):
                    c1 = conds[ctx[:pos] + (w,) + ctx[pos + 1:]]
                    if c0 is None or c1 is None:
                        continue
                    for v in range(alph):
                        lo, hi = min(c0[v], c1[v]), max(c0[v], c1[v])
                        if hi == 0.0:
                            continue
                        if lo == 0.0:
                            unbounded = True
                            break
                        worst = max(worst, hi / lo)
            gamma[i][j] = math.inf if unbounded else 0.5 * math.log(worst)
    return np.array(gamma)


@st.composite
def _zero_masked_priors(draw):
    """Prior with n <= 5 over alphabet 2 or 3, with zero cells that empty
    whole contexts of one coordinate or change its conditional support."""
    alph = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 5 if alph == 2 else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (alph,) * n
    w = rng.uniform(0.05, 1.0, size=shape)
    digit = np.indices(shape)
    for mask in draw(st.lists(st.sampled_from(["cells", "contexts", "support"]), max_size=3)):
        i, j = rng.integers(n, size=2)
        if mask == "cells":
            w[rng.uniform(size=shape) < 0.3] = 0.0
        elif mask == "contexts":
            # One draw per context of x_i, so a hit empties the whole context.
            hit = rng.uniform(size=shape[:i] + (1,) + shape[i + 1:]) < 0.3
            w[np.broadcast_to(hit, shape)] = 0.0
        else:
            # x_i = u is off the support exactly where x_j = v.
            u, v = rng.integers(alph, size=2)
            w[(digit[i] == u) & (digit[j] == v)] = 0.0
    flat = w.reshape(-1, order="F")
    assume(flat.sum() > 0.0)
    return from_dense(n, alph, flat)


# --- matrix entries -----------------------------------------------------

def test_product_prior_has_zero_influence():
    d = product([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
    m = influence_matrix(d)
    # Division round-off can leave ratios an ulp away from one.
    assert np.allclose(m.gamma, 0.0, rtol=0, atol=1e-15)
    assert not m.unbounded


def test_matches_oracle_on_random_priors():
    rng = np.random.default_rng(51)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        d = random_prior(rng, n, floor=1e-3)
        got = influence_matrix(d).gamma
        want = brute_influence(d)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_tree_entries_closed_form():
    J = 0.2
    model = tree_prior(d=2, depth=2, J=J, h0=0.0)
    d = model.dense()
    got = influence_matrix(d).gamma
    # A node's conditional given everything else sees only its neighbors,
    # and the worst context minimizes the surrounding field.  With m other
    # neighbors the entry is J + log(cosh((m+1)J) / cosh((m-1)J)) / 2.
    leaf = J
    root = J + 0.5 * math.log(math.cosh(2 * J))
    middle = J + 0.5 * math.log(math.cosh(3 * J) / math.cosh(J))
    assert abs(got[3, 1] - leaf) <= 1e-12
    assert abs(got[0, 1] - root) <= 1e-12
    assert abs(got[0, 2] - root) <= 1e-12
    assert abs(got[1, 0] - middle) <= 1e-12
    assert abs(got[1, 3] - middle) <= 1e-12
    # Non-neighbors exert no influence through a fixed separator.
    assert abs(got[1, 2]) <= 1e-15
    assert abs(got[3, 0]) <= 1e-15
    assert abs(got[3, 4]) <= 1e-15
    assert np.allclose(got, brute_influence(d), rtol=0, atol=1e-12)


def test_deterministic_coupling_is_unbounded():
    m = influence_matrix(perfectly_correlated(2, 0.5))
    assert m.unbounded
    assert math.isinf(m.gamma[0, 1]) and math.isinf(m.gamma[1, 0])
    with pytest.raises(UnboundedInfluence):
        spectral_norm(m.gamma)
    with pytest.raises(UnboundedInfluence):
        dobrushin_bounds(m, PrivacyBudget.uniform(2, 0.1))


def test_vacuous_contexts_read_as_zero():
    # A constant coordinate admits no adjacent context pair at all.
    m = influence_matrix(perfectly_correlated(2, 1.0))
    assert np.array_equal(m.gamma, np.zeros((2, 2)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_zero_masked_priors())
def test_matches_oracle_with_zero_cells_and_larger_alphabets(d):
    got = influence_matrix(d).gamma
    want = brute_influence(d)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=0, atol=1e-12)


@pytest.mark.parametrize("alph,n", [(2, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5)])
@pytest.mark.parametrize("flip", [False, True])
def test_matches_oracle_on_both_face_layouts(alph, n, flip):
    # Faces of x_j whose contiguous runs are short are read across, long
    # ones along: these shapes hold both.  x_c is constant, so no context
    # pair along it is admissible and the column reads 0; x_s = 1 is off
    # the support exactly where x_t = 1, an unbounded entry.  With flip
    # the special coordinates sit at the other end of the cell order.
    c, s, t = (0, n - 1, n - 2) if flip else (n - 1, 0, 1)
    rng = np.random.default_rng(100 * alph + n)
    shape = (alph,) * n
    digit = np.indices(shape)
    w = rng.uniform(0.05, 1.0, size=shape)
    w[rng.uniform(size=shape) < 0.1] = 0.0
    w[digit[c] != 0] = 0.0
    w[(digit[s] == 1) & (digit[t] == 1)] = 0.0
    d = from_dense(n, alph, w.reshape(-1, order="F"))
    got = influence_matrix(d).gamma
    want = brute_influence(d)
    assert math.isinf(got[s, t])
    assert np.array_equal(got[:, c], np.zeros(n))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=0, atol=1e-12)


# --- spectral norm ------------------------------------------------------

def test_spectral_norm_small_cases():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    g = 0.37
    assert abs(spectral_norm(np.array([[0.0, g], [g, 0.0]])) - g) <= 1e-10


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(52)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = rng.uniform(0.0, 1.0, size=(n, n))
        want = float(np.linalg.norm(m, 2))
        assert abs(spectral_norm(m) - want) <= 1e-8 * max(1.0, want)


# --- contraction bounds -------------------------------------------------

def test_bounds_reduce_to_twice_budget_without_coupling():
    b = PrivacyBudget(np.array([0.3, 0.7]))
    res = dobrushin_bounds(InfluenceMatrix(np.zeros((2, 2))), b)
    assert np.allclose(res.phi, np.eye(2), atol=1e-12)
    assert res.spectral == 0.0
    assert np.allclose(res.nu_bound, 2 * b.eps, atol=1e-12)
    assert res.delta == 1.0
    assert np.allclose(res.nu_delta_bound, 2 * b.eps, atol=1e-12)


def test_phi_equals_neumann_series():
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        gamma = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(gamma, 0.0)
        gamma *= 0.5 / max(spectral_norm(gamma), 1e-9)
        res = dobrushin_bounds(InfluenceMatrix(gamma), PrivacyBudget.uniform(n, 0.2))
        total = np.eye(n)
        power = np.eye(n)
        while True:
            power = power @ gamma
            total += power
            if power.max() < 1e-16:
                break
        assert np.allclose(res.phi, total, rtol=0, atol=1e-10)


def test_row_condition_bound_dominates_series_bound():
    rng = np.random.default_rng(54)
    seen = 0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        gamma = rng.uniform(0.0, 0.9 / n, size=(n, n))
        np.fill_diagonal(gamma, 0.0)
        b = random_budget(rng, n, low=0.2, high=1.0)
        res = dobrushin_bounds(InfluenceMatrix(gamma), b)
        if res.delta > 0.0:
            seen += 1
            assert np.all(res.nu_bound <= res.nu_delta_bound + 1e-12)
    assert seen >= 10


def test_negative_delta_disables_row_bound():
    gamma = np.array([[0.0, 0.9], [0.1, 0.0]])
    b = PrivacyBudget(np.array([0.1, 1.0]))
    res = dobrushin_bounds(InfluenceMatrix(gamma), b)
    assert res.delta < 0.0
    assert res.nu_delta_bound is None
    # The series bound survives regardless.
    assert np.all(res.nu_bound >= 2 * b.eps - 1e-12)


def test_rejects_supercritical_matrix():
    gamma = np.array([[0.0, 1.2], [1.2, 0.0]])
    with pytest.raises(SpectralNormTooLarge):
        dobrushin_bounds(InfluenceMatrix(gamma), PrivacyBudget.uniform(2, 0.1))


def test_budget_of_the_wrong_length_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dobrushin_bounds(InfluenceMatrix(np.zeros((2, 2))), PrivacyBudget.uniform(3, 0.1))


def test_bound_soundness_on_weak_priors():
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 5:
        n = int(rng.integers(2, 4))
        d = from_dense(n, 2, 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=2**n))
        m = influence_matrix(d)
        if m.unbounded or spectral_norm(m.gamma) >= 1.0:
            continue
        b = random_budget(rng, n, low=0.05, high=0.5)
        res = dobrushin_bounds(m, b)
        for a in range(n):
            nu = nu_exact(d, b, a).nu
            assert nu <= res.nu_bound[a] + 1e-6
            if res.nu_delta_bound is not None:
                assert nu <= res.nu_delta_bound[a] + 1e-6
        checked += 1


# --- correlation cap ----------------------------------------------------

def test_product_ratio_bound_chain():
    rng = np.random.default_rng(56)
    for _ in range(200):
        a = float(rng.uniform(0.01, 2.0))
        b = float(rng.uniform(0.01, 2.0))
        cap = product_ratio_bound(a, b)
        assert cap <= math.exp(a * b) + 1e-12
        k = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(k))
        va = np.exp(rng.uniform(0.0, 2 * a, size=k))
        vb_log = rng.uniform(0.0, 2 * b, size=k)
        # Comonotone values stress the bound hardest.
        vb = np.exp(np.sort(vb_log)[np.argsort(np.argsort(va))])
        gap = float(p @ (va * vb)) / (float(p @ va) * float(p @ vb))
        assert gap <= cap + 1e-12


def test_product_ratio_bound_is_tight_for_two_points():
    # Extreme aligned two-point variables attain the cap at the best p.
    for a, b in [(0.5, 0.5), (0.3, 1.1), (1.5, 0.2)]:
        cap = product_ratio_bound(a, b)
        ea, eb = math.exp(2 * a), math.exp(2 * b)
        p = np.linspace(0.0, 1.0, 100001)
        gap = (1 - p + p * ea * eb) / ((1 - p + p * ea) * (1 - p + p * eb))
        best = float(gap.max())
        assert best <= cap + 1e-12
        assert best >= cap - 1e-6
