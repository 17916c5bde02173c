"""Tree Gibbs priors, message passing on forests, and deep-tree leakage laws."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bit_table
from infera.bethe import (
    bethe_fixed_point,
    critical_coupling,
    enforceable_epsilon,
    nu_bethe_limit,
    sensitivity_profile,
)
from infera.dist import from_dense, is_positively_affiliated
from infera.errors import DimensionMismatch, NotAffiliated, SizeCap, UndefinedRatio
from infera.ising import (
    IsingPrior, nu_gibbs, nu_tree, tree_prior,
)
from infera.mechanism import PrivacyBudget


def _enumerate_ratio(n, edges, J, h):
    """Root odds P(s_0 = +1)/P(s_0 = -1) by direct summation."""
    up, down = 0.0, 0.0
    for bits in itertools.product((0, 1), repeat=n):
        s = [1.0 - 2.0 * b for b in bits]
        e = h * sum(s) + J * sum(s[i] * s[j] for i, j in edges)
        w = math.exp(e)
        if bits[0] == 0:
            up += w
        else:
            down += w
    return up / down


def _logsumexp(v):
    top = v.max()
    return top + math.log(math.fsum(np.exp(v - top).tolist()))


def _log_energy(n, edges, J, h):
    """Log Gibbs weight of every cell, unnormalised."""
    s = 1.0 - 2.0 * bit_table(n)
    pairs = sum(c * s[:, a] * s[:, b] for (a, b), c in zip(edges, J))
    return s @ np.asarray(h, dtype=float) + pairs


def _enumerate_nu(n, edges, J, h, eps):
    """nu at every site by summing over all 2^n cells in the log domain:
    the larger of |ln E[m_z | x_a = z] - ln E[m_z | x_a = 1 - z]| over
    the maximally z-biased profiles m_z(x) = exp(-sum_i eps_i [x_i != z])."""
    x = bit_table(n)
    energy = _log_energy(n, edges, J, h)
    out = np.zeros(n)
    for z in (0, 1):
        log_m = -((x != z) @ np.asarray(eps, dtype=float))
        for a in range(n):
            def log_mean(v):
                sel = x[:, a] == v
                return _logsumexp(energy[sel] + log_m[sel]) - _logsumexp(energy[sel])

            out[a] = max(out[a], abs(log_mean(z) - log_mean(1 - z)))
    return out


def _prior(n, edges, J, h):
    i, j = (np.array([e[k] for e in edges], dtype=int) for k in (0, 1))
    return IsingPrior(n=n, i=i, j=j, J=np.asarray(J, dtype=float), h=np.asarray(h, dtype=float))


def _edges(prior):
    """Parent-child pairs of the prior."""
    return list(zip(prior.i.tolist(), prior.j.tolist()))


def _complete_tree(d, depth, J):
    """Complete d-ary tree at zero field, BFS indexed as tree_prior
    does, for any d >= 1 (d = 1 is a path from site 0)."""
    n = sum(d**level for level in range(depth + 1))
    child = np.arange(1, n)
    return _prior(n, list(zip((child - 1) // d, child)), [J] * (n - 1), [0.0] * n)


def _root_log_odds(d, depth, J, h):
    """ln Pr(sigma_0 = +1)/Pr(sigma_0 = -1) of the complete tree under a
    uniform field h >= 0: nu_tree at its root at zero field and eps = 2h."""
    prior = _complete_tree(d, depth, J)
    return nu_tree(prior, PrivacyBudget.uniform(prior.n, 2.0 * h))[0]


# --- model and distribution ---------------------------------------------

def test_model_indexing():
    m = tree_prior(d=2, depth=2, J=0.3)
    assert m.n == 7
    assert _edges(m) == [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    m3 = tree_prior(d=3, depth=1, J=0.3, h0=-0.2)
    assert m3.n == 4
    assert _edges(m3) == [(0, 1), (0, 2), (0, 3)]
    assert np.all(m3.J == 0.3) and np.all(m3.h == -0.2)


def test_model_validation():
    with pytest.raises(DimensionMismatch):
        tree_prior(d=1, depth=2, J=0.3)
    with pytest.raises(DimensionMismatch):
        tree_prior(d=2, depth=-1, J=0.3)
    with pytest.raises(DimensionMismatch):
        tree_prior(d=2, depth=2, J=0.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_tree_prior_is_the_complete_tree_in_bfs_order(d):
    for depth in range(5):
        # Breadth first: each level's sites take their d children in turn.
        edges, level, n = [], [0], 1
        for _ in range(depth):
            below = list(range(n, n + d * len(level)))
            edges += [(p, c) for p, c in zip(np.repeat(level, d).tolist(), below)]
            level, n = below, n + len(below)
        for J, h0 in [(0.3, 0.0), (1.7, -0.4), (1e-9, 2.5)]:
            p = tree_prior(d, depth, J, h0)
            assert p.n == n and _edges(p) == edges
            assert np.all(p.J == J) and p.J.size == n - 1 and np.all(p.h == h0)


def test_tree_prior_refuses_past_the_site_cap_before_building():
    # 2**41 - 1 and 2**71 - 1 sites: refused by counting, before any array.
    with pytest.raises(SizeCap, match="cap of 1048576"):
        tree_prior(2, 70, 0.3)
    with pytest.raises(SizeCap):
        nu_gibbs(tree_prior(d=2, depth=40, J=0.3), 0.2, 0)
    with pytest.raises(SizeCap):
        tree_prior(d=2, depth=70, J=0.3).dense()
    assert tree_prior(2, 3, 0.3, cap=15).n == 15
    with pytest.raises(SizeCap):
        tree_prior(2, 3, 0.3, cap=14)


def test_distribution_size_cap():
    with pytest.raises(SizeCap):
        tree_prior(d=2, depth=3, J=0.2).dense(cap=1000)


def test_weak_coupling_is_nearly_uniform():
    d = tree_prior(d=2, depth=1, J=1e-9).dense()
    assert np.allclose(d.probs, 1.0 / 8.0, rtol=0, atol=1e-8)


def test_zero_field_flip_symmetry():
    d = tree_prior(d=2, depth=2, J=0.4).dense()
    # Global spin flip reverses the little-endian cell order.
    assert np.allclose(d.probs, d.probs[::-1], rtol=0, atol=1e-15)


def test_matches_edge_copy_process():
    # At h0 = 0 the Gibbs weights equal a root coin flip broadcast down
    # the tree, each child copying its parent with probability
    # (1 + tanh J) / 2.
    J = 0.35
    m = tree_prior(d=2, depth=2, J=J)
    d = m.dense()
    p = 0.5 * (1.0 + math.tanh(J))
    want = np.empty(2**m.n)
    for idx in range(2**m.n):
        bits = [(idx >> k) & 1 for k in range(m.n)]
        w = 0.5
        for i, j in _edges(m):
            w *= p if bits[i] == bits[j] else 1.0 - p
        want[idx] = w
    assert np.allclose(d.probs, want, rtol=1e-12, atol=0)


def test_dense_forest_prior_matches_its_energy():
    edges, J, h = [(3, 0), (0, 4), (1, 2)], [0.4, 0.0, 1.1], [0.2, -0.5, 0.0, 0.3, -0.1]
    energy = _log_energy(5, edges, J, h)
    want = np.exp(energy - energy.max())
    assert np.allclose(_prior(5, edges, J, h).dense().probs, want / want.sum(), rtol=1e-13, atol=0)


def test_tree_prior_is_affiliated():
    d = tree_prior(d=2, depth=2, J=0.5, h0=-0.2).dense()
    ok, witness = is_positively_affiliated(d)
    assert ok and witness is None


# --- root odds -----------------------------------------------------------

def test_root_ratio_against_enumeration():
    J, h = 0.3, 0.1
    m = tree_prior(d=2, depth=2, J=J, h0=h)
    want = math.log(_enumerate_ratio(m.n, _edges(m), J, h))
    assert abs(_root_log_odds(2, 2, J, h) - want) <= 1e-12 * want


# --- site leakage on finite trees ----------------------------------------

def test_nu_gibbs_frozen_value():
    m = tree_prior(d=2, depth=2, J=0.3, h0=0.1)
    assert abs(nu_gibbs(m, 0.2, 0) - 0.38281695005229466) <= 1e-9


def test_nu_gibbs_zero_field_identity():
    m = tree_prior(d=2, depth=2, J=0.4)
    eps = 0.3
    want = math.log(_enumerate_ratio(m.n, _edges(m), 0.4, 0.5 * eps))
    assert abs(nu_gibbs(m, eps, 0) - want) <= 1e-12


def test_nu_gibbs_decoupled_limit():
    m = tree_prior(d=2, depth=2, J=1e-12, h0=0.2)
    assert abs(nu_gibbs(m, 0.3, 4) - 0.3) <= 1e-9


def test_nu_gibbs_rejects_bad_budget():
    m = tree_prior(d=2, depth=1, J=0.3)
    with pytest.raises(DimensionMismatch):
        nu_gibbs(m, 0.0, 0)


@pytest.mark.parametrize("eps", [5.0, 100.0, 1000.0])
def test_nu_gibbs_huge_budget_matches_enumeration(eps):
    # The dense closed form underflows at eps = 1000; the log domain does not.
    m = tree_prior(d=2, depth=1, J=0.3)
    want = _enumerate_nu(m.n, _edges(m), [0.3] * 2, [0.0] * m.n, [eps] * m.n)
    for site in range(m.n):
        assert abs(nu_gibbs(m, eps, site) - want[site]) <= 1e-12 * want[site]
    assert abs(nu_gibbs(m, 1000.0, 0) - 1001.2) <= 1e-12 * 1001.2


def test_nu_gibbs_rejects_bad_site():
    m = tree_prior(d=2, depth=1, J=0.3)
    for site in (3, -1):
        with pytest.raises(DimensionMismatch):
            nu_gibbs(m, 0.3, site)


# --- message passing on forests ------------------------------------------

@st.composite
def _forests(draw):
    """Random labelled forest: node k joins an earlier node or starts a
    new tree, then labels are shuffled and edges drawn either way round."""
    n = draw(st.integers(1, 12))
    label = draw(st.permutations(range(n)))
    edges = []
    for k in range(1, n):
        p = draw(st.integers(-1, k - 1))
        if p >= 0:
            a, b = label[k], label[p]
            edges.append((a, b) if draw(st.booleans()) else (b, a))

    def floats(lo, hi, size):
        return draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))

    return n, edges, floats(0.0, 1.5, len(edges)), floats(-1.0, 1.0, n), floats(0.0, 2.0, n)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_forests())
def test_nu_tree_matches_enumeration(forest):
    n, edges, J, h, eps = forest
    budget = PrivacyBudget(np.array(eps))
    nu = nu_tree(_prior(n, edges, J, h), budget)
    want = _enumerate_nu(n, edges, J, h, eps)
    assert np.all(np.abs(nu - want) <= 1e-12 * np.maximum(1.0, want))
    assert np.all(nu >= budget.eps)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_forests().filter(lambda forest: forest[0] <= 10))
def test_dense_forest_prior_matches_enumeration_bit_for_bit(forest):
    # The energy summed in the order dense sums it: the fields from site
    # 0 up, then the edges in order.
    n, edges, J, h, _ = forest
    x = bit_table(n)
    energy = np.zeros(2**n)
    for a in range(n):
        energy = energy + np.where(x[:, a] == 0, h[a], -h[a])
    for (a, b), c in zip(edges, J):
        energy = energy + np.where(x[:, a] == x[:, b], c, -c)
    want = from_dense(n, 2, np.exp(energy - energy.max())).probs
    assert _prior(n, edges, J, h).dense().probs.tobytes() == want.tobytes()


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (2, 0)],
    [(0, 1), (1, 0)],
    [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (5, 0)],
], ids=["triangle", "double-edge", "cycle-with-tails"])
def test_nu_tree_refuses_a_cycle(edges):
    prior = _prior(6, edges, [0.3] * len(edges), [0.0] * 6)
    with pytest.raises(DimensionMismatch):
        nu_tree(prior, PrivacyBudget.uniform(6, 0.2))


@pytest.mark.parametrize("n,i,j,J,h", [
    (3, [0], [0], [0.3], [0.0] * 3),
    (3, [0], [3], [0.3], [0.0] * 3),
    (3, [0], [1.5], [0.3], [0.0] * 3),
    (3, [-1], [1], [0.3], [0.0] * 3),
    (3, [0, 1], [1], [0.3], [0.0] * 3),
    (3, [0], [1], [0.3, 0.2], [0.0] * 3),
    (3, [0], [1], [0.3], [0.0] * 2),
    (3, [0], [1], [math.inf], [0.0] * 3),
    (0, [], [], [], []),
], ids=["self-loop", "index-high", "fractional-index", "index-negative", "short-j",
        "long-J", "short-h", "infinite-J", "no-sites"])
def test_ising_prior_refuses_bad_arrays(n, i, j, J, h):
    with pytest.raises(DimensionMismatch):
        IsingPrior(n=n, i=np.array(i), j=np.array(j),
                   J=np.array(J, dtype=float), h=np.array(h, dtype=float))


def test_ising_prior_refuses_fields_whose_sum_overflows():
    # Each field is finite, but three of them sum past the float range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="sum"):
            tree_prior(d=2, depth=1, J=0.3, h0=1.5e308)


def test_negative_coupling_is_not_affiliated():
    with pytest.raises(NotAffiliated):
        _prior(3, [(0, 1), (1, 2)], [0.3, -0.1], [0.0] * 3)


def test_nu_tree_refuses_a_budget_of_another_length():
    with pytest.raises(DimensionMismatch):
        nu_tree(_prior(3, [(0, 1)], [0.3], [0.0] * 3), PrivacyBudget.uniform(2, 0.2))


def test_nu_tree_overflowing_field_is_a_typed_error():
    prior = _prior(2, [(0, 1)], [0.3], [1.5e308, 0.0])
    with pytest.raises(UndefinedRatio):
        nu_tree(prior, PrivacyBudget.uniform(2, 1e308))


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-10, 1e-14])
def test_nu_tree_keeps_precision_at_small_fields(eps):
    prior = _prior(2, [(0, 1)], [0.3], [0.0, 0.0])
    want = nu_bethe_limit(0.3, eps, 0)
    got = nu_tree(prior, PrivacyBudget.uniform(2, eps))
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_nu_tree_refuses_a_leakage_below_the_budget():
    # Every site leaks at least its budget.  At h0 = 1e8 the field
    # h0 + eps/2 rounds back to h0, which would read nu = 0.
    with pytest.raises(UndefinedRatio, match="site 0"):
        nu_gibbs(tree_prior(d=2, depth=1, J=0.3, h0=1e8), 1e-10, 0)
    # A budget the fields can hold still answers.
    assert nu_gibbs(tree_prior(d=2, depth=1, J=0.3, h0=1e8), 1.0, 0) == 1.0


@pytest.mark.parametrize("eps", [1e-7, 3e-7, 1e-6])
def test_nu_tree_refuses_a_budget_its_fields_round(eps):
    # At h0 = 1e8, where floats are 1.5e-8 apart, h0 + eps/2 rounds
    # enough to read 8.94e-8 at eps = 1e-7 and 1.0133e-6 at eps = 1e-6;
    # the saturated leaves pass nothing back, so the true leakage is eps.
    model = tree_prior(d=2, depth=1, J=0.3, h0=1e8)
    try:
        nu = nu_gibbs(model, eps, 0)
    except UndefinedRatio as exc:
        assert "site " in str(exc)
    else:
        assert abs(nu - eps) <= 1e-9 * eps


def test_deep_tree_sites_approach_the_bethe_limit():
    # J = 0.3 is below atanh(1/d) for d = 1, 2; the first site halfway
    # down a complete tree sees ever more of the infinite tree as it
    # deepens (for d = 1, the middle of an ever longer path).
    J, eps = 0.3, 0.5
    for d in (1, 2):
        limit = nu_bethe_limit(J, eps, d)
        gaps = []
        for depth in (10, 12, 14):
            prior = _complete_tree(d, depth, J)
            nu = nu_tree(prior, PrivacyBudget.uniform(prior.n, eps))
            gaps.append(limit - nu[sum(d**level for level in range(depth // 2))])
        assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01


def test_bethe_limit_with_no_branching_is_the_dimer():
    prior = _prior(2, [(0, 1)], [0.3], [0.0, 0.0])
    want = nu_tree(prior, PrivacyBudget.uniform(2, 1.0))
    assert np.all(np.abs(want - 1.2708854885) <= 1e-10)
    assert abs(nu_bethe_limit(0.3, 1.0, 0) - want[0]) <= 1e-15 * want[0]


def test_bethe_limit_with_one_branch_is_the_infinite_path():
    # 2,000 sites on either side of the middle leave a gap near
    # tanh(0.3)^2000, far below a float's resolution.
    prior = _complete_tree(1, 4000, 0.3)
    want = nu_tree(prior, PrivacyBudget.uniform(prior.n, 1.0))[2000]
    assert abs(want - 1.6904167550) <= 1e-10
    assert abs(nu_bethe_limit(0.3, 1.0, 1) - want) <= 1e-14 * want


# --- cavity fixed point --------------------------------------------------

def test_fixed_point_basic_laws():
    assert bethe_fixed_point(0.4, 0.0, 2) == 1.0
    assert abs(bethe_fixed_point(0.0, 0.3, 2) - math.exp(0.6)) <= 1e-12
    assert bethe_fixed_point(0.3, 0.2, 2) > 1.0
    assert bethe_fixed_point(0.3, -0.2, 2) < 1.0


def test_fixed_point_supercritical_symmetry_breaking():
    # Above the critical coupling a vanishing field still tilts the odds.
    assert math.log(bethe_fixed_point(0.7, 5e-7, 2)) > 0.05


def test_fixed_point_reciprocal_symmetry():
    for J, h, d in [(0.3, 0.1, 2), (0.5, 0.4, 3), (0.7, 0.02, 2)]:
        up = bethe_fixed_point(J, h, d)
        down = bethe_fixed_point(J, -h, d)
        assert abs(up * down - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "J",
    [0.5493, math.atanh(0.5) - 1e-9, math.atanh(0.5) + 1e-9],
    ids=["0.5493", "Jc-1e-9", "Jc+1e-9"],
)
def test_fixed_point_near_critical_coupling(J):
    # The iteration from x = 1 crawls here (473,111 steps at J = 0.5493,
    # h = 1e-7); the fixed point must still solve x = y(x) and grow with h.
    prev = 0.0
    for k in range(-12, 2):
        h = 10.0**k
        x = bethe_fixed_point(J, h, 2)
        w = math.log(x)
        step = 2.0 * h + 2.0 * math.log(
            (math.exp(J) * x + math.exp(-J)) / (math.exp(J) + math.exp(-J) * x)
        )
        assert abs(step - w) <= 1e-12 * max(1.0, w)
        assert prev < w < 2.0 * h + 4.0 * J
        prev = w


@pytest.mark.parametrize("h", [400.0, -400.0, 1e308])
def test_fixed_point_outside_float_range_is_a_typed_error(h):
    with pytest.raises(UndefinedRatio):
        bethe_fixed_point(0.3, h, 2)


def test_finite_iterates_climb_to_fixed_point():
    # The root of a complete tree of depth k has the log-odds of the
    # (k + 1)-th iterate of w <- 2h + d phi(w) from 0: they climb to ln x.
    J, h = 0.3, 0.1
    for d in (2, 1):
        w = math.log(bethe_fixed_point(J, h, d))
        odds = [_root_log_odds(d, depth, J, h) for depth in range(13)]
        assert all(a < b for a, b in zip(odds, odds[1:]))
        assert odds[-1] < w
    # A path is long enough at 61 sites.
    assert abs(_root_log_odds(1, 60, J, h) - w) <= 1e-10


def test_finite_trees_leak_less_than_the_limit():
    # The root of a complete tree, which has d branches, leaks less than
    # a deep-tree site, which has d + 1, with a positive, strictly
    # shrinking gap as the tree deepens.
    J, h, d = 0.3, 0.1, 2
    bound = nu_bethe_limit(J, 2.0 * h, d)
    gaps = [bound - _root_log_odds(d, depth, J, h) for depth in range(7)]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# --- deep-tree leakage ---------------------------------------------------

def test_limit_reduces_to_budget_without_coupling():
    for eps in (0.1, 0.5, 1.0):
        assert abs(nu_bethe_limit(0.0, eps, 2) - eps) <= 1e-14
    assert nu_bethe_limit(0.4, 0.0, 2) == 0.0
    with pytest.raises(DimensionMismatch):
        nu_bethe_limit(0.4, -0.1, 2)


def test_limit_monotone_in_budget():
    values = [nu_bethe_limit(0.4, e, 2) for e in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_limit_slope_beats_row_condition_rate():
    # At J = atanh((1 - delta)/d) the row-dominance constant is delta,
    # yet the true slope is (d + 1 - delta)/(d delta), above 1/delta.
    for delta, want in [(0.5, 2.5), (0.25, 5.5)]:
        J = math.atanh((1.0 - delta) / 2.0)
        slope = nu_bethe_limit(J, 1e-6, 2) / 1e-6
        assert slope > 1.0 / delta
        assert abs(slope - want) <= 0.01 * want


def test_limit_supercritical_floor():
    assert nu_bethe_limit(0.7, 1e-6, 2) > 0.05


def test_critical_coupling_values():
    assert abs(critical_coupling(2) - 0.5 * math.log(3.0)) <= 1e-15
    assert abs(critical_coupling(3) - 0.5 * math.log(2.0)) <= 1e-15
    assert critical_coupling(2) > critical_coupling(3) > critical_coupling(4)
    # The dimer and the infinite path have no finite critical coupling.
    assert critical_coupling(0) == critical_coupling(1) == math.inf
    with pytest.raises(DimensionMismatch):
        critical_coupling(-1)


def test_enforceable_budget():
    assert enforceable_epsilon(0.4, 0.0, 2) == 0.4
    eps = enforceable_epsilon(0.4, 0.3, 2)
    assert eps is not None and eps < 0.4
    assert nu_bethe_limit(0.3, eps, 2) <= 0.4 + 1e-9
    assert nu_bethe_limit(0.3, eps + 1e-6, 2) > 0.4
    assert enforceable_epsilon(0.01, 0.7, 2) is None
    for target in (0.0, math.inf, math.nan):
        with pytest.raises(DimensionMismatch):
            enforceable_epsilon(target, 0.3, 2)


@pytest.mark.parametrize("J", [0.0, 0.1, 0.3, 0.5493, 0.7, 1.5, 3.0])
def test_enforceable_budget_round_trip(J):
    # Sub- and supercritical couplings for every branching up to 4: the
    # returned budget leaks the target, never more; None only when even a
    # vanishing budget leaks more.
    for d in range(5):
        for target in (1e-3, 0.05, 0.4, 2.0, 10.0, 50.0):
            eps = enforceable_epsilon(target, J, d)
            if eps is None:
                assert nu_bethe_limit(J, 1e-300, d) > target
                continue
            nu = nu_bethe_limit(J, eps, d)
            assert nu <= target + 1e-12
            assert abs(nu - target) <= 1e-9


def test_strong_coupling_does_not_saturate():
    # tanh(20) rounds to 1: every branch then copies its field, w = 1 + 2 * 40.
    assert abs(nu_bethe_limit(20.0, 1.0, 2) - 121.0) <= 1e-12
    assert abs(nu_bethe_limit(20.0, 1.0, 0) - 2.0) <= 1e-15
    assert enforceable_epsilon(0.4, 20.0, 2) is None
    eps = enforceable_epsilon(10.0, 20.0, 1)
    assert eps is not None and abs(nu_bethe_limit(20.0, eps, 1) - 10.0) <= 1e-12
    ((_, nu),) = sensitivity_profile(20.0, 0.0, 2, [1.0])
    assert abs(nu - math.log(bethe_fixed_point(20.0, 0.5, 2))) <= 1e-12


@pytest.mark.parametrize("J,d,error", [
    (-0.3, 2, NotAffiliated),
    (math.nan, 2, DimensionMismatch),
    (math.inf, 2, DimensionMismatch),
    (0.3, -1, DimensionMismatch),
], ids=["negative-J", "nan-J", "inf-J", "negative-d"])
def test_deep_tree_laws_refuse_bad_trees(J, d, error):
    for call in (
        lambda: nu_bethe_limit(J, 1.0, d),
        lambda: nu_bethe_limit(J, 0.0, d),
        lambda: enforceable_epsilon(0.4, J, d),
        lambda: sensitivity_profile(J, 0.1, d, [0.5]),
        lambda: bethe_fixed_point(J, 0.1, d),
    ):
        with pytest.raises(error):
            call()


def test_sensitivity_profile_matches_limit_at_zero_base_field():
    eps = 0.3
    # Without a base field the one-sided branch is ln x(J, eps/2); the
    # deep-tree value adds (ln x - eps)/d on top, zero only at J = 0.
    ((_, flat),) = sensitivity_profile(0.0, 0.0, 2, [eps])
    assert abs(flat - nu_bethe_limit(0.0, eps, 2)) <= 1e-14
    ((_, low),) = sensitivity_profile(0.3, 0.0, 2, [eps])
    assert low < nu_bethe_limit(0.3, eps, 2)


def test_sensitivity_saturation_scenario():
    # Deep in the ordered phase a base field pins the root: small budgets
    # barely leak, while a budget big enough to fight the field unlocks a
    # jump far beyond linear growth.
    profile = sensitivity_profile(3.0, 0.3, 2, [0.2, 1.0])
    (e0, v0), (e1, v1) = profile
    assert v0 / e0 < 2.0
    assert v1 / e1 > 10.0
    assert math.log(bethe_fixed_point(3.0, 0.3, 2)) > 6.0
    assert math.log(bethe_fixed_point(3.0, -0.2, 2)) < -6.0


def test_sensitivity_rejects_nonpositive_budget():
    with pytest.raises(DimensionMismatch):
        sensitivity_profile(0.3, 0.1, 2, [0.2, 0.0])


def test_nan_budget_is_named_as_eps():
    with pytest.raises(DimensionMismatch, match="eps"):
        nu_bethe_limit(0.3, math.nan, 2)
    with pytest.raises(DimensionMismatch, match="eps"):
        sensitivity_profile(0.3, 0.1, 2, [0.2, math.nan])
