"""Profiles, budgets, auditing, and fixed-mechanism leakage."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bit_table, random_budget, random_dp_profile, random_prior
from infera.dist import (conditional_means, faces, from_dense, parity_constrained, perfectly_correlated,
                         product)
from infera.affiliated import nu_closed_form
from infera.errors import DimensionMismatch, NegativeProbability, UnsupportedAlphabet
from infera.ising import tree_prior
from infera.lp_exact import nu_exact
from infera.mechanism import (
    EventProfile,
    PrivacyBudget,
    dp_audit,
    max_biased_profile,
    mechanism_nu,
    noisy_sum_tail_profile,
    parity_mechanism_m1_profile,
    sample_noisy_sum,
)


def test_budget_validation():
    with pytest.raises(NegativeProbability):
        PrivacyBudget(np.array([0.5, -0.1]))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NegativeProbability):
            PrivacyBudget(np.array([0.5, bad]))
    with pytest.raises(DimensionMismatch):
        PrivacyBudget(np.zeros((2, 2)))
    b = PrivacyBudget.uniform(3, 0.2)
    assert b.n == 3 and abs(b.total() - 0.6) <= 1e-15
    # All-zero budgets are legal; they force constant profiles.
    assert PrivacyBudget(np.zeros(2)).total() == 0.0


def test_profile_validation():
    with pytest.raises(NegativeProbability):
        EventProfile(n=1, alphabet_size=2, values=np.array([0.5, 0.0]))
    with pytest.raises(NegativeProbability):
        EventProfile(n=1, alphabet_size=2, values=np.array([0.5, 1.5]))
    with pytest.raises(DimensionMismatch):
        EventProfile(n=2, alphabet_size=2, values=np.array([0.5, 0.5]))
    # A hair above 1 is float noise and clamps down.
    p = EventProfile(n=1, alphabet_size=2, values=np.array([1.0 + 1e-13, 0.5]))
    assert p.values[0] == 1.0


def test_max_biased_values():
    b = PrivacyBudget(np.array([0.5, 0.5]))
    p0 = max_biased_profile(2, b, 0)
    e = math.exp(-0.5)
    assert np.allclose(p0.values, [1.0, e, e, e * e], rtol=1e-15, atol=0)
    p1 = max_biased_profile(2, b, 1)
    # Flipping every bit reverses the little-endian index order.
    assert np.array_equal(p1.values, p0.values[::-1])
    p = max_biased_profile(1, PrivacyBudget(np.array([0.3])), 0)
    assert np.allclose(p.values, [1.0, math.exp(-0.3)], rtol=1e-15, atol=0)
    rng = np.random.default_rng(17)
    for n in range(1, 11):
        b = random_budget(rng, n)
        for z in (0, 1):
            want = np.exp(-((bit_table(n) != z) @ b.eps))
            assert np.allclose(max_biased_profile(n, b, z).values, want, rtol=1e-14, atol=0)


def test_max_biased_argument_checks():
    with pytest.raises(DimensionMismatch):
        max_biased_profile(2, PrivacyBudget(np.array([0.5])), 0)
    with pytest.raises(UnsupportedAlphabet):
        max_biased_profile(2, PrivacyBudget(np.array([0.5, 0.5])), 2)


def test_noisy_sum_tail_values():
    p = noisy_sum_tail_profile(2, 0.5, 0)
    e = math.exp(-0.5)
    assert np.allclose(p.values, [0.5, 0.5 * e, 0.5 * e, 0.5 * e * e], rtol=1e-15, atol=0)
    ref = max_biased_profile(2, PrivacyBudget.uniform(2, 0.5), 0)
    ratio = p.values / ref.values
    assert np.allclose(ratio, 0.5, rtol=1e-15, atol=0)


def test_noisy_sum_tail_mirror():
    p = noisy_sum_tail_profile(3, 0.2, 1)
    ones = bit_table(3).sum(axis=1)
    assert np.allclose(p.values, 0.5 * np.exp(-0.2 * (3 - ones)), rtol=1e-15, atol=0)


def test_sample_noisy_sum_deterministic():
    a = sample_noisy_sum([1, 0, 1], 0.4, rng_seed=99)
    b = sample_noisy_sum([1, 0, 1], 0.4, rng_seed=99)
    assert a == b
    arr1 = sample_noisy_sum([1, 0], 0.4, rng_seed=7, count=100)
    arr2 = sample_noisy_sum([1, 0], 0.4, rng_seed=7, count=100)
    assert np.array_equal(arr1, arr2)


def test_sample_noisy_sum_degenerate_noise():
    # Huge eps shrinks the noise scale to nothing.
    out = sample_noisy_sum([1, 1, 0], 1e9, rng_seed=5, count=50)
    assert np.max(np.abs(out - 2.0)) < 1e-6


def test_sample_noisy_sum_tail_frequency():
    eps, total = 0.5, 10**5
    out = sample_noisy_sum([1, 0], eps, rng_seed=20260819, count=total)
    phat = float(np.mean(out <= 0.0))
    p = 0.5 * math.exp(-eps * 1)
    sigma = math.sqrt(p * (1 - p) / total)
    assert abs(phat - p) <= 3 * sigma


def test_parity_profile_on_support():
    eps = 0.2
    prof = parity_mechanism_m1_profile(2, 2, eps)
    prior = parity_constrained(2, 2)
    support = np.flatnonzero(prior.probs)
    bits = bit_table(5)
    for idx in support:
        if bits[idx, 0] == 0:
            assert abs(prof.values[idx] - 0.5) <= 1e-15
        else:
            assert abs(prof.values[idx] - 0.5 * math.exp(-3 * eps)) <= 1e-15


def test_parity_constructors_match_enumeration():
    eps = 0.37
    for r, s in ((r, s) for r in range(1, 10) for s in range(1, 10) if r * s <= 9):
        n = 1 + r * s
        bits = bit_table(n)
        rows = [bits[:, 1 + i * s : 1 + (i + 1) * s].sum(axis=1) for i in range(r)]
        even = np.all([(bits[:, 0] + row) % 2 == 0 for row in rows], axis=0)
        odd = bits[:, 0] + sum(row % 2 for row in rows)
        want = from_dense(n, 2, even.astype(np.float64)).probs
        assert np.array_equal(parity_constrained(r, s).probs, want), (r, s)
        want = 0.5 * np.exp(-eps * odd)
        assert np.array_equal(parity_mechanism_m1_profile(r, s, eps).values, want), (r, s)


def test_parity_profile_single_cell():
    # x = (x_a, x_11) = (1, 0): the summary (x_a, row sum) = (1, 0) has one
    # odd entry, so the tail mass is exp(-eps)/2.
    eps = 0.3
    prof = parity_mechanism_m1_profile(1, 1, eps)
    assert abs(prof.values[1] - 0.5 * math.exp(-eps)) <= 1e-15


def test_parity_profile_audit_within_budget():
    # Any single-bit flip changes exactly one summary entry's parity.
    audited = dp_audit(parity_mechanism_m1_profile(2, 2, 0.2))
    assert np.all(audited.eps <= 0.2 + 1e-12)


def test_audit_of_max_biased_is_exact():
    b = PrivacyBudget(np.array([0.1, 0.2, 0.3]))
    audited = dp_audit(max_biased_profile(3, b, 0))
    assert np.allclose(audited.eps, b.eps, rtol=0, atol=1e-12)


def test_audit_tightness_random():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        b = random_budget(rng, n)
        for z in (0, 1):
            audited = dp_audit(max_biased_profile(n, b, z))
            assert np.allclose(audited.eps, b.eps, rtol=0, atol=1e-12)


def test_audit_constant_profile_is_zero():
    p = EventProfile(n=2, alphabet_size=2, values=np.full(4, 0.7))
    assert np.array_equal(dp_audit(p).eps, [0.0, 0.0])


def test_audit_noisy_sum():
    audited = dp_audit(noisy_sum_tail_profile(2, 0.5, 0))
    assert np.allclose(audited.eps, [0.5, 0.5], rtol=0, atol=1e-12)


def test_mechanism_nu_twins():
    d = perfectly_correlated(2, 0.5)
    b = PrivacyBudget.uniform(2, 0.5)
    nu = mechanism_nu(d, max_biased_profile(2, b, 0), 0)
    assert abs(nu - 1.0) <= 1e-12


def test_mechanism_nu_product_capped_by_target_budget():
    rng = np.random.default_rng(22)
    d = product([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
    b = random_budget(rng, 3)
    for _ in range(20):
        prof = random_dp_profile(rng, 3, b)
        for a in range(3):
            assert mechanism_nu(d, prof, a) <= b.eps[a] + 1e-12
    for a in range(3):
        nu = mechanism_nu(d, max_biased_profile(3, b, 0), a)
        assert abs(nu - b.eps[a]) <= 1e-12


def test_mechanism_nu_parity_summary():
    d = parity_constrained(2, 2)
    nu = mechanism_nu(d, parity_mechanism_m1_profile(2, 2, 0.2), 0)
    assert nu >= 3 * 0.2 - 1e-9


def test_separation_on_parity_prior():
    # The summary mechanism leaks (r+1) eps while the biased profile stays
    # below eps + 2 r eps**s; at r = s = 2, eps = 0.2 that is 0.6 vs 0.36.
    d = parity_constrained(2, 2)
    eps = 0.2
    b = PrivacyBudget.uniform(5, eps)
    nu_m1 = mechanism_nu(d, parity_mechanism_m1_profile(2, 2, eps), 0)
    nu_biased = mechanism_nu(d, max_biased_profile(5, b, 0), 0)
    assert nu_m1 >= 0.6 - 1e-9
    assert nu_biased <= 0.36 + 1e-9
    assert nu_biased < nu_m1


def test_mechanism_nu_never_exceeds_exact():
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        d = random_prior(rng, n, floor=1e-3)
        b = random_budget(rng, n)
        a = int(rng.integers(n))
        cap = nu_exact(d, b, a).nu
        for _ in range(4):
            prof = random_dp_profile(rng, n, b)
            assert mechanism_nu(d, prof, a) <= cap + 1e-7


def test_sandwich_bounds():
    # eps_a <= exact nu <= sum eps: the target's own budget always leaks,
    # and a coordinate path can never beat the telescoped total.
    rng = np.random.default_rng(24)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        d = random_prior(rng, n, floor=1e-3)
        b = random_budget(rng, n)
        a = int(rng.integers(n))
        nu = nu_exact(d, b, a).nu
        assert b.eps[a] - 1e-9 <= nu <= b.total() + 1e-9


def test_table_nu_reached_at_single_outcome():
    # Ratio of sums <= max ratio of terms, so pooling the outcomes of a
    # table (one row per outcome, each column summing to one) never beats
    # the best singleton.
    rng = np.random.default_rng(25)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = random_prior(rng, n, floor=1e-3)
        raw = rng.gamma(1.0, size=(3, 2**n)) + 1e-9
        table = raw / raw.sum(axis=0)
        a = int(rng.integers(n))
        best_single = max(
            mechanism_nu(d, EventProfile(n=n, alphabet_size=2, values=np.minimum(row, 1.0)), a)
            for row in table
        )
        for mask in range(1, 8):
            pooled = sum(table[o] for o in range(3) if mask >> o & 1)
            pooled = EventProfile(n=n, alphabet_size=2, values=np.minimum(pooled, 1.0))
            assert mechanism_nu(d, pooled, a) <= best_single + 1e-12


def test_nu_unbounded_on_vanishing_denominator():
    d = product([[0.5, 0.5], [0.5, 0.5]])
    # Given x_0 = 0 the event's mean, two halves of 5e-324, rounds to 0,
    # so observing it pins x_0 = 1.
    m = np.where(bit_table(2)[:, 0] == 1, 0.5, 5e-324)
    assert math.isinf(mechanism_nu(d, EventProfile(n=2, alphabet_size=2, values=m), 0))


@pytest.mark.parametrize("eps", [10.0, 50.0, 100.0])
def test_biased_replay_keeps_large_finite_ratios(eps):
    # At eps 50 the two conditional means differ by a factor of about
    # e^51: a large ratio, not an unbounded one.
    d = tree_prior(d=2, depth=1, J=0.3).dense()
    b = PrivacyBudget.uniform(3, eps)
    cf = nu_closed_form(d, b, 0)
    replay = mechanism_nu(d, max_biased_profile(3, b, cf.winning_z), 0)
    assert abs(replay - cf.nu) <= 1e-9 * cf.nu


def test_mechanism_shape_mismatch():
    d = perfectly_correlated(2, 0.5)
    p = EventProfile(n=1, alphabet_size=2, values=np.array([1.0, 0.5]))
    with pytest.raises(DimensionMismatch):
        mechanism_nu(d, p, 0)


@st.composite
def _prior_profile_target(draw):
    """A prior with zero cells over alphabet 2 or 3, a profile spanning up
    to e^800 with entries floored at 5e-324, and a target coordinate."""
    alphabet = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4 if alphabet == 2 else 3))
    cells = alphabet**n
    weight = st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(0.0, 1.0)
    weights = draw(st.lists(weight, min_size=cells, max_size=cells))
    if not any(w > 0.0 for w in weights):
        weights[0] = 1.0
    log_m = st.sampled_from([0.0, -744.0, -800.0]) | st.floats(-800.0, 0.0)
    values = np.maximum(np.exp(draw(st.lists(log_m, min_size=cells, max_size=cells))), 5e-324)
    profile = EventProfile(n=n, alphabet_size=alphabet, values=values)
    return from_dense(n, alphabet, weights), profile, draw(st.integers(0, n - 1))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=_prior_profile_target())
def test_nu_and_audit_match_their_pairwise_definitions(case):
    d, profile, a = case
    # nu: the largest ln ratio of conditional means over ordered pairs of
    # supported values, unbounded when a zero mean faces a positive one.
    masses, means = conditional_means(d, profile.values, a)
    pairwise, unbounded = 0.0, False
    for z0, z1 in itertools.permutations(range(d.alphabet_size), 2):
        if masses[z0] > 0.0 and masses[z1] > 0.0 and means[z1] > 0.0:
            if means[z0] == 0.0:
                unbounded = True
            else:
                pairwise = max(pairwise, math.log(means[z1]) - math.log(means[z0]))
    assert mechanism_nu(d, profile, a) == (math.inf if unbounded else pairwise)
    # eps_i: the largest |ln m(x) - ln m(x')| over cells x, x' that differ
    # only at coordinate i.
    logs = np.log(profile.values)
    alphabet, eps = d.alphabet_size, [0.0] * d.n
    for i in range(d.n):
        step = alphabet**i
        for x in range(alphabet**d.n):
            digit = x // step % alphabet
            for v in range(alphabet):
                x2 = x + (v - digit) * step
                eps[i] = max(eps[i], abs(float(logs[x] - logs[x2])))
    assert dp_audit(profile).eps.tolist() == eps


@st.composite
def _audit_profiles(draw):
    """A profile over alphabet 2, 3 or 4 whose logs span up to 800, with
    ties at 1 and entries floored at 5e-324."""
    alphabet = draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 12, 3: 7, 4: 5}[alphabet]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_m = rng.uniform(-draw(st.sampled_from([1.0, 50.0, 800.0])), 0.0, alphabet**n)
    log_m[rng.uniform(size=log_m.size) < draw(st.floats(0.0, 0.5))] = 0.0
    return EventProfile(n=n, alphabet_size=alphabet, values=np.maximum(np.exp(log_m), 5e-324))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_audit_profiles())
def test_dp_audit_is_the_largest_range_of_its_faces(profile):
    logs = np.log(profile.values)
    want = [float(np.ptp(faces(logs, profile.n, profile.alphabet_size, i), axis=0).max())
            for i in range(profile.n)]
    assert dp_audit(profile).eps.tobytes() == np.array(want).tobytes()
