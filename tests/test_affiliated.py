"""Closed-form leakage under positive affiliation."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import bit_table, random_budget, random_dp_profile, random_prior
from infera.affiliated import nu_closed_form, random_affiliated
from infera.dist import (
    conditional_means,
    from_dense,
    is_positively_affiliated,
    parity_constrained,
    perfectly_correlated,
    product,
)
from infera.errors import DimensionMismatch, NotAffiliated, UndefinedRatio
from infera.ising import tree_prior
from infera.lp_exact import nu_exact
from infera.mechanism import PrivacyBudget, max_biased_profile, mechanism_nu


def test_product_recovers_own_budget():
    d = product([[0.2, 0.8], [0.7, 0.3], [0.4, 0.6]])
    b = PrivacyBudget(np.array([0.3, 0.6, 0.9]))
    for a in range(3):
        res = nu_closed_form(d, b, a)
        assert abs(res.nu - b.eps[a]) <= 1e-12


def test_twins_closed_form():
    d = perfectly_correlated(2, 0.5)
    res = nu_closed_form(d, PrivacyBudget.uniform(2, 0.5), 0)
    assert abs(res.nu - 1.0) <= 1e-12
    # Fair twins are flip symmetric, so ties resolve to z = 0.
    assert res.winning_z == 0
    assert len(res.branch_values) == 2
    assert abs(res.branch_values[0] - res.branch_values[1]) <= 1e-12


def test_result_internal_consistency():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        d = random_affiliated(n, rng)
        b = random_budget(rng, n)
        res = nu_closed_form(d, b, int(rng.integers(n)))
        assert abs(res.nu - abs(math.log(res.numerator / res.denominator))) <= 1e-12
        assert res.nu == max(res.branch_values)


def test_matches_lp_on_tree():
    model = tree_prior(d=2, depth=2, J=0.3, h0=0.1)
    dist = model.dense()
    b = PrivacyBudget.uniform(model.n, 0.2)
    for a in (0, 1, 3):
        lhs = nu_closed_form(dist, b, a).nu
        rhs = nu_exact(dist, b, a).nu
        assert abs(lhs - rhs) <= 1e-6


def test_rejects_non_affiliated():
    # The second prior is uniform on {100, 011, 111} (bits x0 x1 x2) times
    # three fair coins: every two-coordinate pair passes, but the lattice
    # condition fails.
    w = np.zeros(8)
    w[[0b001, 0b110, 0b111]] = 1.0
    three_point = from_dense(6, 2, np.tile(w, 8))
    for d, a in [(parity_constrained(2, 2), 0)] + [(three_point, a) for a in range(3)]:
        b = PrivacyBudget.uniform(d.n, 0.2)
        with pytest.raises(NotAffiliated) as info:
            nu_closed_form(d, b, a)
        # The attached witness must be a genuine violation.
        x1, x2 = info.value.witness
        x1, x2 = np.array(x1), np.array(x2)
        join, meet = np.maximum(x1, x2), np.minimum(x1, x2)
        assert d.prob_of(join) * d.prob_of(meet) < d.prob_of(x1) * d.prob_of(x2)


def test_closed_form_equals_biased_profile_leakage():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        d = random_affiliated(n, rng)
        b = random_budget(rng, n)
        a = int(rng.integers(n))
        res = nu_closed_form(d, b, a)
        direct = max(mechanism_nu(d, max_biased_profile(n, b, z), a) for z in (0, 1))
        assert abs(res.nu - direct) <= 1e-12
        prof = max_biased_profile(n, b, res.winning_z)
        assert abs(mechanism_nu(d, prof, a) - res.nu) <= 1e-12


def test_dominates_every_private_mechanism():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = random_affiliated(n, rng)
        b = random_budget(rng, n)
        a = int(rng.integers(n))
        cap = nu_closed_form(d, b, a).nu
        for _ in range(5):
            prof = random_dp_profile(rng, n, b)
            assert mechanism_nu(d, prof, a) <= cap + 1e-7


def test_parity_biased_profile_stays_small():
    d = parity_constrained(2, 2)
    b = PrivacyBudget.uniform(5, 0.2)
    for z in (0, 1):
        assert mechanism_nu(d, max_biased_profile(5, b, z), 0) <= 0.36 + 1e-9


def test_biased_profile_flip_symmetry():
    # Flipping every bit maps the z = 0 branch onto the z = 1 branch.
    d = perfectly_correlated(3, 0.5)
    b = PrivacyBudget.uniform(3, 0.4)
    v0 = mechanism_nu(d, max_biased_profile(3, b, 0), 0)
    v1 = mechanism_nu(d, max_biased_profile(3, b, 1), 0)
    assert abs(v0 - v1) <= 1e-12


def test_biased_profile_signed_value():
    # Biasing toward 0 on a strongly anti-correlated pair shifts the
    # posterior toward 1, so the event is likelier given x_0 = 1 while
    # the magnitude of the log ratio is still the profile's leakage.
    d = from_dense(2, 2, np.array([0.05, 0.45, 0.45, 0.05]))
    b = PrivacyBudget(np.array([0.01, 2.0]))
    prof = max_biased_profile(2, b, 0)
    _, (mean0, mean1) = conditional_means(d, prof.values, 0)
    assert mean0 < mean1
    assert abs(math.log(mean1) - math.log(mean0) - mechanism_nu(d, prof, 0)) <= 1e-12


def test_random_affiliated_is_affiliated():
    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        d = random_affiliated(n, rng)
        ok, witness = is_positively_affiliated(d)
        assert ok and witness is None


def test_closed_form_rejects_out_of_range_target():
    # The non-affiliated parity prior must not turn a bad target into a
    # NotAffiliated finding.
    for d in (product([[0.5, 0.5]] * 3), parity_constrained(1, 2)):
        for a in (3, 7, -1):
            with pytest.raises(DimensionMismatch):
                nu_closed_form(d, PrivacyBudget.uniform(3, 0.3), a)


def test_closed_form_checks_the_budget_length_before_the_scan(monkeypatch):
    # A budget of the wrong length is an error, not a NotAffiliated
    # finding on the parity prior, and no affiliation scan runs first.
    import infera.affiliated

    def scan(dist):
        raise AssertionError("affiliation scan ran")

    d = parity_constrained(1, 3)
    assert d.n != 3
    monkeypatch.setattr(infera.affiliated, "is_positively_affiliated", scan)
    with pytest.raises(DimensionMismatch, match="budget length"):
        nu_closed_form(d, PrivacyBudget.uniform(3, 0.2), 0)


def test_underflowing_branch_is_a_typed_error():
    # At eps = 1000 every database off the biased value weighs e^-1000 = 0
    # in floats, so the denominator mean vanishes and no finite nu is sound.
    d = tree_prior(d=2, depth=1, J=0.3).dense()
    b = PrivacyBudget.uniform(3, 1000.0)
    with pytest.raises(UndefinedRatio):
        nu_closed_form(d, b, 0)
    # Also with a target at either end, whose face has no coordinate
    # below or above it, and with no other coordinate at all.
    for n in (1, 2, 6):
        d = random_affiliated(n, np.random.default_rng(n))
        for a in (0, n - 1):
            with pytest.raises(UndefinedRatio):
                nu_closed_form(d, PrivacyBudget.uniform(n, 1000.0), a)


@st.composite
def _masked_priors(draw):
    """Binary prior with n <= 4 and zero cells, plus a budget and target.

    Weights are log-supermodular (nonnegative couplings) or free.  The
    support is a random set of cells or the sublattice cut out by a few
    constraints x_i >= x_j, on which a log-supermodular prior stays
    affiliated.
    """
    n = draw(st.integers(2, 4))
    bits = bit_table(n)
    if draw(st.booleans()):
        theta = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        coupling = np.array(draw(st.lists(st.floats(0.0, 1.5), min_size=n * n, max_size=n * n)))
        log_w = bits @ theta + np.einsum("ki,ij,kj->k", bits, coupling.reshape(n, n), bits)
        w = np.exp(log_w)
    else:
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2**n, max_size=2**n)))
    if draw(st.booleans()):
        keep = np.array(draw(st.lists(st.booleans(), min_size=2**n, max_size=2**n)))
    else:
        keep = np.ones(2**n, dtype=bool)
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for i, j in draw(st.lists(pairs, min_size=1, max_size=3)):
            keep &= bits[:, i] >= bits[:, j]
    eps = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    a = draw(st.integers(0, n - 1))
    return n, w * keep, PrivacyBudget(np.array(eps)), a


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_masked_priors())
def test_closed_form_matches_lp_whenever_check_passes(case):
    n, w, budget, a = case
    cells = np.arange(2**n)
    assume(all(w[((cells >> a) & 1) == z].sum() > 0.0 for z in (0, 1)))
    d = from_dense(n, 2, w)
    ok, witness = is_positively_affiliated(d)
    if not ok:
        x1, x2 = witness
        join = tuple(max(u, v) for u, v in zip(x1, x2))
        meet = tuple(min(u, v) for u, v in zip(x1, x2))
        assert d.prob_of(join) * d.prob_of(meet) < d.prob_of(x1) * d.prob_of(x2)
        return
    assert abs(nu_closed_form(d, budget, a).nu - nu_exact(d, budget, a).nu) <= 1e-6


@st.composite
def _affiliated_priors(draw):
    """Affiliated binary prior with n <= 8, a budget up to 5 per
    coordinate, and a target.

    Weights are log-supermodular (nonnegative couplings); the support is
    every cell or the sublattice cut out by a few constraints x_i >= x_j,
    on which they stay affiliated.  Both faces of every coordinate keep
    a cell: the all-zeros and all-ones databases satisfy the constraints.
    """
    n = draw(st.integers(1, 8))
    bits = bit_table(n)
    theta = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    coupling = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n)))
    log_w = bits @ theta + np.einsum("ki,ij,kj->k", bits, np.triu(coupling.reshape(n, n), 1), bits)
    keep = np.ones(2**n, dtype=bool)
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for i, j in draw(st.lists(pairs, max_size=3)):
            keep &= bits[:, i] >= bits[:, j]
    eps = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    a = draw(st.integers(0, n - 1))
    return n, np.exp(log_w) * keep, PrivacyBudget(np.array(eps)), a


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_affiliated_priors())
def test_closed_form_branches_are_the_biased_profiles_leakage(case):
    # Each branch is, by definition, ln of the ratio of the conditional
    # means of the maximally z-biased profile on the two faces of x_a.
    n, w, budget, a = case
    d = from_dense(n, 2, w)
    res = nu_closed_form(d, budget, a)
    for z in (0, 1):
        want = mechanism_nu(d, max_biased_profile(n, budget, z), a)
        assert abs(res.branch_values[z] - want) <= 1e-12 * want
