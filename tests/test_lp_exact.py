"""The certified exact leakage LP, checked against independent oracles."""

import math
import re

import numpy as np
import pytest

from conftest import random_budget, random_prior
from infera.affiliated import nu_closed_form, random_affiliated
from infera.dist import from_dense, parity_constrained, perfectly_correlated, product
from infera.errors import DegenerateDistribution, DimensionMismatch, LPError, SizeCap
from infera.ising import tree_prior
from infera.lp_exact import GAP_TOL, nu_exact
from infera.mechanism import EventProfile, PrivacyBudget, dp_audit, mechanism_nu
from lp_oracle import nu_grid_search, nu_vertex_enumeration

# A product prior whose LP is highly degenerate: the benchmark's
# pivot-limit input, digit for digit.
PIVOT_LIMIT_P = (0.08564502027976867, 0.45753767875076684, 0.6179656209440294,
                 0.5456722561414263, 0.11674498803566628, 0.583905553867081)
PIVOT_LIMIT_EPS = (0.26108704096590113, 0.2357717203700056, 0.8847563405102709,
                   0.23795000235270214, 0.4815762144061481, 0.7627725381272431)


# --- exact nu -----------------------------------------------------------

def test_nu_exact_twins_scaling():
    for n in (2, 3):
        d = perfectly_correlated(n, 0.5)
        cert = nu_exact(d, PrivacyBudget.uniform(n, 0.3), 0)
        assert abs(cert.nu - 0.3 * n) <= 1e-9


def test_nu_exact_product_is_own_budget():
    d = product([[0.2, 0.8], [0.7, 0.3]])
    b = PrivacyBudget(np.array([0.4, 0.9]))
    assert abs(nu_exact(d, b, 0).nu - 0.4) <= 1e-9
    assert abs(nu_exact(d, b, 1).nu - 0.9) <= 1e-9


def test_nu_exact_zero_budget():
    d = perfectly_correlated(3, 0.4)
    cert = nu_exact(d, PrivacyBudget(np.zeros(3)), 0)
    assert abs(cert.nu) <= 1e-12


def test_nu_exact_parity_beats_biased_rate():
    d = parity_constrained(2, 2)
    cert = nu_exact(d, PrivacyBudget.uniform(5, 0.2), 0)
    assert cert.nu >= 0.6 - 1e-9


def test_witness_is_dp_and_replays():
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        d = random_prior(rng, n, floor=1e-3)
        b = random_budget(rng, n)
        cert = nu_exact(d, b, 0)
        audited = dp_audit(cert.witness)
        assert np.all(audited.eps <= b.eps + 1e-7)
        # Replaying the witness through the generic evaluator recovers nu.
        assert abs(mechanism_nu(d, cert.witness, 0) - cert.nu) <= 1e-9


def test_witness_scale_invariance():
    d = random_prior(np.random.default_rng(32), 3, floor=1e-3)
    b = PrivacyBudget.uniform(3, 0.6)
    cert = nu_exact(d, b, 0)
    for scale in (0.25, 0.9):
        scaled = EventProfile(n=3, alphabet_size=2, values=cert.witness.values * scale)
        assert np.all(dp_audit(scaled).eps <= b.eps + 1e-9)
        assert abs(mechanism_nu(d, scaled, 0) - cert.nu) <= 1e-12


def test_certificate_bookkeeping():
    d = perfectly_correlated(2, 0.5)
    cert = nu_exact(d, PrivacyBudget.uniform(2, 0.5), 0)
    assert len(cert.per_direction) == 2
    assert abs(math.log(cert.lp_objective) - cert.nu) <= 1e-12
    assert cert.nu <= cert.nu_upper <= cert.nu + GAP_TOL
    # Symmetric prior: both directions tie and the first in value order wins.
    assert cert.direction == (0, 1)
    assert cert.witness.values.max() == 1.0


def test_nu_monotone_in_budget():
    rng = np.random.default_rng(33)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        d = random_prior(rng, n, floor=1e-3)
        b1 = random_budget(rng, n)
        b2 = PrivacyBudget(b1.eps + rng.uniform(0.0, 0.5, size=n))
        a = int(rng.integers(n))
        assert nu_exact(d, b2, a).nu >= nu_exact(d, b1, a).nu - 1e-9


def test_nu_exact_matches_closed_form_on_affiliated():
    rng = np.random.default_rng(34)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        d = random_affiliated(n, rng)
        b = random_budget(rng, n)
        a = int(rng.integers(n))
        assert abs(nu_exact(d, b, a).nu - nu_closed_form(d, b, a).nu) <= 1e-6


def test_nu_exact_against_vertex_oracle():
    rng = np.random.default_rng(35)
    for _ in range(4):
        n = int(rng.integers(2, 4))
        d = random_prior(rng, n, floor=1e-3)
        b = random_budget(rng, n)
        a = int(rng.integers(n))
        ref = nu_vertex_enumeration(d, b.eps, a)
        cert = nu_exact(d, b, a)
        assert abs(cert.nu - ref) <= 1e-9
        assert cert.nu <= cert.nu_upper <= cert.nu + GAP_TOL
        assert cert.nu - 1e-9 <= ref <= cert.nu_upper + 1e-9


def test_nu_exact_against_grid_oracle():
    rng = np.random.default_rng(36)
    for _ in range(3):
        d = random_prior(rng, 2, floor=1e-2)
        b = random_budget(rng, 2)
        ref = nu_grid_search(d, b.eps, 0)
        assert abs(nu_exact(d, b, 0).nu - ref) <= 1e-3


def test_nu_exact_guards():
    with pytest.raises(SizeCap):
        nu_exact(
            product([[0.5, 0.5]] * 13),
            PrivacyBudget.uniform(13, 0.1),
            0,
        )
    with pytest.raises(DegenerateDistribution):
        nu_exact(
            product([[1.0, 0.0], [0.5, 0.5]]),
            PrivacyBudget.uniform(2, 0.1),
            0,
        )


def test_build_lp_rejects_budget_of_wrong_length():
    d = product([[0.5, 0.5]] * 3)
    with pytest.raises(DimensionMismatch):
        nu_exact(d, PrivacyBudget.uniform(2, 0.1), 0)


def test_budget_past_exp_range_is_a_typed_error():
    # e^800 overflows a float; the LP cannot hold the ratio constraint.
    d = tree_prior(d=2, depth=1, J=0.3).dense()
    with pytest.raises(LPError, match="overflows"):
        nu_exact(d, PrivacyBudget.uniform(3, 800.0), 0)

def test_budget_past_the_certifiable_range_names_both_bounds():
    d = tree_prior(d=2, depth=1, J=0.3).dense()
    with pytest.raises(LPError, match=r"nu in \[[0-9.e+]+, [0-9.e+]+\]"):
        nu_exact(d, PrivacyBudget.uniform(3, 700.0), 0)


@pytest.mark.parametrize("eps", [5.0, 8.0, 10.0, 20.0, 50.0, 100.0])
def test_tree_matches_closed_form_at_large_budgets(eps):
    # The optimal profile spans a factor e^(2 eps); the LP stays bounded.
    d = tree_prior(d=2, depth=1, J=0.3).dense()
    b = PrivacyBudget.uniform(3, eps)
    cert = nu_exact(d, b, 0)
    assert abs(cert.nu - nu_closed_form(d, b, 0).nu) <= 1e-9
    assert cert.nu <= cert.nu_upper <= cert.nu + GAP_TOL


def test_twins_at_wide_budgets_answer_or_bracket_the_truth():
    # nu of a twins prior is the sum of the budget.  At eps_i ~ s U[0.05, 1)
    # the optimal profile spans up to e^(6 s); the iterates alone certified
    # 8 of these 60 draws.
    rng = np.random.default_rng(2016)
    answered = 0
    for s in (30.0, 40.0, 50.0):
        for _ in range(20):
            d = perfectly_correlated(6, float(rng.uniform(0.1, 0.9)))
            eps = s * rng.uniform(0.05, 1.0, 6)
            truth = math.fsum(eps)
            try:
                cert = nu_exact(d, PrivacyBudget(eps), int(rng.integers(6)))
            except LPError as exc:
                bounds = re.search(r"nu in \[(\S+), (\S+)\]", str(exc))
                assert bounds, str(exc)
                lower, upper = (float(v) for v in bounds.groups())
                assert lower <= truth + 1e-9 and truth - 1e-9 <= upper
            else:
                answered += 1
                assert abs(cert.nu - truth) <= 1e-9
    assert answered >= 40


def test_pivot_limit_product_gives_own_budget():
    d = product([[1.0 - v, v] for v in PIVOT_LIMIT_P])
    cert = nu_exact(d, PrivacyBudget(np.array(PIVOT_LIMIT_EPS)), 5)
    assert abs(cert.nu - PIVOT_LIMIT_EPS[5]) <= 1e-9


def test_alphabet_three_product_gives_own_budget():
    d = product([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
    b = PrivacyBudget(np.array([0.3, 0.5, 0.7]))
    for a in range(3):
        cert = nu_exact(d, b, a)
        assert abs(cert.nu - b.eps[a]) <= 1e-9
        assert len(cert.per_direction) == 6


def test_single_coordinate_gives_own_budget():
    cert = nu_exact(from_dense(1, 2, [0.3, 0.7]), PrivacyBudget(np.array([0.4])), 0)
    assert abs(cert.nu - 0.4) <= 1e-12


def test_lp_cap_counts_cells(monkeypatch):
    # 3**8 LP variables exceed the default cap's 2**11: the LP is refused
    # before anything is built for it.
    def never(*args):
        raise AssertionError("LP solved past the cap")

    monkeypatch.setattr("infera.lp_exact._certify", never)
    d = product([[0.2, 0.3, 0.5]] * 9)
    with pytest.raises(SizeCap):
        nu_exact(d, PrivacyBudget.uniform(9, 0.1), 0)
