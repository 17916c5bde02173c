"""Simplex core and the exact leakage LP, checked against independent oracles."""

import math

import numpy as np
import pytest

from conftest import random_budget, random_prior
from infera.affiliated import nu_closed_form, random_affiliated
from infera.dist import from_dense, parity_constrained, perfectly_correlated, product
from infera.errors import DegenerateDistribution, DimensionMismatch, LPError, SizeCap
from infera.ising import IsingTreeModel, ising_tree_distribution
from infera.lp_exact import build_lp, nu_exact
from infera.mechanism import PrivacyBudget, dp_audit, max_biased_profile
from infera.simplex import (
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    simplex_solve,
)
from lp_oracle import nu_grid_search, nu_vertex_enumeration


# --- simplex unit tests -------------------------------------------------

def test_simplex_single_variable():
    res = simplex_solve(
        c=np.array([1.0]),
        a_ub=np.zeros((0, 1)),
        b_ub=np.zeros(0),
        e_eq=np.array([1.0]),
        f_eq=1.0,
    )
    assert res.status == STATUS_OPTIMAL
    assert abs(res.optimum - 1.0) <= 1e-12
    assert np.allclose(res.solution, [1.0], atol=1e-12)


def test_simplex_box():
    # max x + 2y subject to x <= 3, y <= 2, x + y <= 4
    # (vacuous 0 = 0 equality keeps the solver's fixed problem shape).
    res = simplex_solve(
        c=np.array([1.0, 2.0]),
        a_ub=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        b_ub=np.array([3.0, 2.0, 4.0]),
        e_eq=np.zeros(2),
        f_eq=0.0,
    )
    assert res.status == STATUS_OPTIMAL
    assert abs(res.optimum - 6.0) <= 1e-9
    assert np.allclose(res.solution, [2.0, 2.0], atol=1e-9)


def test_simplex_unbounded():
    res = simplex_solve(
        c=np.array([1.0, 0.0]),
        a_ub=np.zeros((0, 2)),
        b_ub=np.zeros(0),
        e_eq=np.array([0.0, 1.0]),
        f_eq=1.0,
    )
    assert res.status == STATUS_UNBOUNDED


def test_simplex_infeasible():
    res = simplex_solve(
        c=np.array([1.0]),
        a_ub=np.array([[1.0]]),
        b_ub=np.array([1.0]),
        e_eq=np.array([1.0]),
        f_eq=2.0,
    )
    assert res.status == STATUS_INFEASIBLE


def test_simplex_iteration_limit():
    res = simplex_solve(
        c=np.array([1.0, 2.0]),
        a_ub=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        b_ub=np.array([3.0, 2.0, 4.0]),
        e_eq=np.zeros(2),
        f_eq=0.0,
        max_iter=1,
    )
    assert res.status == STATUS_ITERATION_LIMIT


def test_simplex_rejects_negative_rhs():
    with pytest.raises(ValueError):
        simplex_solve(
            c=np.array([1.0]),
            a_ub=np.array([[1.0]]),
            b_ub=np.array([-1.0]),
            e_eq=np.zeros(1),
            f_eq=0.0,
        )


def test_simplex_matches_leakage_values():
    # The leakage LP for independent fair coins peaks at exp(eps_a).
    d = product([[0.5, 0.5], [0.5, 0.5]])
    b = PrivacyBudget(np.array([0.3, 0.8]))
    lp = build_lp(d, b, 0, direction=(0, 1))
    res = simplex_solve(lp.c, lp.a_ub, lp.b_ub, lp.e_eq, lp.f_eq)
    assert res.status == STATUS_OPTIMAL
    assert abs(res.optimum - math.exp(0.3)) <= 1e-9
    d2 = perfectly_correlated(2, 0.5)
    lp2 = build_lp(d2, PrivacyBudget.uniform(2, 0.5), 0, direction=(0, 1))
    res2 = simplex_solve(lp2.c, lp2.a_ub, lp2.b_ub, lp2.e_eq, lp2.f_eq)
    assert abs(res2.optimum - math.exp(1.0)) <= 1e-9


# --- LP construction ----------------------------------------------------

def test_build_lp_shapes():
    d = random_prior(np.random.default_rng(0), 2, floor=1e-3)
    lp = build_lp(d, PrivacyBudget.uniform(2, 0.5), 0, direction=(0, 1))
    assert lp.c.shape == (4,)
    # One ordered pair of columns per coordinate: 2 * n * 2**(n-1) rows.
    assert lp.a_ub.shape == (8, 4)
    assert lp.e_eq.shape == (4,)
    assert lp.f_eq == 1.0


def test_build_lp_objective_and_equality_rows():
    d = perfectly_correlated(2, 0.3)
    lp = build_lp(d, PrivacyBudget.uniform(2, 0.5), 0, direction=(0, 1))
    # Objective weights are the conditional prior given x_a = 1;
    # the equality row is the conditional given x_a = 0.
    assert np.allclose(lp.c, [0.0, 0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(lp.e_eq, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    assert lp.f_eq == 1.0


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
        from infera.mechanism import mechanism_nu

        assert abs(mechanism_nu(d, cert.witness, 0) - cert.nu) <= 1e-9


def test_witness_scale_invariance():
    d = random_prior(np.random.default_rng(32), 3, floor=1e-3)
    b = PrivacyBudget.uniform(3, 0.6)
    cert = nu_exact(d, b, 0)
    lp = build_lp(d, b, 0, direction=cert.direction)
    for scale in (0.25, 0.9):
        scaled = cert.witness.values * scale
        assert np.all(lp.a_ub @ scaled <= lp.b_ub + 1e-9)


def test_certificate_bookkeeping():
    d = perfectly_correlated(2, 0.5)
    cert = nu_exact(d, PrivacyBudget.uniform(2, 0.5), 0)
    assert len(cert.per_direction) == 2
    assert abs(math.log(cert.lp_objective) - cert.nu) <= 1e-12
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
        assert abs(nu_exact(d, b, a).nu - ref) <= 1e-9


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
        build_lp(d, PrivacyBudget.uniform(2, 0.1), 0, (0, 1))


def test_budget_past_exp_range_is_a_typed_error():
    # e^800 overflows a float; the LP cannot hold the ratio constraint.
    d = ising_tree_distribution(IsingTreeModel(d=2, depth=1, J=0.3))
    with pytest.raises(LPError, match="overflows"):
        nu_exact(d, PrivacyBudget.uniform(3, 800.0), 0)
