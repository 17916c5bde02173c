"""The certified exact leakage LP, checked against independent oracles."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infera.lp_exact as lp_exact
from conftest import random_budget, random_prior
from infera.affiliated import nu_closed_form, random_affiliated
from infera.dist import (cell_fold, cell_tensor, from_dense, parity_constrained,
                         perfectly_correlated, product)
from infera.errors import DegenerateDistribution, DimensionMismatch, LPError, SizeCap
from infera.ising import tree_prior
from infera.lp_exact import GAP_TOL, _max_step, nu_exact
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
    # Twins have no independent coordinate, so the LP keeps all 2**12
    # variables, past the default cap.
    with pytest.raises(SizeCap):
        nu_exact(
            perfectly_correlated(13, 0.5),
            PrivacyBudget.uniform(13, 0.1),
            0,
        )
    with pytest.raises(DegenerateDistribution):
        nu_exact(
            product([[1.0, 0.0], [0.5, 0.5]]),
            PrivacyBudget.uniform(2, 0.1),
            0,
        )


def test_lp_cap_admits_exactly_two_to_the_cap_less_one():
    # Twins keep every coordinate: 2**3 variables at n = 4, 3**2 at n = 3.
    twins = perfectly_correlated(4, 0.5)
    assert abs(nu_exact(twins, PrivacyBudget.uniform(4, 0.3), 0, cap=4).nu - 1.2) <= 1e-9
    with pytest.raises(SizeCap, match=r"2\*\*3 profile cells exceeds the cap 2\*\*2 "):
        nu_exact(twins, PrivacyBudget.uniform(4, 0.3), 0, cap=3)
    # A numpy integer alphabet has no bit_length of its own.
    ternary = from_dense(3, np.int64(3), [1.0] + [0.0] * 12 + [1.0] + [0.0] * 12 + [1.0])
    assert abs(nu_exact(ternary, PrivacyBudget.uniform(3, 0.3), 0, cap=5).nu - 0.9) <= 1e-9
    with pytest.raises(SizeCap, match=r"3\*\*2 profile cells exceeds the cap 2\*\*3 "):
        nu_exact(ternary, PrivacyBudget.uniform(3, 0.3), 0, cap=4)


def test_a_huge_lp_cap_is_compared_without_forming_its_power():
    # 2**(10**9 - 1) took 7 s and 440 MB to form before the comparison.
    twins = perfectly_correlated(4, 0.5)
    tracemalloc.start()
    try:
        cert = nu_exact(twins, PrivacyBudget.uniform(4, 0.3), 0, cap=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(cert.nu - 1.2) <= 1e-9
    assert peak <= 4 * 2**20


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
    # the optimal profile spans up to e^(6 s); 50 of these 60 draws were
    # answered when this floor was set.
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
    assert answered >= 50


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
    # before anything is built for it.  A seeded dense prior has no
    # independent coordinate to leave out.
    def never(*args):
        raise AssertionError("LP solved past the cap")

    monkeypatch.setattr("infera.lp_exact._interior_point", never)
    d = from_dense(9, 3, np.random.default_rng(9).uniform(0.05, 1.0, 3**9))
    with pytest.raises(SizeCap):
        nu_exact(d, PrivacyBudget.uniform(9, 0.1), 0)


def test_max_step_on_a_split_vector():
    # _step takes one step length per side of the iterate, [u, s] or
    # [z, y]: over the whole vector it must be the smaller of the halves'.
    rng = np.random.default_rng(41)
    for _ in range(200):
        size = int(rng.integers(2, 40))
        v = rng.uniform(0.01, 2.0, size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
        dv = rng.normal(size=size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
        k = int(rng.integers(size + 1))
        alpha = _max_step(v, dv)
        assert alpha == min(_max_step(v[:k], dv[:k]), _max_step(v[k:], dv[k:]))
        assert _max_step(v, np.abs(dv)) == 1.0
        # The step that empties an entry leaves only its rounding.
        assert np.all(v + alpha * dv >= -2.0 * np.finfo(float).eps * v)


def test_iteration_cap_certifies_its_last_iterate(monkeypatch):
    # Direction (0, 1) is refused first and wins here, so its bracket must
    # hold the oracle's value; each direction takes 5 steps.
    rng = np.random.default_rng(3)
    d = from_dense(3, 2, rng.uniform(0.05, 1.0, 8))
    b = PrivacyBudget(rng.uniform(0.05, 1.0, 3))
    truth = nu_vertex_enumeration(d, b.eps, 0)
    monkeypatch.setattr(lp_exact, "_MAX_ITER", 2)
    with pytest.raises(LPError, match="after 2 interior-point iterations") as exc:
        nu_exact(d, b, 0)
    lower, upper = (float(v) for v in re.search(r"nu in \[(\S+), (\S+)\]", str(exc.value)).groups())
    assert lower < upper and lower <= truth <= upper
    # The iterate of the last allowed step is certified, not dropped.
    monkeypatch.setattr(lp_exact, "_MAX_ITER", 5)
    cert = nu_exact(d, b, 0)
    assert cert.direction == (0, 1)
    assert abs(cert.nu - truth) <= 1e-9


def _family_draws(rng, scale=1.0):
    """Two n=6 draws of each family of the exact-lp benchmark, built by the
    library, each budget times scale: (name, prior, budget, target)."""
    for fam in ("dense", "zero-cell", "affiliated", "product", "twins", "parity", "star"):
        for _ in range(2):
            if fam == "dense":
                prior = from_dense(6, 2, rng.uniform(0.05, 1.0, 64))
            elif fam == "zero-cell":
                w = rng.uniform(0.05, 1.0, 64)
                w[rng.random(64) < 0.25] = 0.0
                prior = from_dense(6, 2, w)
            elif fam == "affiliated":
                prior = random_affiliated(6, rng)
            elif fam == "product":
                prior = product([[1.0 - v, v] for v in rng.uniform(0.05, 0.95, 6)])
            elif fam == "twins":
                prior = perfectly_correlated(6, float(rng.uniform(0.1, 0.9)))
            elif fam == "parity":
                prior = parity_constrained(1, 5)
            else:
                prior = tree_prior(d=5, depth=1, J=float(rng.uniform(0.1, 1.0)),
                                   h0=float(rng.uniform(-0.5, 0.5))).dense()
            yield fam, prior, PrivacyBudget(scale * rng.uniform(0.05, 1.0, 6)), int(rng.integers(6))


def test_interior_point_converges_within_its_step_budget(monkeypatch):
    # No direction of these draws took more than 9 steps, nor all of them
    # more than 131, when this test was written: a rewrite that keeps the
    # values but converges more slowly, or stops fewer of the directions
    # that cannot win, fails here.  No direction is restarted.
    most_steps, total_steps = 9, 135
    steps, factors, total = [], [], 0

    def counted(*args):
        k = len(steps)
        steps.append(0)
        factors.append(args[5])
        for state in _INTERIOR_POINT(*args):
            steps[k] = state[3]
            yield state

    monkeypatch.setattr(lp_exact, "_interior_point", counted)
    for fam, prior, budget, a in _family_draws(np.random.default_rng(42)):
        del steps[:]
        cert = nu_exact(prior, budget, a)
        assert len(steps) == len(cert.per_direction) and max(steps) <= most_steps, (fam, steps)
        assert sorted(cert.steps.values()) == sorted(steps) and cert.restarted == ()
        total += sum(steps)
    assert total <= total_steps
    assert lp_exact._fixed_step not in factors


# Wrapped by the tests that patch lp_exact._interior_point.
_INTERIOR_POINT = lp_exact._interior_point


def _fixed_step_only(c, e, rows, eps, alph, step_factor, bounds):
    """_interior_point at the fixed step factor, whichever it was given."""
    return _INTERIOR_POINT(c, e, rows, eps, alph, lp_exact._fixed_step, bounds)


def _run_out(run):
    """The direction's run ended before nu_exact sees its last state, so
    that no direction is stopped while open."""
    *_, last = run
    yield last


def _nu_or_none(prior, budget, a):
    try:
        return nu_exact(prior, budget, a)
    except LPError:
        return None


@st.composite
def _wide_budget_priors(draw):
    """(prior, budget, target): a dense prior with alphabet 2 to 4, at most
    64 LP variables, under eps_i ~ s U[0.05, 1) with s up to 5."""
    alph, n = draw(st.sampled_from([(2, 3), (2, 5), (2, 7), (3, 3), (3, 4), (4, 3), (4, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.05, 5.0))
    prior = from_dense(n, alph, rng.uniform(0.05, 1.0, alph**n))
    return prior, PrivacyBudget(scale * rng.uniform(0.05, 1.0, n)), draw(st.integers(0, n - 1))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_wide_budget_priors())
def test_the_step_rule_certifies_wherever_the_fixed_step_does(case):
    # Each direction's step-rule run against a fixed-step run from the
    # same start; a restart passes through.
    prior, budget, a = case
    gap = lp_exact._DIRECTION_GAP
    calls = []

    def both(*args):
        if args[5] is lp_exact._fixed_step:
            yield from _INTERIOR_POINT(*args)
            return
        *_, fixed = _fixed_step_only(*args)
        *_, got = _INTERIOR_POINT(*args)
        assert got[0] <= fixed[1] + 1e-12 and fixed[0] <= got[1] + 1e-12
        if fixed[1] - fixed[0] <= gap:
            assert got[1] - got[0] <= gap and abs(got[0] - fixed[0]) <= GAP_TOL
        calls.append(args)
        yield got

    with mock.patch.object(lp_exact, "_interior_point", both):
        cert = _nu_or_none(prior, budget, a)
    # Every direction went through the comparison.
    alph = prior.alphabet_size
    assert len(calls) == alph * (alph - 1)
    with mock.patch.object(lp_exact, "_interior_point",
                           lambda *args: _run_out(_fixed_step_only(*args))):
        fixed = _nu_or_none(prior, budget, a)
    if fixed is not None:
        assert cert is not None
        assert cert.nu <= fixed.nu_upper + 1e-12 and fixed.nu <= cert.nu_upper + 1e-12
        assert abs(cert.nu - fixed.nu) <= GAP_TOL


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_wide_budget_priors())
def test_stopping_directions_that_cannot_win_keeps_the_answer(case):
    # The lockstep solve against every run taken to completion.
    prior, budget, a = case
    calls = []

    def full(*args):
        if args[5] is lp_exact._adaptive_step:
            calls.append(args)
        return _run_out(_INTERIOR_POINT(*args))

    cert = _nu_or_none(prior, budget, a)
    with mock.patch.object(lp_exact, "_interior_point", full):
        whole = _nu_or_none(prior, budget, a)
    alph = prior.alphabet_size
    assert len(calls) == alph * (alph - 1)
    assert (cert is None) == (whole is None)
    if cert is None:
        return
    assert cert.nu <= whole.nu_upper + 1e-12 and whole.nu <= cert.nu_upper + 1e-12
    assert abs(cert.nu - whole.nu) <= GAP_TOL
    assert cert.nu <= cert.nu_upper <= cert.nu + GAP_TOL
    assert cert.per_direction.keys() == whole.per_direction.keys() == cert.steps.keys()
    for z, value in cert.per_direction.items():
        # A stopped direction reports its upper bound, which never
        # understates; its interval holds the direction's value.
        assert value >= whole.per_direction[z] - GAP_TOL
        if z in cert.stopped:
            lower, upper = cert.stopped[z]
            assert value == upper and lower <= whole.per_direction[z] + GAP_TOL
            assert upper <= cert.nu_upper and upper - lower > lp_exact._DIRECTION_GAP
    assert sum(cert.steps.values()) <= sum(whole.steps.values())


def test_a_direction_the_step_rule_leaves_open_that_cannot_win_is_not_restarted(monkeypatch):
    # Each run goes to completion here, so that no direction is stopped
    # while its run goes on.  With its factor uncapped, the step rule's
    # run of direction (1, 3) stops 4.6e-8 short of the gap once the
    # factor rounds to one; it cannot win, so it is stopped, not run
    # again.  Capped, the rule certifies it first time.
    rng = np.random.default_rng(126)
    prior = from_dense(3, 4, rng.uniform(0.05, 1.0, 64))
    budget = PrivacyBudget(5.0 * rng.uniform(0.05, 1.0, 3))
    a = int(rng.integers(3))
    monkeypatch.setattr(lp_exact, "_interior_point",
                        lambda *args: _run_out(_INTERIOR_POINT(*args)))
    capped = nu_exact(prior, budget, a)
    assert capped.restarted == () and capped.stopped == {} and len(capped.steps) == 12
    monkeypatch.setattr(lp_exact, "_adaptive_step", lambda mu: max(lp_exact._STEP, 1.0 - mu))
    cert = nu_exact(prior, budget, a)
    lower, upper = cert.stopped.pop((1, 3))
    assert cert.restarted == () and cert.stopped == {}
    assert 0.0 < upper - lower - lp_exact._DIRECTION_GAP < 1e-7
    assert upper < cert.nu and cert.per_direction[(1, 3)] == upper
    assert cert.nu <= cert.nu_upper <= cert.nu + GAP_TOL
    assert abs(cert.nu - capped.nu) <= GAP_TOL
    monkeypatch.setattr(lp_exact, "_adaptive_step", lp_exact._fixed_step)
    fixed = nu_exact(prior, budget, a)
    assert abs(cert.nu - fixed.nu) <= GAP_TOL
    assert cert.nu <= fixed.nu_upper and fixed.nu <= cert.nu_upper


# Family draws at 50 times the benchmark's budgets, as (seed, round, draw):
# the draw-th of the round-th call of _family_draws on default_rng(seed).
# The step rule's run leaves one direction of each open, and would refuse
# it: on the first two mu climbs past 1e30 until the iterate stops being
# finite, the other three end 1.6e-9 to 1.4e-8 short of the gap.  Only the
# fixed-step restart answers them.
_RESTART_DRAWS = [(1050, 10, 2), (1050, 10, 11), (7050, 40, 3), (7050, 43, 2), (7050, 49, 3)]


@pytest.mark.parametrize("seed, rounds, index", _RESTART_DRAWS)
def test_wide_family_draws_that_need_the_restart_are_answered(seed, rounds, index):
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        list(_family_draws(rng, 50.0))
    fam, prior, budget, a = list(_family_draws(rng, 50.0))[index]
    cert = nu_exact(prior, budget, a)
    assert len(cert.restarted) == 1, fam
    assert cert.nu <= cert.nu_upper <= cert.nu + GAP_TOL, fam
    assert np.all(dp_audit(cert.witness).eps <= budget.eps + 1e-9)
    assert abs(mechanism_nu(prior, cert.witness, a) - cert.nu) <= 1e-9


def test_directions_between_steps_hold_only_their_iterates():
    # 5 coordinates of alphabet 4: 256 LP variables and 12 directions run
    # in lockstep.  One normal matrix, its factor or its inverse takes
    # 0.5 MiB; the parent of the lockstep solve, one direction at a time,
    # peaked at 3.1 MiB, and the lockstep solve read 8.6 MiB with each open
    # direction keeping its inverse factor between steps.
    rng = np.random.default_rng(5)
    prior = from_dense(5, 4, rng.uniform(0.05, 1.0, 4**5))
    budget = PrivacyBudget(rng.uniform(0.05, 1.0, 5))
    tracemalloc.start()
    try:
        cert = nu_exact(prior, budget, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.steps) == 12
    assert peak <= 4.5 * 2**20


# --- dependence blocks ---------------------------------------------------

def _blocks_prior(blocks, n):
    """The product prior over n binary coordinates of the given blocks:
    (coords, probs) pairs, probs little-endian over coords in the order
    listed, the coords of all blocks covering range(n) once."""
    t = np.ones((2,) * n)
    for coords, probs in blocks:
        block = np.transpose(cell_tensor(probs, len(coords), 2), np.argsort(coords))
        t = t * np.expand_dims(block, tuple(i for i in range(n) if i not in coords))
    return from_dense(n, 2, t.reshape(-1, order="F"))


def _block_probs(kind, size, rng):
    """Flat probabilities of one block: a dense positive prior, twins, the
    uniform prior on even-parity strings (pairwise independent but not
    jointly, from three coordinates on), or a biased coin."""
    if kind == "dense":
        return rng.uniform(0.05, 1.0, 2**size)
    if kind == "twins":
        return perfectly_correlated(size, float(rng.uniform(0.1, 0.9))).probs
    if kind == "parity":
        return 1.0 - cell_fold([(0, 1)] * size) % 2
    q = float(rng.uniform(0.05, 0.95))
    return np.array([1.0 - q, q])


def _unreduced(dist, a):
    """The dependence block that leaves no coordinate out."""
    return list(range(dist.n)), dist.probs


@st.composite
def _partitioned_priors(draw):
    """(prior, budget, target, block): a prior over at most 10 coordinates
    that is the product of blocks of random kinds at interleaved
    positions, and the target's block as the search must find it."""
    kinds = draw(st.lists(st.sampled_from(["dense", "twins", "parity", "coin"]),
                          min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = []
    for kind in kinds:
        size = 1 if kind == "coin" else draw(st.integers(2, 4))
        if sum(sizes) + size > 10:
            break
        sizes.append(size)
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    blocks, start = [], 0
    for kind, size in zip(kinds, sizes):
        blocks.append((kind, list(perm[start:start + size])))
        start += size
    prior = _blocks_prior([(coords, _block_probs(kind, len(coords), rng))
                           for kind, coords in blocks], n)
    a = draw(st.integers(0, n - 1))
    kind, coords = next(b for b in blocks if a in b[1])
    # Parity blocks from three coordinates on pass every pair test but
    # fail the joint check, so the search falls back to every coordinate.
    block = list(range(n)) if kind == "parity" and len(coords) >= 3 else sorted(coords)
    return prior, PrivacyBudget(rng.uniform(0.05, 1.0, n)), a, block


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_partitioned_priors())
def test_block_lp_agrees_with_the_unreduced_lp(case):
    prior, budget, a, block = case
    assert lp_exact._dependence_block(prior, a)[0] == block
    cert = nu_exact(prior, budget, a)
    with mock.patch.object(lp_exact, "_dependence_block", _unreduced):
        full = nu_exact(prior, budget, a)
    # Both intervals hold the true nu.
    assert cert.nu <= full.nu_upper + 1e-12 and full.nu <= cert.nu_upper + 1e-12
    assert cert.nu_upper - cert.nu <= GAP_TOL + 8 * lp_exact._BLOCK_TOL
    assert cert.per_direction.keys() == full.per_direction.keys()
    if len(block) == prior.n:
        assert cert.nu == full.nu and cert.nu_upper == full.nu_upper


@pytest.mark.parametrize("blocks,n,a", [
    ([([0], [0.3, 0.7]), ([1], [0.6, 0.4])], 2, 1),
    ([([0, 2], [0.4, 0.1, 0.2, 0.3]), ([1], [0.25, 0.75])], 3, 2),
    ([([1, 2], [0.5, 0.0, 0.0, 0.5]), ([0], [0.8, 0.2])], 3, 1),
    # Pairwise independent, not jointly: every coordinate stays.
    ([([0, 1, 2], [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0])], 3, 0),
], ids=["coins", "dense-pair-and-coin", "twins-and-coin", "parity"])
def test_block_lp_against_vertex_oracle(blocks, n, a):
    prior = _blocks_prior(blocks, n)
    budget = PrivacyBudget(np.array([0.35, 0.8, 0.55][:n]))
    cert = nu_exact(prior, budget, a)
    ref = nu_vertex_enumeration(prior, budget.eps, a)
    assert abs(cert.nu - ref) <= 1e-9
    assert cert.nu - 1e-9 <= ref <= cert.nu_upper + 1e-9


def test_parity_prior_keeps_every_coordinate():
    # Every pair of its coordinates is independent, yet x_0 is their parity.
    for r, s in ((1, 2), (2, 2), (1, 5)):
        prior = parity_constrained(r, s)
        block, probs = lp_exact._dependence_block(prior, 0)
        assert block == list(range(prior.n)) and probs is prior.probs


def test_product_of_twenty_coordinates_answers_its_own_budget():
    # 2**19 LP variables if no coordinate left; the block is the target.
    rng = np.random.default_rng(20)
    prior = product([[1.0 - q, q] for q in rng.uniform(0.05, 0.95, 20)])
    budget = PrivacyBudget(rng.uniform(0.05, 1.0, 20))
    cert = nu_exact(prior, budget, 13)
    assert abs(cert.nu - budget.eps[13]) <= 1e-12
    assert cert.nu <= cert.nu_upper <= cert.nu + GAP_TOL
    assert cert.per_direction.keys() == {(0, 1), (1, 0)}


def test_affiliated_block_among_independent_coordinates():
    # random_affiliated(6) at scattered positions of 16 coordinates, the
    # other ten independent coins: nu is that of the 6-coordinate prior.
    rng = np.random.default_rng(16)
    core = random_affiliated(6, rng)
    coords = [1, 4, 5, 9, 12, 15]
    coins = [([c], [1.0 - q, q]) for c, q in
             zip([c for c in range(16) if c not in coords], rng.uniform(0.05, 0.95, 10))]
    prior = _blocks_prior([(coords, core.probs)] + coins, 16)
    budget = PrivacyBudget(rng.uniform(0.05, 1.0, 16))
    for k, a in enumerate(coords[::2]):
        cert = nu_exact(prior, budget, a)
        small = nu_exact(core, PrivacyBudget(budget.eps[coords]), coords.index(a))
        assert abs(cert.nu - small.nu) <= GAP_TOL
        assert cert.nu <= small.nu_upper + 1e-12 and small.nu <= cert.nu_upper
        assert np.all(dp_audit(cert.witness).eps <= budget.eps + 1e-9)
