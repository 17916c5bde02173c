"""`leakage`: every method of nu through one entry point, and the policy
of method "all"."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import infera
import infera.methods
from infera.affiliated import nu_closed_form
from infera.dist import from_dense, parity_constrained, product
from infera.errors import InferaError, NotAffiliated, ParseError, SizeCap
from infera.ising import nu_tree, tree_prior
from infera.lp_exact import nu_exact
from infera.mechanism import PrivacyBudget
from infera.methods import leakage

TREE7 = tree_prior(d=2, depth=2, J=0.3, h0=0.1)


def _budget(prior, eps=0.2):
    return PrivacyBudget.uniform(prior.n, eps)


def test_a_single_method_returns_the_direct_call():
    budget = _budget(TREE7)
    dense = TREE7.dense()
    for prior in (TREE7, dense):
        got = leakage(prior, budget, 1, "exact")
        cert = nu_exact(dense, budget, 1)
        assert (got.nu, got.method, got.spread, got.warnings) == (cert.nu, "exact", 0.0, ())
        (answer,) = got.answers.values()
        for f in dataclasses.fields(cert):
            if f.name == "witness":
                assert np.array_equal(answer.witness.values, cert.witness.values)
            else:
                assert getattr(answer, f.name) == getattr(cert, f.name), f.name
        got = leakage(prior, budget, 1, "closed-form")
        closed = nu_closed_form(dense, budget, 1)
        assert got.answers == {"closed-form": closed}
        assert (got.nu, got.method, got.spread, got.warnings) == (closed.nu, "closed-form", 0.0, ())
    got = leakage(TREE7, budget, 1, "gibbs")
    want = float(nu_tree(TREE7, budget)[1])
    assert got.answers == {"gibbs": want}
    assert (got.nu, got.method, got.spread, got.warnings) == (want, "gibbs", 0.0, ())


def test_a_single_method_raises_what_it_raises():
    parity = parity_constrained(2, 2)
    with pytest.raises(NotAffiliated):
        leakage(parity, _budget(parity), 0, "closed-form")
    dense = TREE7.dense()
    with pytest.raises(ParseError, match="gibbs needs an ising_tree"):
        leakage(dense, _budget(dense), 0, "gibbs")


def test_all_answers_with_the_lp_on_a_small_tree():
    got = leakage(TREE7, _budget(TREE7), 0, "all")
    assert got.method == "exact" and got.nu == got.answers["exact"].nu
    assert set(got.answers) == {"exact", "closed-form", "gibbs"}
    assert got.warnings == () and got.spread <= 1e-9


def test_all_answers_by_the_tree_recursion_past_the_lp_cap():
    tree = tree_prior(d=2, depth=3, J=0.3, h0=0.1)
    got = leakage(tree, _budget(tree), 0, "all")
    assert got.method == "gibbs" and got.nu == got.answers["gibbs"]
    assert set(got.answers) == {"closed-form", "gibbs"}
    (warning,) = got.warnings
    assert warning.startswith("exact LP skipped: LP over 2**14 profile cells")


def test_all_skips_the_closed_form_on_a_ternary_prior():
    prior = product([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
    got = leakage(prior, _budget(prior, 0.3), 0, "all")
    assert got.method == "exact" and set(got.answers) == {"exact"}
    assert got.warnings == ("closed form skipped: closed form requires binary coordinates",)


def test_all_skips_both_dense_methods_on_a_tree_past_the_cap():
    tree = tree_prior(d=2, depth=4, J=0.3, h0=0.1)
    got = leakage(tree, _budget(tree), 0, "all")
    assert got.method == "gibbs" and set(got.answers) == {"gibbs"}
    refusal = "Ising prior with 31 sites needs 2**31 entries, cap 1048576"
    assert got.warnings == (f"exact LP skipped: {refusal}", f"closed form skipped: {refusal}")


def test_all_raises_the_lp_refusal_when_no_method_answers():
    # Nine ternary coordinates, none independent of the target: the LP is
    # over its cap, the closed form needs binary coordinates and the prior
    # is not a tree.
    probs = np.random.default_rng(9).uniform(0.05, 1.0, 3**9)
    prior = from_dense(9, 3, probs)
    with pytest.raises(SizeCap, match="^LP over"):
        leakage(prior, _budget(prior, 0.1), 0, "all")


@pytest.mark.parametrize("shift,warns", [(2e-6, True), (5e-7, False)])
def test_all_warns_when_the_methods_disagree(monkeypatch, shift, warns):
    def shifted(*args):
        res = nu_closed_form(*args)
        return dataclasses.replace(res, nu=res.nu + shift)

    monkeypatch.setattr(infera.methods, "nu_closed_form", shifted)
    got = leakage(TREE7, _budget(TREE7), 0, "all")
    assert abs(got.spread - shift) <= 1e-9
    assert got.method == "exact" and got.nu == got.answers["exact"].nu
    want = (f"methods disagree by {got.spread:.3e}, beyond 1e-6",) if warns else ()
    assert got.warnings == want


def test_an_unknown_method_raises():
    with pytest.raises(InferaError, match="unknown method"):
        leakage(TREE7, _budget(TREE7), 0, "lp")


def test_the_benchmarked_layers_do_not_load_methods():
    src = os.path.dirname(os.path.dirname(os.path.abspath(infera.__file__)))
    code = ("import sys, infera, infera.dist, infera.lp_exact, infera.ising\n"
            "print('infera.methods' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
