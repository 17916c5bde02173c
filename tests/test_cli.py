"""End-to-end command line checks through main(argv)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infera
from infera.cli import main
from infera.files import distribution_from_obj
from infera.ising import IsingPrior, nu_tree, tree_prior
from infera.mechanism import EventProfile, PrivacyBudget, dp_audit, mechanism_nu
from infera.dist import JointDistribution, parity_constrained
from test_lp_exact import _family_draws


@pytest.fixture
def write_json(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


TWINS = {"generator": "twins", "params": {"n": 2, "p_one": 0.5}}
PRODUCT = {"generator": "product", "params": {"marginals": [[0.3, 0.7], [0.6, 0.4]]}}
PARITY = {"generator": "parity", "params": {"r": 2, "s": 2}}
TREE = {"generator": "ising_tree", "params": {"d": 2, "depth": 2, "J": 0.3, "h0": 0.1}}
TREE3 = {"generator": "ising_tree", "params": {"d": 2, "depth": 1, "J": 0.3}}
TREE63 = {"generator": "ising_tree", "params": {"d": 2, "depth": 5, "J": 0.3, "h0": 0.1}}
DENSE3 = {"n": 3, "alphabet": 2, "probs": [0.1, 0.2, 0.05, 0.15, 0.1, 0.1, 0.2, 0.1]}


def test_check_flags_parity_prior(write_json, capsys):
    path = write_json("parity.json", PARITY)
    code, report = _run(capsys, ["check", "--dist", path])
    assert code == 1
    assert report["results"]["affiliated"] is False
    x1, x2 = report["results"]["witness"]
    assert len(x1) == 5 and len(x2) == 5
    # Pairwise positivity still holds on this prior.
    assert report["results"]["pairwise_positive"] is True


def test_check_flags_three_point_prior(write_json, capsys):
    # Uniform on {100, 011, 111} (bits x0 x1 x2) times three fair coins.
    probs = np.zeros(8)
    probs[[0b001, 0b110, 0b111]] = 1.0 / 24.0
    path = write_json("three.json", {"n": 6, "alphabet": 2, "probs": np.tile(probs, 8).tolist()})
    code, report = _run(capsys, ["check", "--dist", path, "--what", "affiliation"])
    assert code == 1
    assert report["results"]["affiliated"] is False
    x1, x2 = report["results"]["witness"]
    idx = [sum(b << k for k, b in enumerate(x)) for x in (x1, x2)]
    p = np.tile(probs, 8) * 8.0
    assert p[idx[0] | idx[1]] * p[idx[0] & idx[1]] < p[idx[0]] * p[idx[1]]


def test_check_passes_product_prior(write_json, capsys):
    path = write_json("product.json", PRODUCT)
    code, report = _run(capsys, ["check", "--dist", path])
    assert code == 0
    assert report["results"] == {"affiliated": True, "pairwise_positive": True}
    assert len(report["inputs"]["digest"]) == 16


def test_weights_summing_past_the_float_range_load(write_json, capsys):
    path = write_json("big.json", {"n": 2, "alphabet": 2, "probs": [1.7e308] * 4})
    code, report = _run(capsys, ["check", "--dist", path])
    assert code == 0
    assert report["results"]["affiliated"] is True


def test_malformed_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["check", "--dist", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_nu_exact_twins(write_json, capsys):
    path = write_json("twins.json", TWINS)
    code, report = _run(capsys, ["nu", "--dist", path, "--eps", "0.5"])
    assert code == 0
    res = report["results"]
    assert abs(res["nu"] - 1.0) <= 1e-9
    assert res["direction"] == [0, 1]
    assert res["nu"] <= res["nu_upper"] <= res["nu"] + 1e-9
    assert set(res["per_direction"]) == {"0->1", "1->0"}
    assert report["command"].startswith("nu ")


def test_nu_all_methods_agree_on_tree(write_json, capsys):
    path = write_json("tree.json", TREE)
    code, report = _run(
        capsys, ["nu", "--dist", path, "--eps", "0.2", "--method", "all"]
    )
    assert code == 0
    res = report["results"]
    assert {"exact", "closed_form", "gibbs"} <= set(res)
    assert "max_discrepancy" not in res
    assert report["diagnostics"]["max_discrepancy"] <= 1e-6
    assert report["warnings"] == []


def test_nu_closed_form_refuses_parity(write_json, capsys):
    path = write_json("parity.json", PARITY)
    code, report = _run(
        capsys,
        ["nu", "--dist", path, "--eps", "0.2", "--method", "closed-form"],
    )
    assert code == 1
    assert report["results"]["nu"] is None
    assert len(report["results"]["not_affiliated_witness"]) == 2
    assert report["warnings"]


def test_closed_form_has_no_force_option(write_json, capsys):
    path = write_json("parity.json", PARITY)
    with pytest.raises(SystemExit) as exc:
        main(["nu", "--dist", path, "--eps", "0.2", "--method", "closed-form", "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_nu_witness_round_trip(write_json, capsys, tmp_path):
    path = write_json("parity.json", PARITY)
    wpath = str(tmp_path / "witness.json")
    code, report = _run(
        capsys,
        ["nu", "--dist", path, "--eps", "0.2", "--witness-out", wpath],
    )
    assert code == 0
    nu = report["results"]["nu"]
    with open(wpath) as fh:
        obj = json.load(fh)
    assert (obj["kind"], obj["n"], obj["alphabet"]) == ("profile", 5, 2)
    prof = EventProfile(n=5, alphabet_size=2, values=np.asarray(obj["m"]))
    assert np.all(dp_audit(prof).eps <= 0.2 + 1e-7)
    d = parity_constrained(2, 2)
    assert abs(mechanism_nu(d, prof, 0) - nu) <= 1e-7


def test_nu_rejects_bad_eps_arity(write_json, capsys):
    path = write_json("product.json", PRODUCT)
    assert main(["nu", "--dist", path, "--eps", "0.1,0.2,0.3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("eps", ["1,,2,3", "0.2,", ",0.2", ""])
def test_nu_refuses_an_empty_eps_field(write_json, capsys, eps):
    # Dropping the empty field would move every later budget onto the
    # wrong site; a trailing comma is refused as well.
    path = write_json("tree3.json", TREE3)
    code = main(["nu", "--dist", path, "--eps", eps, "--method", "gibbs"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "--eps" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["ising", "sensitivity", "--J", "0.3", "--h0", "0.1", "--d", "2", "--eps-list", "0.2,,1"],
     "--eps-list"),
    (["ising", "sweep", "--J-grid", "0.3", "--eps-grid", "0.2,", "--d", "2"], "--eps-grid"),
    (["ising", "sweep", "--J-grid", "0.3,,0.5", "--eps-grid", "0.2", "--d", "2"], "--J-grid"),
], ids=["eps-list", "eps-grid", "J-grid"])
def test_ising_lists_refuse_an_empty_field(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and flag in captured.err


def test_nu_gibbs_needs_tree_file(write_json, capsys):
    path = write_json("product.json", PRODUCT)
    assert main(["nu", "--dist", path, "--eps", "0.2", "--method", "gibbs"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --method gibbs needs an ising_tree generator file\n"


def test_nu_reports_lp_steps_outside_results(write_json, capsys):
    # The same prior as the restart pin in test_lp_exact: every direction
    # but 0->1 is stopped once it cannot beat 0->1, and none restarts.
    rng = np.random.default_rng(126)
    probs = rng.uniform(0.05, 1.0, 64)
    eps = ",".join(repr(float(v)) for v in 5.0 * rng.uniform(0.05, 1.0, 3))
    wide = write_json("wide.json", {"n": 3, "alphabet": 4, "probs": probs.tolist()})
    tree = write_json("tree.json", TREE)
    cases = [
        (["nu", "--dist", wide, "--eps", eps, "--target", str(int(rng.integers(3)))], 12, 11),
        (["nu", "--dist", tree, "--eps", "0.2", "--method", "all"], 2, 1),
    ]
    for argv, directions, stopped in cases:
        _, first = _run(capsys, argv)
        _, again = _run(capsys, argv)
        diagnostics, results = first["diagnostics"], first["results"]
        assert len(diagnostics["lp_steps"]) == directions
        assert all(isinstance(k, int) and k > 0 for k in diagnostics["lp_steps"].values())
        assert diagnostics["lp_restarted"] == []
        assert len(diagnostics["lp_stopped"]) == stopped
        for z, (lower, upper) in diagnostics["lp_stopped"].items():
            assert lower < upper <= results["nu"]
            # A stopped direction reports its upper bound: it never understates.
            if "per_direction" in results:
                assert results["per_direction"][z] == float(f"{upper:.12g}")
        assert not {"lp_steps", "lp_restarted", "lp_stopped"} & set(results)
        assert json.dumps(results) == json.dumps(again["results"])


def test_nu_reports_a_restart_outside_results(write_json, capsys):
    # The pinned parity draw (1050, 10, 11) of test_lp_exact at 50 times
    # the benchmark's budgets: the step rule leaves direction 1->0 open
    # while it could still win, and the fixed-step restart closes it.
    rng = np.random.default_rng(1050)
    for _ in range(10):
        list(_family_draws(rng, 50.0))
    fam, _, budget, a = list(_family_draws(rng, 50.0))[11]
    assert (fam, a) == ("parity", 1)
    path = write_json("parity.json", {"generator": "parity", "params": {"r": 1, "s": 5}})
    eps = ",".join(repr(float(v)) for v in budget.eps)
    code, report = _run(capsys, ["nu", "--dist", path, "--eps", eps, "--target", "1"])
    assert code == 0
    assert report["diagnostics"]["lp_restarted"] == ["1->0"]
    assert report["diagnostics"]["lp_steps"] == {"0->1": 14, "1->0": 33}
    assert not {"lp_steps", "lp_restarted", "lp_stopped"} & set(report["results"])


def test_a_file_loads_as_one_prior():
    # A tree stays sparse: 63 sites, not 2**63 cells.
    prior = distribution_from_obj(TREE63)
    assert isinstance(prior, IsingPrior) and prior.n == 63
    assert isinstance(distribution_from_obj(TWINS), JointDistribution)
    assert isinstance(distribution_from_obj(DENSE3), JointDistribution)


def test_nu_gibbs_past_the_dense_cap(write_json, capsys):
    # 63 sites: 2**63 cells, but nu_tree never enumerates them.
    path = write_json("tree63.json", TREE63)
    code, report = _run(capsys, ["nu", "--dist", path, "--eps", "0.2", "--target", "40",
                                 "--method", "gibbs"])
    prior = tree_prior(d=2, depth=5, J=0.3, h0=0.1)
    want = nu_tree(prior, PrivacyBudget.uniform(63, 0.2))[40]
    assert code == 0
    assert report["results"]["nu"] == float(f"{want:.12g}")


def test_nu_gibbs_takes_any_budget(write_json, capsys):
    path = write_json("tree.json", TREE)
    argv = ["nu", "--dist", path, "--eps", "0.1,0.2,0.3,0.05,0.4,0.15,0.25", "--target", "1"]
    code, closed = _run(capsys, argv + ["--method", "closed-form"])
    assert code == 0
    for method, key in (("gibbs", "nu"), ("all", "gibbs")):
        code, report = _run(capsys, argv + ["--method", method])
        assert code == 0
        assert abs(report["results"][key] - closed["results"]["nu"]) <= 1e-9


def test_nu_gibbs_refuses_a_budget_its_fields_swallow(write_json, capsys):
    # h0 + 1/2 rounds back to h0 = 1e17, which would report nu = 0 < eps.
    path = write_json("tree.json", {"generator": "ising_tree",
                                    "params": {"d": 2, "depth": 1, "J": 0.3, "h0": 1e17}})
    code = main(["nu", "--dist", path, "--eps", "1", "--method", "gibbs"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "error: site 0 " in captured.err


def test_nu_gibbs_answers_a_zero_budget(write_json, capsys):
    # At eps = 0 the three field settings coincide and every site leaks
    # exactly 0, however large the fields; at eps = 1e-9 the fields still
    # swallow the budget.
    path = write_json("tree.json", {"generator": "ising_tree",
                                    "params": {"d": 2, "depth": 1, "J": 0.3, "h0": 1e4}})
    for target in ("0", "2"):
        code, report = _run(capsys, ["nu", "--dist", path, "--eps", "0", "--target", target,
                                     "--method", "gibbs"])
        assert code == 0
        assert report["results"]["nu"] == 0.0
    code = main(["nu", "--dist", path, "--eps", "1e-9", "--method", "gibbs"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "error: site 0 " in captured.err


def test_nu_all_skips_an_lp_over_the_cap(write_json, capsys):
    # 2**14 profile cells against the default LP cap of 2**11: the tree
    # recursion and the closed form still answer.
    path = write_json("tree15.json", {"generator": "ising_tree",
                                      "params": {"d": 2, "depth": 3, "J": 0.3, "h0": 0.1}})
    code, report = _run(capsys, ["nu", "--dist", path, "--eps", "0.2", "--method", "all"])
    assert code == 0
    res = report["results"]
    assert "exact" not in res
    assert abs(res["gibbs"] - res["closed_form"]) <= 1e-9
    assert res["nu"] == res["gibbs"]
    assert report["diagnostics"]["max_discrepancy"] <= 1e-9
    assert len(report["warnings"]) == 1
    assert report["warnings"][0].startswith("exact LP skipped: LP over 2**14 profile cells")


def test_nu_all_skips_the_dense_methods_on_a_tree_over_the_cap(write_json, capsys):
    # 31 sites: 2**31 cells against the default cap of 2**20, but the tree
    # recursion still answers, as --method gibbs does.
    path = write_json("tree31.json", {"generator": "ising_tree",
                                      "params": {"d": 2, "depth": 4, "J": 0.3, "h0": 0.1}})
    argv = ["nu", "--dist", path, "--eps", "0.2", "--method"]
    code, report = _run(capsys, argv + ["all"])
    assert code == 0
    _, gibbs = _run(capsys, argv + ["gibbs"])
    assert report["results"]["nu"] == gibbs["results"]["nu"] == 0.441783948386
    refusal = "Ising prior with 31 sites needs 2**31 entries, cap 1048576"
    assert report["warnings"] == [f"exact LP skipped: {refusal}",
                                  f"closed form skipped: {refusal}"]


def test_nu_all_skips_a_closed_form_refused_by_size(write_json, capsys):
    # 16 fair coins and one constant coordinate: 2**16 supported cells, so
    # the affiliation check over pairs of them is past its cap, while the
    # LP on the target's block, a single coin, answers eps.
    path = write_json("coins.json", {"generator": "product",
                                     "params": {"marginals": [[0.5, 0.5]] * 16 + [[1, 0]]}})
    argv = ["nu", "--dist", path, "--eps", "0.2", "--target", "1", "--method"]
    code, exact = _run(capsys, argv + ["exact"])
    assert code == 0 and exact["results"]["nu"] == 0.2
    code, report = _run(capsys, argv + ["all"])
    assert code == 0
    assert report["results"]["nu"] == report["results"]["exact"] == 0.2
    assert "closed_form" not in report["results"]
    assert report["warnings"] == ["closed form skipped: affiliation check on a prior with zero "
                                  "cells needs 65536**2 pair comparisons, cap 1073741824"]


def test_nu_exact_refuses_an_lp_too_large_for_memory(write_json):
    # 2**14 LP variables pass --lp-cap 16, but the solver would peak near
    # 12 GiB.  In a 1 GiB address space the refusal must come by size,
    # before an allocation fails.
    path = write_json("tree15.json", {"generator": "ising_tree",
                                      "params": {"d": 2, "depth": 3, "J": 0.3, "h0": 0.1}})
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from infera.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(infera.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    argv = ["nu", "--dist", path, "--eps", "0.2", "--method", "exact", "--lp-cap", "16"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == "" and "unexpected" not in proc.stderr
    assert proc.stderr.startswith("error: LP over 16384 variables needs 12884901888 bytes")


def _dense_ternary_9():
    """A seeded dense prior on nine ternary coordinates, as a file object."""
    probs = np.random.default_rng(9).uniform(0.05, 1.0, 3**9)
    return {"n": 9, "alphabet": 3, "probs": probs.tolist()}


def test_nu_all_fails_when_no_method_answers(write_json, capsys):
    # Nine ternary coordinates, none independent of the target: the LP is
    # over the cap, the closed form needs binary coordinates and the prior
    # is not a tree.
    path = write_json("ternary.json", _dense_ternary_9())
    code = main(["nu", "--dist", path, "--eps", "0.1", "--method", "all"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error: LP over")


@pytest.mark.parametrize("argv", [
    ["check"],
    ["bound", "--eps", "0.2"],
    ["nu", "--eps", "0.2", "--method", "exact"],
    ["nu", "--eps", "0.2", "--method", "closed-form"],
    ["nu", "--eps", "0.2", "--method", "gibbs"],
    ["nu", "--eps", "0.2", "--method", "all"],
], ids=["check", "bound", "exact", "closed-form", "gibbs", "all"])
def test_tree_past_the_site_cap_is_refused_before_it_is_built(write_json, capsys, argv):
    path = write_json("deep.json", {"generator": "ising_tree",
                                    "params": {"d": 2, "depth": 62, "J": 0.3}})
    code = main(argv[:1] + ["--dist", path] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ising_tree") and "cap" in captured.err


@pytest.mark.parametrize("argv", [
    ["ising", "nu-limit", "--J", "0.3", "--eps", "0.2", "--d", "2", "--cap", "8"],
    ["ising", "critical", "--d", "2", "--cap", "8"],
    ["ising", "enforce", "--nu", "0.4", "--J", "0.3", "--d", "2", "--cap", "8"],
    ["ising", "sensitivity", "--J", "0.3", "--h0", "0.1", "--d", "2", "--eps-list", "0.2",
     "--cap", "8"],
    ["ising", "sweep", "--J-grid", "0.3", "--eps-grid", "0.2", "--d", "2", "--cap", "8"],
    ["ising", "sweep", "--J-grid", "0.3", "--eps-grid", "0.2", "--d", "2", "--format", "json"],
], ids=["nu-limit-cap", "critical-cap", "enforce-cap", "sensitivity-cap", "sweep-cap",
        "sweep-format"])
def test_options_without_effect_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    capsys.readouterr()
    assert exc.value.code == 2


def test_bound_on_product_prior(write_json, capsys):
    path = write_json("product.json", PRODUCT)
    code, report = _run(capsys, ["bound", "--dist", path, "--eps", "0.3,0.7"])
    assert code == 0
    res = report["results"]
    assert np.allclose(res["nu_bound"], [0.6, 1.4], atol=1e-9)
    assert abs(res["delta"] - 1.0) <= 1e-9
    assert np.allclose(res["nu_delta_bound"], [0.6, 1.4], atol=1e-9)
    assert res["spectral_norm"] <= 1e-9


def test_bound_reports_unbounded_coupling(write_json, capsys):
    path = write_json("twins.json", TWINS)
    code, report = _run(capsys, ["bound", "--dist", path, "--eps", "0.3"])
    assert code == 0
    assert report["results"]["gamma"][0][1] == "inf"
    assert any("unbounded" in w for w in report["warnings"])
    assert "nu_bound" not in report["results"]


def test_ising_critical(capsys):
    code, report = _run(capsys, ["ising", "critical", "--d", "2"])
    assert code == 0
    want = 0.5 * math.log(3.0)
    assert abs(report["results"]["critical_coupling"] - want) <= 1e-9
    # The infinite path has no finite critical coupling.
    code, report = _run(capsys, ["ising", "critical", "--d", "1"])
    assert code == 0
    assert report["results"]["critical_coupling"] == "inf"
    assert main(["ising", "critical", "--d", "-1"]) == 2
    capsys.readouterr()


def test_ising_nu_limit_supercritical(capsys):
    code, report = _run(
        capsys, ["ising", "nu-limit", "--J", "0.7", "--eps", "1e-6", "--d", "2"]
    )
    assert code == 0
    assert report["results"]["nu"] > 0.05
    assert report["results"]["fixed_point"] > 1.05


def test_ising_enforce(capsys):
    code, report = _run(
        capsys, ["ising", "enforce", "--nu", "0.4", "--J", "0.0", "--d", "2"]
    )
    assert code == 0
    assert report["results"]["enforceable_eps"] == 0.4

    code, report = _run(
        capsys, ["ising", "enforce", "--nu", "0.01", "--J", "0.7", "--d", "2"]
    )
    assert code == 1
    assert report["results"]["enforceable_eps"] is None
    assert any("floor" in w for w in report["warnings"])

    # Just below the critical coupling atanh(1/2) = 0.5493061...
    code, report = _run(
        capsys, ["ising", "enforce", "--nu", "0.4", "--J", "0.5493", "--d", "2"]
    )
    assert code == 0
    assert 0.0 < report["results"]["enforceable_eps"] < 0.4


def test_ising_sensitivity(capsys):
    code, report = _run(
        capsys,
        [
            "ising", "sensitivity",
            "--J", "3.0", "--h0", "0.3", "--d", "2",
            "--eps-list", "0.2,1.0",
        ],
    )
    assert code == 0
    rows = report["results"]["profile"]
    assert rows[0]["nu"] / rows[0]["eps"] < 2.0
    assert rows[1]["nu"] / rows[1]["eps"] > 10.0


def test_ising_sweep_csv(capsys, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = main(
        [
            "ising", "sweep",
            "--J-grid", "0.2,0.4", "--eps-grid", "0.1,0.3", "--d", "2",
            "--out", out,
        ]
    )
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "eps,J,h0,d,nu,backend"
    assert len(lines) == 5
    assert all(line.endswith("bethe-limit") for line in lines[1:])
    capsys.readouterr()

    code = main(
        [
            "ising", "sweep",
            "--J-grid", "0.2", "--eps-grid", "0.1", "--d", "2", "--h0", "0.1",
        ]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert text.strip().splitlines()[1].endswith("bethe-sensitivity")


def test_reports_are_deterministic(write_json, capsys):
    path = write_json(
        "dense.json", {"n": 2, "alphabet": 2, "probs": [0.1, 0.2, 0.3, 0.4]}
    )
    argv = ["nu", "--dist", path, "--eps", "0.3,0.7"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first["results"] == second["results"]
    assert first["inputs"] == second["inputs"]


def test_cap_env_variable(write_json, capsys, monkeypatch):
    path = write_json("parity.json", PARITY)
    monkeypatch.setenv("INFERA_CAP", "4")
    assert main(["check", "--dist", path]) == 2
    capsys.readouterr()
    monkeypatch.setenv("INFERA_CAP", "not-a-number")
    assert main(["check", "--dist", path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,env", [
    (["check", "--cap", "0"], None), (["check", "--cap", "-3"], None), (["check"], "0"),
    (["nu", "--eps", "0.2", "--lp-cap", "0"], None),
    (["nu", "--eps", "0.2", "--lp-cap", "-5"], None),
], ids=["cap-0", "cap-negative", "env-0", "lp-cap-0", "lp-cap-negative"])
def test_cap_must_be_positive(write_json, capsys, monkeypatch, argv, env):
    path = write_json("tree.json", TREE)
    if env is not None:
        monkeypatch.setenv("INFERA_CAP", env)
    code = main(argv[:1] + ["--dist", path] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "positive integer" in captured.err


def test_nu_all_skips_the_closed_form_on_a_ternary_prior(write_json, capsys):
    path = write_json("ternary.json", {"generator": "product", "params": {
        "marginals": [[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]]}})
    argv = ["nu", "--dist", path, "--eps", "0.3"]
    code, exact = _run(capsys, argv + ["--method", "exact"])
    assert code == 0
    code, report = _run(capsys, argv + ["--method", "all"])
    assert code == 0
    assert report["results"]["exact"] == exact["results"]["nu"]
    assert "closed_form" not in report["results"]
    assert any(w.startswith("closed form skipped: ") for w in report["warnings"])


@pytest.mark.parametrize("obj, power", [
    ({"n": 10**8, "alphabet": 2, "probs": [0.5, 0.5]}, "2**100000000"),
    ({"generator": "parity", "params": {"r": 10**4, "s": 10**4}}, "2**100000001"),
], ids=["dense", "parity"])
def test_a_huge_count_in_a_file_is_a_size_error(write_json, capsys, obj, power):
    # Not a ParseError from printing the power's digits.
    path = write_json("huge.json", obj)
    code = main(["nu", "--dist", path, "--eps", "0.3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: prior needs {power} entries, cap 1048576\n"


@pytest.mark.parametrize("obj", [
    {"generator": "ising_tree", "params": {"d": 2, "depth": 1, "J": "abc"}},
    {"n": 1, "alphabet": 2, "probs": "xyz"},
    {"generator": "product", "params": {"marginals": []}},
    {"generator": "twins", "params": [1]},
], ids=["J-string", "probs-string", "marginals-empty", "params-list"])
def test_malformed_params_are_a_parse_error(write_json, capsys, obj):
    path = write_json("bad.json", obj)
    code = main(["nu", "--dist", path, "--eps", "0.3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "unexpected" not in captured.err


@pytest.mark.parametrize("text, field", [
    ('{"generator": "ising_tree", "params": {"d": 2.9, "depth": 1.7, "J": 0.3}}', "'d'"),
    ('{"generator": "ising_tree", "params": {"d": 2, "depth": 1.7, "J": 0.3}}', "'depth'"),
    ('{"generator": "ising_tree", "params": {"d": 2, "depth": 1e400, "J": 0.3}}', "'depth'"),
    ('{"generator": "twins", "params": {"n": 3.9, "p_one": 0.5}}', "'n'"),
    ('{"generator": "parity", "params": {"r": 2, "s": 1.5}}', "'s'"),
    ('{"n": 2.5, "alphabet": 2, "probs": [0.25, 0.25, 0.25, 0.25]}', "'n'"),
    ('{"n": 2, "alphabet": 2.5, "probs": [0.25, 0.25, 0.25, 0.25]}', "'alphabet'"),
], ids=["tree-d", "tree-depth", "tree-depth-inf", "twins-n", "parity-s", "dense-n",
        "dense-alphabet"])
def test_fractional_counts_are_a_parse_error(tmp_path, capsys, text, field):
    # int() would truncate these, or fail untyped on inf.
    path = tmp_path / "frac.json"
    path.write_text(text)
    code = main(["nu", "--dist", str(path), "--eps", "0.3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "unexpected" not in captured.err
    assert field in captured.err


def test_integral_float_counts_still_load():
    tree = {"generator": "ising_tree", "params": {"d": 2.0, "depth": 1.0, "J": 0.3}}
    assert distribution_from_obj(tree).n == 3
    assert distribution_from_obj({"generator": "twins", "params": {"n": 3.0, "p_one": 0.5}}).n == 3


@pytest.mark.parametrize("eps", [0.41, 0.7])
def test_nu_gibbs_never_reports_below_the_budget(write_json, capsys, eps):
    # At h0 = 1e8 the fields round nu_0 to a hair below eps_0.
    path = write_json("tree.json", {"generator": "ising_tree",
                                    "params": {"d": 2, "depth": 1, "J": 0.3, "h0": 1e8}})
    code, report = _run(capsys, ["nu", "--dist", path, "--eps", repr(eps), "--method", "gibbs"])
    assert code == 0
    assert report["results"]["nu"] >= eps


@pytest.mark.parametrize("argv", [
    ["check"],
    ["bound", "--eps", "1"],
    ["nu", "--eps", "1", "--method", "exact"],
    ["nu", "--eps", "1", "--method", "closed-form"],
], ids=["check", "bound", "exact", "closed-form"])
def test_dense_methods_refuse_an_underflowed_tree(write_json, capsys, argv):
    # At h0 = 1e17 seven of the eight cells underflow to weight 0,
    # though every cell of an Ising prior has positive mass.
    path = write_json("tree.json", {"generator": "ising_tree",
                                    "params": {"d": 2, "depth": 1, "J": 0.3, "h0": 1e17}})
    code = main(argv[:1] + ["--dist", path] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "underflows" in captured.err


def test_csv_format_and_out_file(write_json, capsys, tmp_path):
    # Reports are JSON only: --format is not an option.
    path = write_json("product.json", PRODUCT)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--dist", path, "--format", "csv"])
    assert exc.value.code == 2
    capsys.readouterr()

    target = str(tmp_path / "report.json")
    code = main(["check", "--dist", path, "--out", target])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(open(target).read())["results"]["affiliated"] is True


@pytest.mark.parametrize("method", ["exact", "closed-form", "gibbs"])
@pytest.mark.parametrize("target", ["7", "-1"])
def test_nu_out_of_range_target_is_an_error(write_json, capsys, method, target):
    path = write_json("tree3.json", TREE3)
    code = main(["nu", "--dist", path, "--eps", "0.2", "--target", target, "--method", method])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("prior,argv", [
    (TWINS, ["--eps", "inf", "--method", "closed-form"]),
    (DENSE3, ["--eps", "nan"]),
])
def test_nu_rejects_non_finite_eps(write_json, capsys, prior, argv):
    path = write_json("prior.json", prior)
    code = main(["nu", "--dist", path] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_nu_exact_lp_cap_counts_cells(write_json, capsys):
    # Nine ternary coordinates, none independent of the target: 3**8 LP
    # variables, past the default cap.
    path = write_json("ternary.json", _dense_ternary_9())
    code = main(["nu", "--dist", path, "--eps", "0.1", "--method", "exact"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "error: unexpected" not in captured.err


def test_product_past_the_lp_cap_answers_its_own_budget(write_json, capsys):
    # Fourteen coordinates, 2**13 LP variables over all of them, past both
    # the default --lp-cap and --lp-cap 2; each coordinate's block is itself.
    marginals = [[0.3, 0.7], [0.6, 0.4]] * 7
    path = write_json("product14.json", {"generator": "product",
                                         "params": {"marginals": marginals}})
    eps = [round(0.05 + 0.06 * i, 2) for i in range(14)]
    for extra in ([], ["--lp-cap", "2"]):
        code, report = _run(capsys, ["nu", "--dist", path, "--target", "9", "--eps",
                                     ",".join(map(str, eps)), "--method", "exact"] + extra)
        assert code == 0
        res = report["results"]
        assert abs(res["nu"] - eps[9]) <= 1e-12
        assert res["nu"] <= res["nu_upper"] <= res["nu"] + 1e-9


@pytest.mark.parametrize("eps", ["2000", "1e308"])
def test_nu_limit_huge_budget_is_a_typed_error(capsys, eps):
    code = main(["ising", "nu-limit", "--J", "0.3", "--eps", eps, "--d", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "error: unexpected" not in captured.err


@pytest.mark.parametrize("argv", [
    ["ising", "nu-limit", "--J", "0.3", "--eps", "nan", "--d", "2"],
    ["ising", "sensitivity", "--J", "0.3", "--h0", "0.1", "--d", "2", "--eps-list", "nan"],
], ids=["nu-limit", "sensitivity"])
def test_nan_budget_is_named_as_eps(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err and "eps" in captured.err


@pytest.mark.parametrize("prior,method,eps", [
    (TREE3, "exact", "800"), (TREE3, "closed-form", "1000"), (TREE3, "all", "800"),
    (TREE3, "exact", "700"),
    # h0 + eps/2 overflows a float in the single site's effective field.
    ({"generator": "ising_tree", "params": {"d": 2, "depth": 0, "J": 0.3, "h0": 1.5e308}},
     "gibbs", "1e308"),
], ids=["exact-800", "closed-form-1000", "all-800", "exact-700", "gibbs-overflow"])
def test_nu_huge_budget_is_a_typed_error(write_json, capsys, prior, method, eps):
    path = write_json("tree3.json", prior)
    code = main(["nu", "--dist", path, "--eps", eps, "--method", method])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err and "error: unexpected" not in captured.err


@pytest.mark.parametrize("argv", [
    ["check"],
    ["bound", "--eps", "1"],
    ["nu", "--eps", "1", "--method", "exact"],
    ["nu", "--eps", "1", "--method", "closed-form"],
    ["nu", "--eps", "1", "--method", "gibbs"],
    ["nu", "--eps", "1", "--method", "all"],
], ids=["check", "bound", "exact", "closed-form", "gibbs", "all"])
@pytest.mark.parametrize("prior", [
    {"n": 1, "alphabet": 2, "probs": [math.nan, 1.0]},
    # Three times h0 overflows a float.
    {"generator": "ising_tree", "params": {"d": 2, "depth": 1, "J": 0.3, "h0": 1.5e308}},
], ids=["nan-weight", "overflowing-field"])
def test_non_finite_prior_is_a_typed_error(write_json, capsys, prior, argv):
    path = write_json("prior.json", prior)
    # A numpy warning would surface as an unexpected error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv[:1] + ["--dist", path] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "error: unexpected" not in captured.err


def _tree3_nu(eps, a):
    """nu at site a of TREE3 by log-sum-exp over its eight cells."""
    x = (np.arange(8)[:, None] >> np.arange(3)) & 1
    s = 1.0 - 2.0 * x
    energy = 0.3 * (s[:, 0] * s[:, 1] + s[:, 0] * s[:, 2])
    best = 0.0
    for z in (0, 1):
        log_m = -eps * (x != z).sum(axis=1)
        lse = [np.logaddexp.reduce(energy[x[:, a] == v] + log_m[x[:, a] == v])
               - np.logaddexp.reduce(energy[x[:, a] == v]) for v in (z, 1 - z)]
        best = max(best, abs(lse[0] - lse[1]))
    return best


@pytest.mark.parametrize("eps", ["100", "1000"])
@pytest.mark.parametrize("target", ["0", "1"])
def test_nu_gibbs_huge_budget_is_a_value(write_json, capsys, eps, target):
    path = write_json("tree3.json", TREE3)
    code, report = _run(capsys, ["nu", "--dist", path, "--eps", eps, "--target", target,
                                 "--method", "gibbs"])
    want = _tree3_nu(float(eps), int(target))
    assert code == 0
    assert abs(report["results"]["nu"] - want) <= 1e-11 * want


@pytest.fixture(scope="module")
def tree3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tree3.json"
    path.write_text(json.dumps(TREE3))
    return str(path)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(
    target=st.integers(0, 2) | st.integers(),
    eps=st.floats(0.0, 5.0) | st.floats(allow_nan=True, allow_infinity=True),
    method=st.sampled_from(["exact", "closed-form", "gibbs", "all"]),
)
def test_nu_exit_code_contract(tree3_file, target, eps, method):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["nu", "--dist", tree3_file, f"--eps={eps!r}", f"--target={target}",
                     "--method", method])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "error: unexpected" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and "error:" in err.getvalue()


def _any_float(lo, hi):
    return st.floats(lo, hi) | st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(
    command=st.sampled_from(["nu-limit", "enforce", "sensitivity", "sweep", "critical"]),
    J=_any_float(-1.0, 3.0),
    eps=_any_float(0.0, 5.0),
    h0=_any_float(-1.0, 1.0),
    d=st.integers(-2, 6),
)
def test_ising_exit_code_contract(command, J, eps, h0, d):
    argv = {
        "nu-limit": [f"--J={J!r}", f"--eps={eps!r}"],
        "enforce": [f"--nu={eps!r}", f"--J={J!r}"],
        "sensitivity": [f"--J={J!r}", f"--h0={h0!r}", f"--eps-list={eps!r}"],
        "sweep": [f"--J-grid={J!r}", f"--eps-grid={eps!r}", f"--h0={h0!r}"],
        "critical": [],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["ising", command, f"--d={d}"] + argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "error: unexpected" not in err.getvalue()
    if command == "nu-limit" and code == 0:
        # Reports round to 12 significant digits.
        assert json.loads(out.getvalue())["results"]["nu"] >= float(f"{eps:.12g}")
