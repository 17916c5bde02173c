"""The four workloads: their inputs, one op each, and the op's check.

A workload is a fixed round of ops.  The timed phase repeats whole rounds,
so every run attempts the same ops in the same proportions.  `run` calls
the program and returns its output; `check` compares that output with the
reference in oracles.py and returns "" when it is right, else a reason.
Checks run after the timed phase.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import oracles as O

HERE = os.path.dirname(os.path.abspath(__file__))

# The exact-lp inputs are drawn once from this fixed stream, whatever the
# run's seed: seeded draws hit the simplex pivot limit on about 1 in 12
# n=6 inputs, and which ones fail would then change from seed to seed.
LIST_SEED = 160301508
LIST_FAMILIES = ("dense", "zero-cell", "affiliated", "product", "twins", "parity", "star")
LIST_PER_FAMILY = 2

# Kept failures: inputs on which the program fails every time today.
LIST_FAULTS = {"dense-0": "simplex pivot limit (LPError)"}
PIVOT_LIMIT_P = (0.08564502027976867, 0.45753767875076684, 0.6179656209440294,
                 0.5456722561414263, 0.11674498803566628, 0.583905553867081)
PIVOT_LIMIT_EPS = (0.26108704096590113, 0.2357717203700056, 0.8847563405102709,
                   0.23795000235270214, 0.4815762144061481, 0.7627725381272431)
NEAR_CRITICAL_J = 0.5493  # just below atanh(1/2) = 0.5493061...


@dataclass
class Op:
    key: str                       # names the input; equal keys give equal outputs
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]
    kept_fault: str = ""           # the known fault this input hits, if any


@dataclass
class Workload:
    round: List[Op]
    warmup: Op


def _close(got, want, tol):
    return got is not None and abs(got - want) <= tol * max(1.0, abs(want))


def _first_error(*reasons):
    return next((r for r in reasons if r), "")


# ---------------------------------------------------------------- exact-lp

def _list_inputs(inf):
    """The fixed exact-lp inputs: (key, family, prior, eps, target)."""
    rng = np.random.default_rng(LIST_SEED)
    out = []
    for fam in LIST_FAMILIES:
        for k in range(LIST_PER_FAMILY):
            if fam == "dense":
                prior = inf.from_dense(6, 2, rng.uniform(0.05, 1.0, 64))
            elif fam == "zero-cell":
                w = rng.uniform(0.05, 1.0, 64)
                w[rng.random(64) < 0.25] = 0.0
                prior = inf.from_dense(6, 2, w)
            elif fam == "affiliated":
                prior = inf.random_affiliated(6, rng)
            elif fam == "product":
                q = rng.uniform(0.05, 0.95, 6)
                prior = inf.product([[1.0 - v, v] for v in q])
            elif fam == "twins":
                prior = inf.perfectly_correlated(6, float(rng.uniform(0.1, 0.9)))
            elif fam == "parity":
                prior = inf.parity_constrained(1, 5)
            else:
                model = inf.IsingTreeModel(d=5, depth=1, J=float(rng.uniform(0.1, 1.0)),
                                           h0=float(rng.uniform(-0.5, 0.5)))
                prior = inf.ising_tree_distribution(model)
            eps = rng.uniform(0.05, 1.0, 6)
            a = int(rng.integers(6))
            out.append((f"{fam}-{k}", fam, prior, eps, a))
    return out


def _exact_op(inf, key, fam, prior, eps, a, kept_fault=""):
    budget = inf.PrivacyBudget(np.asarray(eps, dtype=np.float64))
    p, n = prior.probs, prior.n

    def run():
        cert = inf.nu_exact(prior, budget, a)
        out = {"nu": cert.nu, "witness": np.array(cert.witness.values)}
        out["affiliated"], out["pair"] = inf.is_positively_affiliated(prior)
        if out["affiliated"]:
            cf = inf.nu_closed_form(prior, budget, a)
            out["closed"] = cf.nu
            profile = inf.max_biased_profile(n, budget, cf.winning_z)
            out["biased_replay"] = inf.mechanism_nu(prior, profile, a)
        return out

    def check(out):
        want = O.lp_nu(p, n, budget.eps, a)
        w = out["witness"]
        reasons = [
            "" if _close(out["nu"], want, 1e-6) else f"nu {out['nu']} != LP oracle {want}",
            "" if np.all(O.dp_eps(w, n) <= budget.eps + 1e-7) else "witness breaks the budget",
            "" if _close(O.replay_nu(p, n, w, a), want, 1e-6) else "witness replay differs",
        ]
        if fam == "twins":
            reasons.append("" if _close(want, float(budget.eps.sum()), 1e-6) else "twins nu != sum eps")
        if fam == "product":
            reasons.append("" if _close(want, float(budget.eps[a]), 1e-6) else "product nu != eps_a")
        truth = O.affiliated_full(p)
        if out["affiliated"] != truth:
            reasons.append(f"affiliation verdict {out['affiliated']}, full lattice says {truth}")
        if not out["affiliated"] and not O.affiliation_witness_holds(p, *out["pair"]):
            reasons.append(f"witness pair {out['pair']} does not break affiliation")
        if out["affiliated"]:
            cf_want = O.biased_nu(p, n, budget.eps, a)
            reasons += [
                "" if _close(out["closed"], want, 1e-6) else f"closed form {out['closed']} != optimum {want}",
                "" if _close(out["closed"], cf_want, 1e-9) else "closed form != biased-branch oracle",
                "" if _close(out["biased_replay"], cf_want, 1e-9) else "biased replay != oracle",
            ]
        return _first_error(*reasons)

    return Op(key=key, kind="nu_exact", run=run, check=check, kept_fault=kept_fault)


def exact_lp(seed, inf, workdir):
    ops = [_exact_op(inf, *item, kept_fault=LIST_FAULTS.get(item[0], ""))
           for item in _list_inputs(inf)]
    ops.append(_exact_op(
        inf, "pivot-limit-product", "product",
        inf.product([[1.0 - v, v] for v in PIVOT_LIMIT_P]), PIVOT_LIMIT_EPS, 5,
        kept_fault="simplex pivot limit (LPError)"))
    w = np.zeros(8)
    w[[0b001, 0b110, 0b111]] = 1.0  # x0 x1 x2 = 100, 011, 111
    ops.append(_exact_op(
        inf, "three-point-affiliation", "zero-cell",
        inf.from_dense(6, 2, np.tile(w, 8)), np.full(6, 0.3), 0,
        kept_fault="two-coordinate affiliation check accepts a non-affiliated prior"))
    order = np.random.default_rng(seed).permutation(len(ops))
    round_ = [ops[i] for i in order]
    return Workload(round_, warmup=ops[1])


# ------------------------------------------------------------ dense-screen

DENSE_N = 16
DENSE_PER_FAMILY = 2


def _affiliated_weights(rng, n, coupling_scale):
    """log w = theta.x + sum_{i<j} J_ij x_i x_j with J_ij >= 0: affiliated
    by construction (the model of infera.random_affiliated)."""
    x = O.bits(n).astype(np.float64)
    theta = rng.normal(0.0, 1.0, size=n)
    coupling = np.triu(rng.uniform(0.0, coupling_scale, size=(n, n)), 1)
    log_w = x @ theta + np.einsum("ki,ij,kj->k", x, coupling, x)
    return np.exp(log_w - log_w.max())


def _screen_op(inf, key, weights, truly_affiliated, eps, a):
    n = DENSE_N
    budget = inf.PrivacyBudget(eps)

    def run():
        out = {}
        # infera check
        prior = inf.from_dense(n, 2, weights)
        out["affiliated"], out["pair"] = inf.is_positively_affiliated(prior)
        out["pairwise"] = inf.is_pairwise_positively_correlated(prior)
        # infera nu --method closed-form
        prior = inf.from_dense(n, 2, weights)
        try:
            out["closed"] = inf.nu_closed_form(prior, budget, a).nu
        except inf.errors.NotAffiliated as exc:
            out["closed"], out["cf_pair"] = None, exc.witness
        # infera bound
        prior = inf.from_dense(n, 2, weights)
        matrix = inf.influence_matrix(prior)
        out["gamma"] = np.array(matrix.gamma)
        out["spectral"] = inf.spectral_norm(matrix.gamma)
        try:
            out["nu_bound"] = inf.dobrushin_bounds(matrix, budget).nu_bound
        except inf.errors.SpectralNormTooLarge:
            out["nu_bound"] = None
        return out

    def check(out):
        p = np.asarray(weights) / np.sum(weights)
        truth = truly_affiliated if truly_affiliated is not None else O.affiliated_adjacent(p, n)
        gamma = O.influence(p, n)
        norm = float(np.linalg.norm(gamma, 2))
        reasons = [
            "" if out["affiliated"] == truth else f"affiliation verdict {out['affiliated']} != {truth}",
            "" if out["pairwise"] == O.pairwise_positive(p, n) else "pairwise verdict differs",
            "" if np.max(np.abs(out["gamma"] - gamma)) <= 1e-9 else "influence matrix differs",
            "" if _close(out["spectral"], norm, 1e-8) else f"spectral norm {out['spectral']} != {norm}",
            "" if (out["nu_bound"] is None) == (norm >= 1.0) else "bound refused iff norm >= 1 broken",
        ]
        if not out["affiliated"] and not O.affiliation_witness_holds(p, *out["pair"]):
            reasons.append("check witness does not break affiliation")
        if truth:
            nu = O.biased_nu(p, n, eps, a)
            reasons.append("" if _close(out["closed"], nu, 1e-9) else f"closed form {out['closed']} != {nu}")
            if out["nu_bound"] is not None and out["nu_bound"][a] < nu - 1e-9:
                reasons.append(f"Dobrushin bound {out['nu_bound'][a]} below nu {nu}")
        elif out["closed"] is not None or not O.affiliation_witness_holds(p, *out["cf_pair"]):
            reasons.append("closed form on a non-affiliated prior did not refuse with a witness")
        if out["nu_bound"] is not None:
            want = 2.0 * np.linalg.solve(np.eye(n) - gamma, eps)
            if not np.allclose(out["nu_bound"], want, rtol=1e-8, atol=1e-10):
                reasons.append("nu_bound != 2 (I - G)^-1 eps")
        return _first_error(*reasons)

    return Op(key=key, kind="screen", run=run, check=check)


def dense_screen(seed, inf, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(DENSE_PER_FAMILY):
        for fam, scale in (("strong", 0.6), ("weak", 0.05), ("non-affiliated", None)):
            if scale is None:
                weights, truth = np.exp(rng.normal(0.0, 1.0, 2**DENSE_N)), None
            else:
                weights, truth = _affiliated_weights(rng, DENSE_N, scale), True
            eps = rng.uniform(0.05, 1.0, DENSE_N)
            ops.append(_screen_op(inf, f"{fam}-{k}", weights, truth, eps, int(rng.integers(DENSE_N))))
    return Workload(ops, warmup=ops[2])


# -------------------------------------------------------------- tree-sites

TREE_D, TREE_DEPTH = 2, 3
ENFORCE_NU = 0.4
SENS_EPS = (0.1, 0.5, 1.0)


def _tree_op(inf, key, J, h0, eps, kept_fault=""):
    model = inf.IsingTreeModel(d=TREE_D, depth=TREE_DEPTH, J=J, h0=h0)

    def run():
        return {
            "sites": [inf.nu_gibbs(model, eps, s) for s in range(model.n)],
            "limit": inf.nu_bethe_limit(J, eps, TREE_D),
            "enforce": inf.enforceable_epsilon(ENFORCE_NU, J, TREE_D),
            "sens": inf.sensitivity_profile(J, h0, TREE_D, SENS_EPS + (eps,)),
        }

    def check(out):
        p = O.tree_prior(TREE_D, TREE_DEPTH, J, h0)
        n = len(out["sites"])
        reasons = []
        for s, got in enumerate(out["sites"]):
            want = O.biased_nu(p, n, np.full(n, eps), s)
            if not _close(got, want, 1e-9):
                reasons.append(f"site {s}: nu_gibbs {got} != {want}")
        x = O.x_from_nu_limit(out["limit"], eps, TREE_D)
        if O.bethe_residual(J, 0.5 * eps, TREE_D, x) > 1e-9 * max(1.0, x):
            reasons.append("Bethe fixed point residual too large")
        if not _close(out["limit"], O.nu_limit(J, eps, TREE_D), 1e-9):
            reasons.append("nu_bethe_limit differs from the oracle")
        reasons.append(O.enforce_ok(ENFORCE_NU, J, TREE_D, out["enforce"]))
        for e, got in out["sens"]:
            if not _close(got, O.sensitivity(J, h0, TREE_D, e), 1e-9):
                reasons.append(f"sensitivity at eps={e} differs")
        return _first_error(*reasons)

    return Op(key=key, kind="tree", run=run, check=check, kept_fault=kept_fault)


TREE_CONFIGS = 8


def tree_sites(seed, inf, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(TREE_CONFIGS):
        # Alternate sides of the critical coupling, away from it.
        J = float(rng.uniform(0.15, 0.45) if k % 2 == 0 else rng.uniform(0.65, 1.2))
        ops.append(_tree_op(inf, f"J{k}", J, float(rng.uniform(-0.3, 0.3)),
                            float(rng.uniform(0.05, 1.0))))
    ops.append(_tree_op(inf, "near-critical", NEAR_CRITICAL_J, 0.1, 0.3,
                        kept_fault="enforceable_epsilon NoConvergence below the critical coupling"))
    return Workload(ops, warmup=ops[0])


# ------------------------------------------------------------- cli-session

def _results(stdout: bytes):
    return json.loads(stdout)["results"]


def cli_session(seed, inf, workdir, trace_dir=None):
    """inf is unused: the program runs only in the child processes."""
    rng = np.random.default_rng(seed)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    twins6 = dict(n=6, p_one=0.5)
    tree7 = dict(d=2, depth=2, J=0.3, h0=0.1)
    tree15 = dict(d=2, depth=3, J=float(rng.uniform(0.15, 0.45)), h0=float(rng.uniform(-0.3, 0.3)))
    files = {
        "twins6.json": {"generator": "twins", "params": twins6},
        "tree7.json": {"generator": "ising_tree", "params": tree7},
        "tree15.json": {"generator": "ising_tree", "params": tree15},
    }
    for name, obj in files.items():
        with open(path(name), "w") as fh:
            json.dump(obj, fh)
    p7 = O.tree_prior(**tree7)
    p15 = O.tree_prior(**tree15)
    a15 = int(rng.integers(15))
    a7 = int(rng.integers(7))
    eps15 = float(rng.uniform(0.05, 1.0))
    J_sub = float(rng.uniform(0.15, 0.45))
    J_super = float(rng.uniform(0.65, 1.2))
    h0 = float(rng.uniform(-0.3, 0.3))
    e1, e2 = (float(v) for v in rng.uniform(0.05, 1.0, 2))

    def nu_is(want, tol=1e-9):
        return lambda r: "" if _close(r["nu"], want(), tol) else f"nu {r['nu']} != {want()}"

    p6 = np.zeros(64)
    p6[[0, 63]] = 0.5

    def lp6():
        return O.lp_nu(p6, 6, np.full(6, 0.2), 0)

    def check_exact(r):
        # Twins leak the whole budget: nu = n * eps.
        return _first_error(nu_is(lp6, 1e-6)(r), nu_is(lambda: 6 * 0.2, 1e-6)(r))

    def check_witness(r):
        with open(path("witness.json")) as fh:
            m = np.asarray(json.load(fh)["m"])
        return _first_error(
            check_exact(r),
            "" if np.all(O.dp_eps(m, 6) <= 0.2 + 1e-7) else "exported witness breaks the budget",
            "" if _close(O.replay_nu(p6, 6, m, 0), lp6(), 1e-6) else "exported witness replay differs",
        )

    def check_all(r):
        want = O.biased_nu(p7, 7, np.full(7, 0.2), 0)
        return _first_error(*(
            "" if _close(r[k], want, 1e-6 if k in ("exact", "nu") else 1e-9) else f"{k} {r[k]} != {want}"
            for k in ("exact", "closed_form", "gibbs", "nu")
        ), "" if _close(O.lp_nu(p7, 7, np.full(7, 0.2), 0), want, 1e-6) else "tree7 LP oracle != branch")

    def check_check(r):
        ok = O.affiliated_adjacent(p15, 15) and O.pairwise_positive(p15, 15)
        return "" if r["affiliated"] is ok and r["pairwise_positive"] is ok else "check verdicts differ"

    def check_bound(r):
        gamma = O.influence(p15, 15)
        norm = float(np.linalg.norm(gamma, 2))
        if np.max(np.abs(np.asarray(r["gamma"]) - gamma)) > 1e-9:
            return "gamma differs"
        if not _close(r["spectral_norm"], norm, 1e-8):
            return "spectral norm differs"
        if ("nu_bound" in r) == (norm >= 1.0):
            return "bound refused iff norm >= 1 broken"
        for k, b in enumerate(r.get("nu_bound", [])):
            if b < O.biased_nu(p15, 15, np.full(15, eps15), k) - 1e-9:
                return f"Dobrushin bound below nu at {k}"
        return ""

    def check_limit(r):
        x = r["fixed_point"]
        return _first_error(
            nu_is(lambda: O.nu_limit(J_super, e1, 2))(r),
            "" if O.bethe_residual(J_super, 0.5 * e1, 2, x) <= 1e-9 * max(1.0, x) else "fixed point residual",
        )

    def check_sens(r):
        want = [O.sensitivity(J_super, h0, 2, e) for e in (e1, e2)]
        got = [row["nu"] for row in r["profile"]]
        return "" if all(_close(g, w, 1e-9) for g, w in zip(got, want)) and len(got) == 2 else "profile differs"

    def check_sweep(stdout):
        lines = stdout.decode().strip().splitlines()[1:]
        for line, (J, e) in zip(lines, [(J, e) for J in (J_sub, J_super) for e in (e1, e2)]):
            if not _close(float(line.split(",")[4]), O.nu_limit(J, e, 2), 1e-9):
                return f"sweep row {line} differs"
        return "" if len(lines) == 4 else "sweep has the wrong number of rows"

    def js(check):
        return lambda stdout: check(_results(stdout))

    f6, f7, f15 = path("twins6.json"), path("tree7.json"), path("tree15.json")
    commands = [
        ("check", ["check", "--dist", f15], js(check_check)),
        ("nu_exact", ["nu", "--dist", f6, "--eps", "0.2", "--method", "exact"], js(check_exact)),
        ("nu_all", ["nu", "--dist", f7, "--eps", "0.2", "--method", "all"], js(check_all)),
        ("nu_closed_form", ["nu", "--dist", f15, "--eps", repr(eps15), "--target", str(a15),
                            "--method", "closed-form"],
         js(nu_is(lambda: O.biased_nu(p15, 15, np.full(15, eps15), a15)))),
        ("nu_gibbs", ["nu", "--dist", f7, "--eps", "0.2", "--target", str(a7), "--method", "gibbs"],
         js(nu_is(lambda: O.biased_nu(p7, 7, np.full(7, 0.2), a7)))),
        ("nu_witness", ["nu", "--dist", f6, "--eps", "0.2", "--witness-out", path("witness.json")],
         js(check_witness)),
        ("bound", ["bound", "--dist", f15, "--eps", repr(eps15)], js(check_bound)),
        ("ising_nu_limit", ["ising", "nu-limit", "--J", repr(J_super), "--eps", repr(e1), "--d", "2"],
         js(check_limit)),
        ("ising_enforce", ["ising", "enforce", "--nu", repr(ENFORCE_NU), "--J", repr(J_sub), "--d", "2"],
         js(lambda r: O.enforce_ok(ENFORCE_NU, J_sub, 2, r["enforceable_eps"]))),
        ("ising_sensitivity", ["ising", "sensitivity", "--J", repr(J_super), "--h0", repr(h0), "--d", "2",
                               "--eps-list", f"{e1!r},{e2!r}"], js(check_sens)),
        ("ising_sweep", ["ising", "sweep", "--J-grid", f"{J_sub!r},{J_super!r}",
                         "--eps-grid", f"{e1!r},{e2!r}", "--d", "2"], check_sweep),
    ]
    ops = [_cli_op(kind, args, check, trace_dir) for kind, args, check in commands]
    return Workload(ops, warmup=ops[7])


def _cli_op(kind, args, stdout_check, trace_dir):
    """One infera command in its own process, which inherits src on
    PYTHONPATH from the worker.  Exit code 0 is the CLI contract for every
    command of the session; with trace_dir set the command runs under the
    tracing shim, which writes its spans there."""
    def run():
        if trace_dir is None:
            cmd = [sys.executable, "-m", "infera.cli"] + args
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracing.py"),
                   os.path.join(trace_dir, "child.json"), kind, "--"] + args
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        out = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        if trace_dir is not None:
            with open(os.path.join(trace_dir, "child.json")) as fh:
                out["spans"] = json.load(fh)
        return out

    def check(out):
        if out["code"] != 0:
            return f"exit code {out['code']}: {out['stderr'].decode()[-300:]}"
        return stdout_check(out["stdout"])

    return Op(key=kind, kind=kind, run=run, check=check)


def cli_identity(out) -> bytes:
    """The part of a command's output that must repeat byte for byte:
    the JSON report's results section, or the whole CSV of a sweep."""
    try:
        return json.dumps(_results(out["stdout"]), sort_keys=True).encode()
    except ValueError:
        return out["stdout"]


BUILDERS = {
    "exact-lp": exact_lp,
    "dense-screen": dense_screen,
    "tree-sites": tree_sites,
    "cli-session": cli_session,
}
