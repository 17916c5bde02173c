"""The package and its plain-float `ising` commands load without numpy."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

import infera
from infera.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(infera.__file__)))

ISING_ARGV = [
    ["ising", "nu-limit", "--J", "0.7", "--eps", "0.3", "--d", "2"],
    ["ising", "critical", "--d", "3"],
    ["ising", "enforce", "--nu", "0.4", "--J", "0.3", "--d", "2"],
    ["ising", "sensitivity", "--J", "3.0", "--h0", "0.3", "--d", "2", "--eps-list", "0.2,1.0"],
    ["ising", "sweep", "--J-grid", "0.2,0.7", "--eps-grid", "0.1,0.5", "--h0", "0.1", "--d", "2"],
]

# Every public name of the package.
PUBLIC = {
    "ClosedFormResult", "DobrushinBound", "EventProfile", "InfluenceMatrix",
    "IsingPrior", "IsingTreeModel", "JointDistribution", "NuCertificate", "PrivacyBudget",
    "bethe_fixed_point", "conditional_means", "critical_coupling", "dobrushin_bounds",
    "dp_audit", "enforceable_epsilon", "from_dense", "influence_matrix",
    "is_pairwise_positively_correlated", "is_positively_affiliated", "ising_tree_distribution",
    "max_biased_profile", "mechanism_nu", "noisy_sum_tail_profile", "nu_bethe_limit",
    "nu_closed_form", "nu_exact", "nu_gibbs", "nu_tree",
    "parity_constrained", "parity_mechanism_m1_profile", "perfectly_correlated", "product",
    "product_ratio_bound", "random_affiliated", "sample_noisy_sum", "sensitivity_profile",
    "spectral_norm", "tree_prior",
}

# Runs each argv through cli.main with numpy unimportable and prints
# [exit code, stdout] per command as one JSON list.
WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from infera.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def _python(code, *args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _untimed(text):
    return re.sub(r'\n *"timing_ms": [^\n]*', "", text)


def test_ising_commands_run_without_numpy():
    runs = json.loads(_python(WITHOUT_NUMPY, json.dumps(ISING_ARGV)))
    for argv, (code, text) in zip(ISING_ARGV, runs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            want = main(argv)
        assert (code, want) == (0, 0), argv
        assert _untimed(text) == _untimed(out.getvalue()), argv


@pytest.mark.parametrize("module", ["infera", "infera.cli"])
def test_import_leaves_numpy_unloaded(module):
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    assert _python(code).strip() == "False"


def test_lazy_exports_resolve_to_their_home_modules():
    assert set(infera.__all__) == PUBLIC
    assert set(dir(infera)) >= PUBLIC
    for name in infera.__all__:
        value = getattr(infera, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    assert infera.errors is sys.modules["infera.errors"]
    with pytest.raises(AttributeError):
        infera.no_such_name
