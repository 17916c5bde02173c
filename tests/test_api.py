"""Every package name that the benchmark calls resolves."""

import os
import re

import infera

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads.py")


def test_benchmark_names_resolve():
    # perfbench/workloads.py reaches the package as `inf`; a name deleted
    # here before the benchmark stops calling it breaks every run.
    with open(WORKLOADS) as fh:
        names = set(re.findall(r"\binf\.([A-Za-z_]\w*)", fh.read()))
    assert {"IsingTreeModel", "ising_tree_distribution", "nu_gibbs"} <= names
    missing = sorted(name for name in names if not hasattr(infera, name))
    assert missing == []


def test_tree_model_is_tree_prior():
    assert infera.IsingTreeModel is infera.tree_prior
