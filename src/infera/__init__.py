"""Inference leakage analysis for differentially private mechanisms
under correlated priors.

Every public name resolves on first access (PEP 562), importing only the
module that defines it: `import infera` loads no numpy, and a program that
uses only the plain-float laws of `bethe` never does.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name.
_EXPORTS = {
    "dist": (
        "JointDistribution",
        "conditional_means",
        "from_dense",
        "is_pairwise_positively_correlated",
        "is_positively_affiliated",
        "parity_constrained",
        "perfectly_correlated",
        "product",
    ),
    "mechanism": (
        "EventProfile",
        "PrivacyBudget",
        "dp_audit",
        "max_biased_profile",
        "mechanism_nu",
        "noisy_sum_tail_profile",
        "parity_mechanism_m1_profile",
        "sample_noisy_sum",
    ),
    "lp_exact": ("NuCertificate", "nu_exact"),
    "affiliated": ("ClosedFormResult", "nu_closed_form", "random_affiliated"),
    "influence": (
        "DobrushinBound",
        "InfluenceMatrix",
        "dobrushin_bounds",
        "influence_matrix",
        "product_ratio_bound",
        "spectral_norm",
    ),
    "ising": ("IsingPrior", "IsingTreeModel", "ising_tree_distribution", "nu_gibbs", "nu_tree",
              "tree_prior"),
    "methods": ("Leakage", "leakage"),
    "bethe": (
        "bethe_fixed_point",
        "critical_coupling",
        "enforceable_epsilon",
        "nu_bethe_limit",
        "sensitivity_profile",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "errors", "files", "cli")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
