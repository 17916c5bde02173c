"""Inference leakage analysis for differentially private mechanisms
under correlated priors."""

from .dist import (
    JointDistribution,
    conditional_means,
    from_dense,
    is_pairwise_positively_correlated,
    is_positively_affiliated,
    parity_constrained,
    perfectly_correlated,
    product,
)
from .mechanism import (
    EventProfile,
    PrivacyBudget,
    dp_audit,
    max_biased_profile,
    mechanism_nu,
    noisy_sum_tail_profile,
    parity_mechanism_m1_profile,
    sample_noisy_sum,
)
from .lp_exact import NuCertificate, nu_exact
from .affiliated import ClosedFormResult, nu_closed_form, nu_of_max_biased, random_affiliated
from .influence import (
    DobrushinBound,
    InfluenceMatrix,
    dobrushin_bounds,
    influence_matrix,
    product_ratio_bound,
    spectral_norm,
)
from .ising import (
    BetheSolution,
    IsingPrior,
    IsingTreeModel,
    bethe_fixed_point,
    critical_coupling,
    enforceable_epsilon,
    ising_tree_distribution,
    nu_bethe_limit,
    nu_gibbs,
    nu_tree,
    sensitivity_profile,
)

__version__ = "0.1.0"
