"""Ordered independent loss model for CRISPR spacer arrays.

Spacers are gained at the leader end at rate theta and lost independently
at rate rho along an ultrametric phylogeny.  The package provides the
forward simulator, exact equal-spacer gap likelihoods for two, three and
arbitrarily many sampled arrays, and maximum-likelihood estimation of the
loss rate with a moment estimate of the gain rate.
"""

from .equal_spacers import (
    GapDecomposition,
    PairStats,
    TripleStats,
    equal_indices,
    gap_decomposition,
    pair_stats,
    triple_stats,
)
from .estimators import (
    EstimateResult,
    InsufficientDataError,
    estimate_rho_pair,
    estimate_rho_triple,
    estimate_theta_moment,
    negbin_p_mle,
)
from .likelihood import (
    GeneralGapLaw,
    die_probs_pair,
    die_probs_triple,
    general_gap_logpmf,
    pair_conditional_loglik,
    pair_gap_logpmf,
    pair_gap_pmf,
    pair_sampling_logpmf,
    triple_conditional_loglik,
    triple_gap_logpmf,
    triple_gap_pmf,
)
from .process import LeafArrays, ModelParams, equilibrium_root, simulate_line, simulate_tree
from .tree import (
    NewickError,
    SurvivalTable,
    TreeError,
    UltrametricTree,
    mrca,
    p_exact_subset,
    parse_newick,
    poisson_mean_new,
    sample_coalescent,
    spanning_length,
    survival,
    to_newick,
)

__version__ = "0.1.0"

__all__ = [
    "EstimateResult",
    "GapDecomposition",
    "GeneralGapLaw",
    "InsufficientDataError",
    "LeafArrays",
    "ModelParams",
    "NewickError",
    "PairStats",
    "SurvivalTable",
    "TreeError",
    "TripleStats",
    "UltrametricTree",
    "die_probs_pair",
    "die_probs_triple",
    "equal_indices",
    "equilibrium_root",
    "estimate_rho_pair",
    "estimate_rho_triple",
    "estimate_theta_moment",
    "gap_decomposition",
    "general_gap_logpmf",
    "mrca",
    "negbin_p_mle",
    "p_exact_subset",
    "pair_conditional_loglik",
    "pair_gap_logpmf",
    "pair_gap_pmf",
    "pair_sampling_logpmf",
    "pair_stats",
    "parse_newick",
    "poisson_mean_new",
    "sample_coalescent",
    "simulate_line",
    "simulate_tree",
    "spanning_length",
    "survival",
    "to_newick",
    "triple_conditional_loglik",
    "triple_gap_logpmf",
    "triple_gap_pmf",
    "triple_stats",
]
