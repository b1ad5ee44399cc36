"""Rate functions, samplers, and diagnostics for sparse colored graphs."""

from .errors import BudgetError, ConfigError, InfeasibleError, NonConvergenceError
from .graphs import (ColoredGraph, ModelParams, empirical_measures, sample_colored_graph,
                     sample_conditional, sample_conditional_batch)
from .measures import (Alphabet, ColorCounts, ColorMeasure, Kernel,
                       NeighborhoodCounts, NeighborhoodMeasure, PairCounts,
                       PairMeasure, cap_degrees, consistify,
                       degree_distribution, is_sub_consistent, magnitude, phi,
                       phi_counts, product_kernel_measure, quantize,
                       relative_entropy, total_variation)
from .mcharness import (ExponentEstimate, TailExperiment,
                        estimate_tail_exponent, exact_er_edge_exponent,
                        lln_check)
from .rates import (RateValue, h_c, poisson_limit_law, q_measure, rate_I,
                    rate_I_omega, rate_J, rate_J_tilde, rate_delta, rate_zeta,
                    rate_zeta_er)
from .varsolve import SolveReport, ising_annealed, legendre_i_omega, zeta_inner

__all__ = [
    "Alphabet", "BudgetError", "ColorCounts", "ColorMeasure", "ColoredGraph",
    "ConfigError", "ExponentEstimate", "InfeasibleError", "Kernel",
    "ModelParams", "NeighborhoodCounts", "NeighborhoodMeasure",
    "NonConvergenceError", "PairCounts", "PairMeasure", "RateValue",
    "SolveReport", "TailExperiment", "cap_degrees", "consistify",
    "degree_distribution", "empirical_measures", "estimate_tail_exponent",
    "exact_er_edge_exponent", "h_c", "is_sub_consistent", "ising_annealed",
    "legendre_i_omega", "lln_check", "magnitude", "phi", "phi_counts",
    "poisson_limit_law", "product_kernel_measure", "q_measure",
    "quantize", "rate_I", "rate_I_omega", "rate_J", "rate_J_tilde",
    "rate_delta", "rate_zeta", "rate_zeta_er", "relative_entropy",
    "sample_colored_graph", "sample_conditional", "sample_conditional_batch",
    "total_variation", "zeta_inner",
]
