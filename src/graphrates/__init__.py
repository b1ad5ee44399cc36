"""Rate functions, samplers, and diagnostics for sparse colored graphs.

Each public name is imported from its module on first use (PEP 562), so a
program that only samples and measures graphs never loads scipy.
"""

import importlib

# each public name's home module
_HOMES = {
    "errors": ("BudgetError", "ConfigError", "InfeasibleError", "NonConvergenceError"),
    "graphs": ("ColoredGraph", "ModelParams", "empirical_measures", "sample_colored_graph",
               "sample_conditional", "sample_conditional_batch"),
    "measures": ("Alphabet", "ColorCounts", "ColorMeasure", "Kernel", "NeighborhoodCounts",
                 "NeighborhoodMeasure", "PairCounts", "PairMeasure", "cap_degrees",
                 "consistify", "degree_distribution", "is_sub_consistent", "magnitude", "phi",
                 "phi_counts", "product_kernel_measure", "quantize", "relative_entropy",
                 "total_variation"),
    "mcharness": ("ExponentEstimate", "TailExperiment", "estimate_tail_exponent", "lln_check"),
    "oracles": ("exact_er_edge_exponent",),
    "rates": ("RateValue", "h_c", "poisson_limit_law", "q_measure", "rate_I", "rate_I_omega",
              "rate_J", "rate_J_tilde", "rate_delta", "rate_zeta", "rate_zeta_er"),
    "varsolve": ("SolveReport", "ising_annealed", "zeta_inner"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
