"""Retransmission-count distributions for bounded documents on failure-prone channels.

Computes P[N_b > n], the probability that a document bounded at b needs
more than n transmission attempts, three independent ways: Monte Carlo
simulation, exact quadrature of the conditional-geometric mixture, and
closed-form approximations (power-law body times incomplete-Gamma tail),
and cross-validates them.
"""

__version__ = "0.1.0"

import logging

# Silent unless the application configures logging; the package logs
# DEBUG lines only (for example when Monte Carlo falls back from the
# gamma quantile table to the exact quantile).
logging.getLogger(__name__).addHandler(logging.NullHandler())

from .asym import (
    ApproxParams,
    TransitionReport,
    exact_integer_ccdf,
    exp_tail_asymptote,
    exp_tail_general,
    log_body,
    log_upper_bound,
    power_law_limit,
    power_law_region_check,
    transition_point,
    uniform_approx,
)
from .dists import (
    BoundedDoc,
    CoupledModel,
    CouplingMode,
    CouplingReport,
    DerivedLaw,
    Exponential,
    Gamma,
    SlowVaryGammaDoc,
    SlowVaryLogPower,
    SlowVaryOne,
    Weibull,
    derive_doc_law,
    validate_coupling,
)
from .experiment import Source
from .mc import (
    RandomStream,
    Tally,
    empirical_ccdf,
    run_tallies,
    run_tally,
    sample_N_naive,
    wilson_interval,
)
from .oracle import OracleResult, ccdf_exact, ccdf_exact_curve

__all__ = [
    "ApproxParams", "BoundedDoc", "CoupledModel", "CouplingMode",
    "CouplingReport", "DerivedLaw", "Exponential", "Gamma",
    "OracleResult", "RandomStream", "Source", "SlowVaryGammaDoc",
    "SlowVaryLogPower", "SlowVaryOne", "Tally", "TransitionReport", "Weibull",
    "ccdf_exact", "ccdf_exact_curve", "derive_doc_law", "empirical_ccdf",
    "exact_integer_ccdf", "exp_tail_asymptote", "exp_tail_general", "log_body",
    "log_upper_bound", "power_law_limit", "power_law_region_check", "run_tallies",
    "run_tally", "sample_N_naive", "transition_point",
    "uniform_approx", "validate_coupling", "wilson_interval",
]
