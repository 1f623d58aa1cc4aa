"""Convolution of asymptotic expansions with exact Gamma-factor constants.

The package splits into five layers.  ``gamma_kernel`` evaluates the
special functions behind the leading constants.  ``expansion_algebra``
holds the term and type data model, the case classification of a term
pair and the degree rule that follows from it.  ``convolution_engine``
maps each case to its constant and accumulates the convolved expansion.
``quadrature_oracle`` verifies every closed-form constant against
direct singular quadrature, and ``fiber_demo`` runs the whole pipeline
on honest fiber integrals of monomial germs.
"""

from .convolution_engine import (
    INTEGER_CASE_SCALE,
    RHO_NORM,
    BernsteinCombination,
    ConvolutionResult,
    bernstein_combine,
    convolve_expansions,
    convolve_terms,
    kernel_leading_constant,
)
from .expansion_algebra import (
    CaseTag,
    Chirality,
    Expansion,
    ExponentSetType,
    LogPolynomial,
    SingularTerm,
    canonical_json,
    classify_case,
    combine_types,
    degree_rule,
)
from .fiber_demo import (
    MonomialGerm,
    measure_singular_exponent,
    monomial_fiber_integral,
    thom_sebastiani_demo,
)
from .gamma_kernel import (
    F_const,
    G_q,
    beta_tail_integral,
    binomial_gamma_sum,
    degenerate_case1_coeff,
    fourier_coefficient,
    gauss_sum,
    integer_case_log_coeff,
    tilde_F_const,
)
from .quadrature_oracle import (
    IllConditioned,
    KernelSpec,
    ToleranceNotMet,
    VerificationReport,
    eval_kernel_integral,
    finite_part_direct,
    fit_radial_samples,
    verify_constant,
)

__version__ = "0.1.0"

__all__ = [
    "BernsteinCombination",
    "CaseTag",
    "Chirality",
    "ConvolutionResult",
    "Expansion",
    "ExponentSetType",
    "F_const",
    "G_q",
    "INTEGER_CASE_SCALE",
    "IllConditioned",
    "KernelSpec",
    "LogPolynomial",
    "MonomialGerm",
    "RHO_NORM",
    "SingularTerm",
    "ToleranceNotMet",
    "VerificationReport",
    "beta_tail_integral",
    "bernstein_combine",
    "binomial_gamma_sum",
    "canonical_json",
    "classify_case",
    "combine_types",
    "convolve_expansions",
    "convolve_terms",
    "degenerate_case1_coeff",
    "degree_rule",
    "eval_kernel_integral",
    "finite_part_direct",
    "fit_radial_samples",
    "fourier_coefficient",
    "gauss_sum",
    "integer_case_log_coeff",
    "kernel_leading_constant",
    "measure_singular_exponent",
    "monomial_fiber_integral",
    "thom_sebastiani_demo",
    "tilde_F_const",
    "verify_constant",
]
