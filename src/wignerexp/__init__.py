"""Spectral moments of Wigner random matrices.

Exact 1/n expansion of the expected moments of the empirical spectral
measure: semicircle term plus a signed correction measure determined by
the second and fourth entry moments.  The same numbers are reachable by
four independent routes (closed-form combinatorics, generating series,
brute-force walk enumeration at finite n, Monte Carlo), and the test
suite holds them against each other.
"""

from .combinatorics import (
    GOE,
    GUE,
    PRESETS,
    RADEMACHER,
    EnsembleParams,
    ExpansionTerm,
    catalan,
    cycle_both_ways_class_count,
    cycle_one_way_class_count,
    double_edge_class_count,
    expected_moment_expansion,
    nu_coefficients,
    nu_moment,
    order_one_coeff,
    self_loop_class_count,
    semicircle_moment,
    term1_coeff,
    term2_coeff,
    term3_coeff,
    term4_coeff,
)
from .measure import (
    SignedMeasureNu,
    nu_atoms,
    nu_density,
    nu_quadrature_moment,
    nu_stieltjes,
    nu_stieltjes_quadrature,
    semicircle_density,
    semicircle_stieltjes,
)
from .montecarlo import (
    CorrectionEstimate,
    EnsembleSampler,
    custom_sampler,
    empirical_moments,
    estimate_corrections,
    goe_sampler,
    gue_sampler,
    rademacher_sampler,
    richardson_combine,
    richardson_corrections,
    sample_matrix,
)
from .series import (
    MAX_SERIES_ORDER,
    TruncatedRationalSeries,
    catalan_identities,
    catalan_series,
    s_components,
    s_total,
    verify_cancellation,
)
from .walks import (
    CYCLE_TYPES,
    MAX_WORD_LENGTH,
    MissingMomentError,
    MomentModel,
    WalkClass,
    canonicalize,
    check_word_length,
    class_rows,
    classify_walk,
    count_classes,
    enumerate_canonical_words,
    exact_moment,
    expected_word_product,
    goe_model,
    gue_model,
    rademacher_model,
    walk_polynomial,
)

__version__ = "0.1.0"
