"""sphuni: uniformity testing on high-dimensional spheres.

The package tests whether points on S^{p-1} are uniformly distributed
by comparing the empirical distribution of all pairwise inner products
against its exact null law, alongside the classical Rayleigh, Bingham,
and packing tests.  It also ships samplers for the alternative models
used in power studies, deterministic evaluation of the inner-product
distance from uniformity, and a seeded Monte Carlo harness.
"""

__version__ = "0.1.0"

from .asymptotics import (
    ShiftFunction,
    competitor_low_rank_power,
    distance_from_uniformity,
    estimate_distance_mc,
    fvml_llr_second_moment,
    model_inner_cdf,
    predict_asymptotic_power,
)
from .distributions import (
    CoordinateMarginal,
    fvml_log_normalizer,
    fvml_marginal,
    kolmogorov_cdf,
    kolmogorov_quantile,
    kolmogorov_sf,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    null_coordinate_marginal,
    null_inner_cdf,
    packing_gumbel_cdf,
    packing_gumbel_quantile,
    watson_marginal,
)
from .errors import (
    BadShapeError,
    BadTailError,
    CalibrationUnavailableError,
    ConfigError,
    DomainError,
    InRegimeError,
    NotOrthogonalError,
    NotUnitError,
    ParseError,
    SphuniError,
    ZeroRowError,
)
from .harness import (
    ExperimentConfig,
    NonlocalResult,
    PowerCell,
    PowerCurve,
    export_csv,
    load_config,
    run_nonlocal_experiment,
    run_null_distribution_check,
    run_power_curve,
    run_size_experiment,
    signal_model,
)
from .points import (
    InnerProductList,
    UnitPointSet,
    apply_rotation,
    load_points_csv,
    make_unit_point_set,
    pairwise_inner_products,
)
from .samplers import (
    AlphaSpherical,
    CapMixture,
    Fvml,
    LowRank,
    ModelSpec,
    RngSeed,
    Uniform,
    Watson,
    build_simplex_frame,
    sample,
    sample_uniform_direction,
)
from .statistics import (
    BINGHAM,
    METHODS,
    PACKING,
    PROJECTION,
    RAYLEIGH,
    SUP_DISTANCE,
    TestOutcome,
    calibrate_critical_value_mc,
    run_test,
    statistic_bingham,
    statistic_packing,
    statistic_projection,
    statistic_rayleigh,
    statistic_sup_distance,
    sup_cdf_distance,
    sup_distance_critical_value,
    sup_null_distance,
)
