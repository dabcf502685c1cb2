"""High-girth parity-check matrices by rank polarization.

Exact-arithmetic construction and analysis: a branch recursion assigns
each row of the Sierpinski transform an independence profile, a
selection rule keeps the reliable rows, and the resulting check matrix
gets exercised against erasure and crossing channels, subset
enumeration oracles, and sparse recovery, all with reproducible
counter-based randomness.
"""
from .channels import (
    ChannelOutput,
    bhattacharyya_bsc,
    bhattacharyya_upper,
    bsc_transmit,
    mec_transmit,
)
from .codec import (
    DecodeResult,
    LinearCode,
    MLResult,
    WeightEnumerator,
    bsc_error_rate,
    channel_bounds,
    code_from_pcm,
    encode,
    mec_decode,
    mec_error_rate,
    ml_decode_bsc,
    pairwise_tail,
    render_report,
    syndrome,
    tail_dominated,
    union_bound_bsc,
    union_bound_mec,
    weight_enumerator,
)
from .construction import (
    CheckMatrix,
    GirthScanResult,
    check_matrix,
    exhaustive_rank_profile,
    expected_rank_oracle,
    full_rank_probability,
    girth_scan,
    independence_probability,
    read_check_matrix,
    sierpinski,
    sierpinski_row,
    sierpinski_transform,
    write_check_matrix,
    write_scan_csv,
)
from .fields import (
    BitBasis,
    ColumnSet,
    EnumerationBudget,
    FieldSpec,
    KernelBasis,
    Matrix,
    SubsetSearch,
    VectorBasis,
    as_fraction,
    columns_independent,
    exact_girth,
    first_dependent_subset,
    kernel,
    matvec,
    parse_probability,
    rank,
    read_matrix,
    select_columns,
    solve,
    solve_full,
    vandermonde,
    write_matrix,
)
from .montecarlo import RNG_ID, SubStream, TrialReport, run_trials, wilson_interval
from .polarize import (
    SelectionSpec,
    bhattacharyya_sum,
    default_threshold,
    default_threshold_exponent,
    ell,
    polarization_fractions,
    profile_leaf,
    rank_profile,
    rank_profile_float,
    rr,
    select_rows,
    select_rows_fast,
)
from .sparse import (
    BernoulliSupport,
    L0Result,
    SparkResult,
    SparseSignal,
    UniformSupport,
    draw_signal,
    l0_recover,
    measure,
    spark_certificate,
    support_failure_expectation,
    support_failure_rate,
    support_report,
)

__version__ = "0.1.0"
