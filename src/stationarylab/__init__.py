"""Random walks, boundary measures, and certified norm brackets on free groups.

The package realizes, at desk scale, stationary dynamics over the free group
F_k: exact word arithmetic and finite quotients, sparse convolution in the
group algebra with certified two-sided reduced-norm brackets, random-walk
laws and seeded path sampling, exact cylinder-measure calculus on the
boundary, Cesaro/averaging certification machinery for stationary states,
and conjugation dynamics on cyclic subgroups.
"""

__version__ = "0.1.0"

from .freegroup import (
    FiniteQuotient,
    FreeGroupContext,
    Word,
    axis_prefix,
    ball,
    conjugate,
    cyclic_reduction,
    free_basis_decomposition,
    inverse_letters,
    reduce_letters,
    word_from_str,
)
from .algebra import (
    AlgebraElement,
    NormBracket,
    certify_norm,
    convolve,
    norm_lower_bound,
    norm_upper_bound,
)
from .walks import (
    GroupMeasure,
    PathSample,
    cesaro_measure,
    convolve_measures,
    decay_schedule,
    measure_convolve_element,
    measure_power,
    rng_from_seed,
    sample_increments,
    sample_path,
    uniform_generator_measure,
)
from .boundary import (
    BoundaryPoint,
    ConditionalMeasure,
    CylinderMeasure,
    FixMassBound,
    StationarySolution,
    boundary_map,
    conditional_measure,
    first_letter_hitting,
    fix_mass,
    solve_stationary,
    stationarity_residual,
    total_variation,
    translate,
    uniform_boundary_measure,
)
from .states import (
    CesaroReport,
    CStarSimpleMeasure,
    DensityState,
    PowersCertificate,
    build_c_star_simple_measure,
    cesaro_test,
    crossed_product_state,
    finite_dim_stationary_states,
    powers_search,
    verify_powers_certificate,
)
from .subgroups import (
    CyclicSubgroup,
    EscapeReport,
    FreenessReport,
    PositiveDefiniteFn,
    SubgroupChain,
    freeness_report,
    pdf_from_subgroup_sample,
    primitive_root,
    psd_check,
    srs_escape_experiment,
)
