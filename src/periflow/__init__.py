"""Time-periodic advection-diffusion solves on periodically moving closed curves."""

__version__ = "0.1.0"

from .errors import (
    BandError,
    ConfigError,
    ContractionBoundError,
    DegenerateMetricError,
    DegenerateSurfaceError,
    ExtractionError,
    GridMismatchError,
    NonuniquenessError,
    PeriflowError,
    ProjectionError,
    StepError,
)
from .fields import (
    AmbientField,
    AnalyticField,
    ParameterGrid,
    fourier_noise,
)
from .surfaces import (
    FAMILIES,
    GeometryFrame,
    SurfaceFamily,
    bean,
    breathing_circle,
    build_frame,
    circle,
    commutator_check,
    from_sampled_chart,
    rotating_ellipse,
    tangential_gradient,
)
from .metric import (
    MetricSample,
    SpaceTimeGeometry,
    assemble_metric,
    cartesian_laplacian_apply,
    greens_formula_check,
    laplace_beltrami_apply,
    laplace_beltrami_matrix,
    mean_and_mass,
    pullback_identity_check,
    space_time_geometry,
    trace_identity,
    transport_formula_residual,
)
from .evolution import (
    IVPConfig,
    Propagator,
    adjoint_solve,
    duality_check,
    end_map,
    solve_ivp,
)
from .periodic import (
    ContractionEstimate,
    FixedPointReport,
    PeriodicityResiduals,
    SolvabilityReport,
    contraction_estimate,
    fixed_point_solve,
    mean_adjust,
    monodromy_solve,
    periodicity_residuals,
)
from .narrowband import (
    DistanceField,
    NarrowBandGrid,
    band_average_extract,
    band_field_csv,
    build_band,
    default_band_width,
    eikonal_residual,
    elliptic_part_identity_check,
    extended_operator_apply,
    flat_strip_step_equivalence,
    lift_field,
    max_curvature,
    os_operator_equivalence,
    rescaled_gradient,
    surface_point_geometry,
)
from .diagnostics import (
    HolderEstimate,
    MassSeries,
    MaxPrincipleReport,
    compatibility_check,
    holder_estimate,
    interpolation_check,
    mass_ledger,
    max_principle_monitor,
    norm_equivalence_check,
)
