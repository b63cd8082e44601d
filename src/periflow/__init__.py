"""Time-periodic advection-diffusion solves on periodically moving closed curves.

The narrow-band check suite is imported from `periflow.narrowband`; neither
it nor the package itself loads scipy.
"""

__version__ = "0.1.0"

from .errors import (
    BandError,
    ConfigError,
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
    rotating_ellipse,
    tangential_gradient,
)
from .metric import (
    MetricSample,
    SpaceTimeGeometry,
    assemble_metric,
    greens_formula_check,
    laplace_beltrami_apply,
    laplace_beltrami_matrix,
    mean_and_mass,
    pullback_identity_check,
    space_time_geometry,
    trace_identity,
)
from .evolution import (
    IVPConfig,
    Propagator,
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
from .diagnostics import (
    HolderEstimate,
    MassSeries,
    compatibility_check,
    holder_estimate,
    interpolation_check,
    mass_ledger,
)
