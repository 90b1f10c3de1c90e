"""Numerical laboratory for constant mean curvature surfaces in hyperbolic
3-space.

Surfaces are built from conformal-factor data by integrating a moving-frame
system at a spectral value, then pushed to the hyperboloid model through the
Hermitian matrix representation.  The geometry of the result (metric, Hopf
differential, mean curvature, parallel-surface distance) is measured by
finite differences and checked against closed forms.
"""

from .errors import (
    CmcLabError,
    ConfigError,
    IncompatibleDataError,
    IntegrationBlowupError,
    IntegrationFailureError,
    InternalConsistencyError,
    InvalidInputError,
    NumericalError,
)
from .minkowski import h3_defect
from .surface_data import (
    GridSpec,
    SurfaceData,
    cylinder_data,
    delaunay_data,
    dual_data,
    gauss_residual,
    load_surface_data,
    max_gauss_residual,
    save_surface_data,
)
from .frames import (
    ExtendedFrame,
    SpectralParam,
    integrate_frame,
    shift_frame,
)
from .surfaces import H3SurfaceGrid, normal_field, surface_primary, surface_shifted
from .measure import (
    ClosedFormData,
    MeasuredData,
    closed_form,
    homothety_scale,
    lawson_data,
    measure,
)
from .report import (
    CheckRecord,
    VerificationReport,
    default_tolerances,
    parse_machine,
    registry_names,
    render_machine,
    render_text,
)
from .verify import verify_theorem
from .config import RunConfig, load_config
from .pipeline import poincare_ball, run
from .reference import (  # the definitions tests compare against
    cylinder_frame_closed_form, cylinder_frame_lax_gauge, delaunay_profile, distance_grid,
    equidistance_defect, from_hermitian, hyperbolic_distance, lax_matrices,
    spectral_shift_matrix, to_hermitian, two_path_discrepancy,
)

__all__ = [
    "CmcLabError",
    "ConfigError",
    "IncompatibleDataError",
    "IntegrationBlowupError",
    "IntegrationFailureError",
    "InternalConsistencyError",
    "InvalidInputError",
    "NumericalError",
    "from_hermitian",
    "h3_defect",
    "to_hermitian",
    "GridSpec",
    "SurfaceData",
    "cylinder_data",
    "delaunay_data",
    "delaunay_profile",
    "dual_data",
    "gauss_residual",
    "load_surface_data",
    "max_gauss_residual",
    "save_surface_data",
    "ExtendedFrame",
    "SpectralParam",
    "cylinder_frame_closed_form",
    "cylinder_frame_lax_gauge",
    "integrate_frame",
    "lax_matrices",
    "shift_frame",
    "spectral_shift_matrix",
    "two_path_discrepancy",
    "H3SurfaceGrid",
    "distance_grid",
    "equidistance_defect",
    "hyperbolic_distance",
    "normal_field",
    "surface_primary",
    "surface_shifted",
    "ClosedFormData",
    "MeasuredData",
    "closed_form",
    "homothety_scale",
    "lawson_data",
    "measure",
    "CheckRecord",
    "VerificationReport",
    "default_tolerances",
    "parse_machine",
    "registry_names",
    "render_machine",
    "render_text",
    "verify_theorem",
    "RunConfig",
    "load_config",
    "poincare_ball",
    "run",
]
