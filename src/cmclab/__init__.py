"""Numerical laboratory for constant mean curvature surfaces in hyperbolic
3-space.

Surfaces are built from conformal-factor data by integrating a moving-frame
system at a spectral value, then pushed to the hyperboloid model through the
Hermitian matrix representation.  The geometry of the result (metric, Hopf
differential, mean curvature, parallel-surface distance) is measured by
finite differences and checked against closed forms.

The package root re-exports the program's public names.  The closed forms
and other definitions the tests and demos compare against live in
`cmclab.reference`, which `import cmclab` does not load.
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

__all__ = [
    "CmcLabError",
    "ConfigError",
    "IncompatibleDataError",
    "IntegrationBlowupError",
    "IntegrationFailureError",
    "InternalConsistencyError",
    "InvalidInputError",
    "NumericalError",
    "h3_defect",
    "GridSpec",
    "SurfaceData",
    "cylinder_data",
    "delaunay_data",
    "dual_data",
    "gauss_residual",
    "load_surface_data",
    "max_gauss_residual",
    "save_surface_data",
    "ExtendedFrame",
    "SpectralParam",
    "integrate_frame",
    "shift_frame",
    "H3SurfaceGrid",
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
