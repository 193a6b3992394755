"""Numerical convex geometry: support functions, polar duality, p-mixed
volumes, affine surface areas, geominimal estimates, and an inequality
verification harness."""

from .bodies import (
    ConvexBody,
    Ellipsoid,
    FourierBody2D,
    HPolytope,
    LinearImage,
    SampledBody2D,
    ShiftedBall,
    VPolytope,
    ball,
    body_from_json,
    body_to_json,
    has_curvature,
    random_body,
)
from .errors import (
    DomainError,
    GenerationError,
    GeominimaError,
    InputError,
    UnsupportedError,
)
from .functionals import (
    HolderCheck,
    InVpResult,
    StarBody,
    VariationalResult,
    affine_surface_area_p,
    affine_surface_area_p_variational,
    curvature_image,
    holder_cyclic_check,
    in_vp,
    mahler,
    mixed_volume_p,
    mixed_volume_p_star,
    p_surface_area,
    star_body_is_convex,
)
from .geominimal import (
    EllipsoidFamily,
    GpEstimate,
    PolytopeSupportFamily,
    estimate_gp,
    gp_ball_shifted,
    gp_objective,
    lutwak_gp_from_tilde,
)
from .grids import SphericalGrid, default_grid, make_grid, sphere_area, unit_ball_volume
from .harness import (
    CheckResult,
    HarnessConfig,
    Report,
    canonical_bodies,
    check_blaschke_santalo,
    check_containment,
    check_cyclic_and_monotone,
    check_homogeneity,
    check_isoperimetric,
    check_p_surface_comparison,
    check_santalo_style,
    check_translation_balls,
    check_volume_product_bound,
    gp_ellipsoid_exact,
    replay_instance,
    run_suite,
)
from .measures import SurfaceMeasure, curvature_values, lp_curvature, surface_measure

__version__ = "0.1.0"
