"""Numerical laboratory for orbit speeds of holomorphic self-map semigroups
of the unit disk, in the Koenigs model."""

__version__ = "0.1.0"

from .domains import (
    DomainDescriptor,
    HalfPlaneDom,
    RectangleChain,
    SlitPlane,
    StripDom,
    contains,
    dist_to_boundary,
    includes,
    rectangle_chain,
    slit_plane,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    HypspeedsError,
    NumericError,
    ParameterError,
    UnsupportedDomainError,
)
from .hyperbolic import (
    Diameter,
    Disk,
    HalfPlane,
    MoebiusMap,
    OrthoCircle,
    apply_mobius,
    disk_distance,
    foot_on_diameter,
    geodesic_through,
    integrate_density_along,
    perpendicular_geodesic,
    project_to_geodesic,
    region_density,
    region_distance,
)
from .conformal import (
    KoenigsMap,
    axis_distance,
    build_koenigs,
    domain_distance,
    map_forward,
    map_inverse,
    slit_sqrt_forward,
)
from .quasihyperbolic import RhoBounds, quasihyperbolic_axis, rho_bounds, theorem3_table
from .semigroup import (
    SemigroupModel,
    SpeedSample,
    dip_search,
    generalized_speed,
    make_model,
    monotonicity_scan,
    orbit,
    slit_inequality_on_K,
    speed_difference_identity,
    speeds,
    theorem4_scan,
)
# harmonic (and with it numpy) loads on the first use of one of its names, so
# the analytic experiments start without numpy (PEP 562)
_HARMONIC_NAMES = frozenset(
    {
        "ArcOnCircle",
        "HMEstimate",
        "disk_arc_measure",
        "geodesic_cut_measure",
        "mc_disk_arc",
        "mc_first_hit",
        "projection_bound_check",
        "semidisk_bisection_check",
    }
)


def __getattr__(name: str):
    if name in _HARMONIC_NAMES:
        from . import harmonic

        return getattr(harmonic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
