"""Exact convexity verification for piecewise-linear closed surfaces in R^n.

The verifier decides whether a PL-realized closed connected
(n-1)-manifold bounds a convex polyhedron by checking local convexity
only at the stars of its (n-3)-faces, with exact rational arithmetic
throughout.  A brute-force supporting-hyperplane oracle, instance
generators and file formats round out the package.
"""

from .exactgeom import (
    DegenerateFaceError,
    Projection3,
    complementary_projection,
)
from .fan import (
    ConvexityCheck,
    Fan3,
    ZeroDirectionError,
    build_fan,
    fan_is_convex,
)
from .formats import NonManifoldError, ParseError, SemanticError, emit_pls, parse_off, parse_pls
from .instances import (
    GenSpec,
    build_instance,
    dent,
    gen_cross_polytope,
    gen_dented_cube,
    gen_hypercube,
    gen_prism,
    gen_schonhardt,
    gen_simplex,
    relabel,
    rigid_motion,
    scale,
    split_facet_cube,
    surface_from_polygons,
)
from .oracle import FlatSurfaceError, OracleVerdict, oracle_verdict
from .poset import (
    Face,
    FacePoset,
    LinkCycleError,
    ValidationReport,
    Violation,
    check_closed,
    check_connected,
    link_cycle,
    validate_poset,
)
from .surface import (
    FacetEquation,
    PLSurface,
    PreparedSurface,
    as_equations,
    facet_equation,
)
from .verifier import CONVEX, INVALID, NOT_CONVEX, Verdict, preflight, verify, verify_face

__all__ = [
    "CONVEX",
    "ConvexityCheck",
    "DegenerateFaceError",
    "Face",
    "FacePoset",
    "FacetEquation",
    "Fan3",
    "FlatSurfaceError",
    "GenSpec",
    "INVALID",
    "LinkCycleError",
    "NOT_CONVEX",
    "NonManifoldError",
    "OracleVerdict",
    "ParseError",
    "PLSurface",
    "PreparedSurface",
    "Projection3",
    "SemanticError",
    "ValidationReport",
    "Verdict",
    "Violation",
    "ZeroDirectionError",
    "as_equations",
    "build_fan",
    "build_instance",
    "facet_equation",
    "check_closed",
    "check_connected",
    "complementary_projection",
    "dent",
    "emit_pls",
    "fan_is_convex",
    "gen_cross_polytope",
    "gen_dented_cube",
    "gen_hypercube",
    "gen_prism",
    "gen_schonhardt",
    "gen_simplex",
    "link_cycle",
    "oracle_verdict",
    "parse_off",
    "parse_pls",
    "preflight",
    "relabel",
    "rigid_motion",
    "scale",
    "split_facet_cube",
    "surface_from_polygons",
    "validate_poset",
    "verify",
    "verify_face",
]
