"""polysec: exact small polytope extensions of convex polygons.

Given a convex polygon with rational coordinates, this package constructs a
provably small polytope having the polygon as a plane section, certifies
the construction by recomputing the section exactly, and extracts the
matching nonnegative factorization of the polygon's slack matrix.
"""

from .compose import (
    convex_join_sections,
    lower_bound_3d,
    ngon_3d_extension,
    ngon_extension,
    optimal_even_gon,
)
from .exactgeom import (
    det3,
    join,
    meet,
)
from .heptagon import (
    Crossing,
    StandardHeptagon,
    StdPoints,
    build_standard_extension,
    classify_line,
    find_noncrossing,
    heptagon_extension,
    standardize,
    std_points,
)
from .hexagon import (
    HexDecision,
    HexNormalForm,
    concurrency_point,
    hexagon_extension5,
    hexagon_ic,
    hexagon_normal_form,
)
from .polygon import (
    Polygon,
    ProjMap2,
    frame_map,
    validate,
)
from .sections import (
    SectionedPolytope,
    compute_section,
    extreme_points,
    pullback,
    verify_section,
)
from .slack import (
    SlackFactorization,
    extend_facet_inequality,
    factorize_from_section,
    slack_matrix,
    verify_factorization,
)

__version__ = "0.1.0"
