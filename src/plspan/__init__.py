"""Triangulated spanning surfaces for closed polygons in R^d.

Exact rational arithmetic end to end: generators produce polygons with
rational coordinates, the surface builders return triangle meshes whose
embeddedness and boundary behaviour are verified by exact predicates,
never by epsilon comparisons.
"""

from .bounds import (
    bounds_report,
    crossing_lower_bound,
    family_bounds,
    genus_lower_bound,
    iso_ratio,
    torus_genus,
    unoriented_genus_bound,
    writhe_lower_bound,
)
from .diagram import Diagram, project_polygon
from .geom import Point, Rat, rat
from .mesh import (
    TriMesh,
    boundary_matches,
    check_embedded,
    read_off,
    write_off,
)
from .otherdims import (
    cone_highdim,
    earclip_2d,
    embedded_4d,
    immersed_disk_4d,
    polygon_contact_clean,
)
from .polygon import (
    ClosedPolygon,
    gen_planar_ngon,
    gen_random,
    gen_torus_stick,
    gen_twist_writhe,
    read_polygon,
    validate_embedded,
    write_polygon,
)
from .seifert import spanning_surface_r3

__all__ = [
    "ClosedPolygon",
    "Diagram",
    "Point",
    "Rat",
    "TriMesh",
    "boundary_matches",
    "bounds_report",
    "check_embedded",
    "cone_highdim",
    "crossing_lower_bound",
    "earclip_2d",
    "embedded_4d",
    "family_bounds",
    "gen_planar_ngon",
    "gen_random",
    "gen_torus_stick",
    "gen_twist_writhe",
    "genus_lower_bound",
    "immersed_disk_4d",
    "iso_ratio",
    "polygon_contact_clean",
    "project_polygon",
    "rat",
    "read_off",
    "read_polygon",
    "spanning_surface_r3",
    "torus_genus",
    "unoriented_genus_bound",
    "validate_embedded",
    "write_off",
    "write_polygon",
    "writhe_lower_bound",
]

__version__ = "0.1.0"
