"""Brute-force convexity oracle, independent of the star-based verifier.

``oracle_verdict`` uses the global supporting-hyperplane
characterization: the surface bounds a convex polyhedron iff every
facet's affine hull has all surface vertices weakly on one side, with at
least one vertex strictly off it.  Combined with the closed/connected
preflight this decides convexity for vertex-mode inputs whose faces are
convex polytopes, by a completely different principle than the verifier,
which is the point: the two must agree on every valid instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactgeom import homogeneous
from .poset import Face
from .surface import PLSurface, facet_equation


class FlatSurfaceError(Exception):
    """All vertices lie in one hyperplane; the body would not be n-dimensional."""

    code = "FLAT_SURFACE"


@dataclass(frozen=True)
class OracleVerdict:
    convex: bool
    violating_facet: Face | None = None
    violating_vertex: int | None = None


def oracle_verdict(surface: PLSurface) -> OracleVerdict:
    """Supporting-hyperplane test over every facet, scanned in index order.

    On failure reports the least-index offending facet, and on the side
    with fewer strictly-off vertices (ties to the side holding the
    smallest vertex index) the least such vertex.  Facets that do not
    span a hyperplane raise DegenerateFaceError (preflight is expected
    to have filtered those).

    Sign tests run on per-vertex and per-facet integer rescalings of the
    exact data (positive scalings cannot change a sign).
    """
    if surface.mode != "vertices":
        raise ValueError("the oracle needs vertex coordinates")
    poset = surface.poset
    scaled_vertices = [homogeneous(v) for v in surface.vertices]
    for facet in poset.faces(poset.dim_top):
        eq = facet_equation(surface, facet)
        *normal, offset = homogeneous((*eq.normal, eq.offset))[0]
        pos: list[int] = []
        neg: list[int] = []
        for idx, (vi, dv) in enumerate(scaled_vertices):
            s = sum(a * b for a, b in zip(normal, vi)) - offset * dv
            if s > 0:
                pos.append(idx)
            elif s < 0:
                neg.append(idx)
        if not pos and not neg:
            raise FlatSurfaceError(f"all vertices lie on aff({facet})")
        if pos and neg:
            if len(pos) != len(neg):
                side = pos if len(pos) < len(neg) else neg
            else:
                side = pos if min(pos) < min(neg) else neg
            return OracleVerdict(False, facet, min(side))
    return OracleVerdict(True)
