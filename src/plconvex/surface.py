"""PL-surfaces: a face poset together with an exact rational realization.

Two geometry modes are supported.  In vertex mode every 0-face carries
coordinates and the higher faces carry vertex lists.  In equations mode
each facet carries an exact hyperplane (normal, offset) and every listed
face of dims n-3, n-2, n-1 carries a witness point in its relative
interior; vertex coordinates are not needed then.

``check_realization`` enforces the geometric half of the input contract:
each face's vertex set must affinely span exactly the face's dimension
(vertex mode), respectively witnesses must satisfy the equations of all
facets above them and the incident facet normals of every (n-3)-face
must pin down its direction space (equations mode).  Inputs failing
these checks are reported invalid rather than classified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactgeom import (
    DegenerateFaceError,
    Eliminator,
    Vec,
    dot,
    nullspace,
    vmean,
    vsub,
)
from .poset import Face, FacePoset, ValidationReport, Violation

VERTEX_MODE = "vertices"
EQUATION_MODE = "equations"


@dataclass(frozen=True)
class FacetEquation:
    normal: Vec
    offset: Fraction


@dataclass(frozen=True)
class PLSurface:
    poset: FacePoset
    vertices: tuple[Vec, ...] = ()
    equations: dict[Face, FacetEquation] = field(default_factory=dict)
    witnesses: dict[Face, Vec] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def mode(self) -> str:
        return VERTEX_MODE if self.vertices else EQUATION_MODE


def interior_point(surface: PLSurface, face: Face) -> Vec:
    """A deterministic point in the relative interior of a face.

    Vertex mode returns the mean of a greedy affinely-spanning subset of
    the face's vertices (scanned in index order).  For faces realized as
    convex hulls of their vertices this lies in the relative interior,
    and the subset has at most dim+1 points, so the cost per face is
    bounded by the face dimension rather than its vertex count.
    """
    if surface.mode == EQUATION_MODE:
        return surface.witnesses[face]
    verts = surface.poset.vertex_lists[face]
    first = surface.vertices[verts[0]]
    if face.dim == 0 or len(verts) == 1:
        return first
    elim = Eliminator(surface.n)
    picked = [first]
    for v in verts[1:]:
        p = surface.vertices[v]
        if elim.add(vsub(p, first)):
            picked.append(p)
            if len(picked) == face.dim + 1:
                break
    return vmean(picked)


def direction_space(surface: PLSurface, face: Face) -> tuple[Vec, ...]:
    """Basis of the linear direction space of an (n-3)-face, size n-3.

    Vertex mode spans the differences from the least-index vertex;
    equations mode intersects the hyperplanes of the incident facets.
    Raises DegenerateFaceError when the result does not have dimension
    exactly n-3.
    """
    n = surface.n
    want = n - 3
    if face.dim != surface.poset.dim_low:
        raise ValueError(f"{face} is not an (n-3)-face")
    if surface.mode == VERTEX_MODE:
        verts = surface.poset.vertex_lists[face]
        base = surface.vertices[verts[0]]
        elim = Eliminator(n)
        basis = []
        for v in verts[1:]:
            d = vsub(surface.vertices[v], base)
            if elim.add(d):
                basis.append(d)
        if len(basis) != want:
            raise DegenerateFaceError(face, f"affine rank {len(basis)} != {want}")
        return tuple(basis)
    normals = []
    for g in surface.poset.up(face):
        for h in surface.poset.up(g):
            normals.append(surface.equations[h].normal)
    basis = nullspace(normals, n)
    if len(basis) != want:
        raise DegenerateFaceError(
            face, f"facet equations leave a {len(basis)}-dimensional direction space"
        )
    return basis


def facet_equation(surface: PLSurface, facet: Face) -> FacetEquation:
    """Exact hyperplane through a facet's vertices (vertex mode)."""
    verts = surface.poset.vertex_lists[facet]
    base = surface.vertices[verts[0]]
    diffs = [vsub(surface.vertices[v], base) for v in verts[1:]]
    normals = nullspace(diffs, surface.n)
    if len(normals) != 1:
        raise DegenerateFaceError(facet, "facet does not span a hyperplane")
    return FacetEquation(normals[0], dot(normals[0], base))


def as_equations(surface: PLSurface) -> PLSurface:
    """Convert a vertex-mode surface to equations mode.

    Facets get their exact hyperplanes, every face of dims n-3, n-2, n-1
    gets its deterministic interior point as witness, and vertex lists
    are dropped (dim 0 disappears entirely for n > 3).
    """
    if surface.mode != VERTEX_MODE:
        return surface
    poset = surface.poset
    n = surface.n
    counts = {d: c for d, c in poset.faces_per_dim.items() if d != 0 or n == 3}
    new_poset = FacePoset(
        n=n,
        faces_per_dim=counts,
        incidence_up=dict(poset.incidence_up),
    )
    equations = {h: facet_equation(surface, h) for h in poset.faces(poset.dim_top)}
    witnesses: dict[Face, Vec] = {}
    for d in (poset.dim_low, poset.dim_mid, poset.dim_top):
        for f in poset.faces(d):
            witnesses[f] = interior_point(surface, f)
    return PLSurface(new_poset, equations=equations, witnesses=witnesses)


def check_realization(surface: PLSurface) -> ValidationReport:
    """Geometric input validation (see module docstring)."""
    bad: list[Violation] = []
    poset = surface.poset
    n = surface.n
    if surface.mode == VERTEX_MODE:
        if len(surface.vertices) != poset.count(0):
            bad.append(
                Violation(
                    "MISSING_COORDS",
                    None,
                    f"{poset.count(0)} vertices declared, {len(surface.vertices)} coordinates",
                )
            )
            return ValidationReport(tuple(bad))
        if any(len(v) != n for v in surface.vertices):
            bad.append(Violation("MISSING_COORDS", None, "coordinate of wrong length"))
            return ValidationReport(tuple(bad))
        for d in sorted({n - 3, n - 2, n - 1}):
            if d == 0:
                continue
            for face in poset.faces(d):
                verts = poset.vertex_lists.get(face, ())
                if not verts:
                    continue  # reported by validate_poset
                base = surface.vertices[verts[0]]
                elim = Eliminator(n)
                r = 0
                for v in verts[1:]:
                    if elim.add(vsub(surface.vertices[v], base)):
                        r += 1
                        if r > d:
                            break
                if r != d:
                    bad.append(
                        Violation("DEGENERATE_FACE", face, f"affine rank {r} != dim {d}")
                    )
        return ValidationReport(tuple(bad))

    for h in poset.faces(poset.dim_top):
        eq = surface.equations.get(h)
        if eq is None:
            bad.append(Violation("MISSING_EQUATION", h, "facet without equation"))
        elif len(eq.normal) != n:
            bad.append(Violation("BAD_NORMAL", h, f"normal of length {len(eq.normal)}, not {n}"))
        elif all(c == 0 for c in eq.normal):
            bad.append(Violation("ZERO_NORMAL", h, "facet normal is zero"))
    if bad:
        return ValidationReport(tuple(bad))

    def facets_above(face: Face) -> set[Face]:
        if face.dim == poset.dim_top:
            return {face}
        if face.dim == poset.dim_mid:
            return set(poset.up(face))
        out: set[Face] = set()
        for g in poset.up(face):
            out.update(poset.up(g))
        return out

    for d in (poset.dim_low, poset.dim_mid, poset.dim_top):
        for face in poset.faces(d):
            w = surface.witnesses.get(face)
            if w is None or len(w) != n:
                bad.append(Violation("BAD_WITNESS", face, "missing witness point"))
                continue
            for h in facets_above(face):
                eq = surface.equations[h]
                if dot(eq.normal, w) != eq.offset:
                    bad.append(
                        Violation("BAD_WITNESS", face, f"witness not on facet {h}")
                    )
    for face in poset.faces(poset.dim_low):
        normals = []
        for g in poset.up(face):
            for h in poset.up(g):
                normals.append(surface.equations[h].normal)
        if len(nullspace(normals, n)) != n - 3:
            bad.append(
                Violation(
                    "DEGENERATE_FACE",
                    face,
                    "incident facet equations do not determine the face's direction space",
                )
            )
    return ValidationReport(tuple(bad))
