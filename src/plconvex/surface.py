"""PL-surfaces: a face poset together with an exact rational realization.

Two geometry modes are supported.  In vertex mode every 0-face carries
coordinates and the higher faces carry vertex lists.  In equations mode
each facet carries an exact hyperplane (normal, offset) and every listed
face of dims n-3, n-2, n-1 carries a witness point in its relative
interior; vertex coordinates are not needed then.

A surface holds its numbers in one of two forms.  One built from values
(the generators, ``rigid_motion``, ``as_equations``, ``parse_off``)
holds ``int``s and ``Fraction``s in ``vertices``, ``equations`` and
``witnesses``.  One that ``formats.parse_pls`` reads holds the reader's
integer rows (``SurfaceRows``: each point and normal the ``HomPoint``
that ``exactgeom.homogeneous`` gives for its values, each offset in
lowest terms) and derives those three tables from them only when
something reads one (``PLSurface.from_rows``), so building it converts
nothing and ``verify`` builds no table.  ``_rows`` is the one place
where a surface's records become the integer rows: a parsed surface's
are its rows as they are, and a built surface's records are converted
once each (``homogeneous``; a row of ints keeps its values at weight
1), every table read through ``poset._per_face``, so that a None table
or entry or a short table is a missing record.  The geometry pass and
the writers' record check (``_require_records``) both read ``_rows``.

``_geometry_pass`` is the one geometry pass.  ``verifier.preflight``,
the one front end, runs it once over the whole surface, and only on a
poset that ``validate_poset``, ``check_closed`` and ``check_connected``
accepted, so it reads vertex lists and upward records without checking
their ids again.  It reads only ``_rows``.  It fills two tables by
face index: ``preflight(s).points[d][i]``, the interior point of face i
of dimension d (d = n-3, n-2, n-1), and ``preflight(s).projections[i]``,
the projection of (n-3)-face i's star.  They are the verifier's only
source of that geometry.  In vertex mode a vertex is its own point,
and every other face gets one fraction-free elimination
(``_face_geometry``): its interior point, its direction basis as the
integer echelon rows of that elimination, and whether it spans its
dimension.  Each row is reduced once: a simplex whose first ids list a
simplex of dimension 2 or more one rank down resumes that face's
elimination and reduces its last vertex's row alone.  A star's
projection comes off its face's echelon rows in one back-substitution
(``exactgeom._echelon_projection``), the map that
``complementary_projection`` gives for any basis of the same span.  In
equations mode a face's witness is its point, and at n >= 4
the first three incident facet normals that raise the rank
(``exactgeom._independent``) are the rows of a star's projection.  At
n = 3 both modes table one shared identity.  ``as_equations`` runs
``_face_geometry`` once per face but a vertex to write witnesses and
facet equations, and ``facet_equation`` once per facet; a facet's
normal comes off its echelon rows in one back-substitution
(``exactgeom._free_basis``).  Both look vertices up through
``_vertex_points``, which refuses an empty list or an id out of range
itself.

The pass enforces the geometric half of the input contract in its
report: vertex coordinates of length n, faces that affinely span
exactly their dimension, facet normals that are nonzero and of length
n, witnesses of length n on the planes of every facet above them, exact
numbers (int or Fraction) in every coordinate, normal, offset and
witness, and,
at n >= 4, incident facet normals that pin down each (n-3)-face's
direction space.  Inputs failing these checks are reported invalid
rather than classified.  Witnesses are trusted to lie in the relative
interior of their faces; that part is not checked.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Sequence

from .exactgeom import (
    _IDENTITY3,
    DegenerateFaceError,
    Echelon,
    HomPoint,
    IVec,
    Number,
    Projection3,
    Vec,
    _echelon_projection,
    _free_basis,
    _independent,
    _pivot,
    _reduce,
    dehomogenise,
    dot,
    homogeneous,
)
from .poset import Face, FacePoset, ValidationReport, Violation, _per_face, validate_poset

VERTEX_MODE = "vertices"
EQUATION_MODE = "equations"


@dataclass(frozen=True)
class FacetEquation:
    normal: Vec
    offset: Number


class FacetRow(NamedTuple):
    """A facet equation in integers, as the PLS reader reads it: normal / weight . x = num / den.

    ``(normal, weight)`` is the ``HomPoint`` that ``homogeneous`` gives
    for the normal's values, and num / den is the offset in lowest terms
    with den > 0.
    """

    normal: IVec
    weight: int
    num: int
    den: int


class SurfaceRows(NamedTuple):
    """A parsed surface's numbers as ``formats.parse_pls`` reads them, every row in integers.

    ``vertices[v]`` is vertex v's coordinates (vertex mode);
    ``witnesses[d][i]`` is face i's witness point and ``equations[h]``
    facet h's ``FacetRow`` (equations mode).  Each point is the
    ``HomPoint`` that ``homogeneous`` gives for its values.  Every table
    holds one row per face, of the counts of the poset read with it.
    """

    vertices: tuple[HomPoint, ...]
    equations: list[FacetRow]
    witnesses: dict[int, list[HomPoint]]


def _values(row: HomPoint) -> Vec:
    """The exact values of an integer row, as the readers give them: an int for an integer value, else a Fraction."""
    nums, w = row
    return tuple([x // w if x % w == 0 else Fraction(x, w) for x in nums])


# the tables that a surface built from rows derives on their first read
_VIEWS = {
    "vertices": lambda rows: tuple(map(_values, rows.vertices)),
    "equations": lambda rows: [
        FacetEquation(_values((r.normal, r.weight)), r.num if r.den == 1 else Fraction(r.num, r.den)) for r in rows.equations
    ],
    "witnesses": lambda rows: {d: list(map(_values, points)) for d, points in rows.witnesses.items()},
}


@dataclass(frozen=True)
class PLSurface:
    """A face poset and its realization, by vertices or by facet equations.

    Vertex mode gives ``vertices[v]``, the coordinates of vertex v.
    Equations mode gives ``equations[h]``, facet h's hyperplane, and
    ``witnesses[d][i]``, a point in the relative interior of face i of
    dimension d, for d = n-3, n-2, n-1: the shape of ``preflight(s).points``.
    A missing record is a None entry, a None table or a list shorter
    than its face count.

    A surface that ``parse_pls`` reads is built ``from_rows``: it keeps
    the reader's ``rows``, which ``_rows`` gives the pass as they are, and
    derives each of those three tables from them the first time something
    reads it.  A surface built from values has no rows (None), and
    ``dataclasses.replace`` gives one built from values.
    """

    poset: FacePoset
    vertices: tuple[Vec, ...] = field(default_factory=tuple)
    equations: list[FacetEquation | None] = field(default_factory=list)
    witnesses: dict[int, list[Vec | None]] = field(default_factory=dict)
    rows: SurfaceRows | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_rows(cls, poset: FacePoset, rows: SurfaceRows) -> PLSurface:
        """The surface of ``poset`` whose numbers are ``rows``; nothing is converted until a table is read."""
        surface = object.__new__(cls)
        object.__setattr__(surface, "poset", poset)
        object.__setattr__(surface, "rows", rows)
        return surface

    def __getattr__(self, name: str):
        # lookup found no attribute: a table that a surface built from rows
        # has not derived yet, or a name that is no attribute at all
        if name not in _VIEWS or self.rows is None:
            raise AttributeError(name)
        value = self.__dict__[name] = _VIEWS[name](self.rows)
        return value

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def mode(self) -> str:
        rows = self.rows
        return VERTEX_MODE if (self.vertices if rows is None else rows.vertices) else EQUATION_MODE


def _rows(surface: PLSurface) -> SurfaceRows | Violation:
    """The integer rows the geometry pass reads: a parsed surface's as they are, a built one's converted once.

    A built surface's records go through ``homogeneous`` once each.  In
    vertex mode a coordinate count other than the vertex count, a row
    that is no sequence (None too) or whose length is not n, or a value
    that is no exact number is the one MISSING_COORDS ``Violation``
    returned.  In equations mode every facet and every face of dims
    n-3, n-2, n-1 gets one slot (``poset._per_face``): its ``FacetRow``
    or ``HomPoint``, or the ``Violation`` the pass reports at that face:
    MISSING_EQUATION for a facet without its equation, BAD_NORMAL for a
    normal entry or an offset that is no exact number, BAD_WITNESS for a
    face without its witness or with an entry that is no exact number.
    A facet whose normal has another length than n or is zero is left
    unconverted, so that the pass reports its normal first.
    """
    if surface.rows is not None:
        return surface.rows
    poset, n = surface.poset, surface.n
    if surface.mode == VERTEX_MODE:
        vertices, count = surface.vertices, poset.count(0)
        if len(vertices) != count:
            return Violation("MISSING_COORDS", None, f"{count} vertices declared, {len(vertices)} coordinates")
        if any(not hasattr(v, "__len__") or len(v) != n for v in vertices):  # None or a number too
            return Violation("MISSING_COORDS", None, "coordinate of wrong length")
        try:
            return SurfaceRows(tuple(map(homogeneous, vertices)), [], {})
        except TypeError as exc:
            return Violation("MISSING_COORDS", None, f"coordinate {exc}")
    top = poset.dim_top
    equations: list = []
    for h, eq in enumerate(_per_face(surface.equations, poset.count(top))):
        if eq is None:
            equations.append(Violation("MISSING_EQUATION", Face(top, h), "facet without equation"))
        elif len(eq.normal) != n or all(c == 0 for c in eq.normal):
            equations.append(eq)
        else:
            try:
                equations.append(FacetRow(*homogeneous(eq.normal), eq.offset.numerator, eq.offset.denominator))
            except TypeError as exc:
                equations.append(Violation("BAD_NORMAL", Face(top, h), f"normal entry {exc}"))
            except AttributeError:  # an offset without a numerator or denominator
                equations.append(Violation("BAD_NORMAL", Face(top, h), f"offset {eq.offset!r} is not an exact number"))
    witnesses: dict[int, list] = {}
    tables = surface.witnesses or {}
    for d in (poset.dim_low, poset.dim_mid, top):
        points = witnesses[d] = []
        for i, point in enumerate(_per_face(tables.get(d), poset.count(d))):
            try:
                points.append(Violation("BAD_WITNESS", Face(d, i), "missing witness point") if point is None else homogeneous(point))
            except TypeError as exc:
                points.append(Violation("BAD_WITNESS", Face(d, i), f"witness entry {exc}"))
    return SurfaceRows((), equations, witnesses)


def _require_records(surface: PLSurface) -> None:
    """ValueError for the first violation ``verify`` reports among the records a writer reads.

    Its text is the violation's code, face (when it names one) and
    message.  ``validate_poset``'s violations come first, then
    ``_rows``'s: a coordinate record that is lacking, of another length
    than n or not exact numbers (MISSING_COORDS), or a facet without its
    equation (MISSING_EQUATION), a normal entry or offset that is no
    exact number (BAD_NORMAL), and a face of dims n-3, n-2, n-1 without
    its witness or with an entry that is no exact number (BAD_WITNESS).
    """
    rows = _rows(surface)
    slots = [rows] if isinstance(rows, Violation) else chain(rows.equations, *rows.witnesses.values())
    found = [*validate_poset(surface.poset, surface.mode).violations, *[s for s in slots if isinstance(s, Violation)]]
    if found:
        code, face, message = found[0]
        raise ValueError(f"{code}: {message}" if face is None else f"{code}: {face}: {message}")


def _face_geometry(
    dim: int, points: Sequence[HomPoint], prefix: tuple[HomPoint, Echelon] | None = None
) -> tuple[HomPoint, Echelon, str | None]:
    """A vertex-mode face's interior point, direction basis and rank defect, from one elimination.

    ``dim`` is the face's dimension and ``points`` are its vertices in
    list order, in integer homogeneous form.  The scan takes the
    differences from the first point in that order (w_b * V_p - w_p * V_b,
    the positive multiple w_b * w_p of p - base, in integers), reduces
    each but the first with ``_reduce`` against the rows kept before it,
    and keeps each row that does not reduce to zero, stopping once the
    rank exceeds the face's dimension; the point is the mean of the first
    point and the first ``dim`` points that raised the rank.  Their
    numerators are summed as they are picked, over the lcm W of the
    weights picked so far: a point of weight W is added as it is, and
    any other weight w brings both sides to lcm(W, w) first.  The point
    is that sum over the weight k*W for k points.  The basis is the kept
    rows as ``_reduce``'s (pivot column, row) pairs, in echelon form
    (each row is zero at the pivot columns of the rows before it).
    The defect is None exactly when the face spans its dimension.

    ``prefix`` resumes a scan: it is this function's point and basis for
    the face of dimension ``dim`` - 1 listed by every point but the last,
    which is where the scan of ``points`` stands after that many points,
    since a scan over dim points keeps at most dim - 1 rows.  Only the
    last point's row is reduced then.

    The scan is its own loop over ``_reduce``, not ``_independent``:
    the point sum, the early stop and the prefix resume are interleaved with it.
    """
    base = points[0]
    vb, wb = base
    if prefix is None:
        pivots: list[tuple[int, IVec]] = []  # the echelon rows of _reduce
        total, weight = vb, wb
        rest = points[1:]
    else:
        (total, weight), rows = prefix
        pivots = list(rows)
        weight //= 1 + len(pivots)
        rest = (points[-1],)
    for vp, wp in rest:
        d = tuple([wb * x - wp * y for x, y in zip(vp, vb)])
        # the first row needs no reduction: a pivot row's scale does not
        # change which later rows reduce to zero, nor their pivot columns
        r = _reduce(pivots, d) if pivots else d
        col = _pivot(r)
        if col is not None:
            pivots.append((col, r))
            if len(pivots) > dim:
                break
            if wp == weight:
                total = tuple(map(operator.add, total, vp))
            else:
                g = math.gcd(weight, wp)
                a, b = wp // g, weight // g
                total = tuple([a * x + b * y for x, y in zip(total, vp)])
                weight *= a
    k = len(pivots)
    defect = None if k == dim else f"affine rank {k} != dim {dim}"
    return (total, (1 + min(k, dim)) * weight), tuple(pivots), defect


def _facet_geometry(facet: Face, points: Sequence[HomPoint], n: int) -> tuple[HomPoint, FacetEquation]:
    """A facet's interior point and exact hyperplane, from ``_face_geometry``'s one elimination.

    The normal is the ``_free_basis`` vector of its echelon rows, which
    span the vertex differences, divided by its last nonzero entry, its
    free column's value: the rational ``nullspace`` basis vector, with
    no second elimination.  The hyperplane passes through the first point.
    """
    point, basis, defect = _face_geometry(facet.dim, points)
    if defect is not None:
        raise DegenerateFaceError(facet, "facet does not span a hyperplane")
    (normal,) = _free_basis(basis, n)
    scale = next(x for x in reversed(normal) if x)
    base, weight = points[0]
    return point, FacetEquation(dehomogenise(normal, scale), Fraction(dot(normal, base), scale * weight))


def _vertex_points(poset: FacePoset, face: Face, coords: Sequence) -> list:
    """``coords[v]`` for each vertex id v of ``face`` in ``poset.vertex_ids``, in list order, for the writers and the oracle.

    A face without a vertex record and an id outside 0..V-1, negative
    too, name no vertices: each is a KeyError.  A face without vertices
    is a DegenerateFaceError.
    """
    d, i = face
    rows = poset.vertex_ids.get(d, ())
    if not 0 <= i < len(rows):
        raise KeyError(face)
    ids = rows[i]
    if not ids:
        raise DegenerateFaceError(face, "no vertices")
    for v in ids:
        if not 0 <= v < len(coords):
            raise KeyError(v)
    return [coords[v] for v in ids]


def facet_equation(surface: PLSurface, facet: Face) -> FacetEquation:
    """Exact hyperplane through a facet's vertices (vertex mode), as ``_facet_geometry``.

    Its vertices are looked up as in ``as_equations`` (``_vertex_points``).
    """
    vertices = _vertex_points(surface.poset, facet, surface.vertices)
    return _facet_geometry(facet, list(map(homogeneous, vertices)), surface.n)[1]


def as_equations(surface: PLSurface) -> PLSurface:
    """Convert a vertex-mode surface to equations mode.

    Every face of dims n-3, n-2, n-1 above 0 gets one ``_face_geometry``
    elimination, facets first: face i of dimension d gets its interior
    point, the one ``preflight`` would table, as ``witnesses[d][i]``, and
    facet h's direction basis gives its exact hyperplane
    ``equations[h]`` (``_facet_geometry``).  At n = 3 a vertex's witness
    is its coordinates.  Vertex lists are dropped (dim 0 disappears
    entirely for n > 3); the upward tables are kept as they are.

    A face below the facets that spans less than its dimension still
    gets a witness; a facet that spans no hyperplane is a
    DegenerateFaceError.  A vertex without n coordinates is a
    ValueError.  Vertices are looked up by ``_vertex_points``: a face
    without vertices is a DegenerateFaceError, and one without a record
    or coordinates, or an id outside 0..V-1, negative too, a KeyError.
    """
    if surface.mode != VERTEX_MODE:
        return surface
    poset = surface.poset
    n = surface.n
    if any(len(v) != n for v in surface.vertices):
        raise ValueError(f"every vertex needs exactly {n} coordinates")
    counts = {d: c for d, c in poset.faces_per_dim.items() if d != 0 or n == 3}
    new_poset = FacePoset(n=n, faces_per_dim=counts, up_ids=dict(poset.up_ids))
    coords = dict(enumerate(map(homogeneous, surface.vertices)))  # a vertex without coordinates is a KeyError

    def face_points(face: Face) -> list[HomPoint]:
        return _vertex_points(poset, face, coords)

    facets = [_facet_geometry(h, face_points(h), n) for h in poset.faces(poset.dim_top)]
    witnesses = {
        d: [dehomogenise(*_face_geometry(d, face_points(f))[0] if d else coords[f.index]) for f in poset.faces(d)]
        for d in (poset.dim_low, poset.dim_mid)
    }
    witnesses[poset.dim_top] = [dehomogenise(*point) for point, _ in facets]
    return PLSurface(new_poset, equations=[eq for _, eq in facets], witnesses=witnesses)


@dataclass(frozen=True)
class PreparedSurface:
    """``verifier.preflight``'s result: the report of its first failing stage, and every star's state.

    ``points[d][i]`` is the interior point of face i of dimension d, for
    d = n-3, n-2, n-1, in homogeneous form (``dehomogenise(*points[d][i])``
    gives its ``Fraction`` coordinates; at n = 3 ``points[0]`` is the
    vertex coordinates), ``projections[i]`` the projection of (n-3)-face
    i's star: a rank-3 integer map whose kernel is the face's direction
    space, the one ``build_fan`` applies, and ``cycles[i]`` that star's
    ``link_cycle``.  They are only meaningful when the report is ok.  A
    report from a stage before the geometry pass comes with empty
    tables, and one from the pass itself with its points and
    projections, where a rejected face may hold None and in vertex mode
    at n >= 4 every projection is None; ``cycles`` is filled only when
    the report is ok.
    """

    report: ValidationReport
    points: dict[int, list[HomPoint | None]] = field(default_factory=dict)
    projections: list[Projection3 | None] = field(default_factory=list)
    cycles: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.ok


def _geometry_pass(surface: PLSurface) -> PreparedSurface:
    """Geometric input validation and per-face geometry in one pass, on a poset ``preflight`` accepted.

    The pass covers every face of dims n-3, n-2, n-1, in that order,
    and reads the poset's tables as ``validate_poset``,
    ``check_closed`` and ``check_connected`` leave them: every listed
    face has its vertex list or upward record, and every id in them is
    in range.  Its numbers are ``_rows(surface)``, the same for a parsed
    surface and a built one; a ``Violation`` there (a vertex-mode
    coordinate record that is lacking, of another length than n or not
    exact numbers, MISSING_COORDS) is the report.  The mode is read
    once, and each mode has its own loop over those faces.  The interior
    point of every face and the projection of every (n-3)-face's star go
    into the per-dimension tables; at n = 3 every projection is the one
    shared identity.

    Vertex mode takes the rows, one of n ints per vertex, as they are;
    they are the vertices' points at n = 3.  Every other face goes
    through ``_face_geometry`` once, whose rank defect becomes a
    DEGENERATE_FACE.  A simplex of dimension d whose first d ids are,
    in that order, the list of a simplex of dimension d - 1 >= 2 passes
    that face's point and basis as its ``prefix``, so only its last row
    is reduced; the simplices of each dimension from 2 up to n-2 are
    kept, by vertex ids, for the rank above, and no other face is.  Once
    the report is ok, at n >= 4, each (n-3)-face's projection is
    ``_echelon_projection`` of its basis.

    Equations mode first checks the facet equations, in facet index
    order: a slot that ``_rows`` filled with a ``Violation``
    (MISSING_EQUATION, or BAD_NORMAL for a value that is no exact
    number), then a normal of another length than n (BAD_NORMAL) or a
    zero normal (ZERO_NORMAL); a parsed surface has every equation, of
    exact numbers.  It then walks once from each face to the facets
    above it.  At n >= 4 those facets' integer normals are reduced in
    facet index order (``_independent``): their rank must be 3, or the
    face is a DEGENERATE_FACE, and the three normals that raised it, as
    they are and not as reduced, are the rows of the (n-3)-face's
    projection, whose kernel is the face's direction space.  The face's
    witness must be there with exact numbers (``_rows``'s BAD_WITNESS),
    be of length n (BAD_WITNESS) and lie on each of those facets, in
    facet index order (BAD_WITNESS), an integer comparison.
    """
    poset = surface.poset
    n, low, top = surface.n, poset.dim_low, poset.dim_top
    dims = (low, poset.dim_mid, top)
    rows = _rows(surface)
    if isinstance(rows, Violation):
        return PreparedSurface(ValidationReport((rows,)))
    degenerate: list[Violation] = []
    points: dict[int, list[HomPoint | None]] = {d: [None] * poset.count(d) for d in dims}
    projections: list[Projection3 | None] = [_IDENTITY3 if n == 3 else None] * poset.count(low)
    if surface.mode == VERTEX_MODE:
        coords = list(rows.vertices)
        if n == 3:  # the (n-3)-faces are the vertices, each its own point
            points[0] = coords
        bases: list[Echelon | None] = [None] * poset.count(low)
        # a simplex's vertex ids -> its point and basis, for the simplices one rank up
        # to resume; only dims 2 and up below the facets keep theirs
        simplices: dict[tuple[int, ...], tuple[HomPoint, Echelon]] = {}
        for d in filter(None, dims):
            lists, table = poset.vertex_ids[d], points[d]
            below, simplices, keep = simplices, {}, 2 <= d < top
            for i in range(len(table)):
                ids = lists[i]
                # every key has d ids, so only a simplex's first ids can match one
                prefix = below.get(tuple(ids[:-1])) if below else None
                table[i], basis, defect = _face_geometry(d, [coords[v] for v in ids], prefix)
                if keep and len(ids) == d + 1:
                    simplices[tuple(ids)] = table[i], basis
                if d == low:
                    bases[i] = basis
                if defect is not None:
                    degenerate.append(Violation("DEGENERATE_FACE", Face(d, i), defect))
        report = ValidationReport(tuple(degenerate))
        if report.ok and n > 3:
            projections = [_echelon_projection(basis, n) for basis in bases]
        return PreparedSurface(report, points, projections)
    bad: list[Violation] = []
    # normal a / w_a and offset b: a . x / w_x == b  <=>  a . x * den(b) == num(b) * w_a * w_x
    equations = []
    for h, eq in enumerate(rows.equations):
        if isinstance(eq, Violation):
            bad.append(eq)
        elif len(eq.normal) != n:
            bad.append(Violation("BAD_NORMAL", Face(top, h), f"normal of length {len(eq.normal)}, not {n}"))
        elif all(c == 0 for c in eq.normal):
            bad.append(Violation("ZERO_NORMAL", Face(top, h), "facet normal is zero"))
        else:
            equations.append((eq.normal, eq.den, eq.num * eq.weight))
    if bad:
        return PreparedSurface(ValidationReport(tuple(bad)))
    for d in dims:
        for i in range(poset.count(d)):
            above = [i]
            for k in range(d, top):
                ups = poset.up_ids[k]
                above = [h for g in above for h in ups[g]]
            above = sorted(set(above))
            if d == low and n > 3:
                normals = [equations[h][0] for h in above]
                picked = _independent(normals)[1]  # the normals that raised the rank
                if len(picked) == 3:
                    a, b, c = picked
                    projections[i] = Projection3((normals[a], normals[b], normals[c]))
                else:
                    defect = "incident facet equations do not determine the face's direction space"
                    degenerate.append(Violation("DEGENERATE_FACE", Face(d, i), defect))
            point = rows.witnesses[d][i]
            if isinstance(point, Violation):
                bad.append(point)
                continue
            points[d][i] = point
            if len(point[0]) != n:
                bad.append(Violation("BAD_WITNESS", Face(d, i), f"witness of length {len(point[0])}, not {n}"))
                continue
            x, weight = point
            for h in above:
                normal, den, rhs = equations[h]
                if dot(normal, x) * den != rhs * weight:
                    bad.append(Violation("BAD_WITNESS", Face(d, i), f"witness not on facet {Face(top, h)}"))
    return PreparedSurface(ValidationReport(tuple(bad + degenerate)), points, projections)
