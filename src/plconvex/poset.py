"""Partial face posets of closed PL-surfaces.

Only the ranks the verifier needs are stored: dimensions 0, n-3, n-2 and
n-1 of the ambient dimension n (for n = 3 the ranks 0 and n-3 coincide
and are stored once).  Upward incidences are recorded for the two
consecutive steps (n-3) -> (n-2) and (n-2) -> (n-1); everything else the
algorithm needs is derived from those.

The poset is immutable after construction; all operations here are pure
reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple


class Face(NamedTuple):
    dim: int
    index: int


class Violation(NamedTuple):
    code: str
    face: Face | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class LinkCycleError(Exception):
    """The faces around an (n-3)-face do not close into a single cycle."""

    code = "NOT_SINGLE_CYCLE"

    def __init__(self, face: Face, message: str = ""):
        super().__init__(message or f"link of {face} is not a single cycle")
        self.face = face


@dataclass(frozen=True)
class FacePoset:
    """Faces of dims {0, n-3, n-2, n-1} with upward incidences.

    ``faces_per_dim`` maps each stored dimension to its face count; faces
    are addressed as ``Face(dim, index)`` with dense indices.
    ``incidence_up`` maps every (n-3)- and (n-2)-face to the sorted tuple
    of faces one rank higher.  ``vertex_lists`` maps faces of dims n-3,
    n-2, n-1 to sorted tuples of 0-face indices; it is empty when the
    geometry is given by facet equations instead of vertex coordinates.
    """

    n: int
    faces_per_dim: dict[int, int]
    incidence_up: dict[Face, tuple[Face, ...]]
    vertex_lists: dict[Face, tuple[int, ...]] = field(default_factory=dict)

    @property
    def dim_low(self) -> int:
        return self.n - 3

    @property
    def dim_mid(self) -> int:
        return self.n - 2

    @property
    def dim_top(self) -> int:
        return self.n - 1

    def count(self, dim: int) -> int:
        return self.faces_per_dim.get(dim, 0)

    def faces(self, dim: int) -> Iterator[Face]:
        for i in range(self.count(dim)):
            yield Face(dim, i)

    def up(self, face: Face) -> tuple[Face, ...]:
        return self.incidence_up.get(face, ())

    def required_dims(self, mode: str) -> tuple[int, ...]:
        low = {0, self.n - 3} if mode == "vertices" else {self.n - 3}
        return tuple(sorted(low | {self.n - 2, self.n - 1}))


def vertex_poset(n: int, n_vertices: int, lists: dict[int, list[tuple[int, ...]]]) -> FacePoset:
    """The face poset of a vertex-mode surface, derived from vertex lists.

    ``lists`` maps each stored dimension above 0 to its faces' sorted
    vertex tuples in index order (for n = 3 the vertices are the
    (n-3)-faces and get the lists ``(i,)`` here).  A face lies in every
    face one rank up whose vertex set contains its own; that rule is
    the only source of upward incidences in vertex mode.  Every coface
    of a face is indexed at each of the face's vertices, so scanning the
    shortest of those coface lists finds them all.
    """
    if n == 3:
        lists = {0: [(i,) for i in range(n_vertices)], **lists}
    counts = {0: n_vertices}
    faces: dict[int, list[Face]] = {}
    vertex_lists: dict[Face, tuple[int, ...]] = {}
    for d in sorted(lists):
        counts[d] = len(lists[d])
        faces[d] = [Face(d, i) for i in range(counts[d])]
        vertex_lists.update(zip(faces[d], lists[d]))
    up: dict[Face, tuple[Face, ...]] = {}
    for d in (n - 3, n - 2):
        upper = lists[d + 1]
        upper_sets = [frozenset(vs) for vs in upper]
        cofaces_at: dict[int, list[int]] = {}
        for i, vs in enumerate(upper):
            for v in vs:
                cofaces_at.setdefault(v, []).append(i)
        for f, vs in zip(faces[d], lists[d]):
            cands = cofaces_at.get(vs[0], ())
            for v in vs[1:]:
                other = cofaces_at.get(v, ())
                if len(other) < len(cands):
                    cands = other
            mine = frozenset(vs)
            # candidate lists are in index order, so each tuple comes out sorted
            up[f] = tuple(faces[d + 1][i] for i in cands if mine <= upper_sets[i])
    return FacePoset(n=n, faces_per_dim=counts, incidence_up=up, vertex_lists=vertex_lists)


def validate_poset(poset: FacePoset, mode: str) -> ValidationReport:
    """Structural validation: ranks present, references in range, lists nested.

    ``mode`` is the surface's geometry mode (``PLSurface.mode``); vertex
    lists are required and checked only in vertex mode.  Does not look
    at coordinates; geometric checks live with the surface.
    """
    bad: list[Violation] = []
    n = poset.n
    if n < 3:
        return ValidationReport((Violation("MISSING_RANK", None, f"ambient dimension {n} < 3"),))

    required = set(poset.required_dims(mode))
    for d in sorted(required):
        if poset.count(d) <= 0:
            bad.append(Violation("MISSING_RANK", None, f"no faces of dimension {d}"))
    for d in poset.faces_per_dim:
        if d not in required and d != 0:
            bad.append(Violation("EXTRA_RANK", None, f"unexpected rank of dimension {d}"))

    # look faces up by (dim, index) tuples, hash-equal to Faces; make a Face only for a violation
    counts, up = poset.faces_per_dim, poset.incidence_up
    for face, ups in up.items():
        d, i = face
        if d != n - 3 and d != n - 2:
            bad.append(Violation("INVALID_ID", face, "incidences recorded at unexpected rank"))
            continue
        if not 0 <= i < counts.get(d, 0):
            bad.append(Violation("INVALID_ID", face, "face index out of range"))
            continue
        if len(set(ups)) != len(ups):
            bad.append(Violation("INVALID_ID", face, "duplicate upward reference"))
        above, n_above = d + 1, counts.get(d + 1, 0)
        for g in ups:
            gd, gi = g
            if gd != above or not 0 <= gi < n_above:
                bad.append(Violation("INVALID_ID", face, f"bad upward reference {g}"))

    for d in (n - 3, n - 2):
        missing = [i for i in range(counts.get(d, 0)) if (d, i) not in up]
        bad += [Violation("INVALID_ID", Face(d, i), "missing upward incidence record") for i in missing]

    if mode == "vertices":
        n_verts = poset.count(0)
        vertex_lists = poset.vertex_lists
        for d in sorted({n - 3, n - 2, n - 1}):
            for i in range(counts.get(d, 0)):
                verts = vertex_lists.get((d, i))
                if not verts:  # absent or empty
                    bad.append(Violation("MISSING_VERTEX_LIST", Face(d, i), "no vertex list"))
                elif min(verts) < 0 or max(verts) >= n_verts:
                    bad.append(Violation("INVALID_ID", Face(d, i), "vertex index out of range"))
        # each upper face's set is built once, not once per incidence, so the
        # loop stays linear in facet size; an absent or empty list on either
        # side is reported above as MISSING_VERTEX_LIST
        upper_sets: dict[Face, set[int]] = {}
        for face, ups in up.items():
            mine = vertex_lists.get(face)
            if not mine:
                continue
            for g in ups:
                theirs = upper_sets.get(g)
                if theirs is None:
                    theirs = upper_sets[g] = set(vertex_lists.get(g, ()))
                if theirs and not theirs.issuperset(mine):
                    bad.append(Violation("VERTEX_NOT_CONTAINED", face, f"vertices not contained in {g}"))
    return ValidationReport(tuple(bad))


def check_closed(poset: FacePoset) -> ValidationReport:
    """Every (n-2)-face must lie in exactly two facets."""
    up, mid = poset.incidence_up, poset.dim_mid
    facets = [len(up.get((mid, i), ())) for i in range(poset.count(mid))]
    bad = [Violation("NOT_CLOSED", Face(mid, i), f"(n-2)-face lies in {k} facets") for i, k in enumerate(facets) if k != 2]
    return ValidationReport(tuple(bad))


def check_connected(poset: FacePoset) -> ValidationReport:
    """The facet adjacency graph (edges = shared (n-2)-faces) must be connected.

    Always returns a report, on any poset: a reference outside facets
    0..count-1 is not a facet and joins nothing (``validate_poset``
    reports it as INVALID_ID).
    """
    total = poset.count(poset.dim_top)
    if total == 0:
        return ValidationReport((Violation("NOT_CONNECTED", None, "no facets"),))
    up, mid = poset.incidence_up, poset.dim_mid
    neighbors: dict[int, list[int]] = {i: [] for i in range(total)}
    for i in range(poset.count(mid)):
        ups = up.get((mid, i), ())
        if len(ups) == 2:
            (_, a), (_, b) = ups
            if 0 <= a < total and 0 <= b < total:
                neighbors[a].append(b)
                neighbors[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for j in neighbors[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != total:
        return ValidationReport(
            (Violation("NOT_CONNECTED", None, f"{total - len(seen)} facets unreachable"),)
        )
    return ValidationReport()


def link_cycle(poset: FacePoset, center: Face) -> tuple[Face, ...]:
    """Walk the faces incident to an (n-3)-face into their unique cycle.

    Returns the alternating cyclic sequence G1, H1, ..., Gk, Hk: the G's
    are the incident (n-2)-faces, the H's the incident facets;
    consecutive entries are incident and H_i contains exactly G_i and
    G_{i+1} among the G's.  The start and orientation are normalised:
    G1 is the incident (n-2)-face of least index and H1 the facet of
    least index containing G1.

    Raises LinkCycleError when the walk closes early, a face has the
    wrong local valence, or faces are left over; any of those means the
    input is not a closed manifold near ``center``.
    """
    if center.dim != poset.dim_low:
        raise ValueError(f"{center} is not an (n-3)-face")
    up = poset.incidence_up
    mid_faces = up.get(center, ())
    if len(mid_faces) < 2:
        raise LinkCycleError(center, "fewer than two (n-2)-faces at center")
    cells_of: dict[Face, tuple[Face, ...]] = {}
    rim: dict[Face, list[Face]] = {}
    for g in mid_faces:
        ups = up.get(g, ())
        if len(ups) != 2:
            raise LinkCycleError(center, f"{g} lies in {len(ups)} facets")
        cells_of[g] = ups
        for h in ups:
            rim.setdefault(h, []).append(g)
    for h, gs in rim.items():
        if len(gs) != 2:
            raise LinkCycleError(center, f"{h} touches {len(gs)} incident (n-2)-faces")

    start = min(mid_faces)
    first_cell = min(cells_of[start])
    entries: list[Face] = []
    g, h = start, first_cell
    while True:
        entries.append(g)
        entries.append(h)
        a, b = rim[h]
        g = b if a == g else a
        if g == start:
            break
        a, b = cells_of[g]
        h = b if a == h else a
        if len(entries) > 2 * len(mid_faces):
            raise LinkCycleError(center, "walk does not close")
    if len(entries) != 2 * len(mid_faces) or len(set(entries)) != len(entries):
        raise LinkCycleError(center, "walk closed before exhausting the star")
    return tuple(entries)
