"""Partial face posets of closed PL-surfaces.

Only the ranks the verifier needs are stored: dimensions 0, n-3, n-2 and
n-1 of the ambient dimension n (for n = 3 the ranks 0 and n-3 coincide
and are stored once).  Upward incidences are recorded for the two
consecutive steps (n-3) -> (n-2) and (n-2) -> (n-1); everything else the
algorithm needs is derived from those.

Faces are indices.  Every table is a per-dimension list indexed by face
index: ``up_ids[d][i]`` is the sorted tuple of the indices of the faces
one rank above face i of dimension d, and ``vertex_ids[d][i]`` its
vertex ids (vertex mode, d >= 1).  The producers fill these lists
and the consumers on the hot path (``validate_poset``, ``check_closed``,
``check_connected``, ``link_cycle``, the geometry pass,
``fan.build_fan``) index them, so no ``Face`` is made or hashed per
incidence.  ``Face(dim, index)`` is the label of a reported face: in a
``Violation``, a ``LinkCycleError`` and a verdict's witness.  The read
API ``faces(d)``, ``up(face)`` and ``vertex_lists[face]`` takes and
gives ``Face``s, for callers that read a face at a time.

The poset is immutable after construction, which in vertex mode derives
every incidence and every count above dimension 0 from the vertex lists
(``FacePoset``); all operations here are pure reads.

A hand-built table may be None, hold None, or be shorter or longer than
its face count.  Every reader here takes a None table as one without
records and a None record as no record, and answers instead of raising.
``_per_face`` reads a table as exactly one entry per face, None where a
record is lacking; ``check_closed``, ``check_connected`` and
``surface._rows`` read their tables through it.  ``validate_poset``
reads the tables as they are, since a record past the count is a fault
it reports.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
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


Table = dict[int, list[tuple[int, ...]]]


@dataclass(frozen=True)
class FacePoset:
    """Faces of dims {0, n-3, n-2, n-1} with upward incidences, as per-dimension lists.

    ``faces_per_dim`` maps each stored dimension to its face count; faces
    are addressed by dense indices 0..count-1.  ``up_ids[d][i]``, for d =
    n-3 and n-2, is the sorted tuple of the indices of the faces of
    dimension d+1 that contain face i of dimension d.  ``vertex_ids[d][i]``,
    for d = n-3, n-2, n-1 above 0, is the tuple of vertex ids of face i.

    In vertex mode the lists fix every incidence and every count above
    dimension 0: construction derives them (``_containment``), so a
    hand-built poset is the surface its lists describe.  Only
    ``faces_per_dim[0]`` is the caller's, a ``vertex_ids[0]`` is ignored,
    a None table of lists holds no lists, so its dimension has no faces,
    and an ``up_ids`` or a count passed beside the lists that they do not
    imply is a ValueError.  In equations mode (no lists) the counts are
    kept apart from the tables, so ``validate_poset`` can tell a table
    shorter or longer than its count.
    """

    n: int
    faces_per_dim: dict[int, int]
    up_ids: Table = field(default_factory=dict)
    vertex_ids: Table = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.vertex_ids:
            lists = {d: list(rows or ()) for d, rows in sorted(self.vertex_ids.items())}  # a None table holds no lists
            counts = {0: self.faces_per_dim.get(0, 0), **{d: len(rows) for d, rows in lists.items() if d}}
            up = _containment(self.n, counts[0], lists)
            if self.up_ids and self.up_ids != up or any(c != counts.get(d) for d, c in self.faces_per_dim.items()):
                raise ValueError("upward tables or face counts that the vertex lists do not imply")
            for name, value in (("faces_per_dim", counts), ("up_ids", up), ("vertex_ids", lists)):
                object.__setattr__(self, name, value)

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
        """The faces one rank above ``face``; () for a face without a record, in a None table or a None one."""
        d, i = face
        rows = self.up_ids.get(d) or ()
        if not 0 <= i < len(rows):
            return ()
        return tuple([Face(d + 1, g) for g in rows[i] or ()])

    @cached_property
    def vertex_lists(self) -> Mapping[Face, tuple[int, ...]]:
        """``vertex_ids`` keyed by ``Face``, read-only, built on the first read."""
        return MappingProxyType({Face(d, i): row for d, rows in self.vertex_ids.items() for i, row in enumerate(rows)})

    def required_dims(self, mode: str) -> tuple[int, ...]:
        low = {0, self.n - 3} if mode == "vertices" else {self.n - 3}
        return tuple(sorted(low | {self.n - 2, self.n - 1}))


def _per_face(table, count: int) -> list:
    """Exactly ``count`` entries of a per-face table, one per face index.

    An entry is None where the table holds None, where it ends before
    the count, or everywhere when the table itself is None; entries past
    the count are dropped.
    """
    rows = [] if table is None else list(table[:count])
    rows += [None] * (count - len(rows))
    return rows


def _containment(n: int, n_vertices: int, lists: Table) -> Table:
    """The upward tables that vertex lists imply, by vertex mode's one incidence rule.

    A vertex lies in every edge listing it (n = 3), and any other face in
    every face one rank up whose vertex set contains its own; a list is
    read as its set.  A None or empty list, which ``validate_poset``
    reports, has no incidences.  Every coface of a face is indexed at each
    of its vertices, so scanning the shortest of those lists finds them all.
    """
    sets = {d: [frozenset(vs or ()) for vs in rows] for d, rows in lists.items() if d}  # each list's set, once
    up: Table = {}
    for d in (n - 3, n - 2):
        upper = sets.get(d + 1, [])
        cofaces_at: dict[int, list[int]] = {}
        for i, vs in enumerate(upper):
            for v in vs:
                cofaces_at.setdefault(v, []).append(i)
        # candidate lists are in index order, so each tuple comes out sorted
        if d == 0:  # n = 3: a vertex lies in every edge listed at it
            up[0] = [tuple(cofaces_at.get(v, ())) for v in range(n_vertices)]
            continue
        rows = up[d] = []
        for vs, mine in zip(lists.get(d, ()), sets.get(d, ())):
            if not vs:
                rows.append(())
                continue
            cands = cofaces_at.get(vs[0], ())
            for v in vs[1:]:
                other = cofaces_at.get(v, ())
                if len(other) < len(cands):
                    cands = other
            rows.append(tuple([i for i in cands if mine <= upper[i]]))
    return up


def validate_poset(poset: FacePoset, mode: str) -> ValidationReport:
    """Structural validation: ranks present, and each mode's records present and in range.

    ``mode`` is the surface's geometry mode (``PLSurface.mode``).  No
    coordinate is read.  In vertex mode the lists above dimension 0 must
    be present, nonempty and in range; the incidences are what
    construction derived from them, so none is checked.  In equations
    mode a None record, and every record of a None table, is missing,
    an upward table shorter than its count misses the records of its
    last faces, a longer one holds records of faces out of range, and a
    table of another dimension than n-3 or n-2 is recorded at an
    unexpected rank.  A ``Face`` is made only for a violation.
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

    if mode == "vertices":
        n_verts = poset.count(0)
        for d in sorted({n - 3, n - 2, n - 1} - {0}):
            count, rows = poset.count(d), poset.vertex_ids.get(d, [])
            # one bulk test clears a table whose lists are all there, nonempty and in range
            if len(rows) == count and all(rows):
                ids = list(chain.from_iterable(rows))
                if not ids or min(ids) >= 0 and max(ids) < n_verts:
                    continue
            for i in range(count):
                verts = rows[i] if rows else None
                if not verts:  # absent or empty
                    bad.append(Violation("MISSING_VERTEX_LIST", Face(d, i), "no vertex list"))
                elif min(verts) < 0 or max(verts) >= n_verts:
                    bad.append(Violation("INVALID_ID", Face(d, i), "vertex index out of range"))
        return ValidationReport(tuple(bad))

    counts, up = poset.faces_per_dim, poset.up_ids
    for d, rows in up.items():
        rows = rows or ()  # a None table holds no records
        if d != n - 3 and d != n - 2:
            bad += [Violation("INVALID_ID", Face(d, i), "incidences recorded at unexpected rank") for i in range(len(rows))]
            continue
        n_here, n_above = counts.get(d, 0), counts.get(d + 1, 0)
        for i, ups in enumerate(rows):
            if i >= n_here:
                bad.append(Violation("INVALID_ID", Face(d, i), "face index out of range"))
                continue
            if ups is None:
                bad.append(Violation("INVALID_ID", Face(d, i), "missing upward incidence record"))
                continue
            if len(set(ups)) != len(ups):
                bad.append(Violation("INVALID_ID", Face(d, i), "duplicate upward reference"))
            for g in ups:
                if not 0 <= g < n_above:
                    bad.append(Violation("INVALID_ID", Face(d, i), f"bad upward reference {Face(d + 1, g)}"))

    for d in (n - 3, n - 2):
        missing = range(len(up.get(d) or ()), counts.get(d, 0))
        bad += [Violation("INVALID_ID", Face(d, i), "missing upward incidence record") for i in missing]
    return ValidationReport(tuple(bad))


def check_closed(poset: FacePoset) -> ValidationReport:
    """Every (n-2)-face must lie in exactly two facets; a face without a record, or with a None one, lies in none."""
    mid = poset.dim_mid
    facets = [len(ups or ()) for ups in _per_face(poset.up_ids.get(mid), poset.count(mid))]
    bad = [Violation("NOT_CLOSED", Face(mid, i), f"(n-2)-face lies in {k} facets") for i, k in enumerate(facets) if k != 2]
    return ValidationReport(tuple(bad))


def check_connected(poset: FacePoset) -> ValidationReport:
    """The facet adjacency graph (edges = shared (n-2)-faces) must be connected.

    Always returns a report, on any poset: a reference outside facets
    0..count-1 is not a facet and a None record names none, so neither
    joins anything (``validate_poset`` reports both as INVALID_ID).
    """
    total = poset.count(poset.dim_top)
    if total == 0:
        return ValidationReport((Violation("NOT_CONNECTED", None, "no facets"),))
    mid = poset.dim_mid
    facets = range(total)
    neighbors: list[list[int]] = [[] for _ in facets]
    for ups in _per_face(poset.up_ids.get(mid), poset.count(mid)):
        if ups and len(ups) == 2:
            a, b = ups
            if a in facets and b in facets:
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


def link_cycle(poset: FacePoset, center: Face) -> tuple[int, ...]:
    """Walk the faces incident to an (n-3)-face into their unique cycle.

    Returns the alternating cyclic sequence of face indices g1, h1, ...,
    gk, hk: the g's (even positions) are the incident (n-2)-faces, the
    h's (odd positions) the incident facets; consecutive entries are
    incident and h_i contains exactly g_i and g_{i+1} among the g's.
    The start and orientation are normalised: g1 is the incident
    (n-2)-face of least index and h1 the facet of least index
    containing g1.

    Raises ValueError when ``center`` is not an (n-3)-face, and
    LinkCycleError (the input is not a closed manifold near ``center``)
    when a face has the wrong local valence or the walk closes before
    meeting all k incident (n-2)-faces; an index outside the records,
    a None table and a None record name no face.  The valence checks
    make each step a bijection on (g, h) incidences, so the walk needs
    no step bound.
    """
    d, c = center
    low = poset.n - 3
    if d != low:
        raise ValueError(f"{center} is not an (n-3)-face")
    below, above = poset.up_ids.get(low) or (), poset.up_ids.get(low + 1) or ()
    mid_faces = (below[c] or ()) if 0 <= c < len(below) else ()
    k = len(mid_faces)
    if k < 2:
        raise LinkCycleError(center, "fewer than two (n-2)-faces at center")
    n_above = len(above)
    rim: dict[int, list[int]] = {}
    for g in mid_faces:
        ups = (above[g] or ()) if 0 <= g < n_above else ()
        if len(ups) != 2:
            raise LinkCycleError(center, f"{Face(low + 1, g)} lies in {len(ups)} facets")
        for h in ups:
            rim.setdefault(h, []).append(g)
    for h, gs in rim.items():
        if len(gs) != 2:
            raise LinkCycleError(center, f"{Face(low + 2, h)} touches {len(gs)} incident (n-2)-faces")

    # every g has two cells and every h two g's: the walk follows one cycle
    # of that graph and meets no face twice before it is back at the start
    start = min(mid_faces)
    g, h = start, min(above[start])
    entries: list[int] = []
    while True:
        entries.append(g)
        entries.append(h)
        a, b = rim[h]
        g = b if a == g else a
        if g == start:
            break
        a, b = above[g]
        h = b if a == h else a
    if len(entries) != 2 * k:
        raise LinkCycleError(center, "walk closed before exhausting the star")
    return tuple(entries)
