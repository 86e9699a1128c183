"""Answer key for the benchmark, independent of the star verifier.

The expected verdict of a case comes from three checks that share no
code with ``plconvex.verifier`` or ``plconvex.fan``:

* an affine-rank check on every face of dims n-3..n-1: a warped face
  makes the input INVALID, and the least such face is the witness;
* the supporting-hyperplane oracle (``oracle_verdict``) for the verdict
  kind of every valid instance;
* for n = 3 NOT_CONVEX, a local supporting-plane check whose least
  flagged vertex is the expected witness.

A CONVEX verdict must also report ``entries_checked`` equal to twice
the incidence count, i.e. every star was checked in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import plconvex as pc
from plconvex import CONVEX, INVALID, NOT_CONVEX


@dataclass(frozen=True)
class Expected:
    kind: str
    witness: pc.Face | None = None  # None: any witness is accepted
    reason: str | None = None
    entries: int | None = None


def _sub(u, v):
    return [a - b for a, b in zip(u, v)]


def affine_rank(points) -> int:
    """Rank of the differences from the first point, by Gaussian elimination."""
    rows = [_sub(p, points[0]) for p in points[1:]]
    rank = 0
    width = len(points[0])
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / top[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def warped_faces(surface: pc.PLSurface) -> list[pc.Face]:
    """Faces of dims n-3..n-1 (above 0) whose vertices do not span their dimension."""
    poset, n = surface.poset, surface.n
    out = []
    for d in sorted({n - 3, n - 2, n - 1} - {0}):
        for face in poset.faces(d):
            pts = [surface.vertices[v] for v in poset.vertex_lists[face]]
            if affine_rank(pts) != d:
                out.append(face)
    return out


def _plane(points) -> tuple[list[Fraction], Fraction]:
    """Normal and offset of the plane through the first non-collinear triple."""
    a = points[0]
    for i in range(1, len(points)):
        for j in range(i + 1, len(points)):
            u, v = _sub(points[i], a), _sub(points[j], a)
            normal = [
                u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0],
            ]
            if any(normal):
                return normal, sum(x * y for x, y in zip(normal, a))
    raise ValueError("collinear facet")


def locally_nonconvex_vertices(surface: pc.PLSurface) -> list[int]:
    """n = 3 vertices whose star has a facet plane with local points on both sides.

    A vertex star lies on a convex boundary iff the plane of every
    incident facet has all vertices of the incident facets weakly on one
    side.  Incidence is read from the facets' vertex lists.
    """
    poset = surface.poset
    facets_at: dict[int, list[pc.Face]] = {}
    for h in poset.faces(2):
        for v in poset.vertex_lists[h]:
            facets_at.setdefault(v, []).append(h)
    out = []
    for v in range(poset.count(0)):
        star = facets_at.get(v, [])
        local = sorted({w for h in star for w in poset.vertex_lists[h]})
        for h in star:
            normal, offset = _plane([surface.vertices[w] for w in poset.vertex_lists[h]])
            sides = set()
            for w in local:
                s = sum(x * y for x, y in zip(normal, surface.vertices[w])) - offset
                if s:
                    sides.add(s > 0)
            if len(sides) == 2:
                out.append(v)
                break
    return out


def expected_verdict(geometry: pc.PLSurface, incidences: int) -> Expected:
    warped = warped_faces(geometry)
    if warped:
        return Expected(INVALID, witness=min(warped), reason="DEGENERATE_FACE")
    if pc.oracle_verdict(geometry).convex:
        return Expected(CONVEX, entries=2 * incidences)
    if geometry.n == 3:
        flagged = locally_nonconvex_vertices(geometry)
        if not flagged:
            raise ValueError("oracle says NOT_CONVEX but every vertex star is locally convex")
        return Expected(NOT_CONVEX, witness=pc.Face(0, min(flagged)))
    return Expected(NOT_CONVEX)


def agrees(verdict, expected: Expected) -> bool:
    if verdict.kind != expected.kind:
        return False
    if expected.witness is not None and verdict.witness != expected.witness:
        return False
    if expected.reason is not None and verdict.reason != expected.reason:
        return False
    return expected.entries is None or verdict.entries_checked == expected.entries
