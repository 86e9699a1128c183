"""Generators for convex and non-convex test surfaces.

All coordinates are exact rationals; the generators emit only the face
ranks the verifier consumes (dims 0, n-3, n-2, n-1).  Circle-like
shapes use the tangent half-angle parametrization
t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)), which keeps points exactly on the
unit circle with small denominators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .exactgeom import Vec, as_vec, dot, homogeneous
from .poset import FacePoset
from .surface import PLSurface, _require_records

F0 = Fraction(0)
F1 = Fraction(1)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vmean(points: Sequence[Vec]) -> Vec:
    inv = Fraction(1, len(points))
    acc = points[0]
    for p in points[1:]:
        acc = vadd(acc, p)
    return vscale(inv, acc)


@dataclass(frozen=True)
class GenSpec:
    """Config for a generated instance; deterministic given (family, params)."""

    family: str
    params: dict = field(default_factory=dict)


def surface_from_polygons(coords: list[Vec], polygons: list[list[int]]) -> PLSurface:
    """Assemble an n=3 vertex-mode surface from facet vertex cycles.

    Edges are the consecutive vertex pairs of each cycle, deduplicated
    and numbered in sorted order; incidences come from vertex
    containment (``FacePoset`` derives them), like those of a parsed document.
    """
    edges = sorted(
        {(min(a, b), max(a, b)) for cyc in polygons for a, b in zip(cyc, cyc[1:] + cyc[:1])}
    )
    facets = [tuple(sorted(set(cyc))) for cyc in polygons]
    return PLSurface(FacePoset(3, {0: len(coords)}, vertex_ids={1: edges, 2: facets}), vertices=tuple(coords))


def gen_hypercube(n: int) -> PLSurface:
    """Boundary of the unit n-cube; a k-face fixes n-k coordinates."""
    if n < 3:
        raise ValueError("need n >= 3")
    coords = [as_vec([(v >> j) & 1 for j in range(n)]) for v in range(2**n)]

    def spread(bits, axes):
        return sum(((bits >> t) & 1) << j for t, j in enumerate(axes))

    lists = {}
    for k in {n - 3, n - 2, n - 1} - {0}:
        lists[k] = []
        for free in combinations(range(n), k):
            fixed = [j for j in range(n) if j not in free]
            for bits in range(2 ** len(fixed)):
                base = spread(bits, fixed)
                # spreading bits over the free axes keeps their order, so the tuple is sorted
                lists[k].append(tuple(base + spread(b, free) for b in range(2**k)))
    return PLSurface(FacePoset(n, {0: len(coords)}, vertex_ids=lists), vertices=tuple(coords))


def gen_cross_polytope(n: int) -> PLSurface:
    """Boundary of conv(+-e_i); faces are sign-consistent simplices."""
    if n < 3:
        raise ValueError("need n >= 3")
    coords = []
    for i in range(n):
        for s in (F1, -F1):
            coords.append(tuple(s if j == i else F0 for j in range(n)))
    # vertex 2i is +e_i, vertex 2i+1 is -e_i
    lists = {
        k: [
            tuple(2 * c + s for c, s in zip(supp, signs))
            for supp in combinations(range(n), k + 1)
            for signs in product((0, 1), repeat=k + 1)
        ]
        for k in {n - 3, n - 2, n - 1} - {0}
    }
    return PLSurface(FacePoset(n, {0: len(coords)}, vertex_ids=lists), vertices=tuple(coords))


def gen_simplex(n: int) -> PLSurface:
    """Boundary of conv(0, e_1, ..., e_n); every proper vertex subset is a face."""
    if n < 3:
        raise ValueError("need n >= 3")
    coords = [tuple(F0 for _ in range(n))]
    for i in range(n):
        coords.append(tuple(F1 if j == i else F0 for j in range(n)))
    lists = {k: list(combinations(range(n + 1), k + 1)) for k in {n - 3, n - 2, n - 1} - {0}}
    return PLSurface(FacePoset(n, {0: len(coords)}, vertex_ids=lists), vertices=tuple(coords))


def circle_points(m: int) -> list[tuple[Fraction, Fraction]]:
    """m distinct rational points on the unit circle in increasing angular order."""
    pts = []
    for i in range(m):
        # t = a/m in the half-angle map, over the common denominator m^2 + a^2
        a = 2 * i - (m - 1)
        den = m * m + a * a
        pts.append((Fraction(m * m - a * a, den), Fraction(2 * a * m, den)))
    return pts


def gen_prism(m: int) -> PLSurface:
    """Prism over a convex m-gon inscribed in the unit circle, height 1."""
    if m < 3:
        raise ValueError("need m >= 3")
    base = circle_points(m)
    coords = [(x, y, F0) for x, y in base] + [(x, y, F1) for x, y in base]
    polygons = [list(range(m)), list(range(m, 2 * m))]
    for i in range(m):
        j = (i + 1) % m
        polygons.append([i, j, m + j, m + i])
    return surface_from_polygons(coords, polygons)


def gen_schonhardt() -> PLSurface:
    """Twisted triangular prism with the side quads split into triangles.

    The twist makes the three splitting diagonals reflex, so the surface
    is closed, connected, simplicial and not convex.
    """
    bottom2 = [
        (F1, F0),
        (Fraction(-3, 5), Fraction(4, 5)),
        (Fraction(-3, 5), Fraction(-4, 5)),
    ]
    c, s = Fraction(4, 5), Fraction(3, 5)  # rational rotation, about 37 degrees
    top2 = [(c * x - s * y, s * x + c * y) for x, y in bottom2]
    coords = [(x, y, F0) for x, y in bottom2] + [(x, y, F1) for x, y in top2]
    polygons: list[list[int]] = [[0, 1, 2], [3, 4, 5]]
    for i in range(3):
        j = (i + 1) % 3
        # quad (b_i, b_j, t_j, t_i) split along the diagonal b_i - t_j,
        # which the twist folds inward
        polygons.append([i, j, 3 + j])
        polygons.append([i, 3 + j, 3 + i])
    return surface_from_polygons(coords, polygons)


def _cube_polygons() -> tuple[list[Vec], list[list[int]]]:
    coords = [as_vec([(v >> j) & 1 for j in range(3)]) for v in range(8)]
    polygons = [
        [4, 5, 7, 6],  # z = 1 (listed first so a single dent hits the top)
        [0, 1, 3, 2],  # z = 0
        [0, 1, 5, 4],  # y = 0
        [2, 3, 7, 6],  # y = 1
        [0, 2, 6, 4],  # x = 0
        [1, 3, 7, 5],  # x = 1
    ]
    return coords, polygons


def gen_dented_cube(dents: int = 1) -> PLSurface:
    """Unit cube with ``dents`` facets each replaced by four triangles
    meeting at an apex pulled halfway toward the body center.

    With one dent the apex sits at (1/2, 1/2, 3/4).  All faces stay
    planar, so the surface is a valid realization that fails convexity.
    """
    if not 1 <= dents <= 6:
        raise ValueError("dents must be between 1 and 6")
    coords, polygons = _cube_polygons()
    center = as_vec([Fraction(1, 2)] * 3)
    kept = polygons[dents:]
    out = list(kept)
    for cyc in polygons[:dents]:
        centroid = vmean([coords[v] for v in cyc])
        apex = vadd(centroid, vscale(Fraction(1, 2), vsub(center, centroid)))
        apex_id = len(coords)
        coords.append(apex)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            out.append([a, b, apex_id])
    return surface_from_polygons(coords, out)


def split_facet_cube(diagonal: bool = False) -> PLSurface:
    """Unit cube with the top facet subdivided while staying flat.

    ``diagonal=False`` splits the top square into two coplanar rectangles
    through two new mid-edge vertices (whose stars are wedges);
    ``diagonal=True`` splits it into two coplanar triangles along a
    diagonal (the diagonal's endpoints get a flat turn in their stars).
    Either way the surface bounds the same convex cube.
    """
    coords, _ = _cube_polygons()
    if diagonal:
        polygons = [
            [0, 1, 3, 2],
            [0, 1, 5, 4],
            [2, 3, 7, 6],
            [0, 2, 6, 4],
            [1, 3, 7, 5],
            [4, 5, 7],
            [4, 7, 6],
        ]
        return surface_from_polygons(coords, polygons)
    half = Fraction(1, 2)
    coords = coords + [(half, F0, F1), (half, F1, F1)]  # ids 8, 9
    polygons = [
        [0, 1, 3, 2],
        [0, 1, 5, 8, 4],  # y = 0 pentagon, one straight vertex at 8
        [2, 3, 7, 9, 6],  # y = 1 pentagon
        [0, 2, 6, 4],
        [1, 3, 7, 5],
        [4, 8, 9, 6],  # top, x <= 1/2
        [8, 5, 7, 9],  # top, x >= 1/2
    ]
    return surface_from_polygons(coords, polygons)


def dent(surface: PLSurface, vertex_index: int, t: Fraction) -> PLSurface:
    """Move one vertex toward the centroid of all vertices by factor t.

    Combinatorics are untouched; whether the result is still a valid
    realization (faces must stay flat) is the verifier's preflight's
    business.
    """
    if surface.mode != "vertices":
        raise ValueError("dent needs vertex coordinates")
    if not 0 <= vertex_index < len(surface.vertices):
        # as validate_poset's INVALID_ID: a negative index names no vertex, not one from the end
        raise ValueError(f"vertex index {vertex_index} outside 0..{len(surface.vertices) - 1}")
    t = Fraction(t)
    centroid = vmean(list(surface.vertices))
    v = surface.vertices[vertex_index]
    moved = vsub(v, vscale(t, vsub(v, centroid)))
    verts = list(surface.vertices)
    verts[vertex_index] = moved
    return PLSurface(surface.poset, vertices=tuple(verts))


def rigid_motion(surface: PLSurface, seed: int) -> PLSurface:
    """Apply a seeded rational motion: unit shears (det 1) plus a translation.

    Seed 0 is the identity.  Shear coefficients come from a small set so
    coordinate denominators stay bounded.  The shear rows and the shift
    are put over one common denominator q once and each vertex is
    converted once to integers nums / w, so every coordinate is one
    ``Fraction(row . nums + shift * w, q * w)``.
    """
    if surface.mode != "vertices":
        raise ValueError("rigid_motion needs vertex coordinates")
    if seed == 0:
        return surface
    rng = random.Random(seed)
    n = surface.n
    rows = [[F1 if i == j else F0 for j in range(n)] for i in range(n)]
    for _ in range(3):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        coef = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
        rows[i] = [a + coef * b for a, b in zip(rows[i], rows[j])]
    shift = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(n)]
    nums, q = homogeneous([x for r in rows for x in r] + shift)
    motion = [(nums[i * n : (i + 1) * n], nums[n * n + i]) for i in range(n)]
    verts = []
    for v in surface.vertices:
        x, w = homogeneous(v)
        qw = q * w
        verts.append(tuple([Fraction(dot(r, x) + t * w, qw) for r, t in motion]))
    return PLSurface(surface.poset, vertices=tuple(verts))


def scale(surface: PLSurface, factor: Fraction) -> PLSurface:
    """Uniformly scale all coordinates by a positive rational."""
    if surface.mode != "vertices":
        raise ValueError("scale needs vertex coordinates")
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("factor must be positive")
    verts = tuple(vscale(factor, v) for v in surface.vertices)
    return PLSurface(surface.poset, vertices=verts)


def relabel(surface: PLSurface, seed: int) -> PLSurface:
    """Permute face indices within every rank (a pure renaming; in vertex mode, of the lists).

    ValueError, as in ``emit_pls``, for the first violation ``verify``
    reports among the records it moves (``surface._require_records``):
    a lacking or extra record, a vertex id or upward reference outside
    0..count-1, which names no face (-1 is not the last one), or a value
    that is no exact number.  A vertex list of dimension 0, which the
    poset ignores, is dropped, and so are witness and equation rows past
    the count and a witness table of a dimension other than n-3, n-2,
    n-1, as ``verify`` does.
    """
    _require_records(surface)
    rng = random.Random(seed)
    poset = surface.poset
    perms = {d: rng.sample(range(c), c) for d, c in poset.faces_per_dim.items()}
    p0 = perms.get(0, [])

    def moved(d: int, rows: Sequence, inner: list[int] | None = None) -> list:
        """Row i of dimension d moved to index perms[d][i]; with ``inner``, a tuple of ids renamed by it."""
        perm, new = perms[d], [None] * len(rows)
        for i, row in enumerate(rows):
            new[perm[i]] = row if inner is None else tuple(sorted([inner[g] for g in row]))
        return new

    new_poset = FacePoset(
        n=poset.n,
        faces_per_dim=dict(poset.faces_per_dim),
        up_ids={} if poset.vertex_ids else {d: moved(d, rows, perms[d + 1]) for d, rows in poset.up_ids.items()},
        vertex_ids={d: moved(d, rows, p0) for d, rows in poset.vertex_ids.items() if d},
    )
    if surface.mode == "vertices":
        return PLSurface(new_poset, vertices=tuple(moved(0, surface.vertices)))
    dims = (poset.dim_low, poset.dim_mid, poset.dim_top)
    witnesses = {d: moved(d, rows[: poset.count(d)]) for d, rows in surface.witnesses.items() if d in dims}
    return PLSurface(new_poset, equations=moved(poset.dim_top, surface.equations[: poset.count(poset.dim_top)]), witnesses=witnesses)


# each standalone family's generator, whose parameters are the family's
_FAMILIES = {
    "hypercube": gen_hypercube,
    "cross_polytope": gen_cross_polytope,
    "simplex": gen_simplex,
    "prism": gen_prism,
    "schonhardt": gen_schonhardt,
    "dented": gen_dented_cube,
}


def build_instance(spec: GenSpec) -> PLSurface:
    """Materialize a GenSpec (the standalone families): the family's generator called with ``spec.params``.

    An unknown family is a ValueError, a missing or extra parameter a TypeError.
    """
    if spec.family not in _FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    return _FAMILIES[spec.family](**spec.params)
