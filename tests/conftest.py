"""Shared fixtures and independent mini-oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import plconvex as pc
from plconvex.exactgeom import DegenerateFaceError, Projection3, cross3, dehomogenise, dot, homogeneous, nullspace
from plconvex.instances import circle_points, vmean, vsub
from plconvex.poset import Face, FacePoset, LinkCycleError
from plconvex.surface import FacetEquation, _face_geometry


@pytest.fixture
def cube():
    return pc.gen_hypercube(3)


@pytest.fixture
def tesseract():
    return pc.gen_hypercube(4)


@pytest.fixture
def octahedron():
    return pc.gen_cross_polytope(3)


@pytest.fixture
def schonhardt():
    return pc.gen_schonhardt()


def rank(rows) -> int:
    """Rank of exact rows, through the package's one elimination: the width less the nullity."""
    width = len(rows[0]) if rows else 0
    return width - len(nullspace(rows, width))


def float_winding(edges) -> float:
    """Independent winding computation: principal-value angle summation."""
    angles = [math.atan2(float(e[1]), float(e[0])) for e in edges]
    total = 0.0
    m = len(angles)
    for i in range(m):
        d = angles[(i + 1) % m] - angles[i]
        while d <= -math.pi:
            d += 2 * math.pi
        while d > math.pi:
            d -= 2 * math.pi
        total += d
    return total / (2 * math.pi)


class OppositeDirectionsError(Exception):
    """Consecutive directions are antiparallel; the half-turn has no sign."""


def _lower_half(u) -> bool:
    # angle in [-pi, 0): strictly below the x-axis, or on the negative x-axis
    return u[1] < 0 or (u[1] == 0 and u[0] < 0)


def rotation_index(directions) -> int:
    """Exact reference winding number of a cyclic sequence of nonzero plane directions.

    Each step follows the short arc between consecutive directions; the
    result counts signed crossings of the positive x half-axis, which is
    exact and equals the total turning divided by a full turn.  Raises
    OppositeDirectionsError on an antiparallel consecutive pair (the
    half-turn's sign would be undefined).
    """
    m = len(directions)
    total = 0
    for i in range(m):
        u = directions[i]
        v = directions[(i + 1) % m]
        c = u[0] * v[1] - u[1] * v[0]
        if c == 0:
            if u[0] * v[0] + u[1] * v[1] < 0:
                raise OppositeDirectionsError(f"entries {i} and {(i + 1) % m}")
            continue
        if _lower_half(u) and not _lower_half(v) and c > 0:
            total += 1
        elif not _lower_half(u) and _lower_half(v) and c < 0:
            total -= 1
    return total


def int_fan(dirs) -> pc.Fan3:
    """A ``Fan3`` of ``dirs``, each direction scaled to ``int``s on its own by ``homogeneous``.

    Rays at the even positions, cells at the odd ones, as ever.  An
    all-``int`` direction is kept as it is, so ``int_fan(fan.dirs)``
    equals ``fan``.
    """
    return pc.Fan3(tuple(homogeneous(d)[0] for d in dirs))


def orthogonal_frame(axis, vecs) -> list[tuple[int, int]]:
    """Reference for ``fan._plane_frame``: the coordinates (v . b2, -v . b1) of each v.

    b1 is the first nonzero of (-a1, a0, 0), (-a2, 0, a0), (0, -a2, a1)
    and b2 = axis x b1, so b1, b2 and ``axis`` are orthogonal.  Like
    ``_plane_frame`` it is linear with kernel span(axis), so the two
    differ by one linear bijection of the plane.
    """
    b1 = next(c for c in ((-axis[1], axis[0], 0), (-axis[2], 0, axis[0]), (0, -axis[2], axis[1])) if any(c))
    b2 = cross3(axis, b1)
    return [(dot(v, b2), -dot(v, b1)) for v in vecs]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _orient3d(a, b, c, d) -> int:
    """Sign of the determinant |b-a, c-a, d-a| (side of d w.r.t. plane abc)."""
    return _sign(dot(cross3(vsub(b, a), vsub(c, a)), vsub(d, a)))


def reflex_adjacent_vertices(surface) -> set[int]:
    """Vertices touching a solid-reflex edge, for star-shaped n=3 surfaces.

    An edge between facets T1 and T2 counts as reflex when T2's off-edge
    vertex lies strictly on the opposite side of aff(T1) from the vertex
    centroid.  Uses only oracle-style global predicates, never the fan
    machinery.
    """
    poset = surface.poset
    assert surface.n == 3
    centroid = vmean(list(surface.vertices))
    out: set[int] = set()
    for e in poset.faces(1):
        h1, h2 = poset.up(e)
        tri = [surface.vertices[i] for i in poset.vertex_lists[h1][:3]]
        off = [i for i in poset.vertex_lists[h2] if i not in poset.vertex_lists[e]]
        s_off = _orient3d(tri[0], tri[1], tri[2], surface.vertices[off[0]])
        s_in = _orient3d(tri[0], tri[1], tri[2], centroid)
        if s_off != 0 and s_in != 0 and s_off != s_in:
            out.update(poset.vertex_lists[e])
    return out


def locally_nonconvex_vertices(surface) -> set[int]:
    """Independent n=3 star oracle via local supporting planes.

    A vertex star lies on a convex boundary iff every incident facet's
    plane has the whole local point set (all vertices of incident
    facets) weakly on one side.  This never touches the fan code.
    """
    from plconvex.surface import facet_equation

    poset = surface.poset
    assert surface.n == 3
    out: set[int] = set()
    for v in range(poset.count(0)):
        star_facets: set = set()
        for e in poset.up(pc.Face(0, v)):
            star_facets.update(poset.up(e))
        local = sorted({w for h in star_facets for w in poset.vertex_lists[h]})
        for h in sorted(star_facets):
            eq = facet_equation(surface, h)
            signs = {_sign(dot(eq.normal, surface.vertices[w]) - eq.offset) for w in local}
            if 1 in signs and -1 in signs:
                out.add(v)
                break
    return out


def random_same_kernel_projection(base: Projection3, rng: random.Random) -> Projection3:
    """A random rank-3 map with the kernel of ``base``: an invertible mix of its rows.

    The mix has rational entries; the rows are scaled by their positive
    common denominator, so they are integers as ``build_fan`` requires.
    """
    n = len(base.rows[0])
    while True:
        mix = [
            [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(3)]
            for _ in range(3)
        ]
        det = (
            mix[0][0] * (mix[1][1] * mix[2][2] - mix[1][2] * mix[2][1])
            - mix[0][1] * (mix[1][0] * mix[2][2] - mix[1][2] * mix[2][0])
            + mix[0][2] * (mix[1][0] * mix[2][1] - mix[1][1] * mix[2][0])
        )
        if det != 0:
            break
    rows = [sum(mix[i][k] * base.rows[k][j] for k in range(3)) for i in range(3) for j in range(n)]
    scale = math.lcm(*[Fraction(x).denominator for x in rows])
    ints = [int(x * scale) for x in rows]
    return Projection3((tuple(ints[:n]), tuple(ints[n : 2 * n]), tuple(ints[2 * n :])))


def star_under_projection(surface, face, proj: Projection3, prepared: pc.PreparedSurface) -> pc.ConvexityCheck:
    """The classification of ``face``'s star, from ``preflight(surface)``'s table, projected by ``proj``."""
    return pc.fan_is_convex(pc.build_fan(prepared.points, face, pc.link_cycle(surface.poset, face), proj))


def pinched_tube() -> pc.PLSurface:
    """Two tetrahedra sharing their apex, connected by a triangulated tube.

    Closed and connected, but the shared apex (vertex 0) has a link made
    of two disjoint cycles, so it is not a manifold point.
    """
    h = Fraction(3, 2)
    coords = [
        (Fraction(0), Fraction(0), h),  # shared apex, index 0
        (Fraction(0), Fraction(0), Fraction(0)),  # a1
        (Fraction(1), Fraction(0), Fraction(0)),  # a2
        (Fraction(0), Fraction(1), Fraction(0)),  # a3
        (Fraction(0), Fraction(0), Fraction(3)),  # b1
        (Fraction(1), Fraction(0), Fraction(3)),  # b2
        (Fraction(0), Fraction(1), Fraction(3)),  # b3
    ]
    a1, a2, a3, b1, b2, b3 = 1, 2, 3, 4, 5, 6
    polygons = [
        [0, a1, a2],
        [0, a2, a3],
        [0, a3, a1],
        [0, b1, b2],
        [0, b2, b3],
        [0, b3, b1],
        [a1, a2, b1],
        [a2, b2, b1],
        [a2, a3, b2],
        [a3, b3, b2],
        [a3, a1, b3],
        [a1, b1, b3],
    ]
    return pc.surface_from_polygons(coords, polygons)


def wedge_cube(k: int) -> pc.PLSurface:
    """Unit cube with P = (1/2, 0, 1), vertex 8, on its top front edge.

    The top and front faces are fanned from P through k points on each
    opposite edge, so P's star is a dihedral wedge of 4k + 12 entries.
    The surface bounds the unit cube.
    """
    coords = [tuple(Fraction((v >> j) & 1) for j in range(3)) for v in range(8)]
    coords.append((Fraction(1, 2), Fraction(0), Fraction(1)))
    ts = [Fraction(i + 1, k + 1) for i in range(k)]
    top = list(range(9, 9 + k))  # on the edge y = z = 1
    bottom = list(range(9 + k, 9 + 2 * k))  # on the edge y = z = 0
    coords += [(t, Fraction(1), Fraction(1)) for t in ts]
    coords += [(t, Fraction(0), Fraction(0)) for t in ts]
    polygons = [[0, 2, 6, 4], [1, 3, 7, 5], [2, 3, 7, *top[::-1], 6], [0, *bottom, 1, 3, 2]]
    for chain in ([4, 6, *top, 7, 5], [4, 0, *bottom, 1, 5]):
        polygons += [[8, a, b] for a, b in zip(chain, chain[1:])]
    return pc.surface_from_polygons(coords, polygons)


def cyclic_variants(seq):
    """All rotations of seq and of its reversal (cyclic-equality helper)."""
    seq = list(seq)
    m = len(seq)
    for base in (seq, list(reversed(seq))):
        for r in range(m):
            yield tuple(base[r:] + base[:r])


def zigzag_bipyramid(m: int) -> pc.PLSurface:
    """Bipyramid over a zigzag rim of m (even) vertices: every star fails.

    Rim vertex k is the k-th of ``circle_points(m)``, which run in angular
    order over the half x > 0 of the unit circle, at height 1/5 for even
    k and -1/5 for odd k.  The apexes (0, 0, 2) and (0, 0, -2) are
    vertices m and m + 1.
    """
    rim = circle_points(m)
    coords = [(x, y, Fraction(1 if k % 2 == 0 else -1, 5)) for k, (x, y) in enumerate(rim)]
    coords += [(Fraction(0), Fraction(0), Fraction(2)), (Fraction(0), Fraction(0), Fraction(-2))]
    polygons = []
    for k in range(m):
        j = (k + 1) % m
        polygons += [[m, k, j], [m + 1, j, k]]
    return pc.surface_from_polygons(coords, polygons)


def crowned_prism(m: int) -> pc.PLSurface:
    """A prism over ``circle_points(m)`` (m even) whose top is a crown coned to a centre.

    Vertex 0 is the centre (0, 0, 10); vertices 1..m are the rim B_i at
    z = 0 and vertices m+1..2m the crown T_i over them, at z = 11 for
    even i and z = 9 for odd i.  The faces are the bottom m-gon
    (reversed), the side triangles (B_i, B_i+1, T_i+1) and
    (B_i, T_i+1, T_i), and the top triangles (0, T_i, T_i+1).  The
    centre lies below the high crown points.  The stars of the centre,
    of T_0 and of the low crown points fail (m/2 + 2 stars), all with
    WRONG_TURN_SIGN; all of them but T_0's and T_m-1's reach the
    pairwise support search (m/2 stars).
    """
    rim = circle_points(m)
    coords = [(Fraction(0), Fraction(0), Fraction(10))]
    coords += [(x, y, Fraction(0)) for x, y in rim]
    coords += [(x, y, Fraction(11 if i % 2 == 0 else 9)) for i, (x, y) in enumerate(rim)]
    bottom = [1 + i for i in range(m)]
    top = [m + 1 + i for i in range(m)]
    polygons = [bottom[::-1]]
    for i in range(m):
        j = (i + 1) % m
        polygons += [[bottom[i], bottom[j], top[j]], [bottom[i], top[j], top[i]], [0, top[i], top[j]]]
    return pc.surface_from_polygons(coords, polygons)


STACK_HEIGHTS = (Fraction(1, 10**6), Fraction(1, 50), Fraction(0), Fraction(-1, 50), Fraction(1, 3))


def stacked_cube(seed: int, stacks: int) -> pc.PLSurface:
    """The unit cube with ``stacks`` seeded facets replaced by pyramids over them.

    Each stack picks a facet and a height eps from ``STACK_HEIGHTS`` and
    puts the apex at the facet's centroid + eps * n, where n is the
    facet's cross-product normal (v1 - v0) x (v2 - v0), pointed away
    from the cube's center (Grünbaum's stacked polytopes).  A small
    eps gives nearly flat corners, eps = 0 a flat subdivision and
    eps < 0 a dent.
    """
    rng = random.Random(seed)
    coords = [tuple(Fraction((v >> j) & 1) for j in range(3)) for v in range(8)]
    polygons = [[0, 2, 6, 4], [1, 3, 7, 5], [0, 1, 5, 4], [2, 3, 7, 6], [0, 1, 3, 2], [4, 5, 7, 6]]
    center = (Fraction(1, 2),) * 3
    for _ in range(stacks):
        facet = polygons.pop(rng.randrange(len(polygons)))
        eps = rng.choice(STACK_HEIGHTS)
        pts = [coords[v] for v in facet]
        normal = cross3(vsub(pts[1], pts[0]), vsub(pts[2], pts[0]))
        centroid = vmean(pts)
        if dot(normal, vsub(centroid, center)) < 0:
            normal = tuple(-x for x in normal)
        coords.append(tuple(c + eps * x for c, x in zip(centroid, normal)))
        apex = len(coords) - 1
        polygons += [[apex, a, b] for a, b in zip(facet, facet[1:] + facet[:1])]
    return pc.surface_from_polygons(coords, polygons)


def stacked_tesseract(seed: int, stacks: int) -> pc.PLSurface:
    """``gen_hypercube(4)`` with up to 8 seeded facets replaced by pyramids over them.

    Each stack picks a distinct original facet, which fixes coordinate a
    at 0 or 1, and a height eps from ``STACK_HEIGHTS``, and puts the
    apex at the facet's centroid + eps * e_a, pointed away from the
    tesseract (minus for 0, plus for 1).  The apex cones the facet's
    vertices, edges and squares to new edges, triangles and square
    pyramids.  eps = 0 leaves a flat subdivision, eps < 0 a dent.
    """
    rng = random.Random(seed)
    base = pc.gen_hypercube(4)
    poset = base.poset
    coords = list(base.vertices)
    lists = {d: [poset.vertex_lists[f] for f in poset.faces(d)] for d in (1, 2, 3)}
    for facet in rng.sample(lists[3], min(stacks, 8)):
        pts = [coords[v] for v in facet]
        axis = next(j for j in range(4) if len({p[j] for p in pts}) == 1)
        eps = rng.choice(STACK_HEIGHTS)
        apex = list(vmean(pts))
        apex[axis] += eps if pts[0][axis] == 1 else -eps
        coords.append(tuple(apex))
        a = len(coords) - 1
        lists[3].remove(facet)
        lists[1] += [(v, a) for v in facet]
        # a face holding an earlier apex is never inside an original facet
        lists[2] += [(*e, a) for e in lists[1] if set(e) <= set(facet)]
        lists[3] += [(*r, a) for r in lists[2] if set(r) <= set(facet)]
    return pc.PLSurface(FacePoset(4, {0: len(coords)}, vertex_ids=lists), vertices=tuple(coords))


def duoprism(p: int, q: int) -> pc.PLSurface:
    """The product in R^4 of the convex p-gon and q-gon on ``circle_points``.

    Vertex i*q + j is (a_i, b_j), a_i of the p-gon and b_j of the q-gon.
    The edges are a_i a_i+1 x b_j and a_i x b_j b_j+1; the 2-faces are
    the copies p-gon x b_j and a_i x q-gon and the squares of an edge by
    an edge; the facets are the prisms p-gon x edge and edge x q-gon.
    Every edge lies in three 2-faces: 6pq incidences from edges up.
    """
    coords = tuple((*a, *b) for a in circle_points(p) for b in circle_points(q))

    def face(cells):
        return tuple(sorted({(i % p) * q + j % q for i, j in cells}))

    cells = [(i, j) for i in range(p) for j in range(q)]
    edges = [face([(i, j), (i + 1, j)]) for i, j in cells] + [face([(i, j), (i, j + 1)]) for i, j in cells]
    ridges = [face((i, j) for i in range(p)) for j in range(q)] + [face((i, j) for j in range(q)) for i in range(p)]
    ridges += [face([(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)]) for i, j in cells]
    facets = [face((i, j + d) for i in range(p) for d in (0, 1)) for j in range(q)]
    facets += [face((i + d, j) for j in range(q) for d in (0, 1)) for i in range(p)]
    return pc.PLSurface(FacePoset(4, {0: p * q}, vertex_ids={1: edges, 2: ridges, 3: facets}), vertices=coords)


def geometry_families():
    """Labelled surfaces for the geometry pass, in both modes.

    Seven bases as built, moved by ``rigid_motion`` and dented, each
    valid one also through ``as_equations``, and per base an
    equations-mode copy with one witness moved off its facets.
    """
    bases = {
        "cube": pc.gen_hypercube(3),
        "hypercube5": pc.gen_hypercube(5),
        "cross4": pc.gen_cross_polytope(4),
        "simplex6": pc.gen_simplex(6),
        "prism7": pc.gen_prism(7),
        "schonhardt": pc.gen_schonhardt(),
        "split": pc.split_facet_cube(diagonal=True),
    }
    for name, base in bases.items():
        moved = pc.rigid_motion(base, 2)
        variants = {"plain": base, "moved": moved}
        for t in (Fraction(1, 4), Fraction(3, 2)):
            variants[f"dent{t}"] = pc.dent(moved, 1, t)
        for label, s in variants.items():
            yield f"{name}-{label}", s
            if pc.preflight(s).ok:  # a dent can warp a facet, and then there is no equation
                yield f"{name}-{label}-eq", pc.as_equations(s)
        # an equations-mode witness moved off its facets
        eq = pc.as_equations(moved)
        low = eq.poset.dim_low
        wits = {Face(low, 0): tuple(x + Fraction(1, 3) for x in eq.witnesses[low][0])}
        yield f"{name}-bad-witness", replace_geometry(eq, witnesses=wits)


def reference_circle_points(m: int) -> list[tuple[Fraction, Fraction]]:
    """The half-angle map t -> ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)) at t = (2i - (m - 1)) / m, in ``Fraction``s."""
    pts = []
    for i in range(m):
        t = Fraction(2 * i - (m - 1), m)
        den = 1 + t * t
        pts.append(((1 - t * t) / den, 2 * t / den))
    return pts


def reference_rigid_motion(surface: pc.PLSurface, seed: int) -> pc.PLSurface:
    """``rigid_motion``'s seeded shears and shift, applied in ``Fraction`` arithmetic.

    Draws the same random numbers as ``rigid_motion``; each coordinate
    is the ``Fraction`` dot product of a shear row with the vertex plus
    the shift.
    """
    if seed == 0:
        return surface
    rng = random.Random(seed)
    n = surface.n
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        coef = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
        rows[i] = [a + coef * b for a, b in zip(rows[i], rows[j])]
    shift = tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(n))
    verts = tuple(tuple(dot(tuple(r), v) + t for r, t in zip(rows, shift)) for v in surface.vertices)
    return pc.PLSurface(surface.poset, vertices=verts)


def reference_facet_equation(surface: pc.PLSurface, facet) -> FacetEquation:
    """The facet's hyperplane from its own elimination, vertices read by list position."""
    coords = [homogeneous(surface.vertices[v]) for v in surface.poset.vertex_lists[facet]]
    _, basis, defect = _face_geometry(facet.dim, coords)
    if defect is not None:
        raise DegenerateFaceError(facet, "facet does not span a hyperplane")
    (normal,) = nullspace([row for _, row in basis], surface.n)
    scale = next(x for x in reversed(normal) if x)
    base, weight = coords[0]
    return FacetEquation(dehomogenise(normal, scale), Fraction(dot(normal, base), scale * weight))


def reference_as_equations(surface: pc.PLSurface) -> pc.PLSurface:
    """``as_equations`` built from ``reference_facet_equation`` and a separate point per face.

    Every facet is reduced twice, once for its equation and once for its
    point, and vertices are read by list position.
    """
    if surface.mode != "vertices":
        return surface
    poset, n = surface.poset, surface.n
    counts = {d: c for d, c in poset.faces_per_dim.items() if d != 0 or n == 3}
    new_poset = FacePoset(n=n, faces_per_dim=counts, up_ids=dict(poset.up_ids))
    equations = [reference_facet_equation(surface, h) for h in poset.faces(poset.dim_top)]
    witnesses = {}
    for d in (poset.dim_low, poset.dim_mid, poset.dim_top):
        rows = poset.vertex_ids[d][: poset.count(d)] if d else [(v,) for v in range(poset.count(0))]  # a vertex is its own list
        points = [_face_geometry(d, [homogeneous(surface.vertices[v]) for v in ids])[0] for ids in rows]
        witnesses[d] = [dehomogenise(*p) for p in points]
    return pc.PLSurface(new_poset, equations=equations, witnesses=witnesses)


def replace_records(poset: FacePoset, up=(), verts=(), counts=None) -> FacePoset:
    """``poset`` with some upward records or vertex lists replaced, keyed by ``Face``.

    A record for ``Face(d, i)`` replaces row i of dimension d's table, or
    is appended when i is the table's length, so a table can be made
    longer than its count; ``counts`` replaces the face counts.  The
    tables of ``poset`` are copied, never changed.  A poset with vertex
    lists derives its upward tables and its counts above dimension 0
    from them, so given only lists it is rebuilt from the lists alone,
    and upward records or counts given beside them must be what they imply.
    """

    def patched(table, changes):
        out = {d: list(rows) for d, rows in table.items()}
        for (d, i), value in dict(changes).items():
            rows = out.setdefault(d, [])
            if i == len(rows):
                rows.append(value)
            else:
                rows[i] = value
        return out

    lists = patched(poset.vertex_ids, verts)
    if lists and not up and counts is None:
        return FacePoset(poset.n, {0: poset.count(0)}, vertex_ids=lists)
    counts = dict(poset.faces_per_dim if counts is None else counts)
    return FacePoset(poset.n, counts, patched(poset.up_ids, up), lists)


def replace_geometry(surface: pc.PLSurface, witnesses=(), equations=()) -> pc.PLSurface:
    """An equations-mode ``surface`` with some witnesses or facet equations replaced, keyed by ``Face``.

    The value for ``Face(d, i)`` replaces ``witnesses[d][i]``, the value
    for facet ``Face(n-1, h)`` replaces ``equations[h]``; None marks the
    record missing.  The tables of ``surface`` are copied, never changed.
    """
    wits = {d: list(rows) for d, rows in surface.witnesses.items()}
    eqs = list(surface.equations)
    for (d, i), point in dict(witnesses).items():
        wits[d][i] = point
    for (_, h), eq in dict(equations).items():
        eqs[h] = eq
    return pc.PLSurface(surface.poset, equations=eqs, witnesses=wits)


def reference_link_cycle(poset: FacePoset, center: Face) -> tuple[Face, ...]:
    """Reference: the link walk over ``Face``s, read a face at a time through ``poset.up``.

    Returns the alternating cycle G1, H1, ..., Gk, Hk as ``Face``s, with
    ``link_cycle``'s normalisation, and raises its ``LinkCycleError``s.
    """
    if center.dim != poset.dim_low:
        raise ValueError(f"{center} is not an (n-3)-face")
    mid_faces = poset.up(center)
    if len(mid_faces) < 2:
        raise LinkCycleError(center, "fewer than two (n-2)-faces at center")
    cells_of: dict[Face, tuple[Face, ...]] = {}
    rim: dict[Face, list[Face]] = {}
    for g in mid_faces:
        ups = poset.up(g)
        if len(ups) != 2:
            raise LinkCycleError(center, f"{g} lies in {len(ups)} facets")
        cells_of[g] = ups
        for h in ups:
            rim.setdefault(h, []).append(g)
    for h, gs in rim.items():
        if len(gs) != 2:
            raise LinkCycleError(center, f"{h} touches {len(gs)} incident (n-2)-faces")
    start = min(mid_faces)
    entries: list[Face] = []
    g, h = start, min(cells_of[start])
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


def cycle_faces(poset: FacePoset, cycle: tuple[int, ...]) -> tuple[Face, ...]:
    """A ``link_cycle`` of indices as ``Face``s: one rank above the center at even positions, two at odd ones."""
    low = poset.dim_low
    return tuple(Face(low + 1 + k % 2, f) for k, f in enumerate(cycle))
