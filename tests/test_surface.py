import copy
import math
import pickle
import random
import re
from dataclasses import replace
from itertools import combinations, product
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

import plconvex as pc
import plconvex.surface as surface_mod
from plconvex.exactgeom import (
    DegenerateFaceError,
    as_vec,
    _pivot,
    dehomogenise,
    dot,
    homogeneous,
    nullspace,
)
from plconvex.poset import Face, FacePoset, validate_poset
from plconvex.surface import (
    FacetEquation,
    PLSurface,
    as_equations,
)
from plconvex.verifier import preflight, verify_face

from conftest import geometry_families, rank, reference_as_equations, replace_geometry, replace_records, wedge_cube
from test_verifier import _corrupt, _corruption_bases, _edit_list

F = Fraction


def interior_point(surface, face):
    """A face's interior point from ``preflight``'s table, as ``Fraction``s."""
    return dehomogenise(*preflight(surface).points[face.dim][face.index])


def test_interior_point_vertex(cube):
    assert interior_point(cube, Face(0, 3)) == cube.vertices[3]


def test_interior_point_edge_is_midpoint(cube):
    e = Face(1, 0)
    a, b = cube.poset.vertex_lists[e]
    mid = tuple((x + y) / 2 for x, y in zip(cube.vertices[a], cube.vertices[b]))
    assert interior_point(cube, e) == mid


def test_interior_point_in_facet_interior(cube):
    # strictly inside the unit square spanned by the facet
    for f in cube.poset.faces(2):
        p = interior_point(cube, f)
        verts = [cube.vertices[v] for v in cube.poset.vertex_lists[f]]
        for axis in range(3):
            lo = min(v[axis] for v in verts)
            hi = max(v[axis] for v in verts)
            if lo == hi:
                assert p[axis] == lo
            else:
                assert lo < p[axis] < hi


def test_direction_space_cube_vertex(cube):
    proj = preflight(cube).projections[0]
    assert proj is pc.complementary_projection((), 3) and nullspace(proj.rows, 3) == ()


def test_direction_space_tesseract_edge(tesseract):
    # the edge from (0,0,0,0) to (1,0,0,0)
    target = None
    for e in tesseract.poset.faces(1):
        vs = tesseract.poset.vertex_lists[e]
        pts = [tesseract.vertices[v] for v in vs]
        if set(pts) == {as_vec([0, 0, 0, 0]), as_vec([1, 0, 0, 0])}:
            target = e
            break
    basis = nullspace(preflight(tesseract).projections[target.index].rows, 4)
    assert len(basis) == 1
    d = basis[0]
    assert d[1] == d[2] == d[3] == 0 and d[0] != 0


def test_direction_space_degenerate(tesseract):
    # an edge whose two endpoints coincide: the tesseract's first edge with
    # vertex 1 moved onto vertex 0
    assert tesseract.poset.vertex_ids[1][0] == (0, 1)
    verts = list(tesseract.vertices)
    verts[1] = verts[0]
    prepared = preflight(PLSurface(tesseract.poset, vertices=tuple(verts)))
    assert prepared.report.violations[0] == pc.Violation("DEGENERATE_FACE", Face(1, 0), "affine rank 0 != dim 1")
    assert set(prepared.projections) == {None}  # no projection once the report is not ok


def test_zero_face_listing_two_vertices_is_degenerate():
    # a 0-face spans dimension 0 like any face must span its own: the rank
    # check makes one that lists two distinct vertices a DEGENERATE_FACE
    simplex = pc.gen_simplex(3)
    points = [homogeneous(simplex.vertices[v]) for v in (0, 1)]
    assert surface_mod._face_geometry(0, points)[2] == "affine rank 1 != dim 0"


def test_a_vertex_is_its_own_point():
    # no poset stores vertex lists of dimension 0, at any n; at n = 3 the
    # geometry pass tables the converted coordinates as the vertices' points
    # and as_equations writes them as their witnesses, without an
    # elimination, and a hand-built vertex_ids[0] is ignored as at n >= 4
    made = [gen(n) for gen in (pc.gen_hypercube, pc.gen_cross_polytope, pc.gen_simplex) for n in (3, 4, 5, 6)]
    made += [pc.gen_prism(5), pc.gen_schonhardt(), pc.gen_dented_cube(2), pc.split_facet_cube()]
    made += [pc.parse_pls(pc.emit_pls(s)) for s in made] + [pc.relabel(s, 3) for s in made]
    for s in made:
        assert 0 not in s.poset.vertex_ids and set(s.poset.vertex_ids) == {s.n - 3, s.n - 2, s.n - 1} - {0}
    cube = pc.rigid_motion(pc.gen_hypercube(3), 4)
    prepared = preflight(cube)
    assert prepared.points[0] == [homogeneous(v) for v in cube.vertices]
    assert as_equations(cube).witnesses[0] == [dehomogenise(*homogeneous(v)) for v in cube.vertices]
    listed = PLSurface(replace(cube.poset, vertex_ids={**cube.poset.vertex_ids, 0: [(0, 1)] * 8}), vertices=cube.vertices)
    assert preflight(listed) == prepared and pc.verify(listed).kind == "CONVEX"
    assert as_equations(listed) == as_equations(cube)
    # relabel drops the ignored list, whatever ids it holds
    for ids in [(0, 1), (0, 99)]:
        shuffled = pc.relabel(PLSurface(replace(cube.poset, vertex_ids={**cube.poset.vertex_ids, 0: [ids] * 8}), vertices=cube.vertices), 3)
        assert 0 not in shuffled.poset.vertex_ids and pc.verify(shuffled).kind == "CONVEX"


def test_parsed_surface_derives_its_tables_on_first_read():
    # a parsed surface keeps the reader's integer rows and derives vertices,
    # equations and witnesses from them when one is first read, as the
    # values the text holds; it compares, copies and pickles as the surface
    # built from those values, replace() gives a surface built from
    # values, and a name that is no table stays an AttributeError
    built = pc.rigid_motion(pc.gen_prism(5), 3)
    for s in (built, as_equations(built)):
        parsed = pc.parse_pls(pc.emit_pls(s))
        assert s.rows is None and parsed.rows is not None and parsed.mode == s.mode
        assert not {"vertices", "equations", "witnesses"} & vars(parsed).keys()
        assert copy.deepcopy(parsed) == s and pickle.loads(pickle.dumps(parsed)) == s
        assert parsed == s
        assert parsed.vertices is parsed.vertices and parsed.witnesses is parsed.witnesses
        again = replace(parsed, poset=parsed.poset)
        assert again.rows is None and again == s and preflight(again) == preflight(parsed)
        for surface in (parsed, pc.parse_pls(pc.emit_pls(s)), s):
            assert getattr(surface, "no_such_table", None) is None
            with pytest.raises(AttributeError, match="no_such_table"):
                surface.no_such_table


def test_parsed_rows_give_the_rejection_texts():
    # the geometry pass checks a parsed equations-mode surface's normals and
    # witnesses on its rows, with the texts it gives for the built surface
    eq = as_equations(pc.gen_hypercube(3))
    h, v0 = Face(2, 1), Face(0, 0)
    fe = eq.equations[h.index]
    cases = [
        replace_geometry(eq, equations={h: FacetEquation((F(0),) * 3, fe.offset)}),
        replace_geometry(eq, equations={h: FacetEquation(fe.normal + (F(1, 2),), fe.offset)}),
        replace_geometry(eq, equations={h: FacetEquation(fe.normal, fe.offset + F(1, 3))}),
        replace_geometry(eq, witnesses={v0: eq.witnesses[0][0][:2]}),
        replace_geometry(eq, witnesses={h: tuple(x + a for x, a in zip(eq.witnesses[2][h.index], fe.normal))}),
    ]
    for surface in cases:
        report = preflight(surface).report
        assert not report.ok
        assert preflight(pc.parse_pls(pc.emit_pls(surface))).report == report


def test_check_realization_accepts_cube(cube):
    assert preflight(cube).report.ok


def test_check_realization_rejects_warped_facet(cube):
    dented = pc.dent(cube, 0, F(1, 4))
    report = preflight(dented).report
    assert not report.ok
    assert all(v.code == "DEGENERATE_FACE" for v in report.violations)
    # every complaint involves a nonplanar quad touching the moved vertex
    for v in report.violations:
        assert 0 in dented.poset.vertex_lists[v.face]


def test_check_realization_rejects_collapsed_edge(cube):
    verts = list(cube.vertices)
    verts[1] = verts[0]
    broken = PLSurface(cube.poset, vertices=tuple(verts))
    report = preflight(broken).report
    assert any(v.code == "DEGENERATE_FACE" for v in report.violations)


def test_as_equations_cube_round(cube):
    eq = as_equations(cube)
    assert eq.mode == "equations"
    assert preflight(eq).report.ok
    # every witness satisfies its facet's equation
    for h, fe in enumerate(eq.equations):
        assert dot(fe.normal, eq.witnesses[2][h]) == fe.offset


def _outcome(convert, surface):
    """``convert(surface)``, or the type of the exception it raises."""
    try:
        return convert(surface)
    except Exception as exc:
        return type(exc)


def test_as_equations_matches_reference():
    # one elimination per face gives the surface of the construction that
    # reduced every facet twice, in value, type and order, or raises as it
    # does (a dent can warp a facet)
    surfaces = [s for _, s in geometry_families()] + _corruption_bases()
    surfaces += [pc.rigid_motion(s, seed) for s in surfaces[::3] if s.mode == "vertices" for seed in (1, 5)]
    raised = 0
    for s in surfaces:
        got, want = _outcome(as_equations, s), _outcome(reference_as_equations, s)
        assert got == want
        if isinstance(want, type):
            raised += 1
        else:
            for x, y in ((got.witnesses, want.witnesses), (got.equations, want.equations)):
                assert list(x) == list(y) and repr(x) == repr(y)
    assert raised >= 5


# what as_equations raises on a vertex-mode corruption that reads past the
# records: it reads vertex ids as facet_equation does and refuses what
# preflight reports, where the reference indexed the vertex tuple (a
# negative id read the vertex that many from the end) and failed wherever
# it first stumbled
AS_EQUATIONS_REFUSALS = {
    "id_past_end": KeyError,
    "id_negative": KeyError,
    "list_emptied": DegenerateFaceError,
    "coordinate_dropped": ValueError,
    "coordinate_added": ValueError,
}


def test_package_reads_vertex_ids_not_the_face_keyed_view(monkeypatch):
    # verify, as_equations, facet_equation and the oracle read vertex_ids[d][i];
    # the Face-keyed vertex_lists view, a dict over every face, is for callers
    surfaces = [pc.rigid_motion(pc.gen_prism(6), 3), pc.gen_hypercube(5)]
    cube = pc.gen_hypercube(3)

    def refused(poset):
        raise AssertionError("vertex_lists read")

    monkeypatch.setattr(pc.FacePoset, "vertex_lists", property(refused))
    for surface in surfaces:
        assert pc.verify(surface).kind == "CONVEX"
        eq = as_equations(surface)
        assert pc.verify(eq).kind == "CONVEX"
        assert [pc.facet_equation(surface, h) for h in surface.poset.faces(surface.poset.dim_top)] == eq.equations
        assert pc.oracle_verdict(surface).convex
    # a facet index outside the records names no facet, negative too
    for facet in (Face(2, -1), Face(2, 6)):
        with pytest.raises(KeyError):
            pc.facet_equation(cube, facet)
    with pytest.raises(AssertionError, match="vertex_lists read"):
        surfaces[0].poset.vertex_lists


@pytest.mark.parametrize("kind", [*AS_EQUATIONS_REFUSALS, "list_swapped"])
def test_as_equations_on_corrupted_records(kind):
    # a swapped vertex id stays inside the records: the reference's outcome,
    # a surface or DegenerateFaceError; any other corruption is refused
    rng = random.Random(kind)
    outcomes = Counter()
    for base in _corruption_bases():
        if base.mode != "vertices":
            continue
        for _ in range(10):
            s = _edit_list(base, "swap", rng) if kind == "list_swapped" else _corrupt(base, kind, rng)[0]
            got = _outcome(as_equations, s)
            outcomes[got if isinstance(got, type) else PLSurface] += 1
            assert got == AS_EQUATIONS_REFUSALS.get(kind, _outcome(reference_as_equations, s))
    if kind == "list_swapped":
        assert outcomes[PLSurface] and outcomes[DegenerateFaceError], outcomes


def test_witness_moved_along_its_edge_is_trusted():
    # witnesses are only checked against their facet planes: moving an
    # edge's witness along the edge line keeps the input valid, and the
    # verdict follows the moved point
    eq = as_equations(pc.gen_hypercube(3))
    edge, a, b = Face(1, 0), Face(0, 0), Face(0, 1)
    assert {a, b} == {v for v in eq.poset.faces(0) if edge in eq.poset.up(v)}
    step = tuple(y - x for x, y in zip(eq.witnesses[0][a.index], eq.witnesses[0][b.index]))
    expected = {F(1, 2): ("INVALID", "ZERO_DIRECTION"), F(1): ("NOT_CONVEX", "WRONG_TURN_SIGN")}
    for t, (kind, reason) in expected.items():
        moved = replace_geometry(eq, witnesses={edge: tuple(w + t * d for w, d in zip(eq.witnesses[1][0], step))})
        assert preflight(moved).report.ok
        verdict = pc.verify(moved)
        assert (verdict.kind, verdict.witness, verdict.reason) == (kind, b, reason)


def _inexact_inputs():
    """The cube with one float or str where an exact number belongs, in both modes, and the face and code verify reports."""
    cube = pc.gen_hypercube(3)
    eq = as_equations(cube)
    for x in (0.5, "1/2", Decimal("0.5"), None):
        verts = list(cube.vertices)
        verts[3] = (verts[3][0], x, verts[3][2])
        yield "vertex", x, PLSurface(cube.poset, vertices=tuple(verts)), None, "MISSING_COORDS"
        normal, offset = eq.equations[4].normal, eq.equations[4].offset
        yield "normal", x, replace_geometry(eq, equations={Face(2, 4): FacetEquation((x, *normal[1:]), offset)}), Face(2, 4), "BAD_NORMAL"
        yield "offset", x, replace_geometry(eq, equations={Face(2, 4): FacetEquation(normal, x)}), Face(2, 4), "BAD_NORMAL"
        witness = eq.witnesses[1][5]
        yield "witness", x, replace_geometry(eq, witnesses={Face(1, 5): (*witness[:2], x)}), Face(1, 5), "BAD_WITNESS"


INEXACT = list(_inexact_inputs())


@pytest.mark.parametrize("kind, x, surface, face, code", INEXACT, ids=[f"{kind}-{type(x).__name__}" for kind, x, *_ in INEXACT])
def test_inexact_number_is_invalid(kind, x, surface, face, code):
    # a float or str coordinate, normal entry, offset or witness entry is
    # INVALID with the code of its record, for preflight, verify and every
    # star, not an AttributeError from the conversion to integers
    first = preflight(surface).report.violations[0]
    assert (first.code, first.face) == (code, face) and repr(x) in first.message
    v = pc.verify(surface, collect_all=True)
    assert (v.kind, v.witness, v.reason) == ("INVALID", face, code)
    assert all(verify_face(surface, c) == (False, code) for c in surface.poset.faces(0))
    with pytest.raises(TypeError, match=f"{re.escape(repr(x))} is not an exact number"):
        homogeneous((1, x))
    # the writers refuse the value with verify's code, face and message,
    # where they wrote it as its str and parse_pls read "0.5" as 1/2
    text = f"{code}: {first.message}" if face is None else f"{code}: {face}: {first.message}"
    for write in (pc.emit_pls, lambda s: pc.relabel(s, 3)):
        with pytest.raises(ValueError) as info:
            write(surface)
        assert str(info.value) == text
    if kind == "vertex":
        for convert in (as_equations, pc.oracle_verdict):
            with pytest.raises(TypeError, match=f"{re.escape(repr(x))} is not an exact number"):
                convert(surface)


def test_as_equations_bad_witness_detected(cube):
    eq = as_equations(cube)
    broken = replace_geometry(eq, witnesses={Face(2, 0): tuple(c + 1 for c in eq.witnesses[2][0])})
    report = preflight(broken).report
    assert any(v.code == "BAD_WITNESS" for v in report.violations)


def test_check_realization_rejects_wrong_length_normal(cube):
    # one coordinate too many used to be dropped silently (a YES), one too
    # few surfaced as a misleading BAD_WITNESS
    eq = as_equations(cube)
    h = Face(2, 3)
    fe = eq.equations[h.index]
    for normal in (fe.normal + (F(0),), fe.normal[:-1]):
        broken = replace_geometry(eq, equations={h: FacetEquation(normal, fe.offset)})
        report = preflight(broken).report
        assert [(v.code, v.face) for v in report.violations] == [("BAD_NORMAL", h)]
        verdict = pc.verify(broken)
        assert (verdict.kind, verdict.witness, verdict.reason) == ("INVALID", h, "BAD_NORMAL")


def _moved_and_equations():
    bases = [("prism8", pc.gen_prism(8))]
    for n in range(3, 6):
        bases += [
            (f"hypercube{n}", pc.gen_hypercube(n)),
            (f"cross{n}", pc.gen_cross_polytope(n)),
            (f"simplex{n}", pc.gen_simplex(n)),
        ]
    for name, base in bases:
        moved = pc.rigid_motion(base, 1)
        yield pytest.param(base, id=name)
        yield pytest.param(moved, id=f"{name}-moved")
        yield pytest.param(as_equations(base), id=f"{name}-eq")
        yield pytest.param(as_equations(moved), id=f"{name}-moved-eq")


@pytest.mark.parametrize("surface", _moved_and_equations())
def test_preflight_matches_single_face_entry_points(surface):
    # preflight tabulates every face in dimension order and every link,
    # and verify_face classifies a star from those tables: its first and
    # last star here
    prepared = preflight(surface)
    assert prepared.ok and prepared.report == preflight(surface).report
    poset = surface.poset
    dims = (poset.dim_low, poset.dim_mid, poset.dim_top)
    assert {d: len(table) for d, table in prepared.points.items()} == {d: poset.count(d) for d in dims}
    assert None not in [p for table in prepared.points.values() for p in table]
    centers = list(poset.faces(poset.dim_low))
    assert len(prepared.projections) == len(centers) and None not in prepared.projections
    assert prepared.cycles == [pc.link_cycle(poset, center) for center in centers]
    for center in (centers[0], centers[-1]):
        proj = prepared.projections[center.index]
        fan = pc.build_fan(prepared.points, center, prepared.cycles[center.index], proj)
        assert verify_face(surface, center) == pc.fan_is_convex(fan)


def test_eliminator_gets_integer_rows(monkeypatch):
    # the geometry pass reduces its rows with exactgeom._reduce directly
    rows = []
    reduce = surface_mod._reduce

    def spy(pivots, r):
        rows.append(r)
        return reduce(pivots, r)

    monkeypatch.setattr(surface_mod, "_reduce", spy)
    surfaces = [pc.gen_prism(8), pc.rigid_motion(pc.gen_hypercube(4), 1)]
    surfaces += [pc.rigid_motion(pc.gen_simplex(5), 2), pc.dent(pc.gen_cross_polytope(3), 0, F(1, 3))]
    surfaces += [pc.rigid_motion(pc.gen_hypercube(5), 1)]
    for surface in surfaces:
        assert preflight(surface).ok
    assert len(rows) > 500
    assert all(type(r) is tuple and all(type(x) is int for x in r) for r in rows)


def test_as_equations_direction_space(tesseract):
    eq = as_equations(tesseract)
    projections = preflight(eq).projections
    for e in eq.poset.faces(1):
        assert len(nullspace(projections[e.index].rows, 4)) == 1
    # and the fan pipeline agrees with vertex mode on the verdict
    assert pc.verify(eq).kind == pc.verify(tesseract).kind == "CONVEX"


def split_tesseract():
    """The box [0, 2] x [0, 1]^3, every face that crosses x = 1 cut there.

    Its boundary is convex.  An edge in x = 1 that lies on a crease of the
    box has four incident facets with only two normals.
    """
    axes = [range(3), range(2), range(2), range(2)]
    index = {p: i for i, p in enumerate(product(*axes))}
    lists = {}
    for k in (1, 2, 3):
        cells = set()
        for corner in product(*axes):
            for free in combinations(range(4), k):
                if any(corner[j] + 1 == len(axes[j]) for j in free) or (free == (1, 2, 3) and corner[0] == 1):
                    continue  # past the box, or the wall between its two cubes
                span = [(c, c + 1) if j in free else (c,) for j, c in enumerate(corner)]
                cells.add(tuple(sorted(index[p] for p in product(*span))))
        lists[k] = sorted(cells)
    return PLSurface(FacePoset(4, {0: len(index)}, vertex_ids=lists), vertices=tuple(as_vec(p) for p in index))


def test_equations_mode_underdetermined_face():
    # at n >= 4 the incident facet normals of an (n-3)-face must pin down its
    # direction space; an edge on a crease of the cut box has normals of rank 2
    split = split_tesseract()
    assert pc.verify(split).kind == "CONVEX"
    verdict = pc.verify(as_equations(split))
    assert (verdict.kind, verdict.reason) == ("INVALID", "DEGENERATE_FACE")
    assert all(split.vertices[v][0] == 1 for v in split.poset.vertex_lists[verdict.witness])


def test_equations_mode_matches_vertex_mode_on_flat_vertices():
    # at n = 3 an (n-3)-face is a vertex, whose kernel is () in both modes, so
    # incident facet normals of rank 2 (coplanar facets, a wedge's two planes)
    # do not make it degenerate: both modes give the same verdicts
    for surface in (pc.split_facet_cube(False), pc.split_facet_cube(True), wedge_cube(4), wedge_cube(16)):
        eq = as_equations(surface)
        assert preflight(eq).report.ok
        assert pc.verify(eq, collect_all=True) == pc.verify(surface, collect_all=True)
        assert pc.verify(eq).kind == "CONVEX"
        assert set(preflight(eq).projections) == set(preflight(surface).projections) == {pc.complementary_projection((), 3)}
        for f in surface.poset.faces(0):
            assert verify_face(eq, f) == verify_face(surface, f)


def face_points(surface, face):
    """The integer homogeneous points of one vertex-mode face, a vertex's own point for a vertex."""
    ids = (face.index,) if face.dim == 0 else surface.poset.vertex_lists[face]
    return [homogeneous(surface.vertices[v]) for v in ids]


def reference_face_geometry(dim, points):
    """Reference: ``_face_geometry`` with the rank of the differences recomputed per step.

    Keeps a difference w_b * V_p - w_p * V_b when ``rank`` of the kept
    ones plus it exceeds their count, and brings every picked point to the lcm of
    the picked weights.
    """
    base = points[0]
    picked = [base]
    basis = []
    vb, wb = base
    for p in points[1:]:
        d = tuple(wb * x - p[1] * y for x, y in zip(p[0], vb))
        if rank(basis + [d]) > len(basis):
            basis.append(d)
            if len(basis) > dim:
                break
            picked.append(p)
    defect = None if len(basis) == dim else f"affine rank {len(basis)} != dim {dim}"
    weight = math.lcm(*[w for _, w in picked])
    total = tuple(map(sum, zip(*[[x * (weight // w) for x in p] for p, w in picked])))
    return (total, len(picked) * weight), tuple(basis), defect


def same_face_geometry(got, want, width) -> bool:
    """Whether ``_face_geometry``'s result matches the reference's.

    The point and the defect are equal, and the basis spans the reference
    basis's row space (the same nullspace), in echelon form: each row's
    pivot column is its first nonzero column, and each row is zero at the
    pivot columns of the rows before it.
    """
    (point, pivots, defect), (want_point, want_basis, want_defect) = got, want
    cols, basis = [c for c, _ in pivots], [r for _, r in pivots]
    return (
        (point, defect) == (want_point, want_defect)
        and cols == [_pivot(r) for r in basis]
        and len(basis) == len(want_basis)
        and nullspace(basis, width) == nullspace(want_basis, width)
        and all(r[c] == 0 for k, r in enumerate(basis) for c in cols[:k])
    )


def reference_equations_geometry(surface, face):
    """Reference for an equations-mode face: its witness, kernel and defect.

    The kernel is the nullspace of the facet normals two ranks above an
    (n-3)-face (each facet once, normals converted here); at n = 3 and
    for higher faces it is ().
    """
    poset = surface.poset
    witnesses = surface.witnesses.get(face.dim, ())
    witness = witnesses[face.index] if face.index < len(witnesses) else None
    point = None if witness is None else homogeneous(witness)
    if face.dim != poset.dim_low or surface.n == 3:
        return point, (), None
    facets = dict.fromkeys(h for g in poset.up(face) for h in poset.up(g))
    basis = nullspace([homogeneous(surface.equations[h.index].normal)[0] for h in facets], surface.n)
    if len(basis) != surface.n - 3:
        return point, basis, "incident facet equations do not determine the face's direction space"
    return point, basis, None


def test_face_geometry_matches_reference():
    # every face of dims n-3, n-2, n-1: vertex mode through _face_geometry
    # alone, a vertex as its own point, equations mode through preflight's
    # tables and report
    defects = Counter()
    for label, s in geometry_families():
        poset = s.poset
        prepared = preflight(s)
        for d in (poset.dim_low, poset.dim_mid, poset.dim_top):
            for f in poset.faces(d):
                if s.mode == "vertices" and d == 0:
                    assert prepared.points[0][f.index] == homogeneous(s.vertices[f.index]), (label, f)
                    defect = None
                elif s.mode == "vertices":
                    points = face_points(s, f)
                    got = surface_mod._face_geometry(d, points)
                    assert same_face_geometry(got, reference_face_geometry(d, points), s.n), (label, f)
                    defect = got[2]
                else:
                    point, basis, defect = reference_equations_geometry(s, f)
                    assert prepared.points[d][f.index] == point, (label, f)
                    if d == poset.dim_low:
                        proj = prepared.projections[f.index]
                        assert (proj is None) == (defect is not None), (label, f)
                        assert proj is None or nullspace(proj.rows, s.n) == basis, (label, f)
                    assert (pc.Violation("DEGENERATE_FACE", f, defect) in prepared.report.violations) == (defect is not None)
                defects[defect is None] += 1
    assert min(defects.values()) >= 50, defects


def test_projections_have_rank_three_and_the_face_kernel():
    # every (n-3)-face of an ok surface gets three int rows of rank 3 whose
    # nullspace spans its direction space: _face_geometry's basis in vertex
    # mode, the nullspace of the incident facet normals in equations mode
    checked = Counter()
    for label, s in geometry_families():
        prepared = preflight(s)
        if not prepared.ok:
            continue
        poset = s.poset
        for f in poset.faces(poset.dim_low):
            proj = prepared.projections[f.index]
            assert len(proj.rows) == 3 and all(len(r) == s.n and all(type(x) is int for x in r) for r in proj.rows)
            assert rank(proj.rows) == 3, (label, f)
            if s.mode == "vertices":
                kernel = tuple(row for _, row in surface_mod._face_geometry(f.dim, face_points(s, f))[1])
            else:
                kernel = reference_equations_geometry(s, f)[1]
            got = nullspace(proj.rows, s.n)
            assert len(got) == len(kernel) == s.n - 3, (label, f)
            assert not kernel or rank(got + kernel) == s.n - 3, (label, f)
            checked[s.mode, s.n] += 1
    assert len(checked) == 8 and min(checked.values()) >= 20, checked


def _resuming_surfaces():
    """Vertex-mode surfaces at n >= 4 whose simplices resume a face one rank down, or would but for their lists.

    Moved and relabelled simplices and cross polytopes; a moved 5-simplex
    whose vertex 2 lies on the line through vertices 0 and 1, or on
    vertex 0, so that every face listed from (0, 1, 2) resumes a degenerate
    prefix; and that 5-simplex with every list rotated by one place, so
    that no list's first ids list a face.
    """
    for n in (4, 5, 6):
        yield f"simplex{n}", pc.relabel(pc.rigid_motion(pc.gen_simplex(n), n), 3)
    for n in (4, 5):
        yield f"cross{n}", pc.relabel(pc.rigid_motion(pc.gen_cross_polytope(n), n), 5)
    simplex = pc.rigid_motion(pc.gen_simplex(5), 2)
    v = list(simplex.vertices)
    for label, point in (("midpoint", tuple((a + b) / 2 for a, b in zip(v[0], v[1]))), ("repeated", v[0])):
        yield f"simplex5-{label}", PLSurface(simplex.poset, vertices=tuple(v[:2] + [point] + v[3:]))
    lists = {d: [ids[1:] + ids[:1] for ids in rows] for d, rows in simplex.poset.vertex_ids.items()}
    yield "simplex5-rotated", PLSurface(FacePoset(5, {0: 6}, vertex_ids=lists), vertices=simplex.vertices)


def test_geometry_pass_matches_reference():
    # in vertex mode, preflight's report, points and projections are those
    # of every face's own elimination from scratch (_face_geometry without
    # a prefix) and complementary_projection of its basis: resuming a
    # simplex and the back-substitution leave every table as it was
    outcomes = Counter()
    for label, s in list(geometry_families()) + list(_resuming_surfaces()):
        prepared = preflight(s)
        if s.mode != "vertices" or any(v.code != "DEGENERATE_FACE" for v in prepared.report.violations):
            continue
        poset, n = s.poset, s.n
        coords = [homogeneous(v) for v in s.vertices]
        points, bases, defects = {0: coords}, [], []
        for d in filter(None, (poset.dim_low, poset.dim_mid, poset.dim_top)):
            points[d] = []
            for f in poset.faces(d):
                point, basis, defect = surface_mod._face_geometry(d, [coords[v] for v in poset.vertex_ids[d][f.index]])
                points[d].append(point)
                if d == poset.dim_low:
                    bases.append([row for _, row in basis])
                if defect is not None:
                    defects.append(pc.Violation("DEGENERATE_FACE", f, defect))
        if n > 3:
            del points[0]
            projections = [None if defects else pc.complementary_projection(b, n) for b in bases]
        else:
            projections = [pc.complementary_projection((), 3)] * poset.count(0)
        assert prepared.report.violations == tuple(defects), label
        assert prepared.points == points and prepared.projections == projections, label
        outcomes[n > 3, prepared.ok] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 2, outcomes


def test_face_geometry_repeated_and_collinear_vertices():
    # faces whose vertex lists repeat a vertex or hold collinear vertices,
    # over integer points, points with one shared weight and mixed weights
    rng = random.Random(41)
    defects = Counter()
    for trial in range(4000):
        n = rng.randint(3, 6)
        dim = rng.randint(0, n - 1)
        dens = rng.choice([(1,), (3,), (1, 2, 3, 6)])
        pts = [tuple(F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)) for _ in range(rng.randint(1, dim + 3))]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(pts), rng.choice(pts)
            t = F(rng.randint(-3, 3), rng.choice(dens))
            pts.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
        verts = [rng.randrange(len(pts)) for _ in range(rng.randint(1, len(pts) + 2))]
        points = [homogeneous(pts[v]) for v in verts]
        got = surface_mod._face_geometry(dim, points)
        assert same_face_geometry(got, reference_face_geometry(dim, points), n), (pts, verts, dim)
        defects[got[2] is None] += 1
    assert min(defects.values()) >= 1000, defects


def _star_through(surface, face):
    """An (n-3)-face whose star holds ``face``, read off the upward records; the first one when ``face`` is None.

    No link is walked: a face listed with an id out of range lies in no
    facet, so the links through it do not close.
    """
    poset = surface.poset

    def star(c):
        mid = poset.up(c)
        return {c, *mid, *(h for g in mid for h in poset.up(g))}

    return next(c for c in poset.faces(poset.dim_low) if face is None or face in star(c))


def test_preflight_rejection_texts(cube):
    # each rejection the geometry pass gives before any geometry and each
    # bad witness, with its exact text, and validate_poset's for a vertex id
    # out of range; verify_face at a star through the bad face (any star
    # when no face is named) answers verify's code, as every star does
    eq = as_equations(cube)
    eq4 = as_equations(pc.gen_hypercube(4))
    h, v0, h4 = Face(2, 1), Face(0, 0), Face(3, 2)
    short = cube.vertices[:1] + (cube.vertices[1][:2],) + cube.vertices[2:]
    long = cube.vertices[:1] + (cube.vertices[1] + (F(0),),) + cube.vertices[2:]
    fe = eq.equations[h.index]
    zero = FacetEquation((F(0),) * 3, fe.offset)
    wide = FacetEquation(fe.normal + (F(0),), fe.offset)
    off = tuple(x + a for x, a in zip(eq.witnesses[2][h.index], fe.normal))  # along the normal
    e0 = Face(1, 0)

    def listing(ids):  # the cube with edge e0's vertex list replaced
        return PLSurface(replace_records(cube.poset, verts={e0: ids}), vertices=cube.vertices)

    cases = [
        (PLSurface(cube.poset, vertices=cube.vertices[:-1]), ("MISSING_COORDS", None, "8 vertices declared, 7 coordinates")),
        (PLSurface(cube.poset, vertices=short), ("MISSING_COORDS", None, "coordinate of wrong length")),
        (PLSurface(cube.poset, vertices=long), ("MISSING_COORDS", None, "coordinate of wrong length")),
        *[(listing(ids), ("INVALID_ID", e0, "vertex index out of range")) for ids in [(0, 99), (0, -1), (-8, 1)]],
        (replace_geometry(eq, equations={h: None}), ("MISSING_EQUATION", h, "facet without equation")),
        (replace_geometry(eq4, equations={h4: None}), ("MISSING_EQUATION", h4, "facet without equation")),
        (replace(eq, equations=eq.equations[:-1]), ("MISSING_EQUATION", Face(2, 5), "facet without equation")),
        (replace_geometry(eq, equations={h: wide}), ("BAD_NORMAL", h, "normal of length 4, not 3")),
        (replace_geometry(eq, equations={h: zero}), ("ZERO_NORMAL", h, "facet normal is zero")),
        (replace_geometry(eq, witnesses={v0: None}), ("BAD_WITNESS", v0, "missing witness point")),
        (replace(eq, witnesses={**eq.witnesses, 0: eq.witnesses[0][:-1]}), ("BAD_WITNESS", Face(0, 7), "missing witness point")),
        (replace_geometry(eq, witnesses={v0: eq.witnesses[0][0] + (F(0),)}), ("BAD_WITNESS", v0, "witness of length 4, not 3")),
        (replace_geometry(eq, witnesses={h: eq.witnesses[2][h.index][:2]}), ("BAD_WITNESS", h, "witness of length 2, not 3")),
        (replace_geometry(eq, witnesses={h: off}), ("BAD_WITNESS", h, f"witness not on facet {h}")),
    ]
    for surface, expected in cases:
        assert preflight(surface).report.violations == (pc.Violation(*expected),)
        verdict = pc.verify(surface)
        assert (verdict.kind, verdict.witness, verdict.reason) == ("INVALID", expected[1], expected[0])
        assert verify_face(surface, _star_through(surface, expected[1])) == (False, expected[0]), expected


def test_preflight_on_upward_references_outside_the_records():
    # equations mode: an edge or facet reference outside the records, even
    # beside a good one, is validate_poset's INVALID_ID, and preflight stops
    # there, before the geometry pass reads the upward tables
    eq = pc.as_equations(pc.gen_hypercube(3))
    ups = eq.poset.up_ids[0][0]
    cases = [(Face(0, 0), (-1,) + ups[1:], Face(1, -1))]
    cases += [(Face(1, 3), (bad, eq.poset.up_ids[1][3][1]), Face(2, bad)) for bad in (-1, 6)]
    for face, refs, target in cases:
        surface = pc.PLSurface(replace_records(eq.poset, up={face: refs}), equations=eq.equations, witnesses=eq.witnesses)
        assert preflight(surface).report == validate_poset(surface.poset, surface.mode)
        assert pc.Violation("INVALID_ID", face, f"bad upward reference {target}") in preflight(surface).report.violations
