from fractions import Fraction

import pytest

import plconvex as pc
from plconvex.exactgeom import DegenerateFaceError, Eliminator, as_vec, dehomogenise, dot
from plconvex.poset import Face, FacePoset
from plconvex.surface import (
    FacetEquation,
    PLSurface,
    as_equations,
    check_realization,
    direction_space,
    interior_point,
    prepare,
)

F = Fraction


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
    assert direction_space(cube, Face(0, 0)) == ()


def test_direction_space_tesseract_edge(tesseract):
    # the edge from (0,0,0,0) to (1,0,0,0)
    target = None
    for e in tesseract.poset.faces(1):
        vs = tesseract.poset.vertex_lists[e]
        pts = [tesseract.vertices[v] for v in vs]
        if set(pts) == {as_vec([0, 0, 0, 0]), as_vec([1, 0, 0, 0])}:
            target = e
            break
    basis = direction_space(tesseract, target)
    assert len(basis) == 1
    d = basis[0]
    assert d[1] == d[2] == d[3] == 0 and d[0] != 0


def test_direction_space_degenerate():
    # an "edge" whose two endpoints coincide
    poset = FacePoset(
        n=4,
        faces_per_dim={0: 2, 1: 1, 2: 0, 3: 0},
        incidence_up={Face(1, 0): ()},
        vertex_lists={Face(1, 0): (0, 1)},
    )
    s = PLSurface(poset, vertices=(as_vec([0, 0, 0, 0]), as_vec([0, 0, 0, 0])))
    with pytest.raises(DegenerateFaceError):
        direction_space(s, Face(1, 0))


def test_check_realization_accepts_cube(cube):
    assert check_realization(cube).ok


def test_check_realization_rejects_warped_facet(cube):
    dented = pc.dent(cube, 0, F(1, 4))
    report = check_realization(dented)
    assert not report.ok
    assert all(v.code == "DEGENERATE_FACE" for v in report.violations)
    # every complaint involves a nonplanar quad touching the moved vertex
    for v in report.violations:
        assert 0 in dented.poset.vertex_lists[v.face]


def test_check_realization_rejects_collapsed_edge(cube):
    verts = list(cube.vertices)
    verts[1] = verts[0]
    broken = PLSurface(cube.poset, vertices=tuple(verts))
    report = check_realization(broken)
    assert any(v.code == "DEGENERATE_FACE" for v in report.violations)


def test_as_equations_cube_round(cube):
    eq = as_equations(cube)
    assert eq.mode == "equations"
    assert check_realization(eq).ok
    # every witness satisfies its facet's equation
    for h, fe in eq.equations.items():
        assert dot(fe.normal, eq.witnesses[h]) == fe.offset


def test_witness_moved_along_its_edge_is_trusted():
    # witnesses are only checked against their facet planes: moving an
    # edge's witness along the edge line keeps the input valid, and the
    # verdict follows the moved point
    eq = as_equations(pc.gen_hypercube(3))
    edge, a, b = Face(1, 0), Face(0, 0), Face(0, 1)
    assert {a, b} == {v for v in eq.poset.faces(0) if edge in eq.poset.up(v)}
    step = tuple(y - x for x, y in zip(eq.witnesses[a], eq.witnesses[b]))
    expected = {F(1, 2): ("INVALID", "ZERO_DIRECTION"), F(1): ("NOT_CONVEX", "WRONG_TURN_SIGN")}
    for t, (kind, reason) in expected.items():
        wits = {**eq.witnesses, edge: tuple(w + t * d for w, d in zip(eq.witnesses[edge], step))}
        moved = PLSurface(eq.poset, equations=eq.equations, witnesses=wits)
        assert check_realization(moved).ok
        verdict = pc.verify(moved)
        assert (verdict.kind, verdict.witness, verdict.reason) == (kind, b, reason)


def test_as_equations_bad_witness_detected(cube):
    eq = as_equations(cube)
    wits = dict(eq.witnesses)
    h = Face(2, 0)
    wits[h] = tuple(c + 1 for c in wits[h])
    broken = PLSurface(eq.poset, equations=eq.equations, witnesses=wits)
    report = check_realization(broken)
    assert any(v.code == "BAD_WITNESS" for v in report.violations)


def test_check_realization_rejects_wrong_length_normal(cube):
    # one coordinate too many used to be dropped silently (a YES), one too
    # few surfaced as a misleading BAD_WITNESS
    eq = as_equations(cube)
    h = Face(2, 3)
    for normal in (eq.equations[h].normal + (F(0),), eq.equations[h].normal[:-1]):
        equations = {**eq.equations, h: FacetEquation(normal, eq.equations[h].offset)}
        broken = PLSurface(eq.poset, equations=equations, witnesses=eq.witnesses)
        report = check_realization(broken)
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
def test_prepare_matches_single_face_entry_points(surface):
    prepared = prepare(surface)
    assert prepared.ok and prepared.report == check_realization(surface)
    poset = surface.poset
    faces = [f for d in (poset.dim_low, poset.dim_mid, poset.dim_top) for f in poset.faces(d)]
    assert list(prepared.points) == faces
    for f in faces:
        assert dehomogenise(*prepared.points[f]) == interior_point(surface, f)
    assert list(prepared.kernels) == list(poset.faces(poset.dim_low))
    for f in poset.faces(poset.dim_low):
        assert prepared.kernels[f] == direction_space(surface, f)


def test_eliminator_gets_integer_rows(monkeypatch):
    rows = []
    add = Eliminator.add

    def spy(self, v):
        rows.append(v)
        return add(self, v)

    monkeypatch.setattr(Eliminator, "add", spy)
    surfaces = [pc.gen_prism(8), pc.rigid_motion(pc.gen_hypercube(4), 1)]
    surfaces += [pc.rigid_motion(pc.gen_simplex(5), 2), pc.dent(pc.gen_cross_polytope(3), 0, F(1, 3))]
    for surface in surfaces:
        assert prepare(surface).ok
        for f in surface.poset.faces(surface.poset.dim_low):
            direction_space(surface, f)
            interior_point(surface, f)
    assert len(rows) > 500
    assert all(type(r) is tuple and all(type(x) is int for x in r) for r in rows)


def test_as_equations_direction_space(tesseract):
    eq = as_equations(tesseract)
    for e in eq.poset.faces(1):
        basis = direction_space(eq, e)
        assert len(basis) == 1
    # and the fan pipeline agrees with vertex mode on the verdict
    assert pc.verify(eq).kind == pc.verify(tesseract).kind == "CONVEX"


def test_equations_mode_underdetermined_face():
    # two coplanar facets cannot pin down their shared vertex's direction space
    split = pc.split_facet_cube()
    eq = as_equations(split)
    # vertex 8 sits between the two coplanar top rectangles and the
    # pentagon; its incident facet normals span only rank 2
    report = check_realization(eq)
    assert any(
        v.code == "DEGENERATE_FACE" and v.face == Face(0, 8) for v in report.violations
    )
