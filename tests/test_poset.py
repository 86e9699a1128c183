import dataclasses
from fractions import Fraction

import pytest

import plconvex as pc
from plconvex.poset import Face, FacePoset, LinkCycleError, ValidationReport, Violation, link_cycle

from conftest import crowned_prism, cycle_faces, cyclic_variants, geometry_families, pinched_tube, reference_link_cycle, replace_records


def test_validate_cube_ok(cube):
    assert pc.validate_poset(cube.poset, cube.mode).ok


def test_validate_poset_takes_the_surface_mode(cube):
    # the mode is the surface's, never read off the poset: a vertex-mode
    # cube without vertex lists is invalid to validate_poset as to verify;
    # a vertex has no list, so the first face without one is edge 0
    bare = pc.PLSurface(FacePoset(3, dict(cube.poset.faces_per_dim), dict(cube.poset.up_ids)), vertices=cube.vertices)
    with pytest.raises(TypeError):
        pc.validate_poset(bare.poset)
    report = pc.validate_poset(bare.poset, bare.mode)
    assert (report.violations[0].code, report.violations[0].face) == ("MISSING_VERTEX_LIST", Face(1, 0))
    v = pc.verify(bare)
    assert (v.kind, v.witness, v.reason) == ("INVALID", Face(1, 0), "MISSING_VERTEX_LIST")
    # vertex mode checks lists only: a bad upward record adds nothing
    assert pc.validate_poset(replace_records(bare.poset, up={Face(1, 0): (0, 9)}), bare.mode) == report


def test_validate_catches_bad_reference(cube):
    bad = _cube_with(cube, up={Face(1, 0): (0, 6)})  # facet 6 does not exist
    report = pc.validate_poset(bad, "equations")
    assert not report.ok
    assert any(v.code == "INVALID_ID" for v in report.violations)


def test_validate_missing_rank(tesseract):
    # a rank without lists, so without count or records, is reported once, as missing
    p = tesseract.poset
    lists = {d: rows for d, rows in p.vertex_ids.items() if d != 1}
    bad = FacePoset(4, {0: p.count(0)}, vertex_ids=lists)
    assert 1 not in bad.faces_per_dim and bad.up_ids[1] == []
    report = pc.validate_poset(bad, "vertices")
    assert report.violations == (Violation("MISSING_RANK", None, "no faces of dimension 1"),)
    # the same in equations mode, without the rank's count and records
    eq = pc.as_equations(tesseract).poset
    bad = FacePoset(4, {d: c for d, c in eq.faces_per_dim.items() if d != 1}, {d: rows for d, rows in eq.up_ids.items() if d != 1})
    assert pc.validate_poset(bad, "equations") == report


@pytest.mark.parametrize("dim", [1, 2])
def test_validate_rows_of_a_dimension_without_count(cube, dim):
    # equations mode: without a count for its dimension a face is out of
    # range, as a row and as an upward reference
    eq = pc.as_equations(cube).poset
    counts = {d: c for d, c in eq.faces_per_dim.items() if d != dim}
    report = pc.validate_poset(FacePoset(3, counts, eq.up_ids), "equations")
    rows = [v.face for v in report.violations if v.message == "face index out of range"]
    refs = [v.face for v in report.violations if v.message.startswith("bad upward reference")]
    if dim == 1:
        assert rows == [Face(1, i) for i in range(12)] and refs == [Face(0, i) for i in range(8) for _ in range(3)]
    else:
        assert rows == [] and refs == [Face(1, i) for i in range(12) for _ in range(2)]


def test_validate_equations_poset_may_count_vertices(tesseract):
    # in equations mode at n >= 4 a vertex count is not an unexpected rank
    eq = pc.as_equations(tesseract)
    counted = FacePoset(4, {0: 16, **eq.poset.faces_per_dim}, eq.poset.up_ids)
    assert pc.validate_poset(counted, "equations").ok


def test_vertex_poset_containment_is_not_strict():
    # a face lies in a coface whose vertex set equals its own
    p = FacePoset(3, {0: 3}, vertex_ids={1: [(0, 1), (0, 2), (1, 2)], 2: [(0, 1, 2), (0, 1)]})
    assert p.up_ids[1] == [(0, 1), (0,), (0,)]


def test_validate_rejects_intermediate_rank():
    # lists of a rank that the format does not store for n = 5 count its faces
    p = pc.gen_hypercube(5).poset
    bad = FacePoset(5, {0: p.count(0)}, vertex_ids={**p.vertex_ids, 1: [(0, 1)] * 4})
    assert bad.count(1) == 4
    report = pc.validate_poset(bad, "vertices")
    assert any(v.code == "EXTRA_RANK" for v in report.violations)


def test_vertex_poset_incidences_are_its_lists(cube):
    # an edge listed inside other facets than before lies in those: the
    # incidences follow the lists, so validate_poset has none to check
    moved = replace_records(cube.poset, verts={Face(1, 0): (6, 7)})
    (other,) = [i for i, vs in enumerate(cube.poset.vertex_ids[1]) if vs == (6, 7)]
    assert moved.up_ids[1][0] == cube.poset.up_ids[1][other]
    assert 0 not in moved.up_ids[0][0] and 0 in moved.up_ids[0][6]
    assert pc.validate_poset(moved, "vertices").ok
    # the lists fix the counts above dimension 0; the vertex count is the
    # caller's, and a poset built without one has no vertices
    bare = FacePoset(3, {}, vertex_ids=cube.poset.vertex_ids)
    assert bare.faces_per_dim == {0: 0, 1: 12, 2: 6} and bare.up_ids[0] == []
    # a vertex has no list: its own id is its vertex set, so an upward
    # record naming an edge that does not hold the vertex cannot be built
    edge = next(i for i, vs in enumerate(cube.poset.vertex_ids[1]) if 0 not in vs)
    with pytest.raises(ValueError, match="upward tables or face counts that the vertex lists do not imply"):
        replace_records(cube.poset, up={Face(0, 0): (*cube.poset.up_ids[0][0][:2], edge)})


def test_check_closed_cube(cube):
    assert pc.check_closed(cube.poset).ok


def test_check_closed_missing_facet(cube):
    p = cube.poset
    gone = 5  # the last facet
    up = {**p.up_ids, 1: [tuple(h for h in ups if h != gone) for ups in p.up_ids[1]]}
    counts = dict(p.faces_per_dim)
    counts[2] -= 1
    lists = {**p.vertex_ids, 2: p.vertex_ids[2][:gone]}
    open_cube = FacePoset(3, counts, up, lists)
    report = pc.check_closed(open_cube)
    assert len(report.violations) == 4  # the four rim edges
    assert all(v.code == "NOT_CLOSED" for v in report.violations)


def test_three_squares_on_one_edge_not_closed():
    f = Fraction
    coords = [
        (f(0), f(0), f(0)),
        (f(1), f(0), f(0)),
        (f(0), f(1), f(0)),
        (f(1), f(1), f(0)),
        (f(0), f(0), f(1)),
        (f(1), f(0), f(1)),
        (f(0), f(1), f(1)),  # unused by design
    ]
    polys = [[0, 1, 3, 2], [0, 1, 5, 4], [0, 1, 5, 6]]
    s = pc.surface_from_polygons(coords, polys)
    report = pc.check_closed(s.poset)
    assert any(v.code == "NOT_CLOSED" for v in report.violations)


def test_check_connected(cube, octahedron):
    assert pc.check_connected(cube.poset).ok
    assert pc.check_connected(octahedron.poset).ok


def test_disjoint_union_not_connected(cube):
    p = cube.poset
    counts = {d: 2 * c for d, c in p.faces_per_dim.items()}

    def doubled(table, above):
        """Each row of ``table`` twice, the copy's entries moved past the ``above(d)`` faces."""
        return {d: rows + [tuple(g + p.faces_per_dim[above(d)] for g in ups) for ups in rows] for d, rows in table.items()}

    two = FacePoset(3, counts, doubled(p.up_ids, lambda d: d + 1), doubled(p.vertex_ids, lambda d: 0))
    report = pc.check_connected(two)
    assert any(v.code == "NOT_CONNECTED" for v in report.violations)


def test_link_cycle_cube_vertex(cube):
    cyc = link_cycle(cube.poset, Face(0, 0))
    assert len(cyc) == 6 and all(type(f) is int for f in cyc)
    faces = cycle_faces(cube.poset, cyc)
    assert faces[0] == min(cube.poset.up(Face(0, 0)))
    assert {f.dim for f in faces[0::2]} == {1}
    assert {f.dim for f in faces[1::2]} == {2}
    # alternation and incidence
    for g, h in zip(faces[0::2], faces[1::2]):
        assert Face(0, 0).index in cube.poset.vertex_lists[g]
        assert h in cube.poset.up(g)


@pytest.mark.parametrize("face", [Face(1, 0), Face(2, 3)])
def test_link_cycle_refuses_a_face_of_another_dimension(cube, face):
    with pytest.raises(ValueError) as info:
        link_cycle(cube.poset, face)
    assert str(info.value) == f"{face} is not an (n-3)-face"


@pytest.mark.parametrize("face", [Face(1, -1), Face(1, 12), Face(3, 0)])
def test_vertex_lists_view_refuses_a_face_out_of_range(cube, face):
    # Face(1, -1) names no face: it does not read the last row
    with pytest.raises(KeyError):
        cube.poset.vertex_lists[face]


def test_link_cycle_tesseract_edge(tesseract):
    for e in tesseract.poset.faces(1):
        cyc = link_cycle(tesseract.poset, e)
        assert len(cyc) // 2 == 3


def test_link_cycle_entry_count_invariant():
    for s in (pc.gen_hypercube(3), pc.gen_hypercube(4), pc.gen_cross_polytope(4), pc.gen_simplex(5)):
        poset = s.poset
        total = 0
        for f in poset.faces(poset.dim_low):
            cyc = link_cycle(poset, f)
            assert len(cyc) == 2 * len(poset.up(f))
            total += len(poset.up(f))
        incidences = sum(len(poset.up(f)) for f in poset.faces(poset.dim_low))
        assert total == incidences


def test_link_cycle_pinched_vertex():
    s = pinched_tube()
    assert pc.check_closed(s.poset).ok
    assert pc.check_connected(s.poset).ok
    with pytest.raises(LinkCycleError):
        link_cycle(s.poset, Face(0, 0))


def test_link_cycle_relabel_equivariance(cube):
    poset = cube.poset
    for seed in (1, 2, 3):
        shuffled = pc.relabel(cube, seed)
        # recover the vertex permutation from coordinates
        where = {v: i for i, v in enumerate(shuffled.vertices)}
        for v in range(8):
            old = cycle_faces(poset, link_cycle(poset, Face(0, v)))
            new_center = Face(0, where[cube.vertices[v]])
            new = cycle_faces(shuffled.poset, link_cycle(shuffled.poset, new_center))
            mapped = []
            for f in old:
                verts = tuple(sorted(where[cube.vertices[i]] for i in poset.vertex_lists[f]))
                match = [
                    g
                    for g in shuffled.poset.faces(f.dim)
                    if shuffled.poset.vertex_lists[g] == verts
                ]
                assert len(match) == 1
                mapped.append(match[0])
            assert new in set(cyclic_variants(mapped))


def _cube_with(cube, up=(), counts=None):
    """The equations-mode cube's poset with some upward records or counts replaced.

    A vertex-mode poset derives both from its lists, so only an
    equations-mode one can hold a hand-built record or count.
    """
    return replace_records(pc.as_equations(cube).poset, up=up, counts=counts)


@pytest.mark.parametrize("bad", [9, -1])
def test_check_connected_reports_out_of_range_facet(cube, bad):
    # an out-of-range facet reference used to raise KeyError; it is not a
    # facet, joins nothing, and validate_poset reports it
    poset = _cube_with(cube, up={Face(1, 0): (0, bad)})
    violation = Violation("INVALID_ID", Face(1, 0), f"bad upward reference {Face(2, bad)}")
    assert pc.validate_poset(poset, "equations").violations == (violation,)
    assert pc.check_connected(poset) == ValidationReport()


@pytest.mark.parametrize(
    "up, lists, expected",
    [
        # a table for dimension n-1, a record past the count, a record listing a facet twice
        ({Face(2, 0): ()}, {}, ("INVALID_ID", Face(2, 0), "incidences recorded at unexpected rank")),
        ({Face(1, 12): (0, 1)}, {}, ("INVALID_ID", Face(1, 12), "face index out of range")),
        ({Face(1, 0): (0, 0)}, {}, ("INVALID_ID", Face(1, 0), "duplicate upward reference")),
        ({}, {Face(1, 0): (0, 8)}, ("INVALID_ID", Face(1, 0), "vertex index out of range")),
    ],
)
def test_validate_poset_invalid_id_texts(cube, up, lists, expected):
    # upward records in equations mode, vertex lists in vertex mode
    if lists:
        report = pc.validate_poset(replace_records(cube.poset, verts=lists), "vertices")
    else:
        report = pc.validate_poset(_cube_with(cube, up=up), "equations")
    assert report.violations[0] == Violation(*expected)


@pytest.mark.parametrize("dim", [0, 1])
def test_validate_poset_missing_upward_record(cube, dim):
    # equations mode: a count above its upward table leaves the last face
    # without a record, at either rank that has upward incidences
    counts = dict(cube.poset.faces_per_dim)
    counts[dim] += 1
    report = pc.validate_poset(_cube_with(cube, counts=counts), "equations")
    assert report.violations[0] == Violation("INVALID_ID", Face(dim, counts[dim] - 1), "missing upward incidence record")


def test_check_closed_face_without_record_lies_in_no_facet(cube):
    counts = {**cube.poset.faces_per_dim, 1: 13}
    report = pc.check_closed(_cube_with(cube, counts=counts))
    assert report.violations == (Violation("NOT_CLOSED", Face(1, 12), "(n-2)-face lies in 0 facets"),)
    # a None record is no record: it lies in no facet and joins none, where
    # both checks raised TypeError; verify stops at validate_poset's INVALID_ID
    poset = _cube_with(cube, up={Face(1, 3): None})
    assert pc.check_closed(poset).violations == (Violation("NOT_CLOSED", Face(1, 3), "(n-2)-face lies in 0 facets"),)
    assert pc.check_connected(poset) == ValidationReport()
    eq = pc.as_equations(cube)
    v = pc.verify(pc.PLSurface(poset, equations=eq.equations, witnesses=eq.witnesses))
    assert (v.kind, v.witness, v.reason) == ("INVALID", Face(1, 3), "INVALID_ID")


@pytest.mark.parametrize("dim", [0, 1])
def test_none_upward_table_or_record_is_no_record(cube, dim):
    # a None upward table holds no records and a None record is no
    # record: validate_poset reports every face of the table missing, up
    # gives (), and each link walk through it and check_closed and
    # check_connected answer, where each raised TypeError
    eq = pc.as_equations(cube)
    table = dataclasses.replace(eq.poset, up_ids={**eq.poset.up_ids, dim: None})
    missing = [Violation("INVALID_ID", Face(dim, i), "missing upward incidence record") for i in range(cube.poset.count(dim))]
    assert pc.validate_poset(table, "equations").violations == tuple(missing)
    record = _cube_with(cube, up={Face(dim, 0): None})
    assert pc.validate_poset(record, "equations").violations == (missing[0],)
    for poset in (table, record):
        assert poset.up(Face(dim, 0)) == ()
        pc.check_closed(poset), pc.check_connected(poset)
        for walk in (link_cycle, reference_link_cycle):
            with pytest.raises(LinkCycleError):
                walk(poset, Face(0, 0))
        v = pc.verify(pc.PLSurface(poset, equations=eq.equations, witnesses=eq.witnesses))
        assert (v.kind, v.witness, v.reason) == ("INVALID", Face(dim, 0), "INVALID_ID")


def test_none_vertex_list_table_holds_no_lists(cube):
    # a None table of lists is a dimension without faces: MISSING_RANK,
    # where construction raised TypeError
    lists = {**cube.poset.vertex_ids, 1: None}
    poset = FacePoset(3, {0: 8}, vertex_ids=lists)
    assert poset.count(1) == 0 and poset.vertex_ids[1] == []
    assert pc.validate_poset(poset, "vertices").violations[0] == Violation("MISSING_RANK", None, "no faces of dimension 1")
    v = pc.verify(pc.PLSurface(poset, vertices=cube.vertices))
    assert (v.kind, v.witness, v.reason) == ("INVALID", None, "MISSING_RANK")


def test_validate_poset_ambient_dimension_below_3():
    report = pc.validate_poset(FacePoset(2, {0: 3, 1: 3}, {}, {}), "vertices")
    assert report.violations == (Violation("MISSING_RANK", None, "ambient dimension 2 < 3"),)


def test_check_connected_no_facets(cube):
    report = pc.check_connected(_cube_with(cube, counts={0: 8, 1: 12}))
    assert report.violations == (Violation("NOT_CONNECTED", None, "no facets"),)


@pytest.mark.parametrize(
    "up, message",
    [
        ({Face(0, 0): (0,)}, "fewer than two (n-2)-faces at center"),
        ({Face(1, 0): (0,)}, "Face(dim=1, index=0) lies in 1 facets"),
        ({Face(1, 0): (0, 1)}, "Face(dim=2, index=1) touches 1 incident (n-2)-faces"),
    ],
)
def test_link_cycle_valence_errors(cube, up, message):
    # the walk over indices raises what the reference walk over Faces raises
    poset = _cube_with(cube, up=up)
    for walk in (link_cycle, reference_link_cycle):
        with pytest.raises(LinkCycleError) as info:
            walk(poset, Face(0, 0))
        assert str(info.value) == message and info.value.face == Face(0, 0)


@pytest.mark.parametrize("center, up, message", [
    (Face(0, 8), {}, "fewer than two (n-2)-faces at center"),
    (Face(0, -1), {}, "fewer than two (n-2)-faces at center"),
    (Face(0, 0), {Face(0, 0): (0, 1, 12)}, "Face(dim=1, index=12) lies in 0 facets"),
    (Face(0, 0), {Face(0, 0): (-1, 0, 1)}, "Face(dim=1, index=-1) lies in 0 facets"),
])
def test_link_cycle_indices_outside_the_records(cube, center, up, message):
    # on a poset that validate_poset would reject, an index outside the
    # records names no face: it is never read from the end of a table
    with pytest.raises(LinkCycleError) as info:
        link_cycle(_cube_with(cube, up=up), center)
    assert str(info.value) == message


def _link_cycle_surfaces():
    for label, s in geometry_families():
        yield label, s
        yield f"{label}-relabel", pc.relabel(s, 5)
    for m in (8, 16):
        s = crowned_prism(m)
        yield f"crowned{m}", s
        yield f"crowned{m}-eq", pc.as_equations(s)
        yield f"crowned{m}-relabel", pc.relabel(s, 5)


def test_link_cycle_matches_reference():
    # the int cycle, read as Faces, is the reference walk's cycle on every
    # (n-3)-face of the geometry families, their relabelled copies and
    # crowned prisms, in both modes
    stars = 0
    for label, s in _link_cycle_surfaces():
        poset = s.poset
        for c in poset.faces(poset.dim_low):
            assert cycle_faces(poset, link_cycle(poset, c)) == reference_link_cycle(poset, c), (label, c)
            stars += 1
    assert stars > 2500, stars
