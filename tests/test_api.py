from collections import Counter
from dataclasses import fields
from inspect import signature

import plconvex as pc


def test_public_names_resolve_once():
    assert len(set(pc.__all__)) == len(pc.__all__)
    for name in pc.__all__:
        getattr(pc, name)


def test_fan_and_exactgeom_keep_only_what_is_read():
    # a fan is its directions, seen from an apex it does not store; a rank
    # is the width less the size of exactgeom.nullspace
    assert pc.Fan3._fields == ("dirs",)
    assert not hasattr(pc.exactgeom, "rank") and "rank" not in pc.__all__
    # preflight tables each star's projection and link cycle, and the
    # verifier takes no projection itself
    assert [f.name for f in fields(pc.PreparedSurface)] == ["report", "points", "projections", "cycles"]
    assert "complementary_projection" not in vars(pc.verifier)


def test_one_front_end_and_one_truth_spelling():
    # preflight is the one front end that verify and verify_face read, so
    # the star-restricted validation pass, the public geometry pass and the
    # private front end are gone; a report's truth is .ok
    gone = [(pc.surface, "_prepare"), (pc.surface, "prepare"), (pc.surface, "REPORT_CODES"), (pc.poset, "_uncontained")]
    gone += [(pc.verifier, "INVALID_STAR_REASONS"), (pc.verifier, "_front_end"), (pc.ValidationReport, "__bool__")]
    assert [name for owner, name in gone if name in vars(owner)] == []
    assert "prepare" not in pc.__all__ and not hasattr(pc, "prepare")


def test_one_winding_count_and_one_fan_constructor():
    # _wound_once is the package's one winding count; a fan is built by
    # build_fan or from int triples, and the fan layer converts nothing
    gone = ["rotation_index", "_lower_half", "OppositeDirectionsError", "homogeneous"]
    assert [name for name in gone if name in vars(pc.fan)] == []
    assert "rotation_index" not in pc.__all__ and "OppositeDirectionsError" not in pc.__all__
    assert "from_entries" not in vars(pc.Fan3)


def test_a_fan_is_its_directions():
    # an entry's kind is its position (rays even, cells odd) and its source
    # face the link cycle's entry, so neither is stored, and the classifier
    # reads the fold's positions instead of a kind tuple
    assert pc.Fan3._fields == ("dirs",)
    assert "FanEntry" not in vars(pc.fan) and "FanEntry" not in pc.__all__ and not hasattr(pc, "FanEntry")
    assert "kinds" not in pc.fan.fan_is_convex.__code__.co_names
    assert list(signature(pc.fan._wedge_check).parameters) == ["dirs", "crosses", "dots"]
    fan = pc.Fan3(((1, 0, 0), (1, 1, 0), (0, 1, 0), (1, 1, 1)))
    assert fan.entries == (("ray", (1, 0, 0)), ("cell", (1, 1, 0)), ("ray", (0, 1, 0)), ("cell", (1, 1, 1)))


def test_one_elimination_per_facet():
    # facet_equation goes through _face_geometry, so the surface layer has
    # no separate vertex-difference helper
    assert "_difference" not in vars(pc.surface)


def test_as_equations_reduces_each_face_once(monkeypatch):
    # each face of dims n-3, n-2, n-1 gets one _face_geometry call, a facet's
    # giving both its witness and its equation: 80 + 40 + 10 on the 5-cube;
    # a face is told apart by its dimension and its vertices' points.  A
    # facet's normal is one _free_basis of its echelon rows, with no second
    # elimination: nullspace is never called, by as_equations or facet_equation
    calls = Counter()
    face_geometry, free_basis = pc.surface._face_geometry, pc.surface._free_basis

    def spy(dim, points):
        calls[dim, tuple(points)] += 1
        return face_geometry(dim, points)

    def basis_spy(pivots, width):
        calls["_free_basis"] += 1
        return free_basis(pivots, width)

    def no_nullspace(*args):
        raise AssertionError("nullspace called")

    monkeypatch.setattr(pc.surface, "_face_geometry", spy)
    monkeypatch.setattr(pc.surface, "_free_basis", basis_spy)
    monkeypatch.setattr(pc.exactgeom, "nullspace", no_nullspace)
    assert "nullspace" not in vars(pc.surface)
    cube5 = pc.gen_hypercube(5)
    pc.as_equations(cube5)
    assert calls.pop("_free_basis") == cube5.poset.count(4) == 10
    assert set(calls.values()) == {1} and sum(calls.values()) == 130
    assert Counter(dim for dim, _ in calls) == {d: cube5.poset.count(d) for d in (2, 3, 4)}
    calls.clear()
    for h in cube5.poset.faces(4):
        pc.facet_equation(cube5, h)
    assert calls.pop("_free_basis") == 10 and sum(calls.values()) == 10


def _count_face_hashes(run):
    """The number of ``Face.__hash__`` calls that ``run()`` makes."""
    calls = Counter()
    tuple_hash = tuple.__hash__

    def counting(face):
        calls["hash"] += 1
        return tuple_hash(face)

    pc.Face.__hash__ = counting
    try:
        run()
    finally:
        del pc.Face.__hash__
    return calls["hash"]


def test_faces_are_indices_on_the_hot_path():
    # the tables from parse_pls to build_fan are per-dimension lists: a
    # parsed gen_prism(256) (512 vertices, 1,536 incidences) is read and
    # decided without hashing a Face per incidence
    text = pc.emit_pls(pc.gen_prism(256))
    assert _count_face_hashes(lambda: pc.parse_pls(text)) == 0
    surface = pc.parse_pls(text)
    assert _count_face_hashes(lambda: pc.verify(surface)) <= surface.poset.count(surface.poset.dim_low)
    assert pc.verify(surface).kind == "CONVEX"


def test_equations_mode_records_are_index_tables():
    # witnesses[d][i] and equations[h] are lists in the poset's shape: the
    # equations-mode copy of a moved gen_prism(256) is read, decided,
    # written and renamed without hashing a Face
    moved = pc.rigid_motion(pc.gen_prism(256), 1)
    text = pc.emit_pls(pc.as_equations(moved))
    surface = pc.parse_pls(text)
    poset = surface.poset
    dims = (poset.dim_low, poset.dim_mid, poset.dim_top)
    assert {d: len(rows) for d, rows in surface.witnesses.items()} == {d: poset.count(d) for d in dims}
    assert type(surface.equations) is list and len(surface.equations) == poset.count(poset.dim_top)
    assert surface.witnesses[0][3] == moved.vertices[3]
    for run in (lambda: pc.parse_pls(text), lambda: pc.verify(surface), lambda: pc.emit_pls(surface), lambda: pc.relabel(surface, 3)):
        assert _count_face_hashes(run) == 0
    assert pc.verify(surface).kind == "CONVEX"
