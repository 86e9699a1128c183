import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import plconvex as pc
import plconvex.exactgeom as exactgeom_mod
import plconvex.fan as fan_mod
import plconvex.surface as surface_mod
import plconvex.verifier as verifier_mod
from plconvex.exactgeom import as_vec
from plconvex.instances import circle_points
from plconvex.poset import Face, FacePoset, check_closed, check_connected, validate_poset
from plconvex.surface import FacetEquation, PLSurface
from plconvex.verifier import preflight, verify, verify_face

from conftest import (
    crowned_prism,
    cycle_faces,
    duoprism,
    geometry_families,
    locally_nonconvex_vertices,
    pinched_tube,
    random_same_kernel_projection,
    reference_link_cycle,
    reflex_adjacent_vertices,
    replace_geometry,
    replace_records,
    star_under_projection,
    zigzag_bipyramid,
)

F = Fraction


def test_cube_convex(cube):
    v = verify(cube)
    assert v.kind == "CONVEX"
    assert v.witness is None and v.reason is None
    # every star contributes 2k entries
    assert v.entries_checked == 2 * sum(len(cube.poset.up(f)) for f in cube.poset.faces(0))


@pytest.mark.parametrize("make", [pc.gen_schonhardt, lambda: pc.gen_dented_cube(2), lambda: pc.relabel(pc.gen_dented_cube(2), 5)])
def test_early_exit_counts_entries_up_to_the_witness(make):
    # without collect_all the check stops at the witness: entries_checked
    # counts the stars up to it, each 2k entries, and no star after it
    s = make()
    first, every = verify(s), verify(s, collect_all=True)
    low = s.poset.dim_low
    upto = sum(len(pc.link_cycle(s.poset, f)) for f in s.poset.faces(low) if f.index <= first.witness.index)
    assert first.kind == every.kind == "NOT_CONVEX" and first.witness == every.witness
    assert first.entries_checked == upto < every.entries_checked


def test_simplex_boundary_in_r4_convex():
    v = verify(pc.gen_simplex(4))
    assert v.kind == "CONVEX"


def test_schonhardt_not_convex(schonhardt):
    v = verify(schonhardt, collect_all=True)
    assert v.kind == "NOT_CONVEX"
    expected = locally_nonconvex_vertices(schonhardt)
    assert expected
    assert {f.index for f, _ in v.failures} == expected
    # here the local defects coincide with the reflex-edge endpoints
    assert expected == reflex_adjacent_vertices(schonhardt)
    assert v.witness == Face(0, min(expected))
    assert pc.oracle_verdict(schonhardt).convex is False


@pytest.mark.parametrize("m", [8, 16])
def test_zigzag_bipyramid_fails_at_every_star(m):
    s = zigzag_bipyramid(m)
    v = verify(s, collect_all=True)
    assert v.kind == "NOT_CONVEX"
    expected = locally_nonconvex_vertices(s)
    assert {f.index for f, _ in v.failures} == expected == set(range(m + 2))
    assert pc.oracle_verdict(s).convex is False


def test_dented_cube_witness_near_dent():
    s = pc.gen_dented_cube()
    v = verify(s, collect_all=True)
    assert v.kind == "NOT_CONVEX"
    expected = locally_nonconvex_vertices(s)
    assert {f.index for f, _ in v.failures} == expected
    assert v.witness == Face(0, min(expected))
    # the witness shares a facet with the dent apex (vertex 8)
    apex_facets = {
        h for h in s.poset.faces(2) if 8 in s.poset.vertex_lists[h]
    }
    witness_facets = {
        h for h in s.poset.faces(2) if v.witness.index in s.poset.vertex_lists[h]
    }
    assert apex_facets & witness_facets
    assert pc.oracle_verdict(s).convex is False


# per base: the faces eliminated from scratch and the simplices resumed from
# a face one rank down; the 5-cube's faces are cubes, and at n = 3 no face
# of dimension 2 or more lies below the facets
ELIMINATIONS = {
    "hypercube5": (lambda: pc.gen_hypercube(5), 130, 0),
    "prism64": (lambda: pc.gen_prism(64), 258, 0),
    "cross5": (lambda: pc.relabel(pc.rigid_motion(pc.gen_cross_polytope(5), 1), 3), 80, 112),
    "simplex6": (lambda: pc.rigid_motion(pc.gen_simplex(6), 1), 35, 28),
    "cross4": (lambda: pc.gen_cross_polytope(4), 56, 16),
}


@pytest.mark.parametrize("name", list(ELIMINATIONS))
def test_verify_eliminates_each_face_at_most_once(name, monkeypatch):
    # surface._face_geometry runs one face's elimination; a face is told
    # apart by its dimension and its vertices' points; a vertex is its own
    # point and gets none, so prism64's 128 vertices are not counted.  Each
    # row a scan reduces is one _pivot call.  A fresh scan reduces at most
    # one row per point after the first; a simplex whose first ids list a
    # face of dimension 2 or more one rank down resumes that face's result,
    # computed once before it, and reduces its last row alone, so no row is
    # reduced twice for one face
    make, fresh, resumes = ELIMINATIONS[name]
    surface = make()
    eliminated, results = Counter(), {}
    rows, resumed = Counter(), []
    face_geometry, pivot = surface_mod._face_geometry, surface_mod._pivot

    def counting(dim, points, prefix=None):
        key = dim, tuple(points)
        eliminated[key] += 1
        before = rows["pivot"]
        results[key] = got = face_geometry(dim, points, prefix)
        scanned = rows["pivot"] - before
        if prefix is None:
            assert scanned <= len(points) - 1
        else:
            assert prefix == results[dim - 1, tuple(points[:-1])][:2]
            assert dim >= 3 and scanned == 1
            resumed.append(key)
        return got

    def counting_pivot(r):
        rows["pivot"] += 1
        return pivot(r)

    monkeypatch.setattr(surface_mod, "_face_geometry", counting)
    monkeypatch.setattr(surface_mod, "_pivot", counting_pivot)
    assert verify(surface).kind == "CONVEX"
    poset = surface.poset
    faces = sum(poset.count(d) for d in {poset.dim_low, poset.dim_mid, poset.dim_top} - {0})
    assert sum(eliminated.values()) == faces == fresh + resumes
    assert max(eliminated.values()) == 1 and all(dim > 0 for dim, _ in eliminated)
    assert len(resumed) == resumes


def _moved_bases():
    bases = (pc.gen_hypercube(5), pc.gen_cross_polytope(5), pc.gen_simplex(6), pc.gen_prism(8))
    return [pc.rigid_motion(s, 1) for s in bases]


@pytest.mark.parametrize("surface", _moved_bases(), ids=["hypercube5", "cross5", "simplex6", "prism8"])
def test_verify_takes_each_projection_once(surface, monkeypatch):
    # preflight tables every star's projection: in equations mode the incident
    # normals are its rows, so no nullspace is taken; in vertex mode each
    # (n-3)-face's projection comes off its basis in one _echelon_projection,
    # with no nullspace and no complementary_projection, and at n = 3 none
    # is taken, since every star shares the identity
    eq = pc.as_equations(surface)
    calls = Counter()

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        return wrapped

    for owner in (surface_mod, exactgeom_mod):
        for name in ("nullspace", "complementary_projection", "_echelon_projection"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    low = surface.poset.count(surface.poset.dim_low)
    assert verify(eq, collect_all=True).kind == "CONVEX"
    assert calls == Counter()
    assert verify(surface, collect_all=True).kind == "CONVEX"
    assert calls == (Counter(_echelon_projection=low) if surface.n > 3 else Counter())


def test_verify_face_cube_all_pointed(cube):
    for f in cube.poset.faces(0):
        assert verify_face(cube, f) == (True, "OK_POINTED")


def test_split_facet_cube_accepted():
    for diagonal in (False, True):
        s = pc.split_facet_cube(diagonal=diagonal)
        v = verify(s)
        assert v.kind == "CONVEX"
        assert pc.oracle_verdict(s).convex is True


def test_split_facet_cube_star_reasons():
    s = pc.split_facet_cube(diagonal=False)
    reasons = {f.index: verify_face(s, f).reason for f in s.poset.faces(0)}
    # the two inserted mid-edge vertices sit on a wedge line
    assert reasons[8] == "OK_FLAT"
    assert reasons[9] == "OK_FLAT"
    assert all(r == "OK_POINTED" for i, r in reasons.items() if i < 8)


def test_invalid_before_stars(cube):
    dented = pc.dent(cube, 0, F(1, 4))
    v = verify(dented)
    assert v.kind == "INVALID"
    assert v.reason == "DEGENERATE_FACE"
    # the star of the moved vertex holds its warped facets
    assert verify_face(dented, Face(0, 0)) == (False, "DEGENERATE_FACE")


def test_pinched_vertex_invalid():
    s = pinched_tube()
    v = verify(s)
    assert v.kind == "INVALID"
    assert v.reason == "NOT_SINGLE_CYCLE"
    assert v.witness == Face(0, 0)


def test_order_independence(schonhardt):
    bit = verify(schonhardt).kind
    faces = list(schonhardt.poset.faces(0))
    for seed in range(5):
        rng = random.Random(seed)
        rng.shuffle(faces)
        per_face = [verify_face(schonhardt, f).convex for f in faces]
        assert (all(per_face) and bit == "CONVEX") or (not all(per_face) and bit == "NOT_CONVEX")


def test_custom_projection_equals_fast_path(tesseract, schonhardt):
    rng = random.Random(11)
    for surface in (tesseract, schonhardt):
        prepared = preflight(surface)
        for f in surface.poset.faces(surface.poset.dim_low):
            base = verify_face(surface, f)
            for _ in range(5):
                proj = random_same_kernel_projection(prepared.projections[f.index], rng)
                assert star_under_projection(surface, f, proj, prepared) == base


def test_zero_direction_guard():
    # a (crafted) 2-face whose vertices all sit on the center's line: its
    # interior point projects exactly onto the apex.  The face is warped,
    # so the geometry pass rejects it first
    coords = (
        (F(0), F(0), F(0), F(0)),
        (F(1), F(0), F(0), F(0)),
        (F(2), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
    )
    g0, g1 = Face(2, 0), Face(2, 1)
    h0, h1 = Face(3, 0), Face(3, 1)
    center = Face(1, 0)
    poset = FacePoset(
        n=4,
        faces_per_dim={0: 4, 1: 1, 2: 2, 3: 2},
        up_ids={1: [(0, 1)], 2: [(0, 1), (0, 1)]},
        vertex_ids={
            1: [(0, 1)],
            2: [(0, 1, 2), (0, 1, 3)],  # g0 collapsed onto the center's line
            3: [(0, 1, 2, 3), (0, 1, 2, 3)],
        },
    )
    s = PLSurface(poset, vertices=coords)
    prepared = preflight(s)
    # the report is not ok, so preflight tables no projection: the center's
    # direction space is the x axis
    proj = pc.complementary_projection(((1, 0, 0, 0),), 4)
    cyc = (g0.index, h0.index, g1.index, h1.index)
    assert pc.link_cycle(poset, center) == cyc
    with pytest.raises(pc.ZeroDirectionError) as info:
        pc.build_fan(prepared.points, center, cyc, proj)
    assert info.value.face == g0
    assert prepared.report.violations[0] == pc.Violation("DEGENERATE_FACE", g0, "affine rank 1 != dim 2")
    assert verify_face(s, center) == (False, "DEGENERATE_FACE")
    # in equations mode a 2-face above an edge given the edge's own witness
    # is valid input, and its direction projects onto the apex
    eq = pc.as_equations(pc.gen_hypercube(4))
    e0 = Face(1, 0)
    g = eq.poset.up(e0)[0]
    moved = replace_geometry(eq, witnesses={g: eq.witnesses[1][0]})
    assert preflight(moved).ok
    v = verify(moved)
    assert (v.kind, v.witness, v.reason) == ("INVALID", e0, "ZERO_DIRECTION")
    assert v.entries_checked == 0  # the first star, whose fan was never built
    assert verify_face(moved, e0) == (False, "ZERO_DIRECTION")
    # the same for a facet's witness: the error names the cell, not a ray
    h = eq.poset.up(g)[0]
    cell = replace_geometry(eq, witnesses={h: eq.witnesses[1][0]})
    prepared = preflight(cell)
    assert prepared.ok
    proj = prepared.projections[e0.index]
    with pytest.raises(pc.ZeroDirectionError) as info:
        pc.build_fan(prepared.points, e0, pc.link_cycle(cell.poset, e0), proj)
    assert info.value.face == h


def test_verdict_flags():
    v = pc.Verdict("CONVEX")
    assert v.convex
    assert not pc.Verdict("NOT_CONVEX", witness=Face(0, 0), reason="NO_SUPPORT").convex


def test_empty_vertex_list_invalid(cube):
    # an empty vertex list is a missing one: validate_poset reports it,
    # and every star answers verify's code instead of raising
    edge = Face(1, 0)
    bad = PLSurface(replace_records(cube.poset, verts={edge: ()}), vertices=cube.vertices)
    report = pc.validate_poset(bad.poset, bad.mode)
    assert [(v.code, v.face) for v in report.violations] == [("MISSING_VERTEX_LIST", edge)]
    v = verify(bad, collect_all=True)
    assert (v.kind, v.witness, v.reason) == ("INVALID", edge, "MISSING_VERTEX_LIST")
    for f in bad.poset.faces(0):
        assert verify_face(bad, f) == (False, "MISSING_VERTEX_LIST")
    # preflight stops there: the geometry pass never reads the empty list
    assert preflight(bad).report == report


# the names perfbench's tracer wraps in the verifier's module globals
PREFLIGHT_STAGES = ("validate_poset", "check_closed", "check_connected")
STAR_STAGES = ("link_cycle", "build_fan", "fan_is_convex")


@pytest.mark.parametrize("surface", [pc.gen_hypercube(3), pc.gen_cross_polytope(4)], ids=["cube", "cross4"])
def test_verify_calls_its_stages_through_module_globals(surface, monkeypatch):
    calls = Counter()
    fan_sizes = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            result = real(*args, **kwargs)
            if name == "build_fan":
                fan_sizes.append(len(result.entries))
            return result

        return wrapped

    for name in PREFLIGHT_STAGES + STAR_STAGES:
        monkeypatch.setattr(verifier_mod, name, counting(name, getattr(verifier_mod, name)))
    assert verify(surface).kind == "CONVEX"
    poset = surface.poset
    stars = list(poset.faces(poset.dim_low))
    assert {name: calls[name] for name in PREFLIGHT_STAGES} == dict.fromkeys(PREFLIGHT_STAGES, 1)
    assert {name: calls[name] for name in STAR_STAGES} == dict.fromkeys(STAR_STAGES, len(stars))
    assert fan_sizes == [2 * len(poset.up(f)) for f in stars]


def test_verify_face_rejects_bad_witness():
    # a missing or wrong-length equations-mode witness on any face of the
    # star is BAD_WITNESS, the code verify gives; it used to raise
    # TypeError or IndexError, or with one coordinate too many, accept
    eq = pc.as_equations(pc.gen_hypercube(3))
    v0, v1, e0 = Face(0, 0), Face(0, 1), Face(1, 0)  # e0 joins v0 and v1
    w = eq.witnesses[0][0]
    cases = [(v0, None, (v0,)), (v0, w[:2], (v0,)), (v0, w + (F(0),), (v0,)), (e0, None, (v0, v1))]
    for face, witness, centers in cases:
        bad = replace_geometry(eq, witnesses={face: witness})
        verdict = verify(bad)
        assert (verdict.kind, verdict.witness, verdict.reason) == ("INVALID", face, "BAD_WITNESS")
        for center in centers:
            assert verify_face(bad, center) == (False, "BAD_WITNESS"), (face, witness, center)


# one seeded corruption per instance, of each kind: the code of the first
# violation of preflight's report, which verify and every star give
CORRUPTIONS = {
    "id_past_end": "INVALID_ID",
    "id_negative": "INVALID_ID",
    "list_emptied": "MISSING_VERTEX_LIST",
    "coordinate_dropped": "MISSING_COORDS",
    "coordinate_added": "MISSING_COORDS",
    "witness_dropped": "BAD_WITNESS",
    "witness_short": "BAD_WITNESS",
    "witness_long": "BAD_WITNESS",
    "witness_moved": "BAD_WITNESS",
    "normal_short": "BAD_NORMAL",
    "normal_long": "BAD_NORMAL",
    "normal_zeroed": "ZERO_NORMAL",
    "equation_dropped": "MISSING_EQUATION",
}
CORRUPTION_ROUNDS = 10


def _corruption_bases():
    vertex = [pc.gen_hypercube(3), pc.gen_hypercube(4), pc.gen_prism(6), pc.gen_cross_polytope(4), pc.gen_schonhardt()]
    return vertex + [pc.as_equations(s) for s in vertex[:4]]


def _corrupt(surface, kind, rng):
    """``surface`` with one record broken as ``kind`` says, and the face it breaks."""
    poset = surface.poset
    faces = [f for d in (poset.dim_low, poset.dim_mid, poset.dim_top) for f in poset.faces(d)]
    listed = [f for f in faces if f.dim]  # the faces with vertex lists: a vertex has none
    if kind in ("id_past_end", "id_negative", "list_emptied"):
        face = rng.choice(listed)
        ids = list(poset.vertex_lists[face])
        n_verts = len(surface.vertices)
        ids[rng.randrange(len(ids))] = n_verts + rng.randrange(3) if kind == "id_past_end" else -rng.randint(1, n_verts + 2)
        lists = {face: () if kind == "list_emptied" else tuple(ids)}
        return PLSurface(replace_records(poset, verts=lists), vertices=surface.vertices), face
    if kind.startswith("coordinate"):
        k = rng.randrange(len(surface.vertices))
        x = surface.vertices[k]
        x = x[:-1] if kind == "coordinate_dropped" else x + (F(rng.randint(-2, 2)),)
        return PLSurface(poset, vertices=surface.vertices[:k] + (x,) + surface.vertices[k + 1 :]), None
    if kind.startswith("witness"):
        face = rng.choice(faces)
        x = surface.witnesses[face.dim][face.index]
        if kind == "witness_short":
            x = x[:-1]
        elif kind == "witness_long":
            x = x + (F(0),)
        elif kind == "witness_moved":  # along the normal of a facet above the face
            above = [face]
            while above[0].dim < poset.dim_top:
                above = [h for g in above for h in poset.up(g)]
            normal = surface.equations[rng.choice(above).index].normal
            x = tuple(a + b for a, b in zip(x, normal))
        else:
            x = None
        return replace_geometry(surface, witnesses={face: x}), face
    face = rng.choice(list(poset.faces(poset.dim_top)))
    eq = surface.equations[face.index]
    normal = {
        "normal_short": eq.normal[:-1],
        "normal_long": eq.normal + (F(1),),
        "normal_zeroed": (F(0),) * len(eq.normal),
    }.get(kind)
    eq = None if normal is None else FacetEquation(normal, eq.offset)  # equation_dropped: None
    return replace_geometry(surface, equations={face: eq}), face


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_corrupted_records_agree_across_entry_points(kind):
    # differential: on each broken input verify, preflight and verify_face
    # never raise, preflight reports the broken face first, and a star
    # answers verify's code wherever the broken face is: the first and last
    # star, and the first star through the broken face
    reason = CORRUPTIONS[kind]
    mode = "vertices" if kind.startswith(("id", "list", "coordinate")) else "equations"
    rng = random.Random(kind)
    for base in _corruption_bases():
        if base.mode != mode:
            continue
        poset = base.poset
        stars = list(poset.faces(poset.dim_low))
        for _ in range(CORRUPTION_ROUNDS):
            surface, face = _corrupt(base, kind, rng)
            verdict = verify(surface)
            assert (verdict.kind, verdict.witness, verdict.reason) == ("INVALID", face, reason)
            report = preflight(surface).report
            assert (report.violations[0].code, report.violations[0].face) == (reason, face)
            through = next(c for c in stars if face in (None, c) or face in cycle_faces(poset, pc.link_cycle(poset, c)))
            for c in (stars[0], stars[-1], through):
                assert verify_face(surface, c) == (False, reason), (kind, face, c)


LIST_EDITS = ("swap", "append", "empty")


def _edit_list(surface, edit, rng):
    """Vertex-mode ``surface`` with one face's list edited by hand, as ``edit`` says.

    ``swap`` trades one listed id for a vertex the face did not list,
    ``append`` adds a copy of the list as a new face's (``_repeat_list``),
    and ``empty`` empties it.  The poset derives its incidences and
    counts from the edited lists.
    """
    poset = surface.poset
    face = rng.choice([f for d in (poset.dim_low, poset.dim_mid, poset.dim_top) if d for f in poset.faces(d)])
    if edit == "append":
        return _repeat_list(surface, face)
    ids = poset.vertex_ids[face.dim][face.index]
    if edit == "swap":
        old = rng.choice(ids)
        new = rng.choice([v for v in range(len(surface.vertices)) if v not in ids])
        ids = tuple(sorted({*ids, new} - {old}))
    else:
        ids = ()
    return PLSurface(replace_records(poset, verts={face: ids}), vertices=surface.vertices)


def _list_edit_bases():
    """The vertex-mode corruption bases and geometry families, labelled."""
    bases = [(f"base{k}", s) for k, s in enumerate(_corruption_bases()) if s.mode == "vertices"]
    return bases + [(label, s) for label, s in geometry_families() if s.mode == "vertices"]


LIST_EDIT_BASES = _list_edit_bases()


@pytest.mark.parametrize("label, base", LIST_EDIT_BASES, ids=[label for label, _ in LIST_EDIT_BASES])
def test_vertex_mode_surface_is_its_lists(label, base):
    # a hand-built vertex-mode poset is the surface its lists describe: after
    # any list edit verify agrees with the emit_pls -> parse_pls round trip
    # on kind, witness and reason whenever emit_pls writes the surface (an
    # appended list once counted only in the text, a NOT_SINGLE_CYCLE there
    # and CONVEX here); an emptied list is refused with verify's code
    rng = random.Random(label)
    for edit in LIST_EDITS:
        s = _edit_list(base, edit, rng)
        v = verify(s)
        try:
            text = pc.emit_pls(s)
        except ValueError as exc:
            assert edit == "empty" and str(exc) == f"MISSING_VERTEX_LIST: {v.witness}: no vertex list", exc
            continue
        w = verify(pc.parse_pls(text))
        assert (v.kind, v.witness, v.reason) == (w.kind, w.witness, w.reason), edit
    # upward tables or counts beside the lists must be what the lists imply
    poset = base.poset
    low, top = poset.dim_low, poset.dim_top
    assert FacePoset(poset.n, dict(poset.faces_per_dim), poset.up_ids, poset.vertex_ids) == poset
    dropped = {**poset.up_ids, low: [poset.up_ids[low][0][1:], *poset.up_ids[low][1:]]}
    with pytest.raises(ValueError, match="upward tables or face counts that the vertex lists do not imply"):
        FacePoset(poset.n, {0: poset.count(0)}, dropped, poset.vertex_ids)
    with pytest.raises(ValueError, match="upward tables or face counts that the vertex lists do not imply"):
        FacePoset(poset.n, {0: poset.count(0), top: poset.count(top) + 1}, vertex_ids=poset.vertex_ids)


POSET_CORRUPTIONS = ("up_dropped", "up_added", "up_out_of_range", "count_plus", "count_minus")


def _corrupt_poset(surface, kind, rng):
    """Equations-mode ``surface`` with one upward reference dropped, added or out of range, or one face count off by one."""
    poset = surface.poset
    up, counts = {d: list(rows) for d, rows in poset.up_ids.items()}, dict(poset.faces_per_dim)
    if kind.startswith("count"):
        counts[rng.choice(sorted(counts))] += 1 if kind == "count_plus" else -1
    else:
        d, i = rng.choice(sorted((d, i) for d, rows in up.items() for i in range(len(rows))))
        ups, above = list(up[d][i]), d + 1
        if kind == "up_dropped":
            del ups[rng.randrange(len(ups))]
        elif kind == "up_added":
            ups.append(rng.choice([g for g in range(poset.count(above)) if g not in ups]))
        else:
            ups[rng.randrange(len(ups))] = rng.choice([-1, poset.count(above)])
        up[d][i] = tuple(sorted(ups))
    return replace(surface, poset=replace(poset, up_ids=up, faces_per_dim=counts))


def _corrupted_posets(rng, kinds=POSET_CORRUPTIONS, rounds=1):
    """``(kind, surface)``: ``rounds`` poset corruptions of each kind on each equations-mode corruption base.

    A vertex-mode poset derives its upward tables and counts from its
    lists, so only an equations-mode one can hold a corrupted record.
    """
    for base in _corruption_bases():
        if base.mode == "equations":
            for kind in kinds:
                for _ in range(rounds):
                    yield kind, _corrupt_poset(base, kind, rng)


def _mutate_text(text, rng):
    """``text`` with one character dropped, inserted or replaced, or one span cut or repeated."""
    i, j = sorted((rng.randrange(len(text)), rng.randrange(len(text))))
    return rng.choice([
        text[:i] + text[i + 1 :],
        text[:i] + rng.choice('0123456789-/.,:[]{}" e') + text[i:],
        text[:i] + rng.choice('0123456789-/.,:[]{}" e') + text[i + 1 :],
        text[:i] + text[j:],
        text[:j] + text[i:j] + text[j:],
    ])


def test_poset_and_text_corruptions_never_raise():
    # seeded, on the corruption bases: no entry point raises on a broken
    # poset (equations mode, where the records are hand-built), verify
    # classifies every star when it gets that far, parse_pls
    # raises only its own two errors on mutated text, and every text that
    # emit_pls produced reads back to itself
    rng = random.Random(17)
    outcomes = Counter()
    for kind, s in _corrupted_posets(rng, rounds=9):
        v = verify(s, collect_all=True)
        outcomes[v.kind] += 1
        preflight(s), check_closed(s.poset), check_connected(s.poset)
        # verify_face shares verify's front end; its first and last star
        stars = list(s.poset.faces(s.poset.dim_low))
        for c in (stars[0], stars[-1]):
            check = verify_face(s, c)
            assert v.kind != "INVALID" or check == (False, v.reason), (kind, v, c)
    for base in _corruption_bases():
        text = pc.emit_pls(base)
        assert pc.emit_pls(pc.parse_pls(text)) == text
        for _ in range(60):
            try:
                parsed = pc.parse_pls(_mutate_text(text, rng))
            except (pc.ParseError, pc.SemanticError) as exc:
                outcomes[type(exc).__name__] += 1
                continue
            again = pc.emit_pls(parsed)
            assert pc.emit_pls(pc.parse_pls(again)) == again
            outcomes["parsed"] += 1
    assert outcomes["INVALID"] >= 150 and min(outcomes["ParseError"], outcomes["parsed"]) >= 50, outcomes


def _drop_up(surface, face, g):
    """Equations-mode ``surface`` with the upward reference from ``face`` to ``g`` dropped."""
    kept = tuple(x for x in surface.poset.up_ids[face.dim][face.index] if x != g.index)
    return replace(surface, poset=replace_records(surface.poset, up={face: kept}))


def _repeat_list(surface, face):
    """Vertex-mode ``surface`` with a copy of ``face``'s vertex list appended: a new face on the same vertices."""
    copy = Face(face.dim, surface.poset.count(face.dim))
    return replace(surface, poset=replace_records(surface.poset, verts={copy: surface.poset.vertex_ids[face.dim][face.index]}))


def _broken_schonhardt(mode):
    """Schönhardt with v2's link broken and v0's as it was, and the base it came from.

    Equations mode drops v2's reference to e1; vertex mode lists the
    edge from v2 to v5 twice, so that edge's facets each hold two edges
    at v2.
    """
    base = pc.gen_schonhardt()
    if mode == "equations":
        base = pc.as_equations(base)
        return base, _drop_up(base, Face(0, 2), Face(1, 1))
    return base, _repeat_list(base, Face(1, base.poset.vertex_ids[1].index((2, 5))))


@pytest.mark.parametrize("mode", ["vertices", "equations"])
def test_broken_link_is_invalid_before_any_star_is_classified(mode):
    # v2 of Schönhardt gets a broken link: the input passes every check
    # before the link walks, and v0's star, which the change leaves as it
    # was, fails first in face order, yet a broken link is no evidence
    # against convexity, so preflight reports it at v2, the input is
    # INVALID there, and so is every star of it
    base, broken = _broken_schonhardt(mode)
    with pytest.raises(pc.LinkCycleError) as info:
        pc.link_cycle(broken.poset, Face(0, 2))
    assert pc.preflight(broken) == pc.PreparedSurface(pc.ValidationReport((pc.Violation("NOT_SINGLE_CYCLE", Face(0, 2), str(info.value)),)))
    assert pc.link_cycle(broken.poset, Face(0, 0)) == pc.link_cycle(base.poset, Face(0, 0))
    v = verify(base)
    assert (v.kind, v.witness, v.reason) == ("NOT_CONVEX", Face(0, 0), "WRONG_TURN_SIGN")
    for f in broken.poset.faces(0):
        assert verify_face(broken, f) == (False, "NOT_SINGLE_CYCLE")
    for collect_all in (False, True):
        v = verify(broken, collect_all=collect_all)
        assert (v.kind, v.witness, v.reason, v.failures, v.entries_checked) == ("INVALID", Face(0, 2), "NOT_SINGLE_CYCLE", (), 0)
    # the geometry pass runs before the link walks: with a record missing
    # too, its violation is the one reported, and no link is tabled
    if mode == "equations":
        both, first = replace(broken, equations=broken.equations[:-1]), ("MISSING_EQUATION", Face(2, 7))
    else:
        both, first = replace(broken, vertices=broken.vertices[:-1]), ("MISSING_COORDS", None)
    prepared = pc.preflight(both)
    assert (prepared.report.violations[0][:2], prepared.cycles) == (first, [])
    v = verify(both)
    assert (v.reason, v.witness) == first


def _corrupted_surfaces():
    """The record corruptions of every kind and the poset corruptions, seeded, on the corruption bases."""
    for kind in CORRUPTIONS:
        mode = "vertices" if kind.startswith(("id", "list", "coordinate")) else "equations"
        rng = random.Random(kind)
        for base in _corruption_bases():
            if base.mode == mode:
                yield from (_corrupt(base, kind, rng)[0] for _ in range(3))
    yield from (s for _, s in _corrupted_posets(random.Random(29), rounds=5))


def _accepted_structure(surface):
    poset = surface.poset
    return validate_poset(poset, surface.mode).ok and check_closed(poset).ok and check_connected(poset).ok


def test_geometry_pass_runs_only_on_accepted_posets(monkeypatch):
    # preflight, and so verify and verify_face, run the geometry pass once
    # each exactly when validate_poset, check_closed and check_connected
    # accept the poset, so the pass never checks structure itself
    runs = []
    geometry_pass = verifier_mod._geometry_pass

    def spy(surface):
        runs.append(_accepted_structure(surface))
        return geometry_pass(surface)

    monkeypatch.setattr(verifier_mod, "_geometry_pass", spy)
    outcomes = Counter()
    for s in _corrupted_surfaces():
        runs.clear()
        preflight(s), verify(s), verify_face(s, next(s.poset.faces(s.poset.dim_low)))
        accepted = _accepted_structure(s)
        assert runs == ([True] * 3 if accepted else []), runs
        outcomes[accepted] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_preflight_ok_exactly_when_verify_is_no_front_end_invalid():
    # the one INVALID reason that verify gives past preflight is a star's
    # ZERO_DIRECTION; every other one is preflight's first violation
    broken = [_broken_schonhardt(mode)[1] for mode in ("vertices", "equations")]
    outcomes = Counter()
    for s in [*_corrupted_surfaces(), *(s for _, s in geometry_families()), *broken]:
        prepared, v = preflight(s), verify(s)
        assert prepared.ok == (v.kind != "INVALID" or v.reason == "ZERO_DIRECTION"), v
        if not prepared.ok:
            first = prepared.report.violations[0]
            assert (v.witness, v.reason) == (first.face, first.code)
        outcomes[prepared.ok, s.mode] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 10, outcomes


def _cube_lists(shift=0):
    """The vertex lists of the unit cube's edges and facets, every id moved up by ``shift``."""
    poset = pc.gen_hypercube(3).poset
    return {d: [tuple(v + shift for v in poset.vertex_lists[f]) for f in poset.faces(d)] for d in (1, 2)}


def _two_cubes():
    """Two disjoint unit cubes, the second moved by (3, 3, 3)."""
    corners = pc.gen_hypercube(3).vertices
    lists = {d: _cube_lists()[d] + _cube_lists(8)[d] for d in (1, 2)}
    far = tuple(tuple(x + 3 for x in v) for v in corners)
    return PLSurface(FacePoset(3, {0: 16}, vertex_ids=lists), vertices=corners + far)


def _open_cube():
    """The unit cube without its last facet."""
    lists = _cube_lists()
    lists[2] = lists[2][:-1]
    return PLSurface(FacePoset(3, {0: 8}, vertex_ids=lists), vertices=pc.gen_hypercube(3).vertices)


def _duplicate_up(surface, face):
    """Equations-mode ``surface`` with the first upward reference of ``face`` listed twice."""
    ups = surface.poset.up_ids[face.dim][face.index]
    return replace(surface, poset=replace_records(surface.poset, up={face: tuple(sorted(ups + ups[:1]))}))


# (build, verify's reason): inputs with stars that a check of one star's
# faces alone accepts; test_empty_vertex_list_invalid and
# test_broken_link_is_invalid_before_any_star_is_classified pin two more.
# A repeated upward reference can be built only in equations mode
INVALID_INPUTS = {
    "two_cubes": (_two_cubes, "NOT_CONNECTED"),
    "open_cube": (_open_cube, "NOT_CLOSED"),
    "repeated_edge": (lambda: _repeat_list(pc.gen_hypercube(3), Face(1, 0)), "NOT_SINGLE_CYCLE"),
    "duplicate_up": (lambda: _duplicate_up(pc.as_equations(pc.gen_hypercube(3)), Face(1, 0)), "INVALID_ID"),
}
INVALID_CASES = [(name, eq) for name in INVALID_INPUTS for eq in (False, True) if eq or name != "duplicate_up"]


@pytest.mark.parametrize("name, equations", INVALID_CASES, ids=[f"{name}-{'equations' if eq else 'vertices'}" for name, eq in INVALID_CASES])
def test_verify_face_answers_verify_reason_on_invalid_input(name, equations):
    # verify_face runs verify's front end on the whole surface, so no star
    # of an input that verify rejects is classified; as_equations keeps the
    # poset as it is
    build, reason = INVALID_INPUTS[name]
    s = pc.as_equations(build()) if equations else build()
    v = verify(s)
    assert (v.kind, v.reason) == ("INVALID", reason)
    for f in s.poset.faces(s.poset.dim_low):
        assert verify_face(s, f) == (False, reason), f


def test_verify_face_refuses_a_face_that_is_not_a_star_center(cube):
    for face in (Face(1, 0), Face(2, 0), Face(0, -1), Face(0, 8)):
        with pytest.raises(ValueError):
            verify_face(cube, face)


def test_any_broken_link_makes_verify_invalid():
    # seeded, on the equations-mode corruption bases with one upward
    # reference dropped, added or out of range: whenever some link does not
    # close, verify is INVALID, and NOT_SINGLE_CYCLE at the least such face
    # once the input passes preflight
    rng = random.Random(18)
    outcomes = Counter()
    for kind, s in _corrupted_posets(rng, POSET_CORRUPTIONS[:3], rounds=18):
        broken = []
        for c in s.poset.faces(s.poset.dim_low):
            try:
                pc.link_cycle(s.poset, c)
            except pc.LinkCycleError:
                broken.append(c)
            _assert_walk_matches_reference(s.poset, c)
        if not broken:
            continue
        for collect_all in (False, True):
            v = verify(s, collect_all=collect_all)
            assert v.kind == "INVALID", (kind, v)
            if pc.preflight(s).ok:
                assert (v.witness, v.reason, v.failures) == (broken[0], "NOT_SINGLE_CYCLE", ())
                outcomes["past preflight"] += 1
        outcomes[kind] += 1
    assert min(outcomes.values()) >= 10, outcomes


def _assert_walk_matches_reference(poset, center):
    """``link_cycle`` at ``center`` gives the reference walk's cycle, as Faces, or raises its error."""
    try:
        want = reference_link_cycle(poset, center)
    except pc.LinkCycleError as exc:
        with pytest.raises(pc.LinkCycleError) as info:
            pc.link_cycle(poset, center)
        assert (str(info.value), info.value.face) == (str(exc), exc.face)
    else:
        assert cycle_faces(poset, pc.link_cycle(poset, center)) == want


@pytest.mark.parametrize("p, q", [(3, 3), (3, 4), (5, 8), (8, 16), (16, 32)])
def test_duoprisms_are_convex(p, q):
    # the p-gon x q-gon duoprism in R^4: every edge star is a pointed
    # degree-3 fan, so verify reads two entries per incidence
    s = duoprism(p, q)
    poset = s.poset
    incidences = sum(len(poset.up(f)) for f in poset.faces(poset.dim_low))
    assert incidences == 6 * p * q
    v = verify(s)
    assert (v.kind, v.entries_checked) == ("CONVEX", 2 * incidences)
    if p * q <= 40:
        assert pc.oracle_verdict(s).convex
    assert verify(pc.as_equations(pc.rigid_motion(s, 1))).kind == "CONVEX"


def test_equations_witnesses_moved_inside_their_faces():
    # a witness is trusted to lie in the relative interior of its face, not
    # to be the geometry pass's point there: each witness above dim n-3 moved to
    # (1 - t) w + t v, for a vertex v of its face and t in {1/10, ..., 9/10},
    # leaves every verdict as it was, with early exit and with collect_all
    rng = random.Random(4)
    bases = [pc.gen_hypercube(3), pc.gen_prism(7), pc.gen_schonhardt(), pc.gen_dented_cube(2)]
    bases += [pc.split_facet_cube(False), pc.split_facet_cube(True)]
    bases += [pc.gen_hypercube(4), pc.gen_cross_polytope(4), pc.gen_simplex(5)]
    kinds = Counter()
    for base in bases:
        for seed in (0, 3):
            s = pc.rigid_motion(base, seed)
            eq = pc.as_equations(s)
            poset = s.poset
            expected = [verify(eq), verify(eq, collect_all=True)]
            kinds[expected[0].kind] += 1
            for _ in range(5):
                witnesses = {}
                for f in (*poset.faces(poset.dim_mid), *poset.faces(poset.dim_top)):
                    v = s.vertices[rng.choice(poset.vertex_lists[f])]
                    t = F(rng.randint(1, 9), 10)
                    witnesses[f] = tuple((1 - t) * w + t * x for w, x in zip(eq.witnesses[f.dim][f.index], v))
                moved = replace_geometry(eq, witnesses=witnesses)
                assert [verify(moved), verify(moved, collect_all=True)] == expected
    assert kinds == {"CONVEX": 14, "NOT_CONVEX": 4}


@pytest.mark.parametrize("m", [8, 16])
def test_crowned_prism_reaches_pairwise_support(m, monkeypatch):
    s = crowned_prism(m)
    v = verify(s)
    assert (v.kind, v.witness, v.reason) == ("NOT_CONVEX", Face(0, 0), "WRONG_TURN_SIGN")
    calls = Counter()
    pairwise = fan_mod._pairwise_support

    def counting(dirs):
        calls["pairwise"] += 1
        return pairwise(dirs)

    monkeypatch.setattr(fan_mod, "_pairwise_support", counting)
    failures = verify(s, collect_all=True).failures
    low = [Face(0, m + 1 + i) for i in range(1, m, 2)]
    assert failures == tuple((f, "WRONG_TURN_SIGN") for f in [Face(0, 0), Face(0, m + 1), *low])
    assert calls["pairwise"] == m // 2
    assert pc.oracle_verdict(s).convex is False


def test_pentagram_pyramid_bad_rotation_index():
    # one planar facet over a star pentagon, coned to a high apex: the apex
    # star winds twice, the only closed surface here that reaches this reason
    order = [0, 2, 4, 1, 3]
    coords = [(x, y, F(0)) for x, y in circle_points(5)] + [(F(0), F(0), F(1000))]
    polygons = [order] + [[5, b, a] for a, b in zip(order, order[1:] + order[:1])]
    s = pc.surface_from_polygons(coords, polygons)
    apex = Face(0, 5)
    assert verify(s).kind == "NOT_CONVEX"
    assert verify_face(s, apex) == (False, "BAD_ROTATION_INDEX")
    assert (apex, "BAD_ROTATION_INDEX") in verify(s, collect_all=True).failures
    assert pc.oracle_verdict(s).convex is False


def _star_ten_gon():
    """A five-pointed star as a 10-gon: rational unit directions about 36 degrees apart, radii 2 and 1 alternating."""
    pts = []
    for k, t in enumerate([0, F(1, 3), F(8, 11), F(11, 8), 3, None, -3, F(-11, 8), F(-8, 11), F(-1, 3)]):
        x, y = (-1, 0) if t is None else ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
        pts.append((2 * x, 2 * y) if k % 2 == 0 else (x, y))
    return pts


NON_CONVEX_POLYGONS = {
    "L": [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
    "U": [(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)],
    "dart": [(0, 0), (2, 1), (0, 3), (1, 1)],
    "star": _star_ten_gon(),
}


def _prism_or_cone(shape, polygon):
    """The unit-height prism over ``polygon`` in z = 0, or its cone to the apex (1, 1, 5)."""
    k = len(polygon)
    coords = [as_vec((x, y, 0)) for x, y in polygon]
    if shape == "prism":
        coords += [as_vec((x, y, 1)) for x, y in polygon]
        sides = [[i, (i + 1) % k, k + (i + 1) % k, k + i] for i in range(k)]
        return pc.surface_from_polygons(coords, [list(range(k)), list(range(k, 2 * k)), *sides])
    coords.append(as_vec((1, 1, 5)))
    return pc.surface_from_polygons(coords, [list(range(k))] + [[i, (i + 1) % k, k] for i in range(k)])


@pytest.mark.parametrize(
    "shape, polygon, witness, reason",
    [
        ("prism", "L", 3, "WRONG_TURN_SIGN"),
        ("prism", "U", 3, "ZERO_ANGLE_CONE"),
        ("prism", "dart", 0, "WRONG_TURN_SIGN"),
        ("prism", "star", 0, "WRONG_TURN_SIGN"),
        ("cone", "L", 3, "WRONG_TURN_SIGN"),
        ("cone", "dart", 0, "WRONG_TURN_SIGN"),
    ],
)
def test_non_convex_facets_are_rejected(shape, polygon, witness, reason):
    # facet convexity is not checked: a planar non-convex facet passes every
    # input check, and its surface still comes back NOT_CONVEX in both modes,
    # as the oracle says; none of them reaches BAD_ROTATION_INDEX
    s = _prism_or_cone(shape, NON_CONVEX_POLYGONS[polygon])
    assert preflight(s).ok
    for surface in (s, pc.as_equations(s)):
        v = verify(surface)
        assert (v.kind, v.witness, v.reason) == ("NOT_CONVEX", Face(0, witness), reason)
    assert "BAD_ROTATION_INDEX" not in {r for _, r in verify(s, collect_all=True).failures}
    assert pc.oracle_verdict(s).convex is False


def suspended_square_torus() -> PLSurface:
    """A square torus in the hyperplane w = 0, suspended from two apices N and S.

    The torus has 16 quads: ring corners (+-1, +-1), tube section
    r in {1, 3}, z in {0, 1}.  The apices are N = (0, 0, 1/2, 1) and
    S = (0, 0, 1/2, -1); the facets are the pyramids from N and from S
    over the quads.  Every edge link is one cycle, but the links of N
    and S are tori.
    """
    corners = [(1, 1), (-1, 1), (-1, -1), (1, -1)]  # around the ring
    section = [(1, 0), (3, 0), (3, 1), (1, 1)]  # (r, z) around the tube
    coords = [(r * x, r * y, z, 0) for x, y in corners for r, z in section]
    north, south = 16, 17
    coords += [(0, 0, F(1, 2), 1), (0, 0, F(1, 2), -1)]
    quads = [
        (4 * c + k, 4 * ((c + 1) % 4) + k, 4 * ((c + 1) % 4) + (k + 1) % 4, 4 * c + (k + 1) % 4)
        for c in range(4)
        for k in range(4)
    ]
    edges = {tuple(sorted((q[i], q[(i + 1) % 4]))) for q in quads for i in range(4)}
    lists = {
        1: sorted(edges | {(v, a) for a in (north, south) for v in range(16)}),
        2: sorted([tuple(sorted(q)) for q in quads] + [(*e, a) for a in (north, south) for e in edges]),
        3: sorted((*sorted(q), a) for a in (north, south) for q in quads),
    }
    return PLSurface(FacePoset(4, {0: len(coords)}, vertex_ids=lists), vertices=tuple(as_vec(p) for p in coords))


def test_suspended_torus_classified_though_apex_links_are_tori():
    # at n >= 4 only the links of the (n-3)-faces are checked: the two apices
    # have torus links, and the input still passes every check and is classified
    s = suspended_square_torus()
    assert validate_poset(s.poset, s.mode).ok
    assert check_closed(s.poset).ok and check_connected(s.poset).ok
    assert preflight(s).ok
    v = verify(s, collect_all=True)
    assert v.kind == "NOT_CONVEX"
    assert Counter(reason for _, reason in v.failures) == {"NO_SUPPORT": 16, "WRONG_TURN_SIGN": 8}
    assert pc.oracle_verdict(s).convex is False
    eq = verify(pc.as_equations(s))
    assert (eq.kind, eq.reason) == ("INVALID", "DEGENERATE_FACE")
