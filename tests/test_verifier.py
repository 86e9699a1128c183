import random
from collections import Counter
from fractions import Fraction

import pytest

import plconvex as pc
import plconvex.surface as surface_mod
import plconvex.verifier as verifier_mod
from plconvex.poset import Face, FacePoset
from plconvex.surface import PLSurface, prepare
from plconvex.verifier import INVALID_STAR_REASONS, verify, verify_face

from conftest import (
    locally_nonconvex_vertices,
    pinched_tube,
    random_same_kernel_projection,
    reflex_adjacent_vertices,
    zigzag_bipyramid,
)

F = Fraction


def test_cube_convex(cube):
    v = verify(cube)
    assert v.kind == "CONVEX"
    assert v.witness is None and v.reason is None
    # every star contributes 2k entries
    assert v.entries_checked == 2 * sum(len(cube.poset.up(f)) for f in cube.poset.faces(0))


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


@pytest.mark.parametrize(
    "surface",
    [pc.gen_hypercube(5), pc.gen_prism(64), pc.gen_cross_polytope(5)],
    ids=["hypercube5", "prism64", "cross5"],
)
def test_verify_eliminates_each_face_at_most_once(surface, monkeypatch):
    # surface._face_geometry runs one face's elimination
    eliminated = Counter()
    face_geometry = surface_mod._face_geometry

    def counting(surf, face, *args, **kwargs):
        eliminated[face] += 1
        return face_geometry(surf, face, *args, **kwargs)

    monkeypatch.setattr(surface_mod, "_face_geometry", counting)
    assert verify(surface).kind == "CONVEX"
    poset = surface.poset
    faces = sum(poset.count(d) for d in (poset.dim_low, poset.dim_mid, poset.dim_top))
    assert sum(eliminated.values()) == faces
    assert max(eliminated.values()) == 1


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
        kernels = prepare(surface).kernels
        for f in surface.poset.faces(surface.poset.dim_low):
            base = verify_face(surface, f)
            kern = kernels[f]
            for _ in range(5):
                proj = random_same_kernel_projection(kern, surface.n, rng)
                assert verify_face(surface, f, projection=proj) == base


def test_zero_direction_guard():
    # a (crafted) 2-face whose vertices all sit on the center's line: its
    # interior point projects exactly onto the apex.  The face is warped,
    # so the star's geometry pass rejects it first, as verify's does
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
        incidence_up={center: (g0, g1), g0: (h0, h1), g1: (h0, h1)},
        vertex_lists={
            center: (0, 1),
            g0: (0, 1, 2),  # collapsed onto the center's line
            g1: (0, 1, 3),
            h0: (0, 1, 2, 3),
            h1: (0, 1, 2, 3),
        },
    )
    s = PLSurface(poset, vertices=coords)
    prepared = prepare(s)
    proj = pc.complementary_projection(prepared.kernels[center], 4)
    cyc = (g0, h0, g1, h1)
    with pytest.raises(pc.ZeroDirectionError):
        pc.build_fan(prepared.points, center, cyc, proj)
    assert prepared.report.violations[0] == pc.Violation("DEGENERATE_FACE", g0, "affine rank 1 != dim 2")
    assert verify_face(s, center) == (False, "DEGENERATE_FACE")
    # in equations mode a 2-face above an edge given the edge's own witness
    # is valid input, and its direction projects onto the apex
    eq = pc.as_equations(pc.gen_hypercube(4))
    e0 = Face(1, 0)
    g = eq.poset.up(e0)[0]
    moved = PLSurface(eq.poset, equations=eq.equations, witnesses={**eq.witnesses, g: eq.witnesses[e0]})
    assert prepare(moved).ok
    v = verify(moved)
    assert (v.kind, v.witness, v.reason) == ("INVALID", e0, "ZERO_DIRECTION")
    assert verify_face(moved, e0) == (False, "ZERO_DIRECTION")


def test_verdict_flags():
    v = pc.Verdict("CONVEX")
    assert v.convex
    assert not pc.Verdict("NOT_CONVEX", witness=Face(0, 0), reason="NO_SUPPORT").convex


def test_empty_vertex_list_invalid(cube):
    # an empty vertex list is a missing one: validate_poset reports it
    # and the stars through the face answer instead of raising
    poset = cube.poset
    edge = Face(1, 0)
    ends = poset.vertex_lists[edge]
    lists = {**poset.vertex_lists, edge: ()}
    bad = PLSurface(FacePoset(3, dict(poset.faces_per_dim), dict(poset.incidence_up), lists), vertices=cube.vertices)
    report = pc.validate_poset(bad.poset)
    assert [(v.code, v.face) for v in report.violations] == [("MISSING_VERTEX_LIST", edge)]
    v = verify(bad, collect_all=True)
    assert (v.kind, v.witness, v.reason) == ("INVALID", edge, "MISSING_VERTEX_LIST")
    for i in ends:
        assert verify_face(bad, Face(0, i)) == (False, "DEGENERATE_FACE")
        assert verify_face(bad, Face(0, i)).reason in INVALID_STAR_REASONS
    assert prepare(bad).report.violations == (pc.Violation("DEGENERATE_FACE", edge, "no vertices"),)


# the names perfbench's tracer wraps in the verifier's module globals
PREFLIGHT_STAGES = ("validate_poset", "check_closed", "check_connected")
STAR_STAGES = ("link_cycle", "complementary_projection", "build_fan", "fan_is_convex")


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
    w = eq.witnesses[v0]
    cases = [(v0, None, (v0,)), (v0, w[:2], (v0,)), (v0, w + (F(0),), (v0,)), (e0, None, (v0, v1))]
    for face, witness, centers in cases:
        wits = {f: p for f, p in eq.witnesses.items() if f != face}
        if witness is not None:
            wits[face] = witness
        bad = PLSurface(eq.poset, equations=eq.equations, witnesses=wits)
        verdict = verify(bad)
        assert (verdict.kind, verdict.witness, verdict.reason) == ("INVALID", face, "BAD_WITNESS")
        for center in centers:
            assert verify_face(bad, center) == (False, "BAD_WITNESS"), (face, witness, center)
    assert "BAD_WITNESS" in INVALID_STAR_REASONS
