import re
from fractions import Fraction
from math import comb

import pytest

import plconvex as pc
from plconvex.instances import GenSpec, build_instance, circle_points

from conftest import reference_circle_points, reference_rigid_motion, reflex_adjacent_vertices, replace_records

F = Fraction


def fvec(surface):
    return dict(surface.poset.faces_per_dim)


def test_hypercube_fvectors():
    assert fvec(pc.gen_hypercube(3)) == {0: 8, 1: 12, 2: 6}
    assert fvec(pc.gen_hypercube(4)) == {0: 16, 1: 32, 2: 24, 3: 8}
    s5 = fvec(pc.gen_hypercube(5))
    assert s5[2] == comb(5, 2) * 2**3 and s5[4] == 10


def test_cross_polytope_fvectors():
    assert fvec(pc.gen_cross_polytope(3)) == {0: 6, 1: 12, 2: 8}
    s4 = fvec(pc.gen_cross_polytope(4))
    assert s4 == {0: 8, 1: comb(4, 2) * 4, 2: comb(4, 3) * 8, 3: 16}


def test_simplex_fvectors():
    assert fvec(pc.gen_simplex(3)) == {0: 4, 1: 6, 2: 4}
    assert fvec(pc.gen_simplex(5)) == {0: 6, 2: comb(6, 3), 3: comb(6, 4), 4: comb(6, 5)}


def test_prism_fvectors_and_euler():
    assert fvec(pc.gen_prism(3)) == {0: 6, 1: 9, 2: 5}
    assert fvec(pc.gen_prism(4)) == {0: 8, 1: 12, 2: 6}
    for m in (3, 5, 9):
        c = fvec(pc.gen_prism(m))
        assert c[0] - c[1] + c[2] == 2


def test_euler_for_all_n3_families(cube, octahedron, schonhardt):
    for s in (cube, octahedron, schonhardt, pc.gen_dented_cube(), pc.split_facet_cube()):
        c = fvec(s)
        assert c[0] - c[1] + c[2] == 2


def test_circle_points_on_circle_and_ordered():
    pts = circle_points(17)
    assert len(set(pts)) == 17
    for x, y in pts:
        assert x * x + y * y == 1


def test_circle_points_match_half_angle_formula():
    for m in range(3, 65):
        pts = circle_points(m)
        assert pts == reference_circle_points(m), m
        assert all(type(c) is Fraction for p in pts for c in p)


def test_prism_convex_by_both_deciders():
    for m in (4, 6):
        s = pc.gen_prism(m)
        assert pc.verify(s).kind == "CONVEX"
        assert pc.oracle_verdict(s).convex


def test_schonhardt_shape(schonhardt):
    assert fvec(schonhardt) == {0: 6, 1: 12, 2: 8}
    assert pc.check_closed(schonhardt.poset).ok
    assert pc.check_connected(schonhardt.poset).ok
    assert pc.verify(schonhardt).kind == "NOT_CONVEX"
    assert not pc.oracle_verdict(schonhardt).convex
    # the twist makes exactly the three splitting diagonals reflex
    assert len(reflex_adjacent_vertices(schonhardt)) == 6


def test_dent_identity(cube):
    assert pc.dent(cube, 0, F(0)) == cube


@pytest.mark.parametrize("index", [-1, -8, 8, 9])
def test_dent_refuses_index_outside_vertices(cube, index):
    # as validate_poset's INVALID_ID: -1 names no vertex, not the last one
    with pytest.raises(ValueError, match=f"vertex index {index} outside 0..7"):
        pc.dent(cube, index, F(1, 2))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: pc.gen_hypercube(2), "need n >= 3"),
        (lambda: pc.gen_cross_polytope(2), "need n >= 3"),
        (lambda: pc.gen_simplex(2), "need n >= 3"),
        (lambda: pc.gen_prism(2), "need m >= 3"),
        (lambda: pc.gen_dented_cube(0), "dents must be between 1 and 6"),
        (lambda: pc.gen_dented_cube(7), "dents must be between 1 and 6"),
        (lambda: pc.dent(pc.as_equations(pc.gen_hypercube(3)), 0, F(1, 2)), "dent needs vertex coordinates"),
    ],
    ids=["hypercube2", "cross2", "simplex2", "prism2", "dented0", "dented7", "dent_equations"],
)
def test_generators_refuse_bad_parameters(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_dent_large_t_goes_nonconvex(octahedron):
    dented = pc.dent(octahedron, 0, F(3, 2))
    assert pc.preflight(dented).ok
    v = pc.verify(dented, collect_all=True)
    assert v.kind == "NOT_CONVEX"
    assert not pc.oracle_verdict(dented).convex
    # the damage is local to the moved vertex: each failing star is its own or a neighbour's
    assert all(
        f.index == 0 or any(0 in octahedron.poset.vertex_lists[g] for g in octahedron.poset.up(f))
        for f, _ in v.failures
    )


def test_rigid_motion_identity_and_invariance(cube, schonhardt):
    assert pc.rigid_motion(cube, 0) == cube
    for seed in (1, 2, 9):
        assert pc.verify(pc.rigid_motion(cube, seed)).kind == "CONVEX"
        assert pc.verify(pc.rigid_motion(schonhardt, seed)).kind == "NOT_CONVEX"


def _typed(surface):
    return [[(type(x), x) for x in v] for v in surface.vertices]


def test_rigid_motion_matches_fraction_formula():
    # the integer form gives the Fraction formula's values and types on the
    # generator families, on moved surfaces, and on parsed surfaces whose
    # integer coordinates are ints
    families = [pc.gen_hypercube(n) for n in (3, 4, 5)] + [pc.gen_cross_polytope(n) for n in (3, 4)]
    families += [pc.gen_simplex(n) for n in (3, 5, 6)] + [pc.gen_prism(m) for m in (3, 7, 16)]
    families += [pc.gen_schonhardt(), pc.gen_dented_cube(3), pc.split_facet_cube(), pc.split_facet_cube(True)]
    moved = [pc.rigid_motion(s, 4) for s in families[::2]]
    parsed = [pc.parse_pls(pc.emit_pls(s)) for s in families[:4]]
    assert all(type(x) is int for s in parsed for v in s.vertices for x in v)
    for s in families + moved + parsed:
        for seed in range(21):
            got, want = pc.rigid_motion(s, seed), reference_rigid_motion(s, seed)
            assert got == want and _typed(got) == _typed(want), seed


def test_scale_invariance(cube):
    assert pc.verify(pc.scale(cube, F(7, 3))).kind == "CONVEX"
    with pytest.raises(ValueError):
        pc.scale(cube, F(-1))
    with pytest.raises(ValueError, match="scale needs vertex coordinates"):
        pc.scale(pc.as_equations(cube), 2)


def test_relabel_preserves_verdict(cube, schonhardt):
    for s in (cube, schonhardt):
        base = pc.verify(s).kind
        for seed in (3, 4):
            shuffled = pc.relabel(s, seed)
            assert pc.preflight(shuffled).ok
            assert pc.verify(shuffled).kind == base


def _ids_out_of_range():
    """A cube whose edge (6, 7) names vertex -1 or 8 for 7, and in equations mode an edge naming facet -1 or 6 for 5.

    Then the equations-mode cube with one row past the count of a table:
    a 13th upward row, whose face is out of range, and a 13th edge
    witness or 7th facet equation, which no face reads (no face named);
    last a witness table of dimension 5, which no face reads either.
    """
    cube = pc.gen_hypercube(3)
    edge = pc.Face(1, cube.poset.vertex_ids[1].index((6, 7)))
    for v in (-1, 8):
        poset = replace_records(cube.poset, verts={edge: tuple(sorted((6, v)))})
        yield "vertex", v, pc.PLSurface(poset, vertices=cube.vertices), edge
    eq = pc.as_equations(cube)
    edge = pc.Face(1, next(i for i, ups in enumerate(eq.poset.up_ids[1]) if 5 in ups))
    (other,) = set(eq.poset.up_ids[1][edge.index]) - {5}
    for h in (-1, 6):
        poset = replace_records(eq.poset, up={edge: tuple(sorted((other, h)))})
        yield "facet", h, pc.PLSurface(poset, equations=eq.equations, witnesses=eq.witnesses), edge
    long = replace_records(eq.poset, up={pc.Face(1, 12): (0, 1)})
    yield "row", 12, pc.PLSurface(long, equations=eq.equations, witnesses=eq.witnesses), pc.Face(1, 12)
    yield "witness", 12, pc.PLSurface(eq.poset, equations=eq.equations, witnesses={**eq.witnesses, 1: eq.witnesses[1] + eq.witnesses[1][:1]}), None
    yield "equation", 6, pc.PLSurface(eq.poset, equations=eq.equations + eq.equations[:1], witnesses=eq.witnesses), None
    yield "table", 5, pc.PLSurface(eq.poset, equations=eq.equations, witnesses={**eq.witnesses, 5: eq.witnesses[0][:1]}), None


OUT_OF_RANGE = list(_ids_out_of_range())


@pytest.mark.parametrize("kind, value, surface, face", OUT_OF_RANGE, ids=[f"{kind}{value}" for kind, value, *_ in OUT_OF_RANGE])
def test_relabel_refuses_ids_out_of_range(kind, value, surface, face):
    # an id outside 0..count-1 names no face, as verify's INVALID_ID says:
    # relabel refuses it, where it read -1 as the last face (and the
    # relabelled copy was CONVEX) and one past the end raised IndexError.
    # A row past its table's count, which raised IndexError too, is refused
    # where verify rejects it (an upward row) and dropped where verify
    # reads past it (a witness or an equation), and so is a witness table
    # of a dimension verify does not read, where relabel raised KeyError
    v = pc.verify(surface)
    if face is None:
        moved = pc.relabel(surface, 5)
        assert v.kind == "CONVEX" and pc.verify(moved) == v
        assert pc.verify(pc.parse_pls(pc.emit_pls(moved))) == v
        return
    assert (v.kind, v.witness, v.reason) == ("INVALID", face, "INVALID_ID")
    message = {"vertex": "vertex index out of range", "facet": f"bad upward reference {pc.Face(2, value)}", "row": "face index out of range"}[kind]
    with pytest.raises(ValueError, match=re.escape(f"INVALID_ID: {face}: {message}")):
        pc.relabel(surface, 5)


def test_generated_convex_families_all_agree():
    surfaces = [
        pc.gen_hypercube(3),
        pc.gen_hypercube(4),
        pc.gen_cross_polytope(3),
        pc.gen_cross_polytope(4),
        pc.gen_simplex(3),
        pc.gen_simplex(4),
        pc.gen_prism(3),
        pc.gen_prism(8),
    ]
    for s in surfaces:
        assert pc.preflight(s).ok
        assert pc.verify(s).kind == "CONVEX"
        assert pc.oracle_verdict(s).convex


def test_convex_n3_facets_are_whole_hull_facets(cube, octahedron):
    # on a convex surface each facet lies in a facet of the hull; when no
    # two facets share a plane, each facet is a whole hull facet
    def planes(s):
        return {pc.facet_equation(s, h) for h in s.poset.faces(2)}

    for s in (cube, octahedron, pc.gen_prism(5)):
        assert pc.verify(s).kind == "CONVEX"
        assert pc.oracle_verdict(s).convex
        assert len(planes(s)) == s.poset.count(2)
    split = pc.split_facet_cube(False)  # convex, but the top is cut in two
    assert pc.verify(split).kind == "CONVEX"
    assert len(planes(split)) == 6 < split.poset.count(2)


def test_build_instance_dispatch():
    assert build_instance(GenSpec("hypercube", {"n": 3})) == pc.gen_hypercube(3)
    assert build_instance(GenSpec("prism", {"m": 5})) == pc.gen_prism(5)
    assert build_instance(GenSpec("schonhardt")) == pc.gen_schonhardt()
    assert build_instance(GenSpec("dented", {"dents": 2})) == pc.gen_dented_cube(2)
    assert build_instance(GenSpec("dented")) == pc.gen_dented_cube(1)
    with pytest.raises(ValueError):
        build_instance(GenSpec("moebius"))
    # the parameters are the generator's own: one missing or one too many is a TypeError
    with pytest.raises(TypeError):
        build_instance(GenSpec("prism"))
    with pytest.raises(TypeError):
        build_instance(GenSpec("hypercube", {"n": 3, "m": 4}))


def test_dented_cube_multi():
    s = pc.gen_dented_cube(3)
    assert pc.preflight(s).ok
    v = pc.verify(s, collect_all=True)
    assert v.kind == "NOT_CONVEX"
    assert len(v.failures) > 4


def test_relabel_equations_mode_keeps_verdict():
    # relabel renames the equations and witnesses of an equations-mode surface
    moved = [pc.rigid_motion(s, 2) for s in (pc.gen_hypercube(3), pc.gen_cross_polytope(4), pc.gen_prism(5))]
    dented = [pc.gen_dented_cube(2), pc.gen_schonhardt(), pc.dent(moved[1], 0, F(3, 2))]
    kinds = set()
    for s in moved + dented:
        eq = pc.as_equations(s)
        base = pc.verify(eq)
        kinds.add(base.kind)
        for seed in (3, 4):
            shuffled = pc.relabel(eq, seed)
            assert shuffled.mode == "equations"
            verdict = pc.verify(shuffled)
            assert (verdict.kind, verdict.reason) == (base.kind, base.reason)
    assert kinds == {"CONVEX", "NOT_CONVEX"}
