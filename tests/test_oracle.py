from fractions import Fraction

import pytest

import plconvex as pc
from plconvex.exactgeom import dot
from plconvex.oracle import FlatSurfaceError, oracle_verdict
from plconvex.surface import facet_equation

from conftest import replace_records

F = Fraction


def sign(x) -> int:
    return (x > 0) - (x < 0)


def test_cube_convex(cube):
    assert oracle_verdict(cube) == pc.OracleVerdict(True)


def test_dented_cube_witnesses():
    s = pc.gen_dented_cube()
    o = oracle_verdict(s)
    assert not o.convex
    # derive: the reported facet's plane must genuinely split the vertices,
    # and the reported vertex must be strictly on the minority side
    eq = facet_equation(s, o.violating_facet)
    signs = [sign(dot(eq.normal, v) - eq.offset) for v in s.vertices]
    assert 1 in signs and -1 in signs
    assert signs[o.violating_vertex] != 0
    # least-index defective facet
    for h in s.poset.faces(2):
        if h == o.violating_facet:
            break
        e = facet_equation(s, h)
        hs = {sign(dot(e.normal, v) - e.offset) for v in s.vertices}
        assert not ({1, -1} <= hs)


def test_flat_surface_error():
    f = F
    coords = [
        (f(0), f(0), f(0)),
        (f(1), f(0), f(0)),
        (f(1), f(1), f(0)),
        (f(0), f(1), f(0)),
    ]
    # two coincident squares glued along their four edges
    polys = [[0, 1, 2, 3], [0, 1, 2, 3]]
    s = pc.surface_from_polygons(coords, polys)
    assert pc.check_closed(s.poset).ok
    with pytest.raises(FlatSurfaceError):
        oracle_verdict(s)


def test_oracle_requires_vertex_mode(cube):
    eq = pc.as_equations(cube)
    with pytest.raises(ValueError):
        oracle_verdict(eq)


@pytest.mark.parametrize("vertex_id", [-8, -1, 8, None])
def test_facet_vertex_id_outside_vertices_is_refused(cube, vertex_id):
    # as validate_poset's INVALID_ID: -8 named vertex 0 from the end, and the
    # oracle called the cube with that facet convex; a facet without
    # vertices (None) is a DegenerateFaceError, as in as_equations, where
    # facet_equation and the oracle raised IndexError
    facet = pc.Face(2, 0)
    ids = () if vertex_id is None else (vertex_id, *cube.poset.vertex_lists[facet][1:])
    bad = pc.PLSurface(replace_records(cube.poset, verts={facet: ids}), vertices=cube.vertices)
    assert pc.verify(bad).reason == ("MISSING_VERTEX_LIST" if vertex_id is None else "INVALID_ID")
    for decide in (lambda s: facet_equation(s, facet), oracle_verdict, pc.as_equations):
        with pytest.raises(KeyError if vertex_id is not None else pc.DegenerateFaceError) as info:
            decide(bad)
        if vertex_id is None:
            assert (info.value.face, str(info.value)) == (facet, "no vertices")


def test_oracle_invariance(cube, schonhardt):
    for s in (cube, schonhardt):
        base = oracle_verdict(s).convex
        for seed in (1, 5):
            assert oracle_verdict(pc.relabel(s, seed)).convex == base
            assert oracle_verdict(pc.rigid_motion(s, seed)).convex == base

