"""Seeded randomized cross-validation of the two independent deciders.

Every trial builds a perturbed instance (random dents of random depth,
random rational motions, random relabelings), then requires the
star-based verifier and the supporting-hyperplane oracle to agree, the
equations-mode pipeline to match the vertex-mode verdict, and the PLS
round trip to be exact.
"""

import random
from collections import Counter
from fractions import Fraction

import plconvex as pc
import plconvex.fan as fan_mod
import plconvex.verifier as verifier_mod
from plconvex.formats import emit_pls, parse_pls
from plconvex.oracle import FlatSurfaceError
from plconvex.surface import as_equations

from conftest import crowned_prism, rank, stacked_cube, stacked_tesseract, wedge_cube

F = Fraction


def simplicial_bases():
    return [
        pc.gen_cross_polytope(3),
        pc.gen_cross_polytope(4),
        pc.gen_simplex(3),
        pc.gen_simplex(4),
        pc.gen_simplex(5),
        pc.gen_schonhardt(),
    ]


def random_instance(rng: random.Random):
    base = simplicial_bases()[rng.randrange(6)]
    surface = base
    for _ in range(rng.randrange(3)):
        v = rng.randrange(surface.poset.count(0))
        t = F(rng.randint(1, 40), rng.randint(8, 40))
        if rng.random() < 0.3:
            t = F(rng.randint(1, 3), 1) + t  # occasionally push far through
        surface = pc.dent(surface, v, t)
    if rng.random() < 0.7:
        surface = pc.rigid_motion(surface, rng.randrange(1, 10**6))
    if rng.random() < 0.3:
        surface = pc.relabel(surface, rng.randrange(1, 10**6))
    return surface


def test_verifier_agrees_with_oracle_on_random_dents():
    rng = random.Random(20240817)
    checked = invalid = 0
    for _ in range(120):
        surface = random_instance(rng)
        verdict = pc.verify(surface)
        if verdict.kind == "INVALID":
            invalid += 1  # a dent may collapse a face; flagging is correct
            continue
        try:
            agreed = pc.oracle_verdict(surface).convex == verdict.convex
        except FlatSurfaceError:
            # a dent landed a vertex exactly on the opposite facet's
            # plane: no full-dimensional body exists, so the verifier
            # must reject too
            agreed = not verdict.convex
        assert agreed
        checked += 1
    assert checked >= 100  # the harness must mostly produce decidable inputs


def test_equations_mode_matches_vertex_mode_on_random_dents():
    rng = random.Random(5150)
    compared = 0
    for _ in range(40):
        surface = random_instance(rng)
        if not pc.preflight(surface).ok:
            continue
        eq = as_equations(surface)
        if eq.n >= 4 and not pc.preflight(eq).ok:
            continue  # at n >= 4 equations mode cannot pin down some direction spaces
        assert pc.verify(eq).kind == pc.verify(surface).kind
        compared += 1
    assert compared >= 30


def test_pls_round_trip_on_random_instances():
    rng = random.Random(77)
    for _ in range(25):
        surface = random_instance(rng)
        assert parse_pls(emit_pls(surface)) == surface
        eq = as_equations(surface)
        assert parse_pls(emit_pls(eq)) == eq


def test_multi_dent_cubes_match_oracle():
    for dents in range(1, 7):
        surface = pc.gen_dented_cube(dents)
        assert pc.preflight(surface).ok
        verdict = pc.verify(surface)
        assert verdict.kind == "NOT_CONVEX"
        assert pc.oracle_verdict(surface).convex is False


def test_randomly_positioned_flat_splits_stay_convex():
    # split the cube top at x = p/q: the two mid-edge vertex stars are
    # wedges for every split position
    rng = random.Random(31337)
    for _ in range(12):
        p = F(rng.randint(1, 9), 10)
        cube = pc.gen_hypercube(3)
        coords = [tuple(v) for v in cube.vertices] + [(p, F(0), F(1)), (p, F(1), F(1))]
        polygons = [
            [0, 1, 3, 2],
            [0, 1, 5, 8, 4],
            [2, 3, 7, 9, 6],
            [0, 2, 6, 4],
            [1, 3, 7, 5],
            [4, 8, 9, 6],
            [8, 5, 7, 9],
        ]
        surface = pc.surface_from_polygons(coords, polygons)
        moved = pc.rigid_motion(surface, rng.randrange(1, 10**6))
        for s in (surface, moved):
            verdict = pc.verify(s, collect_all=True)
            assert verdict.kind == "CONVEX"
            assert pc.oracle_verdict(s).convex
        wedge_reasons = {pc.verify_face(surface, pc.Face(0, i)).reason for i in (8, 9)}
        assert wedge_reasons == {"OK_FLAT"}


def test_coordinates_beyond_float_range_match_oracle():
    # past about 10**308 a coordinate no longer converts to a float; every
    # decision must stay exact there
    huge = F(10**400 + 1, 3)
    bases = [pc.gen_prism(9), pc.gen_cross_polytope(3), pc.gen_schonhardt()]
    bases.append(pc.dent(pc.gen_cross_polytope(3), 0, F(3, 2)))
    kinds = set()
    for base in bases:
        surface = pc.scale(pc.rigid_motion(base, 5), huge)
        assert max(abs(c) for v in surface.vertices for c in v) > 10**400
        verdict = pc.verify(surface)
        assert verdict.kind != "INVALID"
        assert verdict.convex == pc.oracle_verdict(surface).convex
        kinds.add(verdict.kind)
    assert kinds == {"CONVEX", "NOT_CONVEX"}


def test_stacked_cubes_agree_with_oracle_and_equations_mode(monkeypatch):
    # real surfaces whose stars reach every branch: pointed, flat (rank 2),
    # and rank-3 stars whose certificate fails, through the wedge test to
    # the pairwise support search; every star is classified in both modes
    searches = Counter()
    reasons = Counter()
    pairwise, classify = fan_mod._pairwise_support, verifier_mod.fan_is_convex

    def spy(dirs):
        s = pairwise(dirs)
        searches[s is None] += 1
        return s

    def recording(fan):
        check = classify(fan)
        reasons[check.reason] += 1
        return check

    monkeypatch.setattr(fan_mod, "_pairwise_support", spy)
    monkeypatch.setattr(verifier_mod, "fan_is_convex", recording)
    kinds = Counter()
    for seed in range(60):
        surface = stacked_cube(seed, 1 + seed % 12)
        verdict = pc.verify(surface, collect_all=True)
        assert verdict.kind != "INVALID"
        assert pc.oracle_verdict(surface).convex == verdict.convex, seed
        assert pc.verify(as_equations(surface), collect_all=True) == verdict, seed
        kinds[verdict.kind] += 1
    assert min(kinds.values()) >= 10, kinds
    assert set(reasons) == {"OK_POINTED", "WRONG_TURN_SIGN", "OK_FLAT", "NO_SUPPORT"}, reasons
    assert searches[True] >= 20 and searches[False] >= 20, searches


def test_stacked_tesseracts_agree_with_oracle_and_equations_mode():
    # n = 4 stacked polytopes: nearly flat, flat and dented pyramids over
    # up to six of the tesseract's facets.  A flat stack's pyramids share
    # one hyperplane, so the facet normals at an edge from its apex have
    # rank < 3: equations mode's documented n >= 4 limit, DEGENERATE_FACE
    kinds = Counter()
    for seed in range(40):
        surface = stacked_tesseract(seed, 1 + seed % 6)
        verdict = pc.verify(surface, collect_all=True)
        assert verdict.kind != "INVALID", seed
        assert pc.oracle_verdict(surface).convex == verdict.convex, seed
        flat = any(x in (0, 1) for apex in surface.vertices[16:] for x in apex)
        equations = pc.verify(as_equations(surface), collect_all=True)
        if flat:
            assert (equations.kind, equations.reason) == ("INVALID", "DEGENERATE_FACE"), seed
        else:
            assert equations == verdict, seed
        kinds[verdict.kind, flat] += 1
    assert min(kinds.values()) >= 5 and len(kinds) == 4, kinds


def test_huge_translations_and_linear_maps_keep_verdicts():
    # where a surface sits and how it is linearly mapped change no verdict:
    # each base is translated by a 512-bit rational vector over a 512-bit
    # denominator and mapped by a nonsingular matrix of 256-bit integers,
    # and each copy answers as the base in both modes (no time bound)
    rng = random.Random(512)
    bases = [pc.gen_hypercube(3), pc.gen_prism(8), pc.gen_schonhardt(), pc.gen_dented_cube(2)]
    bases += [pc.split_facet_cube(False), pc.split_facet_cube(True), crowned_prism(8), wedge_cube(3)]
    bases += [pc.gen_cross_polytope(4), pc.gen_simplex(5), pc.gen_hypercube(4), stacked_cube(3, 3)]
    kinds = Counter()
    for base in bases:
        n = base.n
        want = pc.verify(base, collect_all=True)
        den = rng.getrandbits(512) | 1 << 511
        shift = [F(rng.getrandbits(512) * rng.choice((-1, 1)), den) for _ in range(n)]
        matrix = []
        while len(matrix) < n or rank(matrix) < n:
            matrix = [[rng.getrandbits(256) * rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)]
        moved = [tuple(x + t for x, t in zip(v, shift)) for v in base.vertices]
        mapped = [tuple(sum(a * x for a, x in zip(row, v)) for row in matrix) for v in base.vertices]
        for coords in (moved, mapped):
            copy = pc.PLSurface(base.poset, vertices=tuple(coords))
            assert pc.verify(copy, collect_all=True) == want
            assert pc.verify(as_equations(copy), collect_all=True) == want
        kinds[want.kind] += 1
    assert kinds == {"CONVEX": 9, "NOT_CONVEX": 3}, kinds
