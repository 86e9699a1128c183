import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import plconvex as pc
import plconvex.fan as fan_mod
import plconvex.surface as surface_mod
import plconvex.verifier as verifier_mod
from plconvex.exactgeom import Projection3, as_vec, cross3, dot, homogeneous
from plconvex.fan import Fan3, fan_is_convex
from plconvex.instances import circle_points
from plconvex.poset import Face
from plconvex.verifier import verify_face

from conftest import (
    OppositeDirectionsError,
    float_winding,
    int_fan,
    orthogonal_frame,
    random_same_kernel_projection,
    rank,
    rotation_index,
    wedge_cube,
    zigzag_bipyramid,
)

F = Fraction


def circle_point(t):
    t = F(t)
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def pentagram_points():
    pent = [
        circle_point(0),
        circle_point(F(29, 40)),
        circle_point(F(77, 25)),
        circle_point(F(-77, 25)),
        circle_point(F(-29, 40)),
    ]
    return [pent[(2 * k) % 5] for k in range(5)]


def edge_dirs(points):
    m = len(points)
    return [
        (points[(i + 1) % m][0] - points[i][0], points[(i + 1) % m][1] - points[i][1])
        for i in range(m)
    ]


def polygon_is_convex(points):
    """Weak convexity of a closed polygon wound once: ``_wound_once`` over its edge vectors."""
    return fan_mod._wound_once(edge_dirs(points), True, "OK_POINTED")


def make_fan(ray_dirs, cell_dirs):
    dirs = []
    for r, c in zip(ray_dirs, cell_dirs):
        dirs += [as_vec(r), as_vec(c)]
    return int_fan(dirs)


def fan_between(ray_dirs):
    """Witnesses at the sums of consecutive ray directions."""
    cells = []
    m = len(ray_dirs)
    for k in range(m):
        a, b = ray_dirs[k], ray_dirs[(k + 1) % m]
        cells.append(tuple(x + y for x, y in zip(a, b)))
    return make_fan(ray_dirs, cells)


def skewed_pyramid(m):
    """Flat pyramid over a rational m-gon, apex near the rim: a nearly flat degree-m star."""
    coords = [(x, y, F(0)) for x, y in circle_points(m)] + [(F(9, 10), F(0), F(1, 50))]
    polygons = [list(range(m))] + [[i, (i + 1) % m, m] for i in range(m)]
    return pc.surface_from_polygons(coords, polygons)


class TestRotationIndex:
    square = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))]

    def test_square(self):
        assert rotation_index(self.square) == 1

    def test_square_reversed(self):
        assert rotation_index(list(reversed(self.square))) == -1

    def test_pentagram(self):
        dirs = edge_dirs(pentagram_points())
        assert rotation_index(dirs) == 2
        assert round(float_winding(dirs)) == 2
        assert abs(float_winding(dirs) - 2) < 1e-9

    def test_opposite_raises(self):
        with pytest.raises(OppositeDirectionsError):
            rotation_index([(F(1), F(0)), (F(-1), F(0))])

    def test_doubling(self):
        for dirs in (self.square, edge_dirs(pentagram_points())):
            assert rotation_index(dirs + dirs) == 2 * rotation_index(dirs)

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=3, max_size=9))
    def test_reversal_negates_and_float_agrees(self, raw):
        dirs = [d for d in raw if d != (0, 0)]
        if len(dirs) < 3:
            return
        m = len(dirs)
        for i in range(m):
            u, v = dirs[i], dirs[(i + 1) % m]
            if u[0] * v[1] - u[1] * v[0] == 0 and u[0] * v[0] + u[1] * v[1] < 0:
                return  # antiparallel pair: undefined winding
        idx = rotation_index(dirs)
        assert rotation_index(list(reversed(dirs))) == -idx
        assert idx == round(float_winding(dirs))
        # invariance under cyclic shift
        assert rotation_index(dirs[1:] + dirs[:1]) == idx


class TestPolygonIsConvex:
    def test_unit_square(self):
        pts = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
        assert polygon_is_convex(pts) == (True, "OK_POINTED")

    def test_pushed_in_vertex(self):
        # third vertex pushed inside the diagonal: turn signs disagree
        pts = [(F(0), F(0)), (F(1), F(0)), (F(2, 5), F(2, 5)), (F(0), F(1))]
        turns = [(pts[i - 1], pts[i], pts[(i + 1) % 4]) for i in range(4)]
        crosses = [
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) for a, b, c in turns
        ]
        assert min(crosses) < 0 < max(crosses)  # derived: the defect really is a mixed sign
        assert polygon_is_convex(pts) == (False, "WRONG_TURN_SIGN")

    def test_pentagram_rejected(self):
        assert polygon_is_convex(pentagram_points()) == (False, "BAD_ROTATION_INDEX")

    def test_flat_vertex_allowed(self):
        pts = [
            (F(0), F(0)),
            (F(1, 2), F(0)),  # straight-through vertex
            (F(1), F(0)),
            (F(1), F(1)),
            (F(0), F(1)),
        ]
        assert polygon_is_convex(pts) == (True, "OK_POINTED")

    def test_clockwise_square_still_convex(self):
        pts = [(F(0), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1), F(0))]
        assert polygon_is_convex(pts) == (True, "OK_POINTED")

    @given(st.permutations(range(4)))
    def test_reason_is_rotation_invariant(self, perm):
        pts = [(F(0), F(0)), (F(1), F(0)), (F(2, 5), F(2, 5)), (F(0), F(1))]
        k = perm[0]
        rotated = pts[k:] + pts[:k]
        assert polygon_is_convex(rotated) == (False, "WRONG_TURN_SIGN")


class TestReferenceDirection:
    # the O(m^3) pairwise search, on rank-3 direction sets as its contract says
    def test_pyramid(self):
        dirs = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        s = fan_mod._pairwise_support(dirs)
        assert s is not None
        assert all(dot(s, d) > 0 for d in dirs)

    def test_saddle_none(self):
        dirs = [(1, 0, 1), (0, 1, -1), (-1, 0, 1), (0, -1, -1)]
        assert fan_mod._pairwise_support(dirs) is None

    def test_no_directions(self):
        assert fan_is_convex(Fan3(())) == (False, "DEGENERATE_RANK")

    def test_wedge_chain_with_a_straight_step_is_no_wedge(self):
        # fold rays +-x, chains in the half-planes y > 0 and z > 0: a wedge;
        # with the cell after (0, 1, 0) pointing the same way, one product of
        # its chain is zero, and the chain no longer sweeps its half-plane
        wedge = ((1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 1, 0), (-1, 0, 0), (-1, 0, 1), (0, 0, 1), (1, 0, 1))
        assert fan_is_convex(Fan3(wedge)) == (True, "OK_FLAT")
        straight = wedge[:3] + ((0, 1, 0),) + wedge[4:]
        assert fan_is_convex(Fan3(straight)) == (False, "NO_SUPPORT")

    @pytest.mark.parametrize("reverse", [False, True])
    def test_certificate_feasible_from_a_dot_of_one(self, monkeypatch, reverse):
        # a least dot of 1 (or, walked the other way, a greatest of -1) is
        # strictly feasible: the certificate accepts this pointed fan itself
        # and the pairwise search never runs
        dirs = ((0, 1, -1), (0, 2, 1), (0, 0, 1), (2, 2, 2), (2, 2, 1), (1, 1, -1))
        dirs = dirs[::-1] if reverse else dirs
        crosses, cert = fan_mod._crosses_and_sum(dirs)
        s, dots = fan_mod._certified_direction(dirs, cert)
        assert s == (-2, 8, 1) and (max(dots) if reverse else min(dots)) == (-1 if reverse else 1)
        monkeypatch.setattr(fan_mod, "_pairwise_support", None)
        assert fan_is_convex(Fan3(dirs)) == (True, "OK_POINTED")

    def test_axes(self):
        dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        s = fan_mod._pairwise_support(dirs)
        assert s is not None
        assert all(dot(s, d) > 0 for d in dirs)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_feasible_cones_always_found(self, data):
        # generate directions strictly inside a half-space chosen first
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        s0 = None
        while not s0 or s0 == (0, 0, 0):
            s0 = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        dirs = []
        while len(dirs) < 6:
            d = (rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            if sum(a * b for a, b in zip(s0, d)) > 0:
                dirs.append(d)
        if rank(dirs) < 3:
            return
        s = fan_mod._pairwise_support(dirs)
        assert s is not None
        assert all(dot(s, d) > 0 for d in dirs)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_antipodal_pair_infeasible(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        d = None
        while not d or d == (0, 0, 0):
            d = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        dirs = [d, (-d[0], -d[1], -d[2])]
        for _ in range(4):
            dirs.append((rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)))
        dirs = [v for v in dirs if v != (0, 0, 0)]
        if rank(dirs) < 3:
            return
        assert fan_mod._pairwise_support(dirs) is None


class TestFanIsConvex:
    def test_cube_corner(self):
        fan = fan_between([(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))])
        assert fan_is_convex(fan) == (True, "OK_POINTED")

    def test_flat(self):
        fan = fan_between(
            [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(-1), F(0), F(0)), (F(0), F(-1), F(0))]
        )
        assert fan_is_convex(fan) == (True, "OK_FLAT")

    def test_saddle(self):
        fan = fan_between(
            [(F(1), F(0), F(1)), (F(0), F(1), F(-1)), (F(-1), F(0), F(1)), (F(0), F(-1), F(-1))]
        )
        assert fan_is_convex(fan) == (False, "NO_SUPPORT")

    def test_doubled_half_plane_fold(self):
        fan = make_fan(
            [(F(1), F(0), F(0)), (F(-1), F(0), F(0))],
            [(F(0), F(1), F(0)), (F(0), F(1), F(0))],
        )
        res = fan_is_convex(fan)
        assert not res.convex

    def test_degenerate_rank(self):
        fan = make_fan(
            [(F(1), F(0), F(0)), (F(2), F(0), F(0))],
            [(F(3), F(0), F(0)), (F(1), F(0), F(0))],
        )
        assert fan_is_convex(fan) == (False, "DEGENERATE_RANK")

    def test_pentagram_lift_rejected(self):
        pts = pentagram_points()
        rays = [(p[0], p[1], F(1)) for p in pts]
        cells = []
        for k in range(5):
            a, b = pts[k], pts[(k + 1) % 5]
            cells.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2, F(1)))
        fan = make_fan(rays, cells)
        assert fan_is_convex(fan) == (False, "BAD_ROTATION_INDEX")

    def test_wedge_accepted(self):
        # boundary of a dihedral wedge: fold line along x, halves in -z and +y
        fan = make_fan(
            [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(-1), F(0), F(0))],
            [(F(2), F(1), F(0)), (F(-1), F(2), F(0)), (F(0), F(0), F(-1))],
        )
        # entries: ray +x, cell in upper plane, ray +y, cell upper, ray -x, cell lower half-plane
        assert fan_is_convex(fan) == (True, "OK_FLAT")
        # shifted by one, the fold pair sits at odd positions: two cells, no fold
        assert fan_is_convex(Fan3(fan.dirs[1:] + fan.dirs[:1])) == (False, "NO_SUPPORT")

    def test_thin_wedge_accepted(self):
        # two distinct half-planes through the crease on the same side
        # still bound a (very sharp) convex wedge
        fan = make_fan(
            [(F(1), F(0), F(0)), (F(0), F(1), F(1)), (F(-1), F(0), F(0))],
            [(F(2), F(1), F(1)), (F(-1), F(2), F(2)), (F(0), F(1), F(2))],
        )
        assert fan_is_convex(fan) == (True, "OK_FLAT")

    def test_wedge_with_fold_rejected(self):
        # one chain folds back inside its own half-plane (covered twice)
        fan = make_fan(
            [(F(1), F(0), F(0)), (F(1), F(1), F(1)), (F(-1), F(0), F(0))],
            [(F(-1), F(1), F(1)), (F(-3), F(1), F(1)), (F(0), F(0), F(-1))],
        )
        res = fan_is_convex(fan)
        assert res == (False, "NO_SUPPORT")

    def test_wedge_chain_wound_past_the_fold_rejected(self):
        # the chain in z = 0 turns counterclockwise by 3 pi / 4 at every step
        # but jumps over the fold line twice, sweeping one and a half turns:
        # only the fold pair (rays 0 and 4) has s . d = 0, yet s . d changes
        # sign along that chain
        fan = Fan3(((1, 0, 0), (-1, 1, 0), (0, -1, 0), (1, 1, 0), (-1, 0, 0), (0, 0, -1)))
        _, cert = fan_mod._crosses_and_sum(fan.dirs)
        assert fan_mod._certified_direction(fan.dirs, cert)[1] == [0, -2, 2, -2, 0, -4]
        assert wedge_outcome(fan) is False
        assert fan_is_convex(fan) == (False, "NO_SUPPORT")

    def test_wedge_settled_before_support_search(self, monkeypatch):
        # an accepting wedge has an antipodal ray pair, so it has no strict
        # support; the wedge test runs first and the O(m^3) search never does
        def no_search(dirs):
            raise AssertionError("pairwise support search reached")

        monkeypatch.setattr(fan_mod, "_pairwise_support", no_search)
        split = pc.split_facet_cube(False)
        for v in (8, 9):
            assert verify_face(split, Face(0, v)) == (True, "OK_FLAT")
        wedge = wedge_cube(16)
        assert len(pc.link_cycle(wedge.poset, Face(0, 8))) == 76
        assert verify_face(wedge, Face(0, 8)) == (True, "OK_FLAT")
        assert pc.verify(wedge).kind == "CONVEX"

    def test_wedge_test_is_linear_wherever_the_fold_lands(self, monkeypatch):
        # relabelling moves the fold pair of the wedge star anywhere in its
        # cycle; the classifier still makes O(m) cross products, not O(r^2)
        real = fan_mod.cross3
        calls = []

        def counting(u, v):
            calls.append(None)
            return real(u, v)

        for seed in range(1, 7):
            fan = max(star_fans(pc.relabel(wedge_cube(64), seed)), key=lambda f: len(f.dirs))
            assert len(fan.dirs) == 4 * 64 + 12
            calls.clear()
            monkeypatch.setattr(fan_mod, "cross3", counting)
            assert fan_is_convex(fan) == (True, "OK_FLAT")
            monkeypatch.undo()
            assert len(calls) <= 3 * len(fan.dirs), (seed, len(calls))

    def test_zero_angle(self):
        fan = make_fan(
            [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))],
            [(F(2), F(0), F(0)), (F(0), F(1), F(1)), (F(1), F(0), F(1))],
        )
        # first witness rides exactly on its ray
        assert fan_is_convex(fan) == (False, "ZERO_ANGLE_CONE")

    def test_cyclic_shift_and_reversal_invariance(self, cube, schonhardt):
        fans = []
        for surface in (cube, schonhardt, pc.split_facet_cube()):
            poset = surface.poset
            prepared = pc.preflight(surface)
            for f in list(poset.faces(0))[:4]:
                cyc = pc.link_cycle(poset, f)
                fans.append(pc.build_fan(prepared.points, f, cyc, prepared.projections[f.index]))
        # the geometry pass hands the classifier integer directions and rows
        assert all(type(c) is int for fan in fans for d in fan.dirs for c in d)
        rows = pc.complementary_projection([as_vec([1, 2, 0, -1])], 4).rows
        assert all(type(c) is int for r in rows for c in r)
        rng = random.Random(7)
        for fan in fans:
            base = fan_is_convex(fan)
            dirs = fan.dirs
            for shift in range(2, len(dirs), 2):
                rotated = int_fan(dirs[shift:] + dirs[:shift])
                assert fan_is_convex(rotated) == base
            # reversed from the first ray, so rays stay at even positions
            assert fan_is_convex(int_fan(dirs[:1] + dirs[:0:-1])) == base
            # each direction only stands for its ray: rescale every entry on its own
            for _ in range(3):
                scaled = []
                for d in dirs:
                    lam = rng.choice([rng.randint(1, 10**6), F(rng.randint(1, 99), rng.randint(1, 99))])
                    scaled.append(tuple(lam * c for c in d))
                assert fan_is_convex(int_fan(scaled)) == base

    def test_scaling_invariance(self):
        rays = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
        fan = fan_between(rays)
        for lam in (F(3), F(1, 7), F(12, 5)):
            scaled = int_fan(tuple(lam * c for c in d) for d in fan.dirs)
            assert fan_is_convex(scaled) == fan_is_convex(fan)

    def test_cube_origin_corner_directions(self, cube):
        # star of the origin vertex under the identity projection: rays
        # along the coordinate axes, witnesses along e_i + e_j
        origin = next(
            f for f in cube.poset.faces(0) if cube.vertices[f.index] == as_vec([0, 0, 0])
        )
        cyc = pc.link_cycle(cube.poset, origin)
        fan = pc.build_fan(pc.preflight(cube).points, origin, cyc, pc.complementary_projection((), 3))

        def ray_of(d):
            scale = next(c for c in d if c != 0)
            return tuple(c / scale for c in d)

        rays = {ray_of(d) for d in fan.dirs[0::2]}
        assert rays == {as_vec([1, 0, 0]), as_vec([0, 1, 0]), as_vec([0, 0, 1])}
        cells = {ray_of(d) for d in fan.dirs[1::2]}
        assert cells == {as_vec([0, 1, 1]), as_vec([1, 0, 1]), as_vec([1, 1, 0])}

    def test_tesseract_origin_edge_directions(self, tesseract):
        # the edge along e1 from the origin: coordinate projection onto
        # (x2, x3, x4); rays point along the remaining axes
        edge = next(
            e
            for e in tesseract.poset.faces(1)
            if {tesseract.vertices[v] for v in tesseract.poset.vertex_lists[e]}
            == {as_vec([0, 0, 0, 0]), as_vec([1, 0, 0, 0])}
        )
        proj = pc.preflight(tesseract).projections[edge.index]
        assert proj.axes == (1, 2, 3)
        cyc = pc.link_cycle(tesseract.poset, edge)
        fan = pc.build_fan(pc.preflight(tesseract).points, edge, cyc, proj)
        rays = set()
        for d in fan.dirs[0::2]:
            scale = next(c for c in d if c != 0)
            rays.add(tuple(c / scale for c in d))
        assert rays == {as_vec([1, 0, 0]), as_vec([0, 1, 0]), as_vec([0, 0, 1])}

    def test_witness_in_ray_cone_for_polytopes(self, cube):
        # fans of genuinely convex bodies keep each witness strictly
        # between its two neighboring rays; the skewed pyramid and the
        # large prism have nearly flat stars, where the support search
        # needs an exact certificate
        for surface in (cube, pc.gen_prism(7), skewed_pyramid(64), pc.gen_prism(256)):
            assert pc.verify(surface).kind == "CONVEX"
            prepared = pc.preflight(surface)
            for f in surface.poset.faces(0):
                cyc = pc.link_cycle(surface.poset, f)
                fan = pc.build_fan(prepared.points, f, cyc, prepared.projections[f.index])
                assert fan_is_convex(fan) == (True, "OK_POINTED")
                dirs = fan.dirs
                m = len(dirs)
                for i in range(1, m, 2):
                    w, r1, r2 = dirs[i], dirs[i - 1], dirs[(i + 1) % m]
                    # w = x*r1 + y*r2 with x, y > 0: w lies in the plane of
                    # r1 and r2, strictly on the r2 side of r1 and the r1 side of r2
                    normal = cross3(r1, r2)
                    assert normal != (0, 0, 0) and dot(normal, w) == 0
                    assert dot(cross3(r1, w), normal) > 0 and dot(cross3(w, r2), normal) > 0


def turn_defect_reference(pairs, straight_ok):
    """Reference for the turn clauses of ``_wound_once``, in a pass of their own.

    The pairs are visited in the given order and the first failing
    clause names the reason: a zero turn that is not straight ahead is a
    reversal (WRONG_TURN_SIGN); a straight-ahead one is allowed when
    ``straight_ok`` and a ZERO_ANGLE_CONE otherwise; a turn against the
    first nonzero one, or no nonzero turn at all, is WRONG_TURN_SIGN.
    """
    turn = 0
    for u, v in pairs:
        c = u[0] * v[1] - u[1] * v[0]
        if c == 0:
            if u[0] * v[0] + u[1] * v[1] <= 0:
                return "WRONG_TURN_SIGN"
            if not straight_ok:
                return "ZERO_ANGLE_CONE"
            continue
        s = 1 if c > 0 else -1
        if turn == 0:
            turn = s
        elif s != turn:
            return "WRONG_TURN_SIGN"
    return None if turn else "WRONG_TURN_SIGN"


def two_pass_wound_once(vecs, pairs, straight_ok, accept):
    """Reference for ``_wound_once``: the turn clauses over ``pairs``, then
    ``rotation_index`` of the cycle ``vecs`` in a second pass."""
    reason = turn_defect_reference(pairs, straight_ok)
    if reason is None and abs(rotation_index(vecs)) != 1:
        reason = "BAD_ROTATION_INDEX"
    return (reason is None, reason or accept)


def cyclic_pairs(vecs):
    """The pairs (vecs[i-1], vecs[i]) for i = 0..m-1, the order ``_wound_once`` visits."""
    return zip(vecs[-1:] + vecs[:-1], vecs)


def rank3_reference(dirs):
    """Rank of a set of integer 3-vectors, as the classifier computed it
    before the rank scan moved into ``fan_is_convex``."""
    first = next((d for d in dirs if d != (0, 0, 0)), None)
    if first is None:
        return 0
    normal = None
    for d in dirs:
        c = cross3(first, d)
        if c != (0, 0, 0):
            normal = c
            break
    if normal is None:
        return 1
    return 3 if any(dot(normal, d) != 0 for d in dirs) else 2


def plane_coords_reference(b1, b2, dirs):
    """Coordinates (x, y) with d = x*b1 + y*b2, scaled by a common positive factor.

    The factor is the absolute value of the first nonzero 2x2 minor of
    (b1, b2), so no division is needed and every sign test survives:
    y > 0 still means the side of b2.  Only directions inside span(b1, b2)
    get meaningful coordinates.  The flat branch's coordinates before
    ``_plane_frame``.
    """
    i, j, det = next(
        (i, j, b1[i] * b2[j] - b1[j] * b2[i])
        for i, j in ((0, 1), (0, 2), (1, 2))
        if b1[i] * b2[j] - b1[j] * b2[i] != 0
    )
    sign = 1 if det > 0 else -1
    return [
        (sign * (d[i] * b2[j] - d[j] * b2[i]), sign * (b1[i] * d[j] - b1[j] * d[i]))
        for d in dirs
    ]


def half_sweep_reference(start, between):
    """The chain test of ``ray_pair_wedge_check``.

    The chain must stay in one plane through the fold line, strictly on
    one side of it, and turn strictly counterclockwise from (1, 0) to
    (-1, 0) in plane coordinates with ``start`` at (1, 0).
    """
    if not between:
        return False
    normal = cross3(start, between[0])
    if any(dot(normal, u) != 0 for u in between):
        return False
    seq = [(1, 0)] + plane_coords_reference(start, between[0], between) + [(-1, 0)]
    if any(y <= 0 for _, y in seq[1:-1]):
        return False
    return all(u[0] * v[1] - u[1] * v[0] > 0 for u, v in zip(seq, seq[1:]))


def ray_pair_wedge_check(dirs):
    """Reference for ``_wedge_check``: the O(r^2) search over antipodal ray pairs (rays at even positions)."""
    m = len(dirs)
    rays = range(0, m, 2)
    for a, i in enumerate(rays):
        for j in rays[a + 1 :]:
            if cross3(dirs[i], dirs[j]) != (0, 0, 0) or dot(dirs[i], dirs[j]) >= 0:
                continue
            if any(k not in (i, j) and cross3(dirs[k], dirs[i]) == (0, 0, 0) for k in range(m)):
                continue  # a third direction on the fold line
            chain_a = [dirs[k] for k in range(i + 1, j)]
            chain_b = [dirs[k % m] for k in range(j + 1, i + m)]
            if half_sweep_reference(dirs[i], chain_a) and half_sweep_reference(dirs[j], chain_b):
                return (True, "OK_FLAT")
    return (False, "NO_SUPPORT")


def wedge_outcome(fan):
    """``_wedge_check`` against the reference, on a fan that reaches it.

    Returns its verdict (True for OK_FLAT), or None when ``fan_is_convex``
    never runs the wedge test on the fan: rank below 3, or a strictly
    feasible certificate.
    """
    dirs = [homogeneous(d)[0] for d in fan.dirs]
    crosses, cert = fan_mod._crosses_and_sum(dirs)
    s, dots = fan_mod._certified_direction(dirs, cert)
    if rank3_reference(dirs) != 3 or s is not None:
        return None
    got = fan_mod._wedge_check(dirs, crosses, dots)
    assert got == ray_pair_wedge_check(dirs), dirs
    return got.convex


def star_fans(surface):
    """The projected fan of every (n-3)-face star, as ``verify`` builds it.

    A vertex-mode report that is not ok leaves ``preflight``'s projections
    None at n >= 4; then each face's is ``complementary_projection`` of
    its ``_face_geometry`` basis, as the geometry pass would take it.
    """
    prepared = pc.preflight(surface)
    poset = surface.poset
    for f in poset.faces(poset.dim_low):
        cycle = pc.link_cycle(poset, f)
        proj = prepared.projections[f.index]
        if proj is None:
            points = [homogeneous(surface.vertices[v]) for v in poset.vertex_ids[f.dim][f.index]]
            basis = surface_mod._face_geometry(f.dim, points)[1]
            proj = pc.complementary_projection([row for _, row in basis], surface.n)
        yield pc.build_fan(prepared.points, f, cycle, proj)


def section_point_classifier(fan):
    """Reference: the classifier that built homogeneous section points.

    Rank first, then the certificate, then the ray-pair wedge search and
    the pairwise search; the pointed branch scales each direction onto
    x . s = 1 as the homogeneous point (d . b1, d . b2, d . s) and takes
    edges between consecutive points.  ``fan_is_convex`` must give the
    same result.
    """
    dirs = [homogeneous(d)[0] for d in fan.dirs]
    r = rank3_reference(dirs)
    if r <= 1:
        return (False, "DEGENERATE_RANK")
    if r == 2:
        first = next(d for d in dirs if d != (0, 0, 0))
        other = next(d for d in dirs if cross3(first, d) != (0, 0, 0))
        dirs2 = plane_coords_reference(first, other, dirs)
        return two_pass_wound_once(dirs2, zip(dirs2, dirs2[1:] + dirs2[:1]), False, "OK_FLAT")
    m = len(dirs)
    cert = tuple(sum(cross3(dirs[k - 1], dirs[k])[a] for k in range(m)) for a in range(3))
    s = next((c for c in (cert, tuple(-x for x in cert)) if all(dot(c, d) > 0 for d in dirs)), None)
    if s is None:
        wedge = ray_pair_wedge_check(dirs)
        if wedge[0]:
            return wedge
        s = fan_mod._pairwise_support(dirs)
        if s is None:
            return wedge
    b1 = next(c for c in ((-s[1], s[0], 0), (-s[2], 0, s[0]), (0, -s[2], s[1])) if c != (0, 0, 0))
    b2 = cross3(s, b1)
    hom = [(dot(d, b1), dot(d, b2), dot(d, s)) for d in dirs]
    edges = []
    for k in range(m):
        a, b = hom[k], hom[(k + 1) % m]
        e = (a[2] * b[0] - b[2] * a[0], a[2] * b[1] - b[2] * a[1])
        if e == (0, 0):
            return (False, "ZERO_ANGLE_CONE")
        edges.append(e)
    return two_pass_wound_once(edges, cyclic_pairs(edges), True, "OK_POINTED")


def full_circle(k):
    """k >= 4 exact rational points once around the unit circle, in angular order."""
    half = circle_points(k // 2)
    return half + [(-x, -y) for x, y in circle_points(k - k // 2)]


def random_map(rng):
    """A random invertible integer 3x3 map, as a function on 3-vectors."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if dot(rows[0], cross3(rows[1], rows[2])) != 0:
            return lambda d: tuple(dot(r, d) for r in rows)


def with_witnesses(rays, rng):
    """Each ray followed by a positive combination of it and the next ray."""
    out = []
    for k, r in enumerate(rays):
        nxt = rays[(k + 1) % len(rays)]
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        out += [r, tuple(a * x + b * y for x, y in zip(r, nxt))]
    return out


def random_small(rng):
    dirs = []
    while len(dirs) < rng.randint(3, 10):
        d = tuple(rng.randint(-3, 3) for _ in range(3))
        if d != (0, 0, 0):
            dirs.append(d)
    return dirs


def random_pointed(rng):
    s0 = (0, 0, 0)
    while s0 == (0, 0, 0):
        s0 = tuple(rng.randint(-3, 3) for _ in range(3))
    dirs = []
    while len(dirs) < rng.randint(3, 10):
        d = tuple(rng.randint(-5, 5) for _ in range(3))
        if dot(s0, d) > 0:
            dirs.append(d)
    return dirs


def convex_pointed(rng):
    """A lifted convex polygon with witnesses, at times with one entry disturbed."""
    pts = sorted(rng.sample(range(24), rng.randint(3, 6)))
    circle = full_circle(24)
    rays = [(*circle[i], F(1)) for i in pts]
    if rng.random() < 0.5:
        rays.reverse()
    dirs = with_witnesses(rays, rng)
    roll = rng.random()
    k = rng.randrange(len(dirs))
    if roll < 0.2:
        dirs[k] = tuple(x + F(rng.randint(-3, 3), 7) for x in dirs[k])
    elif roll < 0.3:
        dirs[k] = dirs[k - 1]  # a witness or ray on its neighbor: a zero-angle cone
    move = random_map(rng)
    return [move(d) for d in dirs]


def zigzag(rng):
    """Apex star of a zigzag bipyramid over a half-circle, moved."""
    rim = circle_points(rng.randint(4, 6))
    rays = [(x, y, F(-9, 5) if k % 2 == 0 else F(-11, 5)) for k, (x, y) in enumerate(rim)]
    move = random_map(rng)
    return [move(d) for d in with_witnesses(rays, rng)]


def star_polygon_lift(rng):
    """A lifted star polygon {k/j} (a pentagram for k = 5, j = 2), or a convex one wound twice."""
    k = rng.choice([5, 7])
    j = rng.randint(2, (k - 1) // 2)
    circle = full_circle(k)
    rays = [(*circle[(i * j) % k], F(1)) for i in range(k)]
    if rng.random() < 0.25:
        rays = [(*p, F(1)) for p in full_circle(4)] * 2
    dirs = []
    for r, nxt in zip(rays, rays[1:] + rays[:1]):
        dirs += [r, tuple(x + y for x, y in zip(r, nxt))]
    move = random_map(rng)
    return [move(d) for d in dirs]


def planar(rng):
    """Directions in one plane: a once-around sweep, a shuffle, or one line."""
    while True:
        u = tuple(rng.randint(-3, 3) for _ in range(3))
        w = tuple(rng.randint(-3, 3) for _ in range(3))
        if cross3(u, w) != (0, 0, 0):
            break
    coeffs = full_circle(rng.randint(4, 10))
    roll = rng.random()
    if roll < 0.3:
        rng.shuffle(coeffs)
    elif roll < 0.4:
        coeffs = [(F(rng.choice([-3, -1, 1, 2])), F(0)) for _ in coeffs]
    return [tuple(a * x + b * y for x, y in zip(u, w)) for a, b in coeffs]


def near_wedge(rng):
    """A fold line +-x with a chain in each of two half-planes, at times disturbed."""
    x = (1, 0, 0)
    dirs = [x]
    for sign in (1, -1):
        n = (0, 0, 0)
        while cross3(x, n) == (0, 0, 0):
            n = tuple(rng.randint(-3, 3) for _ in range(3))
        chain = circle_points(2 * rng.randint(1, 2) + 1)  # angles in (-pi/2, pi/2)
        for px, py in chain:  # turned to angles in (0, pi) from x towards n
            dirs.append(tuple(sign * -py * a + px * b for a, b in zip(x, n)))
        if sign == 1:
            dirs.append((-1, 0, 0))
    if rng.random() < 0.5:
        k = rng.randrange(len(dirs))
        dirs[k] = tuple(c + F(rng.randint(-2, 2), 5) for c in dirs[k])
    shift = 2 * rng.randrange(len(dirs) // 2)  # the fold rays stay at even positions
    return dirs[shift:] + dirs[:shift]


FAMILIES = (random_small, random_pointed, convex_pointed, zigzag, star_polygon_lift, planar, near_wedge)


def seeded_fans(seed, count):
    """``count`` base fans over all families, each followed by four variants:
    every entry rescaled by its own ``Fraction``, one entry rescaled by a
    multiple of 10**400, a cyclic shift, and the reversed cycle (entry 0
    kept in place, so rays stay at even positions)."""
    rng = random.Random(seed)
    for i in range(count):
        dirs = FAMILIES[i % len(FAMILIES)](rng)
        yield int_fan(dirs)
        yield int_fan([tuple(F(rng.randint(1, 99), rng.randint(1, 99)) * c for c in d) for d in dirs])
        huge = list(dirs)
        k = rng.randrange(len(huge))
        huge[k] = tuple(10**400 * rng.randint(1, 9) * c for c in huge[k])
        yield int_fan(huge)
        shift = 2 * rng.randrange((len(dirs) + 1) // 2)
        yield int_fan(dirs[shift:] + dirs[:shift])
        yield int_fan(dirs[:1] + dirs[:0:-1])


class TestCrossProductClassifier:
    def test_matches_section_points_on_seeded_fans(self):
        reasons = Counter()
        for fan in seeded_fans(2024, 3000):
            res = fan_is_convex(fan)
            assert res == section_point_classifier(fan), list(fan.dirs)
            reasons[res.reason] += 1
        assert sum(reasons.values()) >= 12_000
        # every branch and every reason code is reached
        assert set(reasons) == {
            "OK_POINTED",
            "OK_FLAT",
            "NO_SUPPORT",
            "BAD_ROTATION_INDEX",
            "WRONG_TURN_SIGN",
            "ZERO_ANGLE_CONE",
            "DEGENERATE_RANK",
        }
        assert min(reasons.values()) >= 30, reasons

    def test_matches_section_points_on_generated_stars(self, monkeypatch):
        # every fan that verify classifies, on valid and invalid variants
        # alike; a dent can warp a face, which verify rejects before any fan,
        # so the dented variants give every fan of preflight's table
        fans = []

        def recording(fan):
            fans.append(fan)
            return fan_is_convex(fan)

        monkeypatch.setattr(verifier_mod, "fan_is_convex", recording)
        bases = [pc.gen_hypercube(n) for n in (3, 4)] + [pc.gen_cross_polytope(n) for n in (3, 4)]
        bases += [pc.gen_simplex(n) for n in (3, 4, 5, 6)] + [pc.gen_prism(m) for m in (3, 7, 20)]
        bases += [pc.gen_schonhardt(), pc.gen_dented_cube(1), pc.gen_dented_cube(3)]
        bases += [pc.split_facet_cube(False), pc.split_facet_cube(True), wedge_cube(8)]
        bases += [skewed_pyramid(32), zigzag_bipyramid(8), zigzag_bipyramid(16)]
        variants = [moved for base in bases for moved in (base, pc.rigid_motion(base, 3))]
        for moved in variants:
            for surface in (moved, pc.as_equations(moved)):
                pc.verify(surface, collect_all=True)
        monkeypatch.undo()
        for moved in variants:
            for t in (F(1, 4), F(1, 1000), F(-1, 3)):
                fans.extend(star_fans(pc.dent(moved, 0, t)))
        reasons = Counter()
        for fan in fans:
            res = fan_is_convex(fan)
            assert res == section_point_classifier(fan)
            reasons[res.reason] += 1
        assert sum(reasons.values()) >= 2500
        assert {"OK_POINTED", "OK_FLAT", "WRONG_TURN_SIGN", "NO_SUPPORT", "ZERO_ANGLE_CONE"} <= set(reasons), reasons

    def test_wedge_test_matches_ray_pair_search_on_wedge_cubes(self):
        # every star of relabelled wedge cubes, as built and with the wedge
        # vertex pushed inwards or outwards, that reaches the wedge test; the
        # vertices on the cube's edges are wedges too
        outcomes = Counter()
        for k in (4, 16, 64):
            for seed in range(7):
                surface = pc.relabel(wedge_cube(k), seed)
                apex = max(surface.poset.faces(0), key=lambda f: len(pc.link_cycle(surface.poset, f)))
                for t in (None, F(1, 4), F(-1, 3)):
                    moved = surface if t is None else pc.dent(surface, apex.index, t)
                    for fan in star_fans(moved):
                        outcomes[wedge_outcome(fan)] += 1
        assert outcomes[True] >= 3000 and outcomes[False] >= 50, outcomes

    def test_pointed_reason_does_not_depend_on_support(self):
        rng = random.Random(77)
        reasons = Counter()
        for fan in seeded_fans(99, 500):
            dirs = [homogeneous(d)[0] for d in fan.dirs]
            s_pair = fan_mod._pairwise_support(dirs)
            if s_pair is None:
                continue
            crosses, cert = fan_mod._crosses_and_sum(dirs)
            supports = [s_pair]
            s_cert, _ = fan_mod._certified_direction(dirs, cert)
            if s_cert is not None:
                supports.append(s_cert)
            for _ in range(3):
                a, b = rng.randint(1, 9), rng.randint(1, 9)
                t = supports[rng.randrange(len(supports))]
                # a positive combination, and a disturbed s kept only while strictly feasible
                supports.append(tuple(a * x + b * y for x, y in zip(s_pair, t)))
                bent = tuple(50 * x + rng.randint(-9, 9) * max(map(abs, s_pair)) for x in s_pair)
                if all(dot(bent, d) > 0 for d in dirs):
                    supports.append(bent)
            expected = fan_is_convex(fan)
            for s in supports:
                assert fan_mod._pointed_check(crosses, s) == expected
            reasons[expected.reason] += len(supports)
        assert {"OK_POINTED", "WRONG_TURN_SIGN", "BAD_ROTATION_INDEX", "ZERO_ANGLE_CONE"} <= set(reasons)

    def test_certificate_complete_for_accepted_pointed_fans(self):
        # a strictly feasible fan whose certificate fails is never OK_POINTED,
        # whatever support the pairwise search finds (see _certified_direction)
        reasons = Counter()
        certified = 0
        for fan in seeded_fans(4242, 1500):
            dirs = [homogeneous(d)[0] for d in fan.dirs]
            crosses, cert = fan_mod._crosses_and_sum(dirs)
            s_cert, _ = fan_mod._certified_direction(dirs, cert)
            if s_cert is not None:
                certified += fan_mod._pointed_check(crosses, s_cert).convex
                continue
            s = fan_mod._pairwise_support(dirs)
            if s is not None:
                reason = fan_mod._pointed_check(crosses, s).reason
                assert reason != "OK_POINTED", dirs
                reasons[reason] += 1
        assert certified >= 1000 and sum(reasons.values()) >= 300, (certified, reasons)

    def test_certificate_never_feasible_below_rank_3(self):
        rng = random.Random(13)
        ranks = Counter()
        for _ in range(2000):
            dirs = [homogeneous(d)[0] for d in planar(rng)]
            if rng.random() < 0.2:
                dirs.append((0, 0, 0))
            r = rank3_reference(dirs)
            assert r <= 2
            ranks[r] += 1
            crosses, cert = fan_mod._crosses_and_sum(dirs)
            s, dots = fan_mod._certified_direction(dirs, cert)
            assert s is None and not any(dots)
        assert ranks[1] >= 100 and ranks[2] >= 1000


def splice(vecs, rng):
    """Maybe splice a defect into a cyclic vector sequence at a random place:
    a straight turn (a positive multiple of an entry after it), a reversal
    (a negative multiple after it) or one entry replaced at random."""
    vecs = list(vecs)
    k = rng.randrange(len(vecs))
    roll = rng.random()
    if roll < 0.2:
        vecs.insert(k + 1, tuple(rng.randint(1, 3) * x for x in vecs[k]))
    elif roll < 0.35:
        vecs.insert(k + 1, tuple(-rng.randint(1, 3) * x for x in vecs[k]))
    elif roll < 0.5:
        vecs[k] = (F(rng.randint(-4, 4), 3), F(rng.choice([-2, -1, 1, 2]), 5))
    return vecs


def seeded_edge_cycles(seed, count):
    """Cycles of nonzero plane vectors, each followed by a cyclic shift and its reversal.

    The bases rotate through small random integer vectors (mostly mixed
    turn signs), the edges of a convex rational polygon in either sense,
    and star polygons {k/j} or a doubled convex cycle (wound two or more
    times); half of them get a straight turn, a reversal or a disturbed
    entry spliced in.
    """
    rng = random.Random(seed)
    for i in range(count):
        roll = i % 3
        if roll == 0:
            vecs = []
            while len(vecs) < rng.randint(2, 8):
                v = (rng.randint(-3, 3), rng.randint(-3, 3))
                if v != (0, 0):
                    vecs.append(v)
        elif roll == 1:
            vecs = edge_dirs(full_circle(rng.randint(4, 9)))
            if rng.random() < 0.5:
                vecs = [(-x, -y) for x, y in reversed(vecs)]
        else:
            k = rng.choice([5, 7, 9])
            j = rng.choice([j for j in range(2, (k + 1) // 2) if math.gcd(j, k) == 1])
            circle = full_circle(k)
            vecs = edge_dirs([circle[(n * j) % k] for n in range(k)])
            if rng.random() < 0.25:
                vecs = edge_dirs(full_circle(rng.randint(4, 6))) * 2
        if rng.random() < 0.5:
            vecs = splice(vecs, rng)
        yield vecs
        shift = rng.randrange(len(vecs))
        yield vecs[shift:] + vecs[:shift]
        yield vecs[::-1]


def half_sweep_chain(rng, start, towards, disturb):
    """A strictly monotone sweep from ``start`` towards ``towards``, angles in (0, pi).

    With ``disturb`` it is, at times, shuffled, given a repeated
    direction, an entry replaced at random or an entry moved off the
    plane; directions on the fold line are dropped.
    """
    coeffs = [(-py, px) for px, py in circle_points(rng.randint(1, 5))]
    roll = rng.random() if disturb else 1
    if roll < 0.2:
        rng.shuffle(coeffs)
    elif roll < 0.35:
        k = rng.randrange(len(coeffs))
        coeffs.insert(k, tuple(2 * c for c in coeffs[k]))
    elif roll < 0.5:
        k = rng.randrange(len(coeffs))
        coeffs[k] = (F(rng.randint(-3, 3)), F(rng.randint(-1, 1)))
    chain = [tuple(a * p + b * q for p, q in zip(start, towards)) for a, b in coeffs]
    if disturb and rng.random() < 0.1:
        k = rng.randrange(len(chain))
        chain[k] = tuple(c + rng.randint(-1, 1) for c in chain[k])
    return [d for d in chain if cross3(start, d) != (0, 0, 0)]


class TestOnePassWinding:
    def test_matches_two_pass_reference(self):
        reasons = Counter()
        for vecs in seeded_edge_cycles(31, 600):
            for straight_ok in (True, False):
                got = fan_mod._wound_once(vecs, straight_ok, "ACCEPT")
                assert got == two_pass_wound_once(vecs, cyclic_pairs(vecs), straight_ok, "ACCEPT"), vecs
                reasons[straight_ok, got.reason] += 1
                # the flat branch's order: the pairs from (vecs[0], vecs[1]) on
                flat = two_pass_wound_once(vecs, zip(vecs, vecs[1:] + vecs[:1]), straight_ok, "ACCEPT")
                assert fan_mod._wound_once(vecs[1:] + vecs[:1], straight_ok, "ACCEPT") == flat
        for straight_ok in (True, False):
            for reason in ("ACCEPT", "WRONG_TURN_SIGN", "BAD_ROTATION_INDEX"):
                assert reasons[straight_ok, reason] >= 100, reasons
        assert reasons[False, "ZERO_ANGLE_CONE"] >= 100, reasons
        assert reasons[True, "ZERO_ANGLE_CONE"] == 0

    def test_half_sweep_matches_turn_clauses(self):
        # each chain, wrapped into a wedge fan whose other chain is a clean
        # half sweep in a second plane and rotated at random: the O(m) wedge
        # test agrees with the ray-pair search and its chain turn clauses
        rng = random.Random(8)
        outcomes = Counter()
        for _ in range(1500):
            x = (0, 0, 0)
            while x == (0, 0, 0):
                x = tuple(rng.randint(-3, 3) for _ in range(3))
            w = v = x
            while cross3(x, w) == (0, 0, 0):
                w = tuple(rng.randint(-3, 3) for _ in range(3))
            while dot(cross3(x, w), v) == 0:
                v = tuple(rng.randint(-3, 3) for _ in range(3))
            minus_x = tuple(-c for c in x)
            # chains of odd length put the fold rays at even positions, as in
            # every fan build_fan makes, and shifts by even amounts keep them there
            between = other = []
            while len(between) % 2 == 0:
                between = half_sweep_chain(rng, x, w, True)
            while len(other) % 2 == 0:
                other = half_sweep_chain(rng, minus_x, v, False)
            dirs = [x, *between, minus_x, *other]
            shift = 2 * rng.randrange(len(dirs) // 2)
            outcomes[wedge_outcome(int_fan(dirs[shift:] + dirs[:shift]))] += 1
        assert min(outcomes[True], outcomes[False]) >= 300, outcomes


def lifted_cycle(rng, vecs):
    """A plane cycle mapped into 3-space, with entries of up to 200 bits.

    Each (x, y) goes to x u + y w + t a for random integer u, w and a
    nonzero axis a, t random per entry, scaled to ``int``s by
    ``homogeneous``; at times one entry becomes zero or a multiple of a.
    Returns the axis and the cycle.
    """
    bits = rng.choice((2, 30, 200))

    def vec():
        return tuple(rng.choice((0, rng.randint(-(2**bits), 2**bits))) for _ in range(3))

    axis = (0, 0, 0)
    while axis == (0, 0, 0):
        axis = vec()
    u, w = vec(), vec()
    out = []
    for x, y in vecs:
        t = rng.choice((0, rng.randint(-(2**bits), 2**bits)))
        out.append(homogeneous(tuple(x * p + y * q + t * r for p, q, r in zip(u, w, axis)))[0])
    roll = rng.random()
    k = rng.randrange(len(out))
    if roll < 0.1:
        out[k] = (0, 0, 0)
    elif roll < 0.2:
        out[k] = tuple(rng.choice((-3, -1, 2)) * c for c in axis)
    return axis, out


class TestPlaneFrame:
    def test_wound_once_same_in_orthogonal_frame(self):
        # _plane_frame and the orthogonal basis frame are linear maps with the
        # same kernel span(axis), so they differ by one linear bijection of
        # the plane, which keeps every clause of _wound_once
        rng = random.Random(22)
        reasons = Counter()
        for vecs in seeded_edge_cycles(22, 700):
            axis, cycle = lifted_cycle(rng, vecs)
            for straight_ok in (True, False):
                got = fan_mod._wound_once(fan_mod._plane_frame(axis, cycle), straight_ok, "ACCEPT")
                assert got == fan_mod._wound_once(orthogonal_frame(axis, cycle), straight_ok, "ACCEPT"), (axis, cycle)
                reasons[straight_ok, got.reason] += 1
        assert sum(reasons.values()) >= 4000
        for straight_ok in (True, False):
            for reason in ("ACCEPT", "WRONG_TURN_SIGN", "BAD_ROTATION_INDEX"):
                assert reasons[straight_ok, reason] >= 100, reasons
        assert reasons[False, "ZERO_ANGLE_CONE"] >= 100, reasons

    def test_fan_reasons_same_in_orthogonal_frame(self, monkeypatch):
        fans = [fan for fan in seeded_fans(606, 400) if (0, 0, 0) not in fan.dirs]
        expected = [fan_is_convex(fan) for fan in fans]
        monkeypatch.setattr(fan_mod, "_plane_frame", orthogonal_frame)
        reasons = Counter()
        for fan, want in zip(fans, expected):
            assert fan_is_convex(fan) == want, list(fan.dirs)
            reasons[want.reason] += 1
        assert len(fans) >= 1990
        assert len(reasons) == 7 and min(reasons.values()) >= 10, reasons

    def test_zero_direction_never_accepted(self):
        # build_fan raises ZeroDirectionError before any zero direction
        # reaches fan_is_convex; a hand-built fan with one is still rejected
        rng = random.Random(23)
        for fan in seeded_fans(23, 500):
            dirs = list(fan.dirs)
            for _ in range(rng.choice((1, 1, 2, len(dirs)))):  # inserted or replacing
                k = rng.randrange(len(dirs) + 1)
                if rng.random() < 0.5:
                    dirs.insert(k, (0, 0, 0))
                else:
                    dirs[k % len(dirs)] = (0, 0, 0)
            assert not fan_is_convex(int_fan(dirs)).convex, dirs


class TestIntegerContract:
    def test_fraction_mixed_and_integer_fans_agree(self):
        rng = random.Random(17)
        reasons = Counter()
        for i in range(1400):
            dirs = FAMILIES[i % len(FAMILIES)](rng)
            # each direction rescaled by its own positive factor
            scales = [rng.randint(1, 9) for _ in dirs]
            fractions = [tuple(F(c, k) for c in d) for d, k in zip(dirs, scales)]
            mixed = fractions[:1] + [d if rng.random() < 0.5 else homogeneous(d)[0] for d in fractions[1:]]
            integers = [tuple(k * x for x in homogeneous(d)[0]) for d, k in zip(fractions, scales[::-1])]
            expected = fan_is_convex(int_fan(integers))
            assert fan_is_convex(int_fan(fractions)) == expected
            assert fan_is_convex(int_fan(mixed)) == expected
            reasons[expected.reason] += 1
        assert len(reasons) == 7, reasons

    def test_build_fan_scales_only_fraction_rows(self):
        # projection rows are integers, used as given (the fan layer has no
        # conversion to make, see test_api): the axis shortcut and the same
        # rows as row products build one fan, k times the rows build the same
        # primitive directions, and a random integer mix of the rows
        # classifies each star alike
        rng = random.Random(29)
        surfaces = [pc.rigid_motion(pc.gen_hypercube(5), 1), pc.rigid_motion(pc.gen_cross_polytope(4), 2)]
        surfaces += [pc.dent(pc.rigid_motion(pc.gen_simplex(5), 1), 0, F(3, 2)), pc.gen_schonhardt()]
        surfaces += [zigzag_bipyramid(6), wedge_cube(3), pc.split_facet_cube()]
        reasons = Counter()
        for surface in surfaces:
            prepared = pc.preflight(surface)
            assert prepared.ok
            for f in surface.poset.faces(surface.poset.dim_low):
                cycle = pc.link_cycle(surface.poset, f)
                base = prepared.projections[f.index]
                k = rng.randint(2, 9)
                want = pc.build_fan(prepared.points, f, cycle, base)
                expected = fan_is_convex(want)
                assert pc.build_fan(prepared.points, f, cycle, Projection3(base.rows)) == want
                scaled = pc.build_fan(prepared.points, f, cycle, Projection3(tuple(tuple(k * x for x in row) for row in base.rows)))
                assert scaled.dirs == want.dirs
                assert fan_is_convex(scaled) == expected
                mixed = random_same_kernel_projection(base, rng)
                assert fan_is_convex(pc.build_fan(prepared.points, f, cycle, mixed)) == expected
                reasons[expected.reason] += 1
        assert reasons["OK_POINTED"] >= 100 and len(reasons) >= 3, reasons


def entry_by_entry(points, center, cycle, proj):
    """Reference for ``build_fan``: each entry's (kind, primitive direction), one at a time."""

    def image(nums):
        if proj.axes is not None:
            return tuple(nums[a] for a in proj.axes)
        return tuple(sum(r * x for r, x in zip(row, nums)) for row in proj.rows)

    center_nums, wc = points[center.dim][center.index]
    apex = image(center_nums)
    entries = []
    for k, f in enumerate(cycle):
        dim = center.dim + 1 + k % 2  # the cycle alternates faces one and two ranks up
        nums, w = points[dim][f]
        direction = tuple(wc * p - w * a for p, a in zip(image(nums), apex))
        g = math.gcd(*direction)
        entries.append(("ray" if dim == center.dim + 1 else "cell", tuple(x // g for x in direction)))
    return tuple(entries)


class TestFanView:
    def test_entries_view_and_rebuild(self, monkeypatch):
        # every fan that build_fan returns for verify_face, as built and moved,
        # and for star_fans, dented too: a dent can warp a face, which
        # verify_face rejects before any fan
        built = []
        build_fan = pc.build_fan

        def recording(points, center, cycle, proj):
            fan = build_fan(points, center, cycle, proj)
            built.append((entry_by_entry(points, center, cycle, proj), fan))
            return fan

        monkeypatch.setattr(verifier_mod, "build_fan", recording)
        monkeypatch.setattr(pc, "build_fan", recording)
        bases = [pc.gen_hypercube(n) for n in (3, 4)] + [pc.gen_cross_polytope(n) for n in (3, 4)]
        bases += [pc.gen_simplex(n) for n in (3, 4, 5)] + [pc.gen_prism(m) for m in (3, 7)]
        bases += [pc.gen_schonhardt(), pc.split_facet_cube(True), wedge_cube(4), zigzag_bipyramid(6)]
        for base in bases:
            for moved in (base, pc.rigid_motion(base, 5)):
                for face in moved.poset.faces(moved.poset.dim_low):
                    verify_face(moved, face)
                for t in (F(1, 4), F(-1, 3)):
                    list(star_fans(pc.dent(moved, 0, t)))
        monkeypatch.undo()
        assert len(built) >= 706
        for expected, fan in built:
            assert len(fan.entries) == len(fan.dirs)
            assert fan.entries == expected
            assert list(fan.dirs) == [d for _, d in expected]
