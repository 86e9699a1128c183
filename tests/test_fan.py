import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import plconvex as pc
import plconvex.fan as fan_mod
from plconvex.exactgeom import as_vec, cross3, dot
from plconvex.fan import (
    CELL,
    RAY,
    Fan3,
    FanEntry,
    OppositeDirectionsError,
    fan_is_convex,
    polygon_is_convex,
    reference_direction,
    rotation_index,
)
from plconvex.instances import circle_points
from plconvex.poset import Face
from plconvex.surface import direction_space
from plconvex.verifier import verify_face

from conftest import float_winding, wedge_cube

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


def make_fan(ray_dirs, cell_dirs, apex=(F(0), F(0), F(0))):
    entries = []
    for k, r in enumerate(ray_dirs):
        entries.append(FanEntry(RAY, as_vec(r), Face(1, k)))
        entries.append(FanEntry(CELL, as_vec(cell_dirs[k]), Face(2, k)))
    return Fan3(as_vec(apex), tuple(entries))


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

    def test_repeated_point(self):
        pts = [(F(0), F(0)), (F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
        assert polygon_is_convex(pts) == (False, "ZERO_ANGLE_CONE")

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
    def test_pyramid(self):
        dirs = [as_vec(d) for d in [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]]
        s = reference_direction(dirs)
        assert s is not None
        assert all(dot(s, d) > 0 for d in dirs)

    def test_saddle_none(self):
        dirs = [as_vec(d) for d in [(1, 0, 1), (0, 1, -1), (-1, 0, 1), (0, -1, -1)]]
        assert reference_direction(dirs) is None

    def test_axes(self):
        dirs = [as_vec(d) for d in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
        s = reference_direction(dirs)
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
                dirs.append(as_vec(d))
        if pc.rank(dirs) < 3:
            return
        s = reference_direction(dirs)
        assert s is not None
        assert all(dot(s, d) > 0 for d in dirs)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_antipodal_pair_infeasible(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        d = None
        while not d or d == (0, 0, 0):
            d = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        dirs = [as_vec(d), as_vec((-d[0], -d[1], -d[2]))]
        for _ in range(4):
            dirs.append(as_vec((rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))))
        dirs = [v for v in dirs if v != as_vec((0, 0, 0))]
        assert reference_direction(dirs) is None


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
        assert len(pc.link_cycle(wedge.poset, Face(0, 8)).entries) == 76
        assert verify_face(wedge, Face(0, 8)) == (True, "OK_FLAT")
        assert pc.verify(wedge).kind == "CONVEX"

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
            points = pc.prepare(surface).points
            for f in list(poset.faces(0))[:4]:
                cyc = pc.link_cycle(poset, f)
                kern = direction_space(surface, f)
                proj = pc.complementary_projection(kern, 3)
                fans.append(pc.build_fan(points, f, cyc, proj))
        # the geometry pass hands the classifier integer directions and rows
        assert all(type(c) is int for fan in fans for e in fan.entries for c in e.direction)
        rows = pc.complementary_projection([as_vec([1, 2, 0, -1])], 4).rows
        assert all(type(c) is int for r in rows for c in r)
        rng = random.Random(7)
        for fan in fans:
            base = fan_is_convex(fan)
            m = len(fan.entries)
            for shift in range(2, m, 2):
                rotated = Fan3(fan.apex, fan.entries[shift:] + fan.entries[:shift])
                assert fan_is_convex(rotated) == base
            rev = tuple(reversed(fan.entries))
            if rev[0].kind != RAY:
                rev = rev[-1:] + rev[:-1]
            assert fan_is_convex(Fan3(fan.apex, rev)) == base
            # each direction only stands for its ray: rescale every entry on its own
            for _ in range(3):
                scaled = []
                for e in fan.entries:
                    lam = rng.choice([rng.randint(1, 10**6), F(rng.randint(1, 99), rng.randint(1, 99))])
                    scaled.append(FanEntry(e.kind, tuple(lam * c for c in e.direction), e.source))
                assert fan_is_convex(Fan3(fan.apex, tuple(scaled))) == base

    def test_scaling_invariance(self):
        rays = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
        fan = fan_between(rays)
        for lam in (F(3), F(1, 7), F(12, 5)):
            scaled = Fan3(
                fan.apex,
                tuple(FanEntry(e.kind, tuple(lam * c for c in e.direction), e.source) for e in fan.entries),
            )
            assert fan_is_convex(scaled) == fan_is_convex(fan)

    def test_cube_origin_corner_directions(self, cube):
        # star of the origin vertex under the identity projection: rays
        # along the coordinate axes, witnesses along e_i + e_j
        origin = next(
            f for f in cube.poset.faces(0) if cube.vertices[f.index] == as_vec([0, 0, 0])
        )
        cyc = pc.link_cycle(cube.poset, origin)
        fan = pc.build_fan(pc.prepare(cube).points, origin, cyc, pc.complementary_projection((), 3))
        assert fan.apex == as_vec([0, 0, 0])

        def ray_of(d):
            scale = next(c for c in d if c != 0)
            return tuple(c / scale for c in d)

        rays = {ray_of(e.direction) for e in fan.entries if e.kind == RAY}
        assert rays == {as_vec([1, 0, 0]), as_vec([0, 1, 0]), as_vec([0, 0, 1])}
        cells = {ray_of(e.direction) for e in fan.entries if e.kind == CELL}
        assert cells == {as_vec([1, 1, 0]), as_vec([1, 0, 1]), as_vec([0, 1, 1])}

    def test_tesseract_origin_edge_directions(self, tesseract):
        # the edge along e1 from the origin: coordinate projection onto
        # (x2, x3, x4); rays point along the remaining axes
        edge = next(
            e
            for e in tesseract.poset.faces(1)
            if {tesseract.vertices[v] for v in tesseract.poset.vertex_lists[e]}
            == {as_vec([0, 0, 0, 0]), as_vec([1, 0, 0, 0])}
        )
        kern = direction_space(tesseract, edge)
        proj = pc.complementary_projection(kern, 4)
        assert proj.axes == (1, 2, 3)
        cyc = pc.link_cycle(tesseract.poset, edge)
        fan = pc.build_fan(pc.prepare(tesseract).points, edge, cyc, proj)
        rays = set()
        for e in fan.entries:
            if e.kind == RAY:
                scale = next(c for c in e.direction if c != 0)
                rays.add(tuple(c / scale for c in e.direction))
        assert rays == {as_vec([1, 0, 0]), as_vec([0, 1, 0]), as_vec([0, 0, 1])}

    def test_witness_in_ray_cone_for_polytopes(self, cube):
        # fans of genuinely convex bodies keep each witness strictly
        # between its two neighboring rays; the skewed pyramid and the
        # large prism have nearly flat stars, where the support search
        # needs an exact certificate
        for surface in (cube, pc.gen_prism(7), skewed_pyramid(64), pc.gen_prism(256)):
            assert pc.verify(surface).kind == "CONVEX"
            points = pc.prepare(surface).points
            for f in surface.poset.faces(0):
                res = verify_face(surface, f)
                assert res == (True, "OK_POINTED")
                cyc = pc.link_cycle(surface.poset, f)
                kern = direction_space(surface, f)
                fan = pc.build_fan(points, f, cyc, pc.complementary_projection(kern, 3))
                entries = fan.entries
                m = len(entries)
                for i in range(1, m, 2):
                    w = entries[i].direction
                    r1 = entries[i - 1].direction
                    r2 = entries[(i + 1) % m].direction
                    # w = x*r1 + y*r2 with x, y > 0: w lies in the plane of
                    # r1 and r2, strictly on the r2 side of r1 and the r1 side of r2
                    normal = cross3(r1, r2)
                    assert normal != (0, 0, 0) and dot(normal, w) == 0
                    assert dot(cross3(r1, w), normal) > 0 and dot(cross3(w, r2), normal) > 0
