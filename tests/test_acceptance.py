"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time
from fractions import Fraction

import plconvex as pc
from plconvex.fan import _wound_once, fan_is_convex
from plconvex.poset import Face
from plconvex.verifier import preflight, verify, verify_face

from conftest import (
    float_winding,
    int_fan,
    locally_nonconvex_vertices,
    random_same_kernel_projection,
    reflex_adjacent_vertices,
    rotation_index,
    star_under_projection,
)

F = Fraction


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def generated_bases():
    for n in range(3, 7):
        yield f"hypercube{n}", pc.gen_hypercube(n)
    for n in range(3, 6):
        yield f"cross{n}", pc.gen_cross_polytope(n)
    for n in range(3, 7):
        yield f"simplex{n}", pc.gen_simplex(n)
    for m in range(3, 65):
        yield f"prism{m}", pc.gen_prism(m)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    checked = invalid = 0
    for name, base in generated_bases():
        for seed in (0, 1, 2, 3, 4, 5):
            moved = pc.rigid_motion(base, seed)
            for t in (None, F(1, 4), F(1, 1000)):
                surface = moved if t is None else pc.dent(moved, 0, t)
                v = verify(surface)
                if v.kind == "INVALID":
                    # inputs that stop being valid realizations (warped
                    # non-simplicial faces) are flagged, not classified
                    assert t is not None, f"{name} seed={seed} undented but invalid"
                    invalid += 1
                    continue
                o = pc.oracle_verdict(surface)
                assert v.convex == o.convex, f"{name} seed={seed} t={t}"
                checked += 1
    elapsed = time.perf_counter() - t0
    # 73 bases x 6 motions x 3 dent variants = 1314 instances; denting warps
    # the non-simplicial families' facets, so exactly the 7 simplicial bases
    # (cross polytopes and simplices) survive preflight with both dents
    expected_checked = 73 * 6 + 7 * 6 * 2
    report(
        1,
        checked == expected_checked and checked + invalid == 73 * 6 * 3 and elapsed < 60.0,
        f"{checked} instances agreed, {invalid} invalid by preflight, {elapsed:.1f}s",
    )


def test_criterion_2_canonical_negatives():
    sch = pc.gen_schonhardt()
    v = verify(sch, collect_all=True)
    expected = locally_nonconvex_vertices(sch)
    ok_sch = (
        v.kind == "NOT_CONVEX"
        and {f.index for f, _ in v.failures} == expected
        and expected == reflex_adjacent_vertices(sch)
        and v.witness == Face(0, min(expected))
    )

    dented = pc.gen_dented_cube()
    vd = verify(dented, collect_all=True)
    expected_d = locally_nonconvex_vertices(dented)
    apex = max(i for i in range(dented.poset.count(0)))
    witness_shares_facet = any(
        vd.witness.index in dented.poset.vertex_lists[h]
        and apex in dented.poset.vertex_lists[h]
        for h in dented.poset.faces(2)
    )
    ok_dent = (
        vd.kind == "NOT_CONVEX"
        and {f.index for f, _ in vd.failures} == expected_d
        and vd.witness == Face(0, min(expected_d))
        and witness_shares_facet
    )
    report(2, ok_sch and ok_dent, f"schonhardt fails {sorted(expected)}, dent fails {sorted(expected_d)}")


def test_criterion_3_incidence_linear_cost():
    sizes = [16, 64, 256, 1024, 4096]
    xs, ys = [], []
    for m in sizes:
        surface = pc.gen_prism(m)
        poset = surface.poset
        incidences = sum(len(poset.up(f)) for f in poset.faces(0))
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            v = verify(surface)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        assert v.kind == "CONVEX"
        assert v.entries_checked == 2 * incidences, (m, v.entries_checked, incidences)
        xs.append(math.log(incidences))
        ys.append(math.log(best))
    k = len(xs)
    sx, sy = sum(xs), sum(ys)
    slope = (k * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / (
        k * sum(x * x for x in xs) - sx * sx
    )
    report(3, 0.8 <= slope <= 1.2, f"entries exact on all sizes, log-log slope {slope:.3f}")


def test_criterion_4_projection_independence():
    instances = [
        pc.gen_hypercube(3),
        pc.gen_hypercube(4),
        pc.gen_hypercube(5),
        pc.gen_cross_polytope(3),
        pc.gen_cross_polytope(4),
        pc.gen_simplex(3),
        pc.gen_simplex(4),
        pc.gen_simplex(5),
        pc.gen_simplex(6),
        pc.gen_prism(3),
        pc.gen_prism(5),
        pc.gen_prism(8),
        pc.gen_schonhardt(),
        pc.gen_dented_cube(1),
        pc.gen_dented_cube(3),
        pc.split_facet_cube(False),
        pc.split_facet_cube(True),
        pc.rigid_motion(pc.gen_hypercube(4), 1),
        pc.rigid_motion(pc.gen_cross_polytope(3), 2),
        pc.rigid_motion(pc.gen_schonhardt(), 3),
    ]
    assert len(instances) == 20
    rng = random.Random(2024)
    trials = agreements = 0
    for surface in instances:
        faces = list(surface.poset.faces(surface.poset.dim_low))
        prepared = preflight(surface)

        def base(f):
            # the star under preflight's tabled projection
            return star_under_projection(surface, f, prepared.projections[f.index], prepared)

        # verify_face, which runs a whole preflight per call, answers that base
        for f in (faces[0], faces[-1]):
            assert verify_face(surface, f) == base(f), f
        cached = {}
        for _ in range(100):
            f = faces[rng.randrange(len(faces))]
            if f not in cached:
                cached[f] = base(f)
            proj = random_same_kernel_projection(prepared.projections[f.index], rng)
            trials += 1
            if star_under_projection(surface, f, proj, prepared) == cached[f]:
                agreements += 1
    report(4, agreements == trials == 2000, f"{agreements}/{trials} projections agree")


def test_criterion_5_invariance_suite():
    pool = [
        pc.gen_hypercube(3),
        pc.gen_hypercube(4),
        pc.gen_cross_polytope(3),
        pc.gen_cross_polytope(4),
        pc.gen_simplex(4),
        pc.gen_simplex(5),
        pc.gen_prism(5),
        pc.gen_prism(9),
        pc.gen_schonhardt(),
        pc.gen_dented_cube(1),
        pc.gen_dented_cube(3),
        pc.split_facet_cube(False),
        pc.dent(pc.gen_cross_polytope(3), 0, F(3, 2)),
    ]
    rng = random.Random(99)
    agree = 0
    for trial in range(50):
        surface = pool[rng.randrange(len(pool))]
        base = verify(surface).kind
        relabeled = pc.relabel(surface, rng.randrange(1, 10**6))
        moved = pc.rigid_motion(surface, rng.randrange(1, 10**6))
        scaled = pc.scale(surface, F(rng.randrange(1, 30), rng.randrange(1, 30)))
        if all(verify(s).kind == base for s in (relabeled, moved, scaled)):
            agree += 1
    report(5, agree == 50, f"{agree}/50 trials invariant")


def test_criterion_6_rotation_index_suite():
    def circle_point(t):
        t = F(t)
        den = 1 + t * t
        return ((1 - t * t) / den, 2 * t / den)

    square = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))]
    pent = [
        circle_point(0),
        circle_point(F(29, 40)),
        circle_point(F(77, 25)),
        circle_point(F(-77, 25)),
        circle_point(F(-29, 40)),
    ]
    star = [pent[(2 * k) % 5] for k in range(5)]
    star_edges = [
        (star[(k + 1) % 5][0] - star[k][0], star[(k + 1) % 5][1] - star[k][1])
        for k in range(5)
    ]
    ok = rotation_index(square) == 1
    ok = ok and rotation_index(list(reversed(square))) == -1
    ok = ok and rotation_index(star_edges) == 2
    ok = ok and abs(float_winding(star_edges) - 2) < 1e-9
    # the package's one winding count, the pass that verify runs
    wound = [_wound_once(square, True, "OK_POINTED"), _wound_once(square[::-1], True, "OK_POINTED")]
    wound.append(_wound_once(star_edges, True, "OK_POINTED"))
    ok = ok and wound == [(True, "OK_POINTED"), (True, "OK_POINTED"), (False, "BAD_ROTATION_INDEX")]

    dirs = []  # a ray at each star point, a cell at each edge midpoint
    for k in range(5):
        a, b = star[k], star[(k + 1) % 5]
        dirs += [(a[0], a[1], F(1)), ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2, F(1))]
    lifted = int_fan(dirs)
    res = fan_is_convex(lifted)
    ok = ok and res == (False, "BAD_ROTATION_INDEX")
    detail = f"square +1/-1, pentagram 2 (float {float_winding(star_edges):.6f}), lift {res.reason}"
    report(6, ok, f"{detail}, _wound_once {[w.reason for w in wound]}")


def test_criterion_7_flat_subdivision_accepted():
    results = []
    for diagonal in (False, True):
        surface = pc.split_facet_cube(diagonal)
        v = verify(surface)
        o = pc.oracle_verdict(surface)
        results.append((v.kind, o.convex))
    ok = all(kind == "CONVEX" and oc for kind, oc in results)
    report(7, ok, f"rectangles and diagonal splits both YES, oracle agrees: {results}")


def test_criterion_8_parallel_determinism():
    # the verdict is a pure function of the input: repeated runs render
    # byte-identically, and stopping at the first failure reports the
    # same witness and reason as collecting them all
    def render(v):
        lines = [f"{v.kind} witness={v.witness} reason={v.reason}"]
        lines += [f"failing {f} {r}" for f, r in v.failures]
        return "\n".join(lines)

    surfaces = [pc.gen_schonhardt(), pc.gen_dented_cube(3)]
    ok = True
    for surface in surfaces:
        outputs = {render(verify(surface, collect_all=True)) for _ in range(20)}
        full = verify(surface, collect_all=True)
        first = verify(surface)
        ok = ok and len(outputs) == 1 and (first.witness, first.reason) == full.failures[0]
    report(8, ok, "20 runs byte-identical, early exit reports failures[0], on both instances")
