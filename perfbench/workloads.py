"""Seeded workload corpora for the plconvex benchmark.

A workload is a sequence of ``Case`` records, yielded one at a time so
that the set-up time of each can be measured.  Each holds the PLS text that
the timed loop parses and verifies, and the vertex-mode surface the
answer key is computed from.  Sizes, copy counts and the shear of each
copy are fixed per workload, so runs with different seeds do the same
amount of work; the seed drives relabelling, the order and orientation
of the coordinate axes, and dents.  Generating the surfaces and
emitting their text is the benchmark's set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import plconvex as pc

F0 = Fraction(0)


@dataclass
class Case:
    label: str
    incidences: int  # (n-3)->(n-2) incidences: the paper's cost unit
    text: str
    geometry: pc.PLSurface  # vertex-mode surface with the same face numbering


def incidences(surface: pc.PLSurface) -> int:
    poset = surface.poset
    return sum(len(poset.up(f)) for f in poset.faces(poset.dim_low))


def rational_ngon(m: int) -> list[tuple[Fraction, Fraction]]:
    """m rational points on the unit circle in angular order (tangent half-angle)."""
    pts = []
    for i in range(m):
        t = Fraction(2 * i - (m - 1), m)
        den = 1 + t * t
        pts.append(((1 - t * t) / den, 2 * t / den))
    return pts


SKEWED_APEX = (Fraction(9, 10), F0, Fraction(1, 50))


def skewed_pyramid(m: int) -> pc.PLSurface:
    """Flat pyramid over a rational m-gon with its apex near one rim.

    The apex star has degree m and its directions are nearly coplanar,
    which is the high-degree case of the fan classifier's support search.
    """
    coords = [(x, y, F0) for x, y in rational_ngon(m)] + [SKEWED_APEX]
    polygons = [list(range(m))] + [[i, (i + 1) % m, m] for i in range(m)]
    return pc.surface_from_polygons(coords, polygons)


# rigid_motion seeds, one per copy slot of a size group.  The shears come
# from a fixed list so that every benchmark seed gives the same coordinate
# sizes, and so the same exact-arithmetic work; drawn from the benchmark
# seed, they moved the median time of a prism corpus by up to half.
MOTION_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)


def _signed_permutation(surface: pc.PLSurface, rng: random.Random) -> pc.PLSurface:
    """Permute and flip the coordinate axes: a seeded isometry that keeps every coordinate's size."""
    axes = rng.sample(range(surface.n), surface.n)
    signs = [rng.choice((1, -1)) for _ in axes]
    verts = tuple(tuple(s * v[a] for a, s in zip(axes, signs)) for v in surface.vertices)
    return pc.PLSurface(surface.poset, vertices=verts)


def _moved(surface: pc.PLSurface, rng: random.Random, slot: int) -> pc.PLSurface:
    """Fixed shear for the slot, then a seeded signed axis permutation and relabelling."""
    surface = pc.rigid_motion(surface, MOTION_SEEDS[slot % len(MOTION_SEEDS)])
    surface = _signed_permutation(surface, rng)
    return pc.relabel(surface, rng.randrange(1, 2**31))


def _case(label: str, surface: pc.PLSurface, geometry: pc.PLSurface | None = None) -> Case:
    return Case(label, incidences(surface), pc.emit_pls(surface), geometry or surface)


# m -> copies per round.  Every workload has at least a hundred instances
# for its 90th percentile and a round of two to three seconds, so that a
# run times every instance about ten times.  The counts put the median
# and the 90th percentile near the middle of one size group each (m = 8
# and 32 for prisms, m = 8 and 16 for pyramids), where neither the gap to
# the next size nor the seeded motions of a few instances move them.
PRISM_SIZES = {4: 30, 8: 43, 16: 10, 32: 16, 64: 1, 128: 1, 256: 1, 512: 1}
PRISM_SIZES_SMALL = {4: 2, 8: 1, 16: 1}
PYRAMID_SIZES = {6: 30, 8: 40, 12: 8, 16: 18, 32: 1, 48: 1, 64: 1, 96: 1}
PYRAMID_SIZES_SMALL = {8: 2, 12: 1, 16: 1}


def build_prism(seed: int, small: bool = False) -> Iterator[Case]:
    rng = random.Random(seed)
    for m, copies in (PRISM_SIZES_SMALL if small else PRISM_SIZES).items():
        for k in range(copies):
            yield _case(f"prism-m{m}", _moved(pc.gen_prism(m), rng, k))


def build_high_degree(seed: int, small: bool = False) -> Iterator[Case]:
    rng = random.Random(seed)
    for m, copies in (PYRAMID_SIZES_SMALL if small else PYRAMID_SIZES).items():
        for k in range(copies):
            yield _case(f"pyramid-m{m}", _moved(skewed_pyramid(m), rng, k))


# (family, n) -> copies per variant; each copy comes relabelled, relabelled
# and moved, and moved then converted to equations mode.  The counts put
# the 90th percentile among the n = 6 simplices, below the ten slowest
# instances, and give every size's median in cost_slope at least six
# instances.
HIGHDIM_BASES = {
    ("hypercube", 5): 2,
    ("cross_polytope", 5): 2,
    ("simplex", 5): 35,
    ("simplex", 6): 6,
}
HIGHDIM_BASES_SMALL = {("hypercube", 4): 1, ("cross_polytope", 4): 1, ("simplex", 4): 1}


def build_highdim(seed: int, small: bool = False) -> Iterator[Case]:
    rng = random.Random(seed)
    for (family, n), copies in (HIGHDIM_BASES_SMALL if small else HIGHDIM_BASES).items():
        base = pc.build_instance(pc.GenSpec(family, {"n": n}))
        for k in range(copies):
            label = f"{family}{n}"
            yield _case(f"{label}-relabelled", pc.relabel(base, rng.randrange(1, 2**31)))
            moved = _moved(base, rng, k)
            yield _case(f"{label}-moved", moved)
            yield _case(f"{label}-equations", pc.as_equations(moved), moved)


def _mixed_bases():
    yield "cube", pc.gen_hypercube(3)
    yield "tesseract", pc.gen_hypercube(4)
    for n in (3, 4, 5):
        yield f"cross{n}", pc.gen_cross_polytope(n)
        yield f"simplex{n}", pc.gen_simplex(n)
    for m in range(3, 11):
        yield f"prism{m}", pc.gen_prism(m)
    yield "schonhardt", pc.gen_schonhardt()
    for d in (1, 2, 3):
        yield f"dented{d}", pc.gen_dented_cube(d)
    yield "split_rect", pc.split_facet_cube(False)
    yield "split_diag", pc.split_facet_cube(True)


MIXED_SIZE = 110  # five copies of each of the 22 bases
MIXED_SIZE_SMALL = 24
# copy -> dent factor; fixed slots, so every seed yields the same mix
DENTS = {1: Fraction(1, 1000), 4: Fraction(1, 4)}


def build_mixed(seed: int, small: bool = False) -> Iterator[Case]:
    """Small n = 3-5 instances answering YES, NO and INVALID.

    The bases recur in turn.  Every copy is relabelled and moved, and two
    copies in five have one vertex dented toward the centroid.  Dents
    warp non-simplicial faces (INVALID) and fold simplicial ones (NO),
    so the corpus exercises preflight rejection and early exit.  The
    seed picks the relabelling, the axes' order and orientation, and the
    dented vertex.
    """
    rng = random.Random(seed)
    bases = list(_mixed_bases())
    for k in range(MIXED_SIZE_SMALL if small else MIXED_SIZE):
        name, surface = bases[k % len(bases)]
        surface = _moved(surface, rng, k // len(bases))
        factor = DENTS.get(k // len(bases))
        if factor is not None:
            surface = pc.dent(surface, rng.randrange(len(surface.vertices)), factor)
            name += "-dented"
        yield _case(name, surface)


BUILDERS = {
    "prism": build_prism,
    "high_degree": build_high_degree,
    "highdim": build_highdim,
    "mixed": build_mixed,
}
