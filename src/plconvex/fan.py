"""Convexity of a projected star: a fan of rays and cell witnesses in 3-space.

The star of an (n-3)-face, projected along the face's direction space,
becomes a two-dimensional fan in R^3: an apex, the rays that are the
images of the incident (n-2)-faces, and between consecutive rays the
image of one facet.  Each facet contributes a witness direction pointing
into its projected cone; rays alone cannot tell a fold (two facets
occupying the same cone) or a reflex occupancy from a convex fan, so the
cyclic direction list interleaves them as the link cycle does: a ray at
every even position, a cell witness at every odd one.

The fan is accepted exactly when its neighborhood of the apex lies on
the boundary of a convex 3-dimensional body.  Three shapes qualify:

* pointed: a strict support vector s exists (s . d > 0 for every entry
  direction d).  Scaling each direction onto the plane x . s = 1 turns
  the fan into a closed polygon which must be weakly convex and wind
  exactly once (witnesses sit on polygon edges, giving flat turns).
* flat: all directions span a 2-plane and sweep it exactly once in a
  consistent sense; the neighborhood is a flat disk.
* wedge: the directions span 3-space but two antipodal rays form a fold
  line, and each of the two chains between them sweeps half of its own
  plane monotonically; the neighborhood is the boundary of a dihedral
  wedge.  This covers subdividing vertices sitting on an edge line of
  an otherwise convex surface.

The cyclic cross products d[k-1] x d[k] of the entry directions, and
the dot products of their sum with the directions, are computed once
per fan.  The sum is an O(m) strict-support certificate, complete for
convex pointed fans; the pointed branch reads the section polygon's
edges off the same products, and the wedge is read off the zeros of
the same dots.  Only rejected stars reach the O(m^3) pairwise support
search.  The pointed and flat branches project onto a coordinate plane
(``_plane_frame``) and walk their polygon once (``_wound_once``).

Everything else is rejected with a reason code; failure of the fan to be
an embedded once-wound fan (the immersion defect) surfaces as one of the
rejection reasons.

The fan layer converts no number.  ``Fan3`` holds ``int`` triples:
``build_fan`` forms them from ``verifier.preflight``'s integer points and
the integer rows of the star's projection, which ``preflight`` tables,
and a hand-built fan must pass them itself.  ``fan_is_convex`` trusts ``fan.dirs``.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .exactgeom import HomPoint, IVec, Projection3, Vec, cross3
from .poset import Face

RAY = "ray"
CELL = "cell"

OK_POINTED = "OK_POINTED"
OK_FLAT = "OK_FLAT"
NO_SUPPORT = "NO_SUPPORT"
BAD_ROTATION_INDEX = "BAD_ROTATION_INDEX"
WRONG_TURN_SIGN = "WRONG_TURN_SIGN"
ZERO_ANGLE_CONE = "ZERO_ANGLE_CONE"
DEGENERATE_RANK = "DEGENERATE_RANK"


class ConvexityCheck(NamedTuple):
    convex: bool
    reason: str


class Fan3(NamedTuple):
    """The cyclic alternating ray/witness directions of a star, from its apex.

    An entry's kind is its position: in the fan of (n-3)-face i,
    ``dirs[k]`` is a RAY at even k and a CELL at odd k, the integer
    direction to the interior point of the link-cycle face
    ``preflight(surface).cycles[i][k]``, one rank above the apex for a
    RAY and two for a CELL.  ``entries`` pairs each direction with its
    kind on demand.  ``build_fan`` is its producer; a direct call must
    pass ``int`` triples, rays at the even positions, unchecked and
    trusted by ``fan_is_convex``.
    """

    dirs: tuple[IVec, ...]

    @property
    def entries(self) -> tuple[tuple[str, IVec], ...]:
        return tuple((CELL if k & 1 else RAY, d) for k, d in enumerate(self.dirs))


class ZeroDirectionError(Exception):
    """A face's interior point projects onto the apex."""

    code = "ZERO_DIRECTION"

    def __init__(self, face: Face):
        super().__init__(f"projected direction of {face} vanishes")
        self.face = face


def build_fan(points: Mapping[int, Sequence[HomPoint]], center: Face, cycle: tuple[int, ...], proj: Projection3) -> Fan3:
    """Project the star of ``center`` into 3-space along its direction space, in integers.

    ``points[d][i]`` is the interior point of face i of dimension d in
    homogeneous form, integer numerators S over a positive weight w
    (``preflight(surface).points``), and ``cycle`` is ``center``'s link
    cycle of face indices (``poset.link_cycle``): its even entries are
    one rank above ``center``, its odd entries two.
    This is the package's one application of a ``Projection3``, whose
    integer rows (``preflight(surface).projections``') are used as they are.
    An axis projection picks three coordinates, any other takes three
    row products.  The apex, P(S_c) over the weight w_c of ``center``,
    is formed only for the directions and is not returned: every face f
    of the link cycle contributes, in cycle order, the integer direction
    w_c * P(S_f) - w_f * P(S_c) divided by the gcd of its coordinates:
    the primitive positive multiple of the direction from the apex to
    f's projected interior point, whose size does not grow with the
    weights (a gcd of 0 is a zero direction).  One loop fills ``dirs``,
    the fan's one field: entry k's kind and source face are its position
    and ``cycle[k]``.
    """
    dim, c = center
    center_nums, wc = points[dim][c]
    rows = None
    if proj.axes is not None:
        i, j, k = proj.axes
        a0, a1, a2 = center_nums[i], center_nums[j], center_nums[k]
    else:
        rows = r0, r1, r2 = proj.rows
        a0, a1, a2 = sum(map(mul, r0, center_nums)), sum(map(mul, r1, center_nums)), sum(map(mul, r2, center_nums))
    tables = points[dim + 1], points[dim + 2]  # of the rays, of the cells
    dirs = []
    for pos, f in enumerate(cycle):
        nums, w = tables[pos & 1][f]
        if rows is None:
            p0, p1, p2 = nums[i], nums[j], nums[k]
        else:
            p0, p1, p2 = sum(map(mul, r0, nums)), sum(map(mul, r1, nums)), sum(map(mul, r2, nums))
        d0, d1, d2 = wc * p0 - w * a0, wc * p1 - w * a1, wc * p2 - w * a2
        g = gcd(d0, d1, d2)
        if not g:
            raise ZeroDirectionError(Face(dim + 1 + (pos & 1), f))
        dirs.append((d0 // g, d1 // g, d2 // g))
    return Fan3(tuple(dirs))


def _idot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _crosses_and_sum(dirs: Sequence[Vec]) -> tuple[list[Vec], Vec]:
    """The cyclic cross products c_k = d[k-1] x d[k], k = 0..m-1, of m >= 1 directions, and their sum; exact over any numeric type."""
    crosses = []
    s0 = s1 = s2 = 0
    a0, a1, a2 = dirs[-1]
    for b0, b1, b2 in dirs:
        c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        crosses.append((c0, c1, c2))
        s0, s1, s2 = s0 + c0, s1 + c1, s2 + c2
        a0, a1, a2 = b0, b1, b2
    return crosses, (s0, s1, s2)


def _certified_direction(dirs: Sequence[Vec], cert: Vec) -> tuple[Vec | None, list]:
    """The O(m) certificate: ``cert``, the sum of the cyclic cross products c_k = d[k-1] x d[k].

    Returns the sum with whichever of its two signs is strictly feasible
    (None when neither is) and the dots of the unsigned sum with the
    m >= 1 ``dirs``.  Below rank 3 every dot is 0:
    at rank 2 each product is normal to the fan's plane, at rank <= 1
    each product is 0.

    Complete for accepted pointed fans: suppose some strict s makes
    ``_pointed_check`` return OK_POINTED.  Then the section polygon
    p_k = d_k / (s . d_k) is convex and wound once, so every p_j lies
    weakly on the inner side of every edge line.  Hence
    c_k . d_j = det(d[k-1], d[k], d[j]) is >= 0 for all k and j, or
    <= 0 for all.  For each j it is nonzero for some k, since the
    polygon has a nonzero turn: at a corner p_i != p_j with a nonzero
    turn the two edge lines meet only in p_i.  Summing over k, one of
    +-sum(c_k) is strictly feasible.  So a fan whose certificate fails
    never comes back OK_POINTED: the pairwise search only decides
    NO_SUPPORT against a rejection reason.
    """
    s0, s1, s2 = cert
    dots = [s0 * d0 + s1 * d1 + s2 * d2 for d0, d1, d2 in dirs]
    if min(dots) > 0:
        return cert, dots
    if max(dots) < 0:
        return (-s0, -s1, -s2), dots
    return None, dots


def _pairwise_support(dirs: Sequence[Vec]) -> Vec | None:
    """Exact strict-support search over all pairwise cross products, O(m^3).

    When the directions span 3-space, the dual cone {s : s . d >= 0} is
    generated by those pairwise cross products that are weakly feasible,
    so their sum is interior whenever the cone is full-dimensional, and
    otherwise no strict support exists.  Zero products (of parallel
    pairs) add nothing, and with none found the sum 0 is not feasible.
    """
    found: list[Vec] = []
    m = len(dirs)
    for i in range(m):
        for j in range(i + 1, m):
            c = cross3(dirs[i], dirs[j])
            for cc in (c, (-c[0], -c[1], -c[2])):
                if all(_idot(cc, d) >= 0 for d in dirs):
                    found.append(cc)
    s = (sum(c[0] for c in found), sum(c[1] for c in found), sum(c[2] for c in found))
    return s if all(_idot(s, d) > 0 for d in dirs) else None


def _wound_once(vecs: Sequence[tuple], straight_ok: bool, accept: str) -> ConvexityCheck:
    """Do the turns of the cycle ``vecs`` share one sense and wind it exactly once?

    One pass over the consecutive pairs (vecs[i-1], vecs[i]), i = 0..m-1,
    so the pair into vecs[0] comes first.  Each pair's turn goes through
    the clauses in this order, and the first failing clause names the
    reason: a zero turn that is not straight ahead is a reversal
    (WRONG_TURN_SIGN); a straight-ahead one is allowed when
    ``straight_ok`` and a ZERO_ANGLE_CONE otherwise; a turn against the
    first nonzero one is WRONG_TURN_SIGN.  The same pass counts the
    signed crossings of the positive x half-axis, the package's one
    winding count: a turn of less than pi between a vector with y < 0
    and one with y >= 0 can only cross there.  After the pass, no
    nonzero turn at all is WRONG_TURN_SIGN and a rotation index other
    than +-1 is BAD_ROTATION_INDEX.  Works over any exact numeric type.
    """
    turn = 0
    winding = 0
    u = vecs[-1]
    u_low = u[1] < 0
    for v in vecs:
        v_low = v[1] < 0
        c = u[0] * v[1] - u[1] * v[0]
        if c > 0:
            if turn < 0:
                return ConvexityCheck(False, WRONG_TURN_SIGN)
            turn = 1
            if u_low and not v_low:
                winding += 1
        elif c < 0:
            if turn > 0:
                return ConvexityCheck(False, WRONG_TURN_SIGN)
            turn = -1
            if v_low and not u_low:
                winding -= 1
        elif u[0] * v[0] + u[1] * v[1] <= 0:
            return ConvexityCheck(False, WRONG_TURN_SIGN)
        elif not straight_ok:
            return ConvexityCheck(False, ZERO_ANGLE_CONE)
        u, u_low = v, v_low
    if not turn:
        return ConvexityCheck(False, WRONG_TURN_SIGN)
    if winding != 1 and winding != -1:
        return ConvexityCheck(False, BAD_ROTATION_INDEX)
    return ConvexityCheck(True, accept)


def _plane_frame(axis: IVec, vecs: Sequence[IVec]) -> list[tuple[int, int]]:
    """Each v projected along ``axis`` onto a coordinate plane, times a_k, as (x_i, x_j).

    k is the last index with a_k != 0 and (i, j) = (k+1, k+2) mod 3, so
    v goes to (a_k v_i - v_k a_i, a_k v_j - v_k a_j).  The map is linear
    with kernel span(axis): on any plane that does not hold ``axis`` it
    is a bijection onto R^2, so every turn keeps its sign up to one
    global sign and every parallel pair the sign of its dot product.
    """
    k = 2 if axis[2] else 1 if axis[1] else 0
    i, j = (k + 1) % 3, (k + 2) % 3
    ak, ai, aj = axis[k], axis[i], axis[j]
    return [(ak * v[i] - v[k] * ai, ak * v[j] - v[k] * aj) for v in vecs]


def _one_direction(crosses: Sequence[IVec]) -> bool:
    """Are the products all nonzero positive multiples of the first one (parallel, with a positive dot)?"""
    c = crosses[0]
    return all(cross3(c, v) == (0, 0, 0) and _idot(c, v) > 0 for v in crosses)


def _wedge_check(dirs: Sequence[IVec], crosses: Sequence[IVec], dots: Sequence[int]) -> ConvexityCheck:
    """Accept a dihedral wedge (see the module docstring) in one O(m) pass.

    Let s be the sum of the cyclic ``crosses`` c_k = d_k-1 x d_k, and
    ``dots`` the values s . d_k that ``_certified_direction`` returned.
    At rank 3 the fan is a wedge with fold pair i < j exactly when
    (1) s . d_k vanishes for k = i, j only, and its other values share a
    sign; (2) entries i, j are antipodal rays (both at even positions); (3) c_i+1..c_j are nonzero
    positive multiples of one vector, and so are c_j+1..c_m-1, c_0..c_i.

    Wedge => (1)-(3): the chains turn about normals N_a, N_b by angles in
    (0, pi), which is (3), and s = a N_a + b N_b with a, b > 0, N_a and
    N_b not parallel at rank 3.  With f = d_i and e_a, e_b pointing into
    the chains' half-planes, N_a ~ f x e_a and N_b ~ -f x e_b, so s . d
    is 0 on the fold, b N_b . d on chain a and a N_a . d on chain b,
    both of the sign of det(f, e_a, e_b).

    (1)-(3) => wedge: by (3) each chain lies in one plane through the
    fold, turns one way by less than pi per step, and has interior
    directions (else c = d_i x d_j = 0).  On chain a, s . d = b N_b . d
    vanishes only on the fold line, so by (1) the interior lies in one
    open half-plane bounded by the fold and no third direction is on
    the fold.  The first step turns into that half-plane and a step of
    less than pi leaves it only onto d_j, so the chain sweeps exactly
    half its plane.  At rank <= 2 every dot is 0, so (1) never holds.
    """
    zeros = [k for k, t in enumerate(dots) if t == 0]
    if len(zeros) == 2 and not min(dots) < 0 < max(dots):
        i, j = zeros
        rays = not (i | j) & 1  # rays sit at even positions
        if rays and cross3(dirs[i], dirs[j]) == (0, 0, 0) and _idot(dirs[i], dirs[j]) < 0:
            if _one_direction(crosses[i + 1 : j + 1]) and _one_direction(crosses[j + 1 :] + crosses[: i + 1]):
                return ConvexityCheck(True, OK_FLAT)
    return ConvexityCheck(False, NO_SUPPORT)


def _pointed_check(crosses: Sequence[IVec], s: IVec) -> ConvexityCheck:
    """Classify a fan with strict support s from its cyclic cross products.

    Scaling each direction d onto the plane x . s = 1 gives the section
    polygon p_k = d[k] / (s . d[k]).  By BAC-CAB its edges satisfy
    (s . d[k-1]) (s . d[k]) (p_k - p_k-1) = c_k x s, with
    c_k = d[k-1] x d[k] and a positive factor on the left.  The map
    c -> c x s has kernel span(s), so any linear map with that kernel,
    ``_plane_frame(s, .)`` among them, sends each c_k to one fixed
    linear bijection's image of the polygon's edge, times a positive
    factor.  That keeps every ``_wound_once`` clause: each turn sign up
    to one global sign, each parallel pair's dot sign and, once every
    turn passes, the rotation index up to sign.  An edge vanishes
    exactly when its c does: c is orthogonal to d[k] and s . d[k] > 0,
    so a nonzero c is never a multiple of s.
    ``_wound_once`` checks every turn and counts the half-axis crossings
    in one pass, from the turn onto the edge into d[0]; with straight
    turns allowed every failing clause is a property of the whole cycle,
    so the start does not change the reason.  Any strictly feasible s
    gives the same reason.
    """
    if (0, 0, 0) in crosses:
        return ConvexityCheck(False, ZERO_ANGLE_CONE)
    return _wound_once(_plane_frame(s, crosses), True, OK_POINTED)


def fan_is_convex(fan: Fan3) -> ConvexityCheck:
    """Decide whether the fan bounds a convex neighborhood of its apex.

    Every sign test runs on the fan's ``dirs`` as they are: nonzero
    ``int`` triples (``build_fan`` raises ``ZeroDirectionError`` first),
    neither converted nor checked here (no entries is DEGENERATE_RANK).
    The sum of the cyclic cross
    products (``_crosses_and_sum``), the O(m) support certificate, is
    tried first.  When it fails, the first nonzero cross product is the
    plane normal: with nonzero directions all vanish exactly at rank
    <= 1, and at rank 2 each nonzero one is normal to the plane.  A
    normal orthogonal to every direction means the flat branch, in
    ``_plane_frame`` coordinates along the normal.  A linear bijection
    of the plane keeps every turn clause, and once every turn is strict
    and of one sign the half-axis crossing count is the rotation index
    in any frame.  At rank 3 the O(m) wedge test reads the certificate's
    dots and the fold's positions (rays are even); only a star that it
    rejects reaches the O(m^3) ``_pairwise_support``.
    """
    dirs = fan.dirs
    if not dirs:
        return ConvexityCheck(False, DEGENERATE_RANK)
    crosses, cert = _crosses_and_sum(dirs)
    s, dots = _certified_direction(dirs, cert)
    if s is None:
        normal = next((c for c in crosses if c != (0, 0, 0)), None)
        if normal is None:
            return ConvexityCheck(False, DEGENERATE_RANK)
        if not any(_idot(normal, d) for d in dirs):
            # directions confined to a plane must sweep it once, strictly
            # monotonically; the turns are visited from (dirs[0], dirs[1])
            return _wound_once(_plane_frame(normal, dirs[1:] + dirs[:1]), False, OK_FLAT)
        # a wedge has no strict support: read it off the certificate first
        wedge = _wedge_check(dirs, crosses, dots)
        s = None if wedge.convex else _pairwise_support(dirs)
        if s is None:
            return wedge
    return _pointed_check(crosses, s)
