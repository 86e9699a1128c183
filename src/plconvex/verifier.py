"""Global convexity verdict from per-star local convexity checks.

``verify`` first validates the input (structure, closedness,
connectedness, realization), then evaluates the star of every
(n-3)-face from the interior points and kernels that the realization
pass (``prepare``) computed once per face.  The surface is the boundary
of a convex polyhedron exactly when every star passes; compactness plus
closedness supply the strictly convex point that makes local convexity
everywhere sufficient, so no separate strictness test is run.

Verdicts are deterministic: stars are checked in face-index order, so
the reported witness is always the failing (n-3)-face of least index,
and an early-exit run reports the same witness as a ``collect_all`` run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactgeom import DegenerateFaceError, Projection3, complementary_projection
from .fan import ConvexityCheck, ZeroDirectionError, build_fan, fan_is_convex
from .poset import (
    Face,
    LinkCycleError,
    check_closed,
    check_connected,
    link_cycle,
    validate_poset,
)
from .surface import EQUATION_MODE, PLSurface, PreparedSurface, direction_space, homogeneous_point, prepare

CONVEX = "CONVEX"
NOT_CONVEX = "NOT_CONVEX"
INVALID = "INVALID"


class WitnessError(Exception):
    """An equations-mode face has no witness point, or one of the wrong length."""

    code = "BAD_WITNESS"

    def __init__(self, face: Face):
        super().__init__(f"missing or wrong-length witness point at {face}")
        self.face = face


# star-level defects that invalidate the input rather than disprove convexity
_STAR_ERRORS = (LinkCycleError, DegenerateFaceError, ZeroDirectionError, WitnessError)
INVALID_STAR_REASONS = frozenset(e.code for e in _STAR_ERRORS)


@dataclass(frozen=True)
class Verdict:
    kind: str
    witness: Face | None = None
    reason: str | None = None
    failures: tuple[tuple[Face, str], ...] = ()
    entries_checked: int = 0

    @property
    def convex(self) -> bool:
        return self.kind == CONVEX


def preflight(surface: PLSurface) -> PreparedSurface:
    """Input validation chain; stops at the first failing stage.

    The last stage is the geometry pass, so on success the result also
    carries every face's interior point and every (n-3)-face's kernel.
    """
    for stage in (
        lambda: validate_poset(surface.poset, surface.mode),
        lambda: check_closed(surface.poset),
        lambda: check_connected(surface.poset),
    ):
        report = stage()
        if not report.ok:
            return PreparedSurface(report)
    return prepare(surface)


def _star_check(surface: PLSurface, face: Face, geometry, projection: Projection3 | None = None):
    """Classify one star; ``geometry(face, cycle)`` gives its kernel and interior points."""
    try:
        cycle = link_cycle(surface.poset, face)
        kernel, points = geometry(face, cycle)
        proj = projection if projection is not None else complementary_projection(kernel, surface.n)
        fan = build_fan(points, face, cycle, proj)
    except _STAR_ERRORS as exc:
        return ConvexityCheck(False, exc.code), 0
    return fan_is_convex(fan), len(fan.dirs)


def verify_face(surface: PLSurface, face: Face, projection: Projection3 | None = None) -> ConvexityCheck:
    """Local convexity of one (n-3)-face star.

    Computes only the star's own kernel and interior points.
    ``projection`` overrides the default complementary projection; it
    must be a valid rank-3 map vanishing exactly on the face's direction
    space.  Structural defects of the star come back as non-accepting
    reasons (NOT_SINGLE_CYCLE, DEGENERATE_FACE, ZERO_DIRECTION), and so
    does, in equations mode, a missing or wrong-length witness on any
    face of the star (BAD_WITNESS, the code ``verify`` gives from
    ``prepare``).
    """

    def star_geometry(center: Face, cycle: tuple[Face, ...]):
        points = {f: homogeneous_point(surface, f) for f in (center, *cycle)}
        if surface.mode == EQUATION_MODE:
            for f, point in points.items():
                if point is None or len(point[0]) != surface.n:
                    raise WitnessError(f)
        return direction_space(surface, center), points

    return _star_check(surface, face, star_geometry, projection)[0]


def verify(surface: PLSurface, *, collect_all: bool = False) -> Verdict:
    """Decide whether the surface bounds a convex polyhedron.

    Returns CONVEX, or NOT_CONVEX with the least-index failing
    (n-3)-face as witness, or INVALID when the input violates the
    closed-connected-manifold / realization preconditions (no convexity
    claim is made then).  ``collect_all`` gathers every failing face in
    ``failures``; otherwise the check stops at the first failure.
    ``entries_checked`` counts fan entries evaluated across all stars.
    """
    prepared = preflight(surface)
    if not prepared.ok:
        v = prepared.report.violations[0]
        return Verdict(INVALID, witness=v.face, reason=v.code)

    failing: list[tuple[Face, str]] = []
    entries_total = 0

    def table(face: Face, cycle: tuple[Face, ...]):
        return prepared.kernels[face], prepared.points

    for face in surface.poset.faces(surface.poset.dim_low):
        check, entries = _star_check(surface, face, table)
        entries_total += entries
        if not check.convex:
            failing.append((face, check.reason))
            if not collect_all:
                break

    if not failing:
        return Verdict(CONVEX, entries_checked=entries_total)
    witness, reason = failing[0]
    kind = INVALID if reason in INVALID_STAR_REASONS else NOT_CONVEX
    return Verdict(
        kind,
        witness=witness,
        reason=reason,
        failures=tuple(failing) if collect_all else (),
        entries_checked=entries_total,
    )
