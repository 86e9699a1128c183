"""Global convexity verdict from per-star local convexity checks.

``verify`` first validates the input (structure, closedness,
connectedness, realization), then evaluates the star of every
(n-3)-face.  The surface is the boundary of a convex polyhedron exactly
when every star passes; compactness plus closedness supply the strictly
convex point that makes local convexity everywhere sufficient, so no
separate strictness test is run.

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
    ValidationReport,
    check_closed,
    check_connected,
    link_cycle,
    validate_poset,
)
from .surface import PLSurface, check_realization, direction_space

CONVEX = "CONVEX"
NOT_CONVEX = "NOT_CONVEX"
INVALID = "INVALID"

# star-level defects that invalidate the input rather than disprove convexity
INVALID_STAR_REASONS = frozenset({"NOT_SINGLE_CYCLE", "DEGENERATE_FACE", "ZERO_DIRECTION"})


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


def preflight(surface: PLSurface) -> ValidationReport:
    """Input validation chain; stops at the first failing stage."""
    for stage in (
        lambda: validate_poset(surface.poset, surface.mode),
        lambda: check_closed(surface.poset),
        lambda: check_connected(surface.poset),
        lambda: check_realization(surface),
    ):
        report = stage()
        if not report.ok:
            return report
    return ValidationReport()


def _star_check(surface: PLSurface, face: Face, projection: Projection3 | None = None):
    try:
        cycle = link_cycle(surface.poset, face)
        kernel = direction_space(surface, face)
        proj = projection if projection is not None else complementary_projection(kernel, surface.n)
        fan = build_fan(surface, face, cycle, proj)
    except LinkCycleError:
        return ConvexityCheck(False, "NOT_SINGLE_CYCLE"), 0
    except DegenerateFaceError:
        return ConvexityCheck(False, "DEGENERATE_FACE"), 0
    except ZeroDirectionError:
        return ConvexityCheck(False, "ZERO_DIRECTION"), 0
    return fan_is_convex(fan), len(fan.entries)


def verify_face(surface: PLSurface, face: Face, projection: Projection3 | None = None) -> ConvexityCheck:
    """Local convexity of one (n-3)-face star.

    ``projection`` overrides the default complementary projection; it
    must be a valid rank-3 map vanishing exactly on the face's direction
    space.  Structural defects of the star come back as non-accepting
    reasons (NOT_SINGLE_CYCLE, DEGENERATE_FACE, ZERO_DIRECTION).
    """
    return _star_check(surface, face, projection)[0]


def verify(surface: PLSurface, *, collect_all: bool = False) -> Verdict:
    """Decide whether the surface bounds a convex polyhedron.

    Returns CONVEX, or NOT_CONVEX with the least-index failing
    (n-3)-face as witness, or INVALID when the input violates the
    closed-connected-manifold / realization preconditions (no convexity
    claim is made then).  ``collect_all`` gathers every failing face in
    ``failures``; otherwise the check stops at the first failure.
    ``entries_checked`` counts fan entries evaluated across all stars.
    """
    report = preflight(surface)
    if not report.ok:
        v = report.violations[0]
        return Verdict(INVALID, witness=v.face, reason=v.code)

    failing: list[tuple[Face, str]] = []
    entries_total = 0
    for face in surface.poset.faces(surface.poset.dim_low):
        check, entries = _star_check(surface, face)
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
