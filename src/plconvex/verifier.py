"""Global convexity verdict from per-star local convexity checks.

The decider has two phases.  ``preflight`` is its one front end: it
establishes the global preconditions once, in this order (structure,
closedness, connectedness, the realization pass, then the link of
every (n-3)-face), stops at the first failing stage, and returns one
``PreparedSurface``: that stage's report, or every star's state (the
interior points and projections of the geometry pass and each
(n-3)-face's link cycle).  A broken link anywhere is a NOT_SINGLE_CYCLE
violation at its face, so the input is INVALID before any star is
classified.  ``verify`` and ``verify_face`` read only that result: an
INVALID verdict from the report's first violation, or the
classification of each star from its tabled cycle, points and
projection, through ``build_fan`` and ``fan_is_convex``; no star
computes a projection of its own.  The surface is the boundary of a
convex polyhedron exactly when every star passes; compactness plus
closedness supply the strictly convex point that makes local convexity
everywhere sufficient, so no separate strictness test is run.

Verdicts are deterministic: stars are checked in face-index order, so
the reported witness is always the failing (n-3)-face of least index,
and an early-exit run reports the same witness as a ``collect_all`` run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .fan import ConvexityCheck, ZeroDirectionError, build_fan, fan_is_convex
from .poset import Face, LinkCycleError, ValidationReport, Violation, check_closed, check_connected, link_cycle, validate_poset
from .surface import PLSurface, PreparedSurface, _geometry_pass

CONVEX = "CONVEX"
NOT_CONVEX = "NOT_CONVEX"
INVALID = "INVALID"


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
    """The one front end: every input check in order, stopping at the first failing stage.

    The stages are ``validate_poset``, ``check_closed``,
    ``check_connected``, the geometry pass (``surface._geometry_pass``,
    which runs only on a poset those three accepted) and ``link_cycle``
    on every (n-3)-face in index order, where a broken link is a
    NOT_SINGLE_CYCLE violation at its face.  The report is the failing
    stage's, or empty; on success the tables hold every face's interior
    point and every (n-3)-face's projection and link cycle.
    """
    poset = surface.poset
    for stage in (
        lambda: validate_poset(poset, surface.mode),
        lambda: check_closed(poset),
        lambda: check_connected(poset),
    ):
        report = stage()
        if not report.ok:
            return PreparedSurface(report)
    prepared = _geometry_pass(surface)
    if not prepared.ok:
        return prepared
    # every link is walked before any star is classified: a broken one
    # makes the input INVALID wherever it is, whatever the other stars say
    cycles = []
    for face in poset.faces(poset.dim_low):
        try:
            cycles.append(link_cycle(poset, face))
        except LinkCycleError as exc:
            return PreparedSurface(ValidationReport((Violation(exc.code, face, str(exc)),)))
    return replace(prepared, cycles=cycles)


def _star_check(face: Face, prepared: PreparedSurface):
    """Classify one star from ``prepared``'s tables; the check and its entry count."""
    try:
        fan = build_fan(prepared.points, face, prepared.cycles[face.index], prepared.projections[face.index])
    except ZeroDirectionError as exc:
        return ConvexityCheck(False, exc.code), 0
    return fan_is_convex(fan), len(fan.dirs)


def verify_face(surface: PLSurface, face: Face) -> ConvexityCheck:
    """Local convexity of one (n-3)-face star.

    Runs ``preflight`` on the whole surface, so it costs a whole
    preflight: when that rejects the input the answer is
    ``(False, verify(surface).reason)``, else the classification that
    ``verify`` makes of this star.  Raises ValueError when ``face`` is
    not one of the surface's (n-3)-faces.
    """
    poset = surface.poset
    if face.dim != poset.dim_low or not 0 <= face.index < poset.count(face.dim):
        raise ValueError(f"{face} is not an (n-3)-face of the surface")
    prepared = preflight(surface)
    if not prepared.ok:
        return ConvexityCheck(False, prepared.report.violations[0].code)
    return _star_check(face, prepared)[0]


def verify(surface: PLSurface, *, collect_all: bool = False) -> Verdict:
    """Decide whether the surface bounds a convex polyhedron.

    Returns CONVEX, or NOT_CONVEX with the least-index failing
    (n-3)-face as witness, or INVALID when the input violates the
    closed-connected-manifold / realization preconditions (no convexity
    claim is made then); a broken link is INVALID NOT_SINGLE_CYCLE at
    the least such (n-3)-face, found before any star is classified.
    A star whose fan has a zero direction is INVALID ZERO_DIRECTION.
    ``collect_all`` gathers every failing face in ``failures``;
    otherwise the check stops at the first failure.
    ``entries_checked`` counts fan entries evaluated across all stars.
    """
    prepared = preflight(surface)
    if not prepared.ok:
        v = prepared.report.violations[0]
        return Verdict(INVALID, witness=v.face, reason=v.code)

    failing: list[tuple[Face, str]] = []
    entries_total = 0

    for face in surface.poset.faces(surface.poset.dim_low):
        check, entries = _star_check(face, prepared)
        entries_total += entries
        if not check.convex:
            failing.append((face, check.reason))
            if not collect_all:
                break

    if not failing:
        return Verdict(CONVEX, entries_checked=entries_total)
    witness, reason = failing[0]
    kind = INVALID if reason == ZeroDirectionError.code else NOT_CONVEX
    failures = tuple(failing) if collect_all else ()
    return Verdict(kind, witness=witness, reason=reason, failures=failures, entries_checked=entries_total)
