"""Global convexity verdict from per-star local convexity checks.

``verify`` and ``verify_face`` share one front end: it validates the
input (structure, closedness, connectedness, then the realization pass
``prepare``) and walks the link of every (n-3)-face (``link_cycle``),
so a broken link anywhere makes the input INVALID before any star is
classified.  ``verify`` then classifies each star from its link cycle
and the interior points and projections that ``prepare`` computed once
per face; ``verify_face`` classifies its one star the same way, or
answers the front end's INVALID reason.  Every classification goes
through one path: the star's tabled projection, ``build_fan`` and
``fan_is_convex``; no star computes a projection of its own.  The
surface is the boundary of a convex polyhedron exactly when every star
passes; compactness plus closedness supply the strictly convex point
that makes local convexity everywhere sufficient, so no separate
strictness test is run.

Verdicts are deterministic: stars are checked in face-index order, so
the reported witness is always the failing (n-3)-face of least index,
and an early-exit run reports the same witness as a ``collect_all`` run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fan import ConvexityCheck, ZeroDirectionError, build_fan, fan_is_convex
from .poset import Face, LinkCycleError, check_closed, check_connected, link_cycle, validate_poset
from .surface import PLSurface, PreparedSurface, prepare

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
    """Input validation chain; stops at the first failing stage.

    The last stage is the geometry pass, so on success the result also
    carries every face's interior point and every (n-3)-face's projection.
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


def _front_end(surface: PLSurface) -> tuple[Verdict | None, PreparedSurface, list[tuple[int, ...]]]:
    """Everything ``verify`` runs before it classifies a star.

    ``preflight``, then ``link_cycle`` on every (n-3)-face in index
    order.  Returns the INVALID verdict of the first failure (None when
    there is none), ``preflight``'s table and the link cycle of every
    (n-3)-face, indexed by face index.
    """
    prepared = preflight(surface)
    if not prepared.ok:
        v = prepared.report.violations[0]
        return Verdict(INVALID, witness=v.face, reason=v.code), prepared, []
    # every link is walked before any star is classified: a broken one
    # makes the input INVALID wherever it is, whatever the other stars say
    cycles: list[tuple[int, ...]] = []
    for face in surface.poset.faces(surface.poset.dim_low):
        try:
            cycles.append(link_cycle(surface.poset, face))
        except LinkCycleError as exc:
            return Verdict(INVALID, witness=face, reason=exc.code), prepared, []
    return None, prepared, cycles


def _star_check(face: Face, cycle: tuple[int, ...], prepared: PreparedSurface):
    """Classify one star from its link cycle and ``prepared``'s tables; the check and its entry count."""
    try:
        fan = build_fan(prepared.points, face, cycle, prepared.projections[face.index])
    except ZeroDirectionError as exc:
        return ConvexityCheck(False, exc.code), 0
    return fan_is_convex(fan), len(fan.dirs)


def verify_face(surface: PLSurface, face: Face) -> ConvexityCheck:
    """Local convexity of one (n-3)-face star.

    Runs ``verify``'s front end on the whole surface, so it costs a
    whole ``preflight``: when that finds the input INVALID the answer
    is ``(False, verify(surface).reason)``, else the classification
    that ``verify`` makes of this star.  Raises ValueError when
    ``face`` is not one of the surface's (n-3)-faces.
    """
    poset = surface.poset
    if face.dim != poset.dim_low or not 0 <= face.index < poset.count(face.dim):
        raise ValueError(f"{face} is not an (n-3)-face of the surface")
    invalid, prepared, cycles = _front_end(surface)
    if invalid is not None:
        return ConvexityCheck(False, invalid.reason)
    return _star_check(face, cycles[face.index], prepared)[0]


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
    invalid, prepared, cycles = _front_end(surface)
    if invalid is not None:
        return invalid

    failing: list[tuple[Face, str]] = []
    entries_total = 0

    for face, cycle in zip(surface.poset.faces(surface.poset.dim_low), cycles):
        check, entries = _star_check(face, cycle, prepared)
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
