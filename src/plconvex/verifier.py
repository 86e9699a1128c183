"""Global convexity verdict from per-star local convexity checks.

``verify`` first validates the input (structure, closedness,
connectedness, realization), then walks the link of every (n-3)-face
(``link_cycle``): a broken link anywhere makes the input INVALID before
any star is classified.  It then classifies each star from its link
cycle and the interior points and kernels that the realization pass
(``prepare``) computed once per face; ``verify_face`` walks one link,
runs that pass over the star's faces only, plus in vertex mode
``validate_poset``'s containment check over the star, and classifies
the star the same way.  Every classification goes through one path:
``complementary_projection``'s integer rows, ``build_fan`` and
``fan_is_convex``.  The surface is the boundary of a convex polyhedron
exactly when every star passes; compactness plus closedness supply the
strictly convex point that makes local convexity everywhere
sufficient, so no separate strictness test is run.

Verdicts are deterministic: stars are checked in face-index order, so
the reported witness is always the failing (n-3)-face of least index,
and an early-exit run reports the same witness as a ``collect_all`` run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactgeom import complementary_projection
from .fan import ConvexityCheck, ZeroDirectionError, build_fan, fan_is_convex
from .poset import (
    Face,
    LinkCycleError,
    _uncontained,
    check_closed,
    check_connected,
    link_cycle,
    validate_poset,
)
from .surface import REPORT_CODES, VERTEX_MODE, PLSurface, PreparedSurface, _prepare, prepare

CONVEX = "CONVEX"
NOT_CONVEX = "NOT_CONVEX"
INVALID = "INVALID"


# star-level defects that invalidate the input rather than disprove convexity:
# a broken link, a zero fan direction, a code of the geometry pass that
# verify_face runs over the star's faces, or a vertex list of the star
# not inside the list of a face above it
INVALID_STAR_REASONS = frozenset((LinkCycleError.code, ZeroDirectionError.code, *REPORT_CODES, "VERTEX_NOT_CONTAINED"))


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


def _star_check(surface: PLSurface, face: Face, cycle: tuple[Face, ...], prepared: PreparedSurface):
    """Classify one star from its link cycle and ``prepared``'s table; the check and its entry count."""
    try:
        fan = build_fan(prepared.points, face, cycle, complementary_projection(prepared.kernels[face], surface.n))
    except ZeroDirectionError as exc:
        return ConvexityCheck(False, exc.code), 0
    return fan_is_convex(fan), len(fan.dirs)


def verify_face(surface: PLSurface, face: Face) -> ConvexityCheck:
    """Local convexity of one (n-3)-face star.

    Runs ``link_cycle``, then the geometry pass of ``prepare`` over the
    star's own faces only, then the star classification that ``verify``
    runs.  A star whose faces break the input contract gets the INVALID
    code that ``verify`` gives: NOT_SINGLE_CYCLE for a broken link, else
    the first violation of the star's pass (MISSING_COORDS, INVALID_ID,
    MISSING_EQUATION, BAD_NORMAL, ZERO_NORMAL, BAD_WITNESS), else in
    vertex mode ``validate_poset``'s VERTEX_NOT_CONTAINED for a face
    whose vertex list is not inside that of a face above it in the star,
    else the pass's DEGENERATE_FACE, or ZERO_DIRECTION from the star
    itself; all of them are in ``INVALID_STAR_REASONS``.
    """
    try:
        cycle = link_cycle(surface.poset, face)
    except LinkCycleError as exc:
        return ConvexityCheck(False, exc.code)
    star = (face, *cycle)
    prepared = _prepare(surface, star)
    violations = prepared.report.violations
    if surface.mode == VERTEX_MODE and all(v.code == "DEGENERATE_FACE" for v in violations):
        # validate_poset runs before prepare in verify, so its containment check outranks rank defects
        violations = _uncontained(surface.poset, star) or violations
    if violations:
        return ConvexityCheck(False, violations[0].code)
    return _star_check(surface, face, cycle, prepared)[0]


def verify(surface: PLSurface, *, collect_all: bool = False) -> Verdict:
    """Decide whether the surface bounds a convex polyhedron.

    Returns CONVEX, or NOT_CONVEX with the least-index failing
    (n-3)-face as witness, or INVALID when the input violates the
    closed-connected-manifold / realization preconditions (no convexity
    claim is made then); a broken link is INVALID NOT_SINGLE_CYCLE at
    the least such (n-3)-face, found before any star is classified.
    ``collect_all`` gathers every failing face in ``failures``;
    otherwise the check stops at the first failure.
    ``entries_checked`` counts fan entries evaluated across all stars.
    """
    prepared = preflight(surface)
    if not prepared.ok:
        v = prepared.report.violations[0]
        return Verdict(INVALID, witness=v.face, reason=v.code)

    # every link is walked before any star is classified: a broken one
    # makes the input INVALID wherever it is, whatever the other stars say
    cycles: dict[Face, tuple[Face, ...]] = {}
    for face in surface.poset.faces(surface.poset.dim_low):
        try:
            cycles[face] = link_cycle(surface.poset, face)
        except LinkCycleError as exc:
            return Verdict(INVALID, witness=face, reason=exc.code)

    failing: list[tuple[Face, str]] = []
    entries_total = 0

    for face, cycle in cycles.items():
        check, entries = _star_check(surface, face, cycle, prepared)
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
