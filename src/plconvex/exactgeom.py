"""Exact linear algebra for the verifier: elimination, nullspaces, projections.

Every decision in the verifier reduces to the sign of a rational
expression, and no decision anywhere in the package goes through a
float.  Inputs are exact coordinates, each an ``int`` or a
``fractions.Fraction`` (``Number``): a surface shows an ``int`` for
every integer value it reads and the generators build ``Fraction``s.
The verifier's hot path carries them in homogeneous form
(``homogeneous``: integer numerators over one positive denominator), so
elimination, nullspaces and projections run on Python integers,
fraction-free.

Who converts and who trusts integer rows: ``_reduce`` and ``_pivot``
are the one elimination routine; they take rows of ints as they are
and never convert.  ``homogeneous`` converts values: it scales a row to
integers over its least common denominator, so a row of ints comes back
with its values over weight 1.  The PLS reader (``formats._row``) gives
that same ``HomPoint`` straight from the text, with int() and gcd, and
a parsed surface keeps it (``surface.SurfaceRows``), so ``surface._rows``,
which the geometry pass and the writers read, converts only the rows of
a surface built from values.

Two helpers run every kernel on integer rows: ``_independent`` reduces
rows in order and keeps the ones that raise the rank, and
``_free_basis`` reads the primitive free-column basis orthogonal to
echelon rows off one back-substitution.  ``nullspace`` is
``_free_basis`` of ``_independent``; ``complementary_projection`` is
``_echelon_projection`` (the axis triple, else ``_free_basis``) of
``_independent``; both take any exact rows through ``homogeneous``.  The
geometry pass (``surface``) reduces each face's rows once, in
``_face_geometry``'s own scan, and tables each star's ``Projection3``
once (``verifier.preflight(s).projections``): ``_echelon_projection``
of its face's echelon rows in vertex mode, the three incident facet
normals that ``_independent`` keeps in equations mode.  A facet's
equation (``surface.facet_equation``, ``as_equations``) is
``_free_basis`` of its echelon rows.  ``fan.build_fan`` applies a
projection's rows as they are.  A rank is the width less the size of
the nullspace.

Vectors are plain tuples of exact numbers (``Fraction`` or ``int``);
matrices are sequences of such row vectors.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

# an exact number: the readers give an int for every integer value, a Fraction otherwise
Number = int | Fraction
Vec = tuple[Number, ...]
IVec = tuple[int, ...]
# a point as integer numerators over a positive weight: the point is nums / weight
HomPoint = tuple[IVec, int]
# integer echelon rows as (pivot column, row) pairs, as ``_reduce`` keeps them
Echelon = tuple[tuple[int, IVec], ...]


class DegenerateFaceError(Exception):
    """A face's vertex set does not span an affine subspace of its dimension."""

    code = "DEGENERATE_FACE"

    def __init__(self, face, message=""):
        super().__init__(message or f"degenerate face {face}")
        self.face = face


def as_vec(xs: Iterable) -> Vec:
    return tuple(Fraction(x) for x in xs)


def dot(u: Vec, v: Vec) -> Fraction:
    return sum(map(operator.mul, u, v))


def cross3(u: Vec, v: Vec) -> Vec:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def homogeneous(v: Sequence) -> HomPoint:
    """Integer numerators and their positive common denominator: v = nums / w.

    w is the least common denominator, so a row of ints comes back with
    its values over weight 1.  A value that is no exact number (a float,
    a str) is a TypeError that names it.
    """
    try:
        w = math.lcm(*[x.denominator for x in v])
    except AttributeError:
        bad = next(x for x in v if not hasattr(x, "denominator"))
        raise TypeError(f"{bad!r} is not an exact number") from None
    return tuple(x.numerator * (w // x.denominator) for x in v), w


def dehomogenise(nums: Sequence[int], w: int) -> Vec:
    """The rational vector nums / w, the inverse of ``homogeneous``."""
    return tuple(Fraction(x, w) for x in nums)


def _reduce(pivots: Sequence[tuple[int, IVec]], r: IVec) -> IVec:
    """Fraction-free reduction of an integer row against echelon pivot rows.

    Each pivot (col, row) with r[col] != 0 replaces r by p*r - c*row
    (p = row[col], c = r[col], both divided by gcd(p, c)); the result is
    divided by the gcd of its entries, so no division leaves the
    integers.  Each pivot row must be zero at the pivot columns of the
    rows before it.  This and ``_pivot`` are the package's one
    elimination routine; every entry must already be an ``int``.
    """
    for col, row in pivots:
        c = r[col]
        if c:
            g = math.gcd(row[col], c)
            p, c = row[col] // g, c // g
            r = tuple([p * x - c * y for x, y in zip(r, row)])
    g = math.gcd(*r)
    if g > 1:
        r = tuple([x // g for x in r])
    return r


def _pivot(r: IVec) -> int | None:
    """The column of the first nonzero entry of r, None for a zero row."""
    for k, x in enumerate(r):
        if x:
            return k
    return None


def _independent(rows: Iterable[IVec]) -> tuple[Echelon, list[int]]:
    """Reduce integer rows in order and keep each one that raises the rank.

    Each row is reduced (``_reduce``) against the rows kept before it
    and kept, with its pivot column (``_pivot``), unless it reduces to
    zero.  The result is the kept rows as ``Echelon`` pairs and the
    indices of the rows that raised the rank, in increasing order.
    """
    pivots: list[tuple[int, IVec]] = []
    kept = []
    for i, v in enumerate(rows):
        r = _reduce(pivots, v)
        col = _pivot(r)
        if col is not None:
            pivots.append((col, r))
            kept.append(i)
    return tuple(pivots), kept


def _free_basis(pivots: Echelon, width: int) -> tuple[IVec, ...]:
    """Integer basis of the vectors of length ``width`` orthogonal to echelon rows, from one back-substitution.

    ``pivots`` are (col, row) pairs as ``_reduce`` keeps them: col is
    the row's first nonzero column, and no two rows share one.  The rows
    are taken last pivot column first, each cleared of the pivot columns
    taken before it (``_reduce``): the reduced echelon form, up to one
    scale per row.  The basis has one vector per free column f, in
    increasing order: L at f, 0 at the other free columns and
    -L * row[f] / row[pivot] at each pivot column, with the least
    positive integer L that makes every entry an integer.  It is L times
    the basis read off the rational reduced row echelon form, so it
    depends on the span of the rows alone.
    """
    reduced: list[tuple[int, IVec]] = []
    for col, row in sorted(pivots, reverse=True):
        reduced.append((col, _reduce(reduced, row)))
    scale = math.lcm(*[row[c] for c, row in reduced])  # lcm of the absolute values
    pivot_cols = {c for c, _ in reduced}
    basis = []
    for f in range(width):
        if f in pivot_cols:
            continue
        x = [0] * width
        x[f] = scale
        for c, row in reduced:
            x[c] = -row[f] * (scale // row[c])
        basis.append(x)
    g = math.gcd(*[x for b in basis for x in b])  # 0 only for an empty basis
    return tuple([tuple([x // g for x in b]) for b in basis])


def nullspace(rows: Sequence[Sequence], width: int) -> tuple[IVec, ...]:
    """Deterministic integer basis of {x : row . x = 0 for each row}: ``_free_basis`` of the rows.

    Each row goes through ``homogeneous``, so rows of ints are reduced
    with their values; each vector's last nonzero entry is one common
    positive L, at its own free column.
    """
    return _free_basis(_independent([homogeneous(v)[0] for v in rows])[0], width)


class Projection3(NamedTuple):
    """A rank-3 linear map R^n -> R^3, given by its three integer rows.

    ``fan.build_fan`` uses the rows as they are; the geometry pass
    tables one per star, from ``complementary_projection`` or from the
    star's facet normals.  ``axes`` is set when the map is a plain coordinate
    extraction; it lets ``build_fan`` skip the row products.
    """

    rows: tuple[IVec, IVec, IVec]
    axes: tuple[int, int, int] | None = None


_IDENTITY3 = Projection3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 1, 2))


def _echelon_projection(pivots: Echelon, n: int) -> Projection3:
    """Rank-3 map killing exactly the span of n - 3 integer echelon rows.

    ``pivots`` are (col, row) pairs as ``_reduce`` keeps them.  When the
    rows are zero at three common columns, the map extracts the first
    three such coordinates (``axes``).  Otherwise the map's rows are the
    ``_free_basis`` of the echelon rows, which depends on their span
    alone, so it is ``nullspace``'s for any rows that span it.
    """
    zero_cols = [i for i, col in enumerate(zip(*[row for _, row in pivots])) if not any(col)]
    if len(zero_cols) >= 3:
        triple = tuple(zero_cols[:3])
        rows = tuple(
            tuple(1 if k == i else 0 for k in range(n)) for i in triple
        )
        return Projection3(rows, triple)
    return Projection3(_free_basis(pivots, n))


def complementary_projection(kernel: Sequence[Vec], n: int) -> Projection3:
    """Rank-3 map killing exactly span(kernel), |kernel| = n - 3 independent vectors.

    At n = 3 the kernel is empty and the map is one shared identity.
    Otherwise each kernel vector goes through ``homogeneous`` and is
    reduced against the ones before it (``_independent``), and the echelon
    rows that result give the map (``_echelon_projection``): the axis
    triple when the kernel is spanned by axes outside one, else the
    ``nullspace`` basis of the kernel, which spans its orthogonal
    complement.  Either way the rows are integers.  A kernel vector
    that the ones before it span is a ValueError.
    """
    if len(kernel) != n - 3:
        raise ValueError(f"kernel size {len(kernel)} != n-3 = {n - 3}")
    if not kernel:
        return _IDENTITY3
    pivots, kept = _independent(homogeneous(v)[0] for v in kernel)
    if len(kept) < len(kernel):
        raise ValueError("kernel vectors are not linearly independent")
    return _echelon_projection(pivots, n)
