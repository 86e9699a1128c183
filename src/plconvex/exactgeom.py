"""Exact rational linear algebra and sign predicates.

Every decision in the verifier reduces to the sign of a rational
expression, so this module works over ``fractions.Fraction`` throughout.
No decision anywhere in the package goes through a float.

Vectors are plain tuples of ``Fraction``; matrices are sequences of such
row vectors.
"""

from __future__ import annotations

from fractions import Fraction
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class DegenerateFaceError(Exception):
    """A face's vertex set does not span an affine subspace of its dimension."""

    code = "DEGENERATE_FACE"

    def __init__(self, face, message=""):
        super().__init__(message or f"degenerate face {face}")
        self.face = face


def as_vec(xs: Iterable) -> Vec:
    return tuple(Fraction(x) for x in xs)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def vmean(points: Sequence[Vec]) -> Vec:
    inv = Fraction(1, len(points))
    acc = points[0]
    for p in points[1:]:
        acc = vadd(acc, p)
    return vscale(inv, acc)


def cross3(u: Vec, v: Vec) -> Vec:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def orient2d(a: Sequence[Fraction], b: Sequence[Fraction], c: Sequence[Fraction]) -> int:
    """Sign of the determinant |b-a, c-a|: +1 left turn, -1 right turn, 0 collinear."""
    return sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def orient3d(a: Vec, b: Vec, c: Vec, d: Vec) -> int:
    """Sign of the determinant |b-a, c-a, d-a| (side of d w.r.t. plane abc)."""
    u, v, w = vsub(b, a), vsub(c, a), vsub(d, a)
    return sign(dot(cross3(u, v), w))


class Eliminator:
    """Incremental exact Gaussian elimination.

    Feed row vectors with :meth:`add`; the instance keeps a growing set of
    pivot rows and reports whether each new row increased the rank.  Used
    for ranks and greedy independent subsets.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivots: list[tuple[int, Vec]] = []  # (pivot column, reduced row)

    def residual(self, v: Sequence[Fraction]) -> list[Fraction]:
        r = list(v)
        for col, row in self.pivots:
            if r[col] != 0:
                f = r[col] / row[col]
                for k in range(col, self.width):
                    r[k] -= f * row[k]
        return r

    def add(self, v: Sequence[Fraction]) -> bool:
        r = self.residual(v)
        for col in range(self.width):
            if r[col] != 0:
                self.pivots.append((col, tuple(r)))
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    vectors = list(vectors)
    if not vectors:
        return 0
    elim = Eliminator(len(vectors[0]))
    for v in vectors:
        elim.add(v)
    return elim.rank


def rref(rows: Sequence[Sequence[Fraction]], width: int) -> list[tuple[int, Vec]]:
    """Reduced row echelon form as (pivot column, row) pairs, pivots scaled to 1."""
    work: list[list[Fraction]] = []
    pivots: list[int] = []
    for v in rows:
        r = list(v)
        for col, row in zip(pivots, work):
            if r[col] != 0:
                f = r[col]
                for k in range(width):
                    r[k] -= f * row[k]
        for col in range(width):
            if r[col] != 0:
                f = r[col]
                r = [x / f for x in r]
                for col0, row0 in zip(pivots, work):
                    if row0[col] != 0:
                        g = row0[col]
                        for k in range(width):
                            row0[k] -= g * r[k]
                pivots.append(col)
                work.append(r)
                break
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [(pivots[i], tuple(work[i])) for i in order]


def nullspace(rows: Sequence[Sequence[Fraction]], width: int) -> tuple[Vec, ...]:
    """Deterministic basis of {x : row . x = 0 for each row}."""
    reduced = rref(rows, width)
    pivot_cols = [c for c, _ in reduced]
    free_cols = [c for c in range(width) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        x = [ZERO] * width
        x[f] = ONE
        for c, row in reduced:
            x[c] = -row[f]
        basis.append(tuple(x))
    return tuple(basis)


def coords_in_2basis(v: Vec, b1: Vec, b2: Vec) -> tuple[Fraction, Fraction] | None:
    """Solve v = x*b1 + y*b2 exactly; None when v is outside span(b1, b2)."""
    n = len(v)
    rows = None
    for i in range(n):
        for j in range(i + 1, n):
            det = b1[i] * b2[j] - b1[j] * b2[i]
            if det != 0:
                rows = (i, j, det)
                break
        if rows:
            break
    if rows is None:
        return None  # b1, b2 dependent; caller guarantees otherwise
    i, j, det = rows
    x = (v[i] * b2[j] - v[j] * b2[i]) / det
    y = (b1[i] * v[j] - b1[j] * v[i]) / det
    for k in range(n):
        if x * b1[k] + y * b2[k] != v[k]:
            return None
    return (x, y)


@dataclass(frozen=True)
class Projection3:
    """A rank-3 linear map R^n -> R^3 that vanishes exactly on span(kernel).

    ``axes`` is set when the map is a plain coordinate extraction; it
    lets ``project`` skip the dot products.
    """

    rows: tuple[Vec, Vec, Vec]
    kernel: tuple[Vec, ...]
    axes: tuple[int, int, int] | None = None


def complementary_projection(kernel: Sequence[Vec], n: int) -> Projection3:
    """Rank-3 map killing exactly span(kernel), |kernel| = n - 3 independent vectors.

    Fast path: when the kernel is spanned by coordinate axes outside some
    axis triple (scanned in lexicographic order), the map just extracts
    those three coordinates.  Otherwise the rows are a basis of the
    orthogonal complement of span(kernel), computed by exact elimination.
    """
    kernel = tuple(tuple(v) for v in kernel)
    if len(kernel) != n - 3:
        raise ValueError(f"kernel size {len(kernel)} != n-3 = {n - 3}")
    for triple in combinations(range(n), 3):
        if all(all(v[i] == 0 for i in triple) for v in kernel):
            rows = tuple(
                tuple(ONE if k == i else ZERO for k in range(n)) for i in triple
            )
            return Projection3(rows, kernel, axes=triple)
    comp = nullspace(kernel, n)
    if len(comp) != 3:
        raise ValueError("kernel vectors are not linearly independent")
    return Projection3((comp[0], comp[1], comp[2]), kernel)


def project(p: Projection3, v: Vec) -> Vec:
    if p.axes is not None:
        return (v[p.axes[0]], v[p.axes[1]], v[p.axes[2]])
    return tuple(dot(r, v) for r in p.rows)
