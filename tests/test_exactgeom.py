import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from plconvex.exactgeom import (
    DegenerateFaceError,
    _echelon_projection,
    _pivot,
    _reduce,
    as_vec,
    complementary_projection,
    dehomogenise,
    dot,
    homogeneous,
    nullspace,
)
from plconvex.fan import ZeroDirectionError, build_fan
from plconvex.poset import Face

from conftest import rank

F = Fraction

fr = st.fractions(min_value=-5, max_value=5, max_denominator=20)


def vecs(dim, n):
    return st.lists(st.tuples(*[fr] * dim), min_size=0, max_size=n)


def test_rank_examples():
    assert rank([as_vec([1, 0, 0]), as_vec([0, 1, 0])]) == 2
    assert rank([]) == 0
    assert rank([as_vec([1, 2]), as_vec([2, 4])]) == 1
    # integer rows stay exact: the determinant is -1, which floats lose
    assert rank([[2**60 + 1, 2**60], [2**60, 2**60 - 1]]) == 2


def test_rank_takes_fraction_rows():
    rows = [(F(1, 2), F(1, 3), F(0)), (F(3), F(2), F(0)), (1, F(-1, 7), 2)]
    assert rank(rows) == 2
    # the same rows as integers, each by its own positive factor
    assert rank([(3, 2, 0), (6, 4, 0), (7, -1, 14)]) == 2
    assert rank(rows[:2]) == 1


@given(vecs(3, 6))
def test_rank_bounds(rows):
    r = rank(rows)
    assert 0 <= r <= min(3, len(rows))
    assert rank(rows + rows) == r


def _free_columns(rows, width):
    # column j is a pivot column iff it raises the rank of the columns before it
    prefix = lambda j: rank([r[:j] for r in rows]) if rows else 0
    return [j for j in range(width) if prefix(j + 1) == prefix(j)]


NULLSPACE_CASES = [
    ([as_vec([1, 1, 1, 1])], 4),
    ([[1, 2, 3]], 3),
    ([[0, 2, 4, 6], [1, 0, 0, 5]], 4),
    ([[F(1, 3), F(-2, 5), 0, 7, F(1, 2)], [2, 0, F(3, 4), 1, 0], [F(2, 3), F(-4, 5), 0, 14, 1]], 5),
    ([[2**60 + 1, 2**60, 3], [2**60, 2**60 - 1, 5]], 3),
    ([], 3),
    # a dependent row, zero rows, and rows whose pivot columns come in decreasing order
    ([[1, 2, 3, 4], [F(1, 2), 1, F(3, 2), 2], [0, 1, 1, 1]], 4),
    ([[0, 0, 0, 0, 0], [1, 0, 2, 0, F(1, 2)], [0, 0, 0, 0, 0]], 5),
    ([[0, 0, 1, 2], [0, 1, 5, 0], [1, 3, 0, -1]], 4),
]


def test_nullspace_orthogonality():
    for rows, width in NULLSPACE_CASES:
        basis = nullspace(rows, width)
        assert len(basis) == width - rank(rows)
        assert all(type(x) is int for b in basis for x in b)
        assert all(dot(r, b) == 0 for r in rows for b in basis)
        assert rank(basis) == len(basis)
        # the reduced row echelon shape: each vector holds one common
        # positive L at its own free column and 0 at the other free columns
        free = _free_columns(rows, width)
        scale = basis[0][free[0]]
        assert scale > 0
        for b, f in zip(basis, free):
            assert [b[g] for g in free] == [scale if g == f else 0 for g in free]
    # integer rows stay integers, without a float division
    assert nullspace([[1, 2, 3]], 3) == ((-2, 1, 0), (-3, 0, 1))


def image(p, v):
    """v's image under p as ``build_fan`` applies it: the direction from an apex at the origin to v."""
    nums, w = homogeneous(v)
    # a two-entry cycle whose ray and cell both sit at v
    points = {0: [((0,) * len(v), 1)], 1: [(nums, w)], 2: [(nums, w)]}
    try:
        fan = build_fan(points, Face(0, 0), (0, 0), p)
    except ZeroDirectionError:
        return as_vec([0, 0, 0])
    return dehomogenise(fan.dirs[0], w)


def test_projection_identity_for_n3():
    p = complementary_projection([], 3)
    assert p.axes == (0, 1, 2)
    assert complementary_projection((), 3) is p  # one shared identity
    v = as_vec([1, F(-2, 3), 3])
    assert image(p, v) == v


def _lexicographic_zero_triple(kernel, n):
    """The first axis triple, in ``combinations`` order, zero in every kernel vector."""
    for triple in combinations(range(n), 3):
        if all(all(v[i] == 0 for i in triple) for v in kernel):
            return triple
    return None


def test_axis_triple_is_the_lexicographic_zero_triple():
    rng = random.Random(11)
    hits = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(4, 7)
        # up to three columns forced to zero; more would leave too few for n - 3 independent rows
        zero = set(rng.sample(range(n), rng.randint(0, 3)))
        while True:
            kernel = [
                tuple(0 if i in zero else rng.choice([0, 0, 1, -1, 2, F(1, 3)]) for i in range(n))
                for _ in range(n - 3)
            ]
            if rank(kernel) == n - 3:
                break
        expected = _lexicographic_zero_triple(kernel, n)
        p = complementary_projection(kernel, n)
        assert p.axes == expected
        if expected is not None:  # the rows are the unit rows of the axes
            assert p.rows == tuple(tuple(int(k == i) for k in range(n)) for i in expected)
        hits[expected is not None] += 1
        if expected is None:
            assert rank(p.rows) == 3 and all(dot(r, v) == 0 for r in p.rows for v in kernel)
    assert min(hits.values()) >= 50  # both the axis path and the nullspace path ran


@st.composite
def echelon_rows(draw):
    """n and n - 3 independent integer rows in ``_reduce``'s echelon form, each row scaled by a drawn factor.

    Each row is drawn zero before a pivot column of its own and nonzero
    there, then reduced against the rows before it.  Entries are often
    zero, so that rows often miss three common columns (the axis path);
    the factors leave rows with a common divisor, as the first row of
    ``surface._face_geometry``'s scan keeps it.
    """
    n = draw(st.integers(4, 7))
    cols = draw(st.permutations(range(n)))[: n - 3]
    entry = st.sampled_from([0, 0, 1, -1, 2, -3, 12])
    pivots = []
    for col in cols:
        row = [0] * col + [draw(st.sampled_from([1, -1, 2, 5]))] + [draw(entry) for _ in range(n - col - 1)]
        r = _reduce(pivots, tuple(row))
        factor = draw(st.sampled_from([1, -1, 2, 6]))
        pivots.append((_pivot(r), tuple(x * factor for x in r)))
    return n, tuple(pivots)


def fraction_rank(rows) -> int:
    """The rank of exact rows, by plain Gaussian elimination over ``Fraction``s."""
    rows = [[F(x) for x in r] for r in rows]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next((k for k, x in enumerate(pivot) if x), None)
        if col is not None:
            rank += 1
            rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)] for r in rows]
    return rank


@given(echelon_rows())
def test_echelon_projection_is_the_nullspace_of_its_rows(case):
    # one back-substitution gives a basis of the vectors orthogonal to the
    # rows in reduced shape (checked without the package's elimination),
    # nullspace's basis of the rows, the rows that complementary_projection
    # takes for any basis of the same span, and the axis triple exactly
    # when three columns are zero in every row
    n, pivots = case
    rows = [r for _, r in pivots]
    p = _echelon_projection(pivots, n)
    assert all(dot(r, b) == 0 for r in rows for b in p.rows)
    assert fraction_rank(p.rows) == 3
    free = sorted(set(range(n)) - {c for c, _ in pivots})
    scale = p.rows[0][free[0]]
    assert scale > 0
    for b, f in zip(p.rows, free):
        assert [b[g] for g in free] == [scale if g == f else 0 for g in free]
    assert p.rows == nullspace(rows, n)
    assert p.axes == _lexicographic_zero_triple(rows, n)
    assert complementary_projection(rows, n) == p
    assert complementary_projection([as_vec(r) for r in reversed(rows)], n) == p


def test_projection_axis_kernel():
    e1 = as_vec([1, 0, 0, 0])
    p = complementary_projection([e1], 4)
    assert p.axes == (1, 2, 3)
    assert image(p, as_vec([5, 1, 2, 3])) == as_vec([1, 2, 3])
    assert image(p, e1) == as_vec([0, 0, 0])


def test_projection_refuses_dependent_kernel():
    with pytest.raises(ValueError, match="^kernel vectors are not linearly independent$"):
        complementary_projection([(1, 2, 3, 4, 5), (2, 4, 6, 8, 10)], 5)


def test_projection_general_kernel():
    k = as_vec([1, 1, 1, 1])
    p = complementary_projection([k], 4)
    assert p.axes is None
    assert image(p, k) == as_vec([0, 0, 0])
    assert rank(p.rows) == 3
    # rows are orthogonal to the kernel by construction
    assert all(dot(r, k) == 0 for r in p.rows)


@given(st.lists(st.tuples(*[fr] * 5), min_size=2, max_size=2))
def test_projection_kernel_is_exact(kern):
    if rank(kern) != 2:
        return
    p = complementary_projection(kern, 5)
    assert rank(p.rows) == 3
    for v in kern:
        assert image(p, v) == as_vec([0, 0, 0])
    # a vector outside the span must not be killed
    for e in (as_vec([1, 0, 0, 0, 0]), as_vec([0, 1, 0, 0, 0]), as_vec([0, 0, 1, 0, 0])):
        if rank(list(kern) + [e]) == 3:
            assert image(p, e) != as_vec([0, 0, 0])
            break


def test_projection_rejects_bad_kernel():
    with pytest.raises(ValueError):
        complementary_projection([as_vec([1, 0, 0])], 3)
    with pytest.raises(ValueError):
        complementary_projection([as_vec([1, 0, 0, 0]), as_vec([2, 0, 0, 0])], 4)


def test_degenerate_face_error_message():
    face = Face(2, 3)
    assert str(DegenerateFaceError(face, "no vertices")) == "no vertices"
    assert str(DegenerateFaceError(face)) == f"degenerate face {face}"
    assert DegenerateFaceError(face).face == face
