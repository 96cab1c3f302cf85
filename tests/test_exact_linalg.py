"""Exact linear algebra: cross-checks against sympy and structural
properties of the lattice and exterior-algebra helpers."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from operator import mul
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    A_RAYS,
    B_RAYS,
    INFINITE,
    OutsideSpan,
    T13_RAYS,
    cyclic_cone,
    interior_vector,
    lattice_index,
    nonnegative_combination,
    normal_generator,
    reduce_mod_rows,
    seed77_cones,
    smith_decomposition,
    smith_kernel_rows,
    solve_unit_pairing,
)
from toricdef import cone_from_rays, face_lattice, star_quotient
from toricdef import exact_linalg as xl
from toricdef.errors import NotContained, ZeroVector

# ---------------------------------------------------------------------------
# rank / kernel / solve against sympy


def _random_int_matrix(rng, rows, cols, bound=6):
    return [[rng.randrange(-bound, bound + 1) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("seed", range(12))
def test_rank_and_kernel_match_sympy(seed):
    rng = random.Random(seed)
    rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
    data = _random_int_matrix(rng, rows, cols)
    m = xl.Matrix.from_dense(data, cols)
    smp = sympy.Matrix(data)
    rank, kernel = xl.rank_and_kernel(m)
    assert rank == smp.rank()
    assert kernel.shape == (cols, cols - rank)
    if kernel.shape[1]:
        prod = xl._sparse_product(m, kernel)
        assert not any(prod.rows)
    assert xl.matrix_rank(m) == smp.rank()


@pytest.mark.parametrize("seed", range(12))
def test_integer_rank_matches_sympy(seed):
    rng = random.Random(100 + seed)
    rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
    data = _random_int_matrix(rng, rows, cols, bound=9)
    assert xl.matrix_rank(xl.Matrix.from_dense(data, cols)) == sympy.Matrix(data).rank()


@pytest.mark.parametrize("seed", range(8))
def test_solve_matrix_solutions_verify(seed):
    rng = random.Random(200 + seed)
    rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
    a = xl.Matrix.from_dense(_random_int_matrix(rng, rows, cols), cols)
    x = xl.Matrix.from_dense(_random_int_matrix(rng, cols, 2), 2)
    b = xl._sparse_product(a, x)
    sol = xl.solve_matrix(a, b)
    assert sol is not None
    assert xl._sparse_product(a, sol) == b


def test_solve_matrix_detects_inconsistency():
    a = xl.Matrix.from_dense([[1, 0], [1, 0]], 2)
    b = xl.Matrix.from_dense([[1], [2]], 1)
    assert xl.solve_matrix(a, b) is None


# rational inputs: canonical values against sympy's reduced echelon form

SHAPES = ("wide", "tall", "square")


def _random_rational_matrix(rng, seed):
    """A seeded rational matrix of the seed's shape with a zero row, a row
    that is a combination of two others, and zero entries mixed in."""
    kind = SHAPES[seed % 3]
    small, big = rng.randrange(2, 4), rng.randrange(4, 7)
    rows, cols = {"wide": (small, big), "tall": (big, small), "square": (small + 1, small + 1)}[kind]

    def entry():
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    zero = rng.randrange(rows)
    data[zero] = [0] * cols
    i, j = rng.randrange(rows), rng.randrange(rows)
    k = rng.choice([r for r in range(rows) if r != zero])
    c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
    data[k] = [x + c * y for x, y in zip(data[i], data[j])]
    return [[_exact(x) for x in row] for row in data]


def _typed(rows):
    """Entries with their types, so an integral Fraction fails to match an int."""
    return [[(type(x).__name__, x) for x in row] for row in rows]


def _sympy_rref(data, width):
    red, pivots = sympy.Matrix(data).rref() if data else (sympy.zeros(0, width), ())
    return [[_exact(x) for x in red.row(i)] for i in range(red.rows)], list(pivots)


@pytest.mark.parametrize("seed", range(18))
def test_rational_rref_and_rank_match_sympy(seed):
    data = _random_rational_matrix(random.Random(600 + seed), seed)
    m = xl.Matrix.from_dense(data, len(data[0]))
    _, pivots = _sympy_rref(data, m.shape[1])
    assert xl.pivot_columns(m) == pivots
    assert xl.matrix_rank(m) == sympy.Matrix(data).rank() == len(pivots)


@pytest.mark.parametrize("seed", range(18))
def test_rational_kernel_is_the_free_variable_basis(seed):
    data = _random_rational_matrix(random.Random(700 + seed), seed)
    width = len(data[0])
    red, pivots = _sympy_rref(data, width)
    free = [c for c in range(width) if c not in pivots]
    expected = [[0] * len(free) for _ in range(width)]
    for j, fc in enumerate(free):
        expected[fc][j] = 1
        for i, pc in enumerate(pivots):
            expected[pc][j] = -red[i][fc]
    rank, kern = xl.rank_and_kernel(xl.Matrix.from_dense(data, width))
    assert rank == len(pivots)
    assert kern.shape == (width, len(free))
    assert _typed(kern.tolist()) == _typed(expected)


@pytest.mark.parametrize("seed", range(18))
def test_rational_solve_is_the_pivot_solution(seed):
    rng = random.Random(800 + seed)
    data = _random_rational_matrix(rng, seed)
    n = len(data[0])
    x = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(2)] for _ in range(n)]
    rhs = [[_exact(sum(a * b for a, b in zip(row, col))) for col in zip(*x)] for row in data]
    if seed % 2:
        # the zero row of A meets a nonzero right-hand side: no solution
        z = next(i for i, row in enumerate(data) if not any(row))
        rhs[z][rng.randrange(2)] = Fraction(1, 3)
    red, pivots = _sympy_rref([a + b for a, b in zip(data, rhs)], n + 2)
    sol = xl.solve_matrix(xl.Matrix.from_dense(data, n), xl.Matrix.from_dense(rhs, 2))
    if any(p >= n for p in pivots):
        assert seed % 2 and sol is None
        return
    assert not seed % 2
    expected = [[0, 0] for _ in range(n)]
    for i, p in enumerate(pivots):
        expected[p] = red[i][n:]
    assert _typed(sol.tolist()) == _typed(expected)


def test_rational_elimination_on_empty_and_zero_matrices():
    empty = xl.Matrix((), 3)
    assert xl.pivot_columns(empty) == [] and xl.matrix_rank(empty) == 0
    rank, kern = xl.rank_and_kernel(empty)
    assert rank == 0 and kern.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    zero = xl.Matrix.from_dense([[Fraction(0), 0], [0, 0]], 2)
    assert zero == xl.Matrix([{}, {}], 2)
    assert xl.pivot_columns(zero) == [] and xl.rank_and_kernel(zero)[1].tolist() == [[1, 0], [0, 1]]
    assert xl.solve_matrix(zero, xl.Matrix.from_dense([[0], [0]], 1)).tolist() == [[0], [0]]
    assert xl.solve_matrix(zero, xl.Matrix.from_dense([[0], [Fraction(1, 2)]], 1)) is None
    assert xl.solve_matrix(xl.Matrix([{}, {}], 0), xl.Matrix.from_dense([[1], [0]], 1)) is None


def test_zero_row_and_zero_column_shapes_survive_the_eliminations():
    for rows, cols in ((0, 0), (0, 3), (2, 0)):
        m = xl.Matrix([{}] * rows, cols)
        rank, kern = xl.rank_and_kernel(m)
        assert rank == 0 and kern.shape == (cols, cols)
        for width in (0, 2):
            sol = xl.solve_matrix(m, xl.Matrix([{}] * rows, width))
            assert sol.shape == (cols, width) and not any(sol.rows)
        assert xl._sparse_product(m, xl.Matrix([{}] * cols, 4)).shape == (rows, 4)
    assert xl.Matrix((), 3).tolist() == [] and xl.Matrix([{}, {}], 0).tolist() == [[], []]
    with pytest.raises(ValueError, match="ragged rows"):
        xl.Matrix.from_dense([[1, 2], [3]], 2)


# sparse matrices like the differentials of face complexes, with empty
# shapes, zero rows and duplicate rows

SPARSE_SHAPES = ((0, 5), (5, 0), (0, 0), (1, 7), (7, 1), (9, 12), (12, 9), (10, 10))


def _random_sparse_matrix(rng, rows, cols, rational):
    """About one entry in five nonzero; with three rows or more, one row is
    zero and one row repeats another."""

    def entry():
        if rng.random() >= 0.2:
            return 0
        x = rng.randrange(1, 8) * rng.choice((-1, 1))
        return _exact(Fraction(x, rng.randrange(1, 4))) if rational else x

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows >= 3:
        zero, src, dup = rng.sample(range(rows), 3)
        data[zero] = [0] * cols
        data[dup] = list(data[src])
    return data


def _sympy_matrix(data, rows, cols):
    return sympy.Matrix(rows, cols, [x for row in data for x in row])


@pytest.mark.parametrize("seed", range(16))
def test_sparse_elimination_matches_sympy(seed):
    rng = random.Random(900 + seed)
    rows, cols = SPARSE_SHAPES[seed % len(SPARSE_SHAPES)]
    data = _random_sparse_matrix(rng, rows, cols, rational=seed >= 8)
    m = xl.Matrix.from_dense(data, cols)
    smp = _sympy_matrix(data, rows, cols)
    red, pivots = smp.rref()
    red = [[_exact(x) for x in red.row(i)] for i in range(red.rows)]
    assert xl.matrix_rank(m) == smp.rank() == len(pivots)
    assert xl.pivot_columns(m) == list(pivots)

    free = [c for c in range(cols) if c not in pivots]
    expected = [[0] * len(free) for _ in range(cols)]
    for j, fc in enumerate(free):
        expected[fc][j] = 1
        for i, pc in enumerate(pivots):
            expected[pc][j] = -red[i][fc]
    rank, kern = xl.rank_and_kernel(m)
    assert rank == len(pivots)
    assert kern.shape == (cols, len(free))
    assert _typed(kern.tolist()) == _typed(expected)

    x = [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(cols)]
    rhs = smp * sympy.Matrix(cols, 2, [v for row in x for v in row])
    dense_b = [[_exact(v) for v in rhs.row(i)] for i in range(rows)]
    b = xl.Matrix.from_dense(dense_b, 2)
    assert xl._sparse_product(m, xl.Matrix.from_dense(x, 2)).tolist() == b.tolist()
    aug, aug_pivots = smp.row_join(rhs).rref()
    want = [[0, 0] for _ in range(cols)]
    for i, p in enumerate(aug_pivots):
        want[p] = [_exact(v) for v in aug.row(i)[cols:]]
    assert _typed(xl.solve_matrix(m, b).tolist()) == _typed(want)
    zero = next((i for i, row in enumerate(data) if not any(row)), None)
    if zero is not None:
        dense_b[zero][0] += 1
        assert xl.solve_matrix(m, xl.Matrix.from_dense(dense_b, 2)) is None


@pytest.mark.parametrize("seed", range(8))
def test_sparse_product_matches_sympy(seed):
    rng = random.Random(950 + seed)
    rows, inner = SPARSE_SHAPES[seed]
    cols = rng.randrange(0, 6)
    a = _random_sparse_matrix(rng, rows, inner, rational=seed % 2 == 1)
    b = _random_sparse_matrix(rng, inner, cols, rational=seed % 4 == 3)
    got = xl._sparse_product(xl.Matrix.from_dense(a, inner), xl.Matrix.from_dense(b, cols))
    want = _sympy_matrix(a, rows, inner) * _sympy_matrix(b, inner, cols)
    assert got.shape == (rows, cols) and isinstance(got, xl.Matrix)
    assert got.tolist() == [[_exact(x) for x in want.row(i)] for i in range(rows)]
    assert (not any(got.rows)) == all(x == 0 for x in want)


# ---------------------------------------------------------------------------
# Smith and Hermite forms


@pytest.mark.parametrize("seed", range(10))
def test_smith_normal_form_properties(seed):
    """The Smith decomposition that :func:`smith_kernel_rows` and
    :func:`lattice_index` read: ``U A V = D`` with ``U`` and ``V``
    unimodular, ``D`` diagonal with its nonzero entries first, positive and
    each dividing the next."""
    rng = random.Random(300 + seed)
    rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
    data = _random_int_matrix(rng, rows, cols)
    u, d, v = smith_decomposition(data, cols)
    smp_u, smp_v = sympy.Matrix(u), sympy.Matrix(v)
    assert smp_u * sympy.Matrix(data) * smp_v == sympy.Matrix(d)
    assert abs(smp_u.det()) == 1 and abs(smp_v.det()) == 1
    # diagonal, nonnegative, divisibility chain
    diag = []
    for r in range(rows):
        for c in range(cols):
            if r != c:
                assert d[r][c] == 0
            elif d[r][c] != 0:
                diag.append(d[r][c])
    assert all(d[i][i] for i in range(len(diag)))
    for x, y in zip(diag, diag[1:]):
        assert x > 0 and y % x == 0
    # invariant factors agree with sympy (up to trailing zeros)
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    smp = sympy.Matrix(data)
    expected = [abs(int(x)) for x in sympy_snf(smp, domain=sympy.ZZ).diagonal()]
    expected = [x for x in expected if x != 0]
    assert diag == expected


@pytest.mark.parametrize("seed", range(10))
def test_hermite_rows_canonical_and_spanning(seed):
    rng = random.Random(400 + seed)
    rows, cols = rng.randrange(1, 5), rng.randrange(2, 6)
    data = _random_int_matrix(rng, rows, cols)
    h = xl.hermite_rows(data, cols)
    # idempotent: the HNF of the HNF is itself
    assert xl.hermite_rows([list(r) for r in h], cols) == h
    # every original row reduces to zero against the basis
    for r in data:
        assert all(c == 0 for c in reduce_mod_rows(tuple(r), h))


@pytest.mark.parametrize("seed", range(10))
def test_integer_kernel_is_saturated(seed):
    rng = random.Random(500 + seed)
    rows, cols = rng.randrange(1, 4), rng.randrange(2, 6)
    data = _random_int_matrix(rng, rows, cols)
    ker = xl.integer_kernel_rows(data, cols)
    for k in ker:
        assert all(sum(data[r][c] * k[c] for c in range(cols)) == 0 for r in range(rows))
    # saturation: the kernel lattice equals its own saturation, the kernel
    # of its kernel
    if ker:
        sat = smith_kernel_rows(smith_kernel_rows(ker, cols), cols)
        assert xl.hermite_rows(list(ker), cols) == xl.hermite_rows(list(sat), cols)


def kernel_mismatch(rows, width):
    """How :func:`integer_kernel_rows` differs from the Smith-form kernel or
    from the saturation of sympy's nullspace, or None.  The basis is the
    saturated kernel when it has the nullspace's size, lies in the kernel
    and has invariant factors all 1."""
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    got = tuple(xl.integer_kernel_rows(rows, width))
    if got != smith_kernel_rows(rows, width):
        return "differs from the Smith kernel"
    if list(got) != xl.hermite_rows(got, width):
        return "not in Hermite form"
    a = sympy.Matrix(len(rows), width, [x for r in rows for x in r])
    if len(got) != len(a.nullspace()):
        return "rank differs from the nullspace's"
    if got:
        k = sympy.Matrix(got)
        if not (a * k.T).is_zero_matrix:
            return "a row is not in the kernel"
        if any(abs(x) != 1 for x in sympy_snf(k, domain=sympy.ZZ).diagonal()):
            return "not saturated"
    return None


def _kernel_edge_cases(seed):
    """No rows, zero rows, a repeated row, more rows than columns, and one
    column, with seeded entries."""
    rng = random.Random(900 + seed)
    width = rng.randrange(2, 6)
    rows = _random_int_matrix(rng, rng.randrange(1, 4), width)
    return [
        ([], width),
        ([[0] * width] * 2, width),
        ([[0] * width] + rows, width),
        (rows + rows[:1], width),
        (_random_int_matrix(rng, width + rng.randrange(1, 3), width), width),
        (_random_int_matrix(rng, rng.randrange(0, 4), 1), 1),
    ]


@pytest.mark.parametrize("seed", range(8))
def test_integer_kernel_matches_smith_and_sympy_on_edge_cases(seed):
    for rows, width in _kernel_edge_cases(seed):
        assert kernel_mismatch(rows, width) is None, (rows, width)


@pytest.mark.parametrize("seed", range(8))
def test_hermite_rows_is_the_same_on_int_fraction_and_numpy_rows(seed):
    """Rows of plain ints are taken as they are, without a copy through
    ``_as_int``; Fraction and numpy rows are converted.  All give the same
    int basis, and the caller's rows are left as they were."""
    for rows, width in _kernel_edge_cases(seed):
        kept = [list(r) for r in rows]
        want = xl.hermite_rows(rows, width)
        assert rows == kept
        assert all(type(x) is int for r in want for x in r)
        assert xl.hermite_rows([tuple(r) for r in rows], width) == want
        assert xl.hermite_rows([[Fraction(x) for x in r] for r in rows], width) == want
        assert xl.hermite_rows(np.array(rows, dtype=np.int64).reshape(len(rows), width), width) == want
        assert xl.hermite_rows(np.array(rows, dtype=object).reshape(len(rows), width), width) == want


@pytest.mark.parametrize("seed", range(8))
def test_integer_kernel_is_the_same_on_int_fraction_and_numpy_rows(seed):
    """Rows of plain ints skip ``_as_int``; Fraction and numpy rows are
    converted.  All give the same basis of int tuples, and the caller's rows
    are left as they were; a non-integral entry raises ValueError."""
    for rows, width in _kernel_edge_cases(seed):
        kept = [list(r) for r in rows]
        want = xl.integer_kernel_rows(rows, width)
        assert rows == kept
        assert all(type(r) is tuple and all(type(x) is int for x in r) for r in want)
        assert xl.integer_kernel_rows([tuple(r) for r in rows], width) == want
        assert xl.integer_kernel_rows([[Fraction(x) for x in r] for r in rows], width) == want
        assert xl.integer_kernel_rows(np.array(rows, dtype=np.int64).reshape(len(rows), width), width) == want
    with pytest.raises(ValueError, match="not an integer entry"):
        xl.integer_kernel_rows([[1, Fraction(1, 2)]], 2)


def test_integer_kernel_matches_smith_and_sympy_on_face_data():
    """Every face of the three fixtures, the nine seed-77 cones and their
    pyramids and the cyclic (5, 9) cone: the kernels of its rays and of its
    annihilator, ambient and intrinsic."""
    cones = [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS)]
    cones += seed77_cones() + [cyclic_cone(range(-4, 5), 5)]
    cases = 0
    for cone in cones:
        lat = face_lattice(cone)
        for f in lat.all_faces:
            for rows, width in (
                ([cone.rays[i] for i in sorted(f.ray_indices)], cone.rank),
                (f.perp_rows, cone.rank),
                ([lat.rays[i] for i in sorted(f.ray_indices)], lat.width),
                (lat.perps[f.ray_indices], lat.width),
            ):
                assert kernel_mismatch([list(r) for r in rows], width) is None, (cone, f.key)
                cases += 1
    assert cases > 2000


def test_lattice_index_values():
    assert lattice_index([(2, 0), (0, 3)], [(1, 0), (0, 1)], 2) == 6
    assert lattice_index([(1, 1)], [(1, 1)], 2) == 1
    assert lattice_index([(2, 2)], [(1, 1)], 2) == 2
    # smaller-rank sublattice: infinite index
    assert lattice_index([(1, 0)], [(1, 0), (0, 1)], 2) is INFINITE
    with pytest.raises(OutsideSpan):
        lattice_index([(1, 0)], [(0, 1)], 2)
    # inside the span but not inside the subgroup
    with pytest.raises(ValueError):
        lattice_index([(1, 0)], [(2, 0)], 2)


def test_primitive_vector():
    """Any iterable of integral entries, signs kept: int lists and tuples
    by one gcd, integral Fractions and numpy ints through ``_as_int``."""
    cases = [
        ((4, -6, 2), (2, -3, 1)),
        ([-4, 6, -2], (-2, 3, -1)),
        ((0, -5, 10), (0, -1, 2)),
        ((Fraction(6), Fraction(-9, 1), Fraction(0)), (2, -3, 0)),
        (np.array([-6, 9, 0], dtype=np.int64), (-2, 3, 0)),
        (np.array([-6, 9, 0], dtype=object), (-2, 3, 0)),
        ((x for x in (0, -5, 10)), (0, -1, 2)),
        ((7,), (1,)),
        ((-7,), (-1,)),
    ]
    for v, want in cases:
        got = xl.primitive_vector(v)
        assert got == want and all(type(x) is int for x in got), (v, got)
    for zero in ((0, 0, 0), [0], (), iter(()), (Fraction(0), 0), np.zeros(2, dtype=np.int64)):
        with pytest.raises(ZeroVector):
            xl.primitive_vector(zero)
    for bad in ((Fraction(1, 2), 1), (2, Fraction(3, 2)), (1.0, 2)):
        with pytest.raises(ValueError, match="not an integer entry"):
            xl.primitive_vector(bad)


@given(st.lists(st.integers(-30, 30), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_solve_unit_pairing(vec):
    from math import gcd

    g = 0
    for c in vec:
        g = gcd(g, c)
    if g != 1:
        return
    w = tuple(vec)
    y = solve_unit_pairing(w)
    assert sum(a * b for a, b in zip(w, y)) == 1


@pytest.mark.parametrize("seed", range(10))
def test_unit_column_is_a_unimodular_completion(seed):
    """``U rho = e_1`` and ``|det U| = 1``, by sympy, for seeded primitive
    vectors of length 1 to 8 with entries in [-40, 40], and for vectors
    with one nonzero entry or with ties in absolute value."""
    rng = random.Random(5900 + seed)
    vectors = [(0, -1), (-1, 0, 0), (5, -5, 1), (-7, 3), (-1,)] if seed == 0 else []
    while len(vectors) < 20:
        v = [rng.randrange(-40, 41) for _ in range(rng.randrange(1, 9))]
        if any(v):
            vectors.append(xl.primitive_vector(v))
    for rho in vectors:
        u = sympy.Matrix(xl._unit_column(rho))
        assert u * sympy.Matrix(rho) == sympy.Matrix([1] + [0] * (len(rho) - 1)), rho
        assert abs(u.det()) == 1, rho


UNIT_COLUMNS = Path(__file__).resolve().parent / "expected" / "unit_columns.txt"


def _ray_sum_cones():
    for name, rays in (("A", A_RAYS), ("B", B_RAYS), ("T13", T13_RAYS)):
        yield f"fixture {name}", cone_from_rays(rays, 4)
    for rank, params in ((5, range(-4, 5)), (5, range(-5, 6)), (6, range(-4, 5))):
        yield f"cyclic ({rank}, {len(params)})", cyclic_cone(params, rank)
    for i, cone in enumerate(seed77_cones()):
        yield f"seed-77 {'pyramid' if i % 2 else 'cone'} {i // 2}", cone


def unit_columns_dump() -> str:
    """The change of coordinates ``T`` of :func:`~toricdef.star_quotient` at
    the primitive ray sum of each cone of :func:`_ray_sum_cones`: the rows
    of :func:`~toricdef.exact_linalg._unit_column`, the first moved last."""
    lines = []
    for name, cone in _ray_sum_cones():
        rho = xl.primitive_vector(interior_vector(cone))
        u = xl._unit_column(rho)
        lines.append(f"# {name}: rho {' '.join(map(str, rho))}")
        lines += ["  " + " ".join(map(str, row)) for row in u[1:] + u[:1]]
    return "\n".join(lines) + "\n"


def test_unit_columns_are_pinned():
    """``T`` is the one the Smith form of the column ``rho`` gave, recorded
    in ``tests/expected/unit_columns.txt``, and :func:`star_quotient` uses
    it: its hat rays are ``T r``."""
    assert unit_columns_dump() == UNIT_COLUMNS.read_text()
    for _, cone in _ray_sum_cones():
        rho = xl.primitive_vector(interior_vector(cone))
        u = xl._unit_column(rho)
        t = u[1:] + u[:1]
        hats = tuple(tuple(sum(map(mul, row, r)) for row in t) for r in cone.rays)
        assert star_quotient(cone, rho)[1].hat.rays == hats


def test_nonnegative_combination():
    """The LP oracle of the tests, which the library no longer has."""
    cols = [(1, 0), (0, 1)]
    sol = nonnegative_combination(cols, (2, 3))
    assert sol is not None and sol == [Fraction(2), Fraction(3)]
    assert nonnegative_combination(cols, (-1, 0)) is None
    mix = nonnegative_combination([(1, 1), (1, -1)], (2, 0))
    assert mix == [Fraction(1), Fraction(1)]


# ---------------------------------------------------------------------------
# exterior algebra


def _full_basis(n):
    rows = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    return xl.SubspaceBasis(n, rows)


def pairing_of(n, source, target):
    """The :class:`~toricdef.exact_linalg.Pairing` of the vector ``n`` with
    the source rows, into the target rows."""
    rows = source.base.vectors
    return xl.pairing([sum(x * y for x, y in zip(n, a)) for a in rows], rows, target.base)


def contract(n, source, target):
    """Contraction by the vector ``n``: its pairing with the source rows."""
    return xl.contraction_matrix(pairing_of(n, source, target), source, target)


def test_contraction_known_values():
    b3 = _full_basis(3)
    two = xl.ExteriorBasis(b3, 2)
    one = xl.ExteriorBasis(b3, 1)
    # contract dx^dy, dx^dz, dy^dz with e1: gives dy, dz, 0
    m = contract((1, 0, 0), two, one)
    assert m.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


def test_contractions_anticommute():
    rng = random.Random(7)
    n = 4
    b = _full_basis(n)
    eb = {k: xl.ExteriorBasis(b, k) for k in range(4)}
    v = tuple(rng.randrange(-3, 4) for _ in range(n))
    w = tuple(rng.randrange(-3, 4) for _ in range(n))
    vw = xl._sparse_product(
        contract(v, eb[2], eb[1]), contract(w, eb[3], eb[2])
    )
    wv = xl._sparse_product(
        contract(w, eb[2], eb[1]), contract(v, eb[3], eb[2])
    )
    neg = xl.Matrix.from_dense([[-x for x in row] for row in wv.tolist()], wv.shape[1])
    assert vw == neg


def test_contraction_same_vector_squares_to_zero():
    b = _full_basis(4)
    eb = {k: xl.ExteriorBasis(b, k) for k in range(4)}
    v = (2, -1, 3, 5)
    sq = xl._sparse_product(
        contract(v, eb[2], eb[1]), contract(v, eb[3], eb[2])
    )
    assert not any(sq.rows)


def test_expansion_then_contraction_subspace():
    # a plane inside R^3 and its expansion into the full space
    plane = xl.SubspaceBasis(3, ((1, 0, 0), (0, 1, 0)))
    full = _full_basis(3)
    sub = xl.ExteriorBasis(plane, 1)
    amb = xl.ExteriorBasis(full, 1)
    e = xl.expansion_matrix(sub, amb)
    assert e.tolist() == [[1, 0], [0, 1], [0, 0]]


def test_subspace_basis_requires_echelon_rows():
    # dependent rows are never in echelon form, and independent rows out of
    # it are refused too
    for rows in (
        ((1, 0, 0), (2, 0, 0)), ((0, 1, 0), (0, 2, 0)), ((1, 1, 0), (0, 0, 0)),
        ((1, 2, 3), (0, 1, 1), (1, 3, 4)), ((0, 1, 0), (1, 0, 0)),
    ):
        with pytest.raises(ValueError, match="not in echelon form"):
            xl.SubspaceBasis(3, rows)
    assert xl.SubspaceBasis(3, ((1, 0, 0), (0, 2, 1))).dim == 2
    assert xl.SubspaceBasis(3, ()).dim == 0


# ---------------------------------------------------------------------------
# the integer kernel against sympy references of the textbook definitions
#
# The case builders and ``*_mismatch`` helpers use no ``assert``, so the
# ``python -O`` subprocess test below can run them unchanged.


def _exact(x):
    """A sympy number as the package represents it: int when integral."""
    x = sympy.Rational(x)
    return int(x) if x.q == 1 else Fraction(int(x.p), int(x.q))


def _sympy_rank(rows):
    return sympy.Matrix(rows).rank() if rows else 0


def _wedge_columns(vectors, k, m):
    """Coordinates in Wedge^k(Q^m) of the wedges of ``k`` of the vectors:
    one column per index subset, one row per ambient subset (sympy minors)."""
    amb = list(itertools.combinations(range(m), k))
    subsets = list(itertools.combinations(range(len(vectors)), k))
    out = sympy.zeros(len(amb), len(subsets))
    for c, js in enumerate(subsets):
        for r, cols in enumerate(amb):
            out[r, c] = sympy.Matrix(k, k, [vectors[j][col] for j in js for col in cols]).det() if k else 1
    return out


def _sympy_solve(a, b):
    """The unique X with A X = B (A of full column rank), or None."""
    if a.cols == 0:
        return sympy.zeros(0, b.cols) if b.is_zero_matrix else None
    try:
        x, params = a.gauss_jordan_solve(b)
    except ValueError:
        return None
    return x if not params else None


def _reference_contraction(n, source, target):
    """The old definition: contract in ambient wedge coordinates, then solve
    against the target's wedge coordinates."""
    m, k = source.base.ambient_dim, source.degree
    src = list(itertools.combinations(range(m), k))
    dst = {s: i for i, s in enumerate(itertools.combinations(range(m), k - 1))}
    amb = sympy.zeros(len(dst), len(src))
    for col, s in enumerate(src):
        for pos, idx in enumerate(s):
            amb[dst[s[:pos] + s[pos + 1:]], col] += (-1) ** pos * sympy.Rational(n[idx])
    image = amb * _wedge_columns(source.base.vectors, k, m)
    x = _sympy_solve(_wedge_columns(target.base.vectors, k - 1, m), image)
    return None if x is None else [[_exact(v) for v in x.row(r)] for r in range(x.rows)]


def _reference_expansion(source, target):
    m, k = source.base.ambient_dim, source.degree
    x = _sympy_solve(_wedge_columns(target.base.vectors, k, m), _wedge_columns(source.base.vectors, k, m))
    return None if x is None else [[_exact(v) for v in x.row(r)] for r in range(x.rows)]


def _independent_rows(rng, count, width, bound=3):
    while True:
        rows = _random_int_matrix(rng, count, width, bound)
        if _sympy_rank(rows) == count:
            return [tuple(r) for r in rows]


def _integral(rows):
    """Rational rows scaled to primitive integer rows."""
    out = []
    for r in rows:
        q = sympy.ilcm(1, *(sympy.Rational(x).q for x in r))
        out.append(xl.primitive_vector([int(sympy.Rational(x) * q) for x in r]))
    return out


def _present(rows, width):
    """The Hermite basis of the saturated lattice that the rational span of
    ``rows`` cuts out of ``Z^width``: the kernel of its annihilator."""
    return xl.integer_kernel_rows(xl.integer_kernel_rows(_integral(rows), width), width)


def _shuffled(rows):
    """A basis of the lattice of the integer ``rows``, out of echelon form:
    reversed, with the second row added twice to the first."""
    out = [list(r) for r in reversed(rows)]
    if len(out) > 1:
        out[0] = [x + 2 * y for x, y in zip(out[0], out[1])]
    return [tuple(r) for r in out]


def contraction_case(seed):
    """A seeded (n, source, target, reference) with the target spanning the
    kernel of n inside the source, one ambient space bigger, or (for
    ``seed % 7 == 6``) a different subspace that misses the image."""
    rng = random.Random(900 + seed)
    m = rng.randrange(3, 6)
    s = rng.randrange(2, m + 1)
    k = rng.randrange(1, s + 1)
    a = _independent_rows(rng, s, m)
    while True:
        n = [rng.randrange(-3, 4) for _ in range(m)]
        p = [sum(x * y for x, y in zip(n, r)) for r in a]
        if any(p):
            break
    if seed % 3 == 2:
        n = [rng.choice((2, 3)) * x for x in n]  # a pairing that is not a unit
    source = _present(a, m)
    ps = [sum(x * y for x, y in zip(n, r)) for r in source]
    kernel = [
        [sum(c[i] * sympy.Rational(source[i][j]) for i in range(s)) for j in range(m)]
        for c in sympy.Matrix([ps]).nullspace()
    ]
    if seed % 7 == 6:
        target = _independent_rows(rng, s - 1, m)
        if _sympy_rank(target + kernel) == s - 1:
            target = [tuple(1 if i == j else 0 for j in range(m)) for i in range(s - 1)]
        target = _present(target, m)
    elif seed % 5 == 4:
        target = [tuple(1 if i == j else 0 for j in range(m)) for i in range(m)]
    else:
        target = _present(kernel, m)
    src = xl.ExteriorBasis(xl.SubspaceBasis(m, source), k)
    dst = xl.ExteriorBasis(xl.SubspaceBasis(m, target), k - 1)
    return tuple(n), src, dst, _reference_contraction(n, src, dst)


def expansion_case(seed):
    """A seeded (source, target, reference): the source a subspace of the
    target, or (for ``seed % 5 == 4``) one that leaves it."""
    rng = random.Random(1900 + seed)
    m = rng.randrange(2, 6)
    t = rng.randrange(1, m + 1)
    b = _independent_rows(rng, t, m)
    s = rng.randrange(1, t + 1)
    if seed % 5 == 4 and t < m:
        a = _independent_rows(rng, s, m)
        while _sympy_rank(a + b) == t:
            a = _independent_rows(rng, s, m)
    else:
        while True:
            coeff = _random_int_matrix(rng, s, t, 2)
            a = [tuple(sum(c * r[j] for c, r in zip(row, b)) for j in range(m)) for row in coeff]
            if _sympy_rank(a) == s:
                break
    k = rng.randrange(0, s + 1)
    src = xl.ExteriorBasis(xl.SubspaceBasis(m, _present(a, m)), k)
    dst = xl.ExteriorBasis(xl.SubspaceBasis(m, _present(b, m)), k)
    return src, dst, _reference_expansion(src, dst)


def _block_mismatch(compute, expected):
    """None when ``compute()`` equals the reference (values and int/Fraction
    types) or raises NOT_CONTAINED exactly when there is none."""
    try:
        got = compute()
    except NotContained:
        return None if expected is None else "NotContained raised, reference exists"
    if expected is None:
        return f"expected NotContained, got {got.tolist()!r}"
    if repr(got.tolist()) != repr(expected):
        return f"{got.tolist()!r} != {expected!r}"
    return None


def contraction_mismatch(seed):
    n, src, dst, ref = contraction_case(seed)
    return _block_mismatch(lambda: contract(n, src, dst), ref)


def expansion_mismatch(seed):
    src, dst, ref = expansion_case(seed)
    return _block_mismatch(lambda: xl.expansion_matrix(src, dst), ref)


def det_mismatch(seed):
    rng = random.Random(2900 + seed)
    size = seed % 7
    rows = _random_int_matrix(rng, size, size, 9)
    if size > 1 and seed % 3 == 0:
        rows[-1] = list(rows[0])  # singular
    if size > 1 and seed % 4 == 1:
        rows[0][0] = 0  # a pivot search at the first step
    expected = int(sympy.Matrix(size, size, [x for r in rows for x in r]).det()) if size else 1
    got = xl.integer_det(rows)
    return None if got == expected else f"{rows}: {got} != {expected}"


def _reference_normal(mu_rows, tau_rows, orientation):
    """The old definition: the kernel of the coordinate matrix by sympy's
    nullspace, made primitive and oriented, lifted by a unit pairing and
    reduced modulo the smaller lattice."""
    tau = sympy.Matrix(tau_rows).T
    coords = [_sympy_solve(tau, sympy.Matrix(r)) for r in mu_rows]
    cm = sympy.Matrix([[c[i] for i in range(len(tau_rows))] for c in coords]) if coords else sympy.zeros(0, len(tau_rows))
    (kern,) = cm.nullspace()
    w = _integral([list(kern)])[0]
    if sum(x * _sympy_solve(tau, sympy.Matrix(orientation[0]))[i] for i, x in enumerate(w)) < 0:
        w = tuple(-x for x in w)
    y = solve_unit_pairing(w)
    lift = tuple(sum(y[i] * tau_rows[i][j] for i in range(len(tau_rows))) for j in range(len(tau_rows[0])))
    return reduce_mod_rows(lift, mu_rows)


def normal_mismatch(seed):
    """Every covering pair of a seeded random cone, once with the Hermite
    span of the bigger face and once with a non-echelon basis of it."""
    from conftest import random_cone

    from toricdef.polyhedral import face_lattice

    rng = random.Random(3900 + seed)
    cone = random_cone(rng, 3 + seed % 3)
    lat = face_lattice(cone)
    for faces in lat.faces_by_dim.values():
        for tau in faces:
            for mu in lat.covered_by(tau):
                orient = [cone.rays[i] for i in sorted(tau.ray_indices - mu.ray_indices)]
                ref = _reference_normal(mu.span_rows, tau.span_rows, orient)
                shuffled = _shuffled(tau.span_rows)
                for rows in (tau.span_rows, shuffled):
                    got = normal_generator(mu.span_rows, rows, orient)
                    if got != ref:
                        return f"{mu.key} < {tau.key}: {got} != {ref}"
    return None


@pytest.mark.parametrize("seed", range(21))
def test_contraction_matches_the_wedge_coordinate_definition(seed):
    assert contraction_mismatch(seed) is None


def test_contraction_cases_cover_every_branch():
    cases = [contraction_case(seed) for seed in range(21)]
    assert any(ref is None for *_, ref in cases)
    assert any(src.degree >= 2 and ref is not None for _, src, _, ref in cases)
    # a normal whose pairing with the source is not a unit
    assert any(gcd(*(sum(a * b for a, b in zip(n, v)) for v in src.base.vectors)) > 1 for n, src, _, _ in cases)
    # the top degree, whose one entry is one determinant, with a pivot that
    # is not a unit
    tops = [
        pairing_of(n, src, dst)
        for n, src, dst, ref in cases
        if ref is not None and src.degree == src.base.dim == dst.base.dim + 1
    ]
    assert any(abs(p.values[p.pivot]) != 1 for p in tops)


@pytest.mark.parametrize("seed", range(15))
def test_expansion_matches_the_wedge_coordinate_definition(seed):
    assert expansion_mismatch(seed) is None


@pytest.mark.parametrize("seed", range(21))
def test_integer_det_matches_sympy(seed):
    assert det_mismatch(seed) is None


def minors_mismatch(seed):
    """Every order of the compound minors of a seeded int matrix of up to
    6 x 6, on all its rows and on the rows without one, against
    :func:`integer_det` and sympy; seeds 0-2 are 6 x 6, every third seed
    has a zero row and every third a repeated row."""
    rng = random.Random(4900 + seed)
    m, n = (6, 6) if seed < 3 else (rng.randrange(1, 7), rng.randrange(1, 7))
    rows = _random_int_matrix(rng, m, n, 9)
    if m > 1 and seed % 3 == 0:
        rows[rng.randrange(m)] = [0] * n
    if m > 2 and seed % 3 == 1:
        rows[-1] = list(rows[rng.randrange(m - 1)])
    skip = rng.randrange(m)
    for order in range(min(m, n) + 1):
        cols = list(itertools.combinations(range(n), order))
        for pick in (range(m), [r for r in range(m) if r != skip]):
            table = xl._compound_minors(rows, pick, n, order)
            if set(table) != set(itertools.combinations(pick, order)):
                return f"order {order}: row sets {sorted(table)}"
            for rs, vals in table.items():
                if len(vals) != len(cols):
                    return f"order {order}: {len(vals)} minors for {len(cols)} column sets"
                for cs, got in zip(cols, vals):
                    sub = [[rows[r][c] for c in cs] for r in rs]
                    det = int(sympy.Matrix(sub).det()) if order else 1
                    if not got == xl.integer_det(sub) == det:
                        return f"{rows} at {rs} x {cs}: {got} != {det}"
    return None


@pytest.mark.parametrize("seed", range(9))
def test_compound_minors_match_integer_det_and_sympy(seed):
    assert minors_mismatch(seed) is None


def _package_caches():
    """Every functools cache of the package's modules."""
    mods = [m for name, m in sys.modules.items() if name == "toricdef" or name.startswith("toricdef.")]
    return [v for m in mods for v in vars(m).values() if callable(getattr(v, "cache_clear", None))]


def test_laplace_tables_are_built_once_per_shape():
    """The Laplace terms of :func:`_compound_minors` are cached per
    ``(ncols, order)``; the minors are the same before and after every
    cache of the package is cleared, and the tables are rebuilt equal."""
    assert xl._laplace_terms in _package_caches()
    rows = _random_int_matrix(random.Random(4950), 5, 6, 9)
    before = [xl._compound_minors(rows, range(5), 6, order) for order in range(6)]
    terms = {order: xl._laplace_terms(6, order) for order in range(1, 6)}
    assert all(xl._laplace_terms(6, order) is t for order, t in terms.items())
    assert [len(t) for t in terms.values()] == [6, 15, 20, 15, 6]
    for cache in _package_caches():
        cache.cache_clear()
    assert xl._laplace_terms.cache_info().currsize == 0
    assert [xl._compound_minors(rows, range(5), 6, order) for order in range(6)] == before
    assert all(xl._laplace_terms(6, order) == t for order, t in terms.items())


@pytest.mark.parametrize("seed", range(6))
def test_normal_generator_matches_sympy_nullspace(seed):
    assert normal_mismatch(seed) is None


def lattice_mismatches():
    """The blocks whose target lattice holds the source only rationally must
    raise NOT_CONTAINED, with a message that names the lattice: the
    expansion of span(e1) into the lattice of (2, 0, 0), and the
    contraction of e1 ^ e2 by e1 into the lattice of (0, 2, 0), which holds
    the row e2 of the pairing only rationally.  Returns the failures."""
    line = xl.ExteriorBasis(xl.SubspaceBasis(3, ((1, 0, 0),)), 1)
    doubled = xl.ExteriorBasis(xl.SubspaceBasis(3, ((2, 0, 0),)), 1)
    plane = xl.ExteriorBasis(xl.SubspaceBasis(3, ((1, 0, 0), (0, 1, 0))), 2)
    target = xl.ExteriorBasis(xl.SubspaceBasis(3, ((0, 2, 0),)), 1)
    cases = {
        "expansion": lambda: xl.expansion_matrix(line, doubled),
        "contraction": lambda: contract((1, 0, 0), plane, target),
    }
    out = []
    for name, compute in cases.items():
        try:
            got = compute()
        except NotContained as exc:
            if "lattice" not in str(exc):
                out.append(f"{name}: {exc}")
        else:
            out.append(f"{name}: {got.tolist()!r}")
    return out


def test_contraction_leaving_the_target_is_not_contained():
    b = xl.SubspaceBasis(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # contraction by e1 lands in span(e2, e3), which span(e1, e2) misses
    target = xl.ExteriorBasis(xl.SubspaceBasis(3, ((1, 0, 0), (0, 1, 0))), 1)
    with pytest.raises(NotContained):
        contract((1, 0, 0), xl.ExteriorBasis(b, 2), target)
    with pytest.raises(NotContained):
        xl.expansion_matrix(xl.ExteriorBasis(b, 1), target)
    assert lattice_mismatches() == []


def test_coordinates_by_back_substitution():
    basis = [(2, 1, 0), (0, 3, 1)]
    assert xl.coordinates(basis, [(2, 4, 1), (1, 2, Fraction(1, 2))]) == [[1, 1], [Fraction(1, 2), Fraction(1, 2)]]
    assert xl.coordinates(basis, [(0, 0, 1)]) is None
    with pytest.raises(ValueError, match="not in echelon form"):
        xl.coordinates(list(reversed(basis)), [(2, 4, 1)])


def test_solves_in_a_basis_read_its_pivots(monkeypatch):
    """A :class:`SubspaceBasis` finds its pivots once, when it is made;
    coordinates along them, pairings into it and expansions into it do
    not look for them again."""
    plane = xl.SubspaceBasis(3, [(2, 1, 0), (0, 3, 1)])
    line = xl.SubspaceBasis(3, [(2, 4, 1)])
    assert plane.pivots == (0, 1) and line.pivots == (0,) and xl.SubspaceBasis(3, ()).pivots == ()
    assert plane == xl.SubspaceBasis(3, ((2, 1, 0), (0, 3, 1))) and "pivots" not in repr(plane)
    calls = []
    monkeypatch.setattr(xl, "_echelon_pivots", lambda rows: calls.append(rows))
    vectors = [(2, 4, 1), (1, 2, Fraction(1, 2))]
    got = xl._coordinates(plane.vectors, plane.pivots, vectors)
    assert got == [[1, 1], [Fraction(1, 2), Fraction(1, 2)]]
    assert xl.pairing((1, 1), line.vectors + ((4, 5, 1),), plane).coords == [[0, 0], [1, 0]]
    assert xl.expansion_matrix(xl.ExteriorBasis(line, 1), xl.ExteriorBasis(plane, 1)).tolist() == [[1], [1]]
    assert calls == []


_OPTIMIZED_RUN = """
import sys
sys.path[:0] = [{tests!r}]
import test_exact_linalg as t
from toricdef import InvariantViolation, assemble_complex, fan_from_cones, support_data
from toricdef import exact_linalg as xl

if __debug__:
    sys.exit("not running under -O")
for check, seeds in ((t.contraction_mismatch, range(21)), (t.expansion_mismatch, range(15)),
                     (t.det_mismatch, range(21)), (t.minors_mismatch, range(9)),
                     (t.normal_mismatch, range(3))):
    for seed in seeds:
        problem = check(seed)
        if problem is not None:
            sys.exit(f"{{check.__name__}}({{seed}}): {{problem}}")
# blocks into a lattice that holds the source only rationally
if t.lattice_mismatches():
    sys.exit(f"lattice_mismatches: {{t.lattice_mismatches()}}")
# a 2x1 block between blocks of sizes 1 and 1, and a block naming a key
# that has no block, are broken invariants, met where the cell H^0 first
# reads the differential they are in
base = xl.ExteriorBasis(xl.SubspaceBasis(1, ((1,),)), 1)
layers = [[("a", base)], [("b", base)]]
for block in (("a", "b", xl.Matrix([{{}}] * 2, 1)), ("a", "c", xl.Matrix([{{}}], 1))):
    cx = assemble_complex("bad", layers, lambda k, block=block: [block])
    try:
        cx.h(0)
    except InvariantViolation as exc:
        print(exc.ident, exc.exit_code)
# a kernel elimination that leaves a row nonzero on a pivot column, and one
# that moves a row off the kernel
pivot = xl._gcd_pivot


def shifted(live, col):
    row = pivot(live, col)
    for r in live:
        if r is not row:
            r[-1] += 1
    return row


for corrupted in (lambda live, col: live[0], shifted):
    xl._gcd_pivot = corrupted
    try:
        xl.integer_kernel_rows([[1, 1]], 2)
    except InvariantViolation as exc:
        print(exc.ident, exc.exit_code)
xl._gcd_pivot = pivot
# hat annihilator rows whose last coordinates are all 0
fan = fan_from_cones(((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (2, 0)), 2)
kernel = xl.integer_kernel_rows
xl.integer_kernel_rows = lambda rows, width: [r[:-1] + (0,) for r in kernel(rows, width)]
try:
    support_data(fan, (0, 0, 1))
except InvariantViolation as exc:
    print(exc.ident, exc.exit_code)
xl.integer_kernel_rows = kernel
# through the CLI on a fan: a pair functional from facet normals turned
# around (the pair of the 1-dimensional cone takes that path), one that is
# nonzero on the common face (the pair of a 2-dimensional cone sharing a
# ray with a 3-dimensional one), a wall certificate of the complete P^2
# turned around, and a wall candidate of the pair loop turned around (two
# quadrants sharing a ray, a fan that is not complete)
import io
from toricdef import cli, polyhedral

def fan_command(doc):
    sys.stdin = io.StringIO(doc)
    try:
        cli.run(["ishida", "-"])
    except InvariantViolation as exc:
        print(exc.ident, exc.exit_code)

with_ray = "rank: 2\\nrays:\\n  1 0\\n  0 1\\n  -1 -1\\ncones:\\n  0 1\\n  2\\n"
with_plane = "rank: 3\\nrays:\\n  1 0 0\\n  0 1 0\\n  0 0 1\\n  0 -1 -1\\ncones:\\n  0 1 2\\n  0 3\\n"
pair_functional = polyhedral._pair_functional
polyhedral._pair_functional = lambda *a: tuple(-x for x in pair_functional(*a))
fan_command(with_ray)
polyhedral._pair_functional = lambda *a: tuple(x + (i == 0) for i, x in enumerate(pair_functional(*a)))
fan_command(with_plane)
polyhedral._pair_functional = pair_functional
wall_functional = polyhedral._wall_functional
polyhedral._wall_functional = lambda *a: tuple(-x for x in wall_functional(*a))
fan_command("rank: 2\\nrays:\\n  1 0\\n  0 1\\n  -1 -1\\ncones:\\n  0 1\\n  1 2\\n  2 0\\n")
polyhedral._wall_functional = wall_functional
separating = polyhedral._separating_functional
polyhedral._separating_functional = lambda *a: tuple(-x for x in separating(*a))
fan_command("rank: 2\\nrays:\\n  1 0\\n  0 1\\n  -1 0\\ncones:\\n  0 1\\n  1 2\\n")
polyhedral._separating_functional = separating
# a star quotient with a wrong inverse of its change of coordinates, one
# whose completion of rho is not unimodular (a row of U that vanishes on rho
# doubled), and one whose facet annihilator gives a hat row that misses a
# ray of the facet
from toricdef import cone_from_rays, face_lattice, star_quotient

square = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
inverse = polyhedral._unimodular_inverse
polyhedral._unimodular_inverse = lambda t: [r[:-1] + (r[-1] + 1,) for r in inverse(t)]
try:
    star_quotient(cone_from_rays(square, 3), (0, 0, 1))
except InvariantViolation as exc:
    print(exc.ident, exc.exit_code)
polyhedral._unimodular_inverse = inverse
unit_column = xl._unit_column
xl._unit_column = lambda rho: [[2 * x for x in r] if i == 1 else r for i, r in enumerate(unit_column(rho))]
try:
    star_quotient(cone_from_rays(square, 3), (0, 0, 1))
except InvariantViolation as exc:
    print(exc.ident, exc.exit_code)
xl._unit_column = unit_column
cone = cone_from_rays(square, 3)
lat = face_lattice(cone)
facet, *rest = lat.faces_by_dim[2]
((a, *b),) = facet.perp_rows
lat.faces_by_dim[2] = (polyhedral.Face(facet.ray_indices, 2, ((a + 1, *b),)), *rest)
try:
    star_quotient(cone, (0, 0, 1))
except InvariantViolation as exc:
    print(exc.ident, exc.exit_code)
# facet normals of the double description moved off their facets
minor_normal = polyhedral._minor_normal
polyhedral._minor_normal = lambda rows, d: tuple(x + (i == 0) for i, x in enumerate(minor_normal(rows, d)))
try:
    cone_from_rays(square, 3)
except InvariantViolation as exc:
    print(exc.ident, exc.exit_code)
polyhedral._minor_normal = minor_normal
# level-0 complexes that read no cohomology, met by the variety's face scan
from toricdef import ishida, lcdef_variety

h = ishida.LabeledComplex.h
ishida.LabeledComplex.h = lambda cx, i: 0 if cx.label == "cone level 0" else h(cx, i)
try:
    lcdef_variety(cone_from_rays(t.A_RAYS, 4))
except InvariantViolation as exc:
    print(exc.ident, exc.exit_code)
ishida.LabeledComplex.h = h
# a pyramid over a base face whose annihilator row is moved off it: the rows
# of the face's join with the apex, read off that row, miss the face's rays
from toricdef import pyramid

cone = cone_from_rays(square, 3)
lat = face_lattice(cone)
ray, *rest = lat.faces_by_dim[1]
((a, *b), *others) = ray.perp_rows
lat.faces_by_dim[1] = (polyhedral.Face(ray.ray_indices, 1, ((a + 1, *b), *others)), *rest)
try:
    face_lattice(pyramid(cone, (0, 0, 1, 1)))
except InvariantViolation as exc:
    print(exc.ident, exc.exit_code)
# top-degree contraction blocks whose determinants are off by one, met
# where the cell H^1 of level 3 reads the two differentials they are in
from toricdef import NotAComplex, ishida_cone

cone = cone_from_rays(square, 3)
face_lattice(cone)
det = xl.integer_det
xl.integer_det = lambda m: det(m) + 1
try:
    ishida_cone(cone, 3).h(1)
except NotAComplex as exc:
    print(exc.ident, exc.exit_code)
xl.integer_det = det
"""


def test_kernel_and_invariants_under_python_O():
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(tests).parent / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_RUN.format(tests=tests)],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["INVARIANT_VIOLATION", "20"] * 15 + ["NOT_A_COMPLEX", "13"]


_CORRUPTED_PROJECTION_RUN = """
import dataclasses
import sys

from toricdef import InvariantViolation, fan_from_cones, lifted_complex, support_data
from toricdef.exact_linalg import Matrix
from toricdef.lefschetz import _verify_ses

if __debug__:
    sys.exit("not running under -O")
fan = fan_from_cones([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], 2)
L = lifted_complex(fan, support_data(fan, [1, 0, 0]), 1)
project = list(L.project)
m = next(i for i, p in enumerate(project) if any(p.rows))
dense = project[m].tolist()
r, c = next((r, c) for r, row in enumerate(dense) for c, x in enumerate(row) if x)
dense[r][c] += 1
project[m] = Matrix.from_dense(dense, project[m].ncols)
try:
    _verify_ses(dataclasses.replace(L, project=tuple(project)))
except InvariantViolation as exc:
    print(exc.ident, exc.exit_code)
"""


def test_corrupted_projection_fails_under_python_O():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_PROJECTION_RUN],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["INVARIANT_VIOLATION", "20"]


_FLIPPED_BLOCK_RUN = """
import sys

from toricdef import NotAComplex, cone_from_rays, ishida_cone
from toricdef import exact_linalg as xl

if __debug__:
    sys.exit("not running under -O")
contraction = xl.contraction_matrix
calls = []


def flipped(pairing, source, target):
    block = contraction(pairing, source, target)
    calls.append(pairing)
    if len(calls) > 1:
        return block
    return xl.Matrix([{j: -x for j, x in row.items()} for row in block.rows], block.ncols)


xl.contraction_matrix = flipped
try:
    # the cell H^1 reads both differentials: the first one built, d_1, has
    # the flipped block, and squaring it with d_0 fails
    ishida_cone(cone_from_rays(((1, 0), (0, 1)), 2), 2).h(1)
except NotAComplex as exc:
    print(exc.ident, exc.exit_code)
"""


def test_flipped_block_fails_under_python_O():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _FLIPPED_BLOCK_RUN],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["NOT_A_COMPLEX", "13"]


_FLIPPED_SCAN_BLOCK_RUN = """
import sys
sys.path[:0] = [{tests!r}]
from conftest import cyclic_rays
from toricdef import NotAComplex, cone_from_rays, lcdef_variety
from toricdef import exact_linalg as xl

if __debug__:
    sys.exit("not running under -O")
contraction = xl.contraction_matrix
calls = []


def flipped(pairing, source, target):
    block = contraction(pairing, source, target)
    calls.append(pairing)
    if len(calls) > 1:
        return block
    return xl.Matrix([{{j: -x for j, x in row.items()}} for row in block.rows], block.ncols)


# the scan reads one cell of the cone over the cyclic polytope (6, 9), (5, 4):
# the first block built is in d_4 of level 5, and squaring it with d_3 fails
xl.contraction_matrix = flipped
try:
    lcdef_variety(cone_from_rays(cyclic_rays(range(9), 6), 6))
except NotAComplex as exc:
    print(exc.ident, exc.exit_code, len(calls))
"""


def test_flipped_block_read_by_the_scan_fails_under_python_O():
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(tests).parent / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _FLIPPED_SCAN_BLOCK_RUN.format(tests=tests)],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["NOT_A_COMPLEX", "13", "450"]


_CORRUPTED_QUOTIENT_RUN = """
import sys

from toricdef.cli import main
from toricdef.polyhedral import Fan

if __debug__:
    sys.exit("not running under -O")
# star_quotient checks that the quotient fan of an interior ray is complete
Fan.is_complete = lambda self: False
sys.argv = ["toricdef", "subdivide", "-"]
main()
"""


def test_corrupted_quotient_check_fails_under_python_O():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    doc = "rank: 3\nrays:\n  1 0 1\n  0 1 1\n  -1 0 1\n  0 -1 1\ninterior_ray: 0 0 1\n"
    run = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_QUOTIENT_RUN],
        input=doc, capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert run.returncode == 20, run.stderr
    assert run.stderr.startswith("INVARIANT_VIOLATION")
