"""Exact linear algebra over Q and over integer lattices.

A matrix is a :class:`Matrix`: one ``{column: entry}`` dict of nonzeros
per row, whose entries are Python ints or ``fractions.Fraction``, and the
number of columns.  The differentials of face complexes are a few percent
nonzero, so the whole package, from the contraction blocks to the
connecting maps, keeps its matrices in that form: :func:`_write_block`
puts a block into such rows, for the differentials and the chain maps
alike; :func:`_sparse_product` is their one product (the ``d^2 = 0`` check
among its uses), beside the dense :func:`_mul` of the star quotient's basis
change.  The lattice kernel runs on plain ``int`` lists: Hermite forms,
integer kernels by one unimodular row elimination, the unimodular
completion of a primitive column by the Euclidean algorithm, coordinates
by back-substitution in echelon bases (one exact ``divmod`` per pivot),
and Bareiss determinants.  Rows whose entries are all ``int`` go in as
they are; only numpy or ``Fraction`` entries pass through :func:`_as_int`.
One fraction-free elimination
(:func:`_eliminate`) is behind :func:`rank_and_kernel`,
:func:`solve_matrix`, :func:`matrix_rank` and :func:`pivot_columns`.  A
rational matrix enters it with each row scaled by its common denominator,
which changes neither the row space nor the pivots, and an entry is
divided by its pivot only when a reduced form, kernel or solution is
written out.
Contraction and expansion blocks are compound minors, each order built from
the one below by Laplace expansion (:func:`_compound_minors`, whose term
tables :func:`_laplace_terms` builds once per shape), except a contraction
block at the top degree: it is 1 x 1, and its entry is one Bareiss
determinant.  The bases of exterior powers are Hermite bases of saturated
lattices, in which a vector of the lattice has int coordinates; a block
whose target lattice misses its source (even one in its rational span)
raises NOT_CONTAINED.  A :class:`SubspaceBasis` finds its pivots once, when
it is validated, and keeps them: the face posets hold one per face, and
every pairing and expansion into it solves along those pivots.  A
contraction is given by a :class:`Pairing`: the pairings of the contracting
vector with the source rows, which are all of the vector that the block
sees, and the int coordinates that every exterior degree shares.
``Fraction`` remains only at the boundary: in rational matrices given to
the elimination and in the kernels and solutions it writes out, and in the
coordinates that :func:`coordinates` gives a vector outside the lattice,
such as a rational vector that a caller passes.  Nothing here ever
touches floating point; determinism and exactness are the whole point.

Conventions
-----------
* A "rational matrix" has int/Fraction entries, an "integer matrix" has
  int entries only.  Vectors are plain tuples of ints/Fractions.
* Lattice bases are stored as *rows*.  ``hermite_rows`` fixes a canonical
  basis (row Hermite normal form, positive pivots, entries above a pivot
  reduced into ``[0, pivot)``), so two computations of the same lattice
  produce identical data.
* Kernels returned by :func:`rank_and_kernel` are *columns*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import comb, gcd, lcm
from operator import index, mul
from typing import NamedTuple

from .errors import InvariantViolation, NotContained, ZeroVector


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class Matrix:
    """An exact matrix: ``rows`` holds one ``{column: entry}`` dict of the
    nonzero entries of each row, ``ncols`` the number of columns, which a
    matrix with no rows keeps.  Two matrices are equal when their shapes
    and entries are.  Nothing in the package changes a matrix's rows after
    it is made."""

    rows: tuple[dict, ...]
    ncols: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    @classmethod
    def from_dense(cls, rows, ncols: int) -> Matrix:
        """The matrix with the given rows of ``ncols`` entries each."""
        rows = [list(r) for r in rows]
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls([{j: x for j, x in enumerate(r) if x} for r in rows], ncols)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.ncols

    def tolist(self) -> list[list]:
        """The rows as lists of all their entries, zeros included."""
        return [[row.get(j, 0) for j in range(self.ncols)] for row in self.rows]


def _as_int(x) -> int:
    """An integral entry as an int: an integral Fraction, or anything with
    ``__index__``."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"not an integer entry: {x!r}") from None


def _write_block(rows: list[dict], r0: int, c0: int, m: Matrix, scale=1) -> None:
    """Write the nonzeros of ``scale * m``, which must be integers, into the
    ``{column: entry}`` rows with its top left corner at ``(r0, c0)``."""
    for r, row in enumerate(m.rows, start=r0):
        out = rows[r]
        for c, v in row.items():
            v *= scale
            out[c0 + c] = v if type(v) is int else _as_int(v)


def _sparse_product(a: Matrix, b: Matrix) -> Matrix:
    """The product ``a b``: row ``k`` of ``b`` is scaled by the entry in
    column ``k`` of each row of ``a``.  Entries that cancel are dropped."""
    if a.ncols != len(b.rows):
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    brows = b.rows
    out = []
    for arow in a.rows:
        acc: dict = {}
        for k, x in arow.items():
            for j, y in brows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: z for j, z in acc.items() if z})
    return Matrix(out, b.ncols)


# ---------------------------------------------------------------------------
# elimination over Q, on sparse int rows


def _int_rows(rows) -> list[dict[int, int]]:
    """Sparse rows of a rational matrix with int entries, each row scaled by
    the least common denominator of its entries.  Scaling a row by a
    nonzero number changes neither the row space nor the pivot columns."""
    out = []
    for row in rows:
        if not all(type(x) is int for x in row.values()):
            row = {j: x if isinstance(x, (int, Fraction)) else Fraction(x) for j, x in row.items()}
            scale = lcm(1, *(x.denominator for x in row.values()))
            row = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        out.append(row)
    return out


def _combine(row: dict, prow: dict, col: int) -> dict:
    """``a * row - b * prow`` with ``a``, ``b`` coprime, so that column
    ``col`` cancels, divided by the gcd of its entries."""
    v, p = row[col], prow[col]
    g = gcd(v, p)
    a, b = p // g, v // g
    new = dict(row) if a == 1 else {j: a * x for j, x in row.items()}
    for j, y in prow.items():
        z = new.get(j, 0) - b * y
        if z:
            new[j] = z
        else:
            del new[j]
    h = gcd(*new.values())
    if h > 1:
        new = {j: x // h for j, x in new.items()}
    return new


def _eliminate(rows: list[dict[int, int]], ncols: int, jordan: bool) -> tuple[list[int], list[dict]]:
    """Fraction-free elimination of sparse int ``rows`` over the first
    ``ncols`` columns.  Returns the pivot columns and the reduced rows: row
    ``k`` has its leading entry at the ``k``-th pivot column, and the rows
    after the last pivot row are the nonzero rows left with no entry in the
    first ``ncols`` columns.

    Columns are taken in order.  Each row waits in the bucket of its leading
    column; at a column, the waiting row with the fewest nonzeros, then the
    smallest entry there, becomes the pivot row, and every other waiting row
    is combined with it as ``a * row - b * pivot_row`` (``a``, ``b``
    coprime) and divided by the gcd of its entries, which keeps entries near
    the size of the inputs.  With ``jordan`` the entries above each pivot
    are then cleared from the last pivot up, so dividing each pivot row by
    its pivot gives the reduced row echelon form; without it only the pivot
    columns are wanted.  The pivot columns are the columns independent of
    those before them, and the reduced form is unique, so neither depends on
    which waiting row is chosen.
    """
    buckets: dict[int, list[dict]] = {}
    rest: list[dict] = []

    def place(row):
        if row:
            lead = min(row)
            if lead < ncols:
                buckets.setdefault(lead, []).append(row)
            else:
                rest.append(row)

    for row in rows:
        place(row)
    pivots: list[int] = []
    prows: list[dict] = []
    for col in range(ncols):
        if not buckets:
            break
        wait = buckets.pop(col, None)
        if wait is None:
            continue
        prow = min(wait, key=lambda r: (len(r), abs(r[col])))
        for row in wait:
            if row is not prow:
                place(_combine(row, prow, col))
        pivots.append(col)
        prows.append(prow)
    if jordan:
        for k in range(len(pivots) - 1, 0, -1):
            col, prow = pivots[k], prows[k]
            for i in range(k):
                if col in prows[i]:
                    prows[i] = _combine(prows[i], prow, col)
    return pivots, prows + rest


def pivot_columns(m: Matrix) -> list[int]:
    """Pivot columns of ``m`` over Q: each column that is independent of
    the columns before it."""
    return _eliminate(_int_rows(m.rows), m.ncols, False)[0]


def rank_and_kernel(m: Matrix) -> tuple[int, Matrix]:
    """Rank and a basis (as columns) of the right kernel, over Q.

    The kernel basis is the standard one read off the reduced echelon form:
    one column per free variable, with substituted pivot entries.  This makes
    the output canonical for a given input matrix.
    """
    ncols = m.ncols
    pivots, rows = _eliminate(_int_rows(m.rows), ncols, True)
    taken = set(pivots)
    free = {c: j for j, c in enumerate(c for c in range(ncols) if c not in taken)}
    kern = [{free[c]: 1} if c in free else {} for c in range(ncols)]
    for row, pc in zip(rows, pivots):
        p = row[pc]
        kern[pc] = {free[c]: _div(-x, p) for c, x in row.items() if c != pc}
    return len(pivots), Matrix(kern, len(free))


def solve_matrix(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of A X = B, or None if the system is insolvable.

    The solution is the one read off the reduced echelon form of ``[A | B]``:
    free variables are zero.
    """
    if len(a.rows) != len(b.rows):
        raise ValueError("shape mismatch in solve")
    n = a.ncols
    aug = [ra | {n + j: x for j, x in rb.items()} for ra, rb in zip(a.rows, b.rows)]
    pivots, rows = _eliminate(_int_rows(aug), n, True)
    if len(rows) > len(pivots):
        return None
    x = [{}] * n
    for row, pc in zip(rows, pivots):
        p = row[pc]
        x[pc] = {j - n: _div(v, p) for j, v in row.items() if j >= n}
    return Matrix(x, b.ncols)


def matrix_rank(m: Matrix) -> int:
    """Exact rank over Q, by fraction-free elimination of the transpose,
    which has the same rank."""
    cols: list[dict] = [{} for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for j, x in row.items():
            cols[j][i] = x
    return len(_eliminate(_int_rows(cols), len(m.rows), False)[0])


# ---------------------------------------------------------------------------
# integer lattice computations


def _mul(x: list[list], y: list[list], ncols: int) -> list[list]:
    """Product of two list matrices; ``ncols`` is the width of ``y``."""
    cols = [[row[j] for row in y] for j in range(ncols)]
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def _unit_column(rho) -> list[list[int]]:
    """A unimodular ``U`` with ``U rho = (1, 0, ..., 0)`` for a primitive
    integer vector ``rho``, by the Euclidean algorithm on the column: the
    least nonzero entry (the first of equal ones) is moved to the top, the
    others are reduced by floor division, and this repeats until they are
    zero; then the top is made positive.  ``U`` is the product of the row
    operations, applied to the identity alongside."""
    col = list(rho)
    n = len(col)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        p = min((abs(x), i) for i, x in enumerate(col) if x)[1]
        col[0], col[p], u[0], u[p] = col[p], col[0], u[p], u[0]
        for i in range(1, n):
            q = col[i] // col[0]
            if q:
                col[i] -= q * col[0]
                u[i] = [x - q * y for x, y in zip(u[i], u[0])]
        if not any(col[1:]):
            break
    if col[0] < 0:
        u[0] = [-x for x in u[0]]
    return u


def _gcd_pivot(live: list[list[int]], col: int) -> list[int]:
    """Reduce the rows of ``live``, all nonzero at ``col``, in place by
    integer row operations (the Euclidean algorithm on that column) until
    one is nonzero there; return it.  The operations are unimodular."""
    while len(live) > 1:
        live.sort(key=lambda r: abs(r[col]))
        small = live[0]
        for r in live[1:]:
            q = r[col] // small[col]
            r[:] = [x - q * y for x, y in zip(r, small)]
        live = [r for r in live if r[col] != 0]
    return live[0]


def hermite_rows(rows, width: int) -> list[tuple[int, ...]]:
    """Canonical row Hermite basis of the lattice generated by ``rows``."""
    work = [list(r) if all(type(x) is int for x in r) else list(map(_as_int, r)) for r in rows]
    basis: list[list[int]] = []
    for col in range(width):
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        pivot_row = _gcd_pivot(live, col)
        work = [r for r in work if r is not pivot_row and any(r)]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        for b in basis:
            if b[col]:
                q = b[col] // pivot_row[col]
                for k in range(width):
                    b[k] -= q * pivot_row[k]
        basis.append(list(pivot_row))
    return [tuple(r) for r in basis]


def integer_kernel_rows(rows, width: int) -> list[tuple[int, ...]]:
    """Canonical basis of the saturated lattice {x in Z^width : A x = 0},
    ``A`` having the integer ``rows`` (Cohen, *A Course in Computational
    Algebraic Number Theory*, 2.4.3).

    One unimodular row elimination of the ``width x (m + width)`` matrix
    ``[A^T | I]``, by :func:`_gcd_pivot` on the left ``m`` columns, turns it
    into ``[H | U]`` with ``U`` unimodular, ``U A^T = H`` and ``H`` in echelon
    form.  The rows of ``U`` beside the zero rows of ``H`` are a Z-basis of
    the kernel: they lie in it, and an integer ``x`` with ``x^T A^T = 0`` is
    ``y^T U`` for an integer ``y`` (``U`` is unimodular) with ``y^T H = 0``,
    so ``y`` vanishes on the independent nonzero rows of ``H``.  Being part
    of a basis of ``Z^width``, they span a saturated lattice.  The result is
    their Hermite basis.  Checked: the left part of every row outside the
    pivots is zero, and ``A k = 0`` for every returned ``k``.
    """
    a = [r if all(type(x) is int for x in r) else [_as_int(x) for x in r] for r in map(tuple, rows)]
    m = len(a)
    work = [[row[j] for row in a] + [int(i == j) for i in range(width)] for j in range(width)]
    for col in range(m):
        live = [r for r in work if r[col] != 0]
        if live:
            pivot_row = _gcd_pivot(live, col)
            work = [r for r in work if r is not pivot_row]
    if any(r[i] for r in work for i in range(m)):
        raise InvariantViolation("integer kernel: a row outside the pivots has a nonzero left part")
    kernel = hermite_rows([r[m:] for r in work], width)
    if any(sum(map(mul, row, k)) for row in a for k in kernel):
        raise InvariantViolation("integer kernel: a basis row is not in the kernel")
    return kernel


def primitive_vector(v) -> tuple[int, ...]:
    """Divide an integer vector, any iterable of integral entries, by the
    gcd of its entries; ZERO_VECTOR for the zero or empty vector."""
    w = list(v)
    if not all(type(x) is int for x in w):
        w = [_as_int(x) for x in w]
    g = gcd(*w)
    if g == 0:
        raise ZeroVector("cannot primitivize the zero vector")
    return tuple(x // g for x in w)


# ---------------------------------------------------------------------------
# coordinates and determinants on int lists


def _pivot(row) -> int | None:
    return next((i for i, x in enumerate(row) if x != 0), None)


def _echelon_pivots(rows) -> list[int] | None:
    """The pivot (first nonzero entry) of each row, or None unless each
    starts strictly right of the one before.  Hermite bases do."""
    pivots = [_pivot(row) for row in rows]
    if None in pivots or any(a >= b for a, b in zip(pivots, pivots[1:])):
        return None
    return pivots


def _div(a: int, b: int):
    """Exact ``a / b`` of ints: an int when it divides, else a Fraction."""
    q, r = divmod(a, b)
    return q if r == 0 else Fraction(a, b)


def coordinates(basis_rows, vectors) -> list[list] | None:
    """Coordinates of each vector in the echelon ``basis_rows``, or None
    when some vector leaves their span; ValueError when the rows are not in
    echelon form.  A :class:`SubspaceBasis` has its pivots already, and the
    blocks and pairings built on one solve by :func:`_coordinates` with
    them, so its rows are not scanned for their pivots again."""
    basis = [tuple(r) for r in basis_rows]
    pivots = _echelon_pivots(basis)
    if pivots is None:
        raise ValueError("basis rows are not in echelon form")
    return _coordinates(basis, pivots, vectors)


def _coordinates(basis, pivots, vectors) -> list[list] | None:
    """:func:`coordinates` in the echelon rows ``basis`` with the given
    ``pivots``, the column of each row's first nonzero entry.

    The solve is back-substitution along the pivots: at the pivot of row
    ``i`` every later row is zero, so the coefficient of row ``i`` is the
    remaining entry there over the pivot.  Each such quotient is one
    ``divmod``, exact in ints (and int-valued when the entries are
    Fractions) whenever the pivot divides; only a remainder makes it a
    Fraction, from which the rest of that vector is rational.  So int
    vectors in a Hermite basis of a lattice that contains them get int
    coordinates with no rational arithmetic, and an int vector of the
    lattice's rational span but not of the lattice gets a Fraction.
    """
    out = []
    for v in vectors:
        w = list(v)
        coords = []
        for row, c in zip(basis, pivots):
            x, q = w[c], 0
            if x:
                q, r = divmod(x, row[c])
                if r:
                    q = Fraction(x) / row[c]
                w = [a - q * b for a, b in zip(w, row)]
            coords.append(q)
        if any(w):
            return None
        out.append(coords)
    return out


def integer_det(mat) -> int:
    """Determinant of a square int matrix by fraction-free elimination
    (Bareiss 1968): every division in the update is exact."""
    m = [list(r) for r in mat]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk, rk = m[k][k], m[k]
        for i in range(k + 1, n):
            ri = m[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pk * ri[j] - f * rk[j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# subspaces and exterior powers


@dataclass(frozen=True)
class SubspaceBasis:
    """An ordered list of vectors in Q^ambient_dim in echelon form: each
    starts strictly right of the one before, as the rows of a Hermite basis
    do, so they are independent.  Raises ValueError otherwise.

    ``pivots`` keeps the column of each vector's first nonzero entry, found
    once when the basis is validated; every coordinate solve in the basis
    (:func:`pairing`, :func:`expansion_matrix`) reads them from here."""

    ambient_dim: int
    vectors: tuple[tuple, ...]
    pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(tuple(v) for v in self.vectors))
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("vector length != ambient dimension")
        pivots = _echelon_pivots(self.vectors)
        if pivots is None:
            raise ValueError("basis vectors are not in echelon form")
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class ExteriorBasis:
    """The induced basis of an exterior power of a subspace.

    Elements are wedges of ``degree`` many basis vectors of ``base``, indexed
    by lexicographically ordered index subsets.
    """

    base: SubspaceBasis
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("negative exterior degree")

    @cached_property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.combinations(range(self.base.dim), self.degree))

    @cached_property
    def size(self) -> int:
        return comb(self.base.dim, self.degree) if self.degree <= self.base.dim else 0


@cache
def _laplace_terms(ncols: int, order: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The Laplace expansion of every order-``order`` minor on the columns
    ``range(ncols)`` along its first row: for each column set ``cs`` of
    ``combinations(range(ncols), order)``, the terms ``(column, index of
    the minor below, sign)``, one per ``t``, with ``cs[t]`` the column, the
    index that of ``cs`` without ``cs[t]`` among the column sets of one
    order less, and the sign ``t % 2`` (1 for minus).  Built once per shape
    and cached, so that :func:`_compound_minors` only multiplies."""
    below = {cs: k for k, cs in enumerate(itertools.combinations(range(ncols), order - 1))}
    return tuple(
        tuple((c, below[cs[:t] + cs[t + 1:]], t % 2) for t, c in enumerate(cs))
        for cs in itertools.combinations(range(ncols), order)
    )


def _compound_minors(m: list[list[int]], rows, ncols: int, order: int) -> dict[tuple, list[int]]:
    """The order-``order`` minors of the int matrix ``m`` on row sets drawn
    from ``rows``: ``{rs: [det m[rs, cs] for cs in combinations(range(ncols),
    order)]}``.  Each order comes from the one before by Laplace expansion
    along the first row of the row set (:func:`_laplace_terms`), so no
    determinant is taken twice."""
    table: dict[tuple, list[int]] = {(): [1]}
    for q in range(1, order + 1):
        expand = _laplace_terms(ncols, q)
        nxt = {}
        for rs in itertools.combinations(rows, q):
            row, sub = m[rs[0]], table[rs[1:]]
            out = []
            for terms in expand:
                acc = 0
                for c, k, odd in terms:
                    x = row[c]
                    if x:
                        y = sub[k]
                        if y:
                            acc = acc - x * y if odd else acc + x * y
                out.append(acc)
            nxt[rs] = out
        table = nxt
    return table


class Pairing(NamedTuple):
    """Contraction by a vector ``n`` from the exterior powers of the source
    rows ``a_i`` to those of a target basis, at every degree at once.

    ``values`` are the int pairings ``p_i = <n, a_i>``, which are all of
    ``n`` that the contraction sees.  ``pivot`` is an index ``j`` of least
    nonzero ``|p_j|``, and ``coords`` the int coordinates of the rows ``p_j
    a_i - p_i a_j`` in the target basis, a Hermite basis of a saturated
    lattice; they are None when one of those rows leaves the lattice.  None
    of these depends on the exterior degree.  On the face posets of the
    package the target lattice contains the rows."""

    values: tuple
    pivot: int | None
    coords: list[list[int]] | None


def pairing(values, rows, target: SubspaceBasis) -> Pairing:
    """The :class:`Pairing` with the given int ``values`` on the int source
    ``rows`` into the lattice of the ``target`` basis, solved along the
    pivots that the basis keeps."""
    p = tuple(values)
    if not any(p):
        return Pairing(p, None, None)
    j = min((i for i, x in enumerate(p) if x), key=lambda i: abs(p[i]))
    pj, aj = p[j], rows[j]
    g = _coordinates(
        target.vectors, target.pivots, [[pj * x - pi * y for x, y in zip(row, aj)] for row, pi in zip(rows, p)]
    )
    if g is not None and not all(type(x) is int for row in g for x in row):
        g = None  # in the rational span only
    return Pairing(p, j, g)


def contraction_matrix(pairing: Pairing, source: ExteriorBasis, target: ExteriorBasis) -> Matrix:
    """Matrix of contraction by a vector ``n`` from ``source`` to ``target``,
    given by its :class:`Pairing` with the source rows.

    On a wedge of basis covectors a_1 ^ ... ^ a_k the contraction is
    ``sum_i (-1)^(i+1) <n, a_i> a_1 ^ ... ^ (omit a_i) ^ ... ^ a_k``.
    Raises NOT_CONTAINED when the target lattice misses the rows ``p_j a_i
    - p_i a_j`` of the pairing (below).

    With ``p_i = <n, a_i>`` and any ``a`` with ``<n, a> = 1``, the rows
    ``g_i = a_i - p_i a`` lie in the kernel of ``n``, and expanding
    ``a_I = ^(p_i a + g_i)`` gives ``i_n(a_I) = sum_r (-1)^r p_(I_r)
    g_(I - I_r)``, so by Cauchy-Binet the block entry at ``(J, I)`` is
    ``sum_r (-1)^r p_(I_r) det G[I - I_r, J]``, ``G`` being the coordinates
    of the ``g_i`` in the target basis.  The choice of ``a`` cancels.  Here
    ``a = a_j / p_j`` with ``|p_j|`` least, and the rows ``p_j g_i = p_j a_i
    - p_i a_j`` are used instead, whose coordinates in the target lattice
    are ints; each minor then carries a factor ``p_j^(k-1)``, divided out
    exactly at the end.  Row ``j`` of ``G`` is zero, so only the row
    sets without ``j`` have nonzero minors: a column ``I`` that contains
    ``j`` has the one term ``r`` with ``I_r = j``.  The minors of each order
    come from those of the order below (:func:`_compound_minors`).

    At the top degree, the source degree ``n`` the number of source rows and
    the target basis one row smaller, the block is 1 x 1 with the column
    ``I`` of all rows, which contains ``j``: its entry is ``(-1)^j p_j
    det G' / p_j^(n-1)``, ``G'`` the ``(n-1) x (n-1)`` rows of ``G`` but
    row ``j``.  That is one :func:`integer_det`, about ``n^3/3``
    multiplications, where the compound chain would take ``sum_q
    C(n-1, q)^2 q``.  It covers every covering pair of a level-d complex.
    """
    if source.base.ambient_dim != target.base.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if target.degree != source.degree - 1:
        raise ValueError("target degree must be source degree - 1")
    p = pairing.values
    if len(p) != source.base.dim:
        raise ValueError("pairing length mismatch")
    src, dst = source.subsets, target.subsets
    if not src or not any(p):
        return Matrix([{}] * len(dst), len(src))
    if source.degree == 1:
        return Matrix.from_dense([p], len(p))
    j, g = pairing.pivot, pairing.coords
    if g is None:
        raise NotContained("contracted forms leave the target lattice")
    k = source.degree - 1
    scale = p[j] ** k
    if k == len(p) - 1 == target.base.dim:  # the top degree: one entry, one determinant
        x = integer_det(g[:j] + g[j + 1:]) * (p[j] if j % 2 == 0 else -p[j])
        return Matrix([{0: x if scale == 1 else _div(x, scale)} if x else {}], 1)
    minors = _compound_minors(g, [i for i in range(len(p)) if i != j], target.base.dim, k)
    rows: list[dict] = [{} for _ in dst]
    for col, idx in enumerate(src):
        if j in idx:
            r = idx.index(j)
            c = p[j] if r % 2 == 0 else -p[j]
            acc = [c * y for y in minors[idx[:r] + idx[r + 1:]]]
        else:
            acc = [0] * len(dst)
            for r, i in enumerate(idx):
                if p[i]:
                    c = p[i] if r % 2 == 0 else -p[i]
                    acc = [x + c * y for x, y in zip(acc, minors[idx[:r] + idx[r + 1:]])]
        for row, x in zip(rows, acc):
            if x:
                row[col] = x if scale == 1 else _div(x, scale)
    return Matrix(rows, len(src))


def expansion_matrix(source: ExteriorBasis, target: ExteriorBasis) -> Matrix:
    """Matrix of the identity inclusion of one exterior basis into another.

    With ``E`` the coordinates of the source vectors in the target basis,
    the entry at ``(J, I)`` is the minor ``det E[I, J]``
    (:func:`_compound_minors`).  Both bases are Hermite bases of lattices,
    so ``E`` is an int matrix when the target lattice contains the source
    vectors, and NOT_CONTAINED is raised when it does not, even if they lie
    in its rational span.
    """
    if source.base.ambient_dim != target.base.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if source.degree != target.degree:
        raise ValueError("degree mismatch")
    src, dst = source.subsets, target.subsets
    if source.degree == 0:
        return Matrix([{0: 1}], 1)
    if not src:
        return Matrix([{}] * len(dst), 0)
    e = _coordinates(target.base.vectors, target.base.pivots, source.base.vectors)
    if e is None or not all(type(x) is int for row in e for x in row):
        raise NotContained("source vectors are not inside the target lattice")
    minors = _compound_minors(e, range(len(e)), target.base.dim, source.degree)
    return Matrix([{k: minors[rs][c] for k, rs in enumerate(src) if minors[rs][c]} for c in range(len(dst))], len(src))
