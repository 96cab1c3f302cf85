"""Ishida complexes of cones and fans, their cohomology, and the local
cohomological defect.

The degree-``m`` term of the level-``l`` complex of a cone is the direct sum,
over faces of dimension ``m``, of the ``(l-m)``-th exterior power of the
face's annihilator in the dual space; the differential is the sum over
covering pairs of contraction with a lattice normal of the smaller face
inside the bigger one.  The contraction sees the normal only through its
pairings with the smaller face's annihilator rows, which kill the normal's
ambiguity (an element of the smaller face's span lattice), so the poset
hands over those pairings, read off one ray of the bigger face, and no
normal is built; the anticommutation of the two paths
through any 2-step interval of the face lattice makes the square of the
differential vanish.  Each differential is built on first read and squared
against its built neighbours: a complex assembles the differential out of a
degree the first time anything reads it, and multiplies it exactly with
each consecutive differential already built, so every differential read has
been checked against the ones beside it, and a reader of the whole complex
checks every product.

One builder, :func:`face_complex`, makes every such complex from a
:class:`~toricdef.polyhedral.FacePoset`: the complexes of a cone (intrinsic
coordinates), of a fan (ambient coordinates), of the faces below a face, and
of a divisor's hat lift, each once per poset and level (memoized on the
poset, so the lifted sequences of every divisor on a fan share the fan's
complexes, which are their outer terms).  It hands
:func:`assemble_complex` one contraction block per covering pair and
nothing else, degree by degree, as each differential is first read; the
complex records those pairs, and graded pieces and the stages of a
filtration are re-assembled from them.

:func:`lcdef_cone` and :func:`lcdef_variety` compute only the cohomology
the defect needs: one scan tries the candidate values from ``d - 3`` down,
over the cells of every non-simplicial face at each value, builds a level
when one of its cells is first needed, and stops at the first nonzero cell.
A cell ``H^i`` reads only the differentials into and out of degree ``i``,
so only those two of its level are built.
The cells of larger value vanish on every cone (proofs in
:func:`_defect_scan`), so no cone's level-``d`` complex is built.

A pyramid (a cone that keeps its base in ``_base``) reads its defect off
the base: its cells are the base's cells at one dimension more, so each
value is one lower (proved in :func:`lcdef_cone`), and the defect of the
variety is the base's.  Every face of a cone is taken as a cone of its own
by one helper, :func:`_face_cone`, which :func:`lcdef_variety`,
:func:`lcdef_faces` and :func:`graded_piece` all call: the face cone
memoized on the cone, except that a face of a pyramid that misses the apex
is the base's face cone on the same rays, and a face through the apex is a
pyramid over the base's face cone on the other rays.  So no defect of a
pyramid builds a complex on any face through its apex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Callable

from . import exact_linalg as xl
from .errors import InvariantViolation, NotAComplex, ValidationError
from .polyhedral import Cone, Face, FacePoset, Fan, face_cone, face_lattice


@dataclass(frozen=True)
class Block:
    """One labeled summand of a term of a labeled complex."""

    face_key: tuple
    basis: xl.ExteriorBasis
    offset: int

    @property
    def size(self) -> int:
        return self.basis.size


@dataclass(frozen=True)
class LabeledComplex:
    """A cochain complex in nonnegative degrees with block-labeled terms.

    The differential out of degree ``k`` is assembled the first time
    anything reads it (:meth:`diff`, and through it :meth:`rank`,
    :meth:`h`, :meth:`representatives`, :meth:`class_coordinates`,
    :meth:`block_matrix`, :attr:`diffs` and :attr:`pairs`), by the
    ``_assemble`` that :func:`assemble_complex` hands over, and kept.  As
    soon as two consecutive differentials are both built, their product is
    taken exactly, and a nonzero product raises NOT_A_COMPLEX: every
    differential read has been squared against each built neighbour, and a
    reader of the whole complex builds, and squares, them all.

    ``pairs`` lists the ``(degree, src_key, dst_key)`` block pairs the
    differentials were assembled from; every entry outside them is zero.

    The complex owns its cohomology: :meth:`rank`, :meth:`h`,
    :meth:`representatives` and :meth:`class_coordinates`, memoized per
    instance and asked for in any order.  Each rank is computed once, by
    :meth:`rank`; a kernel is taken only in the degrees where ``H^i != 0``.
    """

    label: str
    terms: tuple[tuple[Block, ...], ...]
    _assemble: Callable[[int], tuple[xl.Matrix, tuple]] = field(repr=False, compare=False)
    _diffs: dict = field(default_factory=dict, repr=False, compare=False)
    _pairs: dict = field(default_factory=dict, repr=False, compare=False)
    _ranks: dict = field(default_factory=dict, repr=False, compare=False)
    _reps: dict = field(default_factory=dict, repr=False, compare=False)

    def diff(self, k: int) -> xl.Matrix:
        """The differential out of degree ``k``, ``0 <= k < len(terms) - 1``,
        assembled on its first read and multiplied exactly with each
        consecutive differential already built; NOT_A_COMPLEX when a
        product is nonzero."""
        if k not in self._diffs:
            if not 0 <= k < len(self.terms) - 1:
                raise IndexError(f"{self.label}: no differential out of degree {k}")
            m, pairs = self._assemble(k)
            for i, lo, hi in ((k - 1, self._diffs.get(k - 1), m), (k, m, self._diffs.get(k + 1))):
                if lo is not None and hi is not None and any(xl._sparse_product(hi, lo).rows):
                    raise NotAComplex(f"{self.label}: differential does not square to zero at degree {i}")
            self._diffs[k], self._pairs[k] = m, pairs
        return self._diffs[k]

    @property
    def diffs(self) -> tuple[xl.Matrix, ...]:
        """Every differential, in degree order, all of them built."""
        return tuple(self.diff(k) for k in range(len(self.terms) - 1))

    @property
    def pairs(self) -> tuple[tuple, ...]:
        """Every ``(degree, src_key, dst_key)`` block pair, in degree order,
        all differentials built."""
        return tuple(p for k, _ in enumerate(self.diffs) for p in self._pairs[k])

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(sum(b.size for b in layer) for layer in self.terms)

    @cached_property
    def _index(self) -> list[dict]:
        return [{b.face_key: b for b in layer} for layer in self.terms]

    def dim(self, i: int) -> int:
        """Dimension of the degree-``i`` term (0 outside the complex)."""
        return self.dims[i] if 0 <= i < len(self.terms) else 0

    def block(self, degree: int, face_key) -> Block | None:
        """The block ``face_key`` of a degree (None outside the complex)."""
        return self._index[degree].get(face_key) if 0 <= degree < len(self.terms) else None

    def block_matrix(self, degree: int, src_key, dst_key) -> xl.Matrix:
        """The block of the differential out of ``degree`` from the block
        ``src_key`` to the block ``dst_key`` of the next degree;
        VALIDATION_ERROR when there are no such blocks."""
        s, t = self.block(degree, src_key), self.block(degree + 1, dst_key)
        if s is None or t is None:
            raise ValidationError(f"{self.label}: no blocks {src_key!r} -> {dst_key!r} out of degree {degree}")
        lo, hi = s.offset, s.offset + s.size
        rows = self.diff(degree).rows[t.offset : t.offset + t.size]
        return xl.Matrix([{c - lo: x for c, x in row.items() if lo <= c < hi} for row in rows], s.size)

    def rank(self, k: int) -> int:
        """Rank of the differential out of degree ``k`` (0 outside the
        complex), by :func:`~toricdef.exact_linalg.matrix_rank`, once."""
        if not 0 <= k < len(self.terms) - 1:
            return 0
        if k not in self._ranks:
            self._ranks[k] = xl.matrix_rank(self.diff(k))
        return self._ranks[k]

    def h(self, i: int) -> int:
        """Dimension of the degree-``i`` cohomology (0 outside the complex
        and on a zero term, with no rank taken); NOT_A_COMPLEX if it comes
        out negative."""
        if not self.dim(i):
            return 0
        h = self.dims[i] - self.rank(i) - self.rank(i - 1)
        if h < 0:
            raise NotAComplex(f"{self.label}: negative cohomology dimension at degree {i}")
        return h

    def _image(self, i: int) -> xl.Matrix:
        """The incoming differential of degree ``i``, whose columns span the
        coboundaries."""
        return self.diff(i - 1) if i else xl.Matrix([{}] * self.dims[0], 0)

    def representatives(self, i: int) -> xl.Matrix:
        """Cocycles, as columns, whose classes are a basis of ``H^i``
        (empty outside the complex; no column, and no elimination, when
        :meth:`h` is 0).

        They are the columns of the canonical kernel basis of
        :func:`~toricdef.exact_linalg.rank_and_kernel` that are pivots of
        ``[image | kernel]``: each kernel column independent of the image
        and of the kernel columns before it.  That choice depends only on
        the span of the image, so the whole incoming differential stands
        for it.
        """
        if not 0 <= i < len(self.terms):
            return xl.Matrix((), 0)
        if i not in self._reps:
            if not self.h(i):
                self._reps[i] = xl.Matrix([{}] * self.dims[i], 0)
                return self._reps[i]
            if i < len(self.terms) - 1:
                kern = xl.rank_and_kernel(self.diff(i))[1]
            else:
                kern = xl.Matrix([{j: 1} for j in range(self.dims[i])], self.dims[i])
            img = self._image(i)
            w = img.ncols
            pivots = xl.pivot_columns(_beside(img, kern))
            chosen = {c - w: k for k, c in enumerate(c for c in pivots if c >= w)}
            self._reps[i] = xl.Matrix(
                [{chosen[j]: x for j, x in row.items() if j in chosen} for row in kern.rows], len(chosen)
            )
        return self._reps[i]

    def class_coordinates(self, i: int, cocycles: xl.Matrix) -> xl.Matrix:
        """Coordinates of the classes of ``cocycles`` (columns) in the basis
        of :meth:`representatives`; INVARIANT_VIOLATION if one of them is
        not a cocycle.  The coefficients on the representatives are unique
        because the representatives are independent modulo the image."""
        reps = self.representatives(i)
        h = reps.ncols
        if h == 0 or cocycles.ncols == 0:
            return xl.Matrix([{}] * h, cocycles.ncols)
        sol = xl.solve_matrix(_beside(reps, self._image(i)), cocycles)
        if sol is None:
            raise InvariantViolation("cocycle not in span of cohomology basis + boundaries")
        return xl.Matrix(sol.rows[:h], sol.ncols)


def _beside(a: xl.Matrix, b: xl.Matrix) -> xl.Matrix:
    """``[a | b]``: the columns of ``a``, then those of ``b``."""
    w = a.ncols
    return xl.Matrix([ra | {w + j: x for j, x in rb.items()} for ra, rb in zip(a.rows, b.rows)], w + b.ncols)


@dataclass(frozen=True)
class CohomologyTable:
    """Cohomology dimensions of the level-``l`` complexes of one object."""

    label: str
    rows: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    # each row: (level l, term dimensions, cohomology dimensions)

    def level(self, l: int) -> tuple[int, ...]:
        for lev, _, coh in self.rows:
            if lev == l:
                return coh
        raise KeyError(l)


def assemble_complex(label: str, layers, blocks) -> LabeledComplex:
    """A labeled complex on per-degree ``(face_key, basis)`` lists whose
    differential out of degree ``k`` is assembled from ``blocks(k)`` when
    it is first read (:meth:`LabeledComplex.diff`).

    ``blocks(k)`` yields ``(src_key, dst_key, matrix)``: the block of the
    differential out of degree ``k`` from the block ``src_key`` to the block
    ``dst_key`` of the next degree.  A key that names no block of its
    degree, or a matrix of the wrong shape, raises INVARIANT_VIOLATION.  The
    blocks' nonzeros go into the ``{column: entry}`` rows of the
    differential; every other entry is zero, and the complex records the
    given pairs as ``pairs``.
    """
    terms: list[tuple[Block, ...]] = []
    for layer in layers:
        off = 0
        row = []
        for fk, eb in layer:
            b = Block(fk, eb, off)
            row.append(b)
            off += b.size
        terms.append(tuple(row))
    index = [{b.face_key: b for b in layer} for layer in terms]

    def assemble(i: int) -> tuple[xl.Matrix, tuple]:
        rows = [{} for _ in range(sum(b.size for b in terms[i + 1]))]
        pairs = []
        for src, dst, m in blocks(i):
            sb = index[i].get(src)
            tb = index[i + 1].get(dst) if sb is not None else None
            if tb is None:
                raise InvariantViolation(f"{label}: no blocks {src!r} -> {dst!r} out of degree {i}")
            if m.shape != (tb.size, sb.size):
                raise InvariantViolation(
                    f"{label}: block of shape {m.shape} between blocks of sizes {sb.size} and {tb.size}"
                )
            xl._write_block(rows, tb.offset, sb.offset, m)
            pairs.append((i, src, dst))
        return xl.Matrix(rows, sum(b.size for b in terms[i])), tuple(pairs)

    return LabeledComplex(label, tuple(terms), assemble)


def cohomology(cx: LabeledComplex) -> tuple[int, ...]:
    """Cohomology dimensions of a labeled complex, degree by degree."""
    return tuple(cx.h(i) for i in range(len(cx.terms)))


# ---------------------------------------------------------------------------
# complexes of cones and fans


def _checked_level(l: int, top: int) -> int:
    """``l``, or VALIDATION_ERROR when it is outside ``0..top``."""
    if not 0 <= l <= top:
        raise ValidationError(f"level {l} outside 0..{top}")
    return l


def face_complex(label: str, poset: FacePoset, level: int) -> LabeledComplex:
    """The level-``level`` complex of a face poset, memoized on the poset by
    level (``label`` names it when it is built).

    Degree ``m`` runs over ``0..min(level, top dimension)`` and is the direct
    sum, over the faces in ``poset.faces_by_dim[m]``, of the
    ``(level-m)``-th exterior power of the annihilator spanned by the face's
    ``poset.perps`` rows, in the poset's one basis of the face
    (:meth:`~toricdef.polyhedral.FacePoset.basis`).  The differential
    contracts along each covering pair ``mu < tau`` with the pairing
    ``poset.covering_pairing(mu, tau)``; every level shares the bases and
    the pairings.  A pair with a zero-size block has no block, and no
    contraction is computed for it.

    Each differential is built on first read and squared against its built
    neighbours (:meth:`LabeledComplex.diff`): the contraction blocks of the
    differential out of degree ``m`` are computed only when something reads
    it, so a cell ``H^i`` costs the blocks into and out of degree ``i``.
    """
    if level in poset._complexes:
        return poset._complexes[level]
    depth = poset.depth(level)
    faces = [poset.faces_by_dim[m] for m in range(depth)]
    bases = {
        f.ray_indices: xl.ExteriorBasis(poset.basis(f.ray_indices), level - m)
        for m, layer in enumerate(faces)
        for f in layer
    }

    def blocks(m):
        for tau in faces[m + 1]:
            dst = bases[tau.ray_indices]
            for mu in poset.covered_by(tau):
                src = bases[mu.ray_indices]
                if src.size and dst.size:
                    pairing = poset.covering_pairing(mu, tau)
                    yield mu.key, tau.key, xl.contraction_matrix(pairing, src, dst)

    layers = [[(f.key, bases[f.ray_indices]) for f in layer] for layer in faces]
    poset._complexes[level] = assemble_complex(label, layers, blocks)
    return poset._complexes[level]


def ishida_cone(cone: Cone, l: int) -> LabeledComplex:
    """The level-``l`` complex of a cone, in intrinsic coordinates.

    The cone is treated as full-dimensional inside its own span lattice, so
    the annihilator of a face of dimension ``m`` has dimension ``dim - m``.
    """
    return face_complex(f"cone level {l}", face_lattice(cone), _checked_level(l, cone.dim))


def ishida_fan(fan: Fan, l: int) -> LabeledComplex:
    """The level-``l`` complex of a fan in its ambient coordinates."""
    return face_complex(f"fan level {l}", fan, _checked_level(l, fan.rank))


def fan_cohomology_table(fan: Fan) -> CohomologyTable:
    return _cohomology_table("fan", ishida_fan, fan, fan.rank)


def cone_cohomology_table(cone: Cone) -> CohomologyTable:
    return _cohomology_table("cone", ishida_cone, cone, cone.dim)


def _cohomology_table(label: str, complex_at, obj, top: int) -> CohomologyTable:
    """The rows ``(l, dims, cohomology)`` of ``complex_at(obj, l)`` for the
    levels ``l = 0..top``."""
    rows = []
    for l in range(top + 1):
        cx = complex_at(obj, l)
        rows.append((l, cx.dims, cohomology(cx)))
    return CohomologyTable(label, tuple(rows))


# ---------------------------------------------------------------------------
# local cohomological defect


def is_simplicial(cone: Cone) -> bool:
    return len(cone.rays) == cone.dim


def lcdef_cone(cone: Cone, shortcut_simplicial: bool = True) -> int:
    """Cone-level contribution to the local cohomological defect.

    This is ``max(0, max { i - j : H^i of the level-(d-j) complex != 0 })``.
    The inner maximum exists because the level-0 complex always has
    one-dimensional cohomology in degree 0.  For simplicial cones the value
    is 0 (finite quotients of smooth affine charts have no defect);
    ``shortcut_simplicial`` returns that without computing, which the test
    suite cross-validates against the full computation.

    Only the cells that decide the value are computed: this is the
    one-face case of the scan of :func:`_defect_scan`.  Cell ``(l, i)``,
    degree ``i`` of the level-``l`` complex with ``0 <= i <= l <= d``, has
    value ``c = i + l - d <= d``.  Every cell of level ``d`` and, when
    ``d >= 2``, the cell ``(d - 1, d - 1)`` vanish (proved in
    :func:`_defect_scan`); they are all the cells of value
    ``c >= max(1, d - 2)``, so the value is at most ``max(0, d - 3)``.  The
    candidates
    ``c = d - 3, d - 4, ..., 1`` are tried in turn, each over its cells
    from ``l = d - 1`` down; a level's complex is made when one of its
    cells is first needed, level ``d`` never, and of it only the
    differentials the cells read are built, each on first read and squared
    against its built neighbours, and each ranked at most once
    (:meth:`LabeledComplex.rank`).  The first cell with
    nonzero cohomology has the largest value of all nonzero cells, since
    every cell of a larger value is zero, found so or proved so, and it is
    the answer.  When none of the cells with ``c >= 1`` is nonzero, the
    inner maximum is at most 0 and the answer is 0.  Either way the value
    is the one the formula gives.

    A pyramid ``P`` over a cone ``sigma`` of dimension ``d`` (a cone with a
    ``_base``, made by :func:`~toricdef.polyhedral.pyramid` or by
    :func:`_face_cone`) computes no cell: its value is
    ``max(0, lcdef_cone(sigma) - 1)``, for an apex of any height.
    Complexes are taken over Q throughout.

    *(a) The lattice does not matter.*  Let ``N`` be a sublattice of
    finite index of the span lattice ``N'`` of a cone, and build the face
    complexes in each.  The annihilators of a face span the same subspace
    of the dual space in both, so the terms are the same spaces up to a
    change of basis.  Let ``i(F) = [span F cap N' : span F cap N]``.  For a
    covering pair ``mu < tau`` the quotient ``(span tau cap N) / (span mu
    cap N)`` sits in ``(span tau cap N') / (span mu cap N')``, both of rank
    one, with index ``i(tau) / i(mu)`` by multiplicativity of indices
    (``span mu cap N`` is ``span mu cap N' cap N``).  The primitive normals
    ``n`` in ``N`` and ``n'`` in ``N'`` both point into ``tau``, so ``n =
    (i(tau) / i(mu)) n'`` modulo ``span mu``, which the annihilator of
    ``mu`` kills.  So contraction with ``n`` is ``i(tau) / i(mu)`` times
    contraction with ``n'``, and scaling each face's block of the
    ``N'``-complex by ``i(F)`` is an isomorphism of complexes onto the
    ``N``-complex.

    *(b) The pyramid splits.*  Take for ``N`` the lattice generated by the
    base's padded span lattice and the apex ``e``; it has finite index in
    the pyramid's span lattice, and in it ``P`` is ``sigma x R>=0 e``.
    Each face of ``P`` is a face ``F`` of ``sigma`` or ``F + e``, with
    ``perp(F) = perp_sigma(F) + Z e*`` and ``perp(F + e) = perp_sigma(F)``.
    The normal of ``F`` in ``G`` serves for ``F + e`` in ``G + e``, and
    ``e`` is the normal of ``F`` in ``F + e``.  Splitting ``wedge(A + Q
    e*)`` as ``wedge(A) + wedge(A) ^ e*``, the level-``l`` complex is
    ``K(sigma, l)``, a direct summand (contraction with a normal of
    ``sigma`` keeps it, and contraction with ``e`` kills it), plus a
    subcomplex made of ``K(sigma, l - 1) ^ e*`` over the faces ``F`` and
    ``K(sigma, l - 1)``, one degree up, over the faces ``F + e``.  In that
    subcomplex the faces ``F + e`` form a subcomplex, with the faces ``F``
    as quotient, both copies of ``K(sigma, l - 1)``, and the connecting map
    of the pair is contraction with ``e``, which is ``+-1`` on each
    degree: an isomorphism.  So the long exact sequence of the pair makes
    the subcomplex acyclic, and ``H(P, l) = H(sigma, l)`` degree by degree
    for ``l <= d``, while level ``d + 1`` is zero, as ``K(sigma, d + 1)``
    is.

    So the cells of ``P`` are those of ``sigma`` at one dimension more,
    each of value one lower, and the value of ``P`` is ``max(0, v - 1)``
    for the inner maximum ``v`` of ``sigma``, which is ``max(0,
    lcdef_cone(sigma) - 1)``.
    """
    if cone.dim == 0 or (shortcut_simplicial and is_simplicial(cone)):
        return 0
    if cone._base is not None:
        return max(0, lcdef_cone(cone._base, shortcut_simplicial) - 1)
    return _defect_scan([cone])


def _defect_scan(cones: list[Cone]) -> int:
    """The largest cone-level value :func:`lcdef_cone` over ``cones`` (0 for
    none), each of dimension at least 1, by one scan over their cells.

    Each cone's level-0 complex is checked first, in the given order:
    INVARIANT_VIOLATION when it has no cohomology.  Then the candidates
    ``c`` run from the largest dimension minus 3 down to 1; at each, every
    cone of dimension ``d >= c + 3`` in the given order is read over its
    cells ``(l, c + d - l)`` from ``l = d - 1`` down.  The first nonzero
    cell has the value returned, and 0 is returned when there is none.
    Cell ``(l, i)`` reads ``h(i)``, which takes the ranks of the two
    differentials into and out of degree ``i``: those two are built, each
    on first read and squared against its built neighbours, and the rest of
    the level is not.

    The cells skipped are zero on every cone ``sigma`` of dimension ``d``,
    by two facts about its complexes (M.-N. Ishida, "Torus embeddings and
    dualizing complexes", Tohoku Math. J. 32 (1980); T. Oda, *Convex
    Bodies and Algebraic Geometry* (1988), ch. 3).  For ``c >= 1``, a cell
    ``(l, c + d - l)`` below level ``d`` needs ``c + d - l <= l``, so
    ``l >= d - 1`` and then ``c <= d - 2``, with equality only at
    ``(d - 1, d - 1)``.  So a cone with ``d < c + 3`` has no nonzero cell of
    value ``c``, and on the others the cell ``(d, c)`` is zero.  The guard
    ``d >= c + 3`` is not only a shortcut: without it a cone of dimension
    ``c + 2`` would build its level ``d - 1`` to read ``(d - 1, d - 1)``.

    *The level-d complex is acyclic* (``d >= 1``).  Its degree-``m`` term
    is, per face ``tau`` of dimension ``m``, the top exterior power of the
    rank-``(d - m)`` annihilator of ``tau``: rank one.  So the complex has
    one basis vector per face, and the entry for a covering pair
    ``mu < tau`` is, up to sign, the pairing of a normal of ``mu`` in ``tau`` with
    a vector that completes the annihilator of ``tau`` to that of ``mu``; it
    is nonzero, since that vector would otherwise kill the span of ``tau``.
    Every other entry is zero.  Rescale the basis vectors going up the face
    lattice so that every entry is ``+-1``: the entries out of the zero face
    are made 1, and when every face below ``tau`` is done, any two facets of
    ``tau`` through a common ridge form a diamond, on which the square of
    the differential vanishing makes the two entries into ``tau`` equal in
    absolute value; the facet-ridge graph of ``tau`` is connected, so one
    rescaling of ``tau`` makes all its entries ``+-1``.  The result is a
    signed incidence system with vanishing square on the face lattice of a
    cross-section polytope of ``sigma`` (the zero face its empty face), and
    such a system on a regular cell complex is its augmented cellular
    cochain complex up to the signs of the cells (A. T. Lundell and S.
    Weingram, *The Topology of CW Complexes* (1969)).  The polytope is a
    ball, so that complex is acyclic over Q.

    *H^(d-1) of level d - 1 is zero* (``d >= 2``).  Level ``d - 1`` has in
    degree ``d - 1`` one zeroth exterior power, of rank one, per facet and
    nothing in degree ``d``, so ``H^(d-1)`` is the cokernel of the
    differential from the ridges' first exterior powers, their annihilators
    themselves.  A ridge's annihilator has rank 2 and contains the
    annihilators of the two facets through it, two different lines.  The
    entries into those facets are the pairings with the ridge's normal in
    each, whose kernels on the ridge's annihilator are those two lines, so
    they are independent and the ridge's term maps onto the two facets'
    terms.  Every facet contains a ridge, so the differential is onto.
    """
    for cone in cones:
        if not any(cohomology(ishida_cone(cone, 0))):
            raise InvariantViolation("the level-0 complex has no cohomology")
    for c in range(max((cone.dim for cone in cones), default=0) - 3, 0, -1):
        for cone in cones:
            d = cone.dim
            if d < c + 3:
                continue
            for l in range(d - 1, (c + d - 1) // 2, -1):
                if ishida_cone(cone, l).h(c + d - l):
                    return c
    return 0


def _face_cone(cone: Cone, face: Face) -> Cone:
    """The face ``face`` of ``cone`` as a cone of its own: its memoized
    :func:`~toricdef.polyhedral.face_cone`, except on a pyramid.  There a
    face that misses the apex is the base's face cone on the same ray
    indices (and so on down a pyramid over a pyramid), which lives one rank
    lower but has the same dimension, faces, keys and lattice rows, so the
    same complexes (the proof is in :func:`~toricdef.polyhedral.pyramid`).
    A face through the apex is the pyramid over the base's face on its
    other rays: its rays are that face's rays padded, then the apex, so its
    face cone gets that base face cone as ``_base``, and its defect is read
    off the base's (:func:`lcdef_cone`)."""
    base = cone._base
    if base is None:
        return face_cone(cone, face)
    apex = len(base.rays)
    if apex not in face.ray_indices:
        return _face_cone(base, face_lattice(base).by_key[face.ray_indices])
    sub = face_cone(cone, face)
    if sub._base is None:
        sub._base = _face_cone(base, face_lattice(base).by_key[face.ray_indices - {apex}])
    return sub


def lcdef_faces(cone: Cone) -> list[tuple[Face, int]]:
    """The cone-level value :func:`lcdef_cone` of every face of a cone, in
    the order of the face lattice (by dimension, then rays); the last entry
    is the cone itself.  Faces are taken from the cone by :func:`_face_cone`,
    without re-running the facet search of :func:`cone_from_rays`."""
    return [(f, lcdef_cone(_face_cone(cone, f))) for f in face_lattice(cone).all_faces]


def lcdef_variety(cone: Cone) -> int:
    """Local cohomological defect: the maximum of the cone-level value
    :func:`lcdef_cone` over all faces (every point of the associated space
    has a neighborhood modeled on one of the faces).

    The maximum is one scan (:func:`_defect_scan`) over the cells of every
    non-simplicial face, in face-lattice order; simplicial faces have value
    0 by the shortcut of :func:`lcdef_cone`.  The candidates ``c`` run from
    the largest face dimension minus 3 down to 1, each over the cells of
    value ``c`` of every face of dimension at least ``c + 3``, from level
    ``d - 1`` down (the other cells are zero, and no level ``d`` is built),
    and the first nonzero cell gives the answer: every cell of a larger
    value, on every face, is zero, found so or proved so, so no face has a
    larger value than ``c``, and the face of that cell has value ``c``.
    With no nonzero cell the answer is 0.  So the value is the maximum over
    :func:`lcdef_faces`, but a face whose own value is below the answer
    computes no cell at or below the answer.  The level-0 check of
    :func:`lcdef_cone` runs on every non-simplicial face, in face order,
    before any other cell.

    A pyramid has its base's defect: its faces are the base's faces, of
    the same values, and the pyramids over them, of values one lower
    (:func:`lcdef_cone`), so it scans only the base.
    """
    if cone._base is not None:
        return lcdef_variety(cone._base)
    faces = (_face_cone(cone, f) for f in face_lattice(cone).all_faces)
    return _defect_scan([face for face in faces if not is_simplicial(face)])


# ---------------------------------------------------------------------------
# graded pieces


def _resolve_face(cone: Cone, tau) -> Face:
    """This cone's face with the ray indices ``tau``, or the given
    :class:`Face` itself when it is a face of this cone."""
    key = tau.ray_indices if isinstance(tau, Face) else frozenset(tau)
    face = face_lattice(cone).by_key.get(key)
    if face is None:
        raise ValidationError(f"rays {sorted(key)} are not a face of the cone")
    if isinstance(tau, Face) and tau != face:
        raise ValidationError(f"the face on rays {sorted(key)} belongs to another cone")
    return face


def graded_piece(cone: Cone, l: int, tau) -> LabeledComplex:
    """The weight-graded model of the level-``l`` complex at a face: the sum
    over ``j`` of ``C(codim, j)`` copies of the face's own level-``(l-j)``
    complex.

    For a weight in the relative interior of the face's dual cone the graded
    piece of the cone complex decomposes as exterior powers of the face's
    annihilator tensored with the face's complexes; this returns that direct
    sum with blocks labeled ``(j, copy, face_key)``.  At the zero face
    that is ``C(d, l)`` copies of the zero cone's one-dimensional level-0
    complex, blocks ``(l, copy, ())``.
    """
    d = cone.dim
    _checked_level(l, d)
    face = _resolve_face(cone, tau)
    dt = face.dim
    codim = d - dt
    sub = _face_cone(cone, face)

    pieces: list[tuple[int, int, LabeledComplex]] = []
    for j in range(max(0, l - dt), min(l, codim) + 1):
        inner = ishida_cone(sub, l - j)
        for copy in range(comb(codim, j)):
            pieces.append((j, copy, inner))

    depth = max(len(p.terms) for _, _, p in pieces)
    layers = []
    for deg in range(depth):
        layer = []
        for j, copy, inner in pieces:
            if deg < len(inner.terms):
                for b in inner.terms[deg]:
                    layer.append(((j, copy, b.face_key), b.basis))
        layers.append(layer)

    def blocks(k):
        for j, copy, inner in pieces:
            for i, s, t in inner.pairs:
                if i == k:
                    yield (j, copy, s), (j, copy, t), inner.block_matrix(i, s, t)

    return assemble_complex(f"graded piece level {l} at {face.key}", layers, blocks)


def restricted_complex(cone: Cone, l: int, tau) -> LabeledComplex:
    """The sub-poset model of the graded piece: the level-``l`` complex built
    from the faces contained in ``tau`` but with annihilators taken inside
    the ambient cone's span.  Its cohomology agrees with
    :func:`graded_piece`; the test suite verifies this on samples."""
    _checked_level(l, cone.dim)
    face = _resolve_face(cone, tau)
    poset = face_lattice(cone).below(face.ray_indices)
    return face_complex(f"restricted level {l} at {face.key}", poset, l)
