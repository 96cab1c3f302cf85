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
differential vanish, and the builder verifies this on every assembly by an
exact product of the sparse rows it assembles the differentials in.

One builder, :func:`face_complex`, makes every such complex from a
:class:`~toricdef.polyhedral.FacePoset`: the complexes of a cone (intrinsic
coordinates), of a fan (ambient coordinates), of the faces below a face, and
the three complexes of a divisor's lifted sequence.  It hands
:func:`assemble_complex` one contraction block per covering pair and
nothing else; the complex records those pairs, and graded pieces and the
stages of a filtration are re-assembled from them.

:func:`lcdef_cone` computes only the cohomology the defect needs: it scans
the candidate values from the top, builds a level when one of its cells is
first needed, and stops at the first nonzero cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

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

    ``pairs`` lists the ``(degree, src_key, dst_key)`` block pairs the
    differentials were assembled from; every entry outside them is zero.

    The complex owns its cohomology: :meth:`rank`, :meth:`h`,
    :meth:`representatives` and :meth:`class_coordinates`, memoized per
    instance.  Each differential is eliminated at most once as long as the
    representatives of a degree, when they are wanted at all, are asked for
    before the ranks they determine.
    """

    label: str
    terms: tuple[tuple[Block, ...], ...]
    diffs: tuple[np.ndarray, ...]
    pairs: tuple[tuple, ...]
    _ranks: dict = field(default_factory=dict, repr=False, compare=False)
    _reps: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(sum(b.size for b in layer) for layer in self.terms)

    @cached_property
    def _index(self) -> list[dict]:
        return [{b.face_key: b for b in layer} for layer in self.terms]

    def block(self, degree: int, face_key) -> Block | None:
        return self._index[degree].get(face_key)

    def block_matrix(self, degree: int, src_key, dst_key) -> np.ndarray:
        """The block of the differential out of ``degree`` from the block
        ``src_key`` to the block ``dst_key`` of the next degree."""
        s, t = self.block(degree, src_key), self.block(degree + 1, dst_key)
        return self.diffs[degree][t.offset : t.offset + t.size, s.offset : s.offset + s.size]

    def rank(self, k: int) -> int:
        """Rank of the differential out of degree ``k`` (0 outside the
        complex): read off the eliminations of :meth:`representatives` when
        those came first, else by :func:`~toricdef.exact_linalg.matrix_rank`."""
        if not 0 <= k < len(self.diffs):
            return 0
        if k not in self._ranks:
            self._ranks[k] = xl.matrix_rank(self.diffs[k])
        return self._ranks[k]

    def h(self, i: int) -> int:
        """Dimension of the degree-``i`` cohomology (0 outside the complex
        and on a zero term, with no rank taken); NOT_A_COMPLEX if it comes
        out negative."""
        if not 0 <= i < len(self.terms) or not self.dims[i]:
            return 0
        h = self.dims[i] - self.rank(i) - self.rank(i - 1)
        if h < 0:
            raise NotAComplex(f"{self.label}: negative cohomology dimension at degree {i}")
        return h

    def _image(self, i: int) -> np.ndarray:
        """The incoming differential of degree ``i``, whose columns span the
        coboundaries."""
        return self.diffs[i - 1] if i else xl.zeros_matrix(self.dims[0], 0)

    def representatives(self, i: int) -> np.ndarray:
        """Cocycles, as columns, whose classes are a basis of ``H^i``
        (empty outside the complex).

        They are the columns of the canonical kernel basis of
        :func:`~toricdef.exact_linalg.rank_and_kernel` that are pivots of
        ``[image | kernel]``: each kernel column independent of the image
        and of the kernel columns before it.  That choice, like the count
        of image pivots (the rank of the incoming differential, recorded
        here), depends only on the span of the image, so the whole incoming
        differential stands for it and is not eliminated on its own.
        """
        if not 0 <= i < len(self.terms):
            return xl.zeros_matrix(0, 0)
        if i not in self._reps:
            if i < len(self.diffs):
                self._ranks[i], kern = xl.rank_and_kernel(self.diffs[i])
            else:
                kern = xl.identity_matrix(self.dims[i])
            img = self._image(i)
            w = img.shape[1]
            pivots = xl.pivot_columns(np.concatenate([img, kern], axis=1))
            chosen = [c - w for c in pivots if c >= w]
            if i:
                self._ranks[i - 1] = len(pivots) - len(chosen)
            self._reps[i] = kern[:, chosen]
        return self._reps[i]

    def class_coordinates(self, i: int, cocycles: np.ndarray) -> np.ndarray:
        """Coordinates of the classes of ``cocycles`` (columns) in the basis
        of :meth:`representatives`; INVARIANT_VIOLATION if one of them is
        not a cocycle.  The coefficients on the representatives are unique
        because the representatives are independent modulo the image."""
        reps = self.representatives(i)
        h = reps.shape[1]
        if h == 0 or cocycles.shape[1] == 0:
            return xl.zeros_matrix(h, cocycles.shape[1])
        sol = xl.solve_matrix(np.concatenate([reps, self._image(i)], axis=1), cocycles)
        if sol is None:
            raise InvariantViolation("cocycle not in span of cohomology basis + boundaries")
        return sol[:h]


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
    """Assemble a labeled complex from per-degree ``(face_key, basis)`` lists
    and its nonzero blocks.

    ``blocks`` yields ``(degree, src_key, dst_key, matrix)``: the block of
    the differential out of ``degree`` from the block ``src_key`` to the
    block ``dst_key`` of the next degree.  A key that names no block of its
    degree, or a matrix of the wrong shape, raises INVARIANT_VIOLATION.  The
    blocks' nonzeros go into sparse ``{column: entry}`` rows, which become
    the public object matrices in one assignment each; every other entry is
    zero, and the result records the given pairs as ``pairs``.  Every pair
    of consecutive differentials is multiplied exactly on those rows, and a
    nonzero product raises NOT_A_COMPLEX.
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
    sparse = [[{} for _ in range(sum(b.size for b in layer))] for layer in terms[1:]]
    pairs = []
    for i, src, dst, m in blocks:
        sb = index[i].get(src) if 0 <= i < len(sparse) else None
        tb = index[i + 1].get(dst) if sb is not None else None
        if tb is None:
            raise InvariantViolation(f"{label}: no blocks {src!r} -> {dst!r} out of degree {i}")
        if m.shape != (tb.size, sb.size):
            raise InvariantViolation(
                f"{label}: block of shape {m.shape} between blocks of sizes {sb.size} and {tb.size}"
            )
        xl._write_block(sparse[i], tb.offset, sb.offset, m)
        pairs.append((i, src, dst))
    for i in range(len(sparse) - 1):
        if any(xl._sparse_product(sparse[i + 1], sparse[i])):
            raise NotAComplex(f"{label}: differential does not square to zero at degree {i}")
    diffs = tuple(xl._dense(rows, sum(b.size for b in terms[i])) for i, rows in enumerate(sparse))
    return LabeledComplex(label, tuple(terms), diffs, tuple(pairs))


def cohomology(cx: LabeledComplex) -> tuple[int, ...]:
    """Cohomology dimensions of a labeled complex, degree by degree."""
    return tuple(cx.h(i) for i in range(len(cx.terms)))


# ---------------------------------------------------------------------------
# complexes of cones and fans


def face_complex(label: str, poset: FacePoset, level: int, depth: int) -> LabeledComplex:
    """The level-``level`` complex of a face poset, in degrees ``0..depth-1``.

    Degree ``m <= level`` is the direct sum, over the faces in
    ``poset.faces_by_dim[m]``, of the ``(level-m)``-th exterior power of the
    annihilator spanned by the face's ``poset.perps`` rows; higher degrees
    are zero.  The differential contracts along each covering pair
    ``mu < tau`` with the pairing ``poset.covering_pairing(mu, tau)``, which
    every level shares; a pair with a zero-size block has no block, and no
    contraction is computed for it.
    """
    faces = [poset.faces_by_dim.get(m, ()) if m <= level else () for m in range(depth)]
    bases = {
        f.ray_indices: xl.ExteriorBasis(
            xl.SubspaceBasis(poset.width, poset.perps[f.ray_indices]), level - m
        )
        for m, layer in enumerate(faces)
        for f in layer
    }

    def blocks():
        for m in range(depth - 1):
            for tau in faces[m + 1]:
                dst = bases[tau.ray_indices]
                for mu in poset.covered_by(tau):
                    src = bases[mu.ray_indices]
                    if src.size and dst.size:
                        pairing = poset.covering_pairing(mu, tau)
                        yield m, mu.key, tau.key, xl.contraction_matrix(pairing, src, dst)

    layers = [[(f.key, bases[f.ray_indices]) for f in layer] for layer in faces]
    return assemble_complex(label, layers, blocks())


def ishida_cone(cone: Cone, l: int) -> LabeledComplex:
    """The level-``l`` complex of a cone, in intrinsic coordinates.

    The cone is treated as full-dimensional inside its own span lattice, so
    the annihilator of a face of dimension ``m`` has dimension ``dim - m``.
    """
    d = cone.dim
    if not 0 <= l <= d:
        raise ValidationError(f"level {l} outside 0..{d}")
    return face_complex(f"cone level {l}", face_lattice(cone), l, l + 1)


def ishida_fan(fan: Fan, l: int) -> LabeledComplex:
    """The level-``l`` complex of a fan in its ambient coordinates."""
    n = fan.rank
    if not 0 <= l <= n:
        raise ValidationError(f"level {l} outside 0..{n}")
    return face_complex(f"fan level {l}", fan, l, min(l, max(fan.faces_by_dim)) + 1)


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

    Only the cells that decide the value are computed.  Cell ``(l, i)``,
    degree ``i`` of the level-``l`` complex with ``0 <= i <= l <= d``, has
    value ``c = i + l - d <= d``.  The candidates ``c = d, d - 1, ..., 1``
    are tried in turn, each over its cells from ``l = d`` down; a level's
    complex is built when one of its cells is first needed, and each
    differential is ranked at most once (:meth:`LabeledComplex.rank`).  The
    first cell with nonzero cohomology has the largest value of all nonzero
    cells, since every cell of a larger value has been found zero, so it is
    the answer.  When none of the cells with ``c >= 1`` is nonzero, the
    inner maximum is at most 0 and the answer is 0.  Either way the value
    is the one the formula gives.
    """
    d = cone.dim
    if d == 0:
        return 0
    if shortcut_simplicial and is_simplicial(cone):
        return 0
    if not any(cohomology(ishida_cone(cone, 0))):
        raise InvariantViolation("the level-0 complex has no cohomology")
    levels: dict[int, LabeledComplex] = {}
    for c in range(d, 0, -1):
        for l in range(d, (c + d - 1) // 2, -1):
            i = c + d - l
            if l not in levels:
                levels[l] = ishida_cone(cone, l)
            if levels[l].h(i):
                return c
    return 0


def lcdef_faces(cone: Cone) -> list[tuple[Face, int]]:
    """The cone-level value :func:`lcdef_cone` of every face of a cone, in
    the order of the face lattice (by dimension, then rays); the last entry
    is the cone itself.  Faces are taken from the cone without re-running
    the facet search of :func:`cone_from_rays`."""
    return [(f, lcdef_cone(face_cone(cone, f))) for f in face_lattice(cone).all_faces]


def lcdef_variety(cone: Cone) -> int:
    """Local cohomological defect: the maximum of the cone-level value over
    all faces (every point of the associated space has a neighborhood
    modeled on one of the faces)."""
    return max(v for _, v in lcdef_faces(cone))


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
    sum with blocks labeled ``(j, copy, face_key)``.
    """
    d = cone.dim
    if not 0 <= l <= d:
        raise ValidationError(f"level {l} outside 0..{d}")
    face = _resolve_face(cone, tau)
    dt = face.dim
    codim = d - dt
    if not face.ray_indices:
        # the zero face: the graded piece is a single exterior power in degree 0
        base = xl.SubspaceBasis(d, tuple(tuple(1 if i == j else 0 for i in range(d)) for j in range(d)))
        layers = [[(("wedge", l), xl.ExteriorBasis(base, l))]]
        return assemble_complex(f"graded piece level {l} at zero face", layers, ())
    sub = face_cone(cone, face)

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

    blocks = (
        (i, (j, copy, s), (j, copy, t), inner.block_matrix(i, s, t))
        for j, copy, inner in pieces
        for i, s, t in inner.pairs
    )
    return assemble_complex(f"graded piece level {l} at {face.key}", layers, blocks)


def restricted_complex(cone: Cone, l: int, tau) -> LabeledComplex:
    """The sub-poset model of the graded piece: the level-``l`` complex built
    from the faces contained in ``tau`` but with annihilators taken inside
    the ambient cone's span.  Its cohomology agrees with
    :func:`graded_piece`; the test suite verifies this on samples."""
    d = cone.dim
    if not 0 <= l <= d:
        raise ValidationError(f"level {l} outside 0..{d}")
    face = _resolve_face(cone, tau)
    return face_complex(
        f"restricted level {l} at {face.key}",
        face_lattice(cone).below(face.ray_indices),
        l,
        min(l, face.dim) + 1,
    )
