"""Ishida complexes of cones and fans, their cohomology, and the local
cohomological defect.

The degree-``m`` term of the level-``l`` complex of a cone is the direct sum,
over faces of dimension ``m``, of the ``(l-m)``-th exterior power of the
face's annihilator in the dual space; the differential is the sum over
covering pairs of contraction with a lattice normal of the smaller face
inside the bigger one.  Contraction kills forms that vanish on the smaller
face, so the normal's ambiguity (an element of the smaller face's span
lattice) never reaches the matrices; the anticommutation of the two paths
through any 2-step interval of the face lattice makes the square of the
differential vanish, and the builder verifies this on every assembly by an
exact product of the sparse rows it assembles the differentials in.

One builder, :func:`face_complex`, makes every such complex from a
:class:`~toricdef.polyhedral.FacePoset`: the complexes of a cone (intrinsic
coordinates), of a fan (ambient coordinates), of the faces below a face, and
the three complexes of a divisor's lifted sequence.

:func:`lcdef_cone` computes only the cohomology the defect needs: it scans
the candidate values from the top, builds a level when one of its cells is
first needed, and stops at the first nonzero cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import exact_linalg as xl
from .errors import InvariantViolation, NotAComplex, ValidationError
from .polyhedral import Cone, Face, FacePoset, Fan, face_cone, face_lattice


@dataclass(frozen=True)
class Block:
    """One labeled summand of a term of a labeled complex."""

    face_key: tuple
    exterior_degree: int
    basis: xl.ExteriorBasis
    offset: int

    @property
    def size(self) -> int:
        return self.basis.size


@dataclass(frozen=True)
class LabeledComplex:
    """A cochain complex in nonnegative degrees with block-labeled terms."""

    label: str
    terms: tuple[tuple[Block, ...], ...]
    diffs: tuple[np.ndarray, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(
            (sum(b.size for b in layer)) for layer in self.terms
        )

    def block(self, degree: int, face_key) -> Block | None:
        for b in self.terms[degree]:
            if b.face_key == face_key:
                return b
        return None


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


def assemble_complex(label: str, layers, entry_fn) -> LabeledComplex:
    """Assemble a labeled complex from per-degree block lists and a block
    entry callback ``entry_fn(degree, src_block, dst_block) -> matrix|None``.

    Each block's nonzeros go into sparse ``{column: entry}`` rows, which
    become the public object matrices in one assignment each.  Every pair of
    consecutive differentials is multiplied exactly on those rows, and a
    nonzero product raises NOT_A_COMPLEX.
    """
    terms: list[tuple[Block, ...]] = []
    for layer in layers:
        off = 0
        row = []
        for fk, eb in layer:
            b = Block(fk, eb.degree, eb, off)
            row.append(b)
            off += b.size
        terms.append(tuple(row))
    live = [[b for b in layer if b.size] for layer in terms]
    sparse: list[list[dict]] = []
    for i in range(len(terms) - 1):
        rows: list[dict] = [{} for _ in range(sum(b.size for b in live[i + 1]))]
        for sb in live[i]:
            for tb in live[i + 1]:
                m = entry_fn(i, sb, tb)
                if m is None:
                    continue
                if m.shape != (tb.size, sb.size):
                    raise InvariantViolation(
                        f"{label}: block of shape {m.shape} between blocks of sizes {sb.size} and {tb.size}"
                    )
                for out, row in zip(rows[tb.offset :], m.tolist()):
                    for c, v in enumerate(row, start=sb.offset):
                        if v:
                            out[c] = v if type(v) is int else xl._as_int(v)
        sparse.append(rows)
    for i in range(len(sparse) - 1):
        if any(xl._sparse_product(sparse[i + 1], sparse[i])):
            raise NotAComplex(f"{label}: differential does not square to zero at degree {i}")
    diffs = tuple(xl._dense(rows, sum(b.size for b in terms[i])) for i, rows in enumerate(sparse))
    return LabeledComplex(label, tuple(terms), diffs)


def _cell(cx: LabeledComplex, i: int, rank) -> int:
    """Dimension of the degree-``i`` cohomology of ``cx``, given ``rank(k)``,
    the rank of the differential out of degree ``k`` (0 outside the
    complex); NOT_A_COMPLEX if it comes out negative."""
    h = cx.dims[i] - rank(i) - rank(i - 1)
    if h < 0:
        raise NotAComplex(f"{cx.label}: negative cohomology dimension at degree {i}")
    return h


def cohomology(cx: LabeledComplex) -> tuple[int, ...]:
    """Cohomology dimensions of a labeled complex, degree by degree."""
    ranks = [xl.matrix_rank(d) for d in cx.diffs]
    return tuple(
        _cell(cx, i, lambda k: ranks[k] if 0 <= k < len(ranks) else 0) for i in range(len(cx.terms))
    )


# ---------------------------------------------------------------------------
# complexes of cones and fans


def face_complex(label: str, poset: FacePoset, level: int, depth: int) -> LabeledComplex:
    """The level-``level`` complex of a face poset, in degrees ``0..depth-1``.

    Degree ``m <= level`` is the direct sum, over the faces in
    ``poset.faces_by_dim[m]``, of the ``(level-m)``-th exterior power of the
    annihilator spanned by the face's ``poset.perps`` rows; higher degrees
    are zero.  The differential contracts along each covering pair
    ``mu < tau`` with ``poset.covering_normal(mu, tau)``.
    """
    faces = {}
    layers = []
    for m in range(depth):
        layer = []
        for f in poset.faces_by_dim.get(m, ()) if m <= level else ():
            faces[f.key] = f
            basis = xl.SubspaceBasis(poset.width, poset.perps[f.ray_indices])
            layer.append((f.key, xl.ExteriorBasis(basis, level - m)))
        layers.append(layer)

    def entry(i, sb, tb):
        mu, tau = faces[sb.face_key], faces[tb.face_key]
        if not mu.ray_indices < tau.ray_indices:
            return None
        return xl.contraction_matrix(poset.covering_normal(mu, tau), sb.basis, tb.basis)

    return assemble_complex(label, layers, entry)


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
    rows = []
    for l in range(fan.rank + 1):
        cx = ishida_fan(fan, l)
        rows.append((l, cx.dims, cohomology(cx)))
    return CohomologyTable("fan", tuple(rows))


def cone_cohomology_table(cone: Cone) -> CohomologyTable:
    rows = []
    for l in range(cone.dim + 1):
        cx = ishida_cone(cone, l)
        rows.append((l, cx.dims, cohomology(cx)))
    return CohomologyTable("cone", tuple(rows))


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
    differential is ranked at most once.  The first cell with nonzero
    cohomology has the largest value of all nonzero cells, since every cell
    of a larger value has been found zero, so it is the answer.  When none
    of the cells with ``c >= 1`` is nonzero, the inner maximum is at most 0
    and the answer is 0.  Either way the value is the one the formula gives.
    """
    d = cone.dim
    if d == 0:
        return 0
    if shortcut_simplicial and is_simplicial(cone):
        return 0
    if not any(cohomology(ishida_cone(cone, 0))):
        raise InvariantViolation("the level-0 complex has no cohomology")
    levels: dict[int, LabeledComplex] = {}
    ranks: dict[tuple[int, int], int] = {}

    def rank(l: int, k: int) -> int:
        """Rank of the differential out of degree ``k`` at level ``l``."""
        diffs = levels[l].diffs
        if not 0 <= k < len(diffs):
            return 0
        if (l, k) not in ranks:
            ranks[l, k] = xl.matrix_rank(diffs[k])
        return ranks[l, k]

    for c in range(d, 0, -1):
        for l in range(d, (c + d - 1) // 2, -1):
            i = c + d - l
            if l not in levels:
                levels[l] = ishida_cone(cone, l)
            if levels[l].dims[i] and _cell(levels[l], i, lambda k: rank(l, k)):
                return c
    return 0


def lcdef_faces(cone: Cone, shortcut_simplicial: bool = True) -> list[tuple[Face, int]]:
    """The cone-level value :func:`lcdef_cone` of every face of a cone, in
    the order of the face lattice (by dimension, then rays); the last entry
    is the cone itself.  Faces are taken from the cone without re-running
    the LPs of :func:`cone_from_rays`."""
    return [
        (f, lcdef_cone(face_cone(cone, f), shortcut_simplicial=shortcut_simplicial))
        for f in face_lattice(cone).all_faces
    ]


def lcdef_variety(cone: Cone, shortcut_simplicial: bool = True) -> int:
    """Local cohomological defect: the maximum of the cone-level value over
    all faces (every point of the associated space has a neighborhood
    modeled on one of the faces)."""
    return max(v for _, v in lcdef_faces(cone, shortcut_simplicial=shortcut_simplicial))


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
        return assemble_complex(f"graded piece level {l} at zero face", layers, lambda *a: None)
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

    index = {(j, copy): inner for j, copy, inner in pieces}

    def entry(i, sb, tb):
        (js, cs, fks), (jt, ct, fkt) = sb.face_key, tb.face_key
        if (js, cs) != (jt, ct):
            return None
        inner = index[(js, cs)]
        s, t = inner.block(i, fks), inner.block(i + 1, fkt)
        return inner.diffs[i][t.offset : t.offset + t.size, s.offset : s.offset + s.size]

    return assemble_complex(f"graded piece level {l} at {face.key}", layers, entry)


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
