"""Rational polyhedral cones, face lattices, fans, and shellings.

Cones are given by extreme rays (primitive integer vectors), and no floating
point is involved anywhere.  A cone is built from its facets:
:func:`cone_from_rays` finds them once, by the double description on
integer rows (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda & Prodon
1996): ``d`` independent generators give a simplicial start, and each
further generator cuts the dual cone, joining only adjacent pairs of facet
normals, with a combinatorial adjacency test.  The work follows the number
of facets met on the way, not the ``(d-1)``-subsets of the generators.
With no LP, strong convexity is the rank of the facet normals, and a
generator is extreme iff the facets through it meet in it alone, a set
intersection (the proofs are in its docstring).  The remaining faces are
intersections of facets.

Lattice data is computed once per face, and only when read.  A face's
annihilator is one integer kernel of its rays
(:func:`toricdef.exact_linalg.integer_kernel_rows`, a one-sided unimodular
row elimination), and a fan computes it once per face, however many maximal
cones share it.  Its span lattice is the kernel of that, since the
saturation of a set of vectors is the kernel of their kernel
(Cox–Little–Schenck, *Toric Varieties*, 1.2).  A face is plain data and
keeps no span: :func:`cone_from_rays` and :func:`pyramid` take the top
face's once and keep it in the cone's hull, and :attr:`Face.span_rows`
takes one kernel on each read, which only those two and the face lattice of
a face cone make.
The intrinsic rows of :class:`FaceLattice` are coordinates and restrictions
of the ambient ones, with no further kernel (the two saturation facts are in
its docstring), and a cone made by :func:`face_cone`, memoized on its
parent, takes its whole lattice from the parent's lower interval.  A
:func:`pyramid` keeps its base and takes its facets and face data from it,
with no facet search: its faces are the base's faces and their joins with
the apex, whose annihilators are read off the base's (the proofs are in its
docstring), and its defect is read off the base's.  No Smith form is taken.

Cone lattices, fans and divisor hat lifts are all one :class:`FacePoset`.
:func:`fan_from_cones` validates a complete fan by its walls: each wall's
two cones lie on its two sides, shown by the wall's normal, checked with
integer dot products, and exactly one cone contains an interior point of
one of them, an exact count; the other pairs rest on these, with no
functional of their own (the proof is in its docstring).  Any other
collection, and any that this refuses, is validated pair by pair, by a
separating functional checked the same way: built from the two cones'
facet normals at their common face, or, where none of those candidates
separates, from the facet normals of the cone that the other rays span
modulo that face (:func:`_pair_functional`, Gordan's alternative), whose
normals of rank below its dimension prove the overlap.  No LP runs
anywhere; :func:`star_quotient` reads the quotient fan of an interior ray
off the cone's faces, and its rows off the cone's annihilators, with no
integer kernel.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import index, mul

from . import exact_linalg as xl
from .errors import (
    ApexInHyperplane,
    InvariantViolation,
    InvalidShelling,
    NotAPermutation,
    NotCovering,
    NotFullDim,
    NotInterior,
    NotStronglyConvex,
    ValidationError,
    WrongDimension,
    ZeroVector,
)


def _dot(u, v):
    return sum(map(mul, u, v))


def _ivec(v) -> tuple[int, ...]:
    """``v`` as a tuple of ints, each entry taken by
    :func:`toricdef.exact_linalg._as_int`: ints, numpy integers and integral
    Fractions; anything else is a VALIDATION_ERROR."""
    try:
        return tuple(map(xl._as_int, v))
    except ValueError:
        raise ValidationError(f"expected an integer vector, got {v!r}") from None


class Cone:
    """A strongly convex rational polyhedral cone, by extreme rays.

    Instances come out of :func:`cone_from_rays`, :func:`face_cone` and
    :func:`pyramid`; the constructor trusts its input.  ``rays`` keeps the
    order in which surviving input rays appeared, and all face bookkeeping
    refers to rays by index into this tuple.  ``_hull`` holds what :func:`cone_from_rays`
    found on the way: the top face, the rays' coordinates in its span rows,
    the ray sets of the facets and the span rows, which :class:`FaceLattice`
    and :func:`fan_from_cones` reuse (:func:`pyramid` reads them off the
    base's, and :func:`_hull` finds them for a cone built by the
    constructor).  A cone made by :func:`face_cone` remembers its
    parent and the face, so its lattice is the parent's lower interval.
    Face cones are memoized by ray set in ``_faces``, star quotients by
    their primitive interior ray in ``_quotients``, so a face cone, with
    its lattice and complexes, lives as long as its parent.  A cone made by
    :func:`pyramid` keeps its base in ``_base``, and its hull and face
    lattice come from the base's, with no facet search: its apex-free faces
    are the base's faces padded with a zero coordinate, with the same
    lattice data, the others their joins with the apex, and its defect is
    read off the base's (:func:`toricdef.ishida.lcdef_cone`).  A face cone
    of a pyramid through the apex, as :mod:`toricdef.ishida` takes it, is
    itself a pyramid, with the base's face cone on its other rays as
    ``_base``.
    """

    __slots__ = ("rank", "rays", "dim", "_hull", "_lattice", "_parent", "_base", "_faces", "_quotients")

    def __init__(self, rank: int, rays: tuple[tuple[int, ...], ...], dim: int):
        self.rank = rank
        self.rays = rays
        self.dim = dim
        self._hull = None
        self._lattice = None
        self._parent = None
        self._base = None
        self._faces: dict[frozenset[int], Cone] = {}
        self._quotients: dict[tuple[int, ...], tuple] = {}

    def __repr__(self) -> str:
        return f"Cone(rank={self.rank}, dim={self.dim}, rays={len(self.rays)})"


def cone_from_rays(vectors, rank: int | None = None) -> Cone:
    """Build a cone from integer generators.

    Generators are primitivized and deduplicated, non-extreme generators are
    dropped (the others keep their input order), and strong convexity is
    verified.  Raises ZERO_VECTOR on a zero generator and
    NOT_STRONGLY_CONVEX if the positive hull contains a line.

    No LP is run; both questions are read off the facets, found once in the
    coordinates of the generators' span lattice by :func:`_span_and_facets`
    and kept on the cone.  Let ``C`` be the cone, of dimension ``d`` in its
    span ``V``, and ``L = C ∩ -C`` its lineality space.

    * :func:`_facets` finds exactly the facets of ``C``.  Its normals are
      the extreme rays of the dual cone ``C^∨ = {u : u . g >= 0}`` over the
      generators ``g``, and the facets of ``C`` are the ``u^⊥ ∩ C`` for
      those rays (faces of ``C`` and ``C^∨`` correspond, with dimensions
      adding up to ``d``; Cox–Little–Schenck, *Toric Varieties*, 1.2).
      Let ``C_k^∨`` be the dual cone of the first ``k`` generators taken.
      The start takes ``d`` independent generators, so ``C_d^∨`` is
      simplicial, with the ``d`` signed minors of each ``d - 1`` of them as
      extreme rays.  From then on every ``C_k^∨`` is pointed, whether or
      not ``C`` has a lineality space: a line in it would vanish on ``d``
      independent generators.  Adding a generator ``g`` cuts ``C_k^∨`` by
      ``u . g >= 0``.  An extreme ray of the cut cone either is an extreme
      ray of ``C_k^∨`` with ``u . g >= 0``, or lies on ``u . g = 0`` in a
      2-face of ``C_k^∨`` whose two extreme rays ``u_p``, ``u_n`` take
      values ``s_p > 0 > s_n`` on ``g``, and is then ``s_p u_n - s_n u_p``.
      Two extreme rays of a pointed cone span a 2-face iff the generators
      on which both vanish have rank ``d - 2``, so at least ``d - 2`` of
      them, and iff no third extreme ray vanishes on all of those
      generators (the combinatorial test of Fukuda & Prodon, "Double
      description method revisited", 1996, Proposition 7).  So after the
      last generator the normals are exactly the extreme rays of ``C^∨``,
      each found once.
    * ``C`` is strongly convex iff the facet normals have rank ``d``.  If
      ``L != 0``, a facet normal ``u`` is ``>= 0`` on ``C``, which contains
      ``L = -L``, so ``u`` vanishes on ``L``: every normal lies in ``L^⊥``,
      of rank ``d - dim L < d``, and if ``C = V`` there is no facet at all.
      If ``L = 0``, the dual cone is full-dimensional and generated by the
      facet normals (Cox–Little–Schenck, *Toric Varieties*, 1.2), so they
      have rank ``d``.
    * In a strongly convex ``C`` every face is the intersection of the
      facets containing it.  A generator ``g`` lies in the relative interior
      of the least face ``F_g`` containing it, and the facets containing
      ``F_g`` are those through ``g``, so the generators on all of them are
      those in ``F_g``.  If ``g`` is extreme, ``F_g`` is its ray, on which no
      other primitive generator lies.  Otherwise ``F_g`` has dimension at
      least two and is generated by its generators, at least two of them
      extreme and so not ``g``.  So ``g`` is extreme iff it lies in a facet
      and the facets through it meet in ``g`` alone: a set intersection,
      with no rank (``m > d`` makes ``d >= 2``, since two distinct
      primitive generators of a line are opposite).

    ``m = d`` independent generators span a simplicial cone: it is strongly
    convex, every generator is extreme and the facets are the ``(d -
    1)``-subsets, so neither the double description nor the two tests
    runs.
    """
    vecs = [_ivec(v) for v in vectors]
    if not vecs:
        raise ValidationError("at least one generator is required")
    if rank is None:
        rank = len(vecs[0])
    if any(len(v) != rank for v in vecs):
        raise ValidationError("generators of mixed lengths")
    if any(not any(v) for v in vecs):
        raise ZeroVector("zero generator")
    prim = []
    for v in vecs:
        p = xl.primitive_vector(v)
        if p not in prim:
            prim.append(p)
    top, coords, facets, span = _span_and_facets(prim, rank)
    d = top.dim
    if len(prim) > d:
        if len(xl.hermite_rows(facets.values(), d)) < d:
            raise NotStronglyConvex("generators positively span a line")
        every = frozenset(range(len(prim)))
        keep = [i for i in range(len(prim)) if every.intersection(*(k for k in facets if i in k)) == {i}]
        if len(keep) < len(prim):
            pos = {i: j for j, i in enumerate(keep)}
            top = replace(top, ray_indices=frozenset(pos.values()))
            coords = tuple(coords[i] for i in keep)
            facets = {frozenset(pos[i] for i in k if i in pos): u for k, u in facets.items()}
            prim = [prim[i] for i in keep]
    cone = Cone(rank, tuple(prim), d)
    cone._hull = (top, coords, tuple(facets), span)
    return cone


@dataclass(frozen=True, slots=True)
class Face:
    """A face of a cone, identified by the set of extreme rays it contains.

    Plain data: equality and hash are over the three fields.  ``perp_rows``
    is the canonical Hermite basis of the saturated annihilator lattice in
    the dual, and ``dim`` is ``n - len(perp_rows)`` in ``Z^n``.
    ``span_rows`` is the canonical Hermite basis of the sublattice
    ``span(face) cap Z^n``, the integer kernel of ``perp_rows`` (the
    saturation of a set of vectors is the kernel of their kernel), taken on
    each read and not kept.  Only the hull of a cone or of a pyramid, for
    its top face, and the face lattice of a face cone read it; a cone's own
    top span is kept in its :func:`_hull`.
    """

    ray_indices: frozenset[int]
    dim: int
    perp_rows: tuple[tuple[int, ...], ...]

    @property
    def span_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(xl.integer_kernel_rows(self.perp_rows, self.dim + len(self.perp_rows)))

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.ray_indices))


def _ray_coords(span_rows, rays) -> tuple[tuple, ...]:
    coords = xl.coordinates(span_rows, rays)
    if coords is None:
        raise InvariantViolation("a ray leaves the saturated span of the rays")
    return tuple(tuple(x) for x in coords)


def _facets(ray_coords, d: int) -> dict[frozenset[int], tuple | None]:
    """The facets of the cone over ``m`` rays that span ``Q^d``, as ``{ray
    set: normal}``, by the double description (the proofs are in
    :func:`cone_from_rays`).  A normal is primitive and nonnegative on the
    rays, and it is checked to vanish on exactly its ray set.

    The ``d`` rays independent of those before them start it, with the
    signed minors of each ``d - 1`` of them as normals; each other ray, in
    input order, keeps the normals nonnegative on it and joins each
    adjacent pair of a positive and a negative normal across it.  Zero sets
    are bit masks over the rays taken so far.  The facets come ordered by
    their :func:`_least_basis`, so the face keys that :func:`_face_keys`
    builds by intersecting them, down to the order in which a key
    iterates, do not depend on the order in which the facets were found.
    ``m = d`` rays, independent since they span, give the ``d`` subsets of
    ``d - 1`` rays, whose normals nothing needs (None), with no minor."""
    m = len(ray_coords)
    if d == 0:
        return {}
    if m == d:
        return {frozenset(range(m)) - {i}: None for i in range(m)}
    start = _independent(ray_coords)
    normals = []
    for i in start:
        rest = [j for j in start if j != i]
        u = xl.primitive_vector(_minor_normal([ray_coords[j] for j in rest], d))
        if _dot(u, ray_coords[i]) < 0:
            u = tuple(-x for x in u)
        normals.append((u, sum(1 << j for j in rest)))
    for i, r in enumerate(ray_coords):
        if i in start:
            continue
        pos, neg, kept = [], [], []
        for u, z in normals:
            s = _dot(u, r)
            if s > 0:
                pos.append((u, z, s))
                kept.append((u, z))
            elif s < 0:
                neg.append((u, z, s))
            else:
                kept.append((u, z | 1 << i))
        masks = [z for _, z in normals]
        for up, zp, sp in pos:
            for un, zn, sn in neg:
                common = zp & zn
                if common.bit_count() >= d - 2 and sum(common & z == common for z in masks) == 2:
                    w = xl.primitive_vector([sp * a - sn * b for a, b in zip(un, up)])
                    kept.append((w, common | 1 << i))
        normals = kept
    facets = {}
    for u, z in normals:
        vals = [_dot(u, c) for c in ray_coords]
        key = frozenset(j for j, v in enumerate(vals) if v == 0)
        if min(vals) < 0 or key != {j for j in range(m) if z >> j & 1}:
            raise InvariantViolation("a facet normal is negative on a ray or off its facet")
        facets[key] = u
    return {k: facets[k] for k in sorted(facets, key=lambda k: _least_basis(k, ray_coords, d))}


def _least_basis(key, ray_coords, d: int) -> list[int]:
    """The lexicographically least set of ``d - 1`` independent rays among
    the rays ``key`` of a facet: each ray independent of the rays before it
    (the greedy basis of a matroid is its least)."""
    rays = sorted(key)
    if len(rays) == d - 1:
        return rays
    return [rays[j] for j in _independent([ray_coords[i] for i in rays])]


def _independent(vectors) -> list[int]:
    """The positions of the ``vectors`` independent of those before them."""
    return xl.pivot_columns(xl.Matrix.from_dense(zip(*vectors), len(vectors)))


def _minor_normal(rows, d: int) -> tuple[int, ...]:
    """The signed maximal minors of ``d - 1`` rows of length ``d``, which
    span the kernel of the matrix when they are not all zero."""
    return tuple((-1) ** j * xl.integer_det([r[:j] + r[j + 1:] for r in rows]) for j in range(d))


def _face_keys(facets, m: int) -> set[frozenset[int]]:
    """Ray sets of all faces of a cone with ``m`` rays: the ``facets``,
    their intersections, the cone itself and the zero face."""
    keys = {frozenset(range(m)), frozenset()}
    keys.update(facets)
    queue = list(facets)
    while queue:
        a = queue.pop()
        for b in facets:
            c = a & b
            if c not in keys:
                keys.add(c)
                queue.append(c)
    return keys


def _lattice_face(key: frozenset[int], gens, n: int) -> Face:
    """The face ``key`` spanned by ``gens`` in ``Z^n``: its annihilator is one
    integer kernel of the rays, of rank ``n - dim``; its span lattice, the
    kernel of that, is taken only where ``Face.span_rows`` is read."""
    perp = tuple(xl.integer_kernel_rows(gens, n))
    return Face(key, n - len(perp), perp)


def _span_and_facets(gens, n: int) -> tuple:
    """``(top, coords, facets, span)`` of the cone over ``gens`` in ``Z^n``:
    the top face, the generators' coordinates in its span rows,
    :func:`_facets` in those coordinates and the span rows themselves."""
    top = _lattice_face(frozenset(range(len(gens))), gens, n)
    span = top.span_rows
    coords = _ray_coords(span, gens)
    return top, coords, _facets(coords, top.dim), span


def _hull(cone: Cone) -> tuple:
    """``cone._hull``, ``(top, coords, facet keys, span)``: the top face,
    the rays' coordinates in the span rows of the top face, the ray sets of
    the facets and those span rows, which are kept here and not on the
    face.  Found by :func:`_span_and_facets` for a cone built by the
    constructor, whose rays it trusts to be extreme."""
    if cone._hull is None:
        top, coords, facets, span = _span_and_facets(cone.rays, cone.rank)
        cone._hull = (top, coords, tuple(facets), span)
    return cone._hull


def _cone_faces(cone: Cone, labels, known: dict) -> list[Face]:
    """The faces of ``cone`` from its :func:`_hull`, with no facet search.
    A face is keyed by the ``labels`` of its rays and looked up in, or
    added to, ``known``; the top face's rows are the hull's."""
    top, _, facets, _ = _hull(cone)
    rays = cone.rays

    def face(local) -> Face:
        key = frozenset(labels[i] for i in local)
        if key not in known:
            known[key] = _lattice_face(key, [rays[i] for i in sorted(local)], cone.rank)
        return known[key]

    whole = frozenset(labels)
    known.setdefault(whole, replace(top, ray_indices=whole))
    return [face(k) for k in _face_keys(facets, len(rays))]


def _lower_interval(parent: "FaceLattice", key: frozenset[int]) -> tuple:
    """``(span_rows, faces)`` of the face ``key`` of ``parent`` as a cone of
    its own: the faces below it, re-keyed to the positions of their rays in
    the face, sharing the parent's ambient rows.  Only the span of ``key``
    itself is taken, one integer kernel."""
    local = {g: i for i, g in enumerate(sorted(key))}
    faces = [
        replace(f, ray_indices=frozenset(local[i] for i in f.ray_indices))
        for f in parent.by_key.values()
        if f.ray_indices <= key
    ]
    return parent.by_key[key].span_rows, faces


class FacePoset:
    """Faces graded by dimension, with lattice data in ``width`` coordinates.

    ``by_key`` maps a face's ray set to its :class:`Face`, in the order given;
    ``faces_by_dim`` lists each dimension's faces by key.  ``perps`` maps a
    ray set to the Hermite basis of the face's annihilator, and ``rays``
    holds the ray vectors, both in the poset's coordinates.  Nothing reads a
    face's span lattice in these coordinates; it is the kernel of its
    ``perps`` rows.  A cone's lattice (intrinsic), a fan (ambient), the faces
    below a face and a divisor's hat lift (one coordinate more) are posets,
    and :func:`toricdef.ishida.face_complex` builds the complexes of any
    one, memoized here by level next to the covering pairs and pairings.
    :meth:`basis` gives each face's ``perps`` rows as one validated
    :class:`~toricdef.exact_linalg.SubspaceBasis`, memoized next to the
    pairings, so a face's pivots are found once however many blocks and
    pairings use it.
    """

    def __init__(self, width: int, faces, perps, rays):
        self.width = width
        self.by_key: dict[frozenset[int], Face] = {f.ray_indices: f for f in faces}
        ordered = sorted(self.by_key.values(), key=lambda f: (f.dim, f.key))
        self.faces_by_dim: dict[int, tuple[Face, ...]] = {
            m: tuple(f for f in ordered if f.dim == m) for m in range(ordered[-1].dim + 1)
        }
        self.perps: dict[frozenset[int], tuple] = perps
        self.rays = rays
        self._pairings: dict[tuple, xl.Pairing] = {}
        self._bases: dict[frozenset[int], xl.SubspaceBasis] = {}
        self._covered: dict[frozenset[int], tuple[Face, ...]] = {}
        self._complexes: dict = {}

    @property
    def all_faces(self) -> list[Face]:
        return [f for fs in self.faces_by_dim.values() for f in fs]

    def depth(self, level: int) -> int:
        """Degrees of the level-``level`` complex: ``min(level, top dimension) + 1``."""
        return min(level + 1, len(self.faces_by_dim))

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(self.faces_by_dim.get(m, ())) for m in range(self.width + 1))

    def covered_by(self, f: Face) -> tuple[Face, ...]:
        """Faces of one dimension less contained in ``f`` (memoized)."""
        key = f.ray_indices
        if key not in self._covered:
            self._covered[key] = tuple(
                g for g in self.faces_by_dim.get(f.dim - 1, ()) if g.ray_indices < key
            )
        return self._covered[key]

    def basis(self, key: frozenset[int]) -> xl.SubspaceBasis:
        """The rows ``perps[key]`` as a
        :class:`~toricdef.exact_linalg.SubspaceBasis`, validated and
        pivoted once (memoized, shared with :meth:`below`)."""
        if key not in self._bases:
            self._bases[key] = xl.SubspaceBasis(self.width, self.perps[key])
        return self._bases[key]

    def covering_pairing(self, mu: Face, tau: Face) -> xl.Pairing:
        """The contraction data of a covering pair ``mu < tau``: the
        pairings ``p_i = <n, a_i>`` of a normal ``n`` of ``mu`` in ``tau``
        with the rows ``a_i`` of ``perps[mu]``, as an
        :class:`~toricdef.exact_linalg.Pairing` into :meth:`basis` of
        ``tau`` (memoized, shared with :meth:`below`).

        ``p`` is read off one ray ``v`` of ``tau`` not in ``mu``, as the
        primitive vector of the ``<v, a_i>``.  The span lattice of ``tau``
        is that of ``mu`` plus ``Z n``, and ``v`` lies on the positive side,
        so ``v = c n + s`` with ``c > 0`` and ``s`` in the span of ``mu``,
        which every ``a_i`` kills: ``<v, a_i> = c p_i``.  The ``p_i`` have
        gcd 1: the span lattice of ``mu`` is saturated, so the ``a_i``, a
        basis of its annihilator, are coordinates on the free quotient by
        it, in which ``n`` is primitive because the span lattice of ``tau``
        is saturated too.  So ``p`` is the primitive vector, whichever
        normal ``n`` (defined modulo the span of ``mu``) is taken.  Every
        other ray of ``tau`` not in ``mu`` must give a positive multiple of
        ``p``, that is the same primitive vector, else NOT_COVERING.
        """
        key = (mu.ray_indices, tau.ray_indices)
        if key not in self._pairings:
            perp = self.perps[mu.ray_indices]
            rays = (self.rays[i] for i in sorted(tau.ray_indices - mu.ray_indices))
            qs = ([_dot(v, a) for a in perp] for v in rays)
            ps = {xl.primitive_vector(q) if any(q) else None for q in qs}
            if len(ps) != 1 or None in ps:
                raise NotCovering(f"the rays of {tau.key} outside {mu.key} fix no positive side of it")
            self._pairings[key] = xl.pairing(ps.pop(), perp, self.basis(tau.ray_indices))
        return self._pairings[key]

    def below(self, key: frozenset[int]) -> "FacePoset":
        """The faces contained in the face ``key``, with this poset's rows,
        bases, covering pairs and covering pairings."""
        faces = [f for f in self.by_key.values() if f.ray_indices <= key]
        out = FacePoset(self.width, faces, self.perps, self.rays)
        out._covered = self._covered
        out._pairings = self._pairings
        out._bases = self._bases
        return out


class FaceLattice(FacePoset):
    """All faces of a cone, graded by dimension, with covering relations.

    Besides the ambient data stored on each :class:`Face`, the lattice keeps
    an intrinsic coordinate system (a lattice basis ``span_rows`` of the
    cone's span) in which the cone is full-dimensional; the poset's rows,
    facet inequalities, interiority tests and shellings live there.

    Where each row comes from:

    * The faces are the intersections of the facets that
      :func:`cone_from_rays` found and kept on the cone; no facet search
      runs here.
    * ``Face.perp_rows`` is one integer kernel of the face's rays.
      ``span_rows`` of the lattice, the top face's span, is the one that
      :func:`cone_from_rays` took and kept in the cone's :func:`_hull`.  A
      cone made by :func:`face_cone` takes its faces from its parent's
      faces below it and its span from ``Face.span_rows`` of its own top
      face, one integer kernel.
    * A cone made by :func:`pyramid` takes two faces from each face of its
      base's lattice, the padded face and its join with the apex, whose
      rows are read off the base face's (:func:`_pyramid_faces`), and its
      span from the hull that :func:`pyramid` made: no facet search and no
      integer kernel of rays.
    * ``rays`` are the rays' coordinates in ``span_rows``.
    * ``perps`` are Hermite bases of each face's ``perp_rows`` restricted
      to ``span_rows``.  Restriction ``Hom(Z^n, Z) -> Hom(L, Z)`` is onto
      because the span lattice ``L`` is saturated, and a functional on ``L``
      vanishing on the face extends to one on ``Z^n`` that still vanishes on
      it, so the restrictions generate the whole annihilator.  For a
      full-dimensional cone ``span_rows`` is the standard basis: restriction
      changes nothing and the ``perp_rows`` are Hermite bases already, so
      they are taken as they are.
    * ``facet_normals`` maps each facet to its one ``perps`` row, signed to
      be positive on the rays.
    """

    def __init__(self, cone: Cone):
        self.cone = cone
        d = cone.dim
        if cone._parent is None:
            _, ray_coords, _, span_rows = _hull(cone)
            if cone._base is None:
                faces = _cone_faces(cone, range(len(cone.rays)), {})
            else:
                faces = _pyramid_faces(cone)
        else:
            parent, key = cone._parent
            span_rows, faces = _lower_interval(face_lattice(parent), key)
            ray_coords = _ray_coords(span_rows, cone.rays)
        self.span_rows = span_rows
        faces.sort(key=lambda f: (f.dim, f.key))
        super().__init__(d, faces, {}, ray_coords)
        for f in faces:
            if d == cone.rank:  # span_rows is the standard basis
                self.perps[f.ray_indices] = f.perp_rows
            else:
                restricted = [[_dot(p, b) for b in span_rows] for p in f.perp_rows]
                self.perps[f.ray_indices] = tuple(xl.hermite_rows(restricted, d))
        everything = frozenset(range(len(ray_coords)))
        self.facet_normals: dict[frozenset[int], tuple[int, ...]] = {
            f.ray_indices: _facet_normal(self.perps[f.ray_indices], ray_coords[min(everything - f.ray_indices)])
            for f in self.faces_by_dim.get(d - 1, ())
        }

        self._shell_memo: dict[tuple, bool] = {}

    # -- queries ----------------------------------------------------------

    def top(self) -> Face:
        return self.by_key[frozenset(range(len(self.cone.rays)))]

    def meet(self, f: Face, g: Face) -> Face:
        return self.by_key[f.ray_indices & g.ray_indices]

    def check_diamond(self) -> bool:
        """Every 2-step interval in the lattice has exactly two midpoints."""
        return all(
            sum(lo.ray_indices <= g.ray_indices <= hi.ray_indices for g in self.faces_by_dim[lo.dim + 1])
            == 2
            for lo in self.all_faces
            for hi in self.faces_by_dim.get(lo.dim + 2, ())
            if lo.ray_indices <= hi.ray_indices
        )

    def interior_coords(self, v) -> list | None:
        """Intrinsic coordinates of ``v`` if it lies in the cone's span."""
        x = xl.coordinates(self.span_rows, [v])
        return None if x is None else x[0]

    def is_interior(self, v) -> bool:
        """Strict relative interiority of an ambient vector."""
        cs = self.interior_coords(v)
        if cs is None:
            return False
        if self.cone.dim == 0:
            return all(x == 0 for x in v)
        return all(_dot(g, cs) > 0 for g in self.facet_normals.values())


def face_lattice(cone: Cone) -> FaceLattice:
    """The (cached) face lattice of a cone."""
    if cone._lattice is None:
        cone._lattice = FaceLattice(cone)
    return cone._lattice


def face_cone(cone: Cone, face: Face) -> Cone:
    """A face of ``cone`` as a cone of its own, without re-running the facet
    search of :func:`cone_from_rays`: the face's rays are already primitive, distinct
    and extreme, in the order of ``cone.rays``.  Its face lattice is the
    lower interval of the parent's, with no facet search and no kernel but
    the face's own span.  The top face is ``cone``; every other face cone is
    memoized on ``cone`` by its ray set, so it is built once."""
    key = face.ray_indices
    if len(key) == len(cone.rays):
        return cone
    if key not in cone._faces:
        sub = Cone(cone.rank, tuple(cone.rays[i] for i in sorted(key)), face.dim)
        sub._parent = (cone, key)
        cone._faces[key] = sub
    return cone._faces[key]


def pyramid(cone: Cone, apex) -> Cone:
    """The join of a cone (embedded at extra coordinate zero) with an apex
    ray; the apex must leave the original hyperplane.

    The result's rays are the base's rays padded with a zero coordinate, in
    their order, then the primitive apex, and it keeps the base as
    ``_base``.  Its hull and its face lattice come from the base's, with no
    facet search and no integer kernel of rays: the hull here, whose top
    span is one integer kernel, and the faces in :func:`_pyramid_faces`.
    Let the base ``sigma`` have dimension ``d`` in ``Z^n`` and ``m`` rays
    ``v_i``, and let the apex, of index ``m``, be ``a = (a', c)``, ``c !=
    0``.

    * *The rays.*  ``e``, the last unit row times ``c``, is ``>= 0`` on the
      pyramid ``P`` and vanishes exactly on the padded base.  If ``x`` and
      ``-x`` lie in ``P``, ``x = (y, 0) + s a`` and ``-x = (y', 0) + s' a``
      with ``s, s' >= 0`` and ``y, y'`` in ``sigma``; the last coordinates
      give ``(s + s') c = 0``, so ``s = s' = 0`` and ``y = -y'`` lies in
      ``sigma ∩ -sigma = 0``: ``P`` is strongly convex.  The padded base is
      the face cut out by ``e``, so its extreme rays, the padded ``v_i``,
      are extreme in ``P``.  A ``w`` positive on every ``v_i`` exists
      (``sigma`` is strongly convex), and ``(w, -w . a' / c)`` is positive
      on each padded ray and zero on ``a``, so the apex is extreme too.  The
      rays are primitive and distinct, so they are exactly the extreme
      rays, and ``dim P = d + 1``, since ``a`` leaves the span of the
      padded base.
    * *The faces.*  A functional ``u >= 0`` on ``sigma`` that vanishes
      exactly on a face ``F`` gives ``(u, t)``, zero exactly on the padded
      ``F'`` when ``u . a' + t c = 1`` and on ``F ∨ a``, the join of ``F``
      with the apex, when ``u . a' + t c = 0``.  Conversely a face ``G`` of ``P``
      meets the padded base in a face of it, the padded ``F`` on the rays of
      ``G`` but the apex, and ``G`` is spanned by its rays, so it is ``F'``
      or ``F ∨ a``.  So the faces are the ``F'`` and ``F ∨ a`` over the
      faces ``F`` of the base, of dimensions ``dim F`` and ``dim F + 1``
      (Ziegler, *Lectures on Polytopes*, 2.4), and the facets are the padded
      base and the ``F ∨ a`` over the base's facets.  ``P`` is simplicial
      iff the base is (``m + 1 = d + 1``), and the facets keep the order of
      :func:`_facets`: the canonical one of the ``d``-subsets then, else by
      :func:`_least_basis`.
    * *The annihilators.*  That of ``F'`` in ``Z^(n+1)`` is ``{(u, t) : u
      . F = 0}``: the Hermite rows ``p_j`` of ``F``'s padded with 0, then
      the last unit row, which is a Hermite basis as it stands (the last
      column is a new pivot, with zeros above it).  That of ``F ∨ a`` is
      ``{(u, t) : u . F = 0, u . a' + t c = 0}``.  Writing ``u = sum l_j
      p_j``, over a basis of the saturated annihilator of ``F``, these are
      the images of the ``(l, t)`` in the kernel of the one functional
      ``(p_1 . a', ..., p_k . a', c)`` on ``Z^(k+1)`` under ``(l, t) ->
      (sum l_j p_j, t)``, which is injective and onto the annihilator, a
      saturated lattice.  When ``c`` divides every ``p_j . a'`` (always for
      ``c = ±1``), the kernel has the basis ``(e_j, -p_j . a' / c)``, so the
      rows ``(p_j, -p_j . a' / c)`` are a basis, and a Hermite one: their
      pivots, and every entry in a pivot column, are the ``p_j``'s, and the
      last column holds no pivot.  Otherwise let ``w`` be the functional
      divided by the gcd of its entries, which has the same kernel, and
      ``U`` the unimodular matrix with ``U w = e_1`` of
      :func:`~toricdef.exact_linalg._unit_column`.  Row ``j`` of ``U``
      pairs with ``w`` to the ``j``-th entry of ``e_1``, so the rows after
      the first lie in the kernel, and they are a basis of it: the rows of
      ``U`` are a basis of ``Z^(k+1)``, and an ``x = sum y_j U_j`` in the
      kernel has ``y_1 = w . x = 0``.  Their images are put in Hermite form
      once, by :func:`~toricdef.exact_linalg.hermite_rows`.
      The top face is ``sigma ∨ a``, whose span rows are one integer kernel
      of its rows and in which the rays' coordinates are solved once.

    Each derived face is checked where :func:`_pyramid_faces` builds it:
    every row of an ``F ∨ a`` vanishes on its rays, every facet has a row
    that is ``>= 0`` (or ``<= 0``) on the rays and zero exactly on its own,
    as :func:`_facets` certifies its normals, and the facets are those of
    the hull; a failure raises INVARIANT_VIOLATION.

    A face of the pyramid that misses the apex has the same face lattice
    data as the base's face on the same ray indices, so its complexes can
    be taken from the base:

    * The span lattice of a padded face ``F'`` is that of ``F`` padded,
      ``{(x, 0) : x in span(F) cap Z^n}``.  Appending a zero column to a
      Hermite basis keeps it a Hermite basis, with the same pivots and
      reduced entries, and the Hermite basis of a lattice is unique, so the
      span rows of ``F'`` are those of ``F`` padded and the rays have the
      same coordinates in them.
    * The faces below ``F'`` are the padded faces below ``F``, on the same
      ray sets, so the same local keys.  The annihilator of a padded face
      ``G'`` pairs with the padded span rows ``(b, 0)`` of ``F'`` as that
      of ``G`` pairs with ``b``: the same restricted rows, so the same
      Hermite basis ``perps``.  (Where ``F`` is a full-dimensional base, its
      ``perps`` are its Hermite ``perp_rows``, the restrictions to the
      standard basis.)

    So the two face cones have the same dimension, faces, keys, ``perps``
    and ray coordinates: every datum :func:`toricdef.ishida.face_complex`
    reads, so the same complexes.
    """
    apex = _ivec(apex)
    if len(apex) != cone.rank + 1:
        raise ValidationError("apex must live in one more coordinate")
    if apex[-1] == 0:
        raise ApexInHyperplane("apex lies in the original hyperplane")
    rays = tuple(r + (0,) for r in cone.rays) + (xl.primitive_vector(apex),)
    base_top, _, base_facets, _ = _hull(cone)
    top = _apex_face(base_top, rays)
    span = top.span_rows
    coords = _ray_coords(span, rays)
    m, d = len(cone.rays), top.dim
    if m + 1 == d:
        facets = [frozenset(range(m + 1)) - {i} for i in range(m + 1)]
    else:
        facets = [frozenset(range(m))] + [k | {m} for k in base_facets]
        facets.sort(key=lambda k: _least_basis(k, coords, d))
    out = Cone(cone.rank + 1, rays, d)
    out._hull = (top, coords, tuple(facets), span)
    out._base = cone
    return out


def _apex_face(face: Face, rays) -> Face:
    """``F ∨ a``, the join of a base face ``F`` with the apex ``a``, the last
    of the pyramid's ``rays``: its annihilator read off ``F``'s (the proof
    is in :func:`pyramid`), each row checked to vanish on its rays."""
    *head, c = rays[-1]
    values = [_dot(p, head) for p in face.perp_rows]
    if all(s % c == 0 for s in values):
        perp = tuple(p + (-(s // c),) for p, s in zip(face.perp_rows, values))
    else:
        padded = [p + (0,) for p in face.perp_rows] + [(0,) * len(head) + (1,)]
        kernel = xl._unit_column(xl.primitive_vector(values + [c]))[1:]
        perp = tuple(xl.hermite_rows([[_dot(k, col) for col in zip(*padded)] for k in kernel], len(head) + 1))
    key = face.ray_indices | {len(rays) - 1}
    if any(_dot(p, rays[i]) for p in perp for i in key):
        raise InvariantViolation("an apex face row does not vanish on the face's rays")
    return Face(key, face.dim + 1, perp)


def _pyramid_faces(pyr: Cone) -> list[Face]:
    """The faces of a pyramid from its base's face lattice, with no integer
    kernel of rays: each base face ``F`` gives the padded ``F'``, its rows
    padded with 0 and then the last unit row, and ``F ∨ a``
    (:func:`_apex_face`; the base's top gives the hull's top).  The facets
    among them are certified as :func:`_facets` certifies its normals and
    must be the hull's (the proofs are in :func:`pyramid`)."""
    top, _, facets, _ = _hull(pyr)
    rays = pyr.rays
    unit = ((0,) * (pyr.rank - 1) + (1,),)
    faces = []
    for f in face_lattice(pyr._base).all_faces:
        faces.append(Face(f.ray_indices, f.dim, tuple(p + (0,) for p in f.perp_rows) + unit))
        faces.append(top if len(f.ray_indices) + 1 == len(rays) else _apex_face(f, rays))
    derived = [f for f in faces if f.dim == pyr.dim - 1]
    for f in derived:
        if not any(_supports(p, rays, f.ray_indices) for p in f.perp_rows):
            raise InvariantViolation(f"no row of the pyramid's facet {f.key} supports it")
    if {f.ray_indices for f in derived} != set(facets):
        raise InvariantViolation("the pyramid's faces of codimension one are not its hull's facets")
    return faces


def _supports(u, rays, key) -> bool:
    """Is ``u`` ``>= 0`` (or ``<= 0``) on the ``rays`` and zero exactly on
    those in ``key``?"""
    values = [_dot(u, r) for r in rays]
    return (min(values) >= 0 or max(values) <= 0) and {i for i, v in enumerate(values) if v == 0} == key


# ---------------------------------------------------------------------------
# fans


class Fan(FacePoset):
    """A fan: primitive rays plus maximal cones given by ray-index sets, and
    the faces of all maximal cones as one poset in ambient coordinates.

    :func:`fan_from_cones` builds a fan from its maximal cones and verifies
    exactly that any two of them meet in a common face.  A complete fan is
    accepted by its walls: each wall's two cones get a separating functional,
    the wall's own normal, checked by integer dot products, and one exact
    count over an interior point of one cone proves the rest.  Any other
    collection gets such a functional for every pair of maximal cones, made
    from facet normals, with no LP.  :func:`star_quotient` builds the
    quotient fan of an interior ray from the cone's own faces, a fan by
    construction.
    """

    def __init__(self, rank, rays, maximal, faces):
        super().__init__(rank, faces, {f.ray_indices: f.perp_rows for f in faces}, rays)
        self.rank = rank
        self.maximal = maximal
        self._complete = None
        # the tilde bases of the divisor lifts, one per face, shared by every divisor on the fan
        self._tilde: dict[frozenset[int], xl.SubspaceBasis] = {}

    def __repr__(self) -> str:
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, maximal={len(self.maximal)})"

    def is_complete(self) -> bool:
        """Does the support cover the whole space?  Exact: every maximal cone
        is full-dimensional and every wall lies in exactly two maximal cones,
        the count of :func:`_wall_pairs`.  :func:`fan_from_cones` makes that
        count from its cones' facets and keeps the answer; a fan built
        otherwise counts the covering pairs of its maximal faces once.

        These conditions suffice.  Let ``S`` be the union of the cones of
        codimension at least two; its complement is connected.  A point of
        the support outside ``S`` lies in the interior of a maximal cone or
        in the relative interior of a wall, and the two maximal cones on a
        wall lie on opposite sides of it, because the cones of a fan meet
        only in a common face; either way a neighbourhood of the point lies
        in the support.  So the support minus ``S`` is open and closed in the
        complement of ``S`` and nonempty, hence all of it, and the support,
        being closed, is the whole space.  Fan validation rejects a listed
        cone that is a face of another, a cone listed twice included (its
        walls would count twice), and a quotient fan's maximal cones are the
        cone's distinct facets, so the conditions are necessary as well: a
        wall in only one maximal cone has uncovered points right across it.
        """
        if self._complete is None:
            tops = [self.by_key[frozenset(k)] for k in self.maximal]
            walls = [[g.ray_indices for g in self.covered_by(f)] if f.dim == self.rank else None for f in tops]
            self._complete = _wall_pairs(walls) is not None
        return self._complete


def fan_from_cones(rays, maximal_sets, rank: int | None = None) -> Fan:
    """Assemble a fan from shared rays and maximal cones (ray-index lists),
    validating each cone, and that any two cones meet in a common face,
    exactly.

    Two cones ``σ``, ``σ'`` sharing the face ``τ`` meet only in ``τ`` iff a
    functional ``u`` vanishes on ``τ``, is positive on the other rays of
    ``σ`` and negative on those of ``σ'`` (separation lemma, Cox–Little–
    Schenck, *Toric Varieties*, 1.2.13).  Such a ``u`` is always checked by
    :func:`_check_separation` with integer dot products.

    **The wall path.**  When every maximal cone is full-dimensional and
    every wall (a facet, as a ray set) is a facet of exactly two of them,
    the count of :meth:`Fan.is_complete`, :func:`_walls_decide` checks each
    wall: its normal, signed positive on one cone, is negative on the
    other's rays off it, a ``u`` for that pair.  So the two cones share
    exactly the wall's rays: a shared ray off it would be a ray of the first
    cone off its facet, where ``u`` is positive.  It then takes ``p``, the
    sum of the rays of the first maximal cone, which is interior to that
    cone (each facet normal is positive on a ray off the facet), and counts
    the cones whose signed wall normals are all nonnegative at ``p``, that
    is the cones that contain ``p``.  If the count is 1, the cones are a
    complete fan ("pseudomanifold plus one point", De Loera, Rambau &
    Santos, *Triangulations*, 2010, ch. 4, here for cones that need not be
    simplicial):

    (i) *The interiors are disjoint and cover the space.*  Let ``X`` be the
    space minus the faces of codimension at least two of all the cones.  It
    holds the complement of finitely many linear subspaces of codimension at
    least two, which is connected and dense, so it is connected.  For ``x``
    in ``X`` let ``N(x)`` count the cones with ``x`` in their interior, plus
    one half for each cone with ``x`` in the relative interior of a facet.
    A cone contributes a constant near ``x`` unless ``x`` is in the relative
    interior of one of its facets; that facet is a facet of exactly one
    other cone, on its other side, and near ``x`` the two cones are the two
    closed half-spaces of the facet, so together they contribute 1.  So
    ``N`` is locally constant, hence constant on ``X``.  ``p`` lies in one
    cone only, in its interior, so ``N(p) = 1``.  Two cones whose interiors
    met would give ``N >= 2`` on an open set, which meets ``X`` off the
    walls.  The cones contain the dense set of points of ``X`` off the
    walls, where ``N = 1``, and their union is closed, so it is the space.

    (ii) *Two cones meet in a common face.*  Call a finite set of
    full-dimensional polyhedral cones, lines allowed, with disjoint
    interiors and every facet of each a facet of another, a *tiling*; the
    maximal cones are one, by (i).  In a tiling all cones have one
    lineality space.  A facet of ``A`` holds the lineality space of ``A``
    and lies in the neighbour ``B`` across it, so the lineality spaces of
    neighbours are equal.  And the neighbour graph is connected: the
    points of ``X`` (the tiling's own) in the cones of one component form a
    set that is open in ``X``, as in (i), and closed, so it is ``X``, and a
    cone outside the component would meet one of its cones in an open set.
    Now let ``x != 0`` lie in ``A ∩ B``.  Near ``x`` every cone looks like
    its tangent cone at ``x``, so the tangent cones of the cones through
    ``x``, modulo ``R x``, are a tiling one dimension lower.  Their
    lineality spaces are the spans of the minimal faces of the cones at
    ``x``, modulo ``R x``, so the minimal faces ``F_A(x)`` and ``F_B(x)``
    have one span.  They are then equal: else a segment from ``x`` into one
    of them, out of the other, leaves the other at a point ``w != 0`` of the
    first one's relative interior and of the other's relative boundary,
    where the minimal faces differ in dimension.  So for ``x`` in the
    relative interior of ``A ∩ B`` (or ``A ∩ B = 0``, the zero face), ``F =
    F_A(x) = F_B(x)`` is a face of both, and ``A ∩ B = F``, since a face of
    ``A`` that holds a relative interior point of the convex set ``A ∩ B``
    holds all of it.  That face's rays are the shared rays, which the pair
    loop would also find to be a face of both, with a separating ``u``.

    So the wall path accepts exactly what the pair loop accepts, with the
    same faces.  What weakens is the certificate: a pair of cones that
    shares no wall gets no functional of its own, and rests on the wall
    certificates and the degree count.

    **The pair loop**, :func:`_check_pairs`, runs on any other collection and
    whenever the wall path refuses, so an invalid input gets the first
    failing pair and its message, whichever path it reached.  For each pair,
    when both cones are full-dimensional, :func:`_separating_functional`
    tries three ``u`` built from their facet normals through ``τ``, which
    settle most pairs.  Otherwise, or when none of the three separates,
    :func:`_pair_functional` builds one from the facet normals of the cone
    that the other rays span modulo ``τ``, or proves that none exists.  Each
    pair gets the decision, and the first failing pair the message, that an
    LP deciding the pair would give.
    """
    rays = tuple(_ivec(r) for r in rays)
    if not rays:
        raise ValidationError("a fan needs at least one ray")
    if rank is None:
        rank = len(rays[0])
    for r in rays:
        if len(r) != rank:
            raise ValidationError("rays of mixed lengths")
        if not any(r):
            raise ZeroVector("zero ray")
        if r != xl.primitive_vector(r):
            raise ValidationError(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise ValidationError("duplicate rays")
    maximal = ()
    for s in map(tuple, maximal_sets):
        try:
            key = tuple(sorted(set(map(index, s))))
        except TypeError:
            raise ValidationError(f"cone {s!r} has a ray index that is not an integer") from None
        if any(i < 0 or i >= len(rays) for i in key):
            raise ValidationError("cone refers to a missing ray")
        maximal += (key,)
    if not maximal:
        raise ValidationError("a fan needs at least one maximal cone")

    by_key, cone_faces, walls = _cone_data(rays, maximal, rank)
    pairs = _wall_pairs(walls)
    if pairs is None or not _walls_decide(rays, maximal, walls, pairs):
        _check_pairs(rays, maximal, by_key, cone_faces, walls)
    fan = Fan(rank, rays, maximal, list(by_key.values()))
    fan._complete = pairs is not None
    return fan


def _cone_data(rays, maximal, rank) -> tuple[dict, list, list]:
    """``(by_key, cone_faces, walls)`` of validated rays and maximal ray-index
    tuples: every fan face by key, in the order of the cones' lattices, with
    its rows computed once, by the first cone that has it; each cone's face
    keys; and each cone's :func:`_signed_walls`, None where the cone is not
    full-dimensional."""
    known: dict[frozenset[int], Face] = {}
    by_key: dict[frozenset[int], Face] = {}
    cone_faces: list[set[frozenset[int]]] = []
    walls: list[dict | None] = []
    for s in maximal:
        sub = cone_from_rays([rays[i] for i in s], rank)
        if len(sub.rays) != len(s):
            raise ValidationError(f"cone {s} is not generated by extreme rays")
        faces = _cone_faces(sub, s, known)
        faces.sort(key=lambda f: (f.dim, f.key))  # by_key keeps the order of the cones' lattices
        for f in faces:
            by_key.setdefault(f.ray_indices, f)
        cone_faces.append({f.ray_indices for f in faces})
        walls.append(_signed_walls(faces, rays) if sub.dim == rank else None)
    return by_key, cone_faces, walls


def _wall_pairs(walls) -> dict[frozenset[int], list[int]] | None:
    """``{wall: [i, j]}``, the two maximal cones that have each wall as a
    facet, given each cone's facet keys (a :func:`_signed_walls` map, or
    None for a cone that is not full-dimensional); None unless every cone
    is full-dimensional and every wall lies in exactly two cones, the
    condition of :meth:`Fan.is_complete`."""
    on: dict[frozenset[int], list[int]] = {}
    for i, w in enumerate(walls):
        if w is None:
            return None
        for k in w:
            on.setdefault(k, []).append(i)
    return on if all(len(c) == 2 for c in on.values()) else None


def _walls_decide(rays, maximal, walls, pairs) -> bool:
    """The wall path of :func:`fan_from_cones` (the proof is there): True
    when every wall's two cones lie on its two sides, each such pair checked
    by :func:`_check_separation`, and exactly one cone contains the sum of
    the first cone's rays; False sends the fan to :func:`_check_pairs`."""
    for wall, (ia, ib) in pairs.items():
        out_a = [rays[i] for i in maximal[ia] if i not in wall]
        out_b = [rays[i] for i in maximal[ib] if i not in wall]
        u = _wall_functional(walls[ia][wall], out_b)
        if u is None:
            return False
        _check_separation(u, [rays[i] for i in wall], out_a, out_b)
    p = tuple(map(sum, zip(*(rays[i] for i in maximal[0]))))
    return sum(all(_dot(u, p) >= 0 for u in w.values()) for w in walls) == 1


def _wall_functional(u, out_b) -> tuple[int, ...] | None:
    """A wall's normal ``u``, signed positive on one of its two cones, if it
    is negative on ``out_b``, the other cone's rays off the wall; else None."""
    return u if all(_dot(u, r) < 0 for r in out_b) else None


def _check_pairs(rays, maximal, by_key, cone_faces, walls) -> None:
    """The pair loop of :func:`fan_from_cones`, on its :func:`_cone_data`:
    every two maximal cones share a face of both, neither is a face of the
    other, and a separating functional certifies that they meet only in
    it; the first pair that fails raises VALIDATION_ERROR."""
    for (ia, sa), (ib, sb) in itertools.combinations(enumerate(maximal), 2):
        common = frozenset(sa) & frozenset(sb)
        if common not in cone_faces[ia] or common not in cone_faces[ib]:
            raise ValidationError(
                f"cones {sa} and {sb} share rays {sorted(common)} but not a face"
            )
        if common == frozenset(sa) or common == frozenset(sb):
            raise ValidationError(f"cones {sa} and {sb}: one is a face of the other")
        out_a = [rays[i] for i in sa if i not in common]
        out_b = [rays[i] for i in sb if i not in common]
        u = None
        if walls[ia] is not None and walls[ib] is not None:
            u = _separating_functional(_through(walls[ia], common), _through(walls[ib], common), out_a, out_b)
        if u is None:
            u = _pair_functional(by_key[common].perp_rows, out_a, out_b)
            if u is None:
                raise ValidationError(f"cones {sa} and {sb} overlap beyond their common face")
        _check_separation(u, [rays[i] for i in common], out_a, out_b)


def _signed_walls(faces, rays) -> dict[frozenset[int], tuple[int, ...]]:
    """``{facet: normal}`` of a full-dimensional cone with the given faces:
    each facet's one annihilator row, signed to be positive on the cone."""
    top = max(faces, key=lambda f: f.dim)
    return {
        f.ray_indices: _facet_normal(f.perp_rows, rays[min(top.ray_indices - f.ray_indices)])
        for f in faces
        if f.dim == top.dim - 1
    }


def _facet_normal(perp, off) -> tuple[int, ...]:
    """A facet's one annihilator row in ``perp``, signed positive on
    ``off``, a ray of the cone off the facet; a facet normal so signed is
    nonnegative on the whole cone."""
    (u,) = perp
    return u if _dot(u, off) > 0 else tuple(-x for x in u)


def _through(walls, common) -> tuple[int, ...]:
    """The sum of the normals of the facets containing the face ``common``:
    zero on it and, since the face is the intersection of those facets,
    positive on every other ray of the cone."""
    return tuple(map(sum, zip(*(u for k, u in walls.items() if common <= k))))


def _separating_functional(u_a, u_b, out_a, out_b) -> tuple[int, ...] | None:
    """The first of ``u_a``, ``-u_b`` and ``u_a - u_b`` that is positive on
    ``out_a`` and negative on ``out_b``, or None.  ``u_a`` and ``u_b`` are
    :func:`_through` sums of two cones at their common face."""
    for u in (u_a, tuple(-x for x in u_b), tuple(x - y for x, y in zip(u_a, u_b))):
        if all(_dot(u, r) > 0 for r in out_a) and all(_dot(u, r) < 0 for r in out_b):
            return u
    return None


def _pair_functional(perp, out_a, out_b) -> tuple[int, ...] | None:
    """A functional that vanishes on a common face ``τ`` with annihilator
    rows ``perp``, is positive on the rays ``out_a`` of one cone and
    negative on the rays ``out_b`` of the other, or None if there is none,
    that is if the cones overlap beyond ``τ``.  Integers only.

    * A separating ``u`` vanishes on ``τ``, so it is ``w . perp`` for a
      rational ``w``, and ``u . r = w . g(r)`` for the image ``g(r) = (p . r
      for p in perp)`` of ``r`` modulo the span of ``τ``.  So ``u`` exists
      iff some ``w`` is positive on the images ``g(r)``, ``r`` in ``out_a``,
      and ``-g(r)``, ``r`` in ``out_b``.  No image is zero: a ray of a cone
      outside its face ``τ`` lies off a supporting hyperplane of ``τ``, which
      contains the span of ``τ``.
    * By Gordan's alternative (Ziegler, *Lectures on Polytopes*, 1.4), a
      functional positive on finitely many nonzero vectors exists iff no
      nontrivial nonnegative combination of them vanishes, that is iff the
      cone they span is strongly convex.
    * Projecting onto the pivot columns of the images' Hermite basis maps
      their span isomorphically onto ``Q^d`` (the echelon basis restricted
      to its pivot columns is triangular with nonzero diagonal), so the
      projected cone is full-dimensional, strongly convex iff the cone of
      the images is, and a functional ``w'`` on ``Q^d`` is ``w`` with
      entries ``w'`` at the pivots and 0 elsewhere.
    * :func:`_facets` finds the projected cone's facets by the double
      description, with primitive normals nonnegative on the images, also
      where images are parallel or opposite, and the cone is strongly
      convex iff their normals have rank ``d`` (the proofs are in
      :func:`cone_from_rays`).  ``d`` independent images span a simplicial
      cone, strongly convex, whose facet normals are the signed minors of
      each ``d - 1`` of them, with no double description.
      Signed to be nonnegative on the images, the normals of a strongly
      convex cone sum to a functional positive on each image: one it
      vanished on would lie on every facet, whose hyperplanes meet in 0
      since their normals have rank ``d``.

    The caller checks the result with :func:`_check_separation`.
    """
    images = [tuple(_dot(p, r) for p in perp) for r in out_a]
    images += [tuple(-_dot(p, r) for p in perp) for r in out_b]
    pivots = [xl._pivot(h) for h in xl.hermite_rows(images, len(perp))]
    d = len(pivots)
    coords = [tuple(g[j] for j in pivots) for g in images]
    if len(coords) == d:
        normals = [_minor_normal(coords[:i] + coords[i + 1:], d) for i in range(d)]
    else:
        normals = list(_facets(coords, d).values())
        if len(xl.hermite_rows(normals, d)) < d:
            return None
    w = [0] * d
    for u in normals:
        sign = 1 if max(_dot(u, c) for c in coords) > 0 else -1
        w = [x + sign * y for x, y in zip(w, u)]
    return tuple(sum(x * perp[j][k] for x, j in zip(w, pivots)) for k in range(len(perp[0])))


def _check_separation(u, on_common, out_a, out_b) -> None:
    """Check that ``u`` certifies that two cones meet only in their common
    face: zero on its rays, positive on the other rays of the first cone and
    negative on those of the second."""
    if (
        any(_dot(u, r) for r in on_common)
        or any(_dot(u, r) <= 0 for r in out_a)
        or any(_dot(u, r) >= 0 for r in out_b)
    ):
        raise InvariantViolation("a pair certificate does not separate the two cones at their common face")


def star_quotient(cone: Cone, rho) -> tuple[Fan, "object"]:
    """Quotient a full-dimensional cone by an interior ray.

    Returns the complete fan ``E`` induced on the quotient lattice by the
    faces of the cone, together with the support divisor data recording the
    height function: after a unimodular change of coordinates ``T`` taking
    ``rho`` to the last basis vector, the boundary of the cone is the graph
    of a piecewise linear function on ``E``, and the divisor is its class.
    The result is memoized on the cone by the primitive ray.

    ``E`` is read off the cone's faces, with no LP.  A proper face lies in a
    facet hyperplane on which ``rho`` is positive, so the projection ``p``
    along ``rho`` is injective on its span and maps its faces onto the faces
    of its image.  A line ``x + Q rho`` meets the cone in a half-line
    (``rho`` is interior, the cone strongly convex) whose end point is its
    only boundary point, so ``p`` maps the boundary one to one onto the
    quotient space.  Images of two proper faces thus meet in the image of
    their intersection, and the images cover the space: the proper faces
    make a complete fan with distinct rays.

    Its rows come from ``T`` and the cone's own annihilators, with no
    integer kernel (:func:`_quotient_rows`), and go to the divisor's lift
    data as they are.
    """
    n = cone.rank
    if cone.dim != n:
        raise NotFullDim("star quotient needs a full-dimensional cone")
    if n < 2:
        raise WrongDimension("star quotient needs dimension at least two")
    rho = _ivec(rho)
    if len(rho) != n:
        raise ValidationError(f"the interior ray {rho} needs {n} coordinates")
    rho = xl.primitive_vector(rho)
    if rho in cone._quotients:
        return cone._quotients[rho]
    lat = face_lattice(cone)
    if not lat.is_interior(rho):
        raise NotInterior(f"{rho} is not interior to the cone")

    # U rho = (1, 0, ..., 0) for the Euclidean completion U of the primitive
    # column rho; the rows of U with the first moved last take rho to the
    # last basis vector.  _quotient_rows checks that T is unimodular.
    u = xl._unit_column(rho)
    t_rows = u[1:] + u[:1]
    if [_dot(t, rho) for t in t_rows] != [0] * (n - 1) + [1]:
        raise InvariantViolation("the change of coordinates does not take rho to the last basis vector")

    hats = [tuple(_dot(t, r) for t in t_rows) for r in cone.rays]
    projected = []
    alphas = []
    for *base, h in hats:
        if not any(base):
            raise InvariantViolation("a ray projects to zero; rho was not interior")
        p = xl.primitive_vector(base)
        g = next(b // pb for b, pb in zip(base, p) if pb != 0)
        projected.append(p)
        alphas.append(Fraction(h, g))

    hat_perps, faces = _quotient_rows(lat.all_faces[:-1], t_rows, hats, projected)
    fan = Fan(n - 1, tuple(projected), tuple(f.key for f in lat.faces_by_dim[n - 1]), faces)
    if not fan.is_complete():
        raise InvariantViolation("the quotient fan of an interior ray is not complete")
    if fan.face_counts() != lat.face_counts()[:-1]:
        raise InvariantViolation("the quotient fan's face counts differ from the cone's")

    from .lefschetz import _support_data

    divisor = _support_data(fan, alphas, hat_perps)
    if divisor.hat.rays != tuple(hats):
        raise InvariantViolation("the divisor's hat rays are not the cone's rays in the new coordinates")
    cone._quotients[rho] = fan, divisor
    return cone._quotients[rho]


def _unimodular_inverse(t_rows) -> list[tuple[int, ...]]:
    """The inverse of a unimodular integer matrix ``T`` (rows ``t_rows``).

    The rows of ``[T | I]`` generate ``{(y T, y)}``, which is ``{(x, x
    T^-1)}`` for ``T`` unimodular, so the rows of ``[I | T^-1]`` are a basis
    in Hermite form; the Hermite form being unique, it is what
    :func:`~toricdef.exact_linalg.hermite_rows` returns."""
    n = len(t_rows)
    rows = [tuple(t) + tuple(int(i == j) for j in range(n)) for i, t in enumerate(t_rows)]
    return [r[n:] for r in xl.hermite_rows(rows, 2 * n)]


def _quotient_rows(faces, t_rows, hats, projected) -> tuple[dict, list[Face]]:
    """``(hat_perps, quotient faces)`` of the proper ``faces`` of a cone in
    ``Z^n`` under the unimodular ``T`` (``t_rows``) that takes an interior
    ray to the last basis vector: each face's hat annihilator in ``Z^n``,
    and the face of the quotient fan in ``Z^(n-1)`` with its annihilator.
    No integer kernel is taken, and every row is checked.

    * ``T^-1`` is computed once, by :func:`_unimodular_inverse`, and checked:
      ``T T^-1 = I``.
    * The hat rays are the rays in the new coordinates, ``hats = T r``.  The
      divisor's value on a ray with ``T r = (b, h)`` is ``h / g`` for ``g``
      the gcd of ``b``, whose projected ray is ``b / g``; ``T r`` is
      primitive (``T`` is unimodular and ``r`` primitive), so ``gcd(h, g) =
      1`` and the hat ray ``(g (b / g), h)`` that the divisor builds is
      ``T r`` again (checked by the caller).
    * A face ``τ``'s hat annihilator is the Hermite form of ``perp(τ)
      T^-1``.  A functional ``y`` kills every ``T r`` iff ``y T`` kills every
      ``r``, iff ``y T`` is in the saturated annihilator of ``τ``, whose
      basis is ``perp(τ)``; so the rows of ``perp(τ) T^-1``, its image under
      the unimodular ``T^-1``, are a basis of the saturated hat annihilator.
    * The quotient face's annihilator is the sublattice of the hat
      annihilator with last coordinate 0, that coordinate dropped: ``(z, 0)``
      kills ``T r = (g p, h)`` iff ``z`` kills the projected ray ``p``.
      In the Hermite form with the last column moved first, at most the
      first row is nonzero there, and the other rows, whose coefficient of
      the first row is forced to 0, are the Hermite form of that sublattice.

    Hermite forms are canonical, so the rows are those that integer kernels
    of the hat and projected rays give.  A row that misses a ray, or a
    count other than ``n - dim τ`` hat rows and ``n - 1 - dim τ`` quotient
    rows, is an INVARIANT_VIOLATION.
    """
    n = len(t_rows)
    t_inv = _unimodular_inverse(t_rows)
    if xl._mul(t_rows, t_inv, n) != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise InvariantViolation("the inverse of the change of coordinates is wrong")
    hat_perps: dict[frozenset[int], tuple] = {}
    out = []
    for f in faces:
        hat = tuple(xl.hermite_rows(xl._mul(f.perp_rows, t_inv, n), n))
        moved = xl.hermite_rows([r[-1:] + r[:-1] for r in hat], n)
        perp = tuple(r[1:] for r in moved if r[0] == 0)
        _check_annihilator(hat, [hats[i] for i in f.ray_indices], n - f.dim, "hat")
        _check_annihilator(perp, [projected[i] for i in f.ray_indices], n - 1 - f.dim, "quotient")
        hat_perps[f.ray_indices] = hat
        out.append(Face(f.ray_indices, f.dim, perp))
    return hat_perps, out


def _check_annihilator(rows, rays, count: int, what: str) -> None:
    if len(rows) != count or any(_dot(a, r) for a in rows for r in rays):
        raise InvariantViolation(f"a {what} annihilator of the star quotient misses its face")


# ---------------------------------------------------------------------------
# shellings


@dataclass(frozen=True)
class Shelling:
    """An ordered list of the facets of a cone."""

    cone: Cone
    order: tuple[Face, ...]

    def keys(self) -> tuple[tuple[int, ...], ...]:
        return tuple(f.key for f in self.order)


def _attach_ok(lat: FaceLattice, placed_keys, g: Face) -> bool:
    """Shelling attachment condition for appending facet ``g`` after the
    faces with keys ``placed_keys``: the maximal meets with earlier facets
    must all be facets of ``g``, and some shelling of the boundary of ``g``
    must start with exactly that set."""
    if not placed_keys:
        return True
    meets = {g.ray_indices & k for k in placed_keys}
    maximal = [k for k in meets if not any(k < other for other in meets)]
    cover_keys = {f.ray_indices for f in lat.covered_by(g)}
    if any(k not in cover_keys for k in maximal):
        return False
    return _prefix_shellable(lat, g, frozenset(maximal))


def _prefix_allow(initial: frozenset):
    """Placements that put the facet keys ``initial`` first, in any order."""
    return lambda pos, g, covered: pos >= len(initial) or g.ray_indices in initial


def _search_shelling(lat: FaceLattice, facets, allow, budget=float("inf")):
    """Depth-first search for a shelling order of ``facets``, the facets of
    one face of ``lat``, where ``allow(pos, facet, covered)`` prunes
    placements, ``covered`` being the rays placed so far.  The order, or
    None when none was found within ``budget`` facet placements.

    The walk is over sets of placed facets.  ``allow`` sees the size and
    rays of the set, :func:`_attach_ok` its keys, and candidates come in
    ``facets`` order, so the subtree below a set, its size and its outcome,
    depend on the set alone.  A set whose subtree failed is stored with its
    placement count, which a revisit adds to ``nodes`` instead of walking
    the subtree again.  Once the budget is spent nothing more is placed and
    the search returns None, as the walk over orders does when it overruns
    the budget while repeating that subtree.  So at every budget the result
    is the order, or None, that the walk over orders returns.
    """
    dead: dict[frozenset, int] = {}
    order: list[Face] = []
    nodes = 0

    def dfs(placed: frozenset, covered: frozenset) -> bool:
        nonlocal nodes
        if len(order) == len(facets):
            return True
        start = nodes
        for g in facets:
            if g.ray_indices in placed:
                continue
            if nodes >= budget:
                return False
            if not (allow(len(order), g, covered) and _attach_ok(lat, placed, g)):
                continue
            nodes += 1
            grown = placed | {g.ray_indices}
            if grown in dead:
                nodes += dead[grown]
                continue
            order.append(g)
            if dfs(grown, covered | g.ray_indices):
                return True
            order.pop()
        dead[placed] = nodes - start
        return False

    return tuple(order) if dfs(frozenset(), frozenset()) else None


def _prefix_shellable(lat: FaceLattice, face: Face, initial: frozenset) -> bool:
    """Can a shelling of the boundary of ``face`` start with the facet set
    ``initial`` (in some order)?  The unbounded :func:`_search_shelling`
    over the facets of ``face``, memoized per ``(face, initial)``."""
    if face.dim <= 2:
        return True
    state = (face.ray_indices, initial)
    if state not in lat._shell_memo:
        found = _search_shelling(lat, lat.covered_by(face), _prefix_allow(initial))
        lat._shell_memo[state] = found is not None
    return lat._shell_memo[state]


def is_shelling(cone: Cone, order) -> bool:
    """Check the recursive shelling condition for an ordering of the facets.

    Raises NOT_A_PERMUTATION unless ``order`` lists each facet exactly once.
    """
    if isinstance(order, Shelling):
        order = order.order
    if cone.dim < 2:
        raise WrongDimension("shellings need dimension at least two")
    lat = face_lattice(cone)
    facets = lat.faces_by_dim[cone.dim - 1]
    keys = [f.ray_indices for f in order]
    if len(keys) != len(facets) or set(keys) != {f.ray_indices for f in facets}:
        raise NotAPermutation("order is not a permutation of the facets")
    placed: list[frozenset[int]] = []
    for f in order:
        g = lat.by_key[f.ray_indices]
        if not _attach_ok(lat, placed, g):
            return False
        placed.append(g.ray_indices)
    return True


def line_shelling(cone: Cone, seed: int = 0) -> Shelling:
    """A shelling of the facets from a generic line through the cross-section.

    A strictly interior dual vector cuts a polytopal cross-section; a random
    line through an interior point, generic against all facet hyperplanes,
    orders the facets by signed crossing time (outgoing crossings first).
    The classical sweep argument makes this a shelling, and the result is
    re-verified before being returned.
    """
    d = cone.dim
    if d < 2:
        raise WrongDimension("shellings need dimension at least two")
    lat = face_lattice(cone)
    facets = lat.faces_by_dim[d - 1]
    normals = {f.ray_indices: lat.facet_normals[f.ray_indices] for f in facets}
    w = tuple(sum(g[i] for g in normals.values()) for i in range(d))
    if not all(_dot(w, c) > 0 for c in lat.rays):
        raise InvariantViolation("the sum of the facet normals is not positive on the rays")
    centre_raw = tuple(sum(c[i] for c in lat.rays) for i in range(d))
    scale = Fraction(1, _dot(w, centre_raw))
    centre = tuple(scale * x for x in centre_raw)

    rng = random.Random(seed)
    ww = _dot(w, w)
    for _ in range(256):
        z = tuple(rng.randint(-9, 9) for _ in range(d))
        proj = Fraction(_dot(w, z), ww)
        v = tuple(Fraction(zi) - proj * wi for zi, wi in zip(z, w))
        if all(x == 0 for x in v):
            continue
        pairings = {k: _dot(g, v) for k, g in normals.items()}
        if any(p == 0 for p in pairings.values()):
            continue
        times = {k: Fraction(-_dot(normals[k], centre), p) for k, p in pairings.items()}
        outgoing = sorted((k for k, p in pairings.items() if p < 0), key=lambda k: times[k])
        incoming = sorted((k for k, p in pairings.items() if p > 0), key=lambda k: times[k])
        ts = [times[k] for k in outgoing + incoming]
        if len(set(ts)) != len(ts):
            continue
        order = tuple(lat.by_key[k] for k in outgoing + incoming)
        if is_shelling(cone, order):
            return Shelling(cone, order)
    raise InvalidShelling("no generic shelling line found; seed space exhausted")
