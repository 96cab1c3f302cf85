"""Rational polyhedral cones, face lattices, fans, and shellings.

Cones are given by extreme rays (primitive integer vectors), and no floating
point is involved anywhere.  A cone is built from its facets:
:func:`cone_from_rays` finds them once, among the (d-1)-subsets of the
generators, whose hyperplane is read off signed maximal minors and validated
as supporting, and reads strong convexity and the extreme generators off the
ranks of the facet normals, with no LP (the proof is in its docstring).  The
remaining faces are intersections of facets.  This is quadratic-ish in the
number of faces, which is the right trade at the scale this package targets
(tens of rays).

Lattice data is computed once per face.  A face's annihilator is one
integer kernel of its rays (:func:`toricdef.exact_linalg.integer_kernel_rows`,
a one-sided unimodular row elimination) and its span lattice the kernel of
that, since the saturation of a set of vectors is the kernel of their kernel;
a fan computes these once per face, however many maximal cones share it.
The intrinsic rows of :class:`FaceLattice` are coordinates and restrictions
of the ambient ones, with no further kernel (the two saturation facts are in
its docstring), and a cone made by :func:`face_cone` takes its whole lattice
from the parent's lower interval.  No Smith form is taken.

Cone lattices, fans and divisor lifts are all one :class:`FacePoset`.
:func:`fan_from_cones` validates a fan pair by pair, by a separating
functional built from the facet normals and checked with integer dot products,
or, where none of its candidates separates, by the certified exact LP of
:func:`toricdef.exact_linalg.nonnegative_combination`; :func:`star_quotient`
reads the quotient fan of an interior ray off the cone's faces, with no LP.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

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
    return sum(a * b for a, b in zip(u, v))


def _ivec(v) -> tuple[int, ...]:
    out = []
    for x in v:
        if isinstance(x, Fraction) and x.denominator == 1:
            x = x.numerator
        if not isinstance(x, int):
            raise ValidationError(f"expected an integer vector, got {v!r}")
        out.append(int(x))
    return tuple(out)


class Cone:
    """A strongly convex rational polyhedral cone, by extreme rays.

    Instances come out of :func:`cone_from_rays` and :func:`face_cone`; the
    constructor trusts its input.  ``rays`` keeps the order in which
    surviving input rays appeared, and all face bookkeeping refers to rays
    by index into this tuple.  ``_hull`` holds what :func:`cone_from_rays`
    found on the way: the top face, the rays' coordinates in its span rows
    and the ray sets of the facets, which :class:`FaceLattice` and
    :func:`fan_from_cones` reuse (:func:`_hull` finds them for a cone built
    by the constructor).  A cone made by :func:`face_cone` remembers its
    parent and the face, so its lattice is the parent's lower interval;
    star quotients are memoized by their primitive interior ray.
    """

    __slots__ = ("rank", "rays", "dim", "_hull", "_lattice", "_parent", "_quotients")

    def __init__(self, rank: int, rays: tuple[tuple[int, ...], ...], dim: int):
        self.rank = rank
        self.rays = rays
        self.dim = dim
        self._hull = None
        self._lattice = None
        self._parent = None
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

    * The search finds exactly the facets of ``C``.  A hyperplane of ``V``
      through ``d - 1`` independent generators with every generator on one
      side meets ``C`` in a face of dimension ``d - 1``; conversely a facet
      is generated by the generators in it, ``d - 1`` of them independent.
    * ``C`` is strongly convex iff the facet normals have rank ``d``.  If
      ``L != 0``, a facet normal ``u`` is ``>= 0`` on ``C``, which contains
      ``L = -L``, so ``u`` vanishes on ``L``: every normal lies in ``L^⊥``,
      of rank ``d - dim L < d``, and if ``C = V`` there is no facet at all.
      If ``L = 0``, the dual cone is full-dimensional and generated by the
      facet normals (Cox–Little–Schenck, *Toric Varieties*, 1.2), so they
      have rank ``d``.
    * In a strongly convex ``C``, the span of a face ``F`` is the
      intersection of the facet hyperplanes containing ``F``, so ``dim F =
      d - r`` with ``r`` the rank of their normals.  A generator ``g`` lies
      in the relative interior of the least face ``F_g`` containing it, and
      the facets containing ``F_g`` are those through ``g``.  So ``g`` is
      extreme, that is ``dim F_g = 1``, iff the normals of the facets
      through ``g`` have rank ``d - 1``.

    ``m = d`` independent generators span a simplicial cone: it is strongly
    convex, every generator is extreme and the facets are the ``(d -
    1)``-subsets, so neither the search nor the two rank tests runs.
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
    top, coords, facets = _span_and_facets(prim, rank)
    d = top.dim
    if len(prim) > d:
        if _rank(facets.values(), d) < d:
            raise NotStronglyConvex("generators positively span a line")
        keep = [i for i in range(len(prim)) if _rank([u for k, u in facets.items() if i in k], d) == d - 1]
        if len(keep) < len(prim):
            pos = {i: j for j, i in enumerate(keep)}
            top = Face(frozenset(pos.values()), d, top.span_rows, top.perp_rows)
            coords = tuple(coords[i] for i in keep)
            facets = {frozenset(pos[i] for i in k if i in pos): u for k, u in facets.items()}
            prim = [prim[i] for i in keep]
    cone = Cone(rank, tuple(prim), d)
    cone._hull = (top, coords, tuple(facets))
    return cone


def _rank(rows, d: int) -> int:
    """Rank of integer rows of width ``d``: the length of their Hermite basis."""
    return len(xl.hermite_rows(rows, d))


@dataclass(frozen=True)
class Face:
    """A face of a cone, identified by the set of extreme rays it contains.

    ``span_rows`` is the canonical Hermite basis of the sublattice
    ``span(face) cap Z^rank``; ``perp_rows`` the canonical basis of the
    saturated annihilator lattice in the dual.
    """

    ray_indices: frozenset[int]
    dim: int
    span_rows: tuple[tuple[int, ...], ...]
    perp_rows: tuple[tuple[int, ...], ...]

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.ray_indices))


def _ray_coords(span_rows, rays) -> tuple[tuple, ...]:
    coords = xl.coordinates(span_rows, rays)
    if coords is None:
        raise InvariantViolation("a ray leaves the saturated span of the rays")
    return tuple(tuple(x) for x in coords)


def _facets(ray_coords, d: int) -> dict[frozenset[int], tuple | None]:
    """The facets of a cone that is full-dimensional in ``Z^d``, among the
    hyperplanes through ``d - 1`` rays with every ray on one side, as ``{ray
    set: normal}``; a normal is the vector of signed maximal minors, on
    either side.  ``m = d`` rays, independent since they span, give the
    ``d`` subsets of ``d - 1`` rays, whose normals nothing needs (None),
    with no minor."""
    m = len(ray_coords)
    if d == 0:
        return {}
    if m == d:
        return {frozenset(range(m)) - {i}: None for i in range(m)}
    facets: dict[frozenset[int], tuple | None] = {}
    for sub in itertools.combinations(range(m), d - 1):
        if any(set(sub) <= s for s in facets):
            continue
        rows = [ray_coords[i] for i in sub]
        # the kernel of the (d-1) x d matrix is spanned by its signed maximal minors
        u = tuple((-1) ** j * xl.integer_det([r[:j] + r[j + 1:] for r in rows]) for j in range(d))
        if not any(u):
            continue
        vals = [_dot(u, c) for c in ray_coords]
        if min(vals) < 0 < max(vals):
            continue
        facets.setdefault(frozenset(i for i, v in enumerate(vals) if v == 0), u)
    return facets


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
    integer kernel of the rays and its span lattice the kernel of that."""
    perp = tuple(xl.integer_kernel_rows(gens, n))
    span = tuple(xl.integer_kernel_rows(perp, n))
    return Face(key, len(span), span, perp)


def _span_and_facets(gens, n: int) -> tuple:
    """``(top, coords, facets)`` of the cone over ``gens`` in ``Z^n``: the
    top face, the generators' coordinates in its span rows and
    :func:`_facets` in those coordinates."""
    top = _lattice_face(frozenset(range(len(gens))), gens, n)
    coords = _ray_coords(top.span_rows, gens)
    return top, coords, _facets(coords, top.dim)


def _hull(cone: Cone) -> tuple:
    """``cone._hull``, found by :func:`_span_and_facets` for a cone built by
    the constructor, whose rays it trusts to be extreme."""
    if cone._hull is None:
        top, coords, facets = _span_and_facets(cone.rays, cone.rank)
        cone._hull = (top, coords, tuple(facets))
    return cone._hull


def _cone_faces(cone: Cone, labels, known: dict) -> list[Face]:
    """The faces of ``cone`` from its :func:`_hull`, with no facet search.
    A face is keyed by the ``labels`` of its rays and looked up in, or
    added to, ``known``; the top face's rows are the hull's."""
    top, _, facets = _hull(cone)
    rays = cone.rays

    def face(local) -> Face:
        key = frozenset(labels[i] for i in local)
        if key not in known:
            known[key] = _lattice_face(key, [rays[i] for i in sorted(local)], cone.rank)
        return known[key]

    whole = frozenset(labels)
    known.setdefault(whole, Face(whole, top.dim, top.span_rows, top.perp_rows))
    return [face(k) for k in _face_keys(facets, len(rays))]


def _lower_interval(parent: "FaceLattice", key: frozenset[int]) -> tuple:
    """``(span_rows, faces)`` of the face ``key`` of ``parent`` as a cone of
    its own: the faces below it, re-keyed to the positions of their rays in
    the face, sharing the parent's ambient rows."""
    local = {g: i for i, g in enumerate(sorted(key))}
    faces = [
        Face(frozenset(local[i] for i in f.ray_indices), f.dim, f.span_rows, f.perp_rows)
        for f in parent.by_key.values()
        if f.ray_indices <= key
    ]
    return parent.by_key[key].span_rows, faces


def _padded(rows) -> tuple:
    return tuple(r + (0,) for r in rows)


class FacePoset:
    """Faces graded by dimension, with lattice data in ``width`` coordinates.

    ``by_key`` maps a face's ray set to its :class:`Face`, in the order given;
    ``faces_by_dim`` lists each dimension's faces by key.  ``perps`` maps a
    ray set to the Hermite basis of the face's annihilator, and ``rays``
    holds the ray vectors, both in the poset's coordinates.  Nothing reads a
    face's span lattice in these coordinates; it is the kernel of its
    ``perps`` rows.  A cone's lattice (intrinsic), a fan (ambient), the faces
    below a face and a divisor's two lifts (one coordinate more) are posets,
    and :func:`toricdef.ishida.face_complex` builds the complex of any one.
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
        self._covered: dict[frozenset[int], tuple[Face, ...]] = {}

    @property
    def all_faces(self) -> list[Face]:
        return [f for fs in self.faces_by_dim.values() for f in fs]

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

    def covering_pairing(self, mu: Face, tau: Face) -> xl.Pairing:
        """The contraction data of a covering pair ``mu < tau``: the
        pairings ``p_i = <n, a_i>`` of a normal ``n`` of ``mu`` in ``tau``
        with the rows ``a_i`` of ``perps[mu]``, as an
        :class:`~toricdef.exact_linalg.Pairing` into ``perps[tau]``
        (memoized, shared by :meth:`below` and :meth:`padded`).

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
            self._pairings[key] = xl.pairing(ps.pop(), perp, self.perps[tau.ray_indices])
        return self._pairings[key]

    def below(self, key: frozenset[int]) -> "FacePoset":
        """The faces contained in the face ``key``, with this poset's rows,
        covering pairs and covering pairings."""
        faces = [f for f in self.by_key.values() if f.ray_indices <= key]
        out = FacePoset(self.width, faces, self.perps, self.rays)
        out._covered = self._covered
        out._pairings = self._pairings
        return out

    def padded(self) -> "FacePoset":
        """This poset in one more coordinate, every row padded by a zero,
        with this poset's covering pairs.  Padding changes no pairing and no
        coordinate in an echelon basis, so the covering pairings are this
        poset's, and are computed once for both."""
        perps = {k: _padded(v) for k, v in self.perps.items()}
        out = FacePoset(self.width + 1, self.by_key.values(), perps, _padded(self.rays))
        out._covered = self._covered
        out._pairings = self._pairings
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
    * ``Face.perp_rows`` is one integer kernel of the face's rays and
      ``Face.span_rows`` the kernel of that, which is the saturation of the
      rays; ``span_rows`` of the lattice is the top face's span, also from
      :func:`cone_from_rays`.  A cone made by :func:`face_cone` takes both
      from its parent's faces below it.
    * ``rays`` are the rays' coordinates in ``span_rows``.
    * ``perps`` are Hermite bases of each face's ``perp_rows`` restricted
      to ``span_rows``.  Restriction ``Hom(Z^n, Z) -> Hom(L, Z)``
      is onto because the span lattice ``L`` is saturated, and a functional
      on ``L`` vanishing on the face extends to one on ``Z^n`` that still
      vanishes on it, so the restrictions generate the whole annihilator.
    * ``facet_normals`` maps each facet to its one ``perps`` row, signed to
      be positive on the rays.
    """

    def __init__(self, cone: Cone):
        self.cone = cone
        d = cone.dim
        if cone._parent is None:
            top, ray_coords, _ = _hull(cone)
            span_rows = top.span_rows
            faces = _cone_faces(cone, range(len(cone.rays)), {})
        else:
            parent, key = cone._parent
            span_rows, faces = _lower_interval(face_lattice(parent), key)
            ray_coords = _ray_coords(span_rows, cone.rays)
        self.span_rows = span_rows
        faces.sort(key=lambda f: (f.dim, f.key))
        super().__init__(d, faces, {}, ray_coords)
        for f in faces:
            restricted = [[_dot(p, b) for b in span_rows] for p in f.perp_rows]
            self.perps[f.ray_indices] = tuple(xl.hermite_rows(restricted, d))
        self.facet_normals: dict[frozenset[int], tuple[int, ...]] = {}
        for f in self.faces_by_dim.get(d - 1, ()):
            (u,) = self.perps[f.ray_indices]
            if any(_dot(u, c) < 0 for c in ray_coords):
                u = tuple(-x for x in u)
            self.facet_normals[f.ray_indices] = u

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

    def interior_coords(self, v) -> list[Fraction] | None:
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
    lower interval of the parent's, with no facet search and no kernel.
    The top face is ``cone``."""
    if len(face.ray_indices) == len(cone.rays):
        return cone
    sub = Cone(cone.rank, tuple(cone.rays[i] for i in sorted(face.ray_indices)), face.dim)
    sub._parent = (cone, face.ray_indices)
    return sub


def normal_generator(mu_span_rows, tau_span_rows, orientation_vectors) -> tuple[int, ...]:
    """Canonical lift of the positive primitive generator of the rank-one
    quotient of two nested saturated lattices.

    ``mu_span_rows`` and ``tau_span_rows`` are Hermite bases with the mu
    lattice of corank one inside the tau lattice; ``orientation_vectors``
    are lattice elements (e.g. rays of the bigger face not in the smaller)
    whose quotient images must come out positive.  The result is reduced
    modulo the mu lattice, so it is a canonical representative; any other
    valid representative differs by a mu-lattice element.  Face complexes
    need only its pairings with the annihilator of mu, which
    :meth:`FacePoset.covering_pairing` reads off a ray without it.
    """
    if len(tau_span_rows) != len(mu_span_rows) + 1:
        raise NotCovering("lattices do not differ in rank by one")
    width = len(tau_span_rows[0])
    dt = len(tau_span_rows)
    cm = xl.coordinates(tau_span_rows, mu_span_rows)
    if cm is None or not all(isinstance(x, int) for row in cm for x in row):
        raise NotCovering("mu lattice is not inside tau lattice")
    # the kernel of the r x (r+1) matrix cm is spanned by its signed maximal minors
    w = [(-1) ** j * xl.integer_det([row[:j] + row[j + 1:] for row in cm]) for j in range(dt)]
    if not any(w):
        raise NotCovering("quotient is not of rank one")
    w = xl.primitive_vector(w)
    coords = xl.coordinates(tau_span_rows, orientation_vectors)
    if coords is None:
        raise NotCovering("orientation vector outside the tau lattice span")
    signs = [_dot(w, x) for x in coords]
    if not signs or 0 in signs or (min(signs) < 0 < max(signs)):
        raise NotCovering("orientation vectors do not fix a positive side")
    if signs[0] < 0:
        w = tuple(-x for x in w)
    y = xl.solve_unit_pairing(w)
    lift = tuple(sum(y[i] * tau_span_rows[i][j] for i in range(dt)) for j in range(width))
    return xl.reduce_mod_rows(lift, mu_span_rows)


def pyramid(cone: Cone, apex) -> Cone:
    """The join of a cone (embedded at extra coordinate zero) with an apex
    ray; the apex must leave the original hyperplane."""
    apex = _ivec(apex)
    if len(apex) != cone.rank + 1:
        raise ValidationError("apex must live in one more coordinate")
    if apex[-1] == 0:
        raise ApexInHyperplane("apex lies in the original hyperplane")
    rays = [r + (0,) for r in cone.rays] + [xl.primitive_vector(apex)]
    out = cone_from_rays(rays, cone.rank + 1)
    if len(out.rays) != len(cone.rays) + 1:
        raise InvariantViolation("a ray of the pyramid is not extreme")
    if out.dim != cone.dim + 1:
        raise InvariantViolation("the apex does not raise the dimension")
    return out


# ---------------------------------------------------------------------------
# fans


class Fan(FacePoset):
    """A fan: primitive rays plus maximal cones given by ray-index sets, and
    the faces of all maximal cones as one poset in ambient coordinates.

    :func:`fan_from_cones` builds a fan from its maximal cones and verifies
    exactly, via a strict separating functional, that any two of them meet
    in a common face: a functional made from their facet normals and
    checked by integer dot products where one of its three candidates
    separates, else one certified LP; :func:`star_quotient` builds the
    quotient fan of an interior ray from the cone's own faces, a fan by
    construction.
    """

    def __init__(self, rank, rays, maximal, faces):
        super().__init__(rank, faces, {f.ray_indices: f.perp_rows for f in faces}, rays)
        self.rank = rank
        self.maximal = maximal
        self._complete = None

    def __repr__(self) -> str:
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, maximal={len(self.maximal)})"

    def is_complete(self) -> bool:
        """Does the support cover the whole space?  Exact: every maximal cone
        is full-dimensional and every wall lies in exactly two maximal cones.

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
            max_keys = [frozenset(k) for k in self.maximal]
            self._complete = all(self.by_key[k].dim == self.rank for k in max_keys) and all(
                sum(1 for k in max_keys if wall.ray_indices <= k) == 2
                for wall in self.faces_by_dim.get(self.rank - 1, ())
            )
        return self._complete


def fan_from_cones(rays, maximal_sets, rank: int | None = None) -> Fan:
    """Assemble a fan from shared rays and maximal cones (ray-index lists),
    validating each cone and each pair of cones exactly.

    Two cones ``σ``, ``σ'`` sharing the face ``τ`` meet only in ``τ`` iff a
    functional ``u`` vanishes on ``τ``, is positive on the other rays of
    ``σ`` and negative on those of ``σ'`` (separation lemma, Cox–Little–
    Schenck, *Toric Varieties*, 1.2.13).  When both cones are
    full-dimensional, :func:`_separating_functional` tries three such ``u``
    built from their facet normals through ``τ``, and
    :func:`_check_separation` checks the one it returns with integer dot
    products.  Otherwise, or when none of the three separates, the pair is
    decided by the certified LP
    :func:`~toricdef.exact_linalg.nonnegative_combination`, which is
    infeasible iff such a ``u`` exists.  Either way each pair gets the
    decision, and the first failing pair the message, that the LP alone
    would give.
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
    maximal = tuple(tuple(sorted(set(int(i) for i in s))) for s in maximal_sets)
    if not maximal:
        raise ValidationError("a fan needs at least one maximal cone")
    for s in maximal:
        if any(i < 0 or i >= len(rays) for i in s):
            raise ValidationError("cone refers to a missing ray")

    # each fan face's rows are computed once, by the first cone that has it
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
        if walls[ia] is not None and walls[ib] is not None:
            u = _separating_functional(_through(walls[ia], common), _through(walls[ib], common), out_a, out_b)
            if u is not None:
                _check_separation(u, [rays[i] for i in common], out_a, out_b)
                continue
        # the cones meet only in the common face iff some u is positive on the
        # images of the other rays of one and negative on those of the other,
        # modulo the face's span: iff no nonnegative combination of the
        # columns (+-image, 1) is (0, ..., 0, 1)
        perp = by_key[common].perp_rows
        cols = [tuple(_dot(p, r) for p in perp) + (1,) for r in out_a]
        cols += [tuple(-_dot(p, r) for p in perp) + (1,) for r in out_b]
        if xl.nonnegative_combination(cols, (0,) * len(perp) + (1,)) is not None:
            raise ValidationError(
                f"cones {sa} and {sb} overlap beyond their common face"
            )

    return Fan(rank, rays, maximal, list(by_key.values()))


def _signed_walls(faces, rays) -> dict[frozenset[int], tuple[int, ...]]:
    """``{facet: normal}`` of a full-dimensional cone with the given faces:
    each facet's one annihilator row, signed to be positive on the cone."""
    top = max(faces, key=lambda f: f.dim)
    walls = {}
    for f in faces:
        if f.dim == top.dim - 1:
            (u,) = f.perp_rows
            off = min(top.ray_indices - f.ray_indices)
            walls[f.ray_indices] = u if _dot(u, rays[off]) > 0 else tuple(-x for x in u)
    return walls


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
    height function: after a unimodular change of coordinates taking ``rho``
    to the last basis vector, the boundary of the cone is the graph of a
    piecewise linear function on ``E``, and the divisor is its class.
    The result is memoized on the cone by the primitive ray.

    ``E`` is read off the cone's faces, with no LP.  A proper face lies in a
    facet hyperplane on which ``rho`` is positive, so the projection ``p``
    along ``rho`` is injective on its span and maps its faces onto the faces
    of its image.  A line ``x + Q rho`` meets the cone in a half-line
    (``rho`` is interior, the cone strongly convex) whose end point is its
    only boundary point, so ``p`` maps the boundary one to one onto the
    quotient space.  Images of two proper faces thus meet in the image of
    their intersection, and the images cover the space: the proper faces
    make a complete fan with distinct rays.  Only the rows are computed, from
    the projected rays, as in :func:`fan_from_cones`.
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

    # U rho = (1, 0, ..., 0) for the Smith form of the column rho; the rows
    # of U with the first moved last take rho to the last basis vector
    u, d, _ = xl._smith([[x] for x in rho], 1)
    if d[0][0] != 1:
        raise InvariantViolation("a primitive ray has a Smith invariant other than one")
    t_rows = u[1:] + u[:1]
    if [_dot(t, rho) for t in t_rows] != [0] * (n - 1) + [1]:
        raise InvariantViolation("the change of coordinates does not take rho to the last basis vector")

    projected = []
    alphas = []
    for r in cone.rays:
        *base, h = (_dot(t, r) for t in t_rows)
        if not any(base):
            raise InvariantViolation("a ray projects to zero; rho was not interior")
        p = xl.primitive_vector(base)
        g = next(b // pb for b, pb in zip(base, p) if pb != 0)
        projected.append(p)
        alphas.append(Fraction(h, g))

    faces = [
        _lattice_face(f.ray_indices, [projected[i] for i in f.key], n - 1)
        for f in lat.all_faces[:-1]
    ]
    fan = Fan(n - 1, tuple(projected), tuple(f.key for f in lat.faces_by_dim[n - 1]), faces)
    if not fan.is_complete():
        raise InvariantViolation("the quotient fan of an interior ray is not complete")
    if fan.face_counts() != lat.face_counts()[:-1]:
        raise InvariantViolation("the quotient fan's face counts differ from the cone's")

    from .lefschetz import support_data

    cone._quotients[rho] = fan, support_data(fan, alphas)
    return cone._quotients[rho]


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


def _prefix_shellable(lat: FaceLattice, face: Face, initial: frozenset) -> bool:
    """Can a shelling of the boundary of ``face`` start with the facet set
    ``initial`` (in some order)?  Memoized over the tail states."""
    if face.dim <= 2:
        return True
    facets = lat.covered_by(face)
    all_keys = frozenset(f.ray_indices for f in facets)
    by_key = {f.ray_indices: f for f in facets}

    def complete(placed: frozenset) -> bool:
        if placed == all_keys:
            return True
        state = (face.ray_indices, placed)
        if state in lat._shell_memo:
            return lat._shell_memo[state]
        res = False
        for k in sorted(all_keys - placed, key=sorted):
            if _attach_ok(lat, placed, by_key[k]) and complete(placed | {k}):
                res = True
                break
        lat._shell_memo[state] = res
        return res

    def head(placed: frozenset) -> bool:
        if len(placed) == len(initial):
            return complete(placed)
        for k in sorted(initial - placed, key=sorted):
            if _attach_ok(lat, placed, by_key[k]) and head(placed | {k}):
                return True
        return False

    if not initial <= all_keys:
        return False
    return head(frozenset())


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
