"""Shared fixtures: frozen ray lists, standard fans, seeded random generators,
and independent oracles used across the test suite."""

import math
import random
import weakref
from fractions import Fraction
from math import comb
from operator import mul

import pytest

from toricdef import InvariantViolation, cone_from_rays, fan_from_cones, pyramid
from toricdef.exact_linalg import Matrix



def scaled_matrix(k, m: Matrix) -> Matrix:
    """The matrix ``k m``."""
    return Matrix([{j: k * x for j, x in row.items()} for row in m.rows], m.ncols)


# ---------------------------------------------------------------------------
# frozen ray lists

A_RAYS = (
    (1, 0, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (0, 1, 0, 1),
    (0, 0, 1, 1), (0, 0, -1, 1),
    (1, 1, 1, 2), (-1, 1, 1, 2), (1, -1, 1, 2), (-1, -1, 1, 2),
    (1, 1, -1, 2), (-1, 1, -1, 2), (1, -1, -1, 2), (-1, -1, -1, 2),
)

B_RAYS = (
    (1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 1, 2), (-1, 0, 0, 1),
    (0, -1, 0, 1), (0, 0, -1, 1),
    (2, 3, 1, 5), (1, 1, -1, 2), (2, -3, 1, 5), (1, -1, -1, 2),
    (-2, 1, 1, 3), (-1, 1, -1, 2), (-2, -1, 1, 3), (-1, -1, -1, 2),
)

T13_RAYS = (
    (1, 1, 0, 1), (1, 0, 1, 1), (1, -1, 0, 1), (1, 0, -1, 1),
    (1, 1, 1, 0), (1, 1, -1, 0), (1, -1, 1, 0), (1, -1, -1, 0),
    (1, 1, 0, -1), (1, -1, 0, -1), (1, 0, -1, -1), (1, 0, 1, -1),
    (1, 1, 1, 1),
)

# cone over a square pyramid with a simplex glued onto one triangular face
GLUED_RAYS = (
    (2, 2, 0, 1), (2, -2, 0, 1), (-2, 2, 0, 1), (-2, -2, 0, 1),
    (0, 0, 2, 1), (3, 0, 1, 1),
)

CUBE_RAYS = tuple((x, y, z, 1) for x in (1, -1) for y in (1, -1) for z in (1, -1))


@pytest.fixture(scope="session")
def cone_a():
    return cone_from_rays(A_RAYS, 4)


@pytest.fixture(scope="session")
def cone_b():
    return cone_from_rays(B_RAYS, 4)


@pytest.fixture(scope="session")
def cone_13():
    return cone_from_rays(T13_RAYS, 4)


@pytest.fixture(scope="session")
def glued_cone():
    return cone_from_rays(GLUED_RAYS, 4)


@pytest.fixture(scope="session")
def cube_cone():
    return cone_from_rays(CUBE_RAYS, 4)


@pytest.fixture(scope="session")
def orthant4():
    return cone_from_rays(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 4)


@pytest.fixture(scope="session")
def orthant3():
    return cone_from_rays(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)


@pytest.fixture(scope="session")
def square_cone():
    return cone_from_rays(((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), 3)


def make_p2():
    return fan_from_cones(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)), 2)


def make_p1p1():
    return fan_from_cones(
        ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 0)), 2
    )


def make_p112():
    return fan_from_cones(((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (2, 0)), 2)


@pytest.fixture(scope="session")
def p2_fan():
    return make_p2()


@pytest.fixture(scope="session")
def p1p1_fan():
    return make_p1p1()


@pytest.fixture(scope="session")
def p112_fan():
    return make_p112()


# ---------------------------------------------------------------------------
# seeded random generators


def random_cone_generators(rng: random.Random, rank: int, extra_rays: int | None = None):
    """The generators of :func:`random_cone`: lattice points at height one,
    some of them possibly not extreme."""
    if extra_rays is None:
        extra_rays = rng.randrange(1, 4)
    want = rank + extra_rays
    while True:
        pts = set()
        while len(pts) < want:
            pts.add(tuple(rng.randrange(-3, 4) for _ in range(rank - 1)) + (1,))
        if cone_from_rays(sorted(pts), rank).dim == rank:
            return sorted(pts)


def random_cone(rng: random.Random, rank: int, extra_rays: int | None = None):
    """A full-dimensional strongly convex cone: the cone over a random lattice
    polytope placed at height one."""
    return cone_from_rays(random_cone_generators(rng, rank, extra_rays), rank)


def interior_vector(cone, weights=None):
    """A strictly interior vector: a positive combination of all rays."""
    if weights is None:
        weights = [1] * len(cone.rays)
    return tuple(
        sum(w * r[i] for w, r in zip(weights, cone.rays)) for i in range(cone.rank)
    )


def random_interior(rng: random.Random, cone):
    return interior_vector(cone, [rng.randrange(1, 4) for _ in cone.rays])


def random_apex(rng: random.Random, rank: int):
    """An apex for a pyramid over a rank-``rank`` cone: last coordinate nonzero."""
    head = [rng.randrange(-2, 3) for _ in range(rank)]
    return tuple(head) + (rng.choice((-2, -1, 1, 2)),)


def primitive_apexes(rng, rank):
    """Six apexes for a pyramid over a rank-``rank`` cone, primitive, with
    last coordinates 1, -1, 2, -2, 3 and -3."""
    out = []
    for h in (1, -1, 2, -2, 3, -3):
        head = [0] * rank
        while math.gcd(h, *head) != 1:
            head = [rng.randrange(-2, 3) for _ in range(rank)]
        out.append(tuple(head) + (h,))
    return out


def seed77_cones():
    """The first nine cones of the acceptance test's seed-77 pyramid family
    and their pyramids."""
    rng = random.Random(77)
    out = []
    for i in range(9):
        d = 3 + i % 3
        cone = random_cone(rng, d)
        out += [cone, pyramid(cone, random_apex(rng, d))]
    return out


def seed77_generators():
    """``(generators, rank)`` of the cones of :func:`seed77_cones` as
    :func:`~toricdef.cone_from_rays` gets them: the lattice points of each
    cone, and each pyramid's rays at height zero plus its primitive apex."""
    rng = random.Random(77)
    out = []
    for i in range(9):
        d = 3 + i % 3
        gens = random_cone_generators(rng, d)
        apex = _primitive(random_apex(rng, d))
        out += [(gens, d), ([r + (0,) for r in cone_from_rays(gens, d).rays] + [apex], d + 1)]
    return out


def cyclic_rays(params, rank):
    """The rays of the cone over the cyclic polytope with the given
    moment-curve parameters."""
    return [tuple(t**k for k in range(1, rank)) + (1,) for t in params]


def cyclic_cone(params, rank):
    """The cone over the cyclic polytope with the given moment-curve parameters."""
    return cone_from_rays(cyclic_rays(params, rank), rank)


def _primitive(v):
    from math import gcd

    g = 0
    for c in v:
        g = gcd(g, c)
    return tuple(c // g for c in v)


def random_complete_simplicial_fan(rng: random.Random, rank: int, splits: int):
    """Random stellar subdivisions of the standard simplex fan: stays
    complete and simplicial at every step."""
    return fan_from_cones(*stellar_fan_data(rng, rank, splits), rank)


def stellar_fan_data(rng: random.Random, rank: int, splits: int):
    """``(rays, maximal)`` of :func:`random_complete_simplicial_fan`."""
    rays = [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    rays.append(tuple(-1 for _ in range(rank)))
    maximal = [tuple(sorted(set(range(rank + 1)) - {i})) for i in range(rank + 1)]
    for _ in range(splits):
        pick = rng.randrange(len(maximal))
        cone_idx = maximal.pop(pick)
        new_ray = _primitive(
            tuple(sum(rays[i][k] for i in cone_idx) for k in range(rank))
        )
        rays.append(new_ray)
        j = len(rays) - 1
        for drop in cone_idx:
            maximal.append(tuple(sorted((set(cone_idx) - {drop}) | {j})))
    return rays, maximal


def relabelled(rays, maximal, seed):
    """The same fan with its rays listed in a seeded order."""
    order = list(range(len(rays)))
    random.Random(seed).shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    return [rays[i] for i in order], [tuple(new[i] for i in c) for c in maximal]


# ---------------------------------------------------------------------------
# oracles


# the certified phase-I simplex, the LP of the oracles below
def nonnegative_combination(columns, target) -> list[Fraction] | None:
    """Solve ``sum_j lam_j columns[j] = target`` with ``lam >= 0`` exactly.

    Returns one feasible coefficient vector, or None when there is none.
    Intended for the small systems that cone geometry produces (dozens of
    columns, single-digit rows).  :func:`_phase_one` answers with a
    certificate either way, and the answer is returned only once it is
    checked, whatever the interpreter's optimisation level: ``lam >= 0``
    with ``sum_j lam_j columns[j] = target`` exactly, or an integer Farkas
    vector ``y`` with ``y . columns[j] >= 0`` for every ``j`` and ``y .
    target < 0``, which rules every solution out (Farkas' lemma: a
    solution would give ``0 <= sum_j lam_j y . columns[j] = y . target <
    0``).  A failed check raises INVARIANT_VIOLATION.
    """
    cols = [list(map(Fraction, c)) for c in columns]
    b = [Fraction(x) for x in target]
    if any(len(c) != len(b) for c in cols):
        raise ValueError("column length mismatch")
    lam, y = _phase_one(cols, b)
    if lam is not None:
        if (
            len(lam) != len(cols)
            or any(x < 0 for x in lam)
            or [sum(x * c[i] for x, c in zip(lam, cols)) for i in range(len(b))] != b
        ):
            raise InvariantViolation("simplex: the coefficients are not a nonnegative solution")
        return lam
    if len(y) != len(b) or any(sum(map(mul, y, c)) < 0 for c in cols) or sum(map(mul, y, b)) >= 0:
        raise InvariantViolation("simplex: the Farkas vector does not rule a solution out")
    return None


def _phase_one(cols: list[list[Fraction]], target: list[Fraction]) -> tuple:
    """Phase-I simplex with Bland's rule over Fractions for ``A lam = b``,
    ``lam >= 0``, with an artificial variable per row: ``(lam, None)`` for a
    feasible system, ``(None, y)`` with an integer Farkas vector ``y``
    otherwise.

    Rows with a negative right-hand side are negated first (signs ``s_i``).
    The objective row holds the reduced costs ``c - pi^T [A' | I]`` of the
    current basis, ``c`` being 0 on ``lam`` and 1 on the artificials, so its
    artificial entries are ``1 - pi_i``.  At an optimum of positive value
    every reduced cost is ``>= 0`` and ``pi^T b' > 0``; so ``y_i = s_i (z_i -
    1)``, ``z_i`` the objective entry of artificial ``i``, has ``y^T A >=
    0`` and ``y^T b < 0``, and is scaled to integers."""
    m = len(target)
    k = len(cols)
    b = list(target)
    tab = [[cols[j][i] for j in range(k)] for i in range(m)]
    signs = [1] * m
    for i in range(m):
        if b[i] < 0:
            tab[i] = [-x for x in tab[i]]
            b[i] = -b[i]
            signs[i] = -1
    # append artificial identity
    for i in range(m):
        tab[i] += [Fraction(1) if i == j else Fraction(0) for j in range(m)]
    basis = [k + i for i in range(m)]
    # phase-I objective row: minimize sum of artificials
    z = [Fraction(0)] * (k + m)
    zrhs = Fraction(0)
    for i in range(m):
        z = [a - c for a, c in zip(z, tab[i])]
        zrhs -= b[i]
    for j in range(k, k + m):
        z[j] += 1

    while True:
        enter = next((j for j in range(k + m) if z[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = b[i] / tab[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            # unbounded phase-I cannot happen (objective bounded below by 0)
            raise InvariantViolation("phase-I simplex unbounded")
        _, row = best
        piv = tab[row][enter]
        tab[row] = [x / piv for x in tab[row]]
        b[row] /= piv
        for i in range(m):
            if i != row and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
                b[i] -= f * b[row]
        if z[enter] != 0:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, tab[row])]
            zrhs -= f * b[row]
        basis[row] = enter

    if zrhs != 0:
        y = [s * (z[k + i] - 1) for i, s in enumerate(signs)]
        scale = math.lcm(1, *(x.denominator for x in y))
        return None, [(x * scale).numerator for x in y]
    # a zero optimum leaves every artificial at zero
    lam = [Fraction(0)] * k
    for i, var in enumerate(basis):
        if var < k:
            lam[var] = b[i]
    return lam, None


def lp_cone_from_rays(vectors, rank):
    """The cone over integer generators as :func:`~toricdef.cone_from_rays`
    built it before it read everything off the facets: strong convexity and
    redundancy by exact LPs.  Raises the same errors; returns a
    :class:`~toricdef.polyhedral.Cone` made by the constructor."""
    from toricdef import NotStronglyConvex, ValidationError, ZeroVector
    from toricdef import exact_linalg as xl
    from toricdef.polyhedral import Cone, _ivec

    vecs = [_ivec(v) for v in vectors]
    if not vecs:
        raise ValidationError("at least one generator is required")
    if any(len(v) != rank for v in vecs):
        raise ValidationError("generators of mixed lengths")
    if any(not any(v) for v in vecs):
        raise ZeroVector("zero generator")
    prim = []
    for v in vecs:
        p = xl.primitive_vector(v)
        if p not in prim:
            prim.append(p)
    # strong convexity: no nontrivial nonnegative combination vanishes
    cols = [p + (1,) for p in prim]
    if nonnegative_combination(cols, (0,) * rank + (1,)) is not None:
        raise NotStronglyConvex("generators positively span a line")
    # drop generators lying in the hull of the others, until stable
    changed = True
    while changed:
        changed = False
        for j, p in enumerate(prim):
            others = [q for i, q in enumerate(prim) if i != j]
            if others and nonnegative_combination(others, p) is not None:
                prim.pop(j)
                changed = True
                break
    dim = xl.matrix_rank(Matrix.from_dense(prim, rank))
    return Cone(rank, tuple(prim), dim)


def subset_facets(coords, d) -> dict:
    """``{ray set: normal}`` of the cone over ``coords``, which span
    ``Q^d``, by the subset search, the oracle of the double description in
    :func:`~toricdef.polyhedral._facets`: the hyperplanes through ``d - 1``
    rays with every ray on one side, in the order the ``(d - 1)``-subsets
    meet them.  A normal is the vector of signed maximal minors of the
    first such ``d - 1`` rays, on either side and not divided by its gcd."""
    import itertools

    from toricdef import exact_linalg as xl

    facets: dict = {}
    for sub in itertools.combinations(range(len(coords)), d - 1) if d > 0 else ():
        if any(set(sub) <= s for s in facets):
            continue
        rows = [list(coords[i]) for i in sub]
        u = tuple((-1) ** j * xl.integer_det([r[:j] + r[j + 1:] for r in rows]) for j in range(d))
        if not any(u):
            continue
        vals = [sum(a * b for a, b in zip(u, c)) for c in coords]
        if min(vals) < 0 < max(vals):
            continue
        facets.setdefault(frozenset(i for i, v in enumerate(vals) if v == 0), u)
    return facets


def oracle_faces(rays, rank, labels=None):
    """``{ray set: Face}`` of the cone over the extreme ``rays`` in
    ``Z^rank``, as the face lattice found them before the facet search
    moved into :func:`~toricdef.cone_from_rays`: the :func:`subset_facets`
    in the coordinates of the rays' span lattice, and the intersections of
    those facets.  Rows come from two integer kernels, and ray ``i`` is
    labelled ``labels[i]``."""
    from toricdef import exact_linalg as xl
    from toricdef.polyhedral import Face

    labels = list(range(len(rays)) if labels is None else labels)

    def face(key):
        perp = tuple(xl.integer_kernel_rows([rays[i] for i in sorted(key)], rank))
        span = tuple(xl.integer_kernel_rows(perp, rank))
        return Face(frozenset(labels[i] for i in key), len(span), perp)

    m = len(rays)
    top = face(frozenset(range(m)))
    facets = list(subset_facets(xl.coordinates(top.span_rows, rays), top.dim))
    keys = {frozenset(range(m)), frozenset(), *facets}
    queue = list(facets)
    while queue:
        a = queue.pop()
        for b in facets:
            if a & b not in keys:
                keys.add(a & b)
                queue.append(a & b)
    return {f.ray_indices: f for f in map(face, keys)}


def lp_pair_overlaps(perp, out_a, out_b) -> bool:
    """Do two cones meeting in a common face with annihilator rows ``perp``
    overlap beyond it?  The pair LP that :func:`~toricdef.fan_from_cones`
    ran before it decided pairs by facet normals: iff some nonnegative
    combination of the columns ``(+-image, 1)`` of the other rays of the
    two cones is ``(0, ..., 0, 1)``, the images being taken modulo the
    face's span."""
    cols = [tuple(sum(a * b for a, b in zip(p, r)) for p in perp) + (1,) for r in out_a]
    cols += [tuple(-sum(a * b for a, b in zip(p, r)) for p in perp) + (1,) for r in out_b]
    return nonnegative_combination(cols, (0,) * len(perp) + (1,)) is not None


def lp_fan_faces(rays, maximal_sets, rank):
    """``{ray set: Face}`` of the fan on ``rays`` with the given maximal
    cones, validated as :func:`~toricdef.fan_from_cones` did before the pair
    certificates: each maximal cone by :func:`lp_cone_from_rays` and
    :func:`oracle_faces`, every pair by :func:`lp_pair_overlaps`.  Raises
    the same errors for the cones and the pairs; the rays are taken as
    valid."""
    import itertools

    from toricdef import ValidationError

    maximal = tuple(tuple(sorted(set(int(i) for i in s))) for s in maximal_sets)
    faces = {}
    cone_faces = []
    for s in maximal:
        sub = lp_cone_from_rays([rays[i] for i in s], rank)
        if len(sub.rays) != len(s):
            raise ValidationError(f"cone {s} is not generated by extreme rays")
        own = oracle_faces(sub.rays, rank, s)
        for key, f in own.items():
            faces.setdefault(key, f)
        cone_faces.append(set(own))
    for (ia, sa), (ib, sb) in itertools.combinations(enumerate(maximal), 2):
        common = frozenset(sa) & frozenset(sb)
        if common not in cone_faces[ia] or common not in cone_faces[ib]:
            raise ValidationError(f"cones {sa} and {sb} share rays {sorted(common)} but not a face")
        if common == frozenset(sa) or common == frozenset(sb):
            raise ValidationError(f"cones {sa} and {sb}: one is a face of the other")
        out_a = [rays[i] for i in sa if i not in common]
        out_b = [rays[i] for i in sb if i not in common]
        if lp_pair_overlaps(faces[common].perp_rows, out_a, out_b):
            raise ValidationError(f"cones {sa} and {sb} overlap beyond their common face")
    return faces


def order_attach_ok(lat, placed_keys, g, memo) -> bool:
    """The attachment condition of :func:`~toricdef.polyhedral._attach_ok`,
    with the boundary shellings decided by :func:`order_prefix_shellable`."""
    if not placed_keys:
        return True
    meets = {g.ray_indices & k for k in placed_keys}
    maximal = [k for k in meets if not any(k < other for other in meets)]
    cover_keys = {f.ray_indices for f in lat.covered_by(g)}
    if any(k not in cover_keys for k in maximal):
        return False
    return order_prefix_shellable(lat, g, frozenset(maximal), memo)


def order_prefix_shellable(lat, face, initial: frozenset, memo=None) -> bool:
    """Can a shelling of the boundary of ``face`` start with the facet set
    ``initial``?  The two nested walks that
    :func:`~toricdef.polyhedral._prefix_shellable` ran before the one
    shelling search: ``head`` places ``initial`` in every order, and
    ``complete`` finishes it, memoized in ``memo`` over its states."""
    memo = {} if memo is None else memo
    if face.dim <= 2:
        return True
    facets = lat.covered_by(face)
    all_keys = frozenset(f.ray_indices for f in facets)
    by_key = {f.ray_indices: f for f in facets}

    def complete(placed: frozenset) -> bool:
        if placed == all_keys:
            return True
        state = (face.ray_indices, placed)
        if state in memo:
            return memo[state]
        res = False
        for k in sorted(all_keys - placed, key=sorted):
            if order_attach_ok(lat, placed, by_key[k], memo) and complete(placed | {k}):
                res = True
                break
        memo[state] = res
        return res

    def head(placed: frozenset) -> bool:
        if len(placed) == len(initial):
            return complete(placed)
        for k in sorted(initial - placed, key=sorted):
            if order_attach_ok(lat, placed, by_key[k], memo) and head(placed | {k}):
                return True
        return False

    if not initial <= all_keys:
        return False
    return head(frozenset())


def order_search_shelling(lat, facets, allow, budget: int):
    """The walk over facet orders that
    :func:`~toricdef.polyhedral._search_shelling` replaced, the oracle of
    its walk over sets: depth first, ``allow(pos, facet, covered)`` prunes
    placements, and ``budget`` bounds the placements.  Returns the order,
    or None when none was found within the budget."""
    r = len(facets)
    used = [False] * r
    order = []
    placed = []
    covered: set[int] = set()
    memo: dict = {}
    nodes = 0

    def dfs() -> bool:
        nonlocal nodes
        if len(order) == r:
            return True
        for idx in range(r):
            if used[idx]:
                continue
            if nodes >= budget:
                return False
            g = facets[idx]
            if not allow(len(order), g, covered):
                continue
            if not order_attach_ok(lat, placed, g, memo):
                continue
            nodes += 1
            used[idx] = True
            order.append(g)
            placed.append(g.ray_indices)
            added = g.ray_indices - covered
            covered.update(added)
            if dfs():
                return True
            covered.difference_update(added)
            placed.pop()
            order.pop()
            used[idx] = False
        return False

    return tuple(order) if dfs() else None


def betti_oracle(fan):
    """Even Betti numbers of a complete simplicial fan from its face counts
    alone (the h-vector); odd Betti numbers vanish."""
    n = fan.rank
    counts = fan.face_counts()  # counts[j] = number of j-dimensional cones
    out = []
    for k in range(n + 1):
        out.append(
            sum((-1) ** (i - k) * comb(i, k) * counts[n - i] for i in range(k, n + 1))
        )
    return out


def smith_decomposition(rows, width):
    """``(U, D, V)`` as int lists, with ``U A V = D`` the Smith form of the
    integer matrix ``A`` with the given ``rows`` and ``width`` columns, by
    sympy's ``smith_normal_decomp``."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_decomp

    a = sympy.Matrix(len(rows), width, [int(x) for row in rows for x in row])
    d, u, v = smith_normal_decomp(a, domain=sympy.ZZ)
    return tuple([[int(x) for x in row] for row in m.tolist()] for m in (u, d, v))


def smith_kernel_rows(rows, width):
    """The saturated integer kernel ``{x in Z^width : A x = 0}`` read off a
    Smith form ``U A V = D``: the columns of ``V`` past the rank, in Hermite
    form.  An oracle for :func:`~toricdef.exact_linalg.integer_kernel_rows`,
    which does not use it."""
    from toricdef import exact_linalg as xl

    _, d, v = smith_decomposition(rows, width)
    r = sum(1 for i in range(min(len(d), width)) if d[i][i] != 0)
    return tuple(xl.hermite_rows([[row[j] for row in v] for j in range(r, width)], width))


INFINITE = math.inf


class OutsideSpan(Exception):
    """Raised by :func:`lattice_index` when the sub generators leave the
    rational span of the super generators."""


def lattice_index(sub_rows, super_rows, width):
    """Index of the group generated by ``sub_rows`` inside the one generated
    by ``super_rows``, from the Smith form of the sub generators' coordinates:
    a positive int, or :data:`INFINITE` when the ranks differ.  Raises
    :class:`OutsideSpan` if the sub generators leave the rational span of the
    super generators, and a plain ValueError if they are in the span but not
    in the group."""
    from toricdef import InvariantViolation
    from toricdef import exact_linalg as xl

    basis = xl.hermite_rows(super_rows, width)
    coords = xl.coordinates(basis, [tuple(r) for r in sub_rows])
    if coords is None:
        raise OutsideSpan("sub generators leave the span of the super lattice")
    if xl.matrix_rank(Matrix.from_dense(sub_rows, width)) < len(basis):
        return INFINITE
    if any(not isinstance(x, int) for row in coords for x in row):
        raise ValueError("sub generators are not in the super lattice")
    _, d, _ = smith_decomposition(coords, len(basis))
    diag = [d[i][i] for i in range(min(len(d), len(basis))) if d[i][i] != 0]
    if len(diag) != len(basis):
        raise InvariantViolation("full-rank sublattice with a zero invariant factor")
    return math.prod(abs(x) for x in diag)


def reduce_mod_rows(v, basis_rows):
    """Canonical representative of ``v`` modulo the lattice spanned by a
    Hermite basis: at each pivot column the entry lands in [0, pivot)."""
    from toricdef.exact_linalg import _as_int

    w = [_as_int(x) for x in v]
    for row in basis_rows:
        pc = next(i for i, x in enumerate(row) if x)
        q = w[pc] // row[pc]
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    return tuple(w)


def solve_unit_pairing(w):
    """Integer y with <w, y> = 1; requires gcd of w to be 1."""
    from toricdef import InvariantViolation
    from toricdef.exact_linalg import _as_int

    g = 0
    coeff = [0] * len(w)
    for i, wi in enumerate(w):
        wi = _as_int(wi)
        if wi == 0:
            continue
        if g == 0:
            g = abs(wi)
            coeff = [0] * len(w)
            coeff[i] = 1 if wi > 0 else -1
            continue
        # extended euclid on (g, wi)
        old_r, r = g, wi
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            old_r, old_s, old_t = -old_r, -old_s, -old_t
        coeff = [old_s * c for c in coeff]
        coeff[i] += old_t
        g = old_r
        if g == 1:
            break
    if g != 1:
        raise ValueError(f"pairing vector is not primitive (gcd {g})")
    if sum(a * _as_int(b) for a, b in zip(coeff, w)) != 1:
        raise InvariantViolation("extended Euclid did not reach a unit pairing")
    return tuple(coeff)


def span_coordinates(basis_rows, vectors, width):
    """Coordinates of each vector in the independent ``basis_rows`` of
    ``Q^width``, in any order, by one rational solve; None when some vector
    leaves their span.  :func:`~toricdef.exact_linalg.coordinates` takes
    echelon rows only."""
    from toricdef import exact_linalg as xl

    def columns(vs) -> Matrix:
        return Matrix([{j: v[c] for j, v in enumerate(vs) if v[c]} for c in range(width)], len(vs))

    x = xl.solve_matrix(columns(basis_rows), columns(vectors))
    return None if x is None else [[row.get(j, 0) for row in x.rows] for j in range(len(vectors))]


def normal_generator(mu_span_rows, tau_span_rows, orientation_vectors):
    """Canonical lift of the positive primitive generator of the rank-one
    quotient of two nested saturated lattices.

    ``mu_span_rows`` is a Hermite basis and ``tau_span_rows`` a basis in
    any order, with the mu lattice of corank one inside the tau lattice;
    ``orientation_vectors`` are lattice elements (e.g. rays of the bigger
    face not in the smaller) whose quotient images must come out positive.
    The result is reduced modulo the mu lattice, so it is a canonical
    representative; any other valid representative differs by a mu-lattice
    element.  An oracle for
    the pairings of :meth:`~toricdef.FacePoset.covering_pairing`, which
    reads them off a ray without it.
    """
    from toricdef import NotCovering
    from toricdef import exact_linalg as xl

    if len(tau_span_rows) != len(mu_span_rows) + 1:
        raise NotCovering("lattices do not differ in rank by one")
    width = len(tau_span_rows[0])
    dt = len(tau_span_rows)
    cm = span_coordinates(tau_span_rows, mu_span_rows, width)
    if cm is None or not all(isinstance(x, int) for row in cm for x in row):
        raise NotCovering("mu lattice is not inside tau lattice")
    # the kernel of the r x (r+1) matrix cm is spanned by its signed maximal minors
    w = [(-1) ** j * xl.integer_det([row[:j] + row[j + 1:] for row in cm]) for j in range(dt)]
    if not any(w):
        raise NotCovering("quotient is not of rank one")
    w = xl.primitive_vector(w)
    coords = span_coordinates(tau_span_rows, orientation_vectors, width)
    if coords is None:
        raise NotCovering("orientation vector outside the tau lattice span")
    signs = [sum(a * b for a, b in zip(w, x)) for x in coords]
    if not signs or 0 in signs or (min(signs) < 0 < max(signs)):
        raise NotCovering("orientation vectors do not fix a positive side")
    if signs[0] < 0:
        w = tuple(-x for x in w)
    y = solve_unit_pairing(w)
    lift = tuple(sum(y[i] * tau_span_rows[i][j] for i in range(dt)) for j in range(width))
    return reduce_mod_rows(lift, mu_span_rows)


def span_of(poset, face):
    """The span lattice of a face in a poset's coordinates: the saturated
    kernel of its annihilator rows (in the tilde poset, the face's span
    plus the vertical axis), by :func:`smith_kernel_rows`."""
    return smith_kernel_rows(poset.perps[face.ray_indices], poset.width)


_TILDE_POSETS = weakref.WeakKeyDictionary()


def tilde_poset(fan):
    """The epigraph ("tilde") lifts of a fan's faces as a face poset of
    their own, in one more coordinate: the fan's faces with every
    annihilator row and ray padded by a zero.  The package takes the tilde
    complexes from the fan itself; this poset computes its covering pairs
    and pairings on its own (memoized per fan)."""
    from toricdef.polyhedral import FacePoset

    if fan not in _TILDE_POSETS:
        perps = {k: tuple(r + (0,) for r in v) for k, v in fan.perps.items()}
        rays = tuple(r + (0,) for r in fan.rays)
        _TILDE_POSETS[fan] = FacePoset(fan.width + 1, fan.by_key.values(), perps, rays)
    return _TILDE_POSETS[fan]


def lift_spans(divisor, face):
    """The span lattices of the hat and tilde lifts of a fan face, by the
    Smith reference: the kernels of the face's annihilator rows in the
    divisor's hat poset and the fan's :func:`tilde_poset`."""
    return span_of(divisor.hat, face), span_of(tilde_poset(divisor.fan), face)


def normal_of(poset, mu, tau):
    """The canonical normal of a covering pair of a face poset, by
    :func:`normal_generator`, oriented by the rays of ``tau`` not in ``mu``."""
    orient = [poset.rays[i] for i in sorted(tau.ray_indices - mu.ray_indices)]
    return normal_generator(span_of(poset, mu), span_of(poset, tau), orient)


def pairing_of_normal(poset, mu, tau, n):
    """The :class:`~toricdef.exact_linalg.Pairing` of a covering pair read
    off the vector ``n`` instead of a ray."""
    from toricdef.exact_linalg import pairing

    perp = poset.perps[mu.ray_indices]
    values = [sum(x * y for x, y in zip(n, a)) for a in perp]
    return pairing(values, perp, poset.basis(tau.ray_indices))


def assert_pairings_match_normals(poset) -> int:
    """Check every covering pair of a face poset against the canonical
    normal: its pairing is primitive and equals the pairing of
    :func:`normal_of` with ``perps[mu]``, its pivot has the least nonzero
    absolute value, and its coordinates give the rows ``p_j a_i - p_i a_j``
    in ``perps[tau]``.  Returns the number of pairs."""
    from math import gcd

    pairs = 0
    for tau in poset.all_faces:
        for mu in poset.covered_by(tau):
            got = poset.covering_pairing(mu, tau)
            perp, target = poset.perps[mu.ray_indices], poset.perps[tau.ray_indices]
            assert got == pairing_of_normal(poset, mu, tau, normal_of(poset, mu, tau))
            assert gcd(*got.values) == 1
            pj, aj = got.values[got.pivot], perp[got.pivot]
            assert abs(pj) == min(abs(x) for x in got.values if x)
            assert len(got.coords) == len(perp)
            for a, pi, g in zip(perp, got.values, got.coords):
                combo = [sum(c * t[k] for c, t in zip(g, target)) for k in range(poset.width)]
                assert combo == [pj * x - pi * y for x, y in zip(a, aj)]
            pairs += 1
    return pairs


def lift_identities(fan, divisor):
    """Assert the three lattice identities tying the graph and epigraph lifts
    of each face (and covering pair) of a divisor's fan."""
    n = fan.rank
    vertical = (0,) * n + (1,)
    faces = list(fan.by_key.values())
    pairs = [
        (m, t)
        for m in faces
        for t in faces
        if m.dim + 1 == t.dim and m.ray_indices < t.ray_indices
    ]
    assert pairs
    for mu, tau in pairs:
        (lm_hat, lm_tilde), (lt_hat, lt_tilde) = lift_spans(divisor, mu), lift_spans(divisor, tau)
        orient = [divisor.hat.rays[i] for i in sorted(tau.ray_indices) if i not in mu.ray_indices]
        n_hat = normal_generator(lm_hat, lt_hat, orient)
        n_til = normal_generator(lm_tilde, lt_tilde, orient)
        # the embedded quotient-fan normal agrees with the epigraph normal
        n_emb = normal_of(fan, mu, tau) + (0,)
        assert reduce_mod_rows(n_emb, lm_tilde) == reduce_mod_rows(
            n_til, lm_tilde
        )
        # graph and epigraph normals agree after clearing the vertical indices
        left = tuple(divisor.vertical_index(mu.ray_indices) * x for x in n_hat)
        right = tuple(divisor.vertical_index(tau.ray_indices) * x for x in n_til)
        assert reduce_mod_rows(left, lm_tilde) == reduce_mod_rows(
            right, lm_tilde
        )
    for face in faces:
        hat_span, tilde_span = lift_spans(divisor, face)
        n_vert = normal_generator(hat_span, tilde_span, [vertical])
        scaled = tuple(divisor.vertical_index(face.ray_indices) * x for x in n_vert)
        assert reduce_mod_rows(scaled, hat_span) == reduce_mod_rows(
            vertical, hat_span
        )
