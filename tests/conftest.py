"""Shared fixtures: frozen ray lists, standard fans, seeded random generators,
and independent oracles used across the test suite."""

import math
import random
from math import comb

import pytest

from toricdef import cone_from_rays, fan_from_cones, pyramid

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


def random_cone(rng: random.Random, rank: int, extra_rays: int | None = None):
    """A full-dimensional strongly convex cone: the cone over a random lattice
    polytope placed at height one."""
    if extra_rays is None:
        extra_rays = rng.randrange(1, 4)
    want = rank + extra_rays
    while True:
        pts = set()
        while len(pts) < want:
            pts.add(tuple(rng.randrange(-3, 4) for _ in range(rank - 1)) + (1,))
        cone = cone_from_rays(sorted(pts), rank)
        if cone.dim == rank:
            return cone


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


def cyclic_cone(params, rank):
    """The cone over the cyclic polytope with the given moment-curve parameters."""
    return cone_from_rays([tuple(t**k for k in range(1, rank)) + (1,) for t in params], rank)


def _primitive(v):
    from math import gcd

    g = 0
    for c in v:
        g = gcd(g, c)
    return tuple(c // g for c in v)


def random_complete_simplicial_fan(rng: random.Random, rank: int, splits: int):
    """Random stellar subdivisions of the standard simplex fan: stays
    complete and simplicial at every step."""
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
    return fan_from_cones(rays, maximal, rank)


# ---------------------------------------------------------------------------
# oracles


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


def smith_kernel_rows(rows, width):
    """The saturated integer kernel ``{x in Z^width : A x = 0}`` read off a
    Smith form ``U A V = D``: the columns of ``V`` past the rank, in Hermite
    form.  An oracle for :func:`~toricdef.exact_linalg.integer_kernel_rows`,
    which does not use it."""
    from toricdef import exact_linalg as xl

    a = [[int(x) for x in row] for row in rows]
    _, d, v = xl._smith(a, width)
    r = sum(1 for i in range(min(len(a), width)) if d[i][i] != 0)
    return tuple(xl.hermite_rows([[row[j] for row in v] for j in range(r, width)], width))


INFINITE = math.inf


def lattice_index(sub_rows, super_rows, width):
    """Index of the group generated by ``sub_rows`` inside the one generated
    by ``super_rows``, from the Smith form of the sub generators' coordinates:
    a positive int, or :data:`INFINITE` when the ranks differ.  Raises
    SPAN_VIOLATION if the sub generators leave the rational span of the super
    generators, and a plain ValueError if they are in the span but not in the
    group."""
    from toricdef import InvariantViolation, SpanViolation
    from toricdef import exact_linalg as xl

    basis = xl.hermite_rows(super_rows, width)
    coords = xl.coordinates(basis, [tuple(r) for r in sub_rows])
    if coords is None:
        raise SpanViolation("sub generators leave the span of the super lattice")
    if xl.matrix_rank(xl.integer_matrix(sub_rows, width)) < len(basis):
        return INFINITE
    if any(not isinstance(x, int) for row in coords for x in row):
        raise ValueError("sub generators are not in the super lattice")
    _, d, _ = xl._smith(coords, len(basis))
    diag = [d[i][i] for i in range(min(len(d), len(basis))) if d[i][i] != 0]
    if len(diag) != len(basis):
        raise InvariantViolation("full-rank sublattice with a zero invariant factor")
    return math.prod(abs(x) for x in diag)


def span_of(poset, face):
    """The span lattice of a face in a poset's coordinates: the saturated
    kernel of its annihilator rows (in the padded tilde poset, the face's
    span plus the vertical axis), by :func:`smith_kernel_rows`."""
    return smith_kernel_rows(poset.perps[face.ray_indices], poset.width)


def lift_spans(divisor, face):
    """The span lattices of the hat and tilde lifts of a fan face, by the
    Smith reference: the kernels of the face's annihilator rows in the
    divisor's hat and tilde posets."""
    return span_of(divisor.hat, face), span_of(divisor.tilde, face)


def normal_of(poset, mu, tau):
    """The canonical normal of a covering pair of a face poset, by
    :func:`normal_generator`, oriented by the rays of ``tau`` not in ``mu``."""
    from toricdef import normal_generator

    orient = [poset.rays[i] for i in sorted(tau.ray_indices - mu.ray_indices)]
    return normal_generator(span_of(poset, mu), span_of(poset, tau), orient)


def pairing_of_normal(poset, mu, tau, n):
    """The :class:`~toricdef.exact_linalg.Pairing` of a covering pair read
    off the vector ``n`` instead of a ray."""
    from toricdef.exact_linalg import pairing

    perp = poset.perps[mu.ray_indices]
    values = [sum(x * y for x, y in zip(n, a)) for a in perp]
    return pairing(values, perp, poset.perps[tau.ray_indices])


def assert_pairings_match_normals(poset) -> int:
    """Check every covering pair of a face poset against the canonical
    normal: its pairing is primitive and equals the pairing of
    :func:`normal_of` with ``perps[mu]``, its pivot has the least nonzero
    absolute value, and its coordinates, over its scale, give the rows
    ``p_j a_i - p_i a_j`` in ``perps[tau]``.  Returns the number of pairs."""
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
                assert [pj * x for x in combo] == [got.scale * (pj * x - pi * y) for x, y in zip(a, aj)]
            pairs += 1
    return pairs


def lift_identities(fan, divisor):
    """Assert the three lattice identities tying the graph and epigraph lifts
    of each face (and covering pair) of a divisor's fan."""
    from toricdef import normal_generator
    from toricdef.exact_linalg import reduce_mod_rows

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
        lm = divisor.lifted[mu.ray_indices]
        lt = divisor.lifted[tau.ray_indices]
        (lm_hat, lm_tilde), (lt_hat, lt_tilde) = lift_spans(divisor, mu), lift_spans(divisor, tau)
        orient = [
            lt.hat_rays[i]
            for i, ridx in enumerate(sorted(tau.ray_indices))
            if ridx not in mu.ray_indices
        ]
        n_hat = normal_generator(lm_hat, lt_hat, orient)
        n_til = normal_generator(lm_tilde, lt_tilde, orient)
        # the embedded quotient-fan normal agrees with the epigraph normal
        n_emb = normal_of(fan, mu, tau) + (0,)
        assert reduce_mod_rows(n_emb, lm_tilde) == reduce_mod_rows(
            n_til, lm_tilde
        )
        # graph and epigraph normals agree after clearing the vertical indices
        left = tuple(lm.vertical_index * x for x in n_hat)
        right = tuple(lt.vertical_index * x for x in n_til)
        assert reduce_mod_rows(left, lm_tilde) == reduce_mod_rows(
            right, lm_tilde
        )
    for face in faces:
        lf = divisor.lifted[face.ray_indices]
        hat_span, tilde_span = lift_spans(divisor, face)
        n_vert = normal_generator(hat_span, tilde_span, [vertical])
        scaled = tuple(lf.vertical_index * x for x in n_vert)
        assert reduce_mod_rows(scaled, hat_span) == reduce_mod_rows(
            vertical, hat_span
        )
