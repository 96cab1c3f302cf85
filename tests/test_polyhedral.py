"""Cones, face lattices, fans, quotients, pyramids, and shellings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CUBE_RAYS,
    GLUED_RAYS,
    random_apex,
    random_complete_simplicial_fan,
    random_cone,
    random_interior,
)
from toricdef import (
    ApexInHyperplane,
    NotAPermutation,
    NotCovering,
    NotFullDim,
    NotInterior,
    NotStronglyConvex,
    ValidationError,
    ZeroVector,
    Shelling,
    cone_from_rays,
    face_lattice,
    fan_from_cones,
    is_shelling,
    line_shelling,
    normal_generator,
    pyramid,
    star_quotient,
)
from toricdef.exact_linalg import nonnegative_combination, reduce_mod_rows
from toricdef.polyhedral import face_cone


# ---------------------------------------------------------------------------
# cone construction


def test_cone_primitivizes_and_dedupes():
    c = cone_from_rays(((2, 0), (4, 0), (0, 3)), 2)
    assert set(c.rays) == {(1, 0), (0, 1)}


def test_cone_drops_redundant_rays():
    c = cone_from_rays(((1, 0), (0, 1), (1, 1)), 2)
    assert set(c.rays) == {(1, 0), (0, 1)}


def test_cone_rejects_lines_and_zero():
    with pytest.raises(NotStronglyConvex):
        cone_from_rays(((1, 0), (-1, 0)), 2)
    with pytest.raises(ZeroVector):
        cone_from_rays(((0, 0), (1, 0)), 2)


def test_cone_dim_of_lower_dimensional_cone():
    c = cone_from_rays(((1, 0, 1), (-1, 0, 1)), 3)
    assert c.dim == 2 and c.rank == 3


# ---------------------------------------------------------------------------
# face lattices


@pytest.mark.parametrize(
    "rays,rank,counts",
    [
        ((((1, 0), (0, 1))), 2, (1, 2, 1)),
        ((((1, 0, 0), (0, 1, 0), (0, 0, 1))), 3, (1, 3, 3, 1)),
        ((((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))), 3, (1, 4, 4, 1)),
        (CUBE_RAYS, 4, (1, 8, 12, 6, 1)),
        (GLUED_RAYS, 4, (1, 6, 11, 7, 1)),
    ],
)
def test_face_counts(rays, rank, counts):
    assert face_lattice(cone_from_rays(rays, rank)).face_counts() == counts


def test_face_counts_fixture_cones(cone_a, cone_13):
    assert face_lattice(cone_a).face_counts() == (1, 14, 24, 12, 1)
    assert face_lattice(cone_13).face_counts() == (1, 13, 24, 13, 1)


def test_diamond_property_on_fixtures(cone_a, cone_13, cube_cone, glued_cone):
    for cone in (cone_a, cone_13, cube_cone, glued_cone):
        assert face_lattice(cone).check_diamond()


def test_face_cone_matches_cone_from_rays(cone_a, cone_b, cone_13):
    rng = random.Random(11)
    pyramids = []
    for _ in range(3):
        base = random_cone(rng, rng.choice((3, 4)))
        pyramids.append(pyramid(base, random_apex(rng, base.rank)))
    for cone in (cone_a, cone_b, cone_13, *pyramids):
        for f in face_lattice(cone).all_faces[1:]:
            sub = face_cone(cone, f)
            oracle = cone_from_rays([cone.rays[i] for i in sorted(f.ray_indices)], cone.rank)
            assert (sub.rank, sub.rays, sub.dim) == (oracle.rank, oracle.rays, oracle.dim)


def test_meet_and_cover_relations(cube_cone):
    lat = face_lattice(cube_cone)
    top = lat.top()
    facets = lat.covered_by(top)
    assert len(facets) == 6
    a, b = facets[0], facets[1]
    m = lat.meet(a, b)
    assert m.ray_indices == (a.ray_indices & b.ray_indices)


def test_interior_detection(square_cone):
    lat = face_lattice(square_cone)
    assert lat.is_interior((0, 0, 2))
    assert not lat.is_interior((1, 0, 1))  # on a facet
    assert not lat.is_interior((5, 0, 1))  # outside


# ---------------------------------------------------------------------------
# normal generators


def test_normal_generator_orthant(orthant3):
    lat = face_lattice(orthant3)
    mu = lat.by_key[frozenset({0})]
    tau = lat.by_key[frozenset({0, 1})]
    n = lat.normal_generator(mu, tau)
    assert n == (0, 1, 0)
    # already reduced mod the smaller lattice
    assert reduce_mod_rows(n, mu.span_rows) == n


def test_normal_generator_requires_covering():
    with pytest.raises(NotCovering):
        normal_generator(((1, 0, 0),), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), [(0, 1, 0)])


def test_normal_generator_canonical_representative():
    # two different spans of the same covering pair give the same normal
    n1 = normal_generator(((1, 0),), ((1, 0), (0, 1)), [(0, 1)])
    n2 = normal_generator(((1, 0),), ((0, 1), (1, 0)), [(3, 1)])
    assert n1 == n2


# ---------------------------------------------------------------------------
# fans


def test_p2_fan_complete(p2_fan):
    assert p2_fan.is_complete()
    assert p2_fan.face_counts() == (1, 3, 3)


def _uncovered_sample(fan, samples: int = 24):
    """A seeded random lattice point outside every maximal cone, or None:
    a randomized coverage probe that cross-checks the exact completeness
    test."""
    rng = random.Random(0x5EED)
    for _ in range(samples):
        v = tuple(rng.randint(-40, 40) for _ in range(fan.rank))
        if not any(
            nonnegative_combination([fan.rays[i] for i in k], v) is not None for k in fan.maximal
        ):
            return v
    return None


def test_incomplete_fan():
    fan = fan_from_cones(((1, 0), (0, 1)), ((0, 1),), 2)
    assert not fan.is_complete()
    assert _uncovered_sample(fan) is not None


@pytest.mark.parametrize("seed", range(4))
def test_completeness_agrees_with_sampled_coverage(seed):
    rng = random.Random(seed)
    fan = random_complete_simplicial_fan(rng, rng.choice((2, 3)), rng.randrange(0, 5))
    assert fan.is_complete()
    assert _uncovered_sample(fan) is None
    # without one maximal cone the fan misses that cone's interior
    drop = rng.randrange(len(fan.maximal))
    rest = fan.maximal[:drop] + fan.maximal[drop + 1 :]
    holed = fan_from_cones(fan.rays, rest, fan.rank)
    assert not holed.is_complete()
    inside = tuple(sum(fan.rays[i][c] for i in fan.maximal[drop]) for c in range(fan.rank))
    assert all(nonnegative_combination([fan.rays[i] for i in k], inside) is None for k in rest)


def test_fan_rejects_a_repeated_cone():
    # a cone listed twice would put each of its walls in two maximal cones
    with pytest.raises(ValidationError):
        fan_from_cones(((1, 0), (0, 1)), ((0, 1), (1, 0)), 2)


def test_fan_rejects_a_cone_that_is_a_face_of_another():
    # the P^2 fan with its ray (0,) listed as a fourth cone: accepted, the
    # exact completeness test would answer False for a complete support
    with pytest.raises(ValidationError, match="face of the other"):
        fan_from_cones(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0), (0,)), 2)


def test_fan_rejects_overlapping_cones():
    with pytest.raises(ValidationError):
        fan_from_cones(((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)), 2)


def test_fan_rejects_bad_intersection():
    # the cones meet along the ray e1, which is a face of the first cone but
    # interior to the second, so the pair cannot belong to one fan
    with pytest.raises(ValidationError):
        fan_from_cones(
            ((1, 0, 0), (0, 1, 0), (1, 0, 1), (1, 0, -1)),
            ((0, 1), (2, 3)),
            3,
        )


# ---------------------------------------------------------------------------
# star quotients


def test_star_quotient_orthant(orthant3):
    fan, divisor = star_quotient(orthant3, (1, 1, 1))
    assert fan.rank == 2
    assert fan.is_complete()
    assert len(fan.maximal) == 3
    assert divisor.cartier_denominator == 1


def test_star_quotient_counts_match(cone_a):
    fan, _ = star_quotient(cone_a, (0, 0, 0, 1))
    assert fan.face_counts() == (1, 14, 24, 12)


def test_star_quotient_rejects_boundary_ray(orthant3):
    with pytest.raises(NotInterior):
        star_quotient(orthant3, (1, 1, 0))


def test_star_quotient_rejects_lower_dimensional():
    flat = cone_from_rays(((1, 0, 1), (-1, 0, 1)), 3)
    with pytest.raises(NotFullDim):
        star_quotient(flat, (0, 0, 1))


# ---------------------------------------------------------------------------
# pyramids


def test_pyramid_counts(square_cone):
    top = pyramid(square_cone, (0, 0, 0, 1))
    lat = face_lattice(top)
    # every face is either old or the pyramid over an old face
    assert lat.face_counts() == (1, 5, 8, 5, 1)


def test_pyramid_rejects_flat_apex(square_cone):
    with pytest.raises(ApexInHyperplane):
        pyramid(square_cone, (1, 1, 1, 0))


# ---------------------------------------------------------------------------
# shellings


def test_line_shelling_is_shelling(cube_cone, cone_a, glued_cone):
    for cone in (cube_cone, cone_a, glued_cone):
        sh = line_shelling(cone, seed=0)
        assert is_shelling(cone, sh)
        # deterministic per seed
        again = line_shelling(cone, seed=0)
        assert sh.keys() == again.keys()


def test_is_shelling_rejects_disconnected_start(cube_cone):
    lat = face_lattice(cube_cone)
    facets = list(lat.faces_by_dim[3])
    # find two disjoint (opposite) facets and begin with them
    first = facets[0]
    opposite = next(f for f in facets if not (f.ray_indices & first.ray_indices))
    rest = [f for f in facets if f not in (first, opposite)]
    assert not is_shelling(cube_cone, [first, opposite] + rest)


def test_is_shelling_rejects_non_permutation(cube_cone):
    lat = face_lattice(cube_cone)
    facets = list(lat.faces_by_dim[3])
    with pytest.raises(NotAPermutation):
        is_shelling(cube_cone, facets[:3])
    with pytest.raises(NotAPermutation):
        is_shelling(cube_cone, facets + [facets[0]])


def test_shelling_object_round_trip(cube_cone):
    sh = line_shelling(cube_cone, seed=1)
    assert isinstance(sh, Shelling)
    assert len(sh.keys()) == 6


# ---------------------------------------------------------------------------
# randomized structure

@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_random_cone_structure(seed):
    rng = random.Random(seed)
    cone = random_cone(rng, rng.randrange(2, 5))
    lat = face_lattice(cone)
    assert lat.check_diamond()
    counts = lat.face_counts()
    assert counts[0] == counts[-1] == 1
    assert counts[1] == len(cone.rays)
    # every ray is primitive and interior vectors are detected
    from math import gcd

    for r in cone.rays:
        g = 0
        for c in r:
            g = gcd(g, c)
        assert g == 1
    assert lat.is_interior(random_interior(rng, cone))
