"""Cones, face lattices, fans, quotients, pyramids, and shellings."""

import itertools
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    A_RAYS,
    assert_pairings_match_normals,
    B_RAYS,
    CUBE_RAYS,
    GLUED_RAYS,
    T13_RAYS,
    cyclic_cone,
    cyclic_rays,
    lift_spans,
    lp_cone_from_rays,
    lp_fan_faces,
    lp_pair_overlaps,
    make_p112,
    nonnegative_combination,
    normal_generator,
    oracle_faces,
    primitive_apexes,
    random_apex,
    random_complete_simplicial_fan,
    random_cone,
    random_interior,
    reduce_mod_rows,
    relabelled,
    seed77_cones,
    seed77_generators,
    smith_kernel_rows,
    stellar_fan_data,
    subset_facets,
)
import toricdef
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
    ToricError,
    cone_from_rays,
    face_lattice,
    fan_from_cones,
    is_shelling,
    lcdef_variety,
    line_shelling,
    pyramid,
    star_quotient,
)
from toricdef import exact_linalg as xl
from toricdef.cli import MAX_RANK, MAX_RAYS, InputDocument, serialize_document
from toricdef.cli import run as cli_run
from toricdef.ishida import graded_piece
from toricdef.lefschetz import support_data
from toricdef import polyhedral
from toricdef.polyhedral import Cone, Face, FaceLattice, FacePoset, face_cone


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


def test_the_rank_defaults_to_the_width_of_the_first_ray():
    assert cone_from_rays(((1, 0, 0), (0, 1, 0))).rank == 3
    assert fan_from_cones(((1, 0, 0), (0, 1, 0)), ((0, 1),)).rank == 3


def test_generators_are_integer_vectors():
    c = cone_from_rays(((Fraction(2), 0), (0, Fraction(3, 1))))
    assert c.rays == ((1, 0), (0, 1))
    assert all(type(x) is int for r in c.rays for x in r)
    with pytest.raises(ValidationError) as err:
        cone_from_rays(([1.0, 0], [0, 1]))
    assert str(err.value) == "VALIDATION_ERROR: expected an integer vector, got [1.0, 0]"


def test_numpy_integers_are_accepted_wherever_ints_are(cone_a):
    """Rays, apexes and interior rays of numpy integers give what the same
    ints give."""
    a = cone_from_rays(np.array(A_RAYS, dtype=np.int64))
    assert a.rays == cone_a.rays
    assert all(type(x) is int for r in a.rays for x in r)
    assert face_lattice(a).face_counts() == face_lattice(cone_a).face_counts()
    assert lcdef_variety(a) == lcdef_variety(cone_a)
    top = pyramid(a, np.array((0, 0, 0, 0, 1), dtype=np.int64))
    want = pyramid(cone_a, (0, 0, 0, 0, 1))
    assert top.rays == want.rays
    assert face_lattice(top).face_counts() == face_lattice(want).face_counts()
    assert lcdef_variety(top) == lcdef_variety(want)
    fan, divisor = star_quotient(a, np.array((0, 0, 0, 1), dtype=np.int64))
    want_fan, want_divisor = star_quotient(cone_a, (0, 0, 0, 1))
    assert fan.rays == want_fan.rays
    assert fan.face_counts() == want_fan.face_counts()
    assert divisor.alpha == want_divisor.alpha
    rebuilt = fan_from_cones(np.array(want_fan.rays, dtype=np.int64), [np.array(c) for c in want_fan.maximal])
    assert rebuilt.rays == want_fan.rays and rebuilt.maximal == want_fan.maximal
    assert rebuilt.face_counts() == want_fan.face_counts()


@pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(1), Fraction(1, 2), "1", None], ids=repr)
def test_entries_that_are_not_integers_are_refused(square_cone, bad):
    calls = [
        lambda: cone_from_rays(((bad, 0, 1), (0, 1, 1))),
        lambda: fan_from_cones(((bad, 0), (0, 1)), ((0, 1),)),
        lambda: pyramid(square_cone, (0, 0, bad, 1)),
        lambda: star_quotient(square_cone, (0, bad, 1)),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^VALIDATION_ERROR: expected an integer vector, got "):
            call()


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


def test_interior_detection_off_the_span_and_on_the_zero_face(cone_a):
    # fixture A's rays with their coordinate sum appended: a 4-cone in rank 5
    rays = [r + (sum(r),) for r in A_RAYS]
    lat = face_lattice(cone_from_rays(rays, 5))
    assert lat.cone.dim == 4
    assert lat.is_interior(tuple(map(sum, zip(*rays))))
    assert not lat.is_interior((0, 0, 0, 0, 1))  # off the span
    (zero,) = face_lattice(cone_a).faces_by_dim[0]
    zero_lat = face_lattice(face_cone(cone_a, zero))
    assert zero_lat.is_interior((0, 0, 0, 0))
    assert not any(zero_lat.is_interior(v) for v in ((1, 0, 0, 0), (0, 0, 0, -1), (1, 1, 1, 2)))


# ---------------------------------------------------------------------------
# normal generators


def test_normal_generator_orthant(orthant3):
    lat = face_lattice(orthant3)
    mu = lat.by_key[frozenset({0})]
    tau = lat.by_key[frozenset({0, 1})]
    n = normal_generator(mu.span_rows, tau.span_rows, [orthant3.rays[1]])
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
# covering pairings


def test_covering_pairings_are_the_pairings_of_the_normals():
    cones = [cone_from_rays(rays, 4) for rays in (A_RAYS, B_RAYS, T13_RAYS)]
    cones += seed77_cones() + [cyclic_cone(range(-4, 5), 5)]
    for cone in cones:
        assert assert_pairings_match_normals(face_lattice(cone)) > 0


def test_below_posets_share_the_covering_pairings(cone_13):
    lat = face_lattice(cone_13)
    for tau in lat.faces_by_dim[3]:
        below = lat.below(tau.ray_indices)
        assert below._pairings is lat._pairings and below._bases is lat._bases
        assert assert_pairings_match_normals(below) > 0
    for key, pairing in lat._pairings.items():
        assert lat.covering_pairing(lat.by_key[key[0]], lat.by_key[key[1]]) is pairing


def test_fan_covering_pairings_are_the_pairings_of_the_normals():
    for fan in (make_p112(), _stellar_fan()):
        assert assert_pairings_match_normals(fan) > 0


def test_covering_pairing_checks_the_rays_outside_the_smaller_face():
    def poset(rays):
        zero = Face(frozenset(), 0, ((1, 0), (0, 1)))
        line = Face(frozenset({0, 1}), 1, ((0, 1),))
        perps = {f.ray_indices: f.perp_rows for f in (zero, line)}
        return FacePoset(2, (zero, line), perps, rays), zero, line

    p, zero, line = poset(((1, 0), (2, 0)))
    assert p.covering_pairing(zero, line).values == (1, 0)
    # opposite rays fix no positive side; independent rays span two dimensions
    for rays in (((1, 0), (-1, 0)), ((1, 0), (0, 1)), ((0, 0), (1, 0))):
        p, zero, line = poset(rays)
        with pytest.raises(NotCovering):
            p.covering_pairing(zero, line)


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


@pytest.mark.parametrize(
    "rays, maximal, error, message",
    [
        ((), ((0,),), ValidationError, "a fan needs at least one ray"),
        (((1, 0), (1, 0, 0)), ((0,),), ValidationError, "rays of mixed lengths"),
        (((1, 0), (0, 0)), ((0,),), ZeroVector, "zero ray"),
        (((2, 0), (0, 1)), ((0, 1),), ValidationError, "ray (2, 0) is not primitive"),
        (((1, 0), (0, 1), (1, 0)), ((0, 1),), ValidationError, "duplicate rays"),
        (((1, 0), (0, 1)), ((0, 2),), ValidationError, "cone refers to a missing ray"),
        (((1, 0), (0, 1)), ((-1, 1),), ValidationError, "cone refers to a missing ray"),
        (((1, 0), (0, 1)), (), ValidationError, "a fan needs at least one maximal cone"),
    ],
)
def test_fan_input_checks(rays, maximal, error, message):
    with pytest.raises(error) as err:
        fan_from_cones(rays, maximal)
    assert str(err.value) == f"{error.ident}: {message}"


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


def test_apex_free_faces_of_a_pyramid_have_the_base_lattice_data():
    """The fact the pyramid's reuse of its base rests on (proved in
    ``pyramid``): a face of the pyramid missing the apex, built as a face
    cone of a cone with the pyramid's rays but no base link, has the span
    rows of the base's face cone on the same ray indices padded with a zero
    coordinate, and the same ray coordinates, faces, keys, ``perps`` and
    facet normals."""
    rng = random.Random(25)
    checked = 0
    for base in seed77_cones():
        base_lat = face_lattice(base)
        for _ in range(3):
            apex = random_apex(rng, base.rank)
            pyr = pyramid(base, apex)
            assert pyr._base is base
            assert pyr.rays[:-1] == tuple(r + (0,) for r in base.rays)
            fresh = cone_from_rays(pyr.rays, pyr.rank)
            assert fresh._base is None and fresh.rays == pyr.rays
            apex_index = len(base.rays)
            for f in face_lattice(fresh).all_faces:
                if apex_index in f.ray_indices:
                    continue
                ours = face_lattice(face_cone(fresh, f))
                theirs = face_lattice(face_cone(base, base_lat.by_key[f.ray_indices]))
                assert ours.span_rows == tuple(r + (0,) for r in theirs.span_rows), f.key
                assert ours.rays == theirs.rays, f.key
                assert ours.width == theirs.width, f.key
                assert [(g.ray_indices, g.dim) for g in ours.all_faces] == [
                    (g.ray_indices, g.dim) for g in theirs.all_faces
                ], f.key
                assert ours.perps == theirs.perps, f.key
                assert ours.facet_normals == theirs.facet_normals, f.key
                checked += 1
    assert checked == 3 * sum(len(face_lattice(c).by_key) for c in seed77_cones()) == 2484


SQUARE_RAYS = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))


def test_a_pyramid_whose_derived_faces_are_corrupted_is_refused():
    """The checks on a pyramid's faces read off its base each raise
    INVARIANT_VIOLATION when the pyramid's lattice is built: a base facet
    key handed to the hull that is not a facet, with the base's lattice
    built before (the hull's facets are not the lattice's) or after (the
    base's lattice has the false facet, and no row of its join with the
    apex supports the join), and a base annihilator row moved off its
    face, which moves the rows of its join with the apex off that join.
    On fresh square cones."""
    for lattice_first, match in ((True, "hull's facets"), (False, "supports it")):
        base = cone_from_rays(SQUARE_RAYS, 3)
        if lattice_first:
            face_lattice(base)
        top, coords, facets, span = polyhedral._hull(base)
        assert frozenset({0, 2}) not in facets
        base._hull = (top, coords, (frozenset({0, 2}),) + facets[1:], span)
        face_lattice(base)
        with pytest.raises(toricdef.InvariantViolation, match=match):
            face_lattice(pyramid(base, (0, 0, 0, 1)))
    base = cone_from_rays(SQUARE_RAYS, 3)
    lat = face_lattice(base)
    ray, *rest = lat.faces_by_dim[1]
    ((a, *b), *others) = ray.perp_rows
    lat.faces_by_dim[1] = (Face(ray.ray_indices, 1, ((a + 1, *b), *others)), *rest)
    for height in (1, 2):
        with pytest.raises(toricdef.InvariantViolation, match="apex face row"):
            face_lattice(pyramid(base, (0, 0, 1, height)))


# (-2, 0, -1, 1) is not extreme, and the facets found with it come out of
# the renumbering in another order than that of their least bases
REDUNDANT_GENERATORS = (
    (-2, 0, -1, 1), (-1, -2, 0, 1), (-2, -2, 0, 1), (0, -1, 1, 1),
    (2, 0, -1, 1), (-2, 2, -2, 1), (2, -1, 2, 1), (1, -1, 2, 1),
)


def _assert_same_pyramid(pyr):
    """``pyr``'s hull and face lattice, read off its base, are those of a
    cone built afresh on its rays by the facet search, field by field."""
    fresh = cone_from_rays(pyr.rays, pyr.rank)
    assert fresh._base is None and fresh.rays == pyr.rays
    ours, theirs = polyhedral._hull(pyr), polyhedral._hull(fresh)
    assert ours[0] == theirs[0] and ours[1] == theirs[1] and ours[3] == theirs[3], pyr.rays
    assert ours[2] == theirs[2], pyr.rays  # the facet keys, in order
    lat, want = face_lattice(pyr), face_lattice(fresh)
    assert [(f.ray_indices, f.dim, f.perp_rows) for f in lat.by_key.values()] == [
        (f.ray_indices, f.dim, f.perp_rows) for f in want.by_key.values()
    ], pyr.rays
    assert lat.perps == want.perps and lat.facet_normals == want.facet_normals, pyr.rays
    assert (lat.span_rows, lat.rays, lat.face_counts()) == (want.span_rows, want.rays, want.face_counts())


def test_pyramids_have_the_hull_and_lattice_of_a_fresh_cone():
    """The oracle of a pyramid's hull and faces read off its base: a cone
    built on the same rays by the facet search, with no base link, has the
    same top face, coordinates, facet keys in order and span, the same
    faces with the same rows, and the same intrinsic rows.  Over the seed-77
    bases, the same sheared into one rank more (not full-dimensional),
    cyclic (4, 7) and (5, 8), and a cone on generators that are not all
    extreme, whose facets, renumbered, are not in the order of their least
    bases; with apexes of heights 1, 2 and 3 of either sign, each base's
    lattice built before or after the pyramid, and a pyramid over each
    pyramid."""
    rng = random.Random(32)
    bases = [(c.rays, c.rank) for c in seed77_cones()[::2]]
    bases += [([r + (sum(r),) for r in rays], rank + 1) for rays, rank in bases]
    bases += [(cyclic_rays(range(7), 4), 4), (cyclic_rays(range(8), 5), 5), (REDUNDANT_GENERATORS, 4)]
    checked = 0
    for i, (gens, rank) in enumerate(bases):
        for j, apex in enumerate(primitive_apexes(rng, rank)):
            base = cone_from_rays(gens, rank)  # a fresh memo, its lattice built first for odd j
            if j % 2:
                face_lattice(base)
            pyr = pyramid(base, apex)
            _assert_same_pyramid(pyr)
            top = pyramid(pyr, primitive_apexes(rng, pyr.rank)[(i + j) % 6])
            _assert_same_pyramid(top)
            checked += 2
    assert checked == 252


def test_a_pyramid_over_a_built_base_takes_only_its_top_span(kernel_calls, monkeypatch):
    """A pyramid and its face lattice over a base whose lattice is built
    run no facet search and no double description, and take one integer
    kernel, the top span, and no cut but that kernel's.  With an apex of
    last coordinate ±1 that is all; with a larger one, the apex faces whose
    values it does not divide each take the unimodular completion of one
    row and one Hermite form of its image.  Over seed-77 cone 4, sheared
    into one rank more so that its top has one annihilator row, and over
    fixture A for the unit apexes.  (The sheared pyramids are not
    full-dimensional, so their lattices restrict each face's rows to the
    span, one Hermite form per face.)"""
    searched = []
    facets, build = polyhedral._facets, polyhedral.cone_from_rays
    monkeypatch.setattr(polyhedral, "_facets", lambda *a: searched.append(a) or facets(*a))
    monkeypatch.setattr(polyhedral, "cone_from_rays", lambda *a: searched.append(a) or build(*a))
    seed = seed77_cones()[4]
    sheared = build([r + (sum(r),) for r in seed.rays], seed.rank + 1)
    kernel = xl.integer_kernel_rows
    unit = xl._unit_column
    rows, completed = [], []
    monkeypatch.setattr(xl, "integer_kernel_rows", lambda r, width: rows.append(len(r)) or kernel(r, width))
    monkeypatch.setattr(xl, "_unit_column", lambda rho: completed.append(len(rho)) or unit(rho))
    cut, hermite = xl._cut, xl.hermite_rows
    cuts, hermites = [], []
    monkeypatch.setattr(xl, "_cut", lambda *a: cuts.append(sys._getframe(1).f_code.co_name) or cut(*a))
    monkeypatch.setattr(xl, "hermite_rows", lambda *a: hermites.append(sys._getframe(1).f_code.co_name) or hermite(*a))
    for base, apexes in ((sheared, [(1, 0, 0, 0, 0, 0, 1), (0, 1, 2, 0, 0, 1, -1), (1, 0, 0, 0, 0, 0, 2), (1, 1, 0, -1, 0, 0, -3)]),
                         (build(A_RAYS, 4), [(0, 0, 0, 0, 1), (1, 2, 0, 0, -1)])):
        face_lattice(base)
        searched.clear()
        for apex in apexes:
            rows.clear()
            completed.clear()
            kernel_calls.clear()
            cuts.clear()
            hermites.clear()
            pyr = pyramid(base, apex)
            lat = face_lattice(pyr)
            assert searched == []
            assert kernel_calls == [pyr.rank] and rows == [len(pyr._hull[0].perp_rows)], apex
            assert cuts == ["integer_kernel_rows"] * rows[0], apex  # the top span's, one per row
            restricted = len(lat.by_key) if pyr.dim < pyr.rank else 0
            assert Counter(hermites) == Counter({"_apex_face": len(completed), "__init__": restricted}), apex
            if abs(apex[-1]) == 1:
                assert completed == [], apex
            else:
                assert completed, apex  # the apex faces' kernels


def test_face_cones_are_memoized_on_their_parent(kernel_calls):
    """A face cone is built once per parent, so the graded pieces of two
    levels at one facet take the facet's span, the one kernel of its face
    lattice, only once."""
    c = cone_from_rays(A_RAYS, 4)
    lat = face_lattice(c)
    tau = lat.faces_by_dim[3][0]
    assert face_cone(c, tau) is face_cone(c, tau)
    assert face_cone(c, lat.top()) is c
    kernel_calls.clear()
    graded_piece(c, 1, tau)
    graded_piece(c, 2, tau)
    assert kernel_calls == [4]


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


# ---------------------------------------------------------------------------
# lattice data against the Smith-form definitions


def _saturation(rows, width):
    """span_Q(rows) cap Z^width, by its definition: a kernel of a kernel."""
    return smith_kernel_rows(smith_kernel_rows(rows, width), width)


def _kernel(rows, width):
    return smith_kernel_rows(rows, width)


def reference_lattice(cone):
    """The lattice data of a cone computed from scratch by Smith forms: the
    span as a saturation, facet normals from the kernel of d - 1 rays, and
    every face's ambient and intrinsic rows as saturations and kernels."""
    n, d = cone.rank, cone.dim
    span_rows = _saturation(cone.rays, n) if cone.rays else ()
    ray_coords = tuple(tuple(x) for x in xl.coordinates(span_rows, cone.rays))
    facets, normals = [], {}
    for sub in itertools.combinations(range(len(ray_coords)), d - 1) if d else ():
        kern = _kernel([ray_coords[i] for i in sub], d)
        if len(kern) != 1:
            continue
        u = kern[0]
        vals = [sum(a * b for a, b in zip(u, c)) for c in ray_coords]
        if all(v <= 0 for v in vals):
            u, vals = tuple(-x for x in u), [-v for v in vals]
        elif not all(v >= 0 for v in vals):
            continue
        fs = frozenset(i for i, v in enumerate(vals) if v == 0)
        if fs not in normals:
            facets.append(fs)
            normals[fs] = u
    keys = {frozenset(range(len(cone.rays))), frozenset(), *facets}
    grown = True
    while grown:
        new = {a & b for a in keys for b in facets} - keys
        keys |= new
        grown = bool(new)
    faces = {}
    for k in keys:
        rays = [cone.rays[i] for i in sorted(k)]
        cs = [ray_coords[i] for i in sorted(k)]
        span = _saturation(rays, n) if rays else ()
        faces[k] = (len(span), span, _kernel(rays, n), _saturation(cs, d) if cs else (), _kernel(cs, d))
    return span_rows, ray_coords, normals, faces


def lattice_mismatch(lat, ref):
    """The first field in which a :class:`FaceLattice` differs from
    :func:`reference_lattice`, or None."""
    span_rows, ray_coords, normals, faces = ref
    if lat.span_rows != span_rows:
        return "span_rows"
    if lat.rays != ray_coords:
        return "rays"
    if lat.facet_normals != normals:
        return "facet_normals"
    by_dim = {m: sorted(tuple(sorted(k)) for k, f in faces.items() if f[0] == m) for m in range(lat.cone.dim + 1)}
    if {m: [f.key for f in fs] for m, fs in lat.faces_by_dim.items()} != by_dim:
        return "faces_by_dim"
    for k, (dim, span, perp, span_in, perp_in) in faces.items():
        f = lat.by_key[k]
        if (f.dim, f.span_rows, f.perp_rows) != (dim, span, perp):
            return f"ambient rows of face {sorted(k)}"
        span = _kernel(lat.perps[k], lat.width)
        if (span, lat.perps[k]) != (span_in, perp_in):
            return f"intrinsic rows of face {sorted(k)}"
    return None


def _lattice_cases():
    return [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS)] + seed77_cones()


def test_face_lattice_matches_smith_definitions():
    for cone in _lattice_cases():
        assert lattice_mismatch(face_lattice(cone), reference_lattice(cone)) is None, cone


def test_face_cone_lattice_is_the_lower_interval():
    for cone in _lattice_cases():
        for f in face_lattice(cone).all_faces:
            sub = face_cone(cone, f)
            lat = face_lattice(sub)
            fresh = Cone(sub.rank, sub.rays, sub.dim)
            assert lattice_mismatch(lat, reference_lattice(fresh)) is None, (cone, f.key)
            scratch = FaceLattice(fresh)
            assert lat.by_key == scratch.by_key
            assert lat.faces_by_dim == scratch.faces_by_dim
            assert lat.perps == scratch.perps
            assert lat.facet_normals == scratch.facet_normals


def _star_quotients():
    """(fan, divisor) of the ray-sum quotient of each full rank-4 case."""
    cones = [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS)]
    cones += [c for c in seed77_cones() if c.rank == c.dim == 4]
    return [star_quotient(c, tuple(map(sum, zip(*c.rays)))) for c in cones]


def _stellar_fan():
    """The benchmark's stellar fan: ten stellar splits of the rank-4 simplex
    fan drawn from ``random.Random("stellar")``."""
    return random_complete_simplicial_fan(random.Random("stellar"), 4, 10)


def test_fan_faces_match_each_maximal_cone():
    for fan in [fan for fan, _ in _star_quotients()] + [_stellar_fan()]:
        seen = set()
        for s in fan.maximal:
            cone = cone_from_rays([fan.rays[i] for i in s], fan.rank)
            _, _, _, faces = reference_lattice(cone)
            for k, (dim, span, perp, _, _) in faces.items():
                f = fan.by_key[frozenset(s[i] for i in k)]
                assert (f.dim, f.span_rows, f.perp_rows) == (dim, span, perp)
                seen.add(f.ray_indices)
        assert seen == set(fan.by_key)


def _quotient_cones():
    cones = [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS)]
    cones += [c for c in seed77_cones() if c.rank == c.dim == 4]
    return cones + [
        cyclic_cone(range(-4, 5), 5),
        cyclic_cone(range(-5, 6), 5),
        cyclic_cone(range(-4, 5), 6),
    ]


def test_star_quotient_equals_the_validated_fan():
    """The quotient fan read off the cone's lattice is, field by field, the
    fan that full validation builds from its rays and maximal cones."""
    for cone in _quotient_cones():
        fan, _ = star_quotient(cone, tuple(map(sum, zip(*cone.rays))))
        ref = fan_from_cones(fan.rays, fan.maximal, cone.rank - 1)
        assert (fan.rank, fan.rays, fan.maximal) == (ref.rank, ref.rays, ref.maximal)
        assert fan.faces_by_dim == ref.faces_by_dim
        assert set(fan.by_key) == set(ref.by_key)
        for k, f in ref.by_key.items():
            assert (fan.by_key[k].span_rows, fan.by_key[k].perp_rows) == (f.span_rows, f.perp_rows)


def test_star_quotient_runs_no_lp(monkeypatch):
    import conftest

    cones = [cone_from_rays(A_RAYS, 4), cyclic_cone(range(-4, 5), 5)]
    calls = []
    lp = conftest.nonnegative_combination
    monkeypatch.setattr(conftest, "nonnegative_combination", lambda *a: calls.append("lp") or lp(*a))
    for name in ("cone_from_rays", "fan_from_cones"):
        monkeypatch.setattr(polyhedral, name, lambda *a, name=name, **k: calls.append(name))
    for cone in cones:
        fan, _ = star_quotient(cone, tuple(map(sum, zip(*cone.rays))))
        assert fan.is_complete()
    assert calls == []


def _oracle_quotients():
    """``(cone, interior rays)``: the fixtures, the nine seed-77 cones and
    three cyclic cones, each at its ray sum and two seeded interior rays."""
    cones = [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS, GLUED_RAYS, CUBE_RAYS)]
    cones += seed77_cones()[::2]
    cones += [cyclic_cone(range(n), d) for d, n in ((5, 9), (5, 11), (6, 9))]
    rng = random.Random(12)
    return [(c, [tuple(map(sum, zip(*c.rays)))] + [random_interior(rng, c) for _ in range(2)]) for c in cones]


def test_star_quotient_rows_are_the_kernels_of_the_hat_and_projected_rays():
    """The hat rows and the quotient rows of every star quotient are the
    Smith-form kernels of the hat rays and of the projected rays, and every
    span read on demand is the Smith-form kernel of the face's
    annihilator."""
    for cone, rhos in _oracle_quotients():
        n = cone.rank
        for f in face_lattice(cone).all_faces:
            assert f.span_rows == smith_kernel_rows(f.perp_rows, n)
        for rho in rhos:
            fan, divisor = star_quotient(cone, rho)
            for key, hat_perp in divisor.hat.perps.items():
                f = fan.by_key[key]
                assert hat_perp == smith_kernel_rows([divisor.hat.rays[i] for i in sorted(key)], n)
                assert f.perp_rows == smith_kernel_rows([fan.rays[i] for i in f.key], n - 1)
                assert f.span_rows == smith_kernel_rows(f.perp_rows, n - 1)


def test_every_face_annihilator_is_the_smith_kernel_of_its_rays():
    """Each face's rows, one cut of a shared prefix's basis, are the
    Smith-form kernel of its rays: on fixtures A, B and 13, the nine seed-77
    cones, cyclic (5, 9) and (6, 9), and two stellar fans, of rank 4 and 5."""
    cones = [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS)] + seed77_cones()
    cones += [cyclic_cone(range(9), 5), cyclic_cone(range(9), 6)]
    fans = [_stellar_fan(), random_complete_simplicial_fan(random.Random("stellar"), 5, 20)]
    checked = 0
    for rays, faces, n in [(c.rays, face_lattice(c).all_faces, c.rank) for c in cones] + [
        (fan.rays, fan.all_faces, fan.rank) for fan in fans
    ]:
        for f in faces:
            assert f.perp_rows == smith_kernel_rows([rays[i] for i in f.key], n), f.key
            checked += 1
    assert checked > 1000


def test_star_quotient_takes_no_integer_kernel(kernel_calls):
    for cone, rhos in _oracle_quotients():
        face_lattice(cone)
        kernel_calls.clear()
        for rho in rhos:
            star_quotient(cone, rho)
        assert kernel_calls == [], cone


def test_spans_are_read_only_where_needed(kernel_calls):
    """A face keeps no span: ``lcdef_variety`` takes one integer kernel for
    the span of each non-simplicial proper face, whose face cone it builds
    (the top face's span is kept by ``cone_from_rays``), so none on a cyclic
    cone, and building a fan takes two per maximal cone, its top and its
    span, and none per face.  A face equals one built afresh from its three
    fields, and its span is the Smith kernel of its annihilator."""
    cyclic = cyclic_cone(range(9), 5)
    face_lattice(cyclic)
    kernel_calls.clear()
    lcdef_variety(cyclic)
    assert kernel_calls == []
    for cone in (cone_from_rays(A_RAYS, 4), cone_from_rays(T13_RAYS, 4)):
        lat = face_lattice(cone)
        kernel_calls.clear()
        lcdef_variety(cone)
        wide = [f for f in lat.all_faces if len(f.ray_indices) > f.dim and f != lat.top()]
        assert wide and kernel_calls == [4] * len(wide)
    stellar = _stellar_fan()
    kernel_calls.clear()
    built = fan_from_cones(stellar.rays, stellar.maximal, 4)
    assert len(kernel_calls) == 2 * len(built.maximal)
    for f in built.all_faces:
        assert f == Face(f.ray_indices, f.dim, f.perp_rows)
        assert f.span_rows == smith_kernel_rows(f.perp_rows, 4)


def test_support_data_rows_match_saturations():
    stellar = _stellar_fan()
    rng = random.Random(3)
    values = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in stellar.rays]
    p112 = make_p112()
    lifts = [(stellar, support_data(stellar, values)), (p112, support_data(p112, (0, 0, 1)))]
    for fan, divisor in _star_quotients() + lifts:
        n = fan.rank
        vertical = (0,) * n + (1,)
        for key, hat_perp in divisor.hat.perps.items():
            hats = [divisor.hat.rays[i] for i in sorted(key)]
            hat_span = _saturation(hats, n + 1) if hats else ()
            lift_hat, lift_tilde = lift_spans(divisor, fan.by_key[key])
            assert lift_hat == hat_span
            assert hat_perp == _kernel(hats, n + 1)
            assert lift_tilde == _saturation(list(hat_span) + [vertical], n + 1)


# ---------------------------------------------------------------------------
# work counts: Smith forms and kernels per face


@pytest.fixture
def no_smith_form():
    """Lattice data take no Smith form: the package has none, nor the
    lattice helpers that only the tests use (they are in conftest)."""
    gone = ((xl, "_smith"), (xl, "solve_unit_pairing"), (xl, "reduce_mod_rows"), (toricdef, "normal_generator"))
    assert [name for module, name in gone if hasattr(module, name)] == []


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = xl.integer_kernel_rows

    def counted(rows, width):
        calls.append(width)
        return kernel(rows, width)

    monkeypatch.setattr(xl, "integer_kernel_rows", counted)
    return calls


@pytest.fixture
def lattice_calls(monkeypatch):
    """``(routine, caller)`` of every integer kernel, cut and Hermite form
    taken, in order, the caller being the function that asked for it."""
    calls = []
    for name in ("integer_kernel_rows", "_cut", "hermite_rows"):
        real = getattr(xl, name)

        def counted(*args, real=real, name=name):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return real(*args)

        monkeypatch.setattr(xl, name, counted)
    return calls


def _prefixes(keys) -> int:
    """The number of distinct nonempty prefixes of the sorted ray sets
    ``keys``: the cuts that folding them through one prefix memo takes."""
    return len({tuple(sorted(k))[:j] for k in keys for j in range(1, len(k) + 1)})


def test_lattice_data_takes_no_smith_form_and_one_cut_per_face(no_smith_form, lattice_calls):
    """Face lattices, fans, star quotients and support data fold each face's
    sorted rays through one prefix memo per build: one cut per distinct
    prefix, which is exactly one cut per face where the faces are
    simplicial, and no integer kernel or Hermite form per face.  The zero
    face is the standard basis, with no cut, and the top face of a cone
    takes its rows from the hull's one integer kernel, taken with its span
    when the cone is built.  A star quotient takes one more cut per face,
    for its quotient rows.  No Smith form anywhere."""
    for cone in [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS)] + [cyclic_cone(range(-4, 5), 5)]:
        lattice_calls.clear()
        lat = face_lattice(cone)
        inner = [f.ray_indices for f in lat.all_faces if f != lat.top()]
        assert lattice_calls == [("_cut", "perp")] * _prefixes(inner)
    assert _prefixes(inner) == len(lat.by_key) - 2  # the cyclic cone's proper faces are simplicial
    rho = tuple(map(sum, zip(*cone.rays)))
    lattice_calls.clear()
    star_quotient(cone, rho)
    proper = len(lat.by_key) - 1
    assert Counter(lattice_calls) == {("_cut", "perp"): proper - 1, ("_cut", "_quotient_rows"): proper}
    stellar = _stellar_fan()
    lattice_calls.clear()
    built = fan_from_cones(stellar.rays, stellar.maximal, 4)
    cones = len(built.maximal)
    assert Counter(lattice_calls) == {
        ("integer_kernel_rows", "_lattice_face"): cones,  # each maximal cone's top
        ("_cut", "integer_kernel_rows"): 4 * cones,  # which folds its four rays
        ("integer_kernel_rows", "span_rows"): cones,  # and its span, of no rows
        ("_cut", "perp"): len(built.by_key) - cones - 1,
    }
    rng = random.Random(3)
    for fan, values in [
        (built, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in built.rays]),
        (make_p112(), (0, 0, 1)),
    ]:
        lattice_calls.clear()
        support_data(fan, values)
        assert lattice_calls == [("_cut", "perp")] * (len(fan.by_key) - 1)


# ---------------------------------------------------------------------------
# cones and fans against the LP construction


def _outcome(build):
    """``("ok", value)`` of ``build()``, or the type and message of the
    error it raises."""
    try:
        return "ok", build()
    except ToricError as exc:
        return type(exc).__name__, str(exc)


def _cone_outcome(gens, rank):
    def build():
        cone = cone_from_rays(gens, rank)
        return cone.rays, cone.dim, face_lattice(cone).by_key

    return _outcome(build)


def _lp_cone_outcome(gens, rank):
    def build():
        cone = lp_cone_from_rays(gens, rank)
        return cone.rays, cone.dim, oracle_faces(cone.rays, rank)

    return _outcome(build)


# generators spanning a line, a half-plane, a half-space and the whole
# plane; redundant, duplicate and non-primitive generators, on a facet and
# inside; rank-1 cones; lower-dimensional cones; bad input
_ADVERSARIAL_CONES = [
    (((1, 0), (-1, 0)), 2),
    (((1, 0, 0), (-1, 0, 0), (0, 1, 0)), 3),
    (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)), 3),
    (((1, 0), (0, 1), (-1, -1)), 2),
    (((1, 0), (0, 1), (-1, 0), (0, -1)), 2),
    (((1, 0), (0, 1), (1, 1)), 2),
    (((1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1), (1, 0, 1), (0, 0, 1)), 3),
    (((1, 0), (1, 0), (0, 1)), 2),
    (((2, 0), (4, 0), (0, 3)), 2),
    (((2, 2, 2), (3, 0, 3), (0, 0, 5), (1, 1, 1)), 3),
    (((3,),), 1),
    (((1,), (2,)), 1),
    (((1,), (-1,)), 1),
    (((0, 2, 0),), 3),
    (((1, 0, 1), (-1, 0, 1), (0, 0, 1)), 3),
    (((1, 0, 1), (-1, 0, 1), (1, 0, -1)), 3),
    (((0, 0), (1, 0)), 2),
    ((), 2),
    (((1, 0), (1, 0, 0)), 2),
]


def _cone_oracle_cases():
    cases = [(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS, GLUED_RAYS, CUBE_RAYS)]
    cases += seed77_generators()
    cases += [(cyclic_rays(p, r), r) for p, r in ((range(-4, 5), 5), (range(-5, 6), 5), (range(-4, 5), 6))]
    cases += _ADVERSARIAL_CONES
    rng = random.Random(31)
    for _ in range(120):
        rank = rng.randrange(1, 5)
        cases.append(([tuple(rng.randrange(-2, 3) for _ in range(rank)) for _ in range(rng.randrange(1, 7))], rank))
    return cases


def test_cone_from_rays_matches_the_lp_construction():
    """Facets instead of LPs: the same rays in the same order, the same
    dimension and face lattice, or the same error and message."""
    errors = set()
    for gens, rank in _cone_oracle_cases():
        got = _cone_outcome(gens, rank)
        assert got == _lp_cone_outcome(gens, rank), (gens, rank)
        errors.add(got[0])
    assert errors == {"ok", "NotStronglyConvex", "ZeroVector", "ValidationError"}


def _fan_outcome(rays, maximal, rank):
    return _outcome(lambda: dict(fan_from_cones(rays, maximal, rank).by_key))


# five cones of 144 degrees each that wind twice round the origin, and their
# suspension, each cone joined to either pole: every wall lies in exactly two
# cones, on its two sides, and every point off the walls in two cones
PENTAGRAM = (((1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)), ((0, 2), (2, 4), (4, 1), (1, 3), (3, 0)), 2)
SUSPENDED_PENTAGRAM = (
    tuple(r + (0,) for r in PENTAGRAM[0]) + ((0, 0, 1), (0, 0, -1)),
    tuple(c + (pole,) for pole in (5, 6) for c in PENTAGRAM[1]),
    3,
)


def _fan_oracle_cases():
    rays, maximal = stellar_fan_data(random.Random("stellar"), 4, 10)
    cases = [(rays, maximal, 4)] + [(*relabelled(rays, maximal, seed), 4) for seed in range(3)]
    for cone in [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS)] + [cyclic_cone(range(-4, 5), 5)]:
        fan, _ = star_quotient(cone, tuple(map(sum, zip(*cone.rays))))
        cases.append((fan.rays, fan.maximal, fan.rank))
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    cases += [
        # overlapping cones, lower- and full-dimensional
        (((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)), 2),
        (((1, 0), (0, 1), (1, 1)), ((0, 1), (2,)), 2),
        ((e1, e2, e3, (0, 1, 2), (0, 2, 1)), ((0, 1, 2), (0, 3, 4)), 3),
        ((e1, e2, e3, (1, 1, 1), (-1, -1, -1)), ((0, 1, 2), (0, 1, 3)), 3),
        ((e1, e2, (1, 0, 1), (1, 0, -1)), ((0, 1), (2, 3)), 3),
        ((e1, e2, e3, (-1, -1, -1), (-1, 0, 0)), ((0, 1, 2), (1, 2, 3), (3, 4)), 3),
        # cones sharing rays that are not a face of the second: the three
        # rays of the first, and two diagonal rays of a square cone
        ((e1, e2, e3, (1, 1, -1)), ((0, 1, 2), (0, 1, 2, 3)), 3),
        ((e1, e2, (0, 0, -1), (3, 3, -2), (1, 1, 2)), ((0, 1, 2), (0, 3, 1, 4)), 3),
        # a non-full-dimensional maximal cone, meeting the others in a face
        (((1, 0), (0, 1), (-1, -1)), ((0, 1), (2,)), 2),
        ((e1, e2, e3, (-1, -1, -1)), ((0, 1, 2), (3,)), 3),
        # a maximal cone that positively spans a line, one with a ray that is
        # not extreme, a face of another, the complete P^2
        (((1, 0), (-1, 0), (0, 1)), ((0, 1), (1, 2)), 2),
        (((1, 0), (0, 1), (1, 1)), ((0, 1, 2),), 2),
        (((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0), (0,)), 2),
        (((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)), 2),
        # every wall on two cones, on its two sides, but winding twice round
        PENTAGRAM,
        SUSPENDED_PENTAGRAM,
    ]
    return cases


@pytest.mark.parametrize("cone", [(0, 1.9), ("0", "1"), (0, None)])
def test_fan_from_cones_takes_integer_ray_indices(cone):
    """A ray index is taken by ``operator.index``, never truncated or
    parsed: anything else is a VALIDATION_ERROR naming the cone."""
    with pytest.raises(ValidationError, match=re.escape(f"cone {cone!r}")):
        fan_from_cones(((1, 0), (0, 1)), (cone,), 2)
    assert fan_from_cones(((1, 0), (0, 1)), ((1, 0, 1),), 2).maximal == ((0, 1),)


def test_fan_from_cones_matches_the_lp_validation():
    """Pair certificates before pair LPs: the same faces and rows, or the
    same error and message, on the stellar fan under three relabellings,
    quotient fans and adversarial fans, the two pentagrams among them."""
    errors = []
    for rays, maximal, rank in _fan_oracle_cases():
        got = _fan_outcome(rays, maximal, rank)
        assert got == _outcome(lambda: lp_fan_faces(rays, maximal, rank)), (rays, maximal)
        if got[0] != "ok":
            errors.append(got[1])
    kinds = (
        "overlap beyond their common face",
        "but not a face",
        "one is a face of the other",
        "is not generated by extreme rays",
        "positively span a line",
    )
    assert sorted(next(k for k in kinds if k in e) for e in errors) == sorted(kinds[:1] * 8 + kinds[1:2] * 2 + kinds[2:])


def test_pair_certificates_are_what_the_lp_says():
    """Every certificate the fan validation accepts is one the pair LP
    agrees with, and the certificates settle most pairs of the stellar fan
    and of the quotient fans."""
    settled = []
    for rays, maximal, rank in _fan_oracle_cases()[:8]:
        fan = fan_from_cones(rays, maximal, rank)
        walls = [polyhedral._signed_walls([fan.by_key[k] for k in fan.by_key if k <= frozenset(s)], fan.rays) for s in fan.maximal]
        count = 0
        for (ia, sa), (ib, sb) in itertools.combinations(enumerate(fan.maximal), 2):
            common = frozenset(sa) & frozenset(sb)
            out_a = [fan.rays[i] for i in sa if i not in common]
            out_b = [fan.rays[i] for i in sb if i not in common]
            u = polyhedral._separating_functional(
                polyhedral._through(walls[ia], common), polyhedral._through(walls[ib], common), out_a, out_b
            )
            if u is not None:
                polyhedral._check_separation(u, [fan.rays[i] for i in common], out_a, out_b)
                assert not lp_pair_overlaps(fan.by_key[common].perp_rows, out_a, out_b)
                count += 1
        settled.append((count, len(fan.maximal) * (len(fan.maximal) - 1) // 2))
    # certified of all pairs: the stellar fan under three relabellings, then
    # the quotient fans of the three fixtures and of the cyclic (5, 9) cone
    assert settled == [(457, 595)] * 4 + [(66, 66), (62, 66), (78, 78), (274, 351)]


def _random_cone_pairs(rng, count):
    """``count`` seeded fans of two cones of rank 2 to 5, for the pair
    decision: a random cone, possibly lower-dimensional and not simplicial,
    and one spanned by the rays of one of its proper faces and random
    vectors, so that the shared rays are often, not always, a face of both."""
    out = []
    while len(out) < count:
        rank = rng.randrange(2, 6)

        def vectors(k):
            return [tuple(rng.randrange(-2, 3) for _ in range(rank)) for _ in range(k)]

        try:
            a = cone_from_rays(vectors(rng.randrange(1, rank + 3)), rank)
            tau = rng.choice(face_lattice(a).all_faces[:-1])
            b = cone_from_rays([a.rays[i] for i in sorted(tau.ray_indices)] + vectors(rng.randrange(1, rank + 1)), rank)
        except ToricError:
            continue
        rays = list(a.rays) + [r for r in b.rays if r not in a.rays]
        out.append((rays, [tuple(range(len(a.rays))), tuple(rays.index(r) for r in b.rays)], rank, (a, b)))
    return out


def test_pair_functional_matches_the_lp_on_random_cone_pairs(monkeypatch):
    """Facet normals of the pair cone decide what the pair LP decides, with
    the same error and message, on seeded pairs of cones that reach every
    branch of :func:`~toricdef.polyhedral._pair_functional`."""
    seen = dict.fromkeys(("projection", "simplicial", "facets", "line", "overlap", "origin"), 0)
    pair_functional = polyhedral._pair_functional

    def recorded(perp, out_a, out_b):
        u = pair_functional(perp, out_a, out_b)
        images = [tuple(polyhedral._dot(p, r) for p in perp) for r in out_a]
        images += [tuple(-polyhedral._dot(p, r) for p in perp) for r in out_b]
        d = len(xl.hermite_rows(images, len(perp)))
        seen["projection"] += d < len(perp)
        seen["simplicial"] += len(images) == d
        seen["facets"] += len(images) > d and u is not None
        seen["line"] += any(tuple(-x for x in g) in images for g in images)
        seen["overlap"] += u is None
        seen["origin"] += len(perp) == len(perp[0])
        return u

    monkeypatch.setattr(polyhedral, "_pair_functional", recorded)
    kinds = ("overlap beyond their common face", "but not a face", "one is a face of the other")
    outcomes = set()
    shapes = set()
    for rays, maximal, rank, cones in _random_cone_pairs(random.Random("pairs"), 300):
        got = _fan_outcome(rays, maximal, rank)
        assert got == _outcome(lambda: lp_fan_faces(rays, maximal, rank)), (rays, maximal)
        outcomes.add("ok" if got[0] == "ok" else next(k for k in kinds if k in got[1]))
        # (lower-dimensional, not simplicial)
        shapes.update((c.dim < rank, len(c.rays) > c.dim) for c in cones)
    assert all(seen.values()), seen
    assert outcomes == {"ok", *kinds}
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


# ---------------------------------------------------------------------------
# facets against the subset search


def _hull_coords(gens, rank):
    """``(coords, d)``: the distinct primitive nonzero ``gens`` in the
    coordinates of their span lattice, of rank ``d``, as
    :func:`~toricdef.cone_from_rays` hands them to the facet search."""
    prim = list(dict.fromkeys(xl.primitive_vector(g) for g in gens if any(g)))
    top = polyhedral._lattice_face(frozenset(range(len(prim))), prim, rank)
    return polyhedral._ray_coords(top.span_rows, prim), top.dim


def _pair_coords(images, width):
    """``(coords, d)``: the pair-cone images as
    :func:`~toricdef.polyhedral._pair_functional` projects them onto the
    pivot columns of their Hermite basis."""
    pivots = [xl._pivot(h) for h in xl.hermite_rows(images, width)]
    return [tuple(g[j] for j in pivots) for g in images], len(pivots)


def _facet_oracle_inputs():
    """Seeded inputs of the facet search, by kind: the fixtures, the
    seed-77 cones (some with generators that are not extreme) and their
    pyramids, cyclic cones, random generators that contain a line, fill a
    half-space or the whole space or span a lower-dimensional space, and
    pair-cone images that are parallel or opposite."""
    out = [("fixture", _hull_coords(r, 4)) for r in (A_RAYS, B_RAYS, T13_RAYS, GLUED_RAYS, CUBE_RAYS)]
    out += [("seed77", _hull_coords(g, r)) for g, r in seed77_generators()]
    out += [("cyclic", _hull_coords(cyclic_rays(p, r), r)) for p, r in ((range(-4, 5), 5), (range(-5, 6), 5), (range(-4, 5), 6))]
    rng = random.Random(18)
    for _ in range(40):
        rank = rng.randrange(2, 6)
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]

        def vectors(k, low=-2):
            return [tuple(rng.randrange(-2, 3) for _ in range(rank - 1)) + (rng.randrange(low, 3),) for _ in range(k)]

        g = vectors(1)[0]
        out.append(("line", _hull_coords([g, tuple(-x for x in g)] + vectors(rng.randrange(1, rank + 3)), rank)))
        half = units[:-1] + [tuple(-x for x in u) for u in units[:-1]] + units[-1:]
        out.append(("half-space", _hull_coords(half + vectors(rng.randrange(0, 4), low=0), rank)))
        whole = units + [(-1,) * rank]
        out.append(("whole space", _hull_coords(whole + vectors(rng.randrange(0, 4)), rank)))
        base = vectors(rank - 1)
        flat = [tuple(sum(c * b[k] for c, b in zip(cs, base)) for k in range(rank))
                for cs in ([rng.randrange(-1, 3) for _ in base] for _ in range(rng.randrange(2, rank + 4)))]
        out.append(("lower", _hull_coords(flat, rank)))
        images = [g for g in vectors(rng.randrange(2, rank + 3)) if any(g)]
        images += [tuple(rng.choice((-2, -1, 2, 3)) * x for x in rng.choice(images)) for _ in range(2)]
        out.append(("pair", _pair_coords(images, rank)))
    return out


def test_facets_match_the_subset_search():
    """The double description finds the facets the subset search finds, in
    the same order, with the same normals divided by their gcd, signed
    nonnegative on the rays, on every kind of input; the random kinds reach
    cones with a line, with one facet, with none and of lower dimension."""
    reached = set()
    for kind, (coords, d) in _facet_oracle_inputs():
        found = polyhedral._facets(coords, d)
        oracle = subset_facets(coords, d)
        assert set(found) == set(oracle), (kind, coords)
        if len(coords) > d:  # in the order the subset search meets them
            assert list(found) == list(oracle), (kind, coords)
        for key, u in found.items():
            if u is None:
                assert len(coords) == d
                continue
            w = xl.primitive_vector(oracle[key])
            assert u in (w, tuple(-x for x in w)), (kind, coords, key)
            vals = [polyhedral._dot(u, c) for c in coords]
            assert min(vals) >= 0 and key == {j for j, v in enumerate(vals) if v == 0}
        normals = [u for u in found.values() if u is not None]
        if 0 < len(xl.hermite_rows(normals, d)) < d:
            reached.add("line")
        reached.add(("facets", min(len(found), 2)))
        reached.add(kind)
        directions = [xl.primitive_vector(c) for c in coords]
        if kind == "pair" and any(a == b or a == tuple(-x for x in b) for a, b in itertools.combinations(directions, 2)):
            reached.add("parallel or opposite")
    assert reached == {
        "fixture", "seed77", "cyclic", "line", "half-space", "whole space", "lower", "pair",
        ("facets", 0), ("facets", 1), ("facets", 2), "parallel or opposite",
    }


# ---------------------------------------------------------------------------
# work counts: LPs and facet searches


@pytest.fixture
def lp_calls(monkeypatch):
    """The sizes of the LPs that the oracle simplex of the tests solves; the
    library has no simplex of its own."""
    import conftest

    calls = []
    lp = conftest.nonnegative_combination

    def counted(columns, target):
        calls.append(len(columns))
        return lp(columns, target)

    monkeypatch.setattr(conftest, "nonnegative_combination", counted)
    return calls


def test_cones_and_the_cli_run_no_lp(lp_calls, tmp_path, capsys):
    for rays in (A_RAYS, B_RAYS, T13_RAYS):
        cone = cone_from_rays(rays, 4)
        face_lattice(cone)
        face_lattice(pyramid(cone, (1, 0, -1, 0, 1)))
        lcdef_variety(cone)
        star_quotient(cone, tuple(map(sum, zip(*rays))))
    for gens, rank in seed77_generators():
        face_lattice(cone_from_rays(gens, rank))
    assert lp_calls == []
    for rays in (A_RAYS, B_RAYS, T13_RAYS):
        path = tmp_path / "doc.txt"
        doc = InputDocument(rank=4, rays=rays, interior_ray=tuple(map(sum, zip(*rays))), apex=(0, 0, 0, 1, 1))
        path.write_text(serialize_document(doc))
        for command in ("lcdef", "criteria", "verify", "ishida", "subdivide", "pyramid"):
            assert cli_run([command, str(path)]) == 0
    capsys.readouterr()
    assert lp_calls == []


def test_every_stellar_fan_pair_gets_a_certificate(monkeypatch):
    """The pair loop on the stellar fan: the wall candidates settle most
    pairs and the facet normals of the pair cone the rest; every pair's
    functional is checked, and the library has no simplex left.
    ``fan_from_cones`` takes the wall path there instead: one checked
    functional per wall, and no pair candidate at all."""
    assert not hasattr(xl, "nonnegative_combination") and not hasattr(xl, "_phase_one")
    calls = {"walls": 0, "pair": 0, "checked": 0}

    def counted(name, f, settles=lambda u: True):
        def wrapped(*args):
            u = f(*args)
            calls[name] += settles(u)
            return u

        return wrapped

    monkeypatch.setattr(
        polyhedral, "_separating_functional", counted("walls", polyhedral._separating_functional, lambda u: u is not None)
    )
    monkeypatch.setattr(polyhedral, "_pair_functional", counted("pair", polyhedral._pair_functional))
    monkeypatch.setattr(polyhedral, "_check_separation", counted("checked", polyhedral._check_separation))
    rays, maximal = stellar_fan_data(random.Random("stellar"), 4, 10)
    polyhedral._check_pairs(rays, maximal, *polyhedral._cone_data(rays, maximal, 4))
    assert len(maximal) * (len(maximal) - 1) // 2 == 595
    assert calls == {"walls": 457, "pair": 138, "checked": 595}
    calls.update(walls=0, pair=0, checked=0)
    fan = fan_from_cones(rays, maximal, 4)
    assert len(fan.faces_by_dim[3]) == 70
    assert calls == {"walls": 0, "pair": 0, "checked": 70}


def _subset_complete(fan):
    """The completeness count over ray sets: every maximal cone
    full-dimensional, every wall a subset of exactly two of them."""
    keys = [frozenset(k) for k in fan.maximal]
    return all(fan.by_key[k].dim == fan.rank for k in keys) and all(
        sum(w.ray_indices <= k for k in keys) == 2 for w in fan.faces_by_dim.get(fan.rank - 1, ())
    )


def test_the_wall_path_decides_what_the_pair_loop_decides(monkeypatch):
    """Walls and one degree count against the pair loop (the wall path
    patched to refuse): the same faces in the same order, or the same error
    and message, on every oracle fan and on seeded stellar fans of rank 3 to
    5, relabelled.  The wall path accepts every stellar and quotient fan and
    refuses both pentagrams and a folded fan, and completeness read off the
    wall count is the count over ray sets, also for a fan that counts its
    own covering pairs."""
    accepted = []
    walls_decide = polyhedral._walls_decide
    monkeypatch.setattr(polyhedral, "_walls_decide", lambda *args: accepted.append(walls_decide(*args)) or accepted[-1])
    rng = random.Random("walls")
    # every wall on two cones, but the quadrant (0, 1) holds the other two
    # cones, which lie on its side of each of its walls
    folded = (((1, 0), (0, 1), (1, 1)), ((0, 2), (2, 1), (0, 1)), 2)
    cases = _fan_oracle_cases() + [folded]
    for rank in (3, 4, 5):
        for _ in range(2):
            rays, maximal = stellar_fan_data(rng, rank, rng.randrange(5, 31))
            cases.append((*relabelled(rays, maximal, rng.randrange(1000)), rank))
    decided = []
    for rays, maximal, rank in cases:
        accepted.clear()
        got = _outcome(lambda: fan_from_cones(rays, maximal, rank))
        decided.append(accepted[0] if accepted else None)
        with monkeypatch.context() as m:
            m.setattr(polyhedral, "_walls_decide", lambda *args: False)
            ref = _outcome(lambda: fan_from_cones(rays, maximal, rank))
        assert got[0] == ref[0], (rays, maximal)
        if got[0] != "ok":
            assert got == ref, (rays, maximal)
            continue
        fan, other = got[1], ref[1]
        assert list(fan.by_key.items()) == list(other.by_key.items()), (rays, maximal)
        assert fan.maximal == other.maximal
        assert fan.is_complete() == other.is_complete() == _subset_complete(fan) == (decided[-1] is True)
        fresh = polyhedral.Fan(fan.rank, fan.rays, fan.maximal, list(fan.by_key.values()))
        assert fresh.is_complete() == fan.is_complete()
    # the stellar fan relabelled and the quotient fans, then the seeded stellar fans
    assert decided[:8] + decided[-6:] == [True] * 14
    assert [d for c, d in zip(cases, decided) if c in (PENTAGRAM, SUSPENDED_PENTAGRAM, folded)] == [False] * 3


def test_facets_are_found_once(monkeypatch):
    """``cone_from_rays`` finds the facets and ``face_lattice`` takes them
    from the cone: it computes no minor.  The double description takes no
    more determinants than the subset search took on the extreme rays alone
    (:func:`oracle_faces`), also where some generators are not extreme."""
    dets = []
    det = xl.integer_det
    monkeypatch.setattr(xl, "integer_det", lambda m: dets.append(1) or det(m))
    cases = [(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS, GLUED_RAYS, CUBE_RAYS)] + seed77_generators()
    cases += [(cyclic_rays(p, r), r) for p, r in ((range(-4, 5), 5), (range(-5, 6), 5), (range(-4, 5), 6))]
    more = []
    for gens, rank in cases:
        dets.clear()
        ref = lp_cone_from_rays(gens, rank)
        oracle_faces(ref.rays, rank)
        before = len(dets)
        dets.clear()
        cone = cone_from_rays(gens, rank)
        found = len(dets)
        face_lattice(cone)
        assert len(dets) == found
        assert found <= before, (gens, found, before)
        if len(cone.rays) < len(gens):
            more.append((len(gens), len(cone.rays), found, before))
    # the five seed-77 inputs with generators that are not extreme:
    # (generators, extreme rays, determinants, the subset search's on the
    # extreme rays); the double description takes the d^2 of its start
    assert more == [(5, 4, 9, 18), (5, 4, 9, 18), (4, 3, 9, 9), (7, 6, 16, 80), (8, 7, 25, 175)]


def test_facets_at_the_cli_guard_size(monkeypatch):
    """The cone over the 6-cube, rank 7 with 64 rays, is within the CLI's
    size guard.  The subset search would try C(64, 6), about 7.5e7, sets of
    rays; the double description finds the 12 facets with the d^2 minors of
    its start."""
    dets = []
    det = xl.integer_det
    monkeypatch.setattr(xl, "integer_det", lambda m: dets.append(1) or det(m))
    cone = cone_from_rays([v + (1,) for v in itertools.product((1, -1), repeat=6)], 7)
    assert (cone.rank, len(cone.rays)) == (7, 64)
    assert cone.rank <= MAX_RANK and len(cone.rays) <= MAX_RAYS
    assert len(polyhedral._hull(cone)[2]) == 12
    assert len(dets) <= 7 * 7
