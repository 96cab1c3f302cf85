"""Face-indexed cochain complexes and the local cohomological defect."""

import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    A_RAYS,
    B_RAYS,
    CUBE_RAYS,
    GLUED_RAYS,
    T13_RAYS,
    cyclic_cone,
    cyclic_rays,
    make_p112,
    normal_of,
    pairing_of_normal,
    primitive_apexes,
    random_apex,
    random_complete_simplicial_fan,
    random_cone,
    seed77_cones,
    span_of,
    tilde_poset,
)
from toricdef import (
    NotAComplex,
    ValidationError,
    cohomology,
    cone_cohomology_table,
    cone_from_rays,
    face_lattice,
    fan_cohomology_table,
    fan_from_cones,
    graded_piece,
    is_simplicial,
    ishida_cone,
    ishida_fan,
    lcdef_cone,
    lcdef_variety,
    pyramid,
    restricted_complex,
    support_data,
)
from toricdef import exact_linalg as xl
from toricdef import ishida
from toricdef.lefschetz import _vertical_pairing
from toricdef.polyhedral import face_cone


def mats_equal(a, b):
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# small exact values


def test_projective_line_table():
    fan = fan_from_cones(((1,), (-1,)), ((0,), (1,)), 1)
    table = fan_cohomology_table(fan)
    assert table.level(0) == (1,)
    assert table.level(1) == (0, 1)
    cx = ishida_fan(fan, 1)
    assert cx.dims == (1, 2)


def test_quadrant_level_two():
    c = cone_from_rays(((1, 0), (0, 1)), 2)
    cx = ishida_cone(c, 2)
    assert cx.dims == (1, 2, 1)
    assert cohomology(cx) == (0, 0, 0)


def test_orthant_dims_follow_binomials(orthant3):
    for l in range(4):
        cx = ishida_cone(orthant3, l)
        expected = tuple(comb(3 - m, l - m) * comb(3, m) for m in range(l + 1))
        assert cx.dims == expected


def test_level_out_of_range(orthant3, p2_fan):
    with pytest.raises(ValidationError):
        ishida_cone(orthant3, 4)
    with pytest.raises(ValidationError):
        ishida_cone(orthant3, -1)
    with pytest.raises(ValidationError):
        ishida_fan(p2_fan, 3)


def test_thirteen_ray_middle_levels(cone_13):
    cx = ishida_cone(cone_13, 3)
    assert cx.dims == (4, 39, 48, 13)
    assert cohomology(cx) == (0, 1, 1, 0)
    table = cone_cohomology_table(cone_13)
    assert table.level(3) == (0, 1, 1, 0)


# ---------------------------------------------------------------------------
# defect values


def test_defect_of_fixture_cones(cone_a, cone_b, cone_13, orthant4):
    assert lcdef_cone(cone_a) == 1
    assert lcdef_cone(cone_b) == 0
    assert lcdef_cone(cone_13) == 1
    assert lcdef_cone(orthant4) == 0


def test_defect_of_fixture_varieties(cone_a, cone_b, glued_cone):
    assert lcdef_variety(cone_a) == 1
    assert lcdef_variety(cone_b) == 0
    assert lcdef_variety(glued_cone) == 1


def test_simplicial_shortcut_agrees(cone_b, orthant4, cube_cone):
    for cone in (cone_b, orthant4, cube_cone):
        assert lcdef_cone(cone, shortcut_simplicial=False) == lcdef_cone(cone)


def test_is_simplicial(orthant4, cube_cone, cone_a):
    assert is_simplicial(orthant4)
    assert not is_simplicial(cube_cone)
    assert not is_simplicial(cone_a)


def full_scan_lcdef(cone):
    """The cone-level defect as the maximum of ``i - j`` over every nonzero
    cell ``H^i`` of every level ``d - j``: the definition that the scan of
    :func:`lcdef_cone` stops early on."""
    d = cone.dim
    cells = [
        i - (d - l)
        for l in range(d + 1)
        for i, h in enumerate(cohomology(ishida_cone(cone, l)))
        if h
    ]
    return max(0, *cells)


def _scan_cases():
    return (
        [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS)]
        + seed77_cones()
        + [cyclic_cone(range(-4, 5), 5), cyclic_cone(range(-5, 6), 5), cyclic_cone(range(-4, 5), 6)]
    )


def test_demand_driven_defect_matches_full_scan():
    for cone in _scan_cases():
        want = full_scan_lcdef(cone)
        assert lcdef_cone(cone, shortcut_simplicial=False) == want, cone.rays
        assert lcdef_cone(cone) == want, cone.rays


def test_defect_scan_builds_and_ranks_only_what_it_needs(monkeypatch):
    cone = cyclic_cone(range(-4, 5), 6)
    built, diffs, ranked, seen = [], {}, [], {}
    build, rank = ishida.ishida_cone, xl.matrix_rank

    def build_level(c, l):
        cx = build(c, l)
        if id(cx) not in seen:  # a complex the memo hands out again is no new build
            seen[id(cx)] = cx
            built.append(l)
            diffs.update((id(m), m) for m in cx.diffs)
        return cx

    def rank_diff(m):
        if id(m) in diffs:
            ranked.append(id(m))
        return rank(m)

    monkeypatch.setattr(ishida, "ishida_cone", build_level)
    monkeypatch.setattr(xl, "matrix_rank", rank_diff)
    assert lcdef_cone(cone) == 3
    # level 0 for its check, level 5 for the cell (5, 4) of value 3; the
    # level-6 cells are zero and level 6 is never built
    assert sorted(built) == [0, 5]
    assert cone.dim not in built
    assert ranked and len(set(ranked)) == len(ranked)


def test_scan_builds_only_the_differentials_its_cell_reads(monkeypatch):
    """On the cone over the cyclic polytope (6, 9), whose proper faces are
    all simplicial, the scan reads one cell, (5, 4): it builds d_3 and d_4
    of level 5, 450 of the level's 753 contraction blocks, and squares them
    once.  The cohomology of that level afterwards builds d_0, d_1 and d_2
    and squares every consecutive pair."""
    cone = cone_from_rays(cyclic_rays(range(9), 6), 6)  # fresh: complexes are memoized
    contraction, blocks = xl.contraction_matrix, []
    product, products = xl._sparse_product, []
    monkeypatch.setattr(xl, "contraction_matrix", lambda *a: blocks.append(a) or contraction(*a))
    monkeypatch.setattr(xl, "_sparse_product", lambda a, b: products.append((a, b)) or product(a, b))
    assert lcdef_variety(cone) == 3
    cx = ishida_cone(cone, 5)
    assert sorted(cx._diffs) == [3, 4]
    assert len(blocks) == len(cx._pairs[3]) + len(cx._pairs[4]) == 450
    assert [(id(a), id(b)) for a, b in products] == [(id(cx.diff(4)), id(cx.diff(3)))]
    assert cohomology(cx) == (0, 0, 0, 0, 3, 0)
    assert len(blocks) == len(cx.pairs) == 753
    squared = {(id(a), id(b)) for a, b in products}
    assert len(products) == len(squared) == 4
    assert squared == {(id(cx.diff(k + 1)), id(cx.diff(k))) for k in range(4)}


def _variety_cases():
    """Fixtures, the seed-77 cones, a seeded pyramid of each, seeded random
    cones with their pyramids, cones embedded in a larger lattice, and cones
    over cyclic polytopes."""
    rng = random.Random(20)
    cones = [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS, GLUED_RAYS)] + seed77_cones()
    cones += [pyramid(c, random_apex(rng, c.rank)) for c in cones]
    for _ in range(12):
        d = rng.randrange(3, 6)
        cone = random_cone(rng, d)
        cones += [cone, pyramid(cone, random_apex(rng, d))]
    # rank above dimension: the rays followed by their coordinate sum
    cones += [
        cone_from_rays([r + (sum(r),) for r in rays], 5) for rays in (A_RAYS, GLUED_RAYS, T13_RAYS)
    ]
    cones += [cyclic_cone(range(-4, 5), 5), cyclic_cone(range(-4, 5), 6), cyclic_cone(range(-5, 5), 7)]
    return cones


def test_variety_defect_is_the_maximum_over_faces():
    values = set()
    for cone in _variety_cases():
        want = max(v for _, v in ishida.lcdef_faces(cone))
        assert lcdef_variety(cone) == want, cone.rays
        values.add(min(want, 3))
    assert values == {0, 1, 2, 3}


def test_variety_scan_builds_no_cell_below_the_answer(monkeypatch):
    # a cone on the rays of the pyramid over the first rank-5 seed-77 cone,
    # built afresh, with no base link, so that the scan reads its cells:
    # the base face has value 2, the top face value 1, and every other face
    # is simplicial
    seed = seed77_cones()[5]
    pyr = cone_from_rays(seed.rays, seed.rank)
    assert pyr._base is None
    built, ranked, seen, assembled = {}, [], {}, []
    build, rank, assemble = ishida.ishida_cone, xl.matrix_rank, ishida.assemble_complex

    def build_level(c, l):
        cx = build(c, l)
        if id(cx) not in seen:  # a complex the memo hands out again is no new build
            seen[id(cx)] = (c, l, cx)
            built.setdefault(c.dim, []).append(l)
        return cx

    def rank_diff(m):
        ranked.append(id(m))
        return rank(m)

    def count_assembly(*args):
        assembled.append(args[0])
        return assemble(*args)

    monkeypatch.setattr(ishida, "ishida_cone", build_level)
    monkeypatch.setattr(xl, "matrix_rank", rank_diff)
    monkeypatch.setattr(ishida, "assemble_complex", count_assembly)
    assert (pyr.dim, len(pyr.rays)) == (6, 7)
    assert lcdef_variety(pyr) == 2
    # candidate 3 is read only on the top face, at its cell (5, 4), which is
    # zero; candidate 2 on faces of dimension at least 5, and the base face,
    # first in face order, has the nonzero cell (4, 3).  Level d is built on
    # neither, and the top face stops at level 5: its level-4 cells have
    # values at most 2
    assert built == {5: [0, 4], 6: [0, 5]}
    assert all(d not in levels for d, levels in built.items())
    assert len(set(ranked)) == len(ranked)
    assert (len(assembled), len(ranked)) == (4, 4)
    # each cell reads two differentials, and only those are built: d_2 and
    # d_3 for (4, 3), d_3 and d_4 for (5, 4); level 0 has none
    assert {(c.dim, l): sorted(cx._diffs) for c, l, cx in seen.values()} == {
        (5, 0): [], (5, 4): [2, 3], (6, 0): [], (6, 5): [3, 4]
    }


def test_variety_scan_reads_no_face_of_dimension_below_c_plus_3(monkeypatch):
    """Fixture A has value 1 on the top face and twelve non-simplicial
    facets of dimension 3, listed before it.  Their cells of value 1 are
    decided, so the facets build their level-0 complexes for the check and
    nothing else; the top face builds level 3 for its cell (3, 2)."""
    built, build = {}, ishida.ishida_cone

    def build_level(c, l):
        built.setdefault(c.dim, []).append(l)
        return build(c, l)

    monkeypatch.setattr(ishida, "ishida_cone", build_level)
    assert lcdef_variety(cone_from_rays(A_RAYS, 4)) == 1
    assert built == {3: [0] * 12, 4: [0, 3]}


def test_pyramid_defects_match_a_cone_with_no_base_link():
    """The independent oracle of a pyramid's reuse of its base: every
    pyramid of the variety cases, each after its base (as the cases are
    listed), has the ``lcdef_variety`` and ``lcdef_faces`` of a cone built
    afresh on its rays, which has no base link and a fresh memo."""
    checked = 0
    for cone in _variety_cases():
        value = lcdef_variety(cone)
        if cone._base is None:
            continue
        fresh = cone_from_rays(cone.rays, cone.rank)
        assert fresh._base is None
        assert value == lcdef_variety(fresh), cone.rays
        assert ishida.lcdef_faces(cone) == ishida.lcdef_faces(fresh), cone.rays
        checked += 1
    assert checked == 43


def _record_assemblies(monkeypatch) -> tuple[list, list]:
    """Patch the builders so that every assembly of a cone's complex
    appends ``(cone, label)`` to the first list returned, and every
    differential built, when it is first read, ``(cone, label, degree)`` to
    the second."""
    build, assemble = ishida.ishida_cone, ishida.assemble_complex
    current, assembled, built = [], [], []

    def build_level(c, l):
        current.append(c)
        try:
            return build(c, l)
        finally:
            current.pop()

    def count_assembly(label, layers, blocks):
        cone = current[-1]
        assembled.append((cone, label))
        return assemble(label, layers, lambda k: built.append((cone, label, k)) or blocks(k))

    monkeypatch.setattr(ishida, "ishida_cone", build_level)
    monkeypatch.setattr(ishida, "assemble_complex", count_assembly)
    return assembled, built


def test_a_pyramid_after_its_base_assembles_only_apex_faces(monkeypatch):
    """After the defect of its base, the defect of a pyramid assembles no
    complex: it is the base's defect, whose complexes, and those of the
    base's face cones, are memoized on the base.  Over the first rank-5
    seed-77 cone, and over fixture A, whose proper faces are not all
    simplicial."""
    assembled, built = _record_assemblies(monkeypatch)
    cones = seed77_cones()
    base, pyr = cones[4], cones[5]
    assert pyr._base is base
    assert lcdef_variety(base) == 2
    assert built
    assembled.clear()
    built.clear()
    assert lcdef_variety(pyr) == 2
    assert assembled == [] and built == []
    base = cone_from_rays(A_RAYS, 4)
    pyr = pyramid(base, (0, 0, 0, 0, 1))
    assembled.clear()
    assert lcdef_variety(base) == 1
    assert any(c is not base for c, _ in assembled)
    # the top face reads its cell (3, 2), so it builds d_1 and d_2 of level 3
    assert [(label, k) for c, label, k in built if c is base] == [("cone level 3", 2), ("cone level 3", 1)]
    assembled.clear()
    built.clear()
    assert lcdef_variety(pyr) == 1
    assert assembled == [] and built == []


def test_a_pyramid_asked_first_assembles_only_its_bases_complexes(monkeypatch):
    """The defect of a pyramid over a fresh base costs the base's defect:
    ``lcdef_variety``, ``lcdef_cone`` and ``lcdef_faces`` of the pyramid
    assemble only on cones of the base's rank, none of whose rays is the
    apex, and ``lcdef_variety`` assembles what the base's own defect does
    on a copy of the base."""
    assembled, built = _record_assemblies(monkeypatch)
    for rays, apex in ((A_RAYS, (1, 0, 0, 0, 2)), (seed77_cones()[4].rays, (0, 1, 0, 0, 1, -3))):
        rank = len(apex) - 1
        pyr = pyramid(cone_from_rays(rays, rank), apex)
        want = lcdef_variety(cone_from_rays(rays, rank))
        expected = [(c.dim, label) for c, label in assembled]
        expected_built = [(c.dim, label, k) for c, label, k in built]
        assembled.clear()
        built.clear()
        assert lcdef_variety(pyr) == want
        assert [(c.dim, label) for c, label in assembled] == expected
        assert [(c.dim, label, k) for c, label, k in built] == expected_built
        lcdef_cone(pyr)
        ishida.lcdef_faces(pyr)
        assert assembled and all(c.rank == rank and pyr.rays[-1] not in c.rays for c, _ in assembled)
        assert built and all(c.rank == rank and pyr.rays[-1] not in c.rays for c, _, _ in built)
        assembled.clear()
        built.clear()


def test_fresh_pyramids_have_their_bases_cohomology():
    """The pyramid theorem behind the defect of a pyramid, on cones built
    afresh on the pyramids' rays, with no base link: levels 0..d of the
    cohomology table are the base's, level d + 1 is zero, and the defects
    of the full scan, of the pyramid and of its faces agree with those
    read off the base.  Over the seed-77 bases and the cyclic cones (4, 7)
    and (5, 8), with apexes of heights 1, 2 and 3 of either sign."""
    rng = random.Random(31)
    bases = seed77_cones()[::2] + [cyclic_cone(range(7), 4), cyclic_cone(range(8), 5)]
    checked = 0
    for base in bases:
        table, d = cone_cohomology_table(base), base.dim
        for apex in primitive_apexes(rng, base.rank):
            pyr = pyramid(base, apex)
            assert pyr.rays[-1][-1] == apex[-1]
            fresh = cone_from_rays(pyr.rays, pyr.rank)
            assert fresh._base is None
            fresh_table = cone_cohomology_table(fresh)
            assert [fresh_table.level(l) for l in range(d + 1)] == [table.level(l) for l in range(d + 1)]
            assert not any(fresh_table.level(d + 1)), pyr.rays
            assert full_scan_lcdef(fresh) == lcdef_cone(pyr) == max(0, lcdef_cone(base) - 1), pyr.rays
            assert ishida.lcdef_faces(pyr) == ishida.lcdef_faces(fresh), pyr.rays
            checked += 1
    assert checked == 66


def test_the_cells_the_scan_skips_are_zero():
    """The two facts the defect scan rests on, checked on the full
    cohomology tables and not through the scan: the level-d complex is
    acyclic, and H^(d-1) of level d-1 is zero.  On every cone of the scan
    and variety cases, rebuilt on its rays so that it has a fresh memo, and
    on every nonzero face of the four fixtures (dimensions 1 to 4)."""
    cones = [cone_from_rays(c.rays, c.rank) for c in _scan_cases() + _variety_cases()]
    assert len(cones) == 98
    for rays in (A_RAYS, B_RAYS, T13_RAYS, GLUED_RAYS):
        cone = cone_from_rays(rays, 4)
        cones += [face_cone(cone, f) for f in face_lattice(cone).all_faces if f.dim]
    assert {c.dim for c in cones} == {1, 2, 3, 4, 5, 6, 7}
    for cone in cones:
        d = cone.dim
        table = cone_cohomology_table(cone)
        assert not any(table.level(d)), cone.rays
        if d >= 2:
            assert table.level(d - 1)[d - 1] == 0, cone.rays


def test_defect_of_the_rank_seven_cyclic_cone():
    assert lcdef_cone(cyclic_cone(range(-5, 5), 7)) == 4


# ---------------------------------------------------------------------------
# representative independence of the differential


def override_normals(mp, poset, change):
    """Build the poset's contraction blocks from the canonical normals of
    :func:`normal_generator`, replaced by ``change(mu, tau, normal)``."""

    def pairing(mu, tau):
        return pairing_of_normal(poset, mu, tau, change(mu, tau, normal_of(poset, mu, tau)))

    mp.setattr(poset, "covering_pairing", pairing)


def test_normal_shift_leaves_matrices_unchanged(monkeypatch):
    # two fresh cones: complexes are memoized on the face lattice
    plain_cone, cone = cone_from_rays(T13_RAYS, 4), cone_from_rays(T13_RAYS, 4)
    lat = face_lattice(cone)
    moved = []

    def shift(mu, tau, n):
        rows = span_of(lat, mu)
        if not rows:
            return n
        moved.append(mu.key)
        return tuple(a + 2 * b for a, b in zip(n, rows[0]))

    plain = ishida_cone(plain_cone, 2)
    plain_diffs = plain.diffs  # every differential built, every pairing taken
    pairings = {key: p.values for key, p in face_lattice(plain_cone)._pairings.items()}
    override_normals(monkeypatch, lat, shift)
    shifted = ishida_cone(cone, 2)
    shifted_diffs = shifted.diffs
    assert moved
    # the shifted normal gives the same pairing as the one read off a ray
    for tau in lat.all_faces:
        for mu in lat.covered_by(tau):
            key = (mu.ray_indices, tau.ray_indices)
            if key in pairings:
                assert lat.covering_pairing(mu, tau).values == pairings[key]
    assert plain.dims == shifted.dims
    assert mats_equal(plain_diffs, shifted_diffs)


def test_fan_normal_shift_leaves_matrices_unchanged(monkeypatch):
    # two fresh fans: complexes are memoized on the fan
    plain_fan, fan = make_p112(), make_p112()
    moved = []

    def shift(mu, tau, n):
        rows = mu.span_rows
        if not rows:
            return n
        moved.append(mu.key)
        return tuple(a - 3 * b for a, b in zip(n, rows[0]))

    plain = ishida_fan(plain_fan, 2)
    plain_diffs = plain.diffs  # every differential built, every pairing taken
    pairings = {key: p.values for key, p in plain_fan._pairings.items()}
    override_normals(monkeypatch, fan, shift)
    shifted = ishida_fan(fan, 2)
    shifted_diffs = shifted.diffs
    assert moved
    for (mu, tau), values in pairings.items():
        assert fan.covering_pairing(fan.by_key[mu], fan.by_key[tau]).values == values
    assert mats_equal(plain_diffs, shifted_diffs)


def test_invalid_normals_are_rejected(monkeypatch):
    c = cone_from_rays(((1, 0), (0, 1)), 2)
    lat = face_lattice(c)
    pairing, scaled = lat.covering_pairing, []

    def corrupt(mu, tau):
        good = pairing(mu, tau)
        if mu.dim == 0 and tau.ray_indices == frozenset({0}):
            scaled.append(good.values)
            perp = lat.perps[mu.ray_indices]
            return xl.pairing([3 * x for x in good.values], perp, lat.basis(tau.ray_indices))
        return good

    monkeypatch.setattr(lat, "covering_pairing", corrupt)
    cx = ishida_cone(c, 2)
    # the scaled block is in d_0; the cell H^1 reads d_1, then d_0, and
    # squaring the two fails
    with pytest.raises(NotAComplex):
        cx.h(1)
    assert scaled


# ---------------------------------------------------------------------------
# assembly from covering pairs


def test_cone_complex_has_one_block_per_covering_pair(monkeypatch):
    cone = cone_from_rays(T13_RAYS, 4)  # fresh: complexes are memoized on the face lattice
    lat = face_lattice(cone)
    d = cone.dim
    contraction, calls = xl.contraction_matrix, []

    def counted(pairing, source, target):
        calls.append((source, target))
        return contraction(pairing, source, target)

    monkeypatch.setattr(xl, "contraction_matrix", counted)
    for l in range(d + 1):
        calls.clear()
        cx = ishida_cone(cone, l)
        assert calls == []  # no differential is built before it is read
        pairs = cx.pairs
        # sizes of the exterior powers of the annihilators, dimension d - m
        expected = {
            (mu.dim, mu.key, tau.key)
            for mu in lat.all_faces
            for tau in lat.all_faces
            if mu.dim + 1 == tau.dim <= l
            and mu.ray_indices < tau.ray_indices
            and comb(d - mu.dim, l - mu.dim) and comb(d - tau.dim, l - tau.dim)
        }
        assert len(calls) == len(expected)
        assert len(pairs) == len(expected) and set(pairs) == expected
        assert all(s.size and t.size for s, t in calls)


def _has_int_coordinates(pairing) -> bool:
    """Are the coordinates ints?  They are in Hermite bases of saturated
    lattices that contain the rows."""
    return pairing.coords is not None and all(type(x) is int for row in pairing.coords for x in row)


def test_top_degree_blocks_are_one_unit_determinant():
    """At the top degree the block of a covering pair is 1 x 1, and its
    entry is ``(-1)^j p_j det G' / p_j^(n-1)``, ``G'`` the coordinate rows
    without the pivot row ``j``: the full-order compound minor.  It is a
    unit, since the normal is primitive and both annihilators saturated.
    Every pairing, of a covering pair or of a vertical lift, has int
    coordinates, and pivots ``|p_j| >= 2`` occur.
    The posets: the fixtures, the seed-77 cones and their pyramids, the
    cones over the cyclic polytopes (5, 9) and (6, 9), and the stellar fan
    with the tilde and hat posets of a divisor with seeded rational values."""
    cones = [cone_from_rays(r, 4) for r in (A_RAYS, B_RAYS, T13_RAYS, GLUED_RAYS, CUBE_RAYS)]
    cones += seed77_cones() + [cyclic_cone(range(-4, 5), r) for r in (5, 6)]
    fan = random_complete_simplicial_fan(random.Random("stellar"), 4, 10)
    rng = random.Random(3)
    divisor = support_data(fan, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in fan.rays])
    blocks, wide = 0, 0
    for poset in [face_lattice(c) for c in cones] + [fan, tilde_poset(fan), divisor.hat]:
        for tau in poset.all_faces:
            for mu in poset.covered_by(tau):
                perp, target = poset.perps[mu.ray_indices], poset.perps[tau.ray_indices]
                n = len(perp)
                src = xl.ExteriorBasis(xl.SubspaceBasis(poset.width, perp), n)
                dst = xl.ExteriorBasis(xl.SubspaceBasis(poset.width, target), n - 1)
                pairing = poset.covering_pairing(mu, tau)
                assert _has_int_coordinates(pairing)
                j, pj = pairing.pivot, pairing.values[pairing.pivot]
                rest = [i for i in range(n) if i != j]
                (minor,) = xl._compound_minors(pairing.coords, rest, n - 1, n - 1)[tuple(rest)]
                entry = Fraction((-1) ** j * pj * minor, pj ** (n - 1))
                assert xl.contraction_matrix(pairing, src, dst).tolist() == [[entry]]
                assert abs(entry) == 1
                blocks += 1
                wide += abs(pj) >= 2
    assert all(_has_int_coordinates(_vertical_pairing(divisor, f)) for f in fan.all_faces)
    assert blocks > 0 and wide > 0


def test_top_degree_blocks_take_one_determinant_each(monkeypatch):
    """Every block of the level-d complex is at the top degree: each block
    of source degree at least 2 takes one determinant, of order one less,
    and no compound minor is built."""
    cone = cone_from_rays(A_RAYS, 4)  # fresh: complexes are memoized on the face lattice
    dets, minors = [], []
    det, compound = xl.integer_det, xl._compound_minors
    monkeypatch.setattr(xl, "integer_det", lambda m: dets.append(len(m)) or det(m))
    monkeypatch.setattr(xl, "_compound_minors", lambda *a: minors.append(a) or compound(*a))
    cx = ishida_cone(cone, cone.dim)
    pairs = cx.pairs  # builds every differential
    assert minors == []
    assert sorted(dets) == sorted(cone.dim - 1 - m for m, _, _ in pairs if m < cone.dim - 1)
    assert {1, 2, 3} <= set(dets)


def test_complexes_are_memoized_by_poset_and_level(cone_13, p112_fan):
    for l in range(cone_13.dim + 1):
        assert ishida_cone(cone_13, l) is ishida_cone(cone_13, l)
    assert ishida_fan(p112_fan, 1) is ishida_fan(p112_fan, 1) is not ishida_fan(p112_fan, 2)


def test_block_matrix_names_the_blocks_it_lacks(cone_13):
    cx = ishida_cone(cone_13, 2)
    top = len(cx.terms) - 1
    for degree, src, dst in ((0, (99,), (98,)), (7, (), (0,)), (top, cx.terms[top][0].face_key, ())):
        with pytest.raises(ValidationError, match=re.escape(f"no blocks {src!r} -> {dst!r} out of degree {degree}")):
            cx.block_matrix(degree, src, dst)
    i, s, t = cx.pairs[0]
    assert cx.block_matrix(i, s, t).shape == (cx.block(i + 1, t).size, cx.block(i, s).size)


def test_representatives_keep_their_height_in_acyclic_degrees(cone_13):
    cx = ishida_cone(cone_13, 2)
    assert [cx.representatives(i).shape for i in range(len(cx.terms))] == [(6, 0), (39, 9), (24, 0)]
    assert cx.representatives(-1).shape == cx.representatives(len(cx.terms)).shape == (0, 0)


def test_representatives_take_no_elimination_where_cohomology_vanishes(monkeypatch):
    """Once the ranks are known, a degree with ``h == 0``, the top degree
    included, gets its empty basis with no elimination at all."""
    cone = cone_from_rays(A_RAYS, 4)  # fresh: complexes are memoized
    cxs = [ishida_cone(cone, l) for l in range(cone.dim + 1)]
    zero = [(cx, i) for cx in cxs for i in range(len(cx.terms)) if not cx.h(i)]
    calls = []
    for name in ("matrix_rank", "rank_and_kernel", "pivot_columns"):
        monkeypatch.setattr(xl, name, lambda m, name=name: calls.append(name))
    assert [cx.representatives(i).shape for cx, i in zero] == [(cx.dims[i], 0) for cx, i in zero]
    assert calls == [] and any(i == len(cx.diffs) for cx, i in zero)


def test_dims_and_exterior_subsets_are_computed_once(monkeypatch):
    cx = ishida_cone(cone_from_rays(T13_RAYS, 4), 2)  # fresh: complexes are memoized
    size, calls = ishida.Block.size, []
    monkeypatch.setattr(ishida.Block, "size", property(lambda b: calls.append(b) or size.fget(b)))
    first = cx.dims
    assert calls and sum(first) == sum(b.basis.size for layer in cx.terms for b in layer)
    calls.clear()
    assert cx.dims is first and calls == []
    basis = cx.terms[1][0].basis
    assert basis.subsets is basis.subsets and len(basis.subsets) == basis.size


def test_cone_complex_proves_bases_independent_without_ranks(monkeypatch):
    cone_13, p112_fan = cone_from_rays(T13_RAYS, 4), make_p112()  # fresh: complexes are memoized
    face_lattice(cone_13)
    rank, ranked = xl.matrix_rank, []

    def counted(m):
        ranked.append(m.shape)
        return rank(m)

    monkeypatch.setattr(xl, "matrix_rank", counted)
    for l in range(cone_13.dim + 1):
        ishida_cone(cone_13, l).diffs
    for l in range(p112_fan.rank + 1):
        ishida_fan(p112_fan, l).diffs
    assert ranked == []


def test_every_level_of_a_fresh_cone_pivots_each_face_once(monkeypatch):
    """Building every level of a cone validates one basis per face, shared
    by every level, block and covering pairing: ``_echelon_pivots`` runs
    once for each of the 52 faces of the 13-ray cone and of fixture A, and
    the restricted complexes of the faces below a facet find no pivots
    again."""
    pivots, calls = xl._echelon_pivots, []
    monkeypatch.setattr(xl, "_echelon_pivots", lambda rows: calls.append(rows) or pivots(rows))
    for rays in (T13_RAYS, A_RAYS):
        cone = cone_from_rays(rays, 4)  # fresh: bases and complexes are memoized on the face lattice
        lat = face_lattice(cone)
        calls.clear()
        for l in range(cone.dim + 1):
            ishida_cone(cone, l).diffs
        assert len(calls) == len(lat.all_faces) == 52
        assert lat._bases.keys() == lat.by_key.keys()
        assert all(lat.basis(k).vectors == lat.perps[k] for k in lat.by_key)
        facet = lat.faces_by_dim[cone.dim - 1][0]
        restricted_complex(cone, 2, facet).diffs
        assert len(calls) == 52


def _all_pairs_diffs(cx, entry):
    """The old assembly as an oracle: every (source block, target block) pair
    of consecutive degrees of ``cx``'s terms is asked ``entry(i, src_key,
    dst_key)`` for its block as dense rows, ``None`` meaning zero."""
    out = []
    for i in range(len(cx.terms) - 1):
        d = [[0] * cx.dims[i] for _ in range(cx.dims[i + 1])]
        for sb in cx.terms[i]:
            for tb in cx.terms[i + 1]:
                if sb.size and tb.size:
                    block = entry(i, sb.face_key, tb.face_key)
                    if block is not None:
                        for r, row in enumerate(block, start=tb.offset):
                            d[r][sb.offset : sb.offset + sb.size] = row
        out.append(d)
    return out


def _old_slice(cx, i, src_key, dst_key):
    s = next(b for b in cx.terms[i] if b.face_key == src_key)
    t = next(b for b in cx.terms[i + 1] if b.face_key == dst_key)
    return [row[s.offset : s.offset + s.size] for row in cx.diffs[i].tolist()[t.offset : t.offset + t.size]]


def test_graded_pieces_match_the_all_pairs_assembly(cone_13):
    from toricdef.polyhedral import face_cone

    lat = face_lattice(cone_13)
    for tau in lat.all_faces[1:]:
        sub = face_cone(cone_13, tau)
        for l in range(cone_13.dim + 1):
            g = graded_piece(cone_13, l, tau)
            inner = {}

            def entry(i, src, dst):
                (js, cs, fs), (jt, ct, ft) = src, dst
                if (js, cs) != (jt, ct):
                    return None
                if js not in inner:
                    inner[js] = ishida_cone(sub, l - js)
                return _old_slice(inner[js], i, fs, ft)

            assert [d.tolist() for d in g.diffs] == _all_pairs_diffs(g, entry), (tau.key, l)


def test_filtration_stages_match_the_all_pairs_assembly(cone_13, cube_cone):
    from toricdef.criteria import shelling_filtration
    from toricdef.polyhedral import line_shelling

    for cone in (cone_13, cube_cone):
        filt = shelling_filtration(cone, line_shelling(cone))
        full = filt.full
        for k in range(filt.depth + 1):
            keep = filt._keep_sub(k)
            for cx, kept in ((filt.sub(k), keep), (filt.quotient(k), lambda key: not keep(key))):
                assert [[b.face_key for b in layer] for layer in cx.terms] == [
                    [b.face_key for b in layer if kept(b.face_key)] for layer in full.terms
                ]
                want = _all_pairs_diffs(cx, lambda i, s, t: _old_slice(full, i, s, t))
                assert [d.tolist() for d in cx.diffs] == want, k


# ---------------------------------------------------------------------------
# graded pieces vs restricted complexes


def test_graded_matches_restricted_on_facets(cone_a):
    lat = face_lattice(cone_a)
    facets = lat.faces_by_dim[3][:2]
    for tau in facets:
        for l in (1, 2):
            g = graded_piece(cone_a, l, tau.key)
            r = restricted_complex(cone_a, l, tau.key)
            assert cohomology(g) == cohomology(r)


def test_graded_piece_at_the_zero_face(cone_a):
    """At the zero face the graded piece is ``C(d, l)`` copies of the zero
    cone's one-dimensional level-0 complex, in degree 0, as is the
    restricted complex: cohomology ``(C(d, l),)`` at every level, also on
    cones that are not full-dimensional."""
    cones = [cone_a] + [
        cone_from_rays(rays, len(rays[0]))
        for rays in (
            ((1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)),
            ((1, 0, 1), (0, 1, 1)),
            ((1, 2),),
        )
    ]
    assert [c.dim for c in cones] == [4, 3, 2, 1]
    for cone in cones:
        d = cone.dim
        for l in range(d + 1):
            g = graded_piece(cone, l, ())
            assert [b.face_key for b in g.terms[0]] == [(l, copy, ()) for copy in range(comb(d, l))]
            assert cohomology(g) == cohomology(restricted_complex(cone, l, ())) == (comb(d, l),)


def test_non_face_ray_set_is_rejected(square_cone):
    for build in (graded_piece, restricted_complex):
        with pytest.raises(ValidationError, match=r"rays \[0, 2\] are not a face"):
            build(square_cone, 1, (0, 2))


def test_face_of_another_cone_is_rejected(cone_a, cone_b):
    own = face_lattice(cone_a).by_key
    face = next(
        f for f in face_lattice(cone_b).all_faces
        if f.dim >= 2 and f.ray_indices in own and own[f.ray_indices] != f
    )
    for build in (graded_piece, restricted_complex):
        with pytest.raises(ValidationError, match="belongs to another cone"):
            build(cone_a, 1, face)
        assert build(cone_a, 1, own[face.ray_indices]).dims == build(cone_a, 1, face.key).dims


def test_restricted_complex_of_top_is_whole_complex(cone_13):
    lat = face_lattice(cone_13)
    top = lat.top()
    r = restricted_complex(cone_13, 2, top.key)
    assert cohomology(r) == cohomology(ishida_cone(cone_13, 2))


# ---------------------------------------------------------------------------
# randomized invariants


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_random_cone_invariants(seed):
    rng = random.Random(seed)
    d = rng.randrange(2, 5)
    cone = random_cone(rng, d)
    val = lcdef_cone(cone)
    assert 0 <= val <= max(0, d - 3)
    assert lcdef_cone(cone, shortcut_simplicial=False) == val
    if is_simplicial(cone):
        assert val == 0
    # middle-degree vanishing at level p whenever 2p >= dim
    for p in range((d + 1) // 2, d + 1):
        assert cohomology(ishida_cone(cone, p))[p] == 0
