"""Combinatorial certificates for the defect of four-dimensional cones, and
the facet-order filtration machinery behind the shelling certificate."""

import pytest

from toricdef import (
    FORCES_LCDEF_0,
    FORCES_LCDEF_1,
    INCONCLUSIVE,
    InvalidShelling,
    ValidationError,
    WrongDimension,
    cohomology,
    euler_criterion,
    face_lattice,
    find_shelling,
    is_shelling,
    ishida_cone,
    lcdef_variety,
    line_shelling,
    shelling_filtration,
    shelling_ray_criterion,
    simplicial_star_criterion,
)
from toricdef.exact_linalg import Matrix, matrix_rank


# ---------------------------------------------------------------------------
# guards


def test_criteria_require_dimension_four(orthant3):
    for crit in (euler_criterion, shelling_ray_criterion, simplicial_star_criterion):
        with pytest.raises(WrongDimension):
            crit(orthant3)
    with pytest.raises(WrongDimension):
        shelling_filtration(orthant3, line_shelling(orthant3))


# ---------------------------------------------------------------------------
# the face-count certificate


def test_euler_counts(orthant4, cube_cone, glued_cone, cone_a, cone_13):
    expect = {
        id(orthant4): (INCONCLUSIVE, (4, 6, 4)),
        id(cube_cone): (INCONCLUSIVE, (8, 12, 6)),
        id(glued_cone): (FORCES_LCDEF_1, (6, 11, 7)),
        id(cone_a): (INCONCLUSIVE, (14, 24, 12)),
        id(cone_13): (INCONCLUSIVE, (13, 24, 13)),
    }
    for cone in (orthant4, cube_cone, glued_cone, cone_a, cone_13):
        verdict = euler_criterion(cone)
        assert (verdict.verdict, verdict.witness) == expect[id(cone)]
        v, e, f = verdict.witness
        assert v - e + f == 2
        assert (verdict.verdict == FORCES_LCDEF_1) == (f > v)
        assert verdict.conclusive == (verdict.verdict != INCONCLUSIVE)


# ---------------------------------------------------------------------------
# the shelling-order certificate


def _ray_condition_holds(cone, keys):
    lat = face_lattice(cone)
    covered = set()
    for pos, key in enumerate(keys):
        rays = set(key)
        if pos <= len(keys) - 3 and not (rays - covered):
            return False
        covered |= rays
    return True


def test_shelling_certificate_positive(orthant4, cube_cone):
    for cone in (orthant4, cube_cone):
        verdict = shelling_ray_criterion(cone)
        assert verdict.verdict == FORCES_LCDEF_0
        assert is_shelling(cone, [face_lattice(cone).by_key[frozenset(k)] for k in verdict.witness])
        assert _ray_condition_holds(cone, verdict.witness)
        assert lcdef_variety(cone) == 0


def test_shelling_certificate_negative(cone_a, cone_b, cone_13, glued_cone):
    for cone in (cone_a, cone_b, cone_13, glued_cone):
        assert shelling_ray_criterion(cone).verdict == INCONCLUSIVE


def test_shelling_certificate_small_budget(cube_cone, cone_a):
    # line shellings are tried before the search, so a tiny budget still
    # certifies the cube; the negative case stays negative
    assert shelling_ray_criterion(cube_cone, search_budget=1).verdict == FORCES_LCDEF_0
    assert shelling_ray_criterion(cone_a, search_budget=1).verdict == INCONCLUSIVE


def test_shelling_searches_reject_a_negative_budget(cube_cone, glued_cone):
    # checked before the line shellings, which certify the cube on their own
    with pytest.raises(ValidationError):
        shelling_ray_criterion(cube_cone, search_budget=-1)
    with pytest.raises(ValidationError):
        find_shelling(glued_cone, budget=-1)
    assert find_shelling(glued_cone, budget=0) is None


# ---------------------------------------------------------------------------
# the simplicial-star certificate


def test_star_certificate(glued_cone, orthant4, cube_cone, cone_a, cone_13):
    verdict = simplicial_star_criterion(glued_cone)
    assert verdict.verdict == FORCES_LCDEF_1
    assert verdict.witness == (4, (0, 0, 2, 1))
    for cone in (orthant4, cube_cone, cone_a, cone_13):
        assert simplicial_star_criterion(cone).verdict == INCONCLUSIVE


def test_star_hypothesis_also_holds_at_glued_ray(glued_cone):
    # the scan returns the first qualifying ray; the ray used to glue the two
    # pieces qualifies as well, which we re-check from the definition
    lat = face_lattice(glued_cone)
    containing = [f for f in lat.faces_by_dim[3] if 5 in f.ray_indices]
    assert containing and all(len(f.ray_indices) == f.dim for f in containing)
    others = [r for i, r in enumerate(glued_cone.rays) if i != 5]
    assert matrix_rank(Matrix.from_dense(others, 4)) == 4


# ---------------------------------------------------------------------------
# soundness of conclusive verdicts


def test_conclusive_verdicts_match_defect(
    orthant4, cube_cone, glued_cone, cone_a, cone_b, cone_13
):
    for cone in (orthant4, cube_cone, glued_cone, cone_a, cone_b, cone_13):
        value = lcdef_variety(cone)
        for crit in (euler_criterion, shelling_ray_criterion, simplicial_star_criterion):
            verdict = crit(cone)
            if verdict.verdict == FORCES_LCDEF_0:
                assert value == 0
            elif verdict.verdict == FORCES_LCDEF_1:
                assert value == 1


# ---------------------------------------------------------------------------
# shelling search


def test_find_shelling_prefix(glued_cone):
    lat = face_lattice(glued_cone)
    keys = [f.key for f in lat.faces_by_dim[3]]
    sh = find_shelling(glued_cone, prefix_keys=(keys[0],))
    assert sh is not None and sh.keys()[0] == keys[0]
    assert is_shelling(glued_cone, sh)
    # a disconnected prefix admits no completion
    assert find_shelling(glued_cone, prefix_keys=((0, 1, 5), (2, 3, 4))) is None


# ---------------------------------------------------------------------------
# the filtration by facet order


def test_filtration_values(glued_cone):
    filt = shelling_filtration(glued_cone, line_shelling(glued_cone, seed=0))
    assert filt.depth == 7
    full = ishida_cone(glued_cone, 3)
    assert full.dims == (4, 18, 22, 7)
    assert cohomology(full) == (0, 0, 1, 0)
    assert filt.sub(0).dims == full.dims
    assert filt.quotient(filt.depth).dims == full.dims
    assert cohomology(filt.quotient(filt.depth)) == (0, 0, 1, 0)
    # complementary dimensions at every stage
    for k in range(filt.depth + 1):
        s, q = filt.sub(k), filt.quotient(k)
        assert tuple(a + b for a, b in zip(s.dims, q.dims)) == full.dims
    # spot values along the way
    assert filt.sub(3).dims == (0, 0, 6, 4)
    assert cohomology(filt.sub(3)) == (0, 0, 2, 0)
    assert filt.quotient(3).dims == (4, 18, 16, 3)
    assert cohomology(filt.quotient(3)) == (0, 1, 0, 0)
    assert filt.sub(5).dims == (0, 0, 2, 2)
    assert cohomology(filt.sub(5)) == (0, 0, 0, 0)
    assert cohomology(filt.sub(6)) == (0, 0, 0, 1)


def test_filtration_rejects_non_shellings(glued_cone):
    lat = face_lattice(glued_cone)
    order = [
        lat.by_key[frozenset(k)]
        for k in ((0, 1, 5), (2, 3, 4), (0, 1, 2, 3), (0, 2, 4), (0, 4, 5), (1, 4, 5), (1, 3, 4))
    ]
    assert not is_shelling(glued_cone, order)
    with pytest.raises(InvalidShelling):
        shelling_filtration(glued_cone, order)


def test_filtration_accepts_raw_face_order(cube_cone):
    sh = line_shelling(cube_cone, seed=2)
    lat = face_lattice(cube_cone)
    faces = [lat.by_key[frozenset(k)] for k in sh.keys()]
    filt = shelling_filtration(cube_cone, faces)
    assert filt.depth == 6
    assert cohomology(filt.sub(0)) == cohomology(ishida_cone(cube_cone, 3))
